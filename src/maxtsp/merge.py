"""Patching a cycle cover into a single tour, and the 5/6 fallback.

Two constructions live here.  :func:`serdyukov_combine` repeatedly merges
the lowest-density cycle into a partner via the best exhaustive two-edge
patch; each merge loses at most the current total weight divided by n,
which compounds to the (1 - 1/n)^(k-1) floor the certificates rely on.
The merge itself is :func:`maxtsp.cyclecover.splice`, the step the gluing
loop uses too.
:func:`kostochka_serdyukov_56` is the constant-factor fallback: drop the
minimum edge of each cycle of a maximum cover, then close the resulting
paths into a tour with junction edges worth at least half the dropped
weight in total, for a 5/6 guarantee against the cover (and hence against
the optimum).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .certificate import Certificate
from .cyclecover import (
    CycleCover,
    Tour,
    cycle_edges,
    cycle_weight,
    lightest_edges,
    max_weight_cycle_cover,
    open_cycle_at,
    splice,
)
from .metricspace import Instance


def _best_patch(inst: Instance, a: Sequence[int], b: Sequence[int]):
    """Best two-edge reconnection of cycles a and b.

    Scans every (edge of a) x (edge of b) x (two reconnection patterns)
    and returns (gain, edge_a, edge_b, pattern) with gain = added weight
    minus removed weight; ties keep the first candidate in scan order.
    """
    d = inst.dist
    best = None
    for ea in cycle_edges(a):
        a1, b1 = ea
        w_ea = float(d[a1, b1])
        for eb in cycle_edges(b):
            a2, b2 = eb
            removed = w_ea + float(d[a2, b2])
            cross = float(d[a1, b2] + d[a2, b1])
            straight = float(d[a1, a2] + d[b1, b2])
            for pattern, added in ((0, cross), (1, straight)):
                gain = added - removed
                if best is None or gain > best[0]:
                    best = (gain, ea, eb, pattern)
    return best


def serdyukov_combine(inst: Instance, cover: CycleCover) -> Tour:
    """Merge all cycles of a cover into one tour by best-patch merging.

    Merge order: always merge the cycle of minimum weight-per-vertex
    (ties to the cycle with the lowest vertex id) with whichever partner
    and patch retain the most weight.  The exhaustive patch never loses
    more than the minimum edge weight of the low-density cycle, which is
    at most (current total weight)/n; after k-1 merges the tour therefore
    keeps at least (1 - 1/n)^(k-1) of the cover weight.
    """
    cycles = [list(c) for c in cover.cycles]
    while len(cycles) > 1:
        a_idx = min(
            range(len(cycles)),
            key=lambda i: (cycle_weight(inst, cycles[i]) / len(cycles[i]), min(cycles[i])),
        )
        a = cycles[a_idx]
        best = None
        for b_idx, b in enumerate(cycles):
            if b_idx == a_idx:
                continue
            gain, ea, eb, pattern = _best_patch(inst, a, b)
            if best is None or gain > best[0]:
                best = (gain, b_idx, ea, eb, pattern)
        _, b_idx, ea, eb, pattern = best
        merged = splice(a, cycles[b_idx], ea, eb, pattern)
        cycles[a_idx] = merged
        del cycles[b_idx]
    return Tour.from_order(inst, cycles[0])


def _best_orientation_tour(inst: Instance, paths: List[List[int]]) -> Tour:
    """Close the path sequence into a tour with optimal path orientations.

    Orientations interact only between neighbours in the fixed cyclic
    order, so the optimum over all 2^k assignments is a two-state chain
    maximization.  Its value is at least the uniform-orientation average,
    and that average already collects half of every dropped edge: for any
    exit point x of the previous path, dist(x, s) + dist(x, t) is at
    least dist(s, t) when {s, t} bounded a removed cycle edge.
    """
    d = inst.dist
    k = len(paths)
    ends = [(p[0], p[-1]) for p in paths]

    def link(i: int, oi: int, j: int, oj: int) -> float:
        # orientation 0 traverses the stored path forward: enter at
        # ends[.][0], exit at ends[.][1]; orientation 1 is the reverse
        return float(d[ends[i][1 - oi], ends[j][oj]])

    best_total, best_assign = None, None
    for o0 in (0, 1):
        value = {o0: 0.0}
        parents: List[dict] = []
        for j in range(1, k):
            nxt = {}
            par = {}
            for oj in (0, 1):
                cand = {po: value[po] + link(j - 1, po, j, oj) for po in value}
                po = max(cand, key=lambda o: (cand[o], -o))
                nxt[oj] = cand[po]
                par[oj] = po
            value = nxt
            parents.append(par)
        closed = {o: value[o] + link(k - 1, o, 0, o0) for o in value}
        last = max(closed, key=lambda o: (closed[o], -o))
        if best_total is None or closed[last] > best_total:
            assign = [0] * k
            assign[k - 1] = last
            for j in range(k - 1, 0, -1):
                assign[j - 1] = parents[j - 1][assign[j]]
            assign[0] = o0
            best_total, best_assign = closed[last], assign
    order: List[int] = []
    for path, o in zip(paths, best_assign):
        order.extend(path if o == 0 else path[::-1])
    return Tour.from_order(inst, order)


def _greedy_junction_tour(inst: Instance, paths: List[List[int]]) -> Tour:
    """Close the paths greedily: attach each next path at whichever free
    end of the partial tour gives the heaviest junction edge."""
    d = inst.dist
    seq = list(paths[0])
    for path in paths[1:]:
        head, tail = seq[0], seq[-1]
        options = []
        for oriented in (path, path[::-1]):
            c = oriented[0]
            options.append((float(d[tail, c]), "tail", oriented))
            options.append((float(d[head, c]), "head", oriented))
        _, where, oriented = max(options, key=lambda t: t[0])
        if where == "tail":
            seq = seq + oriented
        else:
            seq = oriented[::-1] + seq
    return Tour.from_order(inst, seq)


def kostochka_serdyukov_56(inst: Instance) -> Tuple[Tour, Certificate]:
    """Constant-factor fallback: tour weight at least 5/6 of the optimum.

    Builds the maximum cycle cover, drops the minimum-weight edge of each
    cycle (at most a third of each cycle), and closes the resulting paths
    into a tour recovering at least half of the dropped weight through the
    junction edges.  Both closing strategies are computed and the heavier
    tour wins; the orientation-optimal one carries the guarantee.
    """
    cover = max_weight_cycle_cover(inst)
    if cover.k == 1:
        tour = Tour.from_order(inst, cover.cycles[0])
    else:
        paths = [open_cycle_at(c, lightest_edges(inst, cycle_edges(c))[0]) for c in cover.cycles]
        best = _best_orientation_tour(inst, paths)
        greedy = _greedy_junction_tour(inst, paths)
        tour = best if best.weight >= greedy.weight else greedy
    cert = Certificate(
        branch="five-sixths",
        weight_tour=tour.weight,
        claimed_bound=5.0 / 6.0,
        certified=True,
        k_initial=cover.k,
        weight_cover=cover.weight,
    )
    return tour, cert
