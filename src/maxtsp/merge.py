"""Patching a cycle cover into a single tour, and the 5/6 fallback.

:func:`serdyukov_combine` merges the lowest-density cycle into a partner
by the best two-edge patch, found in one scan over partners, edge pairs
and patterns; each merge loses at most the total weight over n, which
compounds to the (1 - 1/n)^(k-1) floor the certificates rely on.  The
merge is :func:`maxtsp.cyclecover.splice`, shared with the gluing loop;
it opens each cycle at a C-level list index, not a Python scan.
:func:`kostochka_serdyukov_56` is the constant-factor fallback: drop the
minimum edge of each cycle of a maximum cover, then close the paths with
junction edges worth at least half the dropped weight (an orientation DP
whose ties go to the smaller orientation), for 5/6 of the optimum.
"""

from __future__ import annotations

import math
from typing import List, Tuple

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


def serdyukov_combine(inst: Instance, cover: CycleCover) -> Tour:
    """Merge all cycles of a cover into one tour by best-patch merging.

    Always merge the cycle of minimum weight-per-vertex (ties to the lowest
    vertex id).  Its partner and patch come from one scan: partners in list
    order, then edges of the low-density cycle, then edges of the partner,
    then pattern 0 before 1 (see :func:`splice`); the first strictly
    larger gain, added minus removed weight, wins.  The patch never loses
    more than the low-density cycle's minimum edge, at most (current total
    weight)/n, so k-1 merges keep (1 - 1/n)^(k-1) of the cover weight.
    """
    d = inst.dist
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
                            best = (gain, b_idx, ea, eb, pattern)
        _, b_idx, ea, eb, pattern = best
        cycles[a_idx] = splice(a, cycles[b_idx], ea, eb, pattern)
        del cycles[b_idx]
    return Tour.from_order(inst, cycles[0])


def _best_orientation_tour(inst: Instance, paths: List[List[int]]) -> Tour:
    """Close the path sequence into a tour with optimal path orientations.

    Orientations interact only between neighbours in the fixed cyclic
    order: a two-state chain DP per orientation o0 of the first path, its
    other start state at -inf.  Ties go to the smaller orientation at each
    step and at the close; o0 = 1 wins only when strictly heavier.  The
    optimum is at least the uniform-orientation average, which collects
    half of each dropped edge {s, t}: d(x, s) + d(x, t) >= d(s, t) at exit x.
    """
    d = inst.dist
    k = len(paths)
    ends = [(p[0], p[-1]) for p in paths]

    def link(i: int, oi: int, j: int, oj: int) -> float:
        # orientation 0 traverses the stored path forward: enter at
        # ends[.][0], exit at ends[.][1]; orientation 1 is the reverse
        return float(d[ends[i][1 - oi], ends[j][oj]])

    best_total, best_assign = -math.inf, None
    for o0 in (0, 1):
        value = [0.0 if o == o0 else -math.inf for o in (0, 1)]
        parents = []
        for j in range(1, k):
            steps = [[value[po] + link(j - 1, po, j, oj) for po in (0, 1)] for oj in (0, 1)]
            parents.append([int(s[1] > s[0]) for s in steps])
            value = [max(s) for s in steps]
        closing = [value[o] + link(k - 1, o, 0, o0) for o in (0, 1)]
        last = int(closing[1] > closing[0])
        if closing[last] > best_total:
            assign = [last]
            for par in reversed(parents):
                assign.append(par[assign[-1]])
            best_total, best_assign = closing[last], assign[::-1]
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
