"""The delta-gluing pipeline: removable-edge pool, gluing loop, algorithm A.

Step 1 takes a maximum cycle cover and marks the two minimum-weight edges
of each cycle as the removable pool E0.  Step 2 repeatedly merges two
cycles by swapping one surviving pool edge from each for a reconnecting
pair that keeps at least (1 - delta) of the removed weight; only pool
edges are ever removed, so the total loss stays below (2/3) * delta of
the initial cover.  Step 3 (in :mod:`maxtsp.merge`) patches whatever
cycles remain into a single tour.  The terminal state also certifies a
geometry fact: once no gluing is possible, all selected edges crowd into
a ball of radius t/delta - t around the shortest one, t its weight, which
in a space of doubling dimension dim caps the surviving cycle count at
(2/delta)^(2*dim) / 2.  The tests measure that radius (r_tau).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .certificate import Certificate, certify
from .cyclecover import (
    CycleCover,
    Edge,
    Tour,
    cycle_edges,
    edge_weight,
    lightest_edges,
    max_weight_cycle_cover,
    splice,
)
from .merge import serdyukov_combine
from .metricspace import Instance, check_delta, check_dim

# Slack for the gluing feasibility comparison, scaled by the largest
# distance; keeps a run from flapping on float-boundary ties.
FEASIBILITY_EPS_FACTOR = 1e-12


@dataclass
class GluingState:
    """Working state of the gluing loop.

    cycles is the current cover; e0_per_cycle[i] holds cycle i's surviving
    pool edges, lightest first (always exactly two: each merge consumes the
    lighter one from each side and the merged cycle inherits the two
    leftovers).  removed_log records every performed gluing as (removed
    pair, added pair, removed weight, added weight).
    """

    inst: Instance
    delta: float
    cycles: List[List[int]]
    e0_per_cycle: List[List[Edge]]
    removed_log: List[tuple] = field(default_factory=list)

    @property
    def k(self) -> int:
        return len(self.cycles)


def select_E0(inst: Instance, cover: CycleCover) -> List[List[Edge]]:
    """The removable pool, per cycle: its two lightest edges, lightest first.

    Ties break by lexicographic vertex-pair order.  Because each cycle has
    at least three edges, the pool carries at most 2/3 of the cover weight.
    """
    pools = [lightest_edges(inst, cycle_edges(cyc))[:2] for cyc in cover.cycles]
    pool_weight = sum(edge_weight(inst, e) for pool in pools for e in pool)
    assert pool_weight <= (2.0 / 3.0 + 1e-9) * cover.weight
    return pools


def try_delta_gluing(
    inst: Instance,
    c1: Sequence[int],
    c2: Sequence[int],
    e1: Edge,
    e2: Edge,
    delta: float,
) -> Optional[List[int]]:
    """Attempt to merge two disjoint cycles by swapping e1 and e2 out.

    Evaluates both reconnecting pairs, {a1,b2},{a2,b1} and {a1,a2},{b1,b2};
    if the heavier one retains at least (1 - delta) of the removed weight
    the merged cycle (see :func:`splice`) is returned, otherwise None.
    Ties between the two pairs go to the first pattern.
    """
    check_delta(delta)
    if set(c1) & set(c2):
        raise ValueError("cycles share vertices")
    d = inst.dist
    a1, b1 = e1
    a2, b2 = e2
    removed = float(d[a1, b1] + d[a2, b2])
    cross = float(d[a1, b2] + d[a2, b1])
    straight = float(d[a1, a2] + d[b1, b2])
    # splice before the feasibility test, so a foreign edge always raises
    merged = splice(c1, c2, e1, e2, 0 if cross >= straight else 1)
    eps = FEASIBILITY_EPS_FACTOR * inst.max_dist()
    if max(cross, straight) < (1.0 - delta) * removed - eps:
        return None
    return merged


def make_gluing_state(inst: Instance, cover: CycleCover, delta: float) -> GluingState:
    """Initial loop state for a cover, with its removable pool."""
    return GluingState(
        inst=inst,
        delta=check_delta(delta),
        cycles=[list(c) for c in cover.cycles],
        e0_per_cycle=select_E0(inst, cover),
    )


def current_selection(state: GluingState) -> List[Edge]:
    """One selected pool edge per cycle: the lightest survivor.

    This is the selection the loop tests for feasible gluings, and the
    one the terminal-radius fact above is stated on.
    """
    return [pool[0] for pool in state.e0_per_cycle]


def glue_once(state: GluingState) -> bool:
    """Perform the first feasible gluing in lexicographic pair order.

    Returns True when a merge happened.  The merged cycle replaces the
    lower-indexed cycle and inherits both sides' leftover pool edges, so
    every cycle keeps exactly two surviving pool edges.
    """
    sel = current_selection(state)
    for p in range(state.k):
        for q in range(p + 1, state.k):
            merged = try_delta_gluing(
                state.inst, state.cycles[p], state.cycles[q], sel[p], sel[q], state.delta
            )
            if merged is None:
                continue
            ep, eq = sel[p], sel[q]
            d = state.inst.dist
            # the added edges are the merged cycle's junctions, see splice
            m = len(state.cycles[p])
            j1, j2 = (merged[0], merged[-1]), (merged[m - 1], merged[m])
            added = tuple((min(u, v), max(u, v)) for u, v in (j1, j2))
            added_w = float(d[j1] + d[j2])
            removed_w = float(d[ep] + d[eq])
            state.removed_log.append(((ep, eq), added, removed_w, added_w))
            survivors = state.e0_per_cycle[p][1:] + state.e0_per_cycle[q][1:]
            state.cycles[p] = merged
            state.e0_per_cycle[p] = lightest_edges(state.inst, survivors)
            del state.cycles[q]
            del state.e0_per_cycle[q]
            return True
    return False


def gluing_loop(inst: Instance, cover: CycleCover, delta: float) -> CycleCover:
    """Run the gluing loop to exhaustion and return the shrunk cover.

    The result keeps at least (1 - (2/3) * delta) of the input weight:
    each merge loses at most delta times the removed pool weight, pool
    edges are removed at most once, and the whole pool weighs at most 2/3
    of the cover.  When the instance's true doubling dimension is at most
    dim, the terminal cycle count is at most (2/delta)^(2*dim) / 2; the
    weight guarantee needs no dim at all.
    """
    state = make_gluing_state(inst, cover, delta)
    while glue_once(state):
        pass
    return CycleCover.from_cycles(inst, state.cycles)


def algorithm_A(
    inst: Instance, delta: float, dim: Optional[float] = None
) -> Tuple[Tour, Certificate]:
    """Full pipeline: maximum cover, gluing loop, patch into a tour.

    The certificate (see :func:`maxtsp.certificate.certify`) claims the
    cover-relative chain bound, which also bounds the ratio against the
    optimum because the maximum cover outweighs every tour.  It is
    positive for every valid input: k_final <= n/3 and delta < 1.  It
    needs no dimension bound; dim (None, or non-negative) is only recorded.
    """
    delta = check_delta(delta)
    dim = None if dim is None else check_dim(dim)
    cover = max_weight_cycle_cover(inst)
    glued = gluing_loop(inst, cover, delta)
    tour = serdyukov_combine(inst, glued)
    observed = {"weight_cover": cover.weight, "k_initial": cover.k, "k_after_gluing": glued.k}
    return tour, certify("algorithm-A", inst.n, tour.weight, delta=delta, dim=dim, **observed)
