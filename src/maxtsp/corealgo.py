"""The delta-gluing pipeline: removable-edge pool, gluing loop, diagnostics.

Step 1 takes a maximum cycle cover and marks the two minimum-weight edges
of each cycle as the removable pool E0.  Step 2 repeatedly merges two
cycles by swapping one surviving pool edge from each for a reconnecting
pair that keeps at least (1 - delta) of the removed weight; only pool
edges are ever removed, so the total loss stays below (2/3) * delta of
the initial cover.  Step 3 (in :mod:`maxtsp.merge`) patches whatever
cycles remain into a single tour.  The terminal state also certifies a
geometry fact: once no gluing is possible, all selected edges crowd into
a ball of radius t/delta - t around the shortest one (see :func:`r_tau`),
which in a space of doubling dimension dim caps the surviving cycle
count at (2/delta)^(2*dim) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .certificate import Certificate
from .cyclecover import (
    CycleCover,
    canonical_cycle,
    cycle_edges,
    cycle_weight,
    max_weight_cycle_cover,
)
from .metricspace import Instance

Edge = Tuple[int, int]

# Slack for the gluing feasibility comparison, scaled by the largest
# distance; keeps a run from flapping on float-boundary ties.
FEASIBILITY_EPS_FACTOR = 1e-12


@dataclass(frozen=True)
class Tour:
    """A Hamiltonian cycle: canonical cyclic order plus total weight."""

    order: Tuple[int, ...]
    weight: float

    @staticmethod
    def from_order(inst: Instance, order: Sequence[int]) -> "Tour":
        order = tuple(order)
        if sorted(order) != list(range(inst.n)):
            raise ValueError("tour order is not a permutation of the vertex set")
        return Tour(order=canonical_cycle(order), weight=cycle_weight(inst, order))


@dataclass
class GluingState:
    """Working state of the gluing loop.

    cycles is the current cover; e0_per_cycle[i] holds cycle i's surviving
    pool edges (always exactly two: each merge consumes one from each side
    and the merged cycle inherits the two leftovers).  removed_log records
    every performed gluing as (removed pair, added pair, removed weight,
    added weight).
    """

    inst: Instance
    delta: float
    cycles: List[List[int]]
    e0_per_cycle: List[List[Edge]]
    removed_log: List[tuple] = field(default_factory=list)
    removed_edges: set = field(default_factory=set)

    @property
    def k(self) -> int:
        return len(self.cycles)


def edge_weight(inst: Instance, e: Edge) -> float:
    return float(inst.dist[e[0], e[1]])


def select_E0(inst: Instance, cover: CycleCover) -> Tuple[Edge, ...]:
    """The removable pool: the two minimum-weight edges of every cycle.

    Ties break by lexicographic vertex-pair order.  Because each cycle has
    at least three edges, the pool carries at most 2/3 of the cover weight.
    """
    pool: List[Edge] = []
    for cyc in cover.cycles:
        edges = sorted(cycle_edges(cyc), key=lambda e: (edge_weight(inst, e), e))
        pool.extend(edges[:2])
    assert sum(edge_weight(inst, e) for e in pool) <= (2.0 / 3.0 + 1e-9) * cover.weight
    return tuple(sorted(pool))


def open_cycle_at(cycle: Sequence[int], e: Edge) -> List[int]:
    """The cycle opened at edge e, as a path from e[0] to e[1]."""
    m = len(cycle)
    for i in range(m):
        a, b = cycle[i], cycle[(i + 1) % m]
        if (min(a, b), max(a, b)) == e:
            path = list(cycle[(i + 1) % m :]) + list(cycle[: (i + 1) % m])
            if path[0] != e[0]:
                path.reverse()
            return path
    raise ValueError(f"edge {e} is not an edge of the cycle")


def splice(a: Sequence[int], b: Sequence[int], ea: Edge, eb: Edge, pattern: int) -> List[int]:
    """Merge two disjoint cycles, removing ea and eb.

    Pattern 0 adds edges {ea[0], eb[1]} and {ea[1], eb[0]}; pattern 1 adds
    {ea[0], eb[0]} and {ea[1], eb[1]}.  The result runs ea[0]..ea[1] along
    a, then through b, so the added edges sit at positions (-1, 0) and
    (len(a) - 1, len(a)).
    """
    pa = open_cycle_at(a, ea)
    pb = open_cycle_at(b, eb)
    return pa + (pb if pattern == 0 else pb[::-1])


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
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
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


def make_gluing_state(
    inst: Instance, cover: CycleCover, e0: Sequence[Edge], delta: float
) -> GluingState:
    """Initial loop state for a cover and its removable pool."""
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    pool = set(e0)
    per_cycle: List[List[Edge]] = []
    for cyc in cover.cycles:
        mine = sorted(e for e in cycle_edges(cyc) if e in pool)
        if len(mine) != 2:
            raise ValueError(
                f"cycle {cyc} holds {len(mine)} pool edges, expected exactly 2"
            )
        per_cycle.append(mine)
    return GluingState(
        inst=inst,
        delta=float(delta),
        cycles=[list(c) for c in cover.cycles],
        e0_per_cycle=per_cycle,
    )


def current_selection(state: GluingState) -> List[Edge]:
    """One selected pool edge per cycle: the minimum-weight survivor.

    Ties break lexicographically.  This is the selection the loop tests
    for feasible gluings, and the selection the terminal-state
    diagnostics (:func:`r_tau`) are evaluated on.
    """
    return [
        min(edges, key=lambda e: (edge_weight(state.inst, e), e))
        for edges in state.e0_per_cycle
    ]


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
            state.removed_edges.update((ep, eq))
            survivors = [e for e in state.e0_per_cycle[p] if e != ep] + [
                e for e in state.e0_per_cycle[q] if e != eq
            ]
            state.cycles[p] = merged
            state.e0_per_cycle[p] = sorted(survivors)
            del state.cycles[q]
            del state.e0_per_cycle[q]
            return True
    return False


def gluing_loop(
    inst: Instance, cover: CycleCover, e0: Sequence[Edge], delta: float
) -> CycleCover:
    """Run the gluing loop to exhaustion and return the shrunk cover.

    The result keeps at least (1 - (2/3) * delta) of the input weight:
    each merge loses at most delta times the removed pool weight, pool
    edges are removed at most once, and the whole pool weighs at most 2/3
    of the cover.  When the instance's true doubling dimension is at most
    dim, the terminal cycle count is at most (2/delta)^(2*dim) / 2; with
    an unreliable dim_hint the count is still logged but not bounded.
    """
    state = make_gluing_state(inst, cover, e0, delta)
    while glue_once(state):
        pass
    return CycleCover.from_cycles(inst, state.cycles)


def r_tau(inst: Instance, selected: Sequence[Edge]) -> float:
    """Radius diagnostic for a per-cycle edge selection.

    Let t be the weight of the shortest selected edge (ties to the lowest
    cycle index).  Returns the farthest distance from that edge to any
    selected endpoint, where the distance from an edge {a, b} to a point v
    is min(dist(a, v), dist(b, v)).  At a terminal gluing state this value
    is strictly below t/delta - t: a farther endpoint's cycle would still
    admit a gluing with the shortest edge.
    """
    if not selected:
        raise ValueError("empty selection")
    d = inst.dist
    weights = [edge_weight(inst, e) for e in selected]
    tau = min(range(len(selected)), key=lambda i: weights[i])
    a, b = selected[tau]
    radius = 0.0
    for u, v in selected:
        for point in (u, v):
            radius = max(radius, float(min(d[a, point], d[b, point])))
    return radius


def algorithm_A(inst: Instance, delta: float) -> Tuple[Tour, Certificate]:
    """Full pipeline: maximum cover, gluing loop, patch into a tour.

    The certificate's claimed_bound is 1 - (2/3)*delta - k_final/n, the
    cover-relative chain bound, which also bounds the ratio against the
    optimum because the maximum cover outweighs every tour.  It is
    positive for every valid input: k_final <= n/3 and delta < 1.
    """
    from .merge import serdyukov_combine

    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    cover = max_weight_cycle_cover(inst)
    glued = gluing_loop(inst, cover, select_E0(inst, cover), delta)
    tour = serdyukov_combine(inst, glued)
    bound = 1.0 - (2.0 / 3.0) * delta - glued.k / inst.n
    cert = Certificate(
        branch="algorithm-A",
        weight_tour=tour.weight,
        claimed_bound=bound,
        certified=True,
        delta=float(delta),
        dim=inst.dim_hint,
        k_initial=cover.k,
        k_after_gluing=glued.k,
        weight_cover=cover.weight,
    )
    return tour, cert
