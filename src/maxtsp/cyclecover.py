"""Maximum-weight cycle cover (2-factor) of a complete metric graph.

The cover is priced by the fractional 2-matching LP

    max sum d_e x_e   s.t.   x(delta(v)) = 2,   0 <= x <= 1,

solved exactly as a capacitated transportation problem on the bipartite
double cover (Edmonds 1965): arcs u -> v for u != v with capacity 1,
supply and demand 2 at every vertex.  A column and a row reduction give
every arc a reduced cost of at least 0; the arcs of cost 0 are placed
first, and shortest augmenting paths route the units left (Jonker &
Volgenant 1987), in phases: one Dijkstra settles every column with
demand it can reach, and a unit goes along each of its vertex-disjoint
shortest paths, so at most 2n phases of O(n^2) run, O(n^3) in all.
With z an optimal 0/1 flow, the symmetrisation
x = (z + z^T) / 2 is a half-integral optimal LP point.
Its half edges that form components with an even edge count are rounded
to 0/1 along an Euler circuit, which keeps x feasible and optimal.  When
x is then integral it is itself a maximum cover and nothing more is
solved.

Otherwise the LP's vertex duals y bound every cover F from above:

    w(F) <= UB - sum_{e in F} rc_e,   UB = 2 sum y + sum_e s_e,

with s_e = max(0, d_e - y_u - y_v) and rc_e = max(0, y_u + y_v - d_e).
The bound holds for any y, so exactness never rests on the flow being
optimal.  A best-first branch and bound then closes the gap (Carpaneto &
Toth 1980): a node forbids or forces some pairs, its LP keeps b_v =
2 - (forced pairs at v) as the degree of each vertex, and the same
bound, with the forced pairs' weight added, prices its covers.  Each
child is re-solved from its parent's plan with a few augmenting phases.
A node branches on its heaviest half edge; nodes whose bound is within
the pricing slack of the best cover found are pruned.  After
SEARCH_NODE_BUDGET child LPs the search stops, and exact matching on a
gadget finishes the cover: on the pairs with rc_e <= UB - LB, which
hold every optimal cover, where LB is the search's best cover.  Only
when the search found none does matching first find one on the LP
support and each vertex's cheapest other pairs.

The gadget: for each vertex u two copies of u, and for each candidate
pair {u, v} two stub nodes joined by a zero-weight internal edge; each
stub also connects to both copies of its own endpoint with weight
dist(u, v) per external edge (the doubled representation of two
half-weight edges, so no halving ever touches the numbers).  Perfect
matchings of the gadget correspond to 2-factors using only candidate
pairs: pair {u, v} is used exactly when its internal edge is left
unmatched, which forces both stubs onto vertex copies.  A matching weighs
twice its 2-factor, so the maximum matching decodes to the heaviest
cover on those pairs.  On every pair the gadget has 2n + n(n-1) nodes;
the tests build it there as their full-gadget oracle.

:class:`Tour` and the cycle helpers the gluing loop and the patching
step share, :func:`splice` among them, live here too.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .metricspace import Instance

# Slack of the pricing comparisons, times n * max distance.  It only ever
# keeps more candidate edges or accepts a cover this close to the bound.
PRICING_TOL_FACTOR = 1e-12
# Child LPs the branch and bound may solve before matching on the priced
# pairs finishes the cover.  Fractional random-metric LPs at n <= 400
# needed 2 to 64.
SEARCH_NODE_BUDGET = 128

Cycle = Tuple[int, ...]
Edge = Tuple[int, int]


def canonical_cycle(cycle: Sequence[int]) -> Cycle:
    """Rotate to the minimum vertex and fix direction (smaller successor first)."""
    cyc = [int(v) for v in cycle]
    if len(cyc) < 3:
        raise ValueError(f"cycle length must be >= 3, got {len(cyc)}")
    i = cyc.index(min(cyc))
    cyc = cyc[i:] + cyc[:i]
    if cyc[-1] < cyc[1]:
        cyc = [cyc[0]] + cyc[:0:-1]
    return tuple(cyc)


def cycle_edges(cycle: Sequence[int]) -> List[Edge]:
    """Edges of a cycle as sorted pairs, including the wrap-around edge."""
    m = len(cycle)
    return [
        (min(cycle[i], cycle[(i + 1) % m]), max(cycle[i], cycle[(i + 1) % m]))
        for i in range(m)
    ]


def cycle_weight(inst: Instance, cycle: Sequence[int]) -> float:
    d = inst.dist
    m = len(cycle)
    return float(sum(d[cycle[i], cycle[(i + 1) % m]] for i in range(m)))


def edge_weight(inst: Instance, e: Edge) -> float:
    return float(inst.dist[e[0], e[1]])


def lightest_edges(inst: Instance, edges: Iterable[Edge]) -> List[Edge]:
    """The edges lightest first, ties to the smaller vertex pair."""
    return sorted(edges, key=lambda e: (edge_weight(inst, e), e))


def open_cycle_at(cycle: Sequence[int], e: Edge) -> List[int]:
    """The cycle opened at edge e, a sorted pair, as a path from e[0] to e[1].

    e[0] is found by list index and e[1] must be one of its neighbours.
    """
    u, v = e
    if u <= v and u in cycle:
        i = cycle.index(u)
        if cycle[i - 1] == v:
            return list(cycle[i:]) + list(cycle[:i])
        if cycle[(i + 1) % len(cycle)] == v:
            return list(cycle[i::-1]) + list(cycle[:i:-1])
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


@dataclass(frozen=True)
class Tour:
    """A Hamiltonian cycle: canonical cyclic order plus total weight.

    The weight is summed along the canonical order, so it is a function of
    the cycle alone, whichever rotation or direction it was given in.
    """

    order: Cycle
    weight: float

    @staticmethod
    def from_order(inst: Instance, order: Sequence[int]) -> "Tour":
        order = tuple(order)
        if sorted(order) != list(range(inst.n)):
            raise ValueError("tour order is not a permutation of the vertex set")
        order = canonical_cycle(order)
        return Tour(order=order, weight=cycle_weight(inst, order))


@dataclass(frozen=True)
class CycleCover:
    """A partition of {0..n-1} into simple cycles of length >= 3.

    cycles are canonicalized (each rotated/oriented, then sorted by first
    vertex); weight is the total over all cycles including wrap-around
    edges.
    """

    cycles: Tuple[Cycle, ...]
    weight: float

    @staticmethod
    def from_cycles(inst: Instance, cycles: Sequence[Sequence[int]]) -> "CycleCover":
        canon = tuple(sorted(canonical_cycle(c) for c in cycles))
        seen: set = set()
        for c in canon:
            for v in c:
                if v in seen:
                    raise ValueError(f"vertex {v} appears in more than one cycle")
                seen.add(v)
        if seen != set(range(inst.n)):
            missing = sorted(set(range(inst.n)) - seen)
            raise ValueError(f"cycles do not cover all vertices, missing {missing[:5]}")
        total = float(sum(cycle_weight(inst, c) for c in canon))
        return CycleCover(cycles=canon, weight=total)

    @property
    def k(self) -> int:
        return len(self.cycles)


def build_gadget(inst: Instance, pairs: Sequence[Edge]) -> List[Tuple[int, int, float]]:
    """Edges (a, b, w), a < b, of the gadget graph on the given pairs.

    Its perfect matchings encode the 2-factors on those pairs.  pairs
    lists candidate vertex pairs (u < v), and the nodes are 0 to
    2n + 2 len(pairs) - 1.  Node layout: copies of vertex u are 2u and
    2u+1; the stubs of the p-th pair {u < v} are 2n+2p (u side) and
    2n+2p+1 (v side).  External edges carry dist(u, v) each, standing for
    two half-weight edges with the factor of two kept explicit, so
    matching weight is exactly twice the encoded 2-factor weight.
    """
    n = inst.n
    d = inst.dist
    edges: List[Tuple[int, int, float]] = []
    for p, (u, v) in enumerate(pairs):
        u, v = int(u), int(v)
        su, sv = 2 * n + 2 * p, 2 * n + 2 * p + 1
        w = float(d[u, v])
        edges.append((su, sv, 0.0))
        edges.append((2 * u, su, w))
        edges.append((2 * u + 1, su, w))
        edges.append((2 * v, sv, w))
        edges.append((2 * v + 1, sv, w))
    return edges


def _cover_from_pairs(inst: Instance, pairs: Iterable[Edge]) -> CycleCover:
    """The cover whose edges are the given pairs (every vertex of degree 2)."""
    n = inst.n
    adj: Dict[int, List[int]] = {u: [] for u in range(n)}
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    cycles = []
    seen = set()
    for start in range(n):
        if start in seen:
            continue
        if len(adj[start]) != 2:
            raise ValueError(
                f"edges do not form a 2-factor: vertex {start} "
                f"has degree {len(adj[start])}"
            )
        cyc = [start]
        seen.add(start)
        prev, cur = start, adj[start][0]
        while cur != start:
            cyc.append(cur)
            seen.add(cur)
            a, b = adj[cur]
            prev, cur = cur, b if a == prev else a
        cycles.append(cyc)
    return CycleCover.from_cycles(inst, cycles)


def decode_matching(inst: Instance, mate: Iterable[Edge], pairs: Sequence[Edge]) -> CycleCover:
    """2-factor selected by a perfect matching of the gadget on these pairs.

    mate holds the matched node pairs, in either order; pairs must be the
    list the gadget was built from.  A pair is in the cover iff its
    internal stub edge is unmatched.  The cover weight is recomputed from
    the instance distances rather than from the (doubled) matching weight.
    """
    n = inst.n
    matched = {(min(a, b), max(a, b)) for a, b in mate}
    return _cover_from_pairs(
        inst,
        [pair for p, pair in enumerate(pairs) if (2 * n + 2 * p, 2 * n + 2 * p + 1) not in matched],
    )


class InfeasibleLP(RuntimeError):
    """No plan meets every vertex's degree on the allowed arcs."""


def _free_degrees(n: int, forced: Sequence[Edge]) -> np.ndarray:
    """b_v = 2 - (number of forced pairs at v), the degree the plan must add."""
    b = np.full(n, 2)
    for u, v in forced:
        b[u] -= 1
        b[v] -= 1
    return b


@dataclass
class TransportPlan:
    """A maximum-weight plan on the double cover and potentials proving it.

    cost[u, v] = top - d_uv on the allowed arcs and inf on the diagonal,
    the forbidden pairs and the forced ones.  Every residual arc has a
    nonnegative reduced cost: the free arc u -> v costs red[u, v] =
    cost[u, v] + pot_l[u] - pot_r[v], the reverse of a used one -red[u, v].
    """

    cost: np.ndarray
    plan: np.ndarray
    pot_l: np.ndarray
    pot_r: np.ndarray
    top: float

    def duals(self) -> np.ndarray:
        # Duals a_u = top + pot_l[u], b_v = -pot_r[v] satisfy a_u + b_v >= d_uv
        # wherever z_uv = 0; the symmetric LP takes their average per vertex.
        return 0.5 * (self.top + self.pot_l - self.pot_r)


def _augment(t: TransportPlan, supply: np.ndarray, demand: np.ndarray) -> None:
    """Route every unit of supply left to demand along shortest paths, in place.

    The units go in phases (successive shortest paths, Ahuja, Magnanti &
    Orlin 1993, ch. 9), each one dense Dijkstra in O(n^2) from every row
    with supply left (Jonker & Volgenant 1987).  It settles columns, those
    with demand expanded like any other, until every column with demand
    left is settled or no more can be reached.  The potentials then shift
    by the labels capped at the last settled one, which keeps every
    reduced cost at least 0 and makes each tree arc cost 0.  Last, one
    unit goes back along the tree path of each settled column with demand,
    in the order they settled, unless the path meets a column of a path
    routed before it in the phase, or its source has no supply left.  The
    routed paths share no vertex but their sources, so each is still a
    shortest path when the earlier ones are in.  The first one always
    routes, so at most sum(supply) phases run, O(n^3) in all.  The plan's
    used arcs must cost 0 and its free arcs at least 0, and both stay so.
    Raises InfeasibleLP when a phase settles no column with demand left.

    At the sizes the pipeline meets most, a search costs numpy calls more
    than arithmetic, so the row labels, their back links and the demand
    test stay in Python lists and scalars.  The column labels stay
    arrays: a row that settles relaxes them in one add and one compare,
    and only when that finds closer columns, in three assignments at
    their indices.  Ties resolve as a strict < and a first argmin make
    them.  supply and demand are read, not updated.
    """
    cost, plan, pot_l, pot_r = t.cost, t.plan, t.pot_l, t.pot_r
    n = len(supply)
    supply, demand = supply.tolist(), demand.tolist()
    # The used rows of each column, kept along every augmenting path.
    used: List[List[int]] = [[] for _ in range(n)]
    for u, v in zip(*np.nonzero(plan)):
        used[int(v)].append(int(u))
    red = np.empty((n, n))
    forward = np.empty((n, n))
    row = np.empty(n)
    better = np.empty(n, dtype=bool)
    cols = np.arange(n)
    left = sum(supply)
    while left:
        np.add(cost, pot_l[:, None], out=red)
        red -= pot_r
        # Clamping rounding errors at zero keeps the search a true Dijkstra.
        np.maximum(red, 0.0, out=forward)
        forward[plan] = np.inf
        sources = [u for u in range(n) if supply[u] > 0]
        dist_l = [np.inf] * n
        for u in sources:
            dist_l[u] = 0.0
        via_r = [-1] * n
        via_l = np.array(sources)[forward.take(sources, axis=0).argmin(axis=0)]
        dist_r = forward[via_l, cols]
        # dist_r on the open columns and inf on the closed ones.
        pending = dist_r.copy()
        wanted = sum(1 for v in range(n) if demand[v] > 0)
        # The columns with demand left, in the order they settle.
        sinks: List[int] = []
        while True:
            v = int(pending.argmin())
            label = pending.item(v)
            if not label < np.inf:
                break
            reach = label
            pending[v] = np.inf
            if demand[v] > 0:
                sinks.append(v)
                if len(sinks) == wanted:
                    break
            for u in used[v]:
                label = reach + max(0.0, -red.item(u, v))
                if label >= dist_l[u]:
                    continue
                dist_l[u] = label
                via_r[u] = v
                np.add(forward[u], label, out=row)
                # Labels only grow, so a closed column never gets better.
                np.less(row, dist_r, out=better)
                gains = better.nonzero()[0]
                if len(gains):
                    gain = row[gains]
                    dist_r[gains] = gain
                    pending[gains] = gain
                    via_l[gains] = u
        if not sinks:
            raise InfeasibleLP("transportation problem is infeasible")
        # Labels capped at the last settled one keep every reduced cost >= 0.
        pot_l += np.minimum(dist_l, reach)
        pot_r += np.minimum(dist_r, reach)
        # The columns on this phase's routed paths.  Every row on a path
        # but its source is followed by its own via_r column, so paths with
        # no column in common share no such row either.
        taken = [False] * n
        for sink in sinks:
            arcs: List[Edge] = []
            v = sink
            while not taken[v]:
                u = via_l.item(v)
                arcs.append((u, v))
                v = via_r[u]
                if v < 0:
                    break
            # Stopped at a taken column, or the source has run out.
            if v >= 0 or not supply[u]:
                continue
            supply[u] -= 1
            demand[sink] -= 1
            left -= 1
            for u, v in arcs:
                taken[v] = True
                plan[u, v] = True
                used[v].append(u)
                if via_r[u] >= 0:
                    plan[u, via_r[u]] = False
                    used[via_r[u]].remove(u)


def two_matching_lp(
    dist: np.ndarray, forbidden: Sequence[Edge] = (), forced: Sequence[Edge] = ()
) -> TransportPlan:
    """Fractional 2-matching LP as a transportation problem.

    The plan z is a maximum-weight 0/1 plan on the bipartite double
    cover (zero diagonal, every row and column sum 2).
    A column and then a row reduction of the costs give potentials under
    which every arc costs at least 0; the start places arcs of cost 0
    greedily, and shortest augmenting paths route the units left in at
    most 2n phases (see _augment), each one Dijkstra in O(n^2) that
    routes every vertex-disjoint shortest path it finds, so O(n^3) in
    all.  duals() gives vertex duals y of the symmetric LP, derived from
    the final potentials.

    The forbidden pairs get no arc.  The forced pairs count as already
    chosen: they get no arc either, and vertex v's row and column sums
    drop to b_v = 2 - (forced pairs at v).  Raises InfeasibleLP when no
    plan exists.
    """
    n = dist.shape[0]
    b = _free_degrees(n, forced)
    if (b < 0).any():
        raise InfeasibleLP("transportation problem is infeasible: a vertex has 3 forced pairs")
    top = float(dist.max())
    # A plan always has sum(b) arcs, so shifting every cost by top changes
    # no optimum and makes all costs nonnegative.
    cost = top - dist
    np.fill_diagonal(cost, np.inf)
    for u, v in (*forbidden, *forced):
        cost[u, v] = cost[v, u] = np.inf
    # A row or column with no arc at all belongs to a vertex with b_v = 0,
    # or the problem is infeasible and _augment raises.
    pot_r = cost.min(axis=0)
    pot_r[~np.isfinite(pot_r)] = 0.0
    pot_l = -(cost - pot_r).min(axis=1)
    pot_l[~np.isfinite(pot_l)] = 0.0
    t = TransportPlan(cost, np.zeros((n, n), dtype=bool), pot_l, pot_r, top)
    # Every arc now costs at least 0, so a plan of arcs that cost 0 keeps
    # _augment's invariants.  Each row in turn takes its first arcs of cost
    # 0 into columns with demand left, walked as index lists.
    zero = cost + pot_l[:, None] - pot_r[None, :] <= 0.0
    supply, demand = b.tolist(), b.tolist()
    rows: List[int] = []
    cols: List[int] = []
    for u, v in zip(*(ends.tolist() for ends in np.nonzero(zero))):
        if supply[u] and demand[v]:
            rows.append(u)
            cols.append(v)
            supply[u] -= 1
            demand[v] -= 1
    t.plan[rows, cols] = True
    _augment(t, np.array(supply), np.array(demand))
    return t


def _child_plan(parent: TransportPlan, edge: Edge, force: bool) -> TransportPlan:
    """The parent's optimal plan re-solved with one more pair forbidden or forced.

    Every used arc at either end of the pair is taken out, in its row and
    in its column, which leaves those two rows and columns without used
    arcs.  Shifting their potentials until each of their arcs costs at
    least 0 then keeps every reduced cost nonnegative, so the few units
    taken out (at most eight) are routed back by the same phased search:
    at most eight O(n^2) phases, often fewer since one phase routes every
    disjoint shortest path, instead of a fresh solve.
    """
    u, v = edge
    t = TransportPlan(
        parent.cost.copy(), parent.plan.copy(), parent.pot_l.copy(), parent.pot_r.copy(), parent.top
    )
    t.cost[u, v] = t.cost[v, u] = np.inf
    n = len(t.pot_l)
    supply = np.zeros(n, dtype=int)
    demand = np.zeros(n, dtype=int)
    for w in edge:
        for x in np.flatnonzero(t.plan[w]):
            t.plan[w, x] = False
            supply[w] += 1
            demand[x] += 1
        for x in np.flatnonzero(t.plan[:, w]):
            t.plan[x, w] = False
            supply[x] += 1
            demand[w] += 1
    if force:
        supply[[u, v]] -= 1
        demand[[u, v]] -= 1
        if (supply < 0).any():
            raise InfeasibleLP("transportation problem is infeasible: a vertex has 3 forced pairs")
    ends = [u, v]
    red = t.cost[ends] + t.pot_l[ends, None] - t.pot_r[None, :]
    t.pot_l[ends] -= np.minimum(red.min(axis=1), 0.0)
    red = t.cost[:, ends] + t.pot_l[:, None] - t.pot_r[None, ends]
    t.pot_r[ends] += np.minimum(red.min(axis=0), 0.0)
    _augment(t, supply, demand)
    return t


def _round_even_components(twice_x: np.ndarray, dist: np.ndarray) -> None:
    """Round, in place, every half-edge component with an even edge count.

    twice_x holds 2x for a half-integral LP optimum x.  The half edges
    form components whose vertices all have degree 2 or 4.  Walking an
    even component's Euler circuit and alternating +1/2, -1/2 (or the
    reverse) keeps every degree, and since x is optimal and the average
    of the two roundings, both weigh the same; the heavier in floating
    point is kept.  Odd components stay half-integral.
    """
    n = twice_x.shape[0]
    adj: Dict[int, List[int]] = {u: [] for u in range(n)}
    for u, v in zip(*np.nonzero(np.triu(twice_x == 1))):
        adj[int(u)].append(int(v))
        adj[int(v)].append(int(u))
    for start in range(n):
        # Hierholzer: the edges come off the stack as a closed walk.
        circuit: List[Edge] = []
        stack: List[Tuple[int, Optional[Edge]]] = [(start, None)]
        while stack:
            v, edge = stack[-1]
            if adj[v]:
                w = adj[v].pop()
                adj[w].remove(v)
                stack.append((w, (v, w)))
            else:
                stack.pop()
                if edge is not None:
                    circuit.append(edge)
        if not circuit or len(circuit) % 2:
            continue
        gain = sum(dist[e] for e in circuit[0::2]) - sum(dist[e] for e in circuit[1::2])
        for i, (u, v) in enumerate(circuit):
            twice_x[u, v] = twice_x[v, u] = 2 if (i % 2 == 0) == (gain >= 0) else 0


def dual_bound(
    dist: np.ndarray, y: np.ndarray, forbidden: Sequence[Edge] = (), forced: Sequence[Edge] = ()
) -> Tuple[float, np.ndarray]:
    """Upper bound UB and reduced costs rc of vertex duals y.

    rc is indexed like np.triu_indices(n, 1).  A pair is allowed when it
    is neither forbidden nor forced and both its ends have b_v > 0 (see
    two_matching_lp); the others get rc = inf.  For every y and every
    cover F that holds the forced pairs and no forbidden one,

        w(F) <= UB - sum of rc over F's unforced pairs,
        UB = sum_forced d_e + sum_v b_v y_v + sum_allowed max(0, d_e - y_u - y_v).
    """
    n = dist.shape[0]
    b = _free_degrees(n, forced)
    iu, iv = np.triu_indices(n, 1)
    slack = dist[iu, iv] - y[iu] - y[iv]
    excluded = np.zeros((n, n), dtype=bool)
    for u, v in (*forbidden, *forced):
        excluded[u, v] = excluded[v, u] = True
    allowed = (b[iu] > 0) & (b[iv] > 0) & ~excluded[iu, iv]
    upper = (
        float(sum(dist[u, v] for u, v in forced))
        + float(b @ y)
        + float(np.maximum(slack, 0.0)[allowed].sum())
    )
    return upper, np.where(allowed, np.maximum(-slack, 0.0), np.inf)


def _lp_point(z: np.ndarray, dist: np.ndarray, forced: Sequence[Edge] = ()) -> np.ndarray:
    """2x for the LP point of plan z and the forced pairs, even components rounded."""
    twice_x = z.astype(np.int8) + z.T.astype(np.int8)
    for u, v in forced:
        twice_x[u, v] = twice_x[v, u] = 2
    _round_even_components(twice_x, dist)
    return twice_x


def _integral_cover(inst: Instance, twice_x: np.ndarray) -> CycleCover:
    return _cover_from_pairs(inst, zip(*np.nonzero(np.triu(twice_x == 2))))


def _matching_cover(inst: Instance, pairs: Sequence[Edge]) -> Optional[CycleCover]:
    """Heaviest cover on the candidate pairs, or None if there is none.

    networkx's blossom finds a maximum-weight matching among those of
    maximum cardinality on the gadget; the cover exists iff that matching
    is perfect.  The blossom is exact for integer weights, and exact in
    practice for the well-separated float weights it gets here.  Nodes
    and sorted edges go in a fixed order, so ties resolve the same way on
    every run.  networkx is imported here, not at module load: only a
    search that runs out of budget gets here, and the import costs about
    18 MB.
    """
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(2 * inst.n + 2 * len(pairs)))
    graph.add_weighted_edges_from(sorted(build_gadget(inst, pairs)))
    mate = nx.max_weight_matching(graph, maxcardinality=True)
    if len(mate) < inst.n + len(pairs):
        return None
    return decode_matching(inst, mate, pairs)


def _branch_and_bound(
    inst: Instance, root: TransportPlan, twice_x: np.ndarray, upper: float, tol: float
) -> Tuple[Optional[CycleCover], bool]:
    """Best-first search for the heaviest cover below a fractional LP point.

    root is the LP's plan, twice_x its rounded point and upper its bound.
    Each node forbids or forces some pairs; its bound is its own LP's
    dual_bound, and a node whose LP point is integral yields its heaviest
    cover.  A node branches on its heaviest half edge, forbidden in one
    child and forced in the other, and the node with the highest bound
    goes first.  Nodes within tol of the incumbent are pruned, and so are
    children with no plan.

    Returns (incumbent, proved): proved says the incumbent is a maximum
    cover.  After SEARCH_NODE_BUDGET child LPs the search stops unproved,
    with the heaviest cover found so far, or None.
    """
    d = inst.dist
    incumbent: Optional[CycleCover] = None
    heap: list = [(-upper, 0, (), (), twice_x, root)]
    solved = 0
    while heap:
        bound, _, forbidden, forced, x, node = heapq.heappop(heap)
        if incumbent is not None and -bound <= incumbent.weight + tol:
            break
        flat = int(np.where(np.triu(x == 1), d, -np.inf).argmax())
        edge = (flat // inst.n, flat % inst.n)
        for force in (False, True):
            if solved == SEARCH_NODE_BUDGET:
                return incumbent, False
            solved += 1
            child = (forbidden, forced + (edge,)) if force else (forbidden + (edge,), forced)
            try:
                t = _child_plan(node, edge, force)
            except InfeasibleLP:
                continue
            child_upper, _ = dual_bound(d, t.duals(), *child)
            if incumbent is not None and child_upper <= incumbent.weight + tol:
                continue
            child_x = _lp_point(t.plan, d, child[1])
            if (child_x == 1).any():
                heapq.heappush(heap, (-child_upper, solved, *child, child_x, t))
                continue
            cover = _integral_cover(inst, child_x)
            if incumbent is None or cover.weight > incumbent.weight:
                incumbent = cover
    return incumbent, True


def _near_support_cover(inst: Instance, twice_x: np.ndarray, rc: np.ndarray) -> Tuple[CycleCover, np.ndarray]:
    """Heaviest cover on the LP support and each vertex's cheapest other pairs.

    The support of a fractional point carries no 2-factor through its odd
    half cycles; each vertex's cheapest pairs outside it in reduced cost
    are added, more on every failure, until a cover exists.  Returns the
    cover and the mask (indexed like rc) of the pairs it is heaviest on.
    """
    n = inst.n
    iu, iv = np.triu_indices(n, 1)
    support = twice_x[iu, iv] > 0
    outside = np.full((n, n), np.inf)
    outside[iu, iv] = outside[iv, iu] = np.where(support, np.inf, rc)
    by_rc = np.argsort(outside, axis=1, kind="stable")
    width = 1
    while True:
        near = np.zeros((n, n), dtype=bool)
        np.put_along_axis(near, by_rc[:, : min(width, n - 1)], True, axis=1)
        tried = support | (near | near.T)[iu, iv]
        cover = _matching_cover(inst, list(zip(iu[tried], iv[tried])))
        if cover is not None:
            return cover, tried
        width *= 2


def max_weight_cycle_cover(inst: Instance) -> CycleCover:
    """Maximum-weight cycle cover, Step 1 of the gluing pipeline.

    The result's weight is an upper bound on the weight of every tour,
    since a tour is itself a one-cycle cover.  It is exact to within
    1e-12 * n * max distance: see the module docstring for the pricing
    argument.  An integral LP point is returned as it stands; the LP's
    duals are priced, by dual_bound, only when the point is fractional.
    """
    n, d = inst.n, inst.dist
    root = two_matching_lp(d)
    twice_x = _lp_point(root.plan, d)
    if not (twice_x == 1).any():
        return _integral_cover(inst, twice_x)
    upper, rc = dual_bound(d, root.duals())
    tol = PRICING_TOL_FACTOR * n * inst.max_dist()
    cover, proved = _branch_and_bound(inst, root, twice_x, upper, tol)
    if proved:
        return cover
    tried = np.zeros(len(rc), dtype=bool)
    if cover is None:
        cover, tried = _near_support_cover(inst, twice_x, rc)
    # Every cover F with w(F) >= w(cover) has rc_e <= UB - w(cover) on each
    # of its edges, so these pairs hold every maximum cover.
    keep = rc <= upper - cover.weight + tol
    if cover.weight >= upper - tol or not (keep & ~tried).any():
        return cover
    iu, iv = np.triu_indices(n, 1)
    return _matching_cover(inst, list(zip(iu[keep], iv[keep]))) or cover
