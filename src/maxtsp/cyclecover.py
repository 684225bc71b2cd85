"""Maximum-weight cycle cover (2-factor) of a complete metric graph.

The cover is priced by the fractional 2-matching LP

    max sum d_e x_e   s.t.   x(delta(v)) = 2,   0 <= x <= 1,

solved exactly as a capacitated transportation problem on the bipartite
double cover (Edmonds 1965): arcs u -> v for u != v with capacity 1,
supply and demand 2 at every vertex.  With z an optimal 0/1 flow, the
symmetrisation x = (z + z^T) / 2 is a half-integral optimal LP point.
Its half edges that form components with an even edge count are rounded
to 0/1 along an Euler circuit, which keeps x feasible and optimal.  When
x is then integral it is itself a maximum cover and nothing more is
solved.

Otherwise the LP's vertex duals y bound every cover F from above:

    w(F) <= UB - sum_{e in F} rc_e,   UB = 2 sum y + sum_e s_e,

with s_e = max(0, d_e - y_u - y_v) and rc_e = max(0, y_u + y_v - d_e).
The bound holds for any y, so exactness never rests on the flow being
optimal.  A cover of weight LB is found by exact matching on a gadget
restricted to the LP support and each vertex's cheapest other edge;
unless it reaches UB, matching runs once more on the edges with
rc_e <= UB - LB, which hold every optimal cover.

The gadget: for each vertex u two copies of u, and for each candidate
pair {u, v} two stub nodes joined by a zero-weight internal edge; each
stub also connects to both copies of its own endpoint with weight
dist(u, v) per external edge (the doubled representation of two
half-weight edges, so no halving ever touches the numbers).  Perfect
matchings of the gadget correspond to 2-factors using only candidate
pairs: pair {u, v} is used exactly when its internal edge is left
unmatched, which forces both stubs onto vertex copies.  Matching weight
is twice the 2-factor weight, so the maximum matching decodes to the
heaviest cover on those pairs.  On every pair the gadget has 2n + n(n-1)
nodes; the tests build it there as their full-gadget oracle.

:class:`Tour` and the cycle helpers the gluing loop and the patching
step share, :func:`splice` among them, live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .matching import Matching, WeightedGraph, max_weight_perfect_matching
from .metricspace import Instance

# Slack of the pricing comparisons, times n * max distance.  It only ever
# keeps more candidate edges or accepts a cover this close to the bound.
PRICING_TOL_FACTOR = 1e-12

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
    """A Hamiltonian cycle: canonical cyclic order plus total weight."""

    order: Cycle
    weight: float

    @staticmethod
    def from_order(inst: Instance, order: Sequence[int]) -> "Tour":
        order = tuple(order)
        if sorted(order) != list(range(inst.n)):
            raise ValueError("tour order is not a permutation of the vertex set")
        return Tour(order=canonical_cycle(order), weight=cycle_weight(inst, order))


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


def build_gadget(inst: Instance, pairs: Sequence[Edge]) -> WeightedGraph:
    """Gadget graph whose perfect matchings encode 2-factors on the given pairs.

    pairs lists candidate vertex pairs (u < v).  Node layout: copies of
    vertex u are 2u and 2u+1; the stubs of the p-th pair {u < v} are
    2n+2p (u side) and 2n+2p+1 (v side).  External edges carry dist(u, v)
    each, standing for two half-weight edges with the factor of two kept
    explicit, so matching weight is exactly twice the encoded 2-factor
    weight.
    """
    n = inst.n
    d = inst.dist
    edges: List[Tuple[int, int, float]] = []
    for p, (u, v) in enumerate(pairs):
        su, sv = 2 * n + 2 * p, 2 * n + 2 * p + 1
        w = float(d[u, v])
        edges.append((su, sv, 0.0))
        edges.append((2 * u, su, w))
        edges.append((2 * u + 1, su, w))
        edges.append((2 * v, sv, w))
        edges.append((2 * v + 1, sv, w))
    return WeightedGraph(2 * n + 2 * len(pairs), edges)


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


def decode_matching(inst: Instance, matching: Matching, pairs: Sequence[Edge]) -> CycleCover:
    """2-factor selected by a perfect matching of the gadget on these pairs.

    pairs must be the list the gadget was built from.  A pair is in the
    cover iff its internal stub edge is unmatched.  The cover weight is
    recomputed from the instance distances rather than from the (doubled)
    matching weight.
    """
    n = inst.n
    matched = set(matching.pairs)
    return _cover_from_pairs(
        inst,
        [pair for p, pair in enumerate(pairs) if (2 * n + 2 * p, 2 * n + 2 * p + 1) not in matched],
    )


def two_matching_lp(dist: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Fractional 2-matching LP as a transportation problem; returns (z, y).

    z is a maximum-weight 0/1 plan on the bipartite double cover (zero
    diagonal, every row and column sum 2), found by shortest augmenting
    paths (Jonker & Volgenant 1987): 2n augmentations, each a dense
    Dijkstra in O(n^2) from the rows with supply left that stops at the
    first column with demand left, so O(n^3) overall.  y holds vertex
    duals of the symmetric LP, derived from the final potentials.
    """
    n = dist.shape[0]
    top = float(dist.max())
    # A plan always has 2n arcs, so shifting every cost by top changes no
    # optimum and makes all costs nonnegative.
    cost = top - dist
    np.fill_diagonal(cost, np.inf)
    z = np.zeros((n, n), dtype=bool)
    supply = np.full(n, 2)
    demand = np.full(n, 2)
    # Potentials of the left and right copies keep every residual arc's
    # reduced cost nonnegative: the free arc u -> v costs red[u, v] =
    # cost[u, v] + pot_l[u] - pot_r[v], the reverse of a used one
    # -red[u, v].  Supply equals demand, so no source or sink is needed.
    pot_l = np.zeros(n)
    pot_r = cost.min(axis=0)
    for _ in range(2 * n):
        red = cost + pot_l[:, None] - pot_r[None, :]
        # Clamping rounding errors at zero keeps the search a true Dijkstra.
        forward = np.where(z, np.inf, np.maximum(red, 0.0))
        dist_l = np.where(supply > 0, 0.0, np.inf)
        via_r = np.full(n, -1)
        through = dist_l[:, None] + forward
        via_l = through.argmin(axis=0)
        dist_r = through[via_l, np.arange(n)]
        open_r = np.ones(n, dtype=bool)
        while True:
            pending = np.where(open_r, dist_r, np.inf)
            v = int(pending.argmin())
            if not pending[v] < np.inf:
                raise RuntimeError("transportation problem is infeasible")
            if demand[v] > 0:
                break
            open_r[v] = False
            for u in np.flatnonzero(z[:, v]):
                label = dist_r[v] + max(0.0, -red[u, v])
                if label >= dist_l[u]:
                    continue
                dist_l[u] = label
                via_r[u] = v
                row = label + forward[u]
                better = open_r & (row < dist_r)
                dist_r[better] = row[better]
                via_l[better] = u
        # Labels capped at dist_r[v] keep every reduced cost nonnegative.
        reach = dist_r[v]
        pot_l += np.minimum(dist_l, reach)
        pot_r += np.minimum(dist_r, reach)
        demand[v] -= 1
        while True:
            u = via_l[v]
            z[u, v] = True
            if via_r[u] < 0:
                supply[u] -= 1
                break
            v = via_r[u]
            z[u, v] = False
    # Duals a_u = top + pot_l[u], b_v = -pot_r[v] satisfy a_u + b_v >= d_uv
    # wherever z_uv = 0; the symmetric LP takes their average per vertex.
    return z, 0.5 * (top + pot_l - pot_r)


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


def dual_bound(dist: np.ndarray, y: np.ndarray) -> Tuple[float, np.ndarray]:
    """Upper bound UB and reduced costs rc of vertex duals y.

    rc is indexed like np.triu_indices(n, 1).  For every y and every
    cover F, w(F) <= UB - sum of rc over the edges of F.
    """
    iu, iv = np.triu_indices(dist.shape[0], 1)
    slack = dist[iu, iv] - y[iu] - y[iv]
    upper = 2.0 * float(y.sum()) + float(np.maximum(slack, 0.0).sum())
    return upper, np.maximum(-slack, 0.0)


def _matching_cover(inst: Instance, pairs: Sequence[Edge]) -> Optional[CycleCover]:
    """Heaviest cover on the candidate pairs, or None if there is none."""
    gadget = build_gadget(inst, pairs)
    try:
        matching = max_weight_perfect_matching(gadget)
    except ValueError:
        return None
    return decode_matching(inst, matching, pairs)


def max_weight_cycle_cover(inst: Instance) -> CycleCover:
    """Maximum-weight cycle cover, Step 1 of the gluing pipeline.

    The result's weight is an upper bound on the weight of every tour,
    since a tour is itself a one-cycle cover.  It is exact to within
    1e-12 * n * max distance: see the module docstring for the pricing
    argument.
    """
    n, d = inst.n, inst.dist
    z, y = two_matching_lp(d)
    upper, rc = dual_bound(d, y)
    tol = PRICING_TOL_FACTOR * n * inst.max_dist()
    iu, iv = np.triu_indices(n, 1)
    twice_x = z.astype(np.int8) + z.T.astype(np.int8)
    _round_even_components(twice_x, d)
    x = twice_x[iu, iv]
    if not (x == 1).any():
        cover = _cover_from_pairs(inst, zip(iu[x == 2], iv[x == 2]))
        tried = np.zeros(len(rc), dtype=bool)
    else:
        # The support of a fractional optimum carries no 2-factor through
        # its odd half cycles; add each vertex's cheapest edges outside it
        # in reduced cost, more on every failure, until a cover exists.
        support = x > 0
        outside = np.full((n, n), np.inf)
        outside[iu, iv] = outside[iv, iu] = np.where(support, np.inf, rc)
        by_rc = np.argsort(outside, axis=1, kind="stable")
        width = 1
        cover = None
        while cover is None:
            near = np.zeros((n, n), dtype=bool)
            np.put_along_axis(near, by_rc[:, : min(width, n - 1)], True, axis=1)
            tried = support | (near | near.T)[iu, iv]
            cover = _matching_cover(inst, list(zip(iu[tried], iv[tried])))
            width *= 2
    if cover.weight >= upper - tol:
        return cover
    # Every cover F with w(F) >= w(cover) has rc_e <= UB - w(cover) on each
    # of its edges, so these pairs hold every maximum cover.
    keep = rc <= upper - cover.weight + tol
    if not (keep & ~tried).any():
        return cover
    return _matching_cover(inst, list(zip(iu[keep], iv[keep])))

