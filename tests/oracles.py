"""Oracles the tests check the package against; no command runs them.

- Covers and tours by enumeration (all_two_factors, and
  cycle_cover_brute_force and brute_force_tour on best_cycle_on), for the
  cover solver, the exact DP and the gates.
- The layered pull Held-Karp DP over every subset, with a parent table
  and no use of symmetry (held_karp_pull), for the exact DP above the
  enumeration cap.
- The edge set of a cover, the full-gadget cover (blossom on the gadget
  over every pair), the gadget encoding of a known cover and perfect
  matchings by enumeration, for the cover solver, its decoder and the
  blossom engine.
- The terminal-radius diagnostic r_tau, for the gluing loop's geometry
  claim, and Floyd-Warshall sweeps, for the random-metric closure.
- The heaviest closing of a path sequence over all 2^k orientations, for
  the 5/6 fallback's orientation DP, and a position-by-position scan that
  opens a cycle at an edge, for open_cycle_at.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from typing import Dict, FrozenSet, Iterator, List, Sequence, Tuple

import numpy as np

from maxtsp.cyclecover import (
    Cycle, CycleCover, Edge, Tour, build_gadget, cycle_edges, decode_matching,
    edge_weight,
)
from maxtsp.exact import check_dp_size
from maxtsp.matching import Matching, WeightedGraph, max_weight_perfect_matching
from maxtsp.metricspace import Instance

BRUTE_FORCE_VERTEX_CAP = 12
BRUTE_FORCE_COVER_CAP = 9
BRUTE_FORCE_TOUR_CAP = 10


def _partitions_into_cycles(vertices: Tuple[int, ...]):
    """All partitions of the vertex tuple into blocks of size >= 3."""
    if not vertices:
        yield []
        return
    first, rest = vertices[0], vertices[1:]
    for extra in range(2, len(vertices)):
        if len(rest) - extra in (1, 2):
            continue
        for others in combinations(rest, extra):
            block = (first,) + others
            remaining = tuple(v for v in rest if v not in others)
            for tail in _partitions_into_cycles(remaining):
                yield [block] + tail


def cycle_orders(block: Sequence[int]) -> Iterator[Cycle]:
    """Every cycle through the block's vertices (at least 3), once each.

    A cycle starts at block[0] and runs through a permutation of the rest,
    one direction per cycle, in lexicographic order.
    """
    base, rest = block[0], tuple(block[1:])
    for perm in permutations(rest):
        if perm[0] < perm[-1]:
            yield (base,) + perm


def all_two_factors(inst: Instance) -> Iterator[CycleCover]:
    """Every 2-factor of the complete graph, as CycleCovers."""
    for blocks in _partitions_into_cycles(tuple(range(inst.n))):
        for cycles in product(*(cycle_orders(block) for block in blocks)):
            yield CycleCover.from_cycles(inst, cycles)


def best_cycle_on(inst: Instance, block: Sequence[int]) -> Tuple[float, Cycle]:
    """Heaviest cycle through the block's vertices, by enumeration.

    Cycles come in :func:`cycle_orders` order; ties keep the first.  A
    cycle's weight is summed in the order cycle_weight uses, so the two
    agree bit for bit.
    """
    d = inst.dist.tolist()
    best_w, best = -np.inf, None
    for cycle in cycle_orders(block):
        w = d[cycle[0]][cycle[1]]
        for u, v in zip(cycle[1:], cycle[2:]):
            w += d[u][v]
        w += d[cycle[-1]][cycle[0]]
        if w > best_w:
            best_w, best = w, cycle
    return best_w, best


def cycle_cover_brute_force(inst: Instance) -> CycleCover:
    """Maximum cover by enumerating all cycle partitions (n <= 9 only)."""
    n = inst.n
    if n > BRUTE_FORCE_COVER_CAP:
        raise ValueError(f"brute force capped at {BRUTE_FORCE_COVER_CAP} vertices, got {n}")
    best_cycle_cache: Dict[Tuple[int, ...], Tuple[float, Cycle]] = {}
    best_w, best = -np.inf, None
    for blocks in _partitions_into_cycles(tuple(range(n))):
        total = 0.0
        cycles = []
        for block in blocks:
            if block not in best_cycle_cache:
                best_cycle_cache[block] = best_cycle_on(inst, block)
            w, cyc = best_cycle_cache[block]
            total += w
            cycles.append(cyc)
        if total > best_w:
            best_w, best = total, cycles
    return CycleCover.from_cycles(inst, best)


def brute_force_tour(inst: Instance) -> Tour:
    """Maximum-weight tour by enumerating all (n-1)!/2 distinct tours."""
    n = inst.n
    if n > BRUTE_FORCE_TOUR_CAP:
        raise ValueError(f"brute force capped at {BRUTE_FORCE_TOUR_CAP} vertices, got {n}")
    return Tour.from_order(inst, best_cycle_on(inst, range(n))[1])


def held_karp_pull(inst: Instance) -> Tour:
    """Maximum-weight tour by dynamic programming over (visited, last) states.

    Vertex 0 starts every path, so a state is (S, j) with S a nonempty
    subset of {1..n-1} and j in S: dp[S, j] is the heaviest path from 0
    through exactly S ending at j.  Bit i-1 of S stands for vertex i, so
    dp and parent are (2^(n-1), n-1) tables.  They fill one popcount
    layer at a time, with one vectorised step per (layer, last vertex):
    every S of the layer that holds j extends its predecessor row
    dp[S - j], whose -inf entries mark the vertices outside S - j.  Time
    is O(2^n * n^2) in (n-1)^2 numpy steps, memory O(2^n * n), so n is
    capped at 20.
    """
    n = inst.n
    check_dp_size(n)
    d = inst.dist
    m = n - 1
    inner = d[1:, 1:]
    dp = np.full((1 << m, m), -np.inf)
    # parent[S, j] is the vertex before j (0 for the start), in the
    # instance's own labels; int8 holds them up to the cap
    parent = np.zeros((1 << m, m), dtype=np.int8)
    dp[1 << np.arange(m), np.arange(m)] = d[0, 1:]
    popcount = np.bitwise_count(np.arange(1 << m))
    by_size = np.argsort(popcount, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(popcount, minlength=m + 1))))
    for k in range(2, m + 1):
        layer = by_size[starts[k] : starts[k + 1]]
        for j in range(m):
            subsets = layer[(layer >> j) & 1 == 1]
            cand = dp[subsets ^ (1 << j)] + inner[:, j]
            best = cand.argmax(axis=1)
            dp[subsets, j] = cand[np.arange(subsets.size), best]
            parent[subsets, j] = best + 1
    full = (1 << m) - 1
    last = int(np.argmax(dp[full] + d[1:, 0])) + 1
    order: List[int] = []
    mask, v = full, last
    while v != 0:
        order.append(v)
        mask, v = mask ^ (1 << (v - 1)), int(parent[mask, v - 1])
    order.append(0)
    order.reverse()
    if len(order) != n or mask != 0:
        raise AssertionError("DP reconstruction did not visit every vertex")
    return Tour.from_order(inst, order)


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


def best_orientation_weight(inst: Instance, paths: Sequence[Sequence[int]]) -> float:
    """Heaviest tour that visits the paths in their fixed cyclic order,
    over all 2^k assignments of a direction to each path."""
    best = -np.inf
    for flips in product((False, True), repeat=len(paths)):
        order = [v for p, flip in zip(paths, flips) for v in (p[::-1] if flip else p)]
        best = max(best, float(inst.dist[order, np.roll(order, -1)].sum()))
    return best


def open_cycle_at_scan(cycle: Sequence[int], e: Edge) -> List[int]:
    """The cycle opened at the sorted pair e, found by testing every
    position's edge in turn; a path from e[0] to e[1]."""
    m = len(cycle)
    for i in range(m):
        a, b = cycle[i], cycle[(i + 1) % m]
        if (min(a, b), max(a, b)) == e:
            path = list(cycle[(i + 1) % m :]) + list(cycle[: (i + 1) % m])
            if path[0] != e[0]:
                path.reverse()
            return path
    raise ValueError(f"edge {e} is not an edge of the cycle")


def all_pairs(n: int) -> List[Edge]:
    """Every vertex pair u < v, in lexicographic order (the rank order of
    pair_rank): the full gadget's pair list."""
    return list(combinations(range(n), 2))


def cover_edges(cover: CycleCover) -> FrozenSet[Edge]:
    """Every edge (u < v) of the cover's cycles."""
    return frozenset(e for c in cover.cycles for e in cycle_edges(c))


def full_gadget_cover(inst: Instance) -> CycleCover:
    """Maximum cover by blossom on the full gadget."""
    pairs = all_pairs(inst.n)
    return decode_matching(inst, max_weight_perfect_matching(build_gadget(inst, pairs)), pairs)


def pair_rank(u: int, v: int, n: int) -> int:
    """Rank of the unordered pair {u < v} in lexicographic order."""
    if not 0 <= u < v < n:
        raise ValueError(f"need 0 <= u < v < n, got ({u}, {v})")
    return u * n - u * (u + 1) // 2 + (v - u - 1)


def encode_cover(inst: Instance, cover: CycleCover) -> List[Tuple[int, int]]:
    """Perfect-matching pairs of the full gadget that encode the given cover."""
    n = inst.n
    used = cover_edges(cover)
    copies_free = {u: [2 * u, 2 * u + 1] for u in range(n)}
    pairs: List[Tuple[int, int]] = []
    for u, v in all_pairs(n):
        p = pair_rank(u, v, n)
        su, sv = 2 * n + 2 * p, 2 * n + 2 * p + 1
        if (u, v) in used:
            pairs.append((copies_free[u].pop(), su))
            pairs.append((copies_free[v].pop(), sv))
        else:
            pairs.append((su, sv))
    return pairs


def _perfect_matchings(adj: List[List[int]], unmatched: set) -> Iterator[List[Tuple[int, int]]]:
    if not unmatched:
        yield []
        return
    u = min(unmatched)
    unmatched.discard(u)
    for v in adj[u]:
        if v in unmatched:
            unmatched.discard(v)
            for rest in _perfect_matchings(adj, unmatched):
                yield [(u, v)] + rest
            unmatched.add(v)
    unmatched.add(u)


def enumerate_perfect_matchings(g: WeightedGraph) -> Iterator[Matching]:
    """Yield every perfect matching of g.

    Branches on the lowest unmatched vertex, so the number of internal
    states is bounded by the matching count times the vertex count.
    """
    adj: List[List[int]] = [[] for _ in range(g.num_vertices)]
    for u, v, _ in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    for pairs in _perfect_matchings(adj, set(range(g.num_vertices))):
        yield Matching.from_pairs(g, pairs)


def matching_brute_force(g: WeightedGraph) -> Matching:
    """Maximum-weight perfect matching by exhaustive enumeration.

    Capped at 12 vertices; raises ValueError above the cap or when no
    perfect matching exists.
    """
    if g.num_vertices > BRUTE_FORCE_VERTEX_CAP:
        raise ValueError(
            f"brute force capped at {BRUTE_FORCE_VERTEX_CAP} vertices, got {g.num_vertices}"
        )
    if g.num_vertices % 2 != 0:
        raise ValueError(f"odd vertex count {g.num_vertices}, no perfect matching")
    best = None
    for m in enumerate_perfect_matchings(g):
        if best is None or m.weight > best.weight or (
            m.weight == best.weight and m.pairs < best.pairs
        ):
            best = m
    if best is None:
        raise ValueError("no perfect matching exists")
    return best


def floyd_warshall_closure(raw: np.ndarray) -> np.ndarray:
    """Shortest-path closure by Floyd-Warshall sweeps, repeated until a
    sweep changes nothing: the float fixed point, where every triple
    meets the triangle inequality exactly."""
    d = raw.copy()
    while True:
        before = d.copy()
        for k in range(d.shape[0]):
            np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :], out=d)
        if np.array_equal(before, d):
            return d


def complete_graph(num_vertices: int, weight_fn) -> WeightedGraph:
    """Complete graph with weight_fn(u, v) weights."""
    edges = [(u, v, weight_fn(u, v)) for u, v in combinations(range(num_vertices), 2)]
    return WeightedGraph(num_vertices, edges)
