"""Brute-force oracles the tests check the package against.

Perfect matchings by enumeration, for the blossom engine, the gadget
encoding of a known cover, for the cover decoder, and Floyd-Warshall
sweeps, for the random-metric closure.  None of this is on
the solve path; the brute-force cover and tour that the gates also use
live in the package itself (cycle_cover_brute_force, brute_force_tour).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, List, Tuple

import numpy as np

from maxtsp.cyclecover import CycleCover
from maxtsp.matching import Matching, WeightedGraph
from maxtsp.metricspace import Instance

BRUTE_FORCE_VERTEX_CAP = 12


def pair_rank(u: int, v: int, n: int) -> int:
    """Rank of the unordered pair {u < v} in lexicographic order."""
    if not 0 <= u < v < n:
        raise ValueError(f"need 0 <= u < v < n, got ({u}, {v})")
    return u * n - u * (u + 1) // 2 + (v - u - 1)


def encode_cover(inst: Instance, cover: CycleCover) -> List[Tuple[int, int]]:
    """Perfect-matching pairs of the full gadget that encode the given cover."""
    n = inst.n
    used = cover.edge_set()
    copies_free = {u: [2 * u, 2 * u + 1] for u in range(n)}
    pairs: List[Tuple[int, int]] = []
    for u, v in combinations(range(n), 2):
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
