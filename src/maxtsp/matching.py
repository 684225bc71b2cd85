"""Exact maximum-weight perfect matching on general graphs.

This is the exact fallback of :mod:`maxtsp.cyclecover`.  The cover
solver calls it only when the 2-matching LP comes out fractional and its
branch and bound spends its node budget unfinished, and then on a gadget
restricted to the pairs the LP duals keep; on the full gadget it is the
oracle the cover tests compare against.  The solver
itself is networkx's blossom implementation (exact for integer weights,
and exact in practice for the well-separated float weights this package
feeds it); this module owns the graph/matching types and the
perfect-matching contract on top of the engine.

Weights may be negative: the reduction layer builds gadget graphs whose
internal edges weigh zero, and the engine must not assume anything
stronger than finiteness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted graph given as an explicit edge list.

    Invariants checked at construction: no self loops, no duplicate
    unordered pairs, finite weights, endpoints in range.
    """

    num_vertices: int
    edges: Tuple[Tuple[int, int, float], ...]

    def __init__(self, num_vertices: int, edges):
        norm_edges = []
        seen = set()
        for u, v, w in edges:
            u, v, w = int(u), int(v), float(w)
            if u == v:
                raise ValueError(f"self loop at vertex {u}")
            if not 0 <= u < num_vertices or not 0 <= v < num_vertices:
                raise ValueError(f"edge ({u}, {v}) out of range for {num_vertices} vertices")
            if not math.isfinite(w):
                raise ValueError(f"non-finite weight on edge ({u}, {v})")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            norm_edges.append((key[0], key[1], w))
        norm_edges.sort()
        object.__setattr__(self, "num_vertices", int(num_vertices))
        object.__setattr__(self, "edges", tuple(norm_edges))


@dataclass(frozen=True)
class Matching:
    """A set of vertex-disjoint edges with its total weight.

    pairs are stored as sorted (min, max) tuples in ascending order so two
    matchings over the same graph compare canonically.
    """

    pairs: Tuple[Tuple[int, int], ...]
    weight: float

    @staticmethod
    def from_pairs(g: WeightedGraph, pairs) -> "Matching":
        canon = tuple(sorted((min(u, v), max(u, v)) for u, v in pairs))
        seen = set()
        for u, v in canon:
            if u in seen or v in seen:
                raise ValueError(f"pair ({u}, {v}) reuses a matched vertex")
            seen.update((u, v))
        lookup = {(a, b): w for a, b, w in g.edges}
        weight = 0.0
        for u, v in canon:
            if (u, v) not in lookup:
                raise ValueError(f"pair ({u}, {v}) is not an edge of the graph")
            weight += lookup[(u, v)]
        return Matching(pairs=canon, weight=weight)

    def covers_all(self, num_vertices: int) -> bool:
        return 2 * len(self.pairs) == num_vertices


def max_weight_perfect_matching(g: WeightedGraph) -> Matching:
    """Exact maximum-weight perfect matching of a general graph.

    Raises ValueError when num_vertices is odd or no perfect matching
    exists.  Deterministic for a fixed input: the graph is handed to the
    engine in sorted edge order and the result is canonicalized.
    networkx is imported here, not at module load: only a cover search
    that runs out of budget reaches this function, and the import costs
    about 18 MB.
    """
    import networkx as nx

    if g.num_vertices % 2 != 0:
        raise ValueError(f"odd vertex count {g.num_vertices}, no perfect matching")
    graph = nx.Graph()
    graph.add_nodes_from(range(g.num_vertices))
    graph.add_weighted_edges_from(g.edges)
    mate = nx.max_weight_matching(graph, maxcardinality=True)
    matching = Matching.from_pairs(g, mate)
    if not matching.covers_all(g.num_vertices):
        raise ValueError(
            f"no perfect matching: best cardinality {len(matching.pairs)} "
            f"on {g.num_vertices} vertices"
        )
    return matching

