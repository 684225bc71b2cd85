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
  blossom engine.  Graphs here are a vertex count and a (u, v, w) edge
  list, matchings their sorted pairs and weight; blossom calls networkx
  on such a graph the way the cover solver does.
- The terminal-radius diagnostic r_tau, for the gluing loop's geometry
  claim, and Floyd-Warshall sweeps, for the random-metric closure.
- The heaviest closing of a path sequence over all 2^k orientations, for
  the 5/6 fallback's orientation DP, and a position-by-position scan that
  opens a cycle at an edge, for open_cycle_at.
- The distance matrix of points from one array of all pairwise
  differences (pairwise_distances_whole), for the row-blocked
  pairwise_distances.
- The instance reader that parses every body token with float() and
  builds a list of floats per line (parse_instance_reference), for
  parse_instance, whose C-reader blocks must give the same matrix and
  points bit for bit, or the same error text.
- The min-plus square by one add and one minimum per row block and k
  (min_plus_square_reference), for the chunked kernel of the triangle
  check and the random-metric closure, which must match it byte for byte.
- The cover LP with a mask-based zero-cost start and a phased
  augmenting search on numpy arrays throughout (two_matching_lp_reference,
  augment_reference), for two_matching_lp and _child_plan, whose plans
  and potentials must match it byte for byte.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations, product
from typing import (
    Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

import numpy as np

from maxtsp.cyclecover import (
    Cycle, CycleCover, Edge, InfeasibleLP, Tour, TransportPlan, _free_degrees, _matching_cover,
    build_gadget, cycle_edges, edge_weight,
)
from maxtsp.exact import check_dp_size
from maxtsp.metricspace import (
    NORM_TAGS, Instance, MetricReport, _check_finite, _check_symmetric, _nonblank_lines, check_tol,
    default_tol,
)

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
    return _matching_cover(inst, all_pairs(inst.n))


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


class Graph(NamedTuple):
    """Vertices 0..num_vertices - 1 and weighted edges (u, v, w), one per
    unordered pair."""

    num_vertices: int
    edges: List[Tuple[int, int, float]]


class Matching(NamedTuple):
    """Matched pairs, each (min, max), in ascending order, and their weight."""

    pairs: Tuple[Tuple[int, int], ...]
    weight: float


def gadget(inst: Instance, pairs: Sequence[Edge]) -> Graph:
    """The gadget on the given pairs, with its node count."""
    return Graph(2 * inst.n + 2 * len(pairs), build_gadget(inst, pairs))


def matching_of(g: Graph, pairs: Iterable[Tuple[int, int]]) -> Matching:
    """The pairs as a Matching of g; raises ValueError when two share a
    vertex or one is not an edge of g."""
    canon = tuple(sorted((min(u, v), max(u, v)) for u, v in pairs))
    seen: set = set()
    for u, v in canon:
        if u in seen or v in seen:
            raise ValueError(f"pair ({u}, {v}) reuses a matched vertex")
        seen.update((u, v))
    lookup = {(min(a, b), max(a, b)): w for a, b, w in g.edges}
    weight = 0.0
    for pair in canon:
        if pair not in lookup:
            raise ValueError(f"pair {pair} is not an edge of the graph")
        weight += lookup[pair]
    return Matching(canon, weight)


def blossom(g: Graph) -> Optional[Matching]:
    """networkx's maximum-weight perfect matching of g, or None when g has
    none: the call the cover solver makes on its gadget, with the same
    node order and sorted edges."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(g.num_vertices))
    graph.add_weighted_edges_from(sorted(g.edges))
    mate = nx.max_weight_matching(graph, maxcardinality=True)
    if 2 * len(mate) < g.num_vertices:
        return None
    return matching_of(g, mate)


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


def enumerate_perfect_matchings(g: Graph) -> Iterator[Matching]:
    """Yield every perfect matching of g.

    Branches on the lowest unmatched vertex, so the number of internal
    states is bounded by the matching count times the vertex count.
    """
    adj: List[List[int]] = [[] for _ in range(g.num_vertices)]
    for u, v, _ in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    for pairs in _perfect_matchings(adj, set(range(g.num_vertices))):
        yield matching_of(g, pairs)


def matching_brute_force(g: Graph) -> Matching:
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


def pairwise_distances_whole(points: Sequence[Sequence[float]], norm: str) -> np.ndarray:
    """The pairwise distance matrix from one n x n x d array of differences.

    The formula pairwise_distances evaluates block by block: euclidean
    differences scaled by 2^-e (2^e just above the widest coordinate
    range) before squaring and the distances back by 2^e, the
    coordinates' terms added (or, for chebyshev, maxed) in index order, a
    zero diagonal, and the elementwise minimum with the transpose.  For
    fewer than 8 coordinates numpy's sum over them takes that order too.
    """
    pts = np.asarray(points, dtype=np.float64)
    with np.errstate(over="ignore"):
        diff = pts[:, None, :] - pts[None, :, :]
        if norm == "euclidean":
            e = math.frexp(float((pts.max(axis=0) - pts.min(axis=0)).max(initial=0.0)))[1]
            np.ldexp(diff, -e, out=diff)
            terms = diff * diff
        else:
            terms = np.abs(diff)
        d = terms[:, :, 0].copy()
        for c in range(1, terms.shape[2]):
            if norm == "chebyshev":
                d = np.maximum(d, terms[:, :, c])
            else:
                d = d + terms[:, :, c]
        if norm == "euclidean":
            d = np.ldexp(np.sqrt(d), e)
    np.fill_diagonal(d, 0.0)
    return np.minimum(d, d.T)


def _float_rows_reference(lines: Iterator[str], n: int, what: str, entry: str) -> Iterator[Tuple[int, List[float]]]:
    """The rest of the lines, n expected, as (index, floats) pairs.

    After the last line it raises ValueError when the line count is not
    n, else when a value did not parse.  No line after a bad one, or
    after the n-th, is parsed.
    """
    count = 0
    bad: Optional[ValueError] = None
    for line in lines:
        if bad is None and count < n:
            try:
                values = list(map(float, line.split()))
            except ValueError as exc:
                bad = exc
            else:
                yield count, values
        count += 1
    if count != n:
        raise ValueError(f"expected {n} {what}, got {count}")
    if bad is not None:
        raise ValueError(f"{entry}: {bad}")


def parse_instance_reference(source: Union[str, Iterable[str]], tol: Optional[float] = None) -> Instance:
    """metricspace.parse_instance as it was before the C reader: every
    body token goes through float(), one list of floats per line.

    It differs from parse_instance in one message: a points file whose
    dimension is below 1 is reported after its rows are read, as 'point
    rows must have <d> coordinates'.
    """
    sym_tol = None if tol is None else check_tol(tol)
    lines = _nonblank_lines(source)
    try:
        return _parse_lines_reference(lines, sym_tol)
    except ValueError:
        if not isinstance(source, str):
            # an undecodable byte further on is reported instead
            for _ in lines:
                pass
        raise


def _parse_lines_reference(lines: Iterator[str], sym_tol: Optional[float]) -> Instance:
    first = next(lines, None)
    if first is None:
        raise ValueError("empty instance file")
    header = first.split()
    if len(header) != 4 or header[0] != "maxtsp" or header[1] != "v1":
        raise ValueError(f"bad header {first!r}, expected 'maxtsp v1 <n> <mode>'")
    try:
        n = int(header[2])
    except ValueError:
        raise ValueError(f"bad vertex count {header[2]!r}") from None
    mode = header[3]
    if n < 3:
        raise ValueError(f"need at least 3 vertices, got {n}")

    if mode == "matrix":
        # a bad entry in any row is reported before a row of the wrong length
        dist = np.empty((n, n))
        ragged = False
        for i, values in _float_rows_reference(lines, n, "matrix rows", "bad matrix entry"):
            if len(values) == n:
                dist[i] = values
            else:
                ragged = True
        if ragged:
            raise ValueError(f"matrix rows must have {n} entries")
        _check_finite(dist)
        if sym_tol is None:
            sym_tol = default_tol(float(np.abs(dist).max()))
        if _check_symmetric(dist, sym_tol):
            dist = np.minimum(dist, dist.T)
        inst = Instance(dist)
    elif mode == "points":
        norm_text = next(lines, None)
        if norm_text is None:
            raise ValueError("points mode needs a 'norm <tag> dim <d>' line")
        norm_line = norm_text.split()
        if len(norm_line) != 4 or norm_line[0] != "norm" or norm_line[2] != "dim":
            raise ValueError(f"bad norm line {norm_text!r}")
        norm = norm_line[1]
        if norm not in NORM_TAGS:
            raise ValueError(f"unknown norm tag {norm!r}")
        try:
            d = int(norm_line[3])
        except ValueError:
            raise ValueError(f"bad coordinate dimension {norm_line[3]!r}") from None
        pts = [values for _, values in _float_rows_reference(lines, n, "point rows", "bad coordinate")]
        if any(len(p) != d for p in pts):
            raise ValueError(f"point rows must have {d} coordinates")
        inst = Instance.from_points(pts, norm)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return inst


def min_plus_square_reference(d: np.ndarray) -> np.ndarray:
    """S[i, j] = min over k of d[i, k] + d[k, j], one k at a time.

    The kernel metricspace._min_plus_square replaced, on one thread:
    row blocks of about 2^16 entries, each filled from its first row's
    column onward by an add of d[rows, k] + d[k, cols] into a scratch
    buffer and a minimum into the block, for k = 0, 1, ..., n - 1 in
    turn; the lower triangle is the upper one mirrored.
    """
    n = d.shape[0]
    rows = min(n, max(1, (1 << 16) // n))
    s = np.empty_like(d)
    for r0 in range(0, n, rows):
        block = s[r0 : r0 + rows, r0:]
        tmp = np.empty_like(block)
        np.add(d[r0 : r0 + rows, :1], d[:1, r0:], out=block)
        for k in range(1, n):
            np.add(d[r0 : r0 + rows, k : k + 1], d[k : k + 1, r0:], out=tmp)
            np.minimum(block, tmp, out=block)
    for r0 in range(0, n, rows):
        s[r0 : r0 + rows, :r0] = s[:r0, r0 : r0 + rows].T
    return s


def validate_metric_reference(inst: Instance, tol: Optional[float] = None) -> MetricReport:
    """metricspace.validate_metric through the whole min-plus square.

    S from min_plus_square_reference, the gaps d - S, the first argmax
    (i, j) over all of them in row-major order, then the smallest k with
    d[i, k] + d[k, j] = S[i, j]; the value reported is that triple's own
    gap.  The pass validate_metric ran before it folded each row block's
    gaps into a maximum.
    """
    d = inst.dist
    tol = default_tol(inst.max_dist()) if tol is None else check_tol(tol)
    gaps = d - min_plus_square_reference(d)
    i, j = divmod(int(gaps.argmax()), inst.n)
    k = int(np.argmin(d[i] + d[:, j]))
    worst = float(d[i, j] - (d[i, k] + d[k, j]))
    return MetricReport(
        n=inst.n, tol=tol, max_triangle_violation=worst, worst_triple=(i, j, k),
        passed=worst <= tol,
    )


def augment_reference(t: TransportPlan, supply: np.ndarray, demand: np.ndarray) -> None:
    """cyclecover._augment with every label in a numpy array.

    The same phases, the same tie-breaking and the same float sums.  A
    phase's Dijkstra runs while a column with demand left is unsettled
    and some column can be reached; a row that settles relaxes the column
    labels through np.copyto with a where mask.  The potentials shift by
    the labels capped at the last settled one.  Then the settled columns
    with demand, in settling order, each route one unit along their tree
    path unless it shares a column, or a row other than its source, with
    a path routed before it in the phase, or its source has no supply
    left.  supply and demand are updated in place.
    """
    cost, plan, pot_l, pot_r = t.cost, t.plan, t.pot_l, t.pot_r
    n = len(supply)
    used: List[List[int]] = [[] for _ in range(n)]
    for u, v in zip(*np.nonzero(plan)):
        used[int(v)].append(int(u))
    red = np.empty((n, n))
    forward = np.empty((n, n))
    better = np.empty(n, dtype=bool)
    while supply.sum():
        np.add(cost, pot_l[:, None], out=red)
        red -= pot_r
        np.maximum(red, 0.0, out=forward)
        forward[plan] = np.inf
        dist_l = np.full(n, np.inf)
        sources = np.flatnonzero(supply > 0)
        dist_l[sources] = 0.0
        via_r = np.full(n, -1)
        via_l = sources[forward[sources].argmin(axis=0)]
        dist_r = forward[via_l, np.arange(n)]
        pending = dist_r.copy()
        settled = np.zeros(n, dtype=bool)
        sinks = []
        while (~settled & (demand > 0)).any():
            v = int(pending.argmin())
            if not pending[v] < np.inf:
                break
            reach = float(pending[v])
            pending[v] = np.inf
            settled[v] = True
            if demand[v] > 0:
                sinks.append(v)
            for u in used[v]:
                label = reach + max(0.0, -red[u, v])
                if label >= dist_l[u]:
                    continue
                dist_l[u] = label
                via_r[u] = v
                row = label + forward[u]
                np.less(row, dist_r, out=better)
                np.copyto(dist_r, row, where=better)
                np.copyto(pending, row, where=better)
                np.copyto(via_l, u, where=better)
        if not sinks:
            raise InfeasibleLP("transportation problem is infeasible")
        pot_l += np.minimum(dist_l, reach)
        pot_r += np.minimum(dist_r, reach)
        col_taken = np.zeros(n, dtype=bool)
        row_taken = np.zeros(n, dtype=bool)
        for v in sinks:
            path_cols, path_rows = [v], [int(via_l[v])]
            while via_r[path_rows[-1]] >= 0:
                path_cols.append(int(via_r[path_rows[-1]]))
                path_rows.append(int(via_l[path_cols[-1]]))
            source = path_rows[-1]
            if col_taken[path_cols].any() or row_taken[path_rows[:-1]].any() or not supply[source]:
                continue
            col_taken[path_cols] = True
            row_taken[path_rows] = True
            supply[source] -= 1
            demand[v] -= 1
            for i, (u, w) in enumerate(zip(path_rows, path_cols)):
                plan[u, w] = True
                used[w].append(u)
                if i + 1 < len(path_cols):
                    plan[u, path_cols[i + 1]] = False
                    used[path_cols[i + 1]].remove(u)


def two_matching_lp_reference(
    dist: np.ndarray, forbidden: Sequence[Edge] = (), forced: Sequence[Edge] = ()
) -> TransportPlan:
    """cyclecover.two_matching_lp with a start that masks each row's zero arcs
    by the columns with demand left, then augment_reference."""
    n = dist.shape[0]
    b = _free_degrees(n, forced)
    if (b < 0).any():
        raise InfeasibleLP("transportation problem is infeasible: a vertex has 3 forced pairs")
    top = float(dist.max())
    cost = top - dist
    np.fill_diagonal(cost, np.inf)
    for u, v in (*forbidden, *forced):
        cost[u, v] = cost[v, u] = np.inf
    pot_r = cost.min(axis=0)
    pot_r[~np.isfinite(pot_r)] = 0.0
    pot_l = -(cost - pot_r).min(axis=1)
    pot_l[~np.isfinite(pot_l)] = 0.0
    t = TransportPlan(cost, np.zeros((n, n), dtype=bool), pot_l, pot_r, top)
    supply, demand = b.copy(), b.copy()
    zero = cost + pot_l[:, None] - pot_r[None, :] <= 0.0
    for u in np.flatnonzero(supply):
        cols = np.flatnonzero(zero[u] & (demand > 0))[: supply[u]]
        t.plan[u, cols] = True
        supply[u] -= len(cols)
        demand[cols] -= 1
    augment_reference(t, supply, demand)
    return t


def complete_graph(num_vertices: int, weight_fn) -> Graph:
    """Complete graph with weight_fn(u, v) weights."""
    edges = [(u, v, weight_fn(u, v)) for u, v in combinations(range(num_vertices), 2)]
    return Graph(num_vertices, edges)
