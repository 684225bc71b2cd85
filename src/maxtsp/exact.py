"""Exact solver: Held-Karp dynamic programming over two half paths.

held_karp_max is exact up to a hard cap of 20 vertices, where it takes
about a third of a second and 83 MiB.  exact_dp wraps it in the
(Tour, Certificate) shape of the other entry points.

Every Instance is exactly symmetric, so a tour 0 -> ... -> 0 is two
paths out of vertex 0 that meet by one edge: one through a set S of
floor((n-1)/2) vertices ending at j, one through the complement C ending
at i, joined by (j, i).  The DP therefore fills only the subsets of at
most ceil((n-1)/2) vertices, and keeps no parent table: each step of the
walk back recomputes the sums the DP took its maximum over.  A layer
reaches the next by one boolean assignment over all its rows (over
groups of rows at the wide layers), with the flags in the idle half of
the max-plus buffer.  When n - 1 is even, S and C have the same size
and every tour is found from both sides, so only the S holding vertex
n - 1 are joined.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from .certificate import Certificate
from .cyclecover import Tour
from .metricspace import Instance, _unbuffered

HELD_KARP_CAP = 20


def check_dp_size(n: int) -> None:
    """ValueError when n is above the Held-Karp cap."""
    if n > HELD_KARP_CAP:
        raise ValueError(f"exact DP capped at {HELD_KARP_CAP} vertices, got {n}")


def held_karp_max(inst: Instance) -> Tour:
    """Maximum-weight tour by dynamic programming over two half paths.

    Vertex 0 starts every path, so a state is (S, j) with S a nonempty
    subset of {1..n-1} and j in S: dp[j, S] is the heaviest path from 0
    through exactly S ending at j.  With m = n - 1, the optimum is the
    maximum of dp[j, S] + d[j, i] + dp[i, C] over |S| = floor(m/2),
    C the complement of S, j in S and i in C: the second path is the
    rest of the tour read backwards, which weighs the same only because
    d is exactly symmetric.  So only the layers |S| <= ceil(m/2) exist.

    dp is an (m, subsets) table whose columns are sorted by subset size,
    so each layer is a contiguous slice.  A layer is extended by a
    max-plus product over the predecessor, ext[j, S] = max_i dp[i, S] +
    d[i, j], in 2m numpy steps on whole rows; -inf marks i outside S.
    ext[j, S] is then pushed to column S + j for each j outside S, in one
    step for all rows, dp[:, next layer][has] = ext[lacks]: row j of has
    flags the next layer's subsets holding j, row j of lacks the layer's
    subsets without j, and both list the same subsets in the same order.
    The flags are written into the bytes of the max-plus buffer's idle
    half, and the rows go in groups that gather at most one row of ext
    at its widest: one group at the narrow layers, where a numpy call's
    fixed cost would show, down to single rows at the widest, where it
    does not.  So the push allocates no more than a row-by-row push.
    The ext of layer floor(m/2) also prices the join.  When m is even
    that layer is its own complement and prices every tour twice, as
    (S, C) and as (C, S); the S holding vertex n - 1 are the upper half
    of the ascending layer and their complements its lower half
    reversed, so the last max-plus and the join run on that upper half
    only.  The walk back from the joined states picks, at each step, an
    argmax of the same float sums dp[u, S - v] + d[u, v], which attains
    dp[v, S] exactly.

    The DP runs on d scaled by a power of two that puts the largest
    distance in [0.5, 1): exact on every normal entry, and no sum of n
    edges can overflow.  The returned weight is recomputed from
    inst.dist.  Time is O(2^n * n^2), memory O(2^n * n), so n is capped
    at 20; callers needing larger n must accept an approximation.  The
    layers and the join run under metricspace's ``_unbuffered`` scope,
    because numpy's default ufunc buffer would copy the broadcast
    operands of every add.
    """
    n = inst.n
    check_dp_size(n)
    d = np.ldexp(inst.dist, -math.frexp(inst.max_dist())[1])
    inner = d[1:, 1:]
    m = n - 1
    half, top = m // 2, m - m // 2
    # bit v of a mask stands for vertex v + 1; columns run through the
    # masks by size, ascending within a size, and rank maps mask to column
    masks = np.argsort(
        np.bitwise_count(np.arange(1 << m, dtype=np.int32)), kind="stable"
    ).astype(np.int32)
    rank = np.empty_like(masks)
    rank[masks] = np.arange(1 << m, dtype=np.int32)
    bounds = np.cumsum([0] + [math.comb(m, k) for k in range(m + 1)])
    dp = np.full((m, int(bounds[top + 1])), -np.inf)
    dp[np.arange(m), rank[1 << np.arange(m)]] = d[0, 1:]
    spans = [(int(bounds[k]), int(bounds[k + 1])) for k in range(1, half + 1)]
    if half == top:
        # m even: the join layer is its own complement and would price
        # every tour twice; extend only the S holding vertex n - 1 (bit
        # m - 1), the upper half of the ascending layer
        lo, hi = spans[-1]
        spans[-1] = ((lo + hi) // 2, hi)
    width = max(hi - lo for lo, hi in spans)
    # ext[j, s] = max_i dp[i, lo + s] + inner[i, j] over the span [lo, hi);
    # ext and tmp are contiguous, so argmax reads tmp without a copy, and
    # tmp's bytes are the push's scratch
    buf = np.empty((2, m * width))
    scratch = buf[1].view(np.uint8)
    bits = np.left_shift(1, np.arange(m, dtype=np.int32))
    with _unbuffered():
        for k, (lo, hi) in enumerate(spans, 1):
            ext, tmp = buf[:, : m * (hi - lo)].reshape(2, m, hi - lo)
            np.add(dp[0, lo:hi], inner[0][:, None], out=ext)
            for i in range(1, m):
                np.add(dp[i, lo:hi], inner[i][:, None], out=tmp)
                np.maximum(ext, tmp, out=ext)
            if k < top:
                # S < S' among the masks without j iff S + j < S' + j, so
                # ext row j, on the masks without j, fills row j of the
                # next layer, on the masks with j, in order.  The flags
                # go in tmp's 8 m width bytes: word (4 m nxt) and has
                # (m nxt) first, then lacks over word; nxt is at most
                # 3/2 width, so they fit
                end = int(bounds[k + 2])
                nxt = end - hi
                word = scratch[: 4 * m * nxt].view(np.int32).reshape(m, nxt)
                has = scratch[4 * m * nxt : 5 * m * nxt].view(np.bool_).reshape(m, nxt)
                np.bitwise_and(masks[hi:end], bits[:, None], out=word)
                np.not_equal(word, 0, out=has)
                # -inf marks exactly the j outside S
                lacks = scratch[: m * (hi - lo)].view(np.bool_).reshape(m, hi - lo)
                np.equal(dp[:, lo:hi], -np.inf, out=lacks)
                # a row gathers C(m - 1, k) values, a group at most width
                rows = max(1, width // math.comb(m - 1, k))
                for j in range(0, m, rows):
                    g = slice(j, j + rows)
                    dp[g, hi:end][has[g]] = ext[g][lacks[g]]
        # join each S of the span to its complement C by the edge (j, i):
        # complementing reverses the ascending masks of a layer, and the
        # span ends its layer, so the C are the first hi - lo columns of
        # layer top, reversed
        c0 = int(bounds[top])
        np.add(ext, dp[:, c0 : c0 + hi - lo][:, ::-1], out=tmp)
    i, s = divmod(int(np.argmax(tmp)), hi - lo)
    first = int(masks[lo + s])
    # head runs from i back through S, tail from i back through C
    head = _walk_back(dp, inner, rank, first | 1 << i, i)
    tail = _walk_back(dp, inner, rank, ((1 << m) - 1) ^ first, i)
    order = [0] + head[::-1] + tail[1:]
    return Tour.from_order(inst, order)


def _walk_back(
    dp: np.ndarray, inner: np.ndarray, rank: np.ndarray, mask: int, v: int
) -> List[int]:
    """The path of state (mask, v) from v back to its first vertex."""
    path = [v + 1]
    while mask != 1 << v:
        mask ^= 1 << v
        v = int(np.argmax(dp[:, rank[mask]] + inner[:, v]))
        path.append(v + 1)
    return path


def exact_dp(inst: Instance) -> Tuple[Tour, Certificate]:
    """:func:`held_karp_max` with its certificate: exact, so bound 1."""
    tour = held_karp_max(inst)
    cert = Certificate(
        branch="exact-dp", weight_tour=tour.weight, claimed_bound=1.0, certified=True
    )
    return tour, cert
