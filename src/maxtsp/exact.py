"""Exact solver: Held-Karp dynamic programming over two half paths.

held_karp_max is exact up to a hard cap of 20 vertices, where it takes
about a third of a second and 84 MiB.  exact_dp wraps it in the
(Tour, Certificate) shape of the other entry points.

Every Instance is exactly symmetric, so a tour 0 -> ... -> 0 is two
paths out of vertex 0 that meet by one edge: one through a set S of
floor((n-1)/2) vertices ending at j, one through the complement C ending
at i, joined by (j, i).  The DP therefore fills only the subsets of at
most ceil((n-1)/2) vertices, and keeps no parent table: each step of the
walk back recomputes the sums the DP took its maximum over.
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
    ext[j, S] is then pushed to column S + j for each j outside S.  The
    ext of layer floor(m/2) also prices the join.  The walk back from the
    joined states picks, at each step, an argmax of the same float sums
    dp[u, S - v] + d[u, v], which attains dp[v, S] exactly.

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
    size = np.bitwise_count(np.arange(1 << m, dtype=np.int32))
    masks = np.argsort(size, kind="stable").astype(np.int32)
    rank = np.empty_like(masks)
    rank[masks] = np.arange(1 << m, dtype=np.int32)
    bounds = np.concatenate(([0], np.cumsum(np.bincount(size, minlength=m + 1))))
    dp = np.full((m, int(bounds[top + 1])), -np.inf)
    dp[np.arange(m), rank[1 << np.arange(m)]] = d[0, 1:]
    # ext[j, s] = max_i dp[i, lo + s] + inner[i, j] for the layer at lo;
    # the widest layer extended is the last, |S| = half
    buf = np.empty((2, m, int(bounds[half + 1] - bounds[half])))
    with _unbuffered():
        for k in range(1, half + 1):
            lo, hi = bounds[k], bounds[k + 1]
            layer = masks[lo:hi]
            ext, tmp = buf[:, :, : hi - lo]
            np.add(dp[0, lo:hi], inner[0][:, None], out=ext)
            for i in range(1, m):
                np.add(dp[i, lo:hi], inner[i][:, None], out=tmp)
                np.maximum(ext, tmp, out=ext)
            if k < top:
                # S < S' among the masks without j iff S + j < S' + j, so
                # ext row j, on the masks without j, fills row j of the
                # next layer, on the masks with j, in order
                end = bounds[k + 2]
                for j in range(m):
                    bit = 1 << j
                    dp[j, hi:end][(masks[hi:end] & bit) != 0] = ext[j, (layer & bit) == 0]
        # join each S of the last layer to its complement C by the edge
        # (j, i): complementing reverses the ascending masks of a layer, so
        # C of column lo + s is column bounds[top + 1] - 1 - s
        np.add(ext, dp[:, bounds[top] : bounds[top + 1]][:, ::-1], out=tmp)
    i, s = divmod(int(np.argmax(tmp)), layer.size)
    first = int(layer[s])
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
