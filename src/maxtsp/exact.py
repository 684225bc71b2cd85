"""Exact solver: subset dynamic programming.

held_karp_max is exact up to a hard cap of 20 vertices, where it takes
about a second.  exact_dp wraps it in the (Tour, Certificate) shape of
the other entry points.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .certificate import Certificate
from .cyclecover import Tour
from .metricspace import Instance

HELD_KARP_CAP = 20


def check_dp_size(n: int) -> None:
    """ValueError when n is above the Held-Karp cap."""
    if n > HELD_KARP_CAP:
        raise ValueError(f"exact DP capped at {HELD_KARP_CAP} vertices, got {n}")


def held_karp_max(inst: Instance) -> Tour:
    """Maximum-weight tour by dynamic programming over (visited, last) states.

    Vertex 0 starts every path, so a state is (S, j) with S a nonempty
    subset of {1..n-1} and j in S: dp[S, j] is the heaviest path from 0
    through exactly S ending at j.  Bit i-1 of S stands for vertex i, so
    dp and parent are (2^(n-1), n-1) tables.  They fill one popcount
    layer at a time, with one vectorised step per (layer, last vertex):
    every S of the layer that holds j extends its predecessor row
    dp[S - j], whose -inf entries mark the vertices outside S - j.  Time
    is O(2^n * n^2) in (n-1)^2 numpy steps, memory O(2^n * n), so n is
    capped at 20; callers needing larger n must accept an approximation.
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


def exact_dp(inst: Instance) -> Tuple[Tour, Certificate]:
    """:func:`held_karp_max` with its certificate: exact, so bound 1."""
    tour = held_karp_max(inst)
    cert = Certificate(
        branch="exact-dp", weight_tour=tour.weight, claimed_bound=1.0, certified=True
    )
    return tour, cert

