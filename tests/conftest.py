"""Shared builders for the test suite.

Everything here is deterministic given the seed so failures replay
exactly.  The builders intentionally construct inputs solvers never
produce themselves (arbitrary covers, matching-only graphs) so oracle
comparisons stay independent of the code under test.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import pytest

from maxtsp import CycleCover, GeneratorSpec, Instance, generate

from oracles import Graph, floyd_warshall_closure

# (n, dim) with n just above 2^(2 dim + 1), where the asymptotic scheme's
# delta = 2 / n^(1/(2 dim + 1)) rounds to 1.0
FLOAT_BOUNDARY = ((8, 0.9999999999999998), (5, 0.6609640474436811))


@pytest.fixture
def caller_bufsize():
    """numpy's ufunc buffer size set to 4096 for the test, then restored:
    a kernel that changes it must hand this value back."""
    old = np.setbufsize(4096)
    yield 4096
    np.setbufsize(old)


def equilateral(n: int) -> Instance:
    """Every distance 1: all tours and covers tie."""
    return Instance(np.ones((n, n)) - np.eye(n))


def random_metric(n: int, seed: int) -> Instance:
    return generate(GeneratorSpec(family="random-metric", n=n, seed=seed))


def line_instance(n: int, seed: int) -> Instance:
    return generate(GeneratorSpec(family="line", n=n, seed=seed))


def integer_metric(n: int, seed: int, high: int = 50) -> Instance:
    """Integer-weight metric: random integers closed under shortest paths.

    Integer matrices keep oracle comparisons exact (closure only ever
    copies sums of integers).
    """
    rng = np.random.default_rng(seed)
    raw = rng.integers(1, high, size=(n, n)).astype(np.float64)
    raw = np.minimum(raw, raw.T)
    np.fill_diagonal(raw, 0.0)
    return Instance(floyd_warshall_closure(raw))


def pm_graph(rng: np.random.Generator, nv: int, integer: bool = True) -> Graph:
    """Random graph guaranteed to contain a perfect matching.

    Plants a random perfect matching, then sprinkles extra edges on top.
    """
    perm = rng.permutation(nv)
    edges = {}
    for i in range(0, nv, 2):
        u, v = int(perm[i]), int(perm[i + 1])
        edges[(min(u, v), max(u, v))] = None
    for _ in range(int(rng.integers(0, 2 * nv + 1))):
        u, v = (int(x) for x in rng.choice(nv, size=2, replace=False))
        edges.setdefault((min(u, v), max(u, v)), None)
    out = []
    for (u, v) in sorted(edges):
        w = float(rng.integers(1, 100)) if integer else float(rng.uniform(0.1, 10.0))
        out.append((u, v, w))
    return Graph(nv, out)


def random_cover(inst: Instance, seed: int, k: Optional[int] = None) -> CycleCover:
    """Arbitrary valid cover: random partition into k cycles of size >= 3."""
    rng = np.random.default_rng(seed)
    n = inst.n
    kmax = n // 3
    if k is None:
        k = int(rng.integers(1, min(4, kmax) + 1))
    if k > kmax:
        raise ValueError(f"cannot split {n} vertices into {k} cycles")
    sizes = [3] * k
    for _ in range(n - 3 * k):
        sizes[int(rng.integers(0, k))] += 1
    perm = [int(v) for v in rng.permutation(n)]
    cycles: List[List[int]] = []
    at = 0
    for s in sizes:
        cycles.append(perm[at : at + s])
        at += s
    return CycleCover.from_cycles(inst, cycles)


def block_cover(inst: Instance) -> CycleCover:
    """Deterministic cover for line instances: consecutive coordinate blocks.

    Groups of three along the sorted line; a remainder of one or two
    vertices folds into a final block of four or five.
    """
    xs = np.array([p[0] for p in inst.points])
    order = [int(i) for i in np.argsort(xs, kind="stable")]
    n = len(order)
    r = n % 3
    tail = 4 if r == 1 else 5 if r == 2 else 0
    blocks = [order[i : i + 3] for i in range(0, n - tail, 3)]
    if tail:
        blocks.append(order[n - tail :])
    return CycleCover.from_cycles(inst, blocks)
