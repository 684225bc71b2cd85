"""Cycle combining and the 5/6 baseline."""

import numpy as np
import pytest

from maxtsp import (
    CycleCover,
    GeneratorSpec,
    Tour,
    generate,
    kostochka_serdyukov_56,
    max_weight_cycle_cover,
)
from maxtsp.cyclecover import cycle_edges, cycle_weight, lightest_edges, open_cycle_at
from maxtsp.merge import _best_orientation_tour, _greedy_junction_tour, serdyukov_combine

from conftest import equilateral, integer_metric, random_cover, random_metric
from oracles import best_orientation_weight, brute_force_tour


def best_two_cycle_merge(inst, c1, c2):
    """Exhaustive optimum over all tours that keep both cycles contiguous."""
    best = -1.0
    for r1 in _rotations(c1):
        for r2 in _rotations(c2):
            best = max(best, cycle_weight(inst, r1 + r2))
    return best


def _rotations(cycle):
    out = []
    n = len(cycle)
    doubled = list(cycle) + list(cycle)
    for i in range(n):
        seg = doubled[i : i + n]
        out.append(seg)
        out.append(seg[::-1])
    return out


class TestSerdyukovCombine:
    def test_single_cycle_identity(self):
        inst = random_metric(6, 0)
        cover = CycleCover.from_cycles(inst, [[0, 2, 4, 1, 3, 5]])
        tour = serdyukov_combine(inst, cover)
        assert isinstance(tour, Tour)
        assert tour.weight == pytest.approx(cover.weight)

    def test_two_equilateral_triangles(self):
        inst = equilateral(6)
        cover = CycleCover.from_cycles(inst, [[0, 1, 2], [3, 4, 5]])
        tour = serdyukov_combine(inst, cover)
        assert tour.weight == pytest.approx(6.0)

    def test_tour_is_permutation(self):
        for seed in range(15):
            inst = random_metric(11, seed)
            cover = random_cover(inst, seed)
            tour = serdyukov_combine(inst, cover)
            assert sorted(tour.order) == list(range(11))

    def test_retention_bound(self):
        # combining k cycles keeps at least (1 - 1/n)^(k-1) of the cover
        for seed in range(25):
            n = 10 + seed % 5
            inst = random_metric(n, seed + 100)
            k = min(2 + seed % 3, n // 3)
            cover = random_cover(inst, seed, k=k)
            tour = serdyukov_combine(inst, cover)
            floor = (1.0 - 1.0 / n) ** (k - 1) * cover.weight
            assert tour.weight >= floor - 1e-9 * cover.weight

    def test_two_cycle_patch_is_optimal(self):
        # with exactly two cycles a single patch happens, and the exhaustive
        # search over partner edges must match the best contiguous merge
        for seed in range(12):
            inst = random_metric(8, seed + 30)
            cover = random_cover(inst, seed, k=2)
            tour = serdyukov_combine(inst, cover)
            c1, c2 = (list(c) for c in cover.cycles)
            assert tour.weight == pytest.approx(best_two_cycle_merge(inst, c1, c2))


class TestFiveSixths:
    def test_equilateral_full_weight(self):
        tour, cert = kostochka_serdyukov_56(equilateral(9))
        assert tour.weight == pytest.approx(9.0)
        assert cert.branch == "five-sixths"
        assert cert.claimed_bound == pytest.approx(5.0 / 6.0)
        assert cert.weight_cover == pytest.approx(9.0)
        assert cert.certified is True

    def test_single_cycle_passthrough(self):
        # n = 4 admits no multi-cycle cover, so the cover is the tour
        inst = random_metric(4, 2)
        tour, cert = kostochka_serdyukov_56(inst)
        assert cert.k_initial == 1
        assert tour.weight == pytest.approx(cert.weight_cover)

    def test_bound_against_optimum(self):
        for seed in range(30):
            n = 5 + seed % 5
            inst = random_metric(n, seed + 400)
            tour, cert = kostochka_serdyukov_56(inst)
            opt = brute_force_tour(inst).weight
            assert tour.weight >= (5.0 / 6.0) * opt - 1e-9 * opt
            assert tour.weight >= (5.0 / 6.0) * cert.weight_cover - 1e-9 * opt
            assert sorted(tour.order) == list(range(n))

    def test_recovers_half_the_dropped_weight(self):
        # the tour must keep at least cover - sum(dropped minima)/2, the
        # averaging floor the orientation search is guaranteed to clear
        for seed in range(20):
            inst = random_metric(12, seed + 700)
            cover = max_weight_cycle_cover(inst)
            tour, _ = kostochka_serdyukov_56(inst)
            dropped = 0.0
            for cyc in cover.cycles:
                edges = [
                    float(inst.dist[cyc[i], cyc[(i + 1) % len(cyc)]])
                    for i in range(len(cyc))
                ]
                dropped += min(edges)
            floor = cover.weight - 0.5 * dropped
            assert tour.weight >= floor - 1e-9 * max(1.0, cover.weight)


class TestOrientationClosing:
    @pytest.mark.parametrize("family", ("random-metric", "euclidean"))
    def test_matches_enumeration(self, family):
        # the chain DP must reach the best of all 2^k orientation choices
        d = 2 if family == "euclidean" else None
        for k in range(2, 9):
            for seed in range(3):
                inst = generate(GeneratorSpec(family=family, n=3 * k, seed=100 * k + seed, d=d))
                rng = np.random.default_rng(seed)
                perm = [int(v) for v in rng.permutation(inst.n)]
                cuts = sorted(int(c) for c in rng.choice(range(1, inst.n), size=k - 1, replace=False))
                paths = [perm[i:j] for i, j in zip([0] + cuts, cuts + [inst.n])]
                weight = _best_orientation_tour(inst, paths).weight
                assert weight == pytest.approx(best_orientation_weight(inst, paths), rel=1e-12)


# Tours on tie-heavy metrics, pinned so any change in scan order or tie
# rule shows: every distance 1, and integers 1..3 closed to a metric.
TIE_COVER = [[0, 5, 1, 9], [2, 7, 3], [4, 11, 6, 10, 8]]
PINNED = {
    "equilateral": {
        "combine": (0, 3, 7, 2, 5, 1, 9, 4, 11, 6, 10, 8),
        "orientation": (0, 8, 10, 6, 11, 4, 3, 7, 2, 5, 1, 9),
        "greedy": (0, 8, 10, 6, 11, 4, 3, 7, 2, 5, 1, 9),
        "five_sixths": (0, 2, 1, 3, 5, 4, 6, 8, 7, 9, 11, 10),
    },
    "integer": {
        "combine": (0, 3, 2, 7, 5, 1, 9, 6, 11, 4, 8, 10),
        "orientation": (0, 3, 2, 7, 8, 10, 6, 11, 4, 5, 1, 9),
        "greedy": (0, 3, 2, 7, 8, 10, 6, 11, 4, 5, 1, 9),
        "five_sixths": (0, 1, 5, 11, 4, 6, 9, 7, 8, 3, 2, 10),
    },
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_tie_breaking_is_pinned(name):
    inst = equilateral(12) if name == "equilateral" else integer_metric(12, 1, high=4)
    cover = CycleCover.from_cycles(inst, TIE_COVER)
    paths = [open_cycle_at(c, lightest_edges(inst, cycle_edges(c))[0]) for c in cover.cycles]
    got = {
        "combine": serdyukov_combine(inst, cover).order,
        "orientation": _best_orientation_tour(inst, paths).order,
        "greedy": _greedy_junction_tour(inst, paths).order,
        "five_sixths": kostochka_serdyukov_56(inst)[0].order,
    }
    assert got == PINNED[name]
