"""Cycle combining and the 5/6 baseline."""

import pytest

from maxtsp import (
    CycleCover,
    Tour,
    kostochka_serdyukov_56,
    max_weight_cycle_cover,
)
from maxtsp.cyclecover import cycle_weight
from maxtsp.merge import serdyukov_combine

from conftest import equilateral, random_cover, random_metric
from oracles import brute_force_tour


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
