"""Exact tour oracles."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxtsp import (
    GeneratorSpec,
    Instance,
    exact_dp,
    generate,
    held_karp_max,
    kostochka_serdyukov_56,
)
from maxtsp.cyclecover import cycle_weight
from maxtsp.exact import HELD_KARP_CAP

from conftest import equilateral, random_metric
from oracles import BRUTE_FORCE_TOUR_CAP, brute_force_tour, held_karp_pull

FAMILIES = ("line", "euclidean", "random-metric")


def family_instance(family, n, seed):
    d = 2 if family == "euclidean" else None
    return generate(GeneratorSpec(family=family, n=n, seed=seed, d=d))


def small_integer_weights(n, seed):
    # every weight in {2, 3, 4}: any two sum to at least the third, so
    # the matrix is a metric, and almost every tour ties with another
    rng = np.random.default_rng(seed)
    raw = rng.integers(2, 5, size=(n, n)).astype(np.float64)
    raw = np.triu(raw, 1)
    return Instance(raw + raw.T)


def duplicate_points(n, seed):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 1.0, size=((n + 1) // 2, 2))
    pts = np.concatenate([base, base])[:n]
    return Instance.from_points(pts, "euclidean")


TIE_HEAVY = {
    "equilateral": lambda n, seed: equilateral(n),
    "all-zero": lambda n, seed: Instance(np.zeros((n, n))),
    "small-integer": small_integer_weights,
    "duplicate-points": duplicate_points,
}


def assert_exact_tour(inst, tour):
    assert sorted(tour.order) == list(range(inst.n))
    assert tour.order[0] == 0
    assert cycle_weight(inst, tour.order) == pytest.approx(tour.weight, rel=1e-12, abs=0)


class TestHeldKarp:
    def test_triangle(self):
        inst = random_metric(3, 0)
        tour = held_karp_max(inst)
        d = inst.dist
        assert tour.weight == pytest.approx(d[0, 1] + d[1, 2] + d[2, 0])
        assert tour.order == (0, 1, 2)

    def test_equilateral(self):
        tour = held_karp_max(equilateral(6))
        assert tour.weight == pytest.approx(6.0)
        assert sorted(tour.order) == list(range(6))

    def test_matches_brute_force(self):
        for seed in range(40):
            n = 4 + seed % 6
            inst = random_metric(n, seed)
            dp = held_karp_max(inst)
            bf = brute_force_tour(inst)
            # the two sum distances in different orders, so the last bit
            # of the float can differ
            assert dp.weight == pytest.approx(bf.weight, rel=1e-12)
            assert cycle_weight(inst, dp.order) == pytest.approx(dp.weight, rel=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", range(3, BRUTE_FORCE_TOUR_CAP + 1))
    def test_families_match_brute_force(self, family, n):
        inst = family_instance(family, n, seed=100 + n)
        dp = held_karp_max(inst)
        assert dp.weight == pytest.approx(brute_force_tour(inst).weight, rel=1e-12, abs=0)
        assert_exact_tour(inst, dp)

    @pytest.mark.parametrize("kind", sorted(TIE_HEAVY))
    def test_tie_heavy_inputs_match_brute_force(self, kind):
        for n in range(3, BRUTE_FORCE_TOUR_CAP + 1):
            inst = TIE_HEAVY[kind](n, n)
            dp = held_karp_max(inst)
            # abs=0 as well: the all-zero optimum is exactly 0.0
            assert dp.weight == pytest.approx(brute_force_tour(inst).weight, rel=1e-12, abs=0)
            assert_exact_tour(inst, dp)

    @pytest.mark.parametrize("n", range(BRUTE_FORCE_TOUR_CAP + 1, HELD_KARP_CAP + 1))
    def test_between_five_sixths_tour_and_cover(self, n):
        # above the brute-force cap: any tour weighs at most the optimum,
        # and the maximum cycle cover weighs at least it
        inst = family_instance(FAMILIES[n % 3], n, seed=n)
        dp = held_karp_max(inst)
        five, cert = kostochka_serdyukov_56(inst)
        slack = 1.0 + 1e-12
        assert five.weight <= dp.weight * slack
        assert dp.weight <= cert.weight_cover * slack
        assert_exact_tour(inst, dp)

    def test_cap_size_returns_a_permutation_in_budget(self):
        inst = small_integer_weights(HELD_KARP_CAP, 7)
        start = time.perf_counter()
        tour = held_karp_max(inst)
        elapsed = time.perf_counter() - start
        assert_exact_tour(inst, tour)
        assert elapsed < 5.0, f"n = {HELD_KARP_CAP} took {elapsed:.2f} s"

    def test_size_cap(self):
        with pytest.raises(ValueError, match="capped"):
            held_karp_max(equilateral(HELD_KARP_CAP + 1))

    def test_keeps_the_caller_ufunc_buffer_size(self, caller_bufsize):
        # the layers run with the buffer at 16 entries, then hand back the
        # caller's size; the tour does not depend on it
        inst = random_metric(12, 3)
        tour = held_karp_max(inst)
        assert np.getbufsize() == caller_bufsize
        for size in (16, 8192, 1 << 20):
            np.setbufsize(size)
            assert held_karp_max(inst) == tour
            assert np.getbufsize() == size


class TestAgainstPullDp:
    # held_karp_pull fills every subset layer, keeps a parent table and
    # never uses symmetry, so it checks the half-path join and the walk
    # back above the brute-force cap

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", range(BRUTE_FORCE_TOUR_CAP + 1, 18))
    def test_families(self, family, n):
        inst = family_instance(family, n, seed=200 + n)
        dp = held_karp_max(inst)
        assert dp.weight == pytest.approx(held_karp_pull(inst).weight, rel=1e-12, abs=0)
        assert_exact_tour(inst, dp)

    @pytest.mark.parametrize("kind", sorted(TIE_HEAVY))
    def test_tie_heavy_inputs(self, kind):
        for n in range(BRUTE_FORCE_TOUR_CAP + 1, 18):
            inst = TIE_HEAVY[kind](n, n)
            dp = held_karp_max(inst)
            assert dp.weight == pytest.approx(held_karp_pull(inst).weight, rel=1e-12, abs=0)
            assert_exact_tour(inst, dp)

    @pytest.mark.parametrize("scale", (1e-12, 1e12))
    def test_scaled_random_metric(self, scale):
        for n in (11, 14, 17):
            inst = generate(GeneratorSpec(family="random-metric", n=n, seed=n, scale=scale))
            dp = held_karp_max(inst)
            assert dp.weight == pytest.approx(held_karp_pull(inst).weight, rel=1e-12, abs=0)
            assert_exact_tour(inst, dp)


# every weight an integer: each tour sums exactly, in any order and scaled
INTEGER_KINDS = ("equilateral", "all-zero", "small-integer")


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(FAMILIES + INTEGER_KINDS),
    st.integers(min_value=4, max_value=17).flatmap(
        lambda n: st.tuples(st.permutations(range(n)), st.integers(0, 10_000))
    ),
)
def test_relabelling_keeps_the_optimum(kind, perm_seed):
    # a relabelling moves vertex 0, where both half paths start, vertex
    # n - 1, which every joined S holds when n - 1 is even, and which
    # vertices fall on either side of the join
    perm, seed = perm_seed
    if kind in FAMILIES:
        inst = family_instance(kind, len(perm), seed)
    else:
        inst = TIE_HEAVY[kind](len(perm), seed)
    relabelled = Instance(inst.dist[np.ix_(perm, perm)])
    weight = held_karp_max(relabelled).weight
    if kind in FAMILIES:
        assert weight == pytest.approx(held_karp_max(inst).weight, rel=1e-12, abs=0)
    else:
        assert weight == held_karp_max(inst).weight == held_karp_pull(relabelled).weight


def traced_peak(inst):
    """tracemalloc's peak, in bytes, over one held_karp_max call."""
    tracemalloc.start()
    try:
        held_karp_max(inst)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_fits_the_half_layers():
    # n = 17 keeps 16 x 39,203 float64 states (4.8 MiB) and two buffers of
    # the widest extended layer, C(16, 7) = 11,440 columns (2.8 MiB
    # together), which also hold the push's flags; every subset layer
    # with an int8 parent table, as held_karp_pull keeps, peaks at about
    # 12 MiB
    assert traced_peak(random_metric(17, 3)) <= 9 * 2**20


def test_peak_memory_at_the_cap():
    # n = 20 keeps 19 x 354,522 states (51.4 MiB), two buffers of
    # C(19, 9) = 92,378 columns (26.8 MiB) and the masks of those states
    # (1.4 MiB), 80.2 MiB in all; a rank table over every mask would add
    # 2 MiB, and gathering every row of a push at once 7 MiB
    assert traced_peak(random_metric(HELD_KARP_CAP, 3)) <= 81 * 2**20


class TestExactDp:
    def test_certificate_records_an_exact_tour(self):
        inst = random_metric(9, 4)
        tour, cert = exact_dp(inst)
        assert tour == held_karp_max(inst)
        assert cert.branch == "exact-dp"
        assert cert.certified is True
        assert cert.claimed_bound == 1.0
        assert cert.weight_tour == tour.weight
        assert cert.weight_cover is None and cert.k_initial is None


class TestBruteForce:
    def test_four_vertices_by_hand(self):
        inst = random_metric(4, 11)
        d = inst.dist
        candidates = [
            d[0, 1] + d[1, 2] + d[2, 3] + d[3, 0],
            d[0, 1] + d[1, 3] + d[3, 2] + d[2, 0],
            d[0, 2] + d[2, 1] + d[1, 3] + d[3, 0],
        ]
        tour = brute_force_tour(inst)
        assert tour.weight == pytest.approx(max(candidates))
        assert tour.order[0] == 0

    def test_size_cap(self):
        with pytest.raises(ValueError, match="capped"):
            brute_force_tour(equilateral(BRUTE_FORCE_TOUR_CAP + 1))

