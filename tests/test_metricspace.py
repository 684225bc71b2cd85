"""Instance model, validation, generation, doubling estimate, file I/O."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxtsp import (
    GeneratorSpec,
    Instance,
    dump_instance,
    estimate_doubling,
    generate,
    load_instance,
    validate_metric,
)
from maxtsp.metricspace import metric_violation, parse_instance, pairwise_distances

from conftest import random_metric


def equilateral(n):
    return Instance(np.ones((n, n)) - np.eye(n))


# d[0,3] = 3 > d[0,1] + d[1,3] = 2: a violation of a third of the longest
# distance, at any scale
FOUR_POINT_VIOLATION = np.array(
    [[0, 1, 1, 3], [1, 0, 1, 1], [1, 1, 0, 1], [3, 1, 1, 0]], dtype=float
)


def loop_triangle_check(d):
    """The per-k loop over every triple: (max violation, (i, j, k)).

    Reference for validate_metric: strict > across k, argmax in row-major
    order within one k.
    """
    n = d.shape[0]
    worst, triple = -math.inf, None
    for k in range(n):
        gap = d - (d[:, k : k + 1] + d[k : k + 1, :])
        i, j = divmod(int(np.argmax(gap)), n)
        if gap[i, j] > worst:
            worst, triple = float(gap[i, j]), (i, j, k)
    return worst, triple


def loop_symmetry_pairs(d, tol):
    """Every (i, j, |d_ij - d_ji|) above tol with i < j, in row-major order."""
    asym = np.abs(d - d.T)
    return [(int(i), int(j), float(asym[i, j])) for i, j in np.argwhere(np.triu(asym > tol, k=1))]


def assert_matches_loop(inst, tol=None):
    rep = validate_metric(inst, tol)
    worst, triple = loop_triangle_check(inst.dist)
    assert np.float64(rep.max_triangle_violation).tobytes() == np.float64(worst).tobytes()
    assert rep.worst_triple == triple
    assert rep.passed == (not rep.symmetry_violations and worst <= rep.tol)
    return rep


@st.composite
def distance_matrices(draw):
    """Square non-negative matrices with a zero diagonal: uniform or small
    integer weights (many ties), distances between duplicated grid points,
    or all zeros; symmetric or not; with or without off-diagonal -0.0
    entries; scaled by 1e-12 to 1e12."""
    n = draw(st.integers(min_value=3, max_value=40))
    kind = draw(st.sampled_from(["uniform", "small-int", "duplicate-points", "zero"]))
    symmetric = draw(st.booleans())
    signed_zeros = draw(st.booleans())
    scale = 10.0 ** draw(st.integers(min_value=-12, max_value=12))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if kind == "uniform":
        d = rng.uniform(0.0, 1.0, size=(n, n))
    elif kind == "small-int":
        d = rng.integers(0, 4, size=(n, n)).astype(float)
    elif kind == "duplicate-points":
        d = pairwise_distances(rng.integers(0, 3, size=(n, 2)), "euclidean")
    else:
        d = np.zeros((n, n))
    if symmetric:
        d = np.minimum(d, d.T)
    d = d * scale
    if signed_zeros:
        d[d == 0.0] = -0.0
    np.fill_diagonal(d, 0.0)
    return d


class TestInstance:
    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="at least 3"):
            Instance(np.zeros((2, 2)))

    def test_rejects_negative(self):
        d = np.ones((3, 3)) - np.eye(3)
        d[0, 1] = d[1, 0] = -1.0
        with pytest.raises(ValueError, match="negative"):
            Instance(d)

    def test_rejects_nonzero_diagonal(self):
        d = np.ones((3, 3))
        with pytest.raises(ValueError, match="diagonal"):
            Instance(d)

    def test_matrix_is_readonly(self):
        inst = equilateral(4)
        with pytest.raises(ValueError):
            inst.dist[0, 1] = 7.0

    def test_with_dim_hint(self):
        inst = equilateral(4)
        other = inst.with_dim_hint(2.5)
        assert inst.dim_hint is None
        assert other.dim_hint == 2.5
        assert other.dist is inst.dist


class TestValidateMetric:
    def test_valid_passes(self):
        rep = validate_metric(equilateral(5))
        assert rep.passed
        assert rep.max_triangle_violation <= 0.0
        assert not rep.symmetry_violations

    def test_triangle_violation_located(self):
        # 3 > 1 + 1: the path 0-1-2 undercuts the direct edge 0-2
        inst = Instance(np.array([[0, 1, 3], [1, 0, 1], [3, 1, 0]], dtype=float))
        rep = validate_metric(inst, tol=1e-9)
        assert not rep.passed
        assert rep.max_triangle_violation == pytest.approx(1.0)
        assert rep.worst_triple == (0, 2, 1)

    def test_generated_families_pass_tight(self):
        for family, extra in (("line", {}), ("euclidean", {"d": 3}), ("random-metric", {})):
            inst = generate(GeneratorSpec(family=family, n=16, seed=11, **extra))
            assert validate_metric(inst, tol=1e-9).passed, family

    def test_closure_is_exact_fixed_point(self):
        # the random-metric repair iterates to a float fixed point, so it
        # passes with zero tolerance
        assert validate_metric(random_metric(12, 3), tol=0.0).passed

    @settings(max_examples=300, deadline=None)
    @given(distance_matrices(), st.sampled_from([None, 0.0, 1e-3]))
    def test_report_equals_the_loop_over_every_triple(self, d, tol):
        assert_matches_loop(Instance(d), tol)

    def test_several_blocks_symmetric(self):
        # n > 256 splits the min-plus pass into more than one row block
        inst = generate(GeneratorSpec(family="euclidean", n=300, d=2, seed=4))
        assert assert_matches_loop(inst, tol=0.0).passed

    def test_several_blocks_asymmetric(self):
        d = np.random.default_rng(8).uniform(0.0, 1.0, size=(290, 290))
        np.fill_diagonal(d, 0.0)
        rep = assert_matches_loop(Instance(d))
        assert rep.symmetry_violations and not rep.passed

    def test_several_blocks_many_tied_rows(self):
        # integer weights 0..3 tie on thousands of worst pairs, so the
        # triple is recovered over more than one block of candidate rows
        d = np.random.default_rng(9).integers(0, 4, size=(300, 300)).astype(float)
        np.fill_diagonal(d, 0.0)
        rep = assert_matches_loop(Instance(d))
        assert rep.max_triangle_violation == 3.0

    def test_several_blocks_injected_violation(self):
        inst = generate(GeneratorSpec(family="line", n=270, seed=6))
        d = inst.dist.copy()
        i, j = 31, 262
        d[i, j] = d[j, i] = (d[i] + d[j])[[k for k in range(270) if k not in (i, j)]].min() + 0.5
        rep = assert_matches_loop(Instance(d))
        assert not rep.passed
        assert rep.worst_triple[:2] == (i, j)

    def test_all_zero_matrix_has_zero_tolerance_and_passes(self):
        rep = assert_matches_loop(Instance(np.zeros((5, 5))))
        assert rep.tol == 0.0
        assert rep.passed
        assert load_instance("maxtsp v1 3 matrix\n0 0 0\n0 0 0\n0 0 0\n").n == 3

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_tolerance_scales_with_the_data(self, scale):
        inst = Instance(FOUR_POINT_VIOLATION * scale)
        rep = validate_metric(inst)
        assert rep.tol == pytest.approx(3e-9 * scale)
        assert not rep.passed
        assert rep.max_triangle_violation == pytest.approx(scale)
        with pytest.raises(ValueError, match="triangle"):
            load_instance(dump_instance(inst))

    @pytest.mark.parametrize("tol", [math.nan, -1.0, -1e-300])
    def test_nan_or_negative_tol_raises(self, tol):
        text = dump_instance(equilateral(4))
        with pytest.raises(ValueError, match="non-negative"):
            validate_metric(equilateral(4), tol=tol)
        with pytest.raises(ValueError, match="non-negative"):
            parse_instance(text, tol=tol)
        with pytest.raises(ValueError, match="non-negative"):
            load_instance(text, tol=tol)

    def test_memory_peak_stays_near_one_matrix(self):
        # the check holds one n x n matrix of gaps plus block-sized
        # buffers; this bound keeps the validate workload's peak RSS flat
        n = 600
        inst = generate(GeneratorSpec(family="euclidean", n=n, d=2, seed=5))
        tracemalloc.start()
        try:
            validate_metric(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * n * n * 8

    def test_asymmetric_memory_peak_stays_near_one_matrix(self):
        # every pair of a uniform matrix is asymmetric; the report keeps
        # ten of them and a count, not a list of all 180k
        n = 600
        d = np.random.default_rng(5).uniform(1.0, 2.0, size=(n, n))
        np.fill_diagonal(d, 0.0)
        inst = Instance(d)
        tracemalloc.start()
        try:
            rep = validate_metric(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.symmetry_violation_count == n * (n - 1) // 2
        assert peak <= 3.5 * n * n * 8

    @pytest.mark.parametrize("pairs", [0, 1, 9, 10, 11, 500])
    def test_symmetry_report_keeps_the_first_ten_and_a_count(self, pairs):
        n = 40
        rng = np.random.default_rng(pairs)
        d = random_metric(n, pairs).dist.copy()
        upper = np.transpose(np.triu_indices(n, 1))
        for i, j in upper[rng.choice(len(upper), size=pairs, replace=False)]:
            # half the pairs skewed below the diagonal
            if rng.integers(2):
                i, j = j, i
            d[i, j] += rng.uniform(0.01, 0.1)
        rep = validate_metric(Instance(d))
        every = loop_symmetry_pairs(d, rep.tol)
        assert rep.symmetry_violation_count == len(every) == pairs
        assert rep.symmetry_violations == every[:10]
        lines = rep.summary().splitlines()
        listed = [ln for ln in lines if "symmetry violation at" in ln]
        assert listed == [
            f"  symmetry violation at ({i}, {j}): |d_ij - d_ji| = {gap!r}"
            for i, j, gap in every[:10]
        ]
        more = [ln for ln in lines if ln.endswith(" more")]
        assert more == ([f"  ... {pairs - 10} more"] if pairs > 10 else [])
        if pairs:
            i, j, gap = every[0]
            assert metric_violation(rep) == (
                f"symmetry violation at pair ({i}, {j}), magnitude {gap!r}"
            )

    def test_small_matrix_buffers_fit_the_matrix(self):
        # every solve request validates its instance, at n of a few dozen;
        # block buffers of the full block size would cost about 0.6 MB there
        inst = generate(GeneratorSpec(family="euclidean", n=17, d=2, seed=5))
        tracemalloc.start()
        try:
            validate_metric(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 1024


class TestGenerate:
    def test_line_sets_dim_hint(self):
        inst = generate(GeneratorSpec(family="line", n=10, seed=1))
        assert inst.dim_hint == 1.0
        assert inst.n == 10
        assert all(len(p) == 1 for p in inst.points)

    def test_euclidean_dim_hint_formula(self):
        for d in (1, 2, 3):
            inst = generate(GeneratorSpec(family="euclidean", n=8, d=d, seed=0))
            assert inst.dim_hint == math.ceil(2.3 * d + 1)

    def test_random_metric_leaves_hint_unset(self):
        assert random_metric(8, 0).dim_hint is None

    def test_deterministic(self):
        spec = GeneratorSpec(family="euclidean", n=12, d=2, seed=99)
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.dist, b.dist)

    def test_different_seeds_differ(self):
        a = generate(GeneratorSpec(family="line", n=12, seed=0))
        b = generate(GeneratorSpec(family="line", n=12, seed=1))
        assert not np.array_equal(a.dist, b.dist)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            GeneratorSpec(family="grid", n=5, seed=0)
        with pytest.raises(ValueError):
            GeneratorSpec(family="line", n=2, seed=0)
        with pytest.raises(ValueError):
            GeneratorSpec(family="euclidean", n=5, seed=0)
        with pytest.raises(ValueError):
            GeneratorSpec(family="line", n=5, seed=0, scale=0.0)


class TestEstimateDoubling:
    def test_all_zero_distances(self):
        assert estimate_doubling(Instance(np.zeros((5, 5)))) == 0.0

    @pytest.mark.parametrize("dist", [np.zeros((5, 5)), np.ones((5, 5)) - np.eye(5)])
    def test_levels_below_one_raise(self, dist):
        with pytest.raises(ValueError, match="levels"):
            estimate_doubling(Instance(dist), levels=0)

    def test_equilateral_is_log_n(self):
        # the full-radius ball holds everything and every half-radius ball
        # only its own center
        assert estimate_doubling(equilateral(8)) == pytest.approx(3.0)

    def test_line_stays_low(self):
        for seed in (0, 1, 2):
            inst = generate(GeneratorSpec(family="line", n=50, seed=seed))
            assert estimate_doubling(inst, levels=4) <= 2.0 + 0.7


class TestFileFormat:
    def test_matrix_example(self):
        text = "maxtsp v1 3 matrix\n0 1 1\n1 0 1\n1 1 0\n"
        inst = load_instance(text)
        assert inst.n == 3
        assert np.array_equal(inst.dist, np.ones((3, 3)) - np.eye(3))

    def test_points_example(self):
        text = "maxtsp v1 3 points\nnorm euclidean dim 1\n0\n1\n2\n"
        inst = load_instance(text)
        assert inst.dist[0, 2] == 2.0

    def test_symmetry_error_names_pair(self):
        text = "maxtsp v1 3 matrix\n0 1 1\n2 0 1\n1 1 0\n"
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            load_instance(text)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            load_instance("maxtsp v1 2 matrix\n0 1\n1 0\n")

    def test_parse_failures(self):
        for text in (
            "",
            "maxtsp v2 3 matrix\n",
            "maxtsp v1 3 grid\n",
            "maxtsp v1 3 matrix\n0 1\n1 0\n",
            "maxtsp v1 3 matrix\n0 1 x\n1 0 1\nx 1 0\n",
            "maxtsp v1 3 points\nnorm euclidean dim 2\n0 0\n1\n2 2\n",
        ):
            with pytest.raises(ValueError):
                load_instance(text)

    def test_triangle_failure_rejected_at_load(self):
        text = "maxtsp v1 3 matrix\n0 1 3\n1 0 1\n3 1 0\n"
        with pytest.raises(ValueError, match="triangle"):
            load_instance(text)

    def test_matrix_round_trip_bit_exact(self):
        inst = random_metric(9, 5)
        again = load_instance(dump_instance(inst))
        assert np.array_equal(inst.dist, again.dist)

    def test_points_round_trip_bit_exact(self):
        inst = generate(GeneratorSpec(family="euclidean", n=14, d=3, seed=2))
        again = load_instance(dump_instance(inst))
        assert np.array_equal(inst.dist, again.dist)
        assert again.points == inst.points

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=3, max_value=12), st.integers(min_value=0, max_value=10_000))
    def test_round_trip_property(self, n, seed):
        inst = random_metric(n, seed)
        assert np.array_equal(load_instance(dump_instance(inst)).dist, inst.dist)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=3, max_value=10),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from(["euclidean", "manhattan", "chebyshev"]),
    )
    def test_points_mode_any_norm(self, n, d, seed, norm):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-5, 5, size=(n, d))
        inst = Instance(pairwise_distances(pts, norm), points=pts, norm=norm)
        again = load_instance(dump_instance(inst))
        assert again.norm == norm
        assert np.array_equal(again.dist, inst.dist)
