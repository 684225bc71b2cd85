"""Instance model, validation, generation, file I/O."""

import concurrent.futures
import io
import math
import os
import re
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxtsp import (
    GeneratorSpec,
    Instance,
    dump_instance,
    generate,
    load_instance,
    validate_metric,
)
from maxtsp import metricspace
from maxtsp.cli import main
from maxtsp.metricspace import NORM_TAGS, parse_instance, pairwise_distances

from conftest import equilateral, random_metric
from oracles import (
    floyd_warshall_closure, min_plus_square_reference, pairwise_distances_whole,
    parse_instance_reference,
)


# d[0,3] = 3 > d[0,1] + d[1,3] = 2: a violation of a third of the longest
# distance, at any scale
FOUR_POINT_VIOLATION = np.array(
    [[0, 1, 1, 3], [1, 0, 1, 1], [1, 1, 0, 1], [3, 1, 1, 0]], dtype=float
)


def loop_triangle_check(d):
    """The per-row loop over every triple: (max violation, (i, j, k)).

    Reference for validate_metric: row i holds gap[j, k] = d[i, j] -
    (d[i, k] + d[k, j]); argmax in row-major order within one row (the
    first j, then the smallest k), strict > across rows.
    """
    n = d.shape[0]
    worst, triple = -math.inf, None
    for i in range(n):
        gap = d[i][:, None] - (d[i][None, :] + d.T)
        j, k = divmod(int(np.argmax(gap)), n)
        if gap[j, k] > worst:
            worst, triple = float(gap[j, k]), (i, j, k)
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
    assert rep.passed == (worst <= rep.tol)
    if tol is None:
        assert repr(rep.tol) == repr(1e-9 * float(inst.dist.max()))
    return rep


@st.composite
def distance_matrices(draw):
    """Symmetric non-negative matrices with a zero diagonal: uniform or
    small integer weights (many ties), distances between duplicated grid
    points, or all zeros; with or without off-diagonal -0.0 entries;
    scaled by 1e-12 to 1e12."""
    n = draw(st.integers(min_value=3, max_value=40))
    kind = draw(st.sampled_from(["uniform", "small-int", "duplicate-points", "zero"]))
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
    d = np.minimum(d, d.T) * scale
    if signed_zeros:
        d[d == 0.0] = -0.0
    np.fill_diagonal(d, 0.0)
    return d


@st.composite
def raw_metrics(draw):
    """Raw matrices as the random-metric generator closes them: exactly
    symmetric with a zero diagonal, off-diagonal entries uniform, small
    integers, exponential, or uniform with a share of zeros; scaled by
    1e-12 to 1e12."""
    n = draw(st.integers(min_value=3, max_value=40))
    kind = draw(st.sampled_from(["uniform", "small-int", "exponential", "zeros"]))
    scale = 10.0 ** draw(st.integers(min_value=-12, max_value=12))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if kind == "small-int":
        raw = rng.integers(0, 5, size=(n, n)).astype(float)
    elif kind == "exponential":
        raw = rng.exponential(size=(n, n))
    else:
        raw = rng.uniform(0.1, 1.0, size=(n, n))
    raw = (raw + raw.T) / 2.0 * scale
    if kind == "zeros":
        zero = rng.uniform(size=(n, n)) < 0.2
        raw[zero | zero.T] = 0.0
    np.fill_diagonal(raw, 0.0)
    return raw


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

    def test_takes_the_matrix_alone(self):
        inst = equilateral(4)
        assert inst.points is None and inst.norm is None
        assert Instance.__slots__ == ("_dist", "_max", "points", "norm")
        with pytest.raises(TypeError):
            Instance(inst.dist, points=[(0.0,), (1.0,), (2.0,), (3.0,)])

    def test_rejects_a_scale_whose_tour_weight_overflows(self):
        with pytest.raises(ValueError, match="distances too large"):
            Instance((np.ones((5, 5)) - np.eye(5)) * 1e308)
        Instance((np.ones((5, 5)) - np.eye(5)) * (sys.float_info.max / 5))

    @pytest.mark.parametrize("pairs", [0, 1, 9, 10, 11, 500])
    def test_rejects_asymmetry_naming_the_first_pair(self, pairs):
        n = 40
        rng = np.random.default_rng(pairs)
        d = random_metric(n, pairs).dist.copy()
        upper = np.transpose(np.triu_indices(n, 1))
        for i, j in upper[rng.choice(len(upper), size=pairs, replace=False)]:
            # one ulp up, half the pairs skewed below the diagonal
            if rng.integers(2):
                i, j = j, i
            d[i, j] = np.nextafter(d[i, j], math.inf)
        every = loop_symmetry_pairs(d, 0.0)
        assert len(every) == pairs
        if not pairs:
            assert np.array_equal(Instance(d).dist, d)
            return
        i, j, _ = every[0]
        with pytest.raises(ValueError, match=rf"symmetry violation at pair \({i}, {j}\): "):
            Instance(d)

    def test_symmetry_message_prints_plain_floats(self):
        d = np.ones((3, 3)) - np.eye(3)
        d[1, 0] = 1.5
        with pytest.raises(ValueError) as exc:
            Instance(d)
        assert str(exc.value) == (
            "symmetry violation at pair (0, 1): dist[0][1]=1.0 vs dist[1][0]=1.5"
        )

    def test_signed_zeros_count_as_symmetric(self):
        d = np.array([[0.0, -0.0, 1.0], [0.0, -0.0, 1.0], [1.0, 1.0, 0.0]])
        assert validate_metric(Instance(d), tol=0.0).passed

    def test_points_share_one_finite_coordinate_count(self):
        for points in ([(0.0,), (1.0, 2.0), (3.0,)], [(), (), ()], []):
            with pytest.raises(ValueError, match="one coordinate count"):
                Instance.from_points(points, "euclidean")
        with pytest.raises(ValueError, match="non-finite"):
            Instance.from_points([(0.0,), (math.nan,), (3.0,)], "euclidean")

    def test_from_points_rejects_an_unknown_norm(self):
        with pytest.raises(ValueError, match="unknown norm tag 'taxicab'"):
            Instance.from_points([(0.0,), (1.0,), (3.0,)], "taxicab")


class TestValidateMetric:
    def test_valid_passes(self):
        rep = validate_metric(equilateral(5))
        assert rep.passed
        assert rep.max_triangle_violation <= 0.0
        assert "  symmetry: ok" in rep.summary().splitlines()

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
        # n > 90 splits the min-plus pass into more than one row block
        inst = generate(GeneratorSpec(family="euclidean", n=300, d=2, seed=4))
        assert assert_matches_loop(inst, tol=0.0).passed

    def test_several_blocks_many_tied_rows(self):
        # integer weights 0..3 tie on thousands of worst pairs in more
        # rows than one block of the min-plus pass holds; the witness is
        # still the first of them
        n = 300
        d = np.random.default_rng(9).integers(0, 4, size=(n, n)).astype(float)
        d = np.minimum(d, d.T)
        np.fill_diagonal(d, 0.0)
        rep = assert_matches_loop(Instance(d))
        assert rep.max_triangle_violation == 3.0
        tied = np.zeros((n, n), dtype=bool)
        for k in range(n):
            tied |= d - (d[:, k : k + 1] + d[k : k + 1, :]) == 3.0
        assert tied.any(axis=1).sum() > metricspace._BLOCK_ENTRIES // n

    def test_tied_pairs_name_the_first_pair(self):
        # two pairs violate by 1.0 each; the first in row-major order wins,
        # with the smallest k for it
        d = np.ones((5, 5))
        d[0, 3] = d[3, 0] = d[1, 4] = d[4, 1] = 3.0
        np.fill_diagonal(d, 0.0)
        rep = assert_matches_loop(Instance(d))
        assert rep.worst_triple == (0, 3, 1)
        assert rep.max_triangle_violation == 1.0

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
    @pytest.mark.parametrize("family, d", (("line", None), ("euclidean", 1), ("euclidean", 3)))
    def test_points_families_derive_the_matrix(self, family, d):
        inst = generate(GeneratorSpec(family=family, n=10, d=d, seed=1))
        assert inst.n == 10 and inst.norm == "euclidean"
        assert all(len(p) == (d or 1) for p in inst.points)
        assert np.array_equal(inst.dist, pairwise_distances(inst.points, inst.norm))
        again = load_instance(dump_instance(inst))
        assert again.points == inst.points
        assert np.array_equal(again.dist, inst.dist)

    @settings(max_examples=150, deadline=None)
    @given(raw_metrics())
    def test_closure_equals_floyd_warshall(self, raw):
        closed = metricspace._closure(raw)
        assert closed.tobytes() == floyd_warshall_closure(raw).tobytes()

    def test_closure_over_several_blocks(self):
        # n > 90 squares in more than one row block
        raw = np.random.default_rng(8).exponential(size=(300, 300))
        raw = (raw + raw.T) / 2.0
        np.fill_diagonal(raw, 0.0)
        closed = metricspace._closure(raw)
        assert closed.tobytes() == floyd_warshall_closure(raw).tobytes()
        assert validate_metric(Instance(closed), tol=0.0).passed

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
        for scale in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive finite"):
                GeneratorSpec(family="line", n=5, seed=0, scale=scale)


def symmetric_matrix(n, kind, seed=0):
    """uniform weights; integers 0..3 with every zero off the diagonal
    signed (many ties, -0.0 and 0.0 mixed); or all zeros."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        d = rng.uniform(size=(n, n))
    elif kind == "ties-signed-zeros":
        d = rng.integers(0, 4, size=(n, n)).astype(float)
        d[d == 0.0] = -0.0
    else:
        d = np.zeros((n, n))
    d = np.minimum(d, d.T)
    np.fill_diagonal(d, 0.0)
    return d


def pass_shape(n):
    """(row blocks, workers allowed) of the min-plus pass at size n."""
    blocks = -(-n // max(1, metricspace._ROW_BLOCK_ENTRIES // n))
    return blocks, min(blocks, max(1, n * n // metricspace._BLOCK_ENTRIES))


class TestReferenceKernel:
    """The chunked min-plus pass equals the add-then-minimum loop over one
    k at a time (min_plus_square_reference) byte for byte."""

    SIZES = [3, 4, 5, 17, 24, 40, 41, 89, 90, 91, 92, 181, 256, 257, 362, 363, 541, 601]

    @pytest.mark.parametrize("kind", ["uniform", "ties-signed-zeros", "all-zero"])
    def test_sizes_across_block_boundaries(self, monkeypatch, kind):
        # 541 ends in a one-row, one-column block; 363 is the first size
        # with two workers
        for n in self.SIZES:
            d = symmetric_matrix(n, kind, seed=n)
            want = min_plus_square_reference(d).tobytes()
            for cpus in (1, 2, 3, 7, 64):
                monkeypatch.setattr(metricspace, "_cpus", lambda: cpus)
                assert metricspace._min_plus_square(d).tobytes() == want, (n, cpus)
                if pass_shape(n)[1] == 1:
                    break

    @pytest.mark.parametrize("row_entries, chunk_entries", [(7, 50), (100, 300), (1000, 3000), (3000, 2000)])
    @pytest.mark.parametrize("kind", ["uniform", "ties-signed-zeros"])
    def test_ragged_chunks_and_blocks(self, monkeypatch, kind, row_entries, chunk_entries):
        # small budgets cut one-row blocks, chunks of one k and short last
        # chunks, on three workers where the sizes allow them
        monkeypatch.setattr(metricspace, "_cpus", lambda: 3)
        for n in (3, 9, 17, 25, 33, 41, 89, 91, 130):
            d = symmetric_matrix(n, kind, seed=n)
            want = min_plus_square_reference(d).tobytes()
            with mock.patch.multiple(metricspace, _ROW_BLOCK_ENTRIES=row_entries,
                                     _BLOCK_ENTRIES=chunk_entries):
                assert metricspace._min_plus_square(d).tobytes() == want, n

    @settings(max_examples=150, deadline=None)
    @given(distance_matrices(), st.booleans(), st.sampled_from([None, (50, 200), (7, 30)]))
    def test_mirror_pairs_with_zeros_of_either_sign(self, d, flip, budgets):
        # an instance may hold 0.0 on one side of a pair and -0.0 on the
        # other.  Every entry on or above the diagonal is still computed
        # from d[i, k] + d[k, j] in k order, so it keeps its bytes; one
        # below it, mirrored from another block, can differ from the
        # reference only in the sign of a zero, which the report never
        # shows
        if flip:
            zero = d == 0.0
            d[np.triu(zero, k=1)] = 0.0
            d[np.tril(zero, k=-1)] = -0.0
        want = min_plus_square_reference(d)
        with mock.patch.object(metricspace, "_min_plus_square", min_plus_square_reference):
            report = validate_metric(Instance(d))
        row_entries, chunk_entries = budgets or (metricspace._ROW_BLOCK_ENTRIES,
                                                 metricspace._BLOCK_ENTRIES)
        with mock.patch.multiple(metricspace, _ROW_BLOCK_ENTRIES=row_entries,
                                 _BLOCK_ENTRIES=chunk_entries):
            got = metricspace._min_plus_square(d)
            assert repr(validate_metric(Instance(d))) == repr(report)
        upper = np.triu_indices(len(d))
        assert got[upper].tobytes() == want[upper].tobytes()
        assert np.array_equal(got, want)
        if not flip or budgets is None:
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, budgets", [
        (24, None), (400, None), (600, None), (24, (100, 300)), (130, (1000, 3000)),
    ])
    def test_generated_random_metric_matrix(self, monkeypatch, n, budgets):
        # the closure squares with the kernel until no entry drops; so does
        # the reference closure, with the reference kernel
        monkeypatch.setattr(metricspace, "_min_plus_square", min_plus_square_reference)
        want = dump_instance(generate(GeneratorSpec(family="random-metric", n=n, seed=7)))
        monkeypatch.undo()
        if budgets:
            monkeypatch.setattr(metricspace, "_ROW_BLOCK_ENTRIES", budgets[0])
            monkeypatch.setattr(metricspace, "_BLOCK_ENTRIES", budgets[1])
        for cpus in (1, 2):
            monkeypatch.setattr(metricspace, "_cpus", lambda: cpus)
            got = generate(GeneratorSpec(family="random-metric", n=n, seed=7))
            assert dump_instance(got) == want


class TestWorkerCount:
    """The min-plus pass gives the same bits on every number of CPUs."""

    @pytest.fixture
    def pools(self, monkeypatch):
        # records the worker count of every thread pool the pass starts
        started = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, workers):
                started.append(workers)
                super().__init__(workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        return started

    @pytest.mark.parametrize("kind", ["uniform", "ties-signed-zeros", "all-zero"])
    @pytest.mark.parametrize("n", [256, 257, 300, 363, 601])
    def test_min_plus_square_is_bit_identical(self, monkeypatch, pools, n, kind):
        # one worker per CPU, but no more than blocks or than n^2 /
        # _BLOCK_ENTRIES: 601 has 47 blocks and at most five workers
        d = symmetric_matrix(n, kind)
        blocks, allowed = pass_shape(n)
        results = []
        for cpus in (1, 2, 3, 7):
            monkeypatch.setattr(metricspace, "_cpus", lambda: cpus)
            results.append(metricspace._min_plus_square(d).tobytes())
        assert results[1:] == results[:1] * 3
        assert pools == [min(cpus, allowed) for cpus in (2, 3, 7) if min(cpus, allowed) > 1]

    def test_more_workers_than_cpus_in_small_blocks(self, monkeypatch, pools):
        # 16-row blocks: twelve of them, and room for eleven workers, so
        # seven workers all run, and a short switch interval interleaves
        # them often
        monkeypatch.setattr(metricspace, "_ROW_BLOCK_ENTRIES", 16 * 180)
        monkeypatch.setattr(metricspace, "_BLOCK_ENTRIES", 16 * 180)
        d = symmetric_matrix(180, "ties-signed-zeros", seed=3)
        monkeypatch.setattr(metricspace, "_cpus", lambda: 1)
        expected = metricspace._min_plus_square(d).tobytes()
        monkeypatch.setattr(metricspace, "_cpus", lambda: 7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                assert metricspace._min_plus_square(d).tobytes() == expected
        finally:
            sys.setswitchinterval(interval)
        assert pools == [7] * 5

    def test_reports_and_generated_matrix_match(self, monkeypatch):
        # n = 400 runs on two workers when two CPUs are allowed
        d = symmetric_matrix(400, "ties-signed-zeros", seed=9)
        seen = set()
        for cpus in (1, 2, 3, 7):
            monkeypatch.setattr(metricspace, "_cpus", lambda: cpus)
            rep = validate_metric(Instance(d))
            gen = generate(GeneratorSpec(family="random-metric", n=400, seed=2))
            seen.add((repr(rep.max_triangle_violation), rep.worst_triple, rep.passed,
                      gen.dist.tobytes()))
        assert len(seen) == 1

    def test_memory_peak_on_64_cpus(self, monkeypatch):
        # a many-core host runs n = 600 on five workers, not one per each
        # of its 47 blocks: their chunk buffers of at most 2^16 entries
        # stay within one matrix, and the peak under the same bound
        monkeypatch.setattr(metricspace, "_cpus", lambda: 64)
        n = 600
        inst = generate(GeneratorSpec(family="euclidean", n=n, d=2, seed=5))
        tracemalloc.start()
        try:
            validate_metric(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * n * n * 8

    def test_memory_peak_on_two_cpus_at_n_300(self, monkeypatch):
        # n^2 is under two chunk buffers, so the pass keeps one worker:
        # the gaps, one chunk buffer of 8 x 27 x 300 and its 27 x 300
        # accumulator.  Under numpy's default ufunc buffer each broadcast
        # add would also allocate 2 x 64 KiB of iterator buffers.  The
        # warm-up call loads whatever the pass imports, which would
        # otherwise count once per process
        monkeypatch.setattr(metricspace, "_cpus", lambda: 2)
        n = 300
        inst = generate(GeneratorSpec(family="euclidean", n=n, d=2, seed=5))
        validate_metric(inst)
        tracemalloc.start()
        try:
            validate_metric(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * n * n * 8

    def test_one_worker_starts_no_thread(self, monkeypatch, tmp_path, capsys):
        # every n below 363 runs on one worker, in the calling thread:
        # 17 and 24 in one block, 256 and 362 in several
        def no_threads(*args, **kwargs):
            raise AssertionError("a one-worker pass started a thread pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_threads)
        monkeypatch.setattr(metricspace, "_cpus", lambda: 8)
        for n in (17, 24, 256, 362):
            for family, d in (("euclidean", 2), ("random-metric", None)):
                inst = generate(GeneratorSpec(family=family, n=n, d=d, seed=1))
                assert validate_metric(inst).passed
        path = tmp_path / "inst.txt"
        for n, flags in ((24, ["--five-sixths"]), (24, ["--algoA", "0.5"]), (17, ["--exact"])):
            inst = generate(GeneratorSpec(family="random-metric", n=n, seed=4))
            path.write_text(dump_instance(inst), encoding="utf-8")
            assert main(["solve", str(path), *flags]) == 0
        assert main(["validate", str(path)]) == 0
        capsys.readouterr()
        with pytest.raises(AssertionError, match="one-worker"):
            validate_metric(generate(GeneratorSpec(family="line", n=363, seed=1)))

    def test_one_worker_callers_never_load_the_pool(self):
        # the pool's module loads logging: about 0.6 MB of resident memory
        # that a process solving only small instances does not need
        src = os.path.dirname(os.path.dirname(metricspace.__file__))
        code = (
            "import sys, maxtsp\n"
            "inst = maxtsp.generate(maxtsp.GeneratorSpec('random-metric', 362, seed=1))\n"
            "assert maxtsp.validate_metric(inst).passed\n"
            "maxtsp.exact_dp(maxtsp.generate(maxtsp.GeneratorSpec('line', 17, seed=1)))\n"
            "print('concurrent.futures' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             encoding="utf-8", env=env, check=True)
        assert out.stdout.strip() == "False"


class TestUnbufferedScope:
    """The min-plus blocks of at least 40 columns run with numpy's ufunc
    buffer at 16 entries, narrower ones with a buffer of one k's sums, and
    all leave the caller's size as it was, whether they return or raise."""

    @pytest.mark.parametrize("cpus, n", [(1, 40), (1, 300), (2, 300)])
    def test_validate_keeps_the_caller_size(self, monkeypatch, caller_bufsize, cpus, n):
        monkeypatch.setattr(metricspace, "_cpus", lambda: cpus)
        validate_metric(Instance(symmetric_matrix(n, "uniform")))
        assert np.getbufsize() == caller_bufsize

    def test_generate_keeps_the_caller_size(self, caller_bufsize):
        generate(GeneratorSpec(family="random-metric", n=300, seed=1))
        assert np.getbufsize() == caller_bufsize

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_raising_block_keeps_the_caller_size(self, monkeypatch, caller_bufsize, cpus):
        def boom(*args, **kwargs):
            raise RuntimeError("block failed")

        d = symmetric_matrix(400, "uniform")
        monkeypatch.setattr(metricspace, "_cpus", lambda: cpus)
        monkeypatch.setattr(np, "add", boom)
        with pytest.raises(RuntimeError, match="block failed"):
            metricspace._min_plus_square(d)
        assert np.getbufsize() == caller_bufsize

    def test_only_wide_blocks_enter_the_scope(self, monkeypatch, caller_bufsize):
        # blocks of 30 rows at n = 100 are 100, 70, 40 and 10 columns wide:
        # the first three run unbuffered, the last with a buffer of one
        # k's 10 x 10 sums rounded up to 112, and the square, in chunks of
        # 2, 2, 5 and 60 k values, is the same bytes as in one block, under
        # every caller size
        d = symmetric_matrix(100, "ties-signed-zeros", seed=2)
        whole = metricspace._min_plus_square(d).tobytes()
        entered = []
        scope = metricspace._unbuffered
        monkeypatch.setattr(metricspace, "_unbuffered",
                            lambda size=16: entered.append(size) or scope(size))
        monkeypatch.setattr(metricspace, "_ROW_BLOCK_ENTRIES", 3000)
        monkeypatch.setattr(metricspace, "_BLOCK_ENTRIES", 6000)
        monkeypatch.setattr(metricspace, "_cpus", lambda: 1)
        for size in (16, 8192, 1 << 20):
            np.setbufsize(size)
            assert metricspace._min_plus_square(d).tobytes() == whole
        assert entered == [16, 16, 16, 112] * 3
        entered.clear()
        metricspace._min_plus_square(d[:24, :24])
        assert entered == [576]

    @pytest.mark.parametrize("kind", ["uniform", "ties-signed-zeros"])
    def test_square_is_bit_identical_under_any_caller_size(self, caller_bufsize, kind):
        d = symmetric_matrix(300, kind, seed=4)
        results = []
        for size in (16, 8192, 1 << 20):
            np.setbufsize(size)
            results.append(metricspace._min_plus_square(d).tobytes())
        assert results[1:] == results[:1] * 2


class TestPairwiseDistances:
    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=30),
        dim=st.integers(min_value=1, max_value=13),
        norm=st.sampled_from(metricspace.NORM_TAGS),
        scale=st.sampled_from([1e-12, 1e-6, 1.0, 1e6, 1e12, 1e308]),
        duplicates=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        entries=st.sampled_from([1, 7, 64, 1000, 1 << 16]),
    )
    def test_blocks_match_the_whole_array_formula(
        self, n, dim, norm, scale, duplicates, seed, entries
    ):
        # small block sizes give one row per block, or a few; at 1e308 the
        # differences, sums and squares overflow, and distances come out inf
        rng = np.random.default_rng(seed)
        if duplicates:
            pts = rng.integers(-2, 3, size=(n, dim)) * (0.85 * scale)
        else:
            pts = rng.uniform(-1.7, 1.7, size=(n, dim)) * scale
        with mock.patch.object(metricspace, "_BLOCK_ENTRIES", entries):
            got = pairwise_distances(pts, norm)
        assert got.tobytes() == pairwise_distances_whole(pts, norm).tobytes()

    def test_from_points_peak_stays_near_two_matrices(self):
        # the matrix and Instance's copy of it; the n x n x d differences
        # (25 matrices here) exist one row block at a time, and the block
        # buffer is gone before the symmetrized copy is made
        n, dim = 400, 12
        pts = np.random.default_rng(3).uniform(size=(n, dim))
        tracemalloc.start()
        try:
            Instance.from_points(pts, "chebyshev")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n * n * 8


# Ways to write a float, each read by float() as that float: repr, 17
# digits in exponent form, a plus sign, upper case, an underscore between
# two digits and Arabic-Indic digits.  numpy's C reader takes the first
# four and rejects the last two where they change the text, which the
# per-token loop then reads.
ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")
SPELLINGS = (
    repr,
    lambda x: f"{x:.17e}",
    lambda x: "+" + repr(x),
    lambda x: repr(x).upper(),
    lambda x: re.sub(r"(?<=\d)(?=\d)", "_", repr(x), count=1),
    lambda x: repr(x).translate(ARABIC_INDIC),
)
# tokens float() rejects, and tokens it reads as a non-finite value
BAD_TOKENS = ("x", "1,5", "--1", "1__0", "_1", "nan(1)", "0x10", "1e", "1d5", "\u0661x", "\x00")
NON_FINITE_TOKENS = ("inf", "-inf", "+Infinity", "nan", "-nan", "NaN", "1e999")
# between tokens: whitespace to both readers; \x1c also ends a line
SEPARATORS = (" ", "  ", "\t", "\xa0", "\u3000", "\x1f", "\x1c")


@st.composite
def instance_texts(draw):
    """Matrix and points files of 3 to 6 vertices, values spelled in
    SPELLINGS forms and joined by SEPARATORS, then edited: tokens made bad
    or non-finite, rows made ragged, rows dropped, extra rows added.  A
    dimension below 1 is left out, since there the two readers differ."""
    n = draw(st.integers(min_value=3, max_value=6))
    finite = st.floats(min_value=-1e300, max_value=1e300)
    if draw(st.booleans()):
        upper = draw(st.lists(finite.map(abs), min_size=n * n, max_size=n * n))
        d = np.triu(np.reshape(upper, (n, n)), 1)
        rows = (d + d.T).tolist()
        head = [f"maxtsp v1 {n} matrix"]
    else:
        dim = draw(st.integers(min_value=1, max_value=3))
        rows = draw(st.lists(st.lists(finite, min_size=dim, max_size=dim), min_size=n, max_size=n))
        head = [f"maxtsp v1 {n} points", f"norm {draw(st.sampled_from(NORM_TAGS))} dim {dim}"]
    # each file draws its tokens from one or two spellings and separators,
    # after a run of rows in repr form
    spellings = st.sampled_from(draw(st.lists(st.sampled_from(SPELLINGS), min_size=1, max_size=2)))
    separators = st.sampled_from(draw(st.lists(st.sampled_from(SEPARATORS), min_size=1, max_size=2)))
    plain = draw(st.integers(min_value=0, max_value=n))
    body = [[(repr if i < plain else draw(spellings))(x) for x in row] for i, row in enumerate(rows)]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        edit = draw(st.sampled_from(("bad", "non-finite", "short", "long", "drop", "extra")))
        if not body:
            break
        i = draw(st.integers(min_value=0, max_value=len(body) - 1))
        j = draw(st.integers(min_value=0, max_value=len(body[i]) - 1))
        if edit == "bad":
            body[i][j] = draw(st.sampled_from(BAD_TOKENS))
        elif edit == "non-finite":
            body[i][j] = draw(st.sampled_from(NON_FINITE_TOKENS))
        elif edit == "short" and len(body[i]) > 1:
            del body[i][j]
        elif edit == "long":
            body[i].insert(j, "1")
        elif edit == "drop":
            del body[i]
        elif edit == "extra":
            body.insert(i, list(body[i]))
    lines = head + [
        "".join(tok + draw(separators) for tok in row[:-1]) + row[-1]
        for row in body if row
    ]
    return "\n".join(lines) + "\n"


def parse_outcome(parse, source):
    """What a reader makes of source: its error text, or the bytes of the
    matrix and points it read."""
    try:
        inst = parse(source)
    except ValueError as exc:
        return str(exc)
    points = None if inst.points is None else np.array(inst.points).tobytes()
    return inst.dist.tobytes(), points, inst.norm


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

    def test_asymmetry_within_tolerance_folds_to_the_minimum(self):
        d = random_metric(9, 4).dist.copy()
        d[2, 7] *= 1 + 1e-12
        d[5, 1] *= 1 - 1e-12
        text = "maxtsp v1 9 matrix\n" + "".join(
            " ".join(repr(float(x)) for x in row) + "\n" for row in d
        )
        assert np.array_equal(load_instance(text).dist, np.minimum(d, d.T))
        with pytest.raises(ValueError, match=r"symmetry violation at pair \(1, 5\)"):
            load_instance(text, tol=0.0)

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

    @pytest.mark.parametrize(
        "rows, message",
        (
            (["0 1 1", "1 0 1 9", "1 1 x"], "bad matrix entry: could not convert string to float: 'x'"),
            (["0 1", "1 0 1", "y 1 0"], "bad matrix entry: could not convert string to float: 'y'"),
            (["0 1 1", "1 0", "1 1 0"], "matrix rows must have 3 entries"),
            (["0 1 1", "1 0 1", "1 1 0 0"], "matrix rows must have 3 entries"),
        ),
    )
    def test_a_bad_entry_is_reported_before_a_row_of_the_wrong_length(self, rows, message):
        text = "maxtsp v1 3 matrix\n" + "\n".join(rows) + "\n"
        with pytest.raises(ValueError) as exc:
            parse_instance(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, message",
        (
            ("maxtsp v1 3 matrix\n0 1 x\n1 0 1\n", "expected 3 matrix rows, got 2"),
            ("maxtsp v1 3 matrix\n0 1\n1 0 1\n1 1 0\n1 1 0\nz\n", "expected 3 matrix rows, got 5"),
            ("maxtsp v1 3 points\nnorm euclidean dim 1\n0\nq\n", "expected 3 point rows, got 2"),
            ("maxtsp v1 3 points\nnorm euclidean dim 2\n0\nq\n1 1\n", "bad coordinate: could not convert string to float: 'q'"),
            ("maxtsp v1 3 points\nnorm euclidean dim 2\n0\n1 1\n1 1\n", "point rows must have 2 coordinates"),
            ("maxtsp v1 3 points\n\n  \n", "points mode needs a 'norm <tag> dim <d>' line"),
            (" \n\t\n", "empty instance file"),
        ),
    )
    def test_a_wrong_row_count_is_reported_first(self, text, message):
        with pytest.raises(ValueError) as exc:
            parse_instance(text)
        assert str(exc.value) == message

    @settings(max_examples=200, deadline=None)
    @given(
        text=st.text(alphabet=" \t01x\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029\u3000", max_size=40),
        chunk=st.sampled_from([1, 2, 3, 5, 1 << 16]),
    )
    def test_lines_are_those_of_splitlines(self, text, chunk):
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        with mock.patch.object(metricspace, "_PARSE_CHUNK", chunk):
            assert list(metricspace._nonblank_lines(text)) == lines
        # a text-mode file gives its lines after newline translation, which
        # its decoder applies across the byte chunks it reads
        fh = io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")
        fh._CHUNK_SIZE = chunk
        assert list(metricspace._nonblank_lines(fh)) == lines

    @settings(max_examples=400, deadline=None)
    @given(text=instance_texts(), entries=st.sampled_from([1, 4, 7, 12, 1 << 13]))
    def test_c_reader_matches_the_float_reader(self, text, entries):
        # small blocks put the first block the C reader rejects after
        # blocks it read, and a 1-entry block holds one row
        def as_file():
            return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")

        with mock.patch.object(metricspace, "_ROW_BLOCK_ENTRIES", entries):
            got = parse_outcome(parse_instance, text)
            assert parse_outcome(parse_instance, as_file()) == got
        assert got == parse_outcome(parse_instance_reference, text)
        assert got == parse_outcome(parse_instance_reference, as_file())

    def test_the_float_loop_takes_over_at_the_rejected_block(self):
        rows = ["0 1 2 3", "1 0 1 2", "2 1 0 1", "3 2 1 0"]
        rows[3] = "3 2 \u0661 0"  # float() reads an Arabic-Indic 1, the C reader does not
        text = "maxtsp v1 4 matrix\n" + "\n".join(rows) + "\n"
        with mock.patch.object(metricspace, "_ROW_BLOCK_ENTRIES", 8), mock.patch.object(
            metricspace, "_float_rows", wraps=metricspace._float_rows
        ) as loop:
            inst = parse_instance(text)
        # blocks of two rows: the second block goes to the loop, counted from row 2
        assert loop.call_args.args[2] == 2
        assert inst.dist.tolist() == [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]]

    @pytest.mark.parametrize(
        "rows, message",
        (
            (["0 1 2 3", "1 0 1 2", "2 1 0 1", "3 2 1 0", "4"], "expected 4 matrix rows, got 5"),
            (["0 1 2 3", "1 0 1 2", "3 2 1_0"], "expected 4 matrix rows, got 3"),
            (["0 1 2 3", "1 0 1 2", "2 1 0 1", "3 2 x 0", "1 1"], "expected 4 matrix rows, got 5"),
            (["0 1 2 3", "1 0 1 2", "2 1 0 1", "3 2 x 0 9"], "bad matrix entry: could not convert string to float: 'x'"),
            (["0 1 2 3", "1 0 1", "2 1 0 1", "3 2 x 0"], "bad matrix entry: could not convert string to float: 'x'"),
            (["0 1 2 3", "1 0 1 2", "2 1 0 1", "3 2 1"], "matrix rows must have 4 entries"),
        ),
    )
    def test_row_counts_include_the_rows_read_in_blocks(self, rows, message):
        text = "maxtsp v1 4 matrix\n" + "\n".join(rows) + "\n"
        with pytest.raises(ValueError) as ref:
            parse_instance_reference(text)
        assert str(ref.value) == message
        # blocks of one row, two rows and all of them
        for entries in (4, 8, 1 << 13):
            with mock.patch.object(metricspace, "_ROW_BLOCK_ENTRIES", entries):
                with pytest.raises(ValueError) as exc:
                    parse_instance(text)
            assert str(exc.value) == message

    @pytest.mark.parametrize("dim", ("0", "-2", "1.5"))
    @pytest.mark.parametrize("body", ("", "0\n1\n2\n", "0\n1\n"))
    def test_a_dimension_below_one_fails_at_its_line(self, dim, body):
        # the rows after it are never read, so neither their count nor
        # their length is reported
        text = f"maxtsp v1 3 points\nnorm euclidean dim {dim}\n" + body
        with pytest.raises(ValueError) as exc:
            parse_instance(text)
        assert str(exc.value) == f"bad coordinate dimension {dim!r}"

    def test_parse_peak_stays_near_two_matrices(self, tmp_path):
        # the matrix and Instance's copy of it; each block the C reader
        # returns holds about 2^13 entries
        n = 600
        inst = Instance(generate(GeneratorSpec(family="euclidean", n=n, d=2, seed=4)).dist)
        path = tmp_path / "matrix.txt"
        path.write_text(dump_instance(inst), encoding="utf-8")
        with open(path, encoding="utf-8") as fh:
            tracemalloc.start()
            try:
                again = parse_instance(fh)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert np.array_equal(again.dist, inst.dist)
        assert peak <= 2.3 * n * n * 8

    def test_every_line_ending_parses(self):
        rows = ["maxtsp v1 3 matrix", "0 1 1", "1 0 1", "1 1 0"]
        for end in ("\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x85", "\u2028"):
            inst = parse_instance(end.join(rows) + end)
            assert np.array_equal(inst.dist, np.ones((3, 3)) - np.eye(3)), repr(end)

    @pytest.mark.parametrize(
        "text",
        ("maxtsp v1 3 matrix\n0 1 inf\n1 0 1\ninf 1 0\n",
         "maxtsp v1 3 matrix\n0 1 nan\n1 0 1\nnan 1 0\n",
         "maxtsp v1 3 points\nnorm euclidean dim 1\ninf\n-1\n0\n",
         "maxtsp v1 3 points\nnorm manhattan dim 1\n0\nnan\n1\n"),
    )
    def test_non_finite_numbers_rejected(self, text):
        with pytest.raises(ValueError, match="non-finite"):
            parse_instance(text)

    def test_non_finite_coordinate_is_named_a_coordinate(self):
        text = "maxtsp v1 3 points\nnorm euclidean dim 1\n0\nnan\n1\n"
        with pytest.raises(ValueError, match="^points contain non-finite coordinates$"):
            parse_instance(text)
        # finite coordinates whose distance overflows fail on the matrix
        text = "maxtsp v1 3 points\nnorm euclidean dim 1\n1e308\n-1e308\n0\n"
        with pytest.raises(ValueError, match="^distance matrix contains non-finite entries$"):
            parse_instance(text)

    @pytest.mark.parametrize("norm", ("euclidean", "manhattan", "chebyshev"))
    def test_overflowing_distances_come_out_inf(self, norm):
        d = pairwise_distances([[1.7e308], [-1.7e308], [0.0]], norm)
        assert d[0, 1] == math.inf and d[2, 2] == 0.0

    def test_large_euclidean_distances_do_not_overflow(self):
        # the squares of these differences overflow; the distances do not
        text = "maxtsp v1 3 points\nnorm euclidean dim 1\n1e200\n-1e200\n0\n"
        inst = load_instance(text)
        assert inst.dist[0, 1] == 2e200 and inst.dist[0, 2] == inst.dist[1, 2] == 1e200

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
        text = f"maxtsp v1 {n} points\nnorm {norm} dim {d}\n" + "".join(
            " ".join(repr(float(c)) for c in p) + "\n" for p in pts
        )
        inst = load_instance(text)
        assert np.array_equal(inst.dist, pairwise_distances(inst.points, inst.norm))
        assert dump_instance(inst) == text
        again = load_instance(dump_instance(inst))
        assert again.norm == norm
        assert np.array_equal(again.dist, inst.dist)
