"""Removable-pool selection, gluing loop, diagnostics, full pipeline."""

import math

import numpy as np
import pytest

from maxtsp import (
    CycleCover,
    GeneratorSpec,
    Instance,
    algorithm_A,
    generate,
    max_weight_cycle_cover,
)
from maxtsp.corealgo import (
    current_selection,
    glue_once,
    gluing_loop,
    make_gluing_state,
    select_E0,
    try_delta_gluing,
)
from maxtsp.cyclecover import cycle_edges, edge_weight

from conftest import block_cover, equilateral, line_instance, random_cover, random_metric
from oracles import cover_edges, r_tau


def path_instance(weights):
    """Metric on a line with the given consecutive gaps (handy exact values)."""
    xs = [0.0]
    for w in weights:
        xs.append(xs[-1] + w)
    n = len(xs)
    d = np.abs(np.subtract.outer(xs, xs))
    return Instance(d)


class TestSelectE0:
    def test_triangle_picks_two_lightest(self):
        # coordinates 0, 1, 3 give edge weights 1, 2, 3
        inst = path_instance([1.0, 2.0])
        cover = CycleCover.from_cycles(inst, [[0, 1, 2]])
        pool = select_E0(inst, cover)
        weights = [edge_weight(inst, e) for e in pool[0]]
        assert weights == [1.0, 2.0]

    def test_tie_break_is_lexicographic(self):
        inst = equilateral(5)
        cover = CycleCover.from_cycles(inst, [[0, 1, 2, 3, 4]])
        assert select_E0(inst, cover) == [[(0, 1), (0, 4)]]

    def test_pool_weight_at_most_two_thirds(self):
        for seed in range(20):
            inst = random_metric(12, seed)
            cover = random_cover(inst, seed)
            pool = select_E0(inst, cover)
            assert [len(edges) for edges in pool] == [2] * cover.k
            total = sum(edge_weight(inst, e) for edges in pool for e in edges)
            assert total <= (2.0 / 3.0) * cover.weight + 1e-9


class TestTryDeltaGluing:
    def test_equilateral_always_feasible(self):
        inst = equilateral(6)
        merged = try_delta_gluing(inst, [0, 1, 2], [3, 4, 5], (0, 1), (3, 4), 0.1)
        assert merged is not None
        assert sorted(merged) == [0, 1, 2, 3, 4, 5]

    def test_merged_cycle_is_simple_and_complete(self):
        inst = random_metric(9, 1)
        c1, c2 = [0, 4, 2, 7], [1, 3, 8, 5, 6]
        merged = try_delta_gluing(inst, c1, c2, (2, 4), (3, 8), 0.9)
        assert merged is not None
        assert len(merged) == len(c1) + len(c2)
        assert sorted(merged) == sorted(c1 + c2)

    def test_rejects_shared_vertices(self):
        inst = equilateral(5)
        with pytest.raises(ValueError, match="share"):
            try_delta_gluing(inst, [0, 1, 2], [2, 3, 4], (0, 1), (2, 3), 0.5)

    def test_rejects_foreign_edge(self):
        inst = equilateral(6)
        with pytest.raises(ValueError, match="not an edge"):
            try_delta_gluing(inst, [0, 1, 2], [3, 4, 5], (0, 3), (3, 4), 0.5)

    def test_rejects_bad_delta(self):
        inst = equilateral(6)
        for delta in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError, match="delta"):
                try_delta_gluing(inst, [0, 1, 2], [3, 4, 5], (0, 1), (3, 4), delta)

    def test_decision_matches_direct_evaluation(self):
        # re-derive the accept/reject decision from scratch on random inputs
        rng = np.random.default_rng(0)
        agree = 0
        for trial in range(120):
            inst = random_metric(int(rng.integers(6, 11)), int(rng.integers(0, 10_000)))
            cover = random_cover(inst, trial, k=2)
            c1, c2 = (list(c) for c in cover.cycles)
            e1 = cycle_edges(c1)[int(rng.integers(0, len(c1)))]
            e2 = cycle_edges(c2)[int(rng.integers(0, len(c2)))]
            delta = float(rng.uniform(0.05, 0.95))
            d = inst.dist
            removed = d[e1[0], e1[1]] + d[e2[0], e2[1]]
            best = max(
                d[e1[0], e2[1]] + d[e2[0], e1[1]],
                d[e1[0], e2[0]] + d[e1[1], e2[1]],
            )
            expected = best >= (1.0 - delta) * removed - 1e-12 * inst.max_dist()
            merged = try_delta_gluing(inst, c1, c2, e1, e2, delta)
            assert (merged is not None) == expected
            if merged is not None:
                # removed edges must actually be gone from the merged cycle
                new_edges = set(cycle_edges(merged))
                assert e1 not in new_edges and e2 not in new_edges
            agree += 1
        assert agree == 120


class TestGluingLoop:
    def test_single_cycle_untouched(self):
        inst = random_metric(7, 3)
        cover = CycleCover.from_cycles(inst, [[0, 1, 2, 3, 4, 5, 6]])
        out = gluing_loop(inst, cover, 0.3)
        assert out.cycles == cover.cycles

    def test_line_64_terminal_count_bound(self):
        # with delta = 0.5 the terminal cycle count can never exceed
        # (2/0.5)^2 / 2 = 8 on a line
        inst = line_instance(64, seed=5)
        cover = block_cover(inst)
        out = gluing_loop(inst, cover, 0.5)
        assert out.k <= 8

    def test_weight_floor(self):
        for seed in range(10):
            inst = random_metric(9, seed + 50)
            cover = max_weight_cycle_cover(inst)
            for delta in (0.2, 0.5, 0.8):
                out = gluing_loop(inst, cover, delta)
                floor = (1.0 - (2.0 / 3.0) * delta) * cover.weight
                assert out.weight >= floor - 1e-9 * cover.weight

    def test_state_invariants_step_by_step(self):
        inst = line_instance(30, seed=2)
        cover = block_cover(inst)
        initial_edges = cover_edges(cover)
        state = make_gluing_state(inst, cover, 0.5)
        k_before = state.k
        steps = 0
        while glue_once(state):
            steps += 1
            assert state.k == k_before - steps
            # every cycle keeps exactly two surviving pool edges, and they
            # are edges of their cycle
            for cyc, pool in zip(state.cycles, state.e0_per_cycle):
                assert len(pool) == 2
                edges = set(cycle_edges(cyc))
                assert set(pool) <= edges
            # removed edges never reappear anywhere
            current = set()
            for cyc in state.cycles:
                current |= set(cycle_edges(cyc))
            removed = {e for pair, _, _, _ in state.removed_log for e in pair}
            assert not (current & removed)
            # reconnecting edges were never part of the starting cover
            for _, added, _, _ in state.removed_log:
                assert not (set(added) & initial_edges)
        assert steps == len(state.removed_log)
        assert steps == k_before - state.k

    def test_log_weights_respect_threshold(self):
        inst = line_instance(40, seed=9)
        cover = block_cover(inst)
        state = make_gluing_state(inst, cover, 0.4)
        while glue_once(state):
            pass
        eps = 1e-12 * inst.max_dist()
        for _, _, removed_w, added_w in state.removed_log:
            assert added_w >= (1.0 - 0.4) * removed_w - eps


class TestPools:
    @pytest.mark.parametrize("family", ("line", "euclidean", "random-metric", "equilateral"))
    def test_pools_stay_lightest_first(self, family):
        # each pool is sorted by (weight, pair) at every step, ties included
        # on the equilateral instance, and a merge leaves the merged cycle
        # exactly the two pool edges its sides did not give up
        merges = 0
        for seed in range(4):
            if family == "equilateral":
                inst = equilateral(30)
            else:
                inst = generate(GeneratorSpec(family=family, n=30, seed=seed, d=2))
            cover = random_cover(inst, seed, k=10)
            for delta in (0.3, 0.9):
                state = make_gluing_state(inst, cover, delta)
                while True:
                    for pool in state.e0_per_cycle:
                        assert pool == sorted(pool, key=lambda e: (inst.dist[e], e))
                    before = [list(pool) for pool in state.e0_per_cycle]
                    if not glue_once(state):
                        break
                    merges += 1
                    (ep, eq), _, _, _ = state.removed_log[-1]
                    p = next(i for i, pool in enumerate(before) if ep in pool)
                    q = next(i for i, pool in enumerate(before) if eq in pool)
                    leftovers = set(before[p] + before[q]) - {ep, eq}
                    merged_pool = state.e0_per_cycle[p]
                    assert len(merged_pool) == 2 and set(merged_pool) == leftovers
        assert merges > 0


class TestGluingLog:
    @pytest.mark.parametrize("family", ("line", "euclidean", "random-metric"))
    def test_each_entry_reads_the_merged_cycle(self, family):
        # the log is read off the merged cycle: its added pair must be
        # two edges of that cycle, weighed exactly, and its removed pair
        # the two selected edges of the merged cycles
        merges = 0
        for seed in range(4):
            inst = generate(GeneratorSpec(family=family, n=30, seed=seed, d=2))
            cover = random_cover(inst, seed, k=10)
            for delta in (0.2, 0.6, 0.9):
                state = make_gluing_state(inst, cover, delta)
                while True:
                    before = [list(c) for c in state.cycles]
                    sel = current_selection(state)
                    if not glue_once(state):
                        break
                    merges += 1
                    removed, added, removed_w, added_w = state.removed_log[-1]
                    p, q = (
                        next(i for i, c in enumerate(before) if e[0] in c) for e in removed
                    )
                    assert p < q and removed == (sel[p], sel[q])
                    merged = state.cycles[p]
                    assert sorted(merged) == sorted(before[p] + before[q])
                    edges = set(cycle_edges(merged))
                    assert set(added) <= edges and len(set(added)) == 2
                    assert not set(removed) & edges
                    d = inst.dist
                    assert added_w == float(d[added[0]] + d[added[1]])
                    assert removed_w == float(d[removed[0]] + d[removed[1]])
        assert merges > 0


class TestRTau:
    def test_all_points_identical(self):
        inst = Instance(np.zeros((6, 6)))
        assert r_tau(inst, [(0, 1), (2, 3)]) == 0.0

    def test_single_selection_is_zero(self):
        inst = random_metric(5, 1)
        assert r_tau(inst, [(1, 3)]) == 0.0

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            r_tau(random_metric(4, 0), [])

    def test_terminal_state_radius_bound(self):
        # once no gluing is possible, every selected endpoint sits within
        # t/delta - t of the shortest selected edge
        for seed in range(8):
            inst = line_instance(45, seed=seed)
            cover = block_cover(inst)
            delta = 0.3
            state = make_gluing_state(inst, cover, delta)
            while glue_once(state):
                pass
            sel = current_selection(state)
            t = min(edge_weight(inst, e) for e in sel)
            assert r_tau(inst, sel) < t / delta - t


class TestAlgorithmA:
    def test_n3_is_exact(self):
        inst = random_metric(3, 7)
        tour, cert = algorithm_A(inst, 0.5)
        assert tour.order == (0, 1, 2)
        assert tour.weight == pytest.approx(cert.weight_cover)
        assert cert.k_initial == cert.k_after_gluing == 1

    def test_equilateral_no_loss(self):
        inst = equilateral(7)
        for delta in (0.1, 0.5, 0.9):
            tour, cert = algorithm_A(inst, delta)
            assert tour.weight == pytest.approx(7.0)
            assert cert.weight_cover == pytest.approx(7.0)

    def test_certificate_chain_bound_recomputed(self):
        for seed in range(12):
            inst = random_metric(6 + seed % 5, seed)
            tour, cert = algorithm_A(inst, 0.3)
            bound = 1.0 - (2.0 / 3.0) * 0.3 - cert.k_after_gluing / inst.n
            assert cert.claimed_bound == pytest.approx(bound, rel=1e-12)
            assert tour.weight >= bound * cert.weight_cover - 1e-9 * cert.weight_cover

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError, match="delta"):
            algorithm_A(random_metric(5, 0), 1.0)

    @pytest.mark.parametrize("dim", (None, 0, 2.0, math.inf))
    def test_records_dim(self, dim):
        _, cert = algorithm_A(random_metric(6, 1), 0.5, dim)
        assert cert.dim == dim
        assert cert.dim is None or isinstance(cert.dim, float)

    @pytest.mark.parametrize("dim", (math.nan, -1.0, -math.inf))
    def test_dim_must_be_non_negative(self, dim):
        with pytest.raises(ValueError, match="dim must be non-negative"):
            algorithm_A(random_metric(6, 1), 0.5, dim)
