"""Gadget reduction and cycle-cover solvers against enumeration oracles."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxtsp import Instance, held_karp_max, max_weight_cycle_cover
import maxtsp.cyclecover as cyclecover
from maxtsp.cyclecover import (
    CycleCover,
    build_gadget,
    canonical_cycle,
    cycle_weight,
    decode_matching,
    dual_bound,
    open_cycle_at,
    two_matching_lp,
)
from maxtsp.matching import Matching, max_weight_perfect_matching
from maxtsp.metricspace import GeneratorSpec, generate

from conftest import equilateral, integer_metric, line_instance, random_metric
from oracles import (
    all_pairs,
    all_two_factors,
    brute_force_tour,
    cover_edges,
    cycle_cover_brute_force,
    encode_cover,
    enumerate_perfect_matchings,
    full_gadget_cover,
    open_cycle_at_scan,
    pair_rank,
)


def degenerate_instances(n, seed):
    """Ties, a duplicated point, extreme scales and the all-zero matrix."""
    base = random_metric(n, seed)
    dup = base.dist.copy()
    dup[1, :] = dup[0, :]
    dup[:, 1] = dup[:, 0]
    dup[0, 1] = dup[1, 0] = dup[1, 1] = 0.0
    yield "plain", base
    yield "ties", Instance(np.round(base.dist * 3.0))
    yield "duplicate", Instance(dup)
    yield "scale 1e-12", Instance(base.dist * 1e-12)
    yield "scale 1e12", Instance(base.dist * 1e12)
    yield "all zero", Instance(np.zeros((n, n)))


def random_weights(n, seed, high=10):
    """Symmetric integer weights with no metric structure: LPs often fractional."""
    rng = np.random.default_rng(seed)
    w = np.triu(rng.integers(0, high, size=(n, n)).astype(np.float64), 1)
    return Instance(w + w.T)


class TestCanonicalCycle:
    def test_rotation_and_reflection_invariant(self):
        base = canonical_cycle([2, 0, 3, 1])
        for rot in range(4):
            cyc = [2, 0, 3, 1][rot:] + [2, 0, 3, 1][:rot]
            assert canonical_cycle(cyc) == base
            assert canonical_cycle(cyc[::-1]) == base

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            canonical_cycle([0, 1])


class TestGadgetShape:
    def test_counts_n3(self):
        g = build_gadget(equilateral(3), all_pairs(3))
        assert g.num_vertices == 12
        internal = [e for e in g.edges if e[0] >= 6 and e[1] >= 6]
        external = [e for e in g.edges if e[0] < 6 or e[1] < 6]
        assert len(internal) == 3
        assert len(external) == 12

    def test_counts_n4(self):
        g = build_gadget(equilateral(4), all_pairs(4))
        assert g.num_vertices == 20
        assert len(g.edges) == 4 * 3 // 2 + 2 * 4 * 3

    def test_pair_rank_is_bijective(self):
        n = 7
        ranks = [pair_rank(u, v, n) for u in range(n) for v in range(u + 1, n)]
        assert sorted(ranks) == list(range(n * (n - 1) // 2))


class TestGadgetBijection:
    @pytest.mark.parametrize("n,two_factors", [(4, 3), (5, 12)])
    def test_every_gadget_matching_decodes(self, n, two_factors):
        # each 2-factor corresponds to 2^n gadget matchings (either copy of
        # a vertex may serve either of its two cover edges)
        inst = random_metric(n, seed=n)
        g = build_gadget(inst, all_pairs(n))
        count = 0
        seen_covers = set()
        for m in enumerate_perfect_matchings(g):
            cover = decode_matching(inst, m, all_pairs(n))
            seen_covers.add(cover.cycles)
            count += 1
        assert count == two_factors * 2**n
        assert len(seen_covers) == two_factors

    def test_every_cover_encodes_to_a_perfect_matching(self):
        inst = random_metric(6, seed=17)
        g = build_gadget(inst, all_pairs(6))
        covers = list(all_two_factors(inst))
        assert len(covers) == 70
        best_encoded = -1.0
        for cover in covers:
            m = Matching.from_pairs(g, encode_cover(inst, cover))
            assert m.covers_all(g.num_vertices)
            assert m.weight == pytest.approx(2.0 * cover.weight, rel=1e-12)
            best_encoded = max(best_encoded, m.weight)
        solver = max_weight_perfect_matching(g)
        assert solver.weight == pytest.approx(best_encoded, rel=1e-12)

    def test_restricted_gadget_encodes_covers_on_its_pairs(self):
        inst = random_metric(7, seed=5)
        cover = CycleCover.from_cycles(inst, [[0, 1, 2], [3, 4, 5, 6]])
        pairs = sorted(cover_edges(cover) | {(0, 3), (2, 5)})
        gadget = build_gadget(inst, pairs)
        assert gadget.num_vertices == 2 * 7 + 2 * len(pairs)
        decoded = decode_matching(inst, max_weight_perfect_matching(gadget), pairs)
        assert decoded.cycles == cover.cycles

    def test_encode_decode_round_trip(self):
        inst = random_metric(7, seed=5)
        gadget = build_gadget(inst, all_pairs(7))
        for cover in (
            CycleCover.from_cycles(inst, [[0, 1, 2], [3, 4, 5, 6]]),
            CycleCover.from_cycles(inst, [[0, 2, 4, 6, 1, 3, 5]]),
        ):
            m = Matching.from_pairs(gadget, encode_cover(inst, cover))
            assert decode_matching(inst, m, all_pairs(7)).cycles == cover.cycles


class TestMaxWeightCycleCover:
    def test_n3_unique_triangle(self):
        inst = random_metric(3, seed=1)
        cover = max_weight_cycle_cover(inst)
        assert cover.cycles == ((0, 1, 2),)
        assert cover.weight == pytest.approx(
            float(inst.dist[0, 1] + inst.dist[1, 2] + inst.dist[0, 2])
        )

    def test_equilateral_n6(self):
        assert max_weight_cycle_cover(equilateral(6)).weight == pytest.approx(6.0)

    def test_cover_partitions_vertices(self):
        inst = random_metric(9, seed=2)
        cover = max_weight_cycle_cover(inst)
        flat = sorted(v for c in cover.cycles for v in c)
        assert flat == list(range(9))
        assert all(len(c) >= 3 for c in cover.cycles)

    def test_matches_brute_force(self):
        for seed in range(30):
            n = 4 + seed % 5
            inst = random_metric(n, seed=seed)
            fast = max_weight_cycle_cover(inst)
            slow = cycle_cover_brute_force(inst)
            assert fast.weight == pytest.approx(slow.weight, rel=1e-9), (n, seed)

    @pytest.mark.parametrize("n", range(3, 10))
    def test_degenerate_inputs_match_brute_force(self, n):
        for seed in range(4 if n < 9 else 1):
            for kind, inst in degenerate_instances(n, seed):
                fast = max_weight_cycle_cover(inst)
                slow = cycle_cover_brute_force(inst)
                assert fast.weight == pytest.approx(slow.weight, rel=1e-9, abs=0.0), (
                    n, seed, kind,
                )

    @pytest.mark.parametrize("n", (10, 20, 40))
    @pytest.mark.parametrize("family,d", [("line", None), ("euclidean", 2), ("random-metric", None)])
    def test_matches_full_gadget_blossom(self, n, family, d):
        inst = generate(GeneratorSpec(family=family, n=n, d=d, seed=n))
        fast = max_weight_cycle_cover(inst)
        assert fast.weight == pytest.approx(full_gadget_cover(inst).weight, rel=1e-9)

    def test_fractional_lps_match_full_gadget_blossom(self, monkeypatch):
        priced = []
        monkeypatch.setattr(
            cyclecover, "max_weight_perfect_matching",
            lambda g: priced.append(g) or max_weight_perfect_matching(g),
        )
        for seed in range(40):
            inst = random_weights(10 + seed % 7, seed)
            # integer weights, so float sums are exact and equality is fair
            assert max_weight_cycle_cover(inst).weight == full_gadget_cover(inst).weight, seed
        assert len(priced) >= 5

    def test_integral_lp_runs_no_matching(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            cyclecover, "max_weight_perfect_matching",
            lambda g: calls.append(g) or max_weight_perfect_matching(g),
        )
        inst = line_instance(24, seed=0)
        cover = max_weight_cycle_cover(inst)
        assert calls == []
        assert cover.weight == pytest.approx(full_gadget_cover(inst).weight, rel=1e-9)

    # Both instances need the second matching run: the cover on the LP
    # support and each vertex's cheapest other edge is lighter (8.3203 vs
    # 8.3323, 184 vs 185) than the cover on the pairs the duals keep.
    @pytest.mark.parametrize("inst", [random_metric(12, 33), integer_metric(19, 42)])
    def test_fractional_lp_matches_on_smaller_gadgets(self, monkeypatch, inst):
        sizes = []
        monkeypatch.setattr(
            cyclecover, "build_gadget",
            lambda inst, pairs: sizes.append(len(pairs)) or build_gadget(inst, pairs),
        )
        cover = max_weight_cycle_cover(inst)
        monkeypatch.undo()
        assert len(sizes) == 2
        assert all(k < inst.n * (inst.n - 1) // 2 for k in sizes)
        assert cover.weight == pytest.approx(full_gadget_cover(inst).weight, rel=1e-12)

    def test_cycles_hold_python_ints(self):
        for inst in (line_instance(12, seed=1), random_metric(12, seed=33)):
            cover = max_weight_cycle_cover(inst)
            assert all(type(v) is int for c in cover.cycles for v in c)
            json.dumps(cover.cycles)

    def test_cover_outweighs_best_tour(self):
        for n in (6, 10, 14):
            inst = random_metric(n, seed=n)
            cover = max_weight_cycle_cover(inst)
            tour = held_karp_max(inst)
            assert cover.weight >= tour.weight - 1e-9 * cover.weight


def assert_optimal_plan(dist, label=""):
    """The LP plan is a double cover and its duals close the gap; returns its weight."""
    z, y = two_matching_lp(dist)
    assert not z.diagonal().any(), label
    assert (z.sum(axis=0) == 2).all() and (z.sum(axis=1) == 2).all(), label
    upper, _ = dual_bound(dist, y)
    lp_value = float((dist * z).sum()) / 2.0
    assert upper == pytest.approx(lp_value, rel=1e-12), label
    return lp_value


class TestTwoMatchingLP:
    def test_plan_is_a_double_cover_and_its_duals_close_the_gap(self):
        for seed in range(10):
            assert_optimal_plan(random_metric(6 + seed, seed).dist, seed)
        for n in range(3, 10):
            for kind, inst in degenerate_instances(n, seed=n):
                assert_optimal_plan(inst.dist, (n, kind))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(3, 14),
        seed=st.integers(0, 10_000),
        scale=st.sampled_from([1.0, 1e-12, 1e12]),
    )
    def test_relabelling_and_scaling_keep_the_plan_weight(self, n, seed, scale):
        dist = random_metric(n, seed).dist
        perm = np.random.default_rng(seed).permutation(n)
        moved = dist[np.ix_(perm, perm)] * scale
        base = assert_optimal_plan(dist)
        assert assert_optimal_plan(moved) / scale == pytest.approx(base, rel=1e-12)

    def test_infeasible_problem_raises(self):
        # n = 2 leaves each row a single arc, so no plan has row sums 2
        with pytest.raises(RuntimeError, match="infeasible"):
            two_matching_lp(np.zeros((2, 2)))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(4, 6),
        seed=st.integers(0, 10_000),
        y=st.lists(st.floats(-2.0, 2.0, allow_nan=False), min_size=6, max_size=6),
    )
    def test_any_duals_price_every_cover(self, n, seed, y):
        inst = random_metric(n, seed)
        duals = np.array(y[:n])
        upper, rc = dual_bound(inst.dist, duals)
        slack = 1e-12 * (inst.dist.sum() + np.abs(duals).sum())
        for cover in all_two_factors(inst):
            priced = sum(rc[pair_rank(u, v, n)] for u, v in cover_edges(cover))
            assert cover.weight <= upper - priced + slack


class TestBruteForceCover:
    def test_n3(self):
        inst = random_metric(3, seed=9)
        assert cycle_cover_brute_force(inst).cycles == ((0, 1, 2),)

    def test_n5_no_split_exists(self):
        # 5 vertices cannot split into two cycles of length >= 3, so the
        # best cover is the best tour
        inst = random_metric(5, seed=4)
        cover = cycle_cover_brute_force(inst)
        assert cover.k == 1
        assert cover.weight == pytest.approx(brute_force_tour(inst).weight)

    def test_n6_considers_splits(self):
        inst = random_metric(6, seed=8)
        cover = cycle_cover_brute_force(inst)
        best = max(c.weight for c in all_two_factors(inst))
        assert cover.weight == pytest.approx(best)

    def test_cap(self):
        with pytest.raises(ValueError, match="capped"):
            cycle_cover_brute_force(equilateral(10))


def test_cover_weight_consistency():
    inst = random_metric(8, seed=3)
    cover = max_weight_cycle_cover(inst)
    recomputed = sum(cycle_weight(inst, c) for c in cover.cycles)
    assert cover.weight == pytest.approx(recomputed, rel=1e-12)


def test_open_cycle_at_orientation():
    path = open_cycle_at([4, 1, 7, 2], (2, 4))
    assert path[0] == 2 and path[-1] == 4
    assert sorted(path) == [1, 2, 4, 7]


def _opened(fn, cycle, e):
    try:
        return fn(cycle, e)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 14), min_size=3, max_size=12, unique=True),
    st.booleans(),
)
def test_open_cycle_at_matches_the_scan(cycle, as_tuple):
    # every ordered pair over a range wider than the cycle: edges, chords,
    # unsorted pairs and vertices outside it, each opened or refused alike
    if as_tuple:
        cycle = tuple(cycle)
    for u in range(16):
        for v in range(16):
            assert _opened(open_cycle_at, cycle, (u, v)) == _opened(open_cycle_at_scan, cycle, (u, v))
