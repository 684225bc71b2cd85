"""Gadget reduction and cycle-cover solvers against enumeration oracles."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxtsp import Instance, held_karp_max, max_weight_cycle_cover
import maxtsp.cyclecover as cyclecover
from maxtsp.cyclecover import (
    CycleCover,
    Tour,
    build_gadget,
    canonical_cycle,
    cycle_edges,
    cycle_weight,
    decode_matching,
    dual_bound,
    open_cycle_at,
    two_matching_lp,
)
from maxtsp.metricspace import GeneratorSpec, dump_instance, generate

from conftest import equilateral, integer_metric, line_instance, random_metric
from oracles import (
    all_pairs,
    all_two_factors,
    augment_reference,
    blossom,
    brute_force_tour,
    cover_edges,
    cycle_cover_brute_force,
    encode_cover,
    enumerate_perfect_matchings,
    full_gadget_cover,
    gadget,
    matching_of,
    open_cycle_at_scan,
    pair_rank,
    two_matching_lp_reference,
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


def is_fractional(inst):
    """Whether the cover LP's point stays fractional after rounding."""
    z = two_matching_lp(inst.dist).plan
    return bool((cyclecover._lp_point(z, inst.dist) == 1).any())


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
        edges = build_gadget(equilateral(3), all_pairs(3))
        assert {x for a, b, _ in edges for x in (a, b)} == set(range(12))
        assert all(a < b for a, b, _ in edges)
        internal = [e for e in edges if e[0] >= 6 and e[1] >= 6]
        external = [e for e in edges if e[0] < 6 or e[1] < 6]
        assert len(internal) == 3
        assert len(external) == 12

    def test_counts_n4(self):
        edges = build_gadget(equilateral(4), all_pairs(4))
        assert {x for a, b, _ in edges for x in (a, b)} == set(range(20))
        assert len(set((a, b) for a, b, _ in edges)) == len(edges) == 4 * 3 // 2 + 2 * 4 * 3

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
        g = gadget(inst, all_pairs(n))
        count = 0
        seen_covers = set()
        for m in enumerate_perfect_matchings(g):
            cover = decode_matching(inst, m.pairs, all_pairs(n))
            seen_covers.add(cover.cycles)
            count += 1
        assert count == two_factors * 2**n
        assert len(seen_covers) == two_factors

    def test_every_cover_encodes_to_a_perfect_matching(self):
        inst = random_metric(6, seed=17)
        g = gadget(inst, all_pairs(6))
        covers = list(all_two_factors(inst))
        assert len(covers) == 70
        best_encoded = -1.0
        for cover in covers:
            m = matching_of(g, encode_cover(inst, cover))
            assert 2 * len(m.pairs) == g.num_vertices
            assert m.weight == pytest.approx(2.0 * cover.weight, rel=1e-12)
            best_encoded = max(best_encoded, m.weight)
        assert blossom(g).weight == pytest.approx(best_encoded, rel=1e-12)

    def test_restricted_gadget_encodes_covers_on_its_pairs(self):
        inst = random_metric(7, seed=5)
        cover = CycleCover.from_cycles(inst, [[0, 1, 2], [3, 4, 5, 6]])
        pairs = sorted(cover_edges(cover) | {(0, 3), (2, 5)})
        assert cyclecover._matching_cover(inst, pairs).cycles == cover.cycles

    def test_pairs_with_no_cover_give_none(self):
        # a Hamiltonian path leaves both its ends short of a second pair
        inst = random_metric(6, seed=5)
        assert cyclecover._matching_cover(inst, [(v, v + 1) for v in range(5)]) is None
        assert cyclecover._matching_cover(inst, [(v, v + 1) for v in range(5)] + [(0, 5)]).k == 1

    def test_encode_decode_round_trip(self):
        inst = random_metric(7, seed=5)
        for cover in (
            CycleCover.from_cycles(inst, [[0, 1, 2], [3, 4, 5, 6]]),
            CycleCover.from_cycles(inst, [[0, 2, 4, 6, 1, 3, 5]]),
        ):
            mate = encode_cover(inst, cover)
            assert decode_matching(inst, mate, all_pairs(7)).cycles == cover.cycles
            # the blossom may list a pair either way round
            flipped = [(b, a) for a, b in mate]
            assert decode_matching(inst, flipped, all_pairs(7)).cycles == cover.cycles


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
        searched = []
        child = cyclecover._child_plan
        monkeypatch.setattr(
            cyclecover, "_child_plan",
            lambda *args: searched.append(seed) or child(*args),
        )
        fractional = []
        for seed in range(40):
            inst = random_weights(10 + seed % 7, seed)
            if is_fractional(inst):
                fractional.append(seed)
            # integer weights, so float sums are exact and equality is fair
            assert max_weight_cycle_cover(inst).weight == full_gadget_cover(inst).weight, seed
        # the search ran on every fractional LP, and only there
        assert sorted(set(searched)) == fractional
        assert len(searched) >= 5

    def test_integral_lp_runs_no_matching(self, monkeypatch):
        calls = []
        matching_cover = cyclecover._matching_cover
        monkeypatch.setattr(
            cyclecover, "_matching_cover",
            lambda inst, pairs: calls.append(pairs) or matching_cover(inst, pairs),
        )
        # nor does it price the duals, which only a fractional point needs
        priced = []
        bound = cyclecover.dual_bound
        monkeypatch.setattr(
            cyclecover, "dual_bound", lambda *args: priced.append(args) or bound(*args)
        )
        inst = line_instance(24, seed=0)
        cover = max_weight_cycle_cover(inst)
        assert calls == [] and priced == []
        assert cover.weight == pytest.approx(full_gadget_cover(inst).weight, rel=1e-9)
        # a fractional point is priced, so the patch above sees the calls
        assert is_fractional(random_metric(24, 4))
        max_weight_cycle_cover(random_metric(24, 4))
        assert priced

    # With no search budget the blossom finishes the cover, and with no
    # incumbent to start from, both instances need its second run.  On the
    # first, the cover on the LP support and each vertex's cheapest other
    # edge is lighter (8.3203 vs 8.3323) than the cover on the pairs the
    # duals keep.  On the second it already weighs 69, but UB = 69.5, so
    # only the second run, on 136 of the 276 pairs, proves it maximum.
    @pytest.mark.parametrize("inst", [random_metric(12, 33), integer_metric(24, 4, high=10)])
    def test_fractional_lp_matches_on_smaller_gadgets(self, monkeypatch, inst):
        sizes = []
        monkeypatch.setattr(cyclecover, "SEARCH_NODE_BUDGET", 0)
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


def first_fractional(make, seeds=range(60)):
    """The first instance make(seed) whose cover LP stays fractional, or None."""
    for seed in seeds:
        inst = make(seed)
        if is_fractional(inst):
            return inst
    return None


def root_search(inst):
    """Run the branch and bound from inst's root LP as the cover does."""
    root = two_matching_lp(inst.dist)
    upper, _ = dual_bound(inst.dist, root.duals())
    tol = cyclecover.PRICING_TOL_FACTOR * inst.n * inst.max_dist()
    return cyclecover._branch_and_bound(
        inst, root, cyclecover._lp_point(root.plan, inst.dist), upper, tol
    )


def respects(cover, forbidden, forced):
    edges = cover_edges(cover)
    return not edges & set(forbidden) and set(forced) <= edges


class TestBranchAndBound:
    @pytest.fixture
    def children(self, monkeypatch):
        solved = []
        child = cyclecover._child_plan
        monkeypatch.setattr(
            cyclecover, "_child_plan", lambda *args: solved.append(args[1:]) or child(*args)
        )
        return solved

    def test_fractional_random_metric_matches_full_gadget(self, children):
        # one fractional instance per size where the full gadget is cheap;
        # n = 6 has none among these seeds
        searched = 0
        for n in range(6, 25):
            inst = first_fractional(lambda seed: random_metric(n, seed))
            if inst is None:
                continue
            children.clear()
            cover = max_weight_cycle_cover(inst)
            assert children, n
            assert cover.weight == pytest.approx(full_gadget_cover(inst).weight, rel=1e-9), n
            searched += 1
        assert searched >= 15

    @pytest.mark.parametrize("n", (30, 40, 50, 60))
    def test_fractional_random_metric_matches_the_blossom(self, monkeypatch, children, n):
        # the full gadget takes seconds here: the blossom on the pairs the
        # duals keep, which the cover ran on every fractional LP before the
        # search, is the oracle
        inst = first_fractional(lambda seed: random_metric(n, seed))
        cover = max_weight_cycle_cover(inst)
        assert children
        monkeypatch.setattr(cyclecover, "SEARCH_NODE_BUDGET", 0)
        assert cover.weight == pytest.approx(max_weight_cycle_cover(inst).weight, rel=1e-9)

    @pytest.mark.parametrize("n", range(8, 17))
    def test_integer_metric_matches_full_gadget_exactly(self, children, n):
        inst = first_fractional(lambda seed: integer_metric(n, seed), range(150))
        # integer weights, so float sums are exact and equality is fair
        assert max_weight_cycle_cover(inst).weight == full_gadget_cover(inst).weight
        assert children

    @pytest.mark.parametrize("budget", (0, 1))
    def test_exhausted_budget_falls_back_to_one_blossom(self, monkeypatch, budget):
        monkeypatch.setattr(cyclecover, "SEARCH_NODE_BUDGET", budget)
        gadgets = []
        monkeypatch.setattr(
            cyclecover, "build_gadget",
            lambda inst, pairs: gadgets.append(len(pairs)) or build_gadget(inst, pairs),
        )
        outcomes = set()
        for n in range(10, 30):
            inst = first_fractional(lambda seed: random_metric(n, seed))
            if inst is None:
                continue
            incumbent, proved = root_search(inst)
            assert not proved
            gadgets.clear()
            cover = max_weight_cycle_cover(inst)
            monkeypatch.setattr(cyclecover, "SEARCH_NODE_BUDGET", 10_000)
            assert cover.weight == pytest.approx(max_weight_cycle_cover(inst).weight, rel=1e-12), n
            monkeypatch.setattr(cyclecover, "SEARCH_NODE_BUDGET", budget)
            if incumbent is not None:
                assert len(gadgets) == 1, n
            assert gadgets, n
            outcomes.add(incumbent is not None)
        # budget 0 never has an incumbent; budget 1 has one when the first
        # child's LP point is integral, on some instances but not all
        assert outcomes == ({False} if budget == 0 else {False, True})

    # Integer weights tie: each of these LPs keeps UB - cover = 0.5 with a
    # half-integral point at every search node, so the default budget runs
    # out with an incumbent and the blossom runs once on the kept pairs.
    @pytest.mark.parametrize("seed,weight", [(1, 71), (15, 76), (26, 71), (32, 63)])
    def test_default_budget_runs_out_on_integer_ties(self, monkeypatch, seed, weight):
        inst = integer_metric(24, seed, high=10)
        searches, gadgets = [], []
        search = cyclecover._branch_and_bound
        monkeypatch.setattr(
            cyclecover, "_branch_and_bound", lambda *args: searches.append(search(*args)) or searches[-1]
        )
        monkeypatch.setattr(
            cyclecover, "build_gadget",
            lambda inst, pairs: gadgets.append(len(pairs)) or build_gadget(inst, pairs),
        )
        cover = max_weight_cycle_cover(inst)
        monkeypatch.undo()
        [(incumbent, proved)] = searches
        assert not proved and incumbent is not None
        assert len(gadgets) == 1 and gadgets[0] < inst.n * (inst.n - 1) // 2
        # integer weights, so float sums are exact and equality is fair
        assert cover.weight == full_gadget_cover(inst).weight == weight

    @pytest.mark.parametrize("n", (6, 7, 8))
    def test_children_with_no_plan_raise_only_infeasible(self, n):
        d = random_metric(n, n).dist
        infeasible = [
            ((), ((0, 1), (0, 2), (0, 3))),  # three forced pairs at vertex 0
            (tuple((0, v) for v in range(2, n)), ()),  # vertex 0 keeps one partner
            # 0 needs two partners, but 1 and 2 are full and the rest forbidden
            (tuple((0, v) for v in range(3, n)), ((1, 3), (1, 4), (2, 3), (2, 4))),
            # a forced cycle fills 2..n-1, and 0 and 1 may not pair: arcs
            # from the full vertices reach 0 and 1, but no augmenting path
            (((0, 1),), tuple(cycle_edges(range(2, n)))),
        ]
        for forbidden, forced in infeasible:
            with pytest.raises(cyclecover.InfeasibleLP):
                two_matching_lp(d, forbidden, forced)
        root = two_matching_lp(d)
        with pytest.raises(cyclecover.InfeasibleLP):
            t = cyclecover._child_plan(root, (0, 1), True)
            t = cyclecover._child_plan(t, (0, 2), True)
            cyclecover._child_plan(t, (0, 3), True)

    @pytest.mark.parametrize("n", (6, 7, 8))
    def test_search_prunes_children_with_no_plan(self, monkeypatch, n):
        # every forbidding child is declared without a plan: the search
        # must drop them and still end with the heaviest cover holding the
        # pairs it forced
        child = cyclecover._child_plan

        def only_forcing(node, edge, force):
            if not force:
                raise cyclecover.InfeasibleLP("no plan")
            return child(node, edge, force)

        monkeypatch.setattr(cyclecover, "_child_plan", only_forcing)
        for make in (lambda seed: random_metric(n, seed), lambda seed: random_weights(n, seed)):
            inst = first_fractional(make, range(200))
            if inst is None:
                continue
            cover, proved = root_search(inst)
            assert proved and cover is not None
            assert cover.weight <= cycle_cover_brute_force(inst).weight + 1e-9

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(4, 8),
        seed=st.integers(0, 10_000),
        picks=st.lists(st.tuples(st.integers(0, 27), st.booleans()), max_size=5),
    )
    def test_child_bound_covers_every_cover_it_keeps(self, n, seed, picks):
        inst = random_weights(n, seed) if seed % 2 else random_metric(n, seed)
        pairs = all_pairs(n)
        chosen = {}
        for i, force in picks:
            chosen.setdefault(pairs[i % len(pairs)], force)
        forbidden = tuple(pair for pair, force in chosen.items() if not force)
        forced = tuple(pair for pair, force in chosen.items() if force)
        kept = [c for c in all_two_factors(inst) if respects(c, forbidden, forced)]
        # the same constraints one at a time, each re-solved from its parent
        warm = two_matching_lp(inst.dist)
        try:
            for i, pair in enumerate(forbidden + forced):
                warm = cyclecover._child_plan(warm, pair, i >= len(forbidden))
        except cyclecover.InfeasibleLP:
            warm = None
        try:
            t = two_matching_lp(inst.dist, forbidden, forced)
        except cyclecover.InfeasibleLP:
            assert kept == [] and warm is None
            return
        z, y = t.plan, t.duals()
        assert warm is not None
        upper, rc = dual_bound(inst.dist, y, forbidden, forced)
        warm_upper, _ = dual_bound(inst.dist, warm.duals(), forbidden, forced)
        lp_value = float((inst.dist * z).sum()) / 2.0 + sum(inst.dist[e] for e in forced)
        warm_value = float((inst.dist * warm.plan).sum()) / 2.0 + sum(inst.dist[e] for e in forced)
        scale = 1e-9 * max(1.0, float(inst.dist.sum()))
        assert warm_value == pytest.approx(lp_value, abs=scale)
        assert upper == pytest.approx(lp_value, abs=scale)
        assert warm_upper == pytest.approx(lp_value, abs=scale)
        for cover in kept:
            priced = sum(rc[pair_rank(u, v, n)] for u, v in cover_edges(cover) - set(forced))
            assert cover.weight <= upper - priced + scale

    def test_fractional_solves_leave_networkx_unloaded(self, tmp_path):
        # these seeds' cover LPs are fractional at n = 24; the search closes
        # them without the blossom
        paths = []
        for seed in (4, 16, 23, 43, 46, 56):
            inst = random_metric(24, seed)
            assert is_fractional(inst)
            path = tmp_path / f"rm-{seed}.txt"
            path.write_text(dump_instance(inst), encoding="utf-8")
            paths.append(str(path))
        script = (
            "import sys, maxtsp.cli\n"
            "for path in sys.argv[1:]:\n"
            "    assert maxtsp.cli.main(['solve', path, '--algoA', '0.5']) == 0\n"
            "print('networkx' in sys.modules)\n"
        )
        src = str(Path(cyclecover.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c", script, *paths], capture_output=True, text=True,
            encoding="utf-8", env=env, check=True,
        )
        assert out.stdout.splitlines()[-1] == "False"


def assert_optimal_plan(dist, label="", forbidden=(), forced=(), t=None):
    """The LP plan meets every b_v on the allowed arcs and its duals close the gap.

    The plan is t, or else two_matching_lp's.  Returns its weight, the
    forced pairs' included.
    """
    if t is None:
        t = two_matching_lp(dist, forbidden, forced)
    z, y = t.plan, t.duals()
    b = 2 - np.bincount(np.ravel(forced).astype(int), minlength=len(dist))
    assert not z.diagonal().any(), label
    assert (z.sum(axis=0) == b).all() and (z.sum(axis=1) == b).all(), label
    for u, v in (*forbidden, *forced):
        assert not z[u, v] and not z[v, u], label
    upper, _ = dual_bound(dist, y, forbidden, forced)
    lp_value = sum(float(dist[e]) for e in forced) + float((dist * z).sum()) / 2.0
    assert upper == pytest.approx(lp_value, rel=1e-12), label
    return lp_value


def some_constraints(n, seed):
    """A feasible constraint set: a forced path through vertex 1 (b_1 = 0),
    one more forced pair and three forbidden pairs among the other vertices."""
    rng = np.random.default_rng(seed)
    rest = [int(v) for v in rng.permutation(np.arange(3, n))]
    forced = ((0, 1), (1, 2), (rest[0], rest[1]))
    forbidden = ((0, 2), (rest[2], rest[3]), (rest[1], rest[4]))
    return forbidden, forced


class TestTwoMatchingLP:
    def test_plan_is_a_double_cover_and_its_duals_close_the_gap(self):
        for seed in range(10):
            assert_optimal_plan(random_metric(6 + seed, seed).dist, seed)
        for n in range(3, 10):
            for kind, inst in degenerate_instances(n, seed=n):
                assert_optimal_plan(inst.dist, (n, kind))

    # from n = 100 on, a phase routes many paths that compete for columns
    @pytest.mark.parametrize("family", ["line", "euclidean", "random-metric"])
    @pytest.mark.parametrize("n", [24, 60, 100, 200])
    def test_start_keeps_the_plan_optimal(self, family, n):
        for seed in range(3):
            spec = GeneratorSpec(family=family, n=n, seed=seed, d=2 if family == "euclidean" else None)
            assert_optimal_plan(generate(spec).dist, seed)

    def test_start_keeps_the_plan_optimal_without_metric(self):
        # integer weights with many ties, and no triangle inequality
        for n in range(3, 21):
            for seed in range(3):
                assert_optimal_plan(random_weights(n, seed).dist, (n, seed))

    @pytest.mark.parametrize("n", [24, 60])
    def test_start_keeps_degenerate_plans_optimal(self, n):
        # all-zero and duplicate points tie every arc or many of them
        for kind, inst in degenerate_instances(n, seed=n):
            assert_optimal_plan(inst.dist, kind)

    def test_constrained_plans_are_optimal(self):
        for n in (8, 13, 24, 60, 100):
            forbidden, forced = some_constraints(n, seed=n)
            assert_optimal_plan(random_metric(n, n).dist, n, forbidden, forced)
            assert_optimal_plan(line_instance(n, n).dist, n, forbidden, forced)
            assert_optimal_plan(random_weights(n, n).dist, n, forbidden, forced)
            for kind, inst in degenerate_instances(n, seed=n):
                assert_optimal_plan(inst.dist, (n, kind), forbidden, forced)

    @pytest.mark.parametrize("family", ["line", "euclidean", "random-metric"])
    def test_child_chain_stays_optimal(self, family):
        n = 100
        spec = GeneratorSpec(family=family, n=n, seed=1, d=2 if family == "euclidean" else None)
        dist = generate(spec).dist
        t = two_matching_lp(dist)
        forbidden, forced = (), ()
        for step in range(4):
            # the heaviest half edge, as the search branches, or else the
            # heaviest pair in use, forbidden and forced in turn; the plan
            # holds no forced pair
            twice_x = cyclecover._lp_point(t.plan, dist)
            on = np.triu(twice_x == 1) if (twice_x == 1).any() else np.triu(twice_x == 2)
            flat = int(np.where(on, dist, -np.inf).argmax())
            edge = (flat // n, flat % n)
            force = step % 2 == 1
            t = cyclecover._child_plan(t, edge, force)
            if force:
                forced += (edge,)
            else:
                forbidden += (edge,)
            assert_optimal_plan(dist, (family, step), forbidden, forced, t=t)

    def test_start_leaves_fewer_units_to_augment(self, monkeypatch):
        routed = []
        augment = cyclecover._augment
        monkeypatch.setattr(
            cyclecover, "_augment",
            lambda t, supply, demand: routed.append(int(supply.sum())) or augment(t, supply, demand),
        )
        n = 60
        assert_optimal_plan(line_instance(n, seed=0).dist)
        # of the 2n units, the column minima alone would leave 116 here
        assert len(routed) == 1 and routed[0] < n // 2

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


def lp_bytes(t):
    return t.plan.tobytes(), t.pot_l.tobytes(), t.pot_r.tobytes()


def reference_child(monkeypatch, parent, edge, force):
    """_child_plan with the reference search routing the units taken out."""
    with monkeypatch.context() as m:
        m.setattr(cyclecover, "_augment", augment_reference)
        return cyclecover._child_plan(parent, edge, force)


def assert_same_as_reference(monkeypatch, dist, forbidden=(), forced=(), depth=0):
    """two_matching_lp, and the children of its plan down to depth levels,
    give the reference's plan and potentials byte for byte, or both raise."""
    try:
        expected = lp_bytes(two_matching_lp_reference(dist, forbidden, forced))
    except cyclecover.InfeasibleLP:
        with pytest.raises(cyclecover.InfeasibleLP):
            two_matching_lp(dist, forbidden, forced)
        return
    root = two_matching_lp(dist, forbidden, forced)
    assert lp_bytes(root) == expected
    nodes = [root]
    for _ in range(depth):
        children = []
        for node in nodes:
            # the heaviest half edge, as the search branches, or else the
            # heaviest pair in use
            twice_x = cyclecover._lp_point(node.plan, dist)
            on = np.triu(twice_x == 1) if (twice_x == 1).any() else np.triu(twice_x == 2)
            flat = int(np.where(on, dist, -np.inf).argmax())
            edge = (flat // len(dist), flat % len(dist))
            for force in (False, True):
                try:
                    expected = lp_bytes(reference_child(monkeypatch, node, edge, force))
                except cyclecover.InfeasibleLP:
                    with pytest.raises(cyclecover.InfeasibleLP):
                        cyclecover._child_plan(node, edge, force)
                    continue
                child = cyclecover._child_plan(node, edge, force)
                assert lp_bytes(child) == expected
                children.append(child)
        nodes = children


class TestAgainstReferenceSearch:
    """The plan and potentials are those of the array-only search, to the byte."""

    @pytest.mark.parametrize("family,d", [("line", None), ("euclidean", 2), ("random-metric", None)])
    def test_generated_families(self, monkeypatch, family, d):
        for n in (*range(3, 25), 40, 60):
            for seed in range(3):
                dist = generate(GeneratorSpec(family=family, n=n, d=d, seed=seed)).dist
                assert_same_as_reference(monkeypatch, dist, depth=2 if n <= 24 else 1)

    def test_integer_weights_and_degenerate_inputs(self, monkeypatch):
        for n in range(3, 25):
            for seed in range(3):
                assert_same_as_reference(monkeypatch, random_weights(n, seed).dist, depth=2)
        for n in (*range(3, 25), 40, 60):
            for _, inst in degenerate_instances(n, seed=n):
                assert_same_as_reference(monkeypatch, inst.dist, depth=1)

    def test_constrained_lps(self, monkeypatch):
        for n in (8, 13, 24, 40, 60):
            for seed in range(3):
                forbidden, forced = some_constraints(n, seed=n + seed)
                for inst in (random_metric(n, seed), line_instance(n, seed), random_weights(n, seed)):
                    assert_same_as_reference(monkeypatch, inst.dist, forbidden, forced)


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


def test_tour_is_the_same_from_every_rotation_and_reflection():
    for n in (5, 12, 24):
        for family, d in (("euclidean", 2), ("random-metric", None)):
            inst = generate(GeneratorSpec(family=family, n=n, d=d, seed=n))
            order = [int(v) for v in np.random.default_rng(n).permutation(n)]
            tours = {
                Tour.from_order(inst, start[i:] + start[:i])
                for start in (order, order[::-1])
                for i in range(n)
            }
            assert len(tours) == 1, (n, family)
            [tour] = tours
            assert tour.order == canonical_cycle(order)
            assert tour.weight == cycle_weight(inst, tour.order)


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
