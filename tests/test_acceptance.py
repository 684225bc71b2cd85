"""End-to-end acceptance gates.

Each test checks one shipped guarantee at its stated tolerance against an
independent oracle and prints a single summary line.  Shared fixtures keep
the expensive artifacts (gluing diagnostics, brute-force optima) computed
once per session.
"""

import math
import time

import numpy as np
import pytest

from maxtsp import (
    algorithm_A,
    asymptotic,
    eptas,
    held_karp_max,
    kostochka_serdyukov_56,
    max_weight_cycle_cover,
)
from maxtsp.corealgo import (
    current_selection,
    glue_once,
    make_gluing_state,
)
from maxtsp.cyclecover import edge_weight
from maxtsp.merge import serdyukov_combine

from conftest import block_cover, line_instance, pm_graph, random_cover, random_metric
from oracles import blossom, brute_force_tour, cycle_cover_brute_force, matching_brute_force, r_tau

GLUING_DELTAS = (0.2, 0.5)
GLUING_SIZES = (32, 64, 128, 200)
GLUING_SEEDS = 50


def _report(capsys, idx, name, ok, detail):
    with capsys.disabled():
        print(f"\nACCEPTANCE {idx:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def gluing_diagnostics():
    """Terminal gluing states on line instances for the count and radius gates.

    One record per (delta, n, seed): terminal cycle count, the radius
    diagnostic of the terminal selection, and the shortest selected weight.
    """
    runs = []
    for delta in GLUING_DELTAS:
        for n in GLUING_SIZES:
            for seed in range(GLUING_SEEDS):
                inst = line_instance(n, seed)
                cover = block_cover(inst)
                state = make_gluing_state(inst, cover, delta)
                while glue_once(state):
                    pass
                sel = current_selection(state)
                t = min(edge_weight(inst, e) for e in sel)
                runs.append((delta, n, seed, state.k, r_tau(inst, sel), t))
    return runs


@pytest.fixture(scope="module")
def small_optima():
    """100 random metric instances with brute-force optima, n in 4..10."""
    out = []
    for seed in range(100):
        n = 4 + seed % 7
        inst = random_metric(n, seed)
        out.append((inst, brute_force_tour(inst).weight))
    return out


def test_criterion_01_matching_exactness(capsys):
    rng = np.random.default_rng(12345)
    start = time.perf_counter()
    checked = 0
    for _ in range(200):
        nv = int(rng.choice((4, 6, 8)))
        g = pm_graph(rng, nv)
        engine = blossom(g)
        oracle = matching_brute_force(g)
        # integer weights, so float sums are exact and equality is fair
        assert engine.weight == oracle.weight, (g, engine, oracle)
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 200 and elapsed < 10.0
    _report(capsys, 1, "matching-exactness", ok, f"{checked}/200 exact, {elapsed:.1f}s < 10s")
    assert ok


def test_criterion_02_cover_exactness(capsys):
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        n = 4 + seed % 5
        inst = random_metric(n, seed + 1)
        cover = max_weight_cycle_cover(inst)
        oracle = cycle_cover_brute_force(inst)
        rel = abs(cover.weight - oracle.weight) / oracle.weight
        worst = max(worst, rel)
        assert rel <= 1e-6, (seed, n, cover.weight, oracle.weight)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    _report(
        capsys, 2, "cover-exactness", ok,
        f"100/100 within 1e-6 (worst {worst:.2e}), {elapsed:.1f}s < 60s",
    )
    assert ok


def test_criterion_03_terminal_cycle_count(capsys, gluing_diagnostics):
    caps = {delta: (2.0 / delta) ** 2 / 2.0 for delta in GLUING_DELTAS}
    count = 0
    worst = {delta: 0 for delta in GLUING_DELTAS}
    for delta, n, seed, k_final, _, _ in gluing_diagnostics:
        assert k_final <= caps[delta], (delta, n, seed, k_final)
        worst[delta] = max(worst[delta], k_final)
        count += 1
    ok = count == len(GLUING_DELTAS) * len(GLUING_SIZES) * GLUING_SEEDS
    _report(
        capsys, 3, "terminal-cycle-count", ok,
        f"{count} line runs; max k: delta=0.2 -> {worst[0.2]} <= 50, "
        f"delta=0.5 -> {worst[0.5]} <= 8",
    )
    assert ok


def test_criterion_04_terminal_radius(capsys, gluing_diagnostics):
    min_margin = math.inf
    for delta, n, seed, _, radius, t in gluing_diagnostics:
        limit = t / delta - t
        assert radius < limit, (delta, n, seed, radius, limit)
        min_margin = min(min_margin, limit - radius)
    ok = min_margin > 0
    _report(
        capsys, 4, "terminal-radius", ok,
        f"{len(gluing_diagnostics)} runs strictly inside t/delta - t, "
        f"min margin {min_margin:.3g}",
    )
    assert ok


def test_criterion_05_pipeline_chain_bound(capsys):
    runs = []
    counter = 0
    for seed in range(6):
        for delta in (0.2, 0.3, 0.5, 0.8):
            n = 6 + counter % 7
            counter += 1
            runs.append((random_metric(n, 31 * seed + counter), delta, None))
    # a line has doubling dimension 1
    for n in (15, 21):
        for delta in (0.2, 0.5):
            runs.append((line_instance(n, seed=n), delta, 1.0))
    closed_checked = 0
    for inst, delta, dim in runs:
        tour, cert = algorithm_A(inst, delta, dim)
        chain = 1.0 - (2.0 / 3.0) * delta - cert.k_after_gluing / inst.n
        slack = 1e-9 * cert.weight_cover
        assert cert.claimed_bound == pytest.approx(chain, rel=1e-12)
        assert tour.weight >= chain * cert.weight_cover - slack, (inst.n, delta)
        if dim is not None:
            k_cap = (2.0 / delta) ** (2.0 * dim) / 2.0
            closed = 1.0 - (2.0 / 3.0) * delta - k_cap / inst.n
            if closed > 0:
                assert tour.weight >= closed * cert.weight_cover - slack
            closed_checked += 1
    ok = len(runs) == 28 and closed_checked == 4
    _report(
        capsys, 5, "pipeline-chain-bound", ok,
        f"{len(runs)} pipeline runs certified; closed-form dim bound on "
        f"{closed_checked} line runs",
    )
    assert ok


def test_criterion_06_combining_floor(capsys):
    checked = 0
    worst = math.inf
    for seed in range(200):
        n = 6 + seed % 9
        inst = random_metric(n, seed + 2000)
        k = min(1 + seed % 4, n // 3)
        cover = random_cover(inst, seed + 1000, k=k)
        tour = serdyukov_combine(inst, cover)
        floor = (1.0 - 1.0 / n) ** (cover.k - 1)
        ratio = tour.weight / cover.weight
        worst = min(worst, ratio - floor)
        assert ratio >= floor - 1e-9, (seed, n, k, ratio, floor)
        checked += 1
    ok = checked == 200
    _report(
        capsys, 6, "combining-floor", ok,
        f"{checked}/200 covers kept (1 - 1/n)^(k-1), min slack {worst:.3g}",
    )
    assert ok


def test_criterion_07_eptas_guarantee(capsys, small_optima):
    branches = {"exact-dp": 0, "five-sixths": 0, "algorithm-A": 0}
    checked = 0
    for inst, opt in small_optima:
        for epsilon in (0.05, 0.1, 0.2, 0.3):
            tour, cert = eptas(inst, epsilon, 1.0)
            assert cert.certified is True, (inst.n, epsilon)
            assert tour.weight >= (1.0 - epsilon) * opt - 1e-9 * opt, (
                inst.n, epsilon, tour.weight, opt,
            )
            branches[cert.branch] += 1
            checked += 1
    ok = checked == 400 and branches["algorithm-A"] == 0
    _report(
        capsys, 7, "eptas-guarantee", ok,
        f"{checked}/400 certified runs >= (1-eps)*OPT "
        f"(exact-dp {branches['exact-dp']}, five-sixths {branches['five-sixths']})",
    )
    assert ok


def test_criterion_08_asymptotic_error(capsys):
    worst_gap = -math.inf
    checked = 0
    for n in (12, 14, 16):
        allowed = (11.0 / 6.0) / n ** (1.0 / 3.0)
        for seed in range(10):
            inst = line_instance(n, seed)
            tour, cert = asymptotic(inst, 1.0)
            assert cert.branch == "algorithm-A"
            assert cert.claimed_bound == pytest.approx(1.0 - allowed, rel=1e-12)
            opt = held_karp_max(inst).weight
            err = 1.0 - tour.weight / opt
            worst_gap = max(worst_gap, err - allowed)
            assert err <= allowed + 1e-9, (n, seed, err, allowed)
            checked += 1
    ok = checked == 30 and worst_gap <= 1e-9
    _report(
        capsys, 8, "asymptotic-error", ok,
        f"{checked}/30 line runs; worst err-minus-allowed {worst_gap:.3g}",
    )
    assert ok


def test_criterion_09_five_sixths_guarantee(capsys, small_optima):
    worst = math.inf
    for inst, opt in small_optima:
        tour, cert = kostochka_serdyukov_56(inst)
        ratio = tour.weight / opt
        worst = min(worst, ratio)
        assert cert.claimed_bound == pytest.approx(5.0 / 6.0)
        assert tour.weight >= (5.0 / 6.0) * opt - 1e-9 * opt, (inst.n, ratio)
    ok = worst >= 5.0 / 6.0 - 1e-9
    _report(
        capsys, 9, "five-sixths-guarantee", ok,
        f"100/100 runs >= (5/6)*OPT, worst ratio {worst:.4f}",
    )
    assert ok


def test_criterion_10_scale_budget(capsys):
    inst60 = line_instance(60, seed=0)
    start = time.perf_counter()
    tour60, cert60 = algorithm_A(inst60, 0.5)
    t60 = time.perf_counter() - start

    inst100 = line_instance(100, seed=0)
    start = time.perf_counter()
    tour100, cert100 = algorithm_A(inst100, 0.5)
    t100 = time.perf_counter() - start

    for tour, cert, inst in ((tour60, cert60, inst60), (tour100, cert100, inst100)):
        assert sorted(tour.order) == list(range(inst.n))
        assert cert.k_after_gluing <= 8
        assert tour.weight >= cert.claimed_bound * cert.weight_cover - 1e-9

    ok = t60 < 300.0 and t100 < 1800.0
    _report(
        capsys, 10, "scale-budget", ok,
        f"n=60 in {t60:.1f}s < 300s, n=100 in {t100:.1f}s < 1800s",
    )
    assert ok
