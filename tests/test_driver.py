"""Branch selection and end-to-end guarantees of the two schemes."""

import math

import numpy as np
import pytest

from maxtsp import (
    Certificate,
    GeneratorSpec,
    Instance,
    algorithm_A,
    asymptotic,
    eptas,
    exact_dp,
    generate,
    held_karp_max,
    kostochka_serdyukov_56,
    max_weight_cycle_cover,
)
from maxtsp.certificate import certify
from maxtsp.corealgo import gluing_loop
from maxtsp.driver import (
    FALLBACK_EPSILON,
    asymptotic_plan,
    asymptotic_threshold,
    eptas_plan,
)
from maxtsp.merge import serdyukov_combine

from conftest import FLOAT_BOUNDARY, line_instance, random_metric
from oracles import brute_force_tour


def expected_plan(n, epsilon, dim):
    if epsilon >= 1.0 / 6.0:
        return "five-sixths"
    threshold = ((11.0 / 6.0) / epsilon) ** (2.0 * dim + 1.0)
    return "exact-dp" if n <= threshold else "algorithm-A"


class TestEptasPlan:
    def test_grid_against_reimplementation(self):
        for n in (4, 10, 100, 5000, 10**6):
            for epsilon in (0.01, 0.05, 0.1, 1.0 / 6.0, 0.2, 0.9):
                for dim in (0.0, 1.0, 2.0, 3.5):
                    branch, _, _ = eptas_plan(n, epsilon, dim)
                    assert branch == expected_plan(n, epsilon, dim)

    def test_large_epsilon_uses_fallback(self):
        for epsilon in (FALLBACK_EPSILON, 0.2, 0.5, 0.99):
            branch, _, _ = eptas_plan(50, epsilon, 1.0)
            assert branch == "five-sixths"

    def test_parameters_at_tenth(self):
        branch, delta, threshold = eptas_plan(10**7, 0.1, 1.0)
        assert branch == "algorithm-A"
        assert delta == pytest.approx((12.0 / 11.0) * 0.1)
        assert threshold == pytest.approx(6162.037037037036)

    def test_threshold_tie_goes_exact(self):
        # dividing by eps = (11/6)/32 is exact in floats (power-of-two
        # divisor), so dim = 0 puts the threshold at exactly 32.0
        epsilon = (11.0 / 6.0) / 32.0
        branch, _, threshold = eptas_plan(32, epsilon, 0.0)
        assert threshold == 32.0
        assert branch == "exact-dp"
        branch, _, _ = eptas_plan(33, epsilon, 0.0)
        assert branch == "algorithm-A"

    def test_branch_flips_just_above_threshold(self):
        _, _, threshold = eptas_plan(10, 0.1, 1.0)
        below = math.floor(threshold)
        assert eptas_plan(below, 0.1, 1.0)[0] == "exact-dp"
        assert eptas_plan(below + 1, 0.1, 1.0)[0] == "algorithm-A"

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="epsilon"):
            eptas_plan(10, 0.0, 1.0)
        with pytest.raises(ValueError, match="epsilon"):
            eptas_plan(10, 1.0, 1.0)
        with pytest.raises(ValueError, match="dim"):
            eptas_plan(10, 0.1, -1.0)

    def test_rejects_nan_dim(self):
        # NaN fails every comparison, so "dim < 0" let it through
        with pytest.raises(ValueError, match="dim must be non-negative, got nan"):
            eptas_plan(30, 0.1, math.nan)

    @pytest.mark.parametrize("epsilon, dim", ((0.01, 200.0), (0.1, 1e4), (1e-300, 1.0)))
    def test_threshold_saturates_to_inf(self, epsilon, dim):
        # ((11/6)/eps)^(2 dim + 1) overflows a float here; the plan must
        # read it as inf, as dim = inf does, and not raise
        branch, delta, threshold = eptas_plan(30, epsilon, dim)
        assert (branch, threshold) == ("exact-dp", math.inf)
        assert delta == (12.0 / 11.0) * epsilon
        assert eptas_plan(30, epsilon, math.inf) == (branch, delta, threshold)


class TestEptas:
    def test_small_instance_is_exact(self):
        inst = random_metric(8, 5)
        tour, cert = eptas(inst, 0.05, 1.0)
        assert cert.branch == "exact-dp"
        assert cert.certified is True
        assert cert.claimed_bound == 1.0
        assert tour.weight == pytest.approx(brute_force_tour(inst).weight, rel=1e-12)

    def test_fallback_records_inputs(self):
        inst = random_metric(7, 8)
        tour, cert = eptas(inst, 0.2, 2.0)
        assert cert.branch == "five-sixths"
        assert cert.epsilon == pytest.approx(0.2)
        assert cert.dim == pytest.approx(2.0)
        assert cert.claimed_bound == pytest.approx(5.0 / 6.0)
        opt = brute_force_tour(inst).weight
        assert tour.weight >= (5.0 / 6.0) * opt - 1e-9 * opt

    def test_dp_cap_forces_honest_downgrade(self):
        # dim = 0 puts the threshold at (11/6)/eps = 36.67 > 24 = n, so the
        # plan says exact; the DP cap turns that into an uncertified
        # pipeline run rather than a silent lie
        inst = random_metric(24, 0)
        tour, cert = eptas(inst, 0.05, 0.0)
        assert cert.branch == "algorithm-A"
        assert cert.certified is False
        assert cert.n_threshold == pytest.approx(36.666666666666664)
        # the claimed bound reverts to the cover-relative chain bound
        chain = 1.0 - (2.0 / 3.0) * cert.delta - cert.k_after_gluing / 24
        assert cert.claimed_bound == pytest.approx(chain)
        assert tour.weight >= cert.claimed_bound * cert.weight_cover - 1e-9

    def test_certified_pipeline_run(self):
        # n just over the dim = 0 threshold: pipeline with the full claim
        inst = random_metric(40, 3)
        tour, cert = eptas(inst, 0.05, 0.0)
        assert cert.branch == "algorithm-A"
        assert cert.certified is True
        assert cert.claimed_bound == pytest.approx(0.95)
        assert cert.delta == pytest.approx((12.0 / 11.0) * 0.05)

    def test_overflowing_threshold_is_honestly_uncertified(self):
        # n(eps) overflows to inf: exact is prescribed, n = 24 is over the
        # DP cap, so the pipeline runs with certified = false
        inst = random_metric(24, 0)
        tour, cert = eptas(inst, 0.01, 200.0)
        assert cert.branch == "algorithm-A"
        assert cert.certified is False
        assert cert.n_threshold == math.inf
        ref_tour, ref_cert = eptas(inst, 0.01, math.inf)
        assert tour == ref_tour
        assert cert.to_dict() == dict(ref_cert.to_dict(), dim=200.0)


class TestAsymptoticPlan:
    def test_small_n_uses_fallback(self):
        for n in (3, 5, 8):
            branch, _, err = asymptotic_plan(n, 1.0)
            assert branch == "five-sixths"
            assert err == pytest.approx(1.0 / 6.0)

    def test_delta_at_64(self):
        branch, delta, err = asymptotic_plan(64, 1.0)
        assert branch == "algorithm-A"
        # 64^(1/3) lands one ulp below 4, so compare approximately
        assert delta == pytest.approx(0.5)
        assert err == pytest.approx((11.0 / 6.0) / 4.0)

    def test_error_shrinks_with_n(self):
        errs = [asymptotic_plan(n, 1.0)[2] for n in (12, 100, 1000, 10**6)]
        assert errs == sorted(errs, reverse=True)

    def test_rejects_negative_dim(self):
        with pytest.raises(ValueError, match="dim"):
            asymptotic_plan(10, -0.5)

    def test_rejects_nan_dim(self):
        with pytest.raises(ValueError, match="dim must be non-negative, got nan"):
            asymptotic_plan(30, math.nan)

    @pytest.mark.parametrize("dim", (600.0, 1e4, math.inf))
    def test_huge_dim_takes_the_fallback(self, dim):
        # 2^(2 dim + 1) overflows a float for dim >= 511.5
        branch, _, err = asymptotic_plan(10**6, dim)
        assert (branch, err) == ("five-sixths", 1.0 / 6.0)
        assert asymptotic_threshold(dim) == math.inf

    def test_every_pipeline_plan_has_delta_inside_the_unit_interval(self):
        # 41 dims within 20 ulps of each n's threshold, where 2 / root
        # can round to 1
        for n in range(3, 2000):
            at = (math.log2(n) - 1.0) / 2.0
            for dim in at + math.ulp(at) * np.arange(-20, 21):
                branch, delta, _ = asymptotic_plan(n, float(dim))
                assert branch == "five-sixths" or 0.0 < delta < 1.0, (n, dim)

    def test_threshold_is_the_stamped_one(self):
        for dim in (0.0, 0.5, 1.0, 3.0):
            assert asymptotic_threshold(dim) == 2.0 ** (2.0 * dim + 1.0)
            _, cert = asymptotic(random_metric(9, 2), dim)
            assert cert.n_threshold == asymptotic_threshold(dim)


class TestAsymptotic:
    def test_small_instance_fallback(self):
        inst = random_metric(8, 1)
        tour, cert = asymptotic(inst, 1.0)
        assert cert.branch == "five-sixths"
        assert cert.n_threshold == pytest.approx(8.0)
        opt = brute_force_tour(inst).weight
        assert tour.weight >= (5.0 / 6.0) * opt - 1e-9 * opt

    def test_line_twelve_meets_its_bound(self):
        inst = line_instance(12, seed=4)
        tour, cert = asymptotic(inst, 1.0)
        assert cert.branch == "algorithm-A"
        err = (11.0 / 6.0) / 12.0 ** (1.0 / 3.0)
        assert err == pytest.approx(0.8007820926749406)
        assert cert.claimed_bound == pytest.approx(1.0 - err)
        opt = held_karp_max(inst).weight
        assert tour.weight >= (1.0 - err) * opt - 1e-9 * opt

    def test_delta_passed_through(self):
        inst = line_instance(12, seed=0)
        _, cert = asymptotic(inst, 1.0)
        assert cert.delta == pytest.approx(2.0 / 12.0 ** (1.0 / 3.0))
        assert cert.delta == pytest.approx(0.8735804647362989)


# (scheme, n, epsilon, dim, branch run, certified): every branch of both
# schemes, including eptas's exact prescription above the DP cap and
# asymptotic's n just above its threshold, where delta rounds to 1
SCHEME_BRANCHES = (
    ("eptas", 8, 0.2, 1.0, "five-sixths", True),
    ("eptas", 8, 0.1, 1.0, "exact-dp", True),
    ("eptas", 24, 0.1, 0.0, "algorithm-A", True),
    ("eptas", 24, 0.1, 1.0, "algorithm-A", False),
    ("asymptotic", 8, None, 1.0, "five-sixths", True),
    ("asymptotic", 24, None, 1.0, "algorithm-A", True),
    *(("asymptotic", n, None, dim, "five-sixths", True) for n, dim in FLOAT_BOUNDARY),
)


@pytest.mark.parametrize("scheme, n, epsilon, dim, branch, certified", SCHEME_BRANCHES)
def test_scheme_certificate_overwrites_only_its_own_fields(
    scheme, n, epsilon, dim, branch, certified
):
    inst = random_metric(n, n)
    if scheme == "eptas":
        tour, cert = eptas(inst, epsilon, dim)
        _, delta, n_threshold = eptas_plan(n, epsilon, dim)
        own = {"epsilon": epsilon, "dim": dim}
        if branch == "five-sixths":
            assert cert.n_threshold is None
        else:
            own["n_threshold"] = n_threshold
        if branch == "algorithm-A" and certified:
            own["claimed_bound"] = 1.0 - epsilon
    else:
        tour, cert = asymptotic(inst, dim)
        _, delta, err = asymptotic_plan(n, dim)
        own = {"dim": dim, "n_threshold": 2.0 ** (2.0 * dim + 1.0)}
        if branch == "algorithm-A":
            own["claimed_bound"] = 1.0 - err
    if not certified:
        own["certified"] = False
    entry = {
        "five-sixths": kostochka_serdyukov_56,
        "exact-dp": exact_dp,
        "algorithm-A": lambda inst: algorithm_A(inst, delta),
    }[branch]
    expected_tour, expected = entry(inst)
    assert cert.branch == branch and cert.certified is certified
    assert tour == expected_tour
    assert cert.to_dict() == {**expected.to_dict(), **own}


def recomputed_claim(cert, n):
    """(claimed_bound, certified) from the certificate's own fields and n,
    by the formulas of the README's claim table."""
    if cert.branch == "five-sixths":
        return 5.0 / 6.0, True
    if cert.branch == "exact-dp":
        return 1.0, True
    chain = 1.0 - (2.0 / 3.0) * cert.delta - cert.k_after_gluing / n
    if cert.epsilon is not None:
        # eptas prescribes the pipeline only above its threshold
        return (1.0 - cert.epsilon, True) if n > cert.n_threshold else (chain, False)
    if cert.n_threshold is not None:
        return 1.0 - (11.0 / 6.0) / n ** (1.0 / (2.0 * cert.dim + 1.0)), True
    return chain, True


@pytest.mark.parametrize("scheme, n, epsilon, dim, branch, certified", SCHEME_BRANCHES)
def test_scheme_claim_recomputes_from_the_certificate(scheme, n, epsilon, dim, branch, certified):
    inst = random_metric(n, n)
    tour, cert = eptas(inst, epsilon, dim) if scheme == "eptas" else asymptotic(inst, dim)
    assert (cert.branch, cert.certified) == (branch, certified)
    assert recomputed_claim(cert, len(tour.order)) == (cert.claimed_bound, cert.certified)


ENTRY_POINTS = {
    "algorithm_A": lambda inst: algorithm_A(inst, 0.3),
    "algorithm_A-dim": lambda inst: algorithm_A(inst, 0.05, 2.0),
    "exact_dp": exact_dp,
    "kostochka_serdyukov_56": kostochka_serdyukov_56,
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("n", (8, 17))
def test_entry_point_claim_recomputes_from_the_certificate(entry, n):
    tour, cert = ENTRY_POINTS[entry](random_metric(n, n))
    assert cert.certified is True
    assert recomputed_claim(cert, len(tour.order)) == (cert.claimed_bound, True)


@pytest.mark.parametrize(
    "fields",
    (
        # chain bound 1 - 0.6 - 8/8
        {"delta": 0.9, "k_after_gluing": 8},
        # eptas target 1 - epsilon
        {"epsilon": -0.5, "dim": 1.0, "n_threshold": 3.0},
        # asymptotic target 1 - (11/6) / 8^(1/21)
        {"dim": 10.0, "n_threshold": 2.0**21},
    ),
    ids=("chain", "eptas", "asymptotic"),
)
def test_certify_checks_its_bound(fields):
    # a claim outside (0, 1] fails the certificate's own check
    with pytest.raises(ValueError, match="claimed_bound"):
        certify("algorithm-A", 8, 1.0, **fields)


def test_algorithm_a_is_cover_gluing_loop_and_combine():
    # maximum covers of 3 to 8 cycles, which delta = 0.2 glues into one or two
    for family, seed in (("euclidean", 1), ("euclidean", 3), ("random-metric", 1)):
        inst = generate(GeneratorSpec(family=family, n=40, seed=seed, d=2))
        delta = 0.2
        cover = max_weight_cycle_cover(inst)
        glued = gluing_loop(inst, cover, delta)
        tour, cert = algorithm_A(inst, delta)
        assert tour == serdyukov_combine(inst, glued)
        assert (cert.k_initial, cert.k_after_gluing) == (cover.k, glued.k)
        assert cert.weight_cover == cover.weight


class TestCertificate:
    def test_dict_key_order_is_stable(self):
        cert = Certificate(
            branch="exact-dp", weight_tour=3.0, claimed_bound=1.0, certified=True
        )
        assert list(cert.to_dict()) == [
            "branch",
            "certified",
            "epsilon",
            "delta",
            "dim",
            "n_threshold",
            "k_initial",
            "k_after_gluing",
            "weight_cover",
            "weight_tour",
            "claimed_bound",
        ]

    def test_text_rendering(self):
        cert = Certificate(
            branch="algorithm-A",
            weight_tour=2.5,
            claimed_bound=0.75,
            certified=False,
            delta=0.25,
        )
        text = cert.to_text()
        assert "branch = algorithm-A" in text
        assert "certified = false" in text
        assert "epsilon = none" in text
        assert "delta = 0.25" in text
        assert "claimed_bound = 0.75" in text

    def test_rejects_unknown_branch(self):
        with pytest.raises(ValueError, match="branch"):
            Certificate(branch="greedy", weight_tour=1.0, claimed_bound=0.5, certified=True)

    def test_rejects_out_of_range_bound(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="claimed_bound"):
                Certificate(
                    branch="exact-dp", weight_tour=1.0, claimed_bound=bad, certified=True
                )

    def test_rejects_tour_heavier_than_cover(self):
        with pytest.raises(ValueError, match="exceeds"):
            Certificate(
                branch="algorithm-A",
                weight_tour=5.0,
                claimed_bound=0.5,
                certified=True,
                weight_cover=4.0,
            )

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_cover_slack_is_relative_with_no_floor(self, scale):
        def cert(tour, cover):
            return Certificate(
                branch="algorithm-A",
                weight_tour=tour * scale,
                claimed_bound=0.5,
                certified=True,
                weight_cover=cover * scale,
            )

        cert(4.0 * (1 + 1e-12), 4.0)  # last-bit noise passes
        cert(0.0, 0.0)
        with pytest.raises(ValueError, match="exceeds"):
            cert(5.0, 4.0)
