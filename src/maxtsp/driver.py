"""Top-level solver schemes with honest certification.

Two entry points.  :func:`eptas` targets a caller-chosen accuracy
epsilon: large epsilon is served by the 5/6 fallback, small instances by
the exact DP, and everything else by the gluing pipeline with
delta = (12/11) * epsilon, which meets the (1 - epsilon) target whenever
n exceeds the accuracy threshold n(eps) = ((11/6)/eps)^(2*dim+1).
:func:`asymptotic` instead lets the accuracy float with n, running the
pipeline at delta = 2 / n^(1/(2*dim+1)) for a relative error bound of
(11/6) / n^(1/(2*dim+1)).

Both guarantees are conditional on the caller-supplied doubling-dimension
bound; nothing here estimates it.  When the exact branch is prescribed
but the instance exceeds the DP cap, the pipeline runs instead and the
certificate is marked certified = false with the unconditional
cover-relative bound in place of the scheme's claim.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Tuple

from .certificate import Certificate
from .corealgo import algorithm_A
from .cyclecover import Tour
from .exact import HELD_KARP_CAP, exact_dp
from .merge import kostochka_serdyukov_56
from .metricspace import Instance, check_delta, check_dim

FALLBACK_EPSILON = 1.0 / 6.0


def eptas_plan(n: int, epsilon: float, dim: float) -> Tuple[str, float, float]:
    """Branch choice for :func:`eptas`: (branch, delta, n_threshold).

    Pure function of (n, epsilon, dim).  Threshold comparisons evaluate
    the formulas directly in floats with ties going to the exact branch.
    The returned branch is the prescribed one; the DP cap is applied
    later, in :func:`eptas` itself.
    """
    check_delta(epsilon, "epsilon")
    check_dim(dim)
    if epsilon >= FALLBACK_EPSILON:
        return "five-sixths", float("nan"), float("nan")
    delta = (12.0 / 11.0) * epsilon
    n_threshold = _power((11.0 / 6.0) / epsilon, 2.0 * dim + 1.0)
    if n <= n_threshold:
        return "exact-dp", delta, n_threshold
    return "algorithm-A", delta, n_threshold


def eptas(inst: Instance, epsilon: float, dim: float) -> Tuple[Tour, Certificate]:
    """Approximation scheme: tour weight at least (1 - epsilon) times the
    optimum on every certified run, assuming dim really bounds the
    instance's doubling dimension.

    epsilon >= 1/6 is served by the 5/6 fallback (5/6 >= 1 - epsilon
    there).  Otherwise instances up to n(eps) get the exact DP; above the
    threshold the gluing pipeline at delta = (12/11) * epsilon already
    meets the target.  The one dishonest corner, n <= n(eps) but above
    the DP cap, still runs the pipeline but returns certified = false.
    """
    branch, delta, n_threshold = eptas_plan(inst.n, epsilon, dim)
    stamp = {"epsilon": float(epsilon), "dim": float(dim)}
    if branch != "five-sixths":
        stamp["n_threshold"] = n_threshold
    if branch == "algorithm-A":
        stamp["claimed_bound"] = 1.0 - epsilon
    elif branch == "exact-dp" and inst.n > HELD_KARP_CAP:
        # prescribed exact, too large for the DP: run the pipeline and
        # say so; the claimed bound stays the pipeline's own
        branch, stamp["certified"] = "algorithm-A", False
    return _run_branch(inst, branch, delta, stamp)


def asymptotic_threshold(dim: float) -> float:
    """n up to which :func:`asymptotic` runs the 5/6 fallback: 2^(2*dim+1)."""
    return _power(2.0, 2.0 * check_dim(dim) + 1.0)


def asymptotic_plan(n: int, dim: float) -> Tuple[str, float, float]:
    """Branch choice for :func:`asymptotic`: (branch, delta, error_bound).

    The pipeline runs at delta = 2 / root, root = n^(1/(2*dim+1)), when n
    is above :func:`asymptotic_threshold` and that delta is below 1.  Just
    above the threshold, root can round to 2 and delta to 1; the 5/6
    fallback serves those n too, and meets the target there, since
    1/6 < (11/6) / root whenever root <= 2.
    """
    if n > asymptotic_threshold(dim):
        root = n ** (1.0 / (2.0 * dim + 1.0))
        if 2.0 / root < 1.0:
            return "algorithm-A", 2.0 / root, (11.0 / 6.0) / root
    return "five-sixths", float("nan"), 1.0 / 6.0


def asymptotic(inst: Instance, dim: float) -> Tuple[Tour, Certificate]:
    """Accuracy-grows-with-n scheme: relative error at most
    (11/6) / n^(1/(2*dim+1)), conditional on the dim bound.

    Small instances (n <= 2^(2*dim+1)) are served by the 5/6 fallback,
    whose 1/6 error is already below the target there.  Larger ones run
    the gluing pipeline at delta = 2 / n^(1/(2*dim+1)), unless float
    rounding puts that delta at 1 (see :func:`asymptotic_plan`).
    """
    branch, delta, err = asymptotic_plan(inst.n, dim)
    stamp = {"dim": float(dim), "n_threshold": asymptotic_threshold(dim)}
    if branch == "algorithm-A":
        stamp["claimed_bound"] = 1.0 - err
    return _run_branch(inst, branch, delta, stamp)


def _power(base: float, exponent: float) -> float:
    """base ** exponent, saturating to inf where the float overflows."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def _run_branch(
    inst: Instance, branch: str, delta: float, stamp: dict
) -> Tuple[Tour, Certificate]:
    """Run one branch's entry point, then overwrite the certificate
    fields the scheme owns (stamp: field name -> value).  The stamped
    certificate is checked like a constructed one."""
    if branch == "five-sixths":
        tour, cert = kostochka_serdyukov_56(inst)
    elif branch == "exact-dp":
        tour, cert = exact_dp(inst)
    else:
        tour, cert = algorithm_A(inst, delta)
    return tour, dataclasses.replace(cert, **stamp)
