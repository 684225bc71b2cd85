"""Tests for the benchmark's own code: the output checker, its reference
values and span arithmetic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import maxtsp  # noqa: E402
import maxtsp.cli  # noqa: E402

import checker  # noqa: E402
import prepare  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import InstanceSpec, Request  # noqa: E402


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = maxtsp.cli.main(argv)
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """A real five-sixths and a real gluing run on one instance, with its reference."""
    work = tmp_path_factory.mktemp("solve")
    spec = InstanceSpec("inst.txt", "euclidean", 12, 2, 5)
    prepare.generate_file(spec, work / spec.file)
    dist = checker.read_matrix(work / spec.file)
    ref = {"cover": prepare.max_cover_weight(dist)}
    runs = {}
    for flags in (("--five-sixths",), ("--algoA", "0.5")):
        argv = ("solve", str(work / spec.file), *flags, "--out", "json")
        rc, out = _cli(list(argv))
        runs[flags[0]] = (argv, rc, out)
    return dist, ref, runs


def _tamper(out, edit):
    payload = json.loads(out)
    edit(payload)
    return json.dumps(payload)


@pytest.mark.parametrize("flag", ["--five-sixths", "--algoA"])
def test_real_outputs_pass(solved, flag):
    dist, ref, runs = solved
    argv, rc, out = runs[flag]
    assert checker.check_solve(argv, rc, out, dist, ref) == []


def test_tampered_tour_weight_is_flagged(solved):
    dist, ref, runs = solved
    argv, rc, out = runs["--algoA"]

    def edit(p):
        p["weight"] *= 1.01
        p["certificate"]["weight_tour"] = p["weight"]

    assert checker.check_solve(argv, rc, _tamper(out, edit), dist, ref)


def test_cover_lighter_than_reference_is_flagged(solved):
    dist, ref, runs = solved
    argv, rc, out = runs["--five-sixths"]
    heavier = {"cover": ref["cover"] * 1.001}
    problems = checker.check_solve(argv, rc, out, dist, heavier)
    assert any("maximum cover" in p for p in problems)


@pytest.mark.parametrize("flag", ["--five-sixths", "--algoA"])
def test_wrong_claimed_bound_is_flagged(solved, flag):
    dist, ref, runs = solved
    argv, rc, out = runs[flag]

    def edit(p):
        p["certificate"]["claimed_bound"] *= 0.99

    problems = checker.check_solve(argv, rc, _tamper(out, edit), dist, ref)
    assert any("claimed_bound" in p for p in problems)


def test_exact_tour_below_the_reference_tour_is_flagged(tmp_path):
    spec = InstanceSpec("inst.txt", "random-metric", 9, None, 4)
    prepare.generate_file(spec, tmp_path / spec.file)
    dist = checker.read_matrix(tmp_path / spec.file)
    ref = {"cover": prepare.max_cover_weight(dist), "tour": prepare.max_tour_weight(dist)}
    argv = ("solve", str(tmp_path / spec.file), "--exact", "--out", "json")
    rc, out = _cli(list(argv))
    assert checker.check_solve(argv, rc, out, dist, ref) == []
    assert json.loads(out)["weight"] == pytest.approx(ref["tour"], rel=1e-9)

    def worst_swap(p):
        # the lightest tour one swap away from the optimum, with a consistent weight
        order = p["tour"]
        swaps = [order[:i] + order[i + 1 : i + 2] + order[i : i + 1] + order[i + 2 :]
                 for i in range(len(order) - 1)]
        p["tour"] = min(swaps, key=lambda t: checker.tour_weight(dist, t))
        p["weight"] = p["certificate"]["weight_tour"] = checker.tour_weight(dist, p["tour"])

    problems = checker.check_solve(argv, rc, _tamper(out, worst_swap), dist, ref)
    assert any("reference tour" in p for p in problems)


def test_claim_formulas_per_branch():
    cert = {"branch": "algorithm-A", "delta": 0.6, "k_after_gluing": 2, "certified": True}
    eptas = checker.solver_flags(["--eptas", "0.55", "--dim", "0"])
    # n(eps) = (11/6)/0.55 = 3.33 < n, so the pipeline claims 1 - eps
    assert checker.expected_claim(eptas, 30, {**cert, "claimed_bound": 0.45}) == []
    assert checker.expected_claim(eptas, 3, {**cert, "claimed_bound": 0.45}) != []
    uncertified = {**cert, "certified": False, "claimed_bound": 1 - 0.4 - 2 / 24}
    assert checker.expected_claim(eptas, 24, uncertified) == []
    assert checker.expected_claim(eptas, 24, {**uncertified, "delta": 0.5}) != []
    asym = checker.solver_flags(["--asymptotic", "--dim", "1"])
    bound = 1 - (11 / 6) / 24 ** (1 / 3)
    assert checker.expected_claim(asym, 24, {**cert, "claimed_bound": bound}) == []
    assert checker.expected_claim(asym, 8, {**cert, "claimed_bound": 1 - (11 / 6) / 2}) != []
    exact = {"branch": "exact-dp", "claimed_bound": 1.0, "certified": True}
    assert checker.expected_claim(eptas, 10, exact) == []


@pytest.fixture(scope="module")
def injected(tmp_path_factory):
    work = tmp_path_factory.mktemp("validate")
    spec = InstanceSpec("clean.txt", "random-metric", 30, None, 3)
    prepare.generate_file(spec, work / spec.file)
    ref = prepare.inject_violation(work / "clean.txt", work / "bad.txt", 77)
    return work, ref


def test_real_validate_outputs_pass(injected):
    work, ref = injected
    assert checker.check_validate(*_cli(["validate", str(work / "bad.txt")]), ref) == []
    assert checker.check_validate(*_cli(["validate", str(work / "clean.txt")]), {"passed": True}) == []


def test_pass_verdict_on_injected_violation_is_flagged(injected):
    work, ref = injected
    rc, out = _cli(["validate", str(work / "clean.txt")])
    assert rc == 0
    assert checker.check_validate(rc, out, ref)
    i, j = ref["pair"]
    wrong_pair = f"invalid: triangle inequality violated by 0.1 at triple ({i}, {(j + 1) % 30}) via 0"
    assert checker.check_validate(1, wrong_pair, ref)


def test_tampered_outputs_count_as_failures(solved, tmp_path):
    dist, ref, runs = solved
    argv, rc, out = runs["--algoA"]
    inst = Path(argv[1])
    req = Request(("solve", inst.name, *argv[2:]), inst.name)
    (tmp_path / inst.name).write_text(inst.read_text())
    bad = _tamper(out, lambda p: p["certificate"].update(claimed_bound=0.5))
    samples = [(req, 0.1, rc, out), (req, 0.1, rc, bad), (req, 0.1, 1, "")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert run.check_samples(samples, tmp_path, {inst.name: ref}) == 2


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(40, 0, -1))) == (30, 75.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_request_times_are_reported_in_reference_loops():
    samples = [(None, t, 0, "") for t in (1.0, 2.0, 3.0)]
    # every request lies within the others' window: each is divided by 0.5
    t = run.timings(samples, [0.5, 1.0, 0.5])
    assert t["request_ref_mean"] == pytest.approx(3.0)
    assert t["request_ref_p50"] == pytest.approx(4.0)
    assert t["request_ref_tail"] == pytest.approx(6.0)
    assert t["requests_per_s"] == pytest.approx(0.5)
    assert t["reference_s"] == pytest.approx(0.5)


def test_self_times_on_nested_spans():
    # [name, start, end, parent, request]
    spans = [
        ["root", 0.0, 10.0, None, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.inner", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
        ["a", 9.0, 9.5, 0, 0],
    ]
    assert tracing.self_times(spans) == pytest.approx([2.5, 2.0, 1.0, 4.0, 0.5])
    table = tracing.layer_table(spans)
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(10.0)
    assert table["a"] == {"calls": 2, "self_s": pytest.approx(2.5)}


def test_tracer_wraps_every_namespace_and_reports_absent():
    original = maxtsp.corealgo.algorithm_A
    inst = maxtsp.generate(maxtsp.GeneratorSpec(family="line", n=8, seed=1))
    t = tracing.Tracer()
    t.install(tracing.REQUEST_TARGETS + (("maxtsp.merge", "no_such_function", None),))
    try:
        assert maxtsp.algorithm_A is maxtsp.cli.algorithm_A is maxtsp.corealgo.algorithm_A
        assert maxtsp.corealgo.algorithm_A is not original
        t.request_id = 7
        maxtsp.driver.asymptotic(inst, 1.0)
    finally:
        t.uninstall()
    assert maxtsp.corealgo.algorithm_A is original
    assert t.absent == ["merge.no_such_function"]
    names = [s[0] for s in t.spans]
    assert names[:3] == ["driver.asymptotic", "merge.kostochka_serdyukov_56",
                         "cyclecover.max_weight_cycle_cover"]
    assert all(s[4] == 7 for s in t.spans)
    assert t.counters["matching.gadget_nodes"] == 2 * 8 + 8 * 7
