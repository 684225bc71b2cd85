"""CLI behavior, run in-process through main(argv)."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import maxtsp
import maxtsp.cli
import maxtsp.exact
import maxtsp.metricspace
from maxtsp import GeneratorSpec, Instance, dump_instance, generate
from maxtsp.cli import main
from maxtsp.metricspace import metric_violation, parse_instance, validate_metric

from conftest import FLOAT_BOUNDARY, equilateral, line_instance, random_metric
from oracles import brute_force_tour


def write_instance(tmp_path, inst, name="inst.txt"):
    path = tmp_path / name
    path.write_text(dump_instance(inst), encoding="utf-8")
    return str(path)


class TestGenerateValidate:
    def test_generate_then_validate(self, tmp_path, capsys):
        out = str(tmp_path / "gen.txt")
        rc = main(
            ["generate", "--family", "random-metric", "--n", "8", "--seed", "3", "--out", out]
        )
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        rc = main(["validate", out])
        assert rc == 0
        report = capsys.readouterr().out
        assert "result: pass" in report
        assert "symmetry: ok" in report

    def test_generated_line_file_round_trips(self, tmp_path, capsys):
        out = str(tmp_path / "line.txt")
        assert main(["generate", "--family", "line", "--n", "12", "--seed", "0", "--out", out]) == 0
        capsys.readouterr()
        assert main(["validate", out, "--tol", "0"]) == 0

    def test_euclidean_requires_d(self, tmp_path, capsys):
        out = str(tmp_path / "e.txt")
        rc = main(["generate", "--family", "euclidean", "--n", "6", "--seed", "1", "--out", out])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ("inf", "nan", "0"))
    def test_scale_must_be_positive_and_finite(self, tmp_path, capsys, scale):
        out = tmp_path / "x.txt"
        rc = main(["generate", "--family", "line", "--n", "5", "--seed", "0",
                   "--scale", scale, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: scale must be a positive finite number, got {float(scale)}\n"
        assert not out.exists()

    # Only sizes whose n x n matrix fails to allocate (7.28 TiB, or past
    # numpy's own size limit): a size the kernel grants would be filled.
    @pytest.mark.parametrize(
        "family, n", (("random-metric", 10**6), ("line", 10**6), ("random-metric", 10**10))
    )
    def test_generate_too_large_for_memory_names_n(self, tmp_path, capsys, family, n):
        out = tmp_path / "huge.txt"
        rc = main(["generate", "--family", family, "--n", str(n), "--seed", "0",
                   "--out", str(out)])
        assert rc == 1
        message = f"vertex count {n} is too large: {n} x {n} floats do not fit in memory"
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_validate_rejects_triangle_violation(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text(
            "maxtsp v1 3 matrix\n0.0 10.0 1.0\n10.0 0.0 1.0\n1.0 1.0 0.0\n",
            encoding="utf-8",
        )
        rc = main(["validate", str(path)])
        assert rc == 1
        assert "invalid:" in capsys.readouterr().out

    def test_validate_names_the_first_of_tied_pairs(self, tmp_path, capsys):
        # (0, 3) and (1, 4) violate by 1.0 each; the first pair is named
        d = np.ones((5, 5))
        d[0, 3] = d[3, 0] = d[1, 4] = d[4, 1] = 3.0
        np.fill_diagonal(d, 0.0)
        assert main(["validate", write_instance(tmp_path, Instance(d))]) == 1
        assert capsys.readouterr().out == "invalid: triangle inequality violated by 1.0 at triple (0, 3) via 1\n"

    def test_validate_missing_file(self, capsys):
        rc = main(["validate", "/nonexistent/nowhere.txt"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_validate_tolerance_scales_with_the_data(self, tmp_path, capsys, scale):
        # 3 > 1 + 1 at d[0,3]: rejected at every scale, as the default
        # tolerance is relative to the largest distance
        d = np.array([[0, 1, 1, 3], [1, 0, 1, 1], [1, 1, 0, 1], [3, 1, 1, 0]]) * scale
        path = write_instance(tmp_path, Instance(d))
        assert main(["validate", path]) == 1
        assert capsys.readouterr().out.startswith("invalid: triangle inequality violated")

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_validate_rejects_nan_or_negative_tol(self, tmp_path, capsys, tol):
        path = write_instance(tmp_path, equilateral(4))
        assert main(["validate", path, "--tol", tol]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: tol must be a non-negative number" in captured.err


class TestValidateChecksOnce:
    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        real = maxtsp.metricspace.validate_metric

        def counting(*args, **kwargs):
            seen.append(args[0].n)
            return real(*args, **kwargs)

        for module in (maxtsp.cli, maxtsp.metricspace):
            monkeypatch.setattr(module, "validate_metric", counting)
        return seen

    def test_valid_file(self, tmp_path, capsys, calls):
        path = write_instance(tmp_path, random_metric(7, 2))
        assert main(["validate", path]) == 0
        assert "result: pass" in capsys.readouterr().out
        assert calls == [7]

    def test_violated_file_message_is_unchanged(self, tmp_path, capsys, calls):
        path = tmp_path / "bad.txt"
        path.write_text(
            "maxtsp v1 3 matrix\n0.0 10.0 1.0\n10.0 0.0 1.0\n1.0 1.0 0.0\n",
            encoding="utf-8",
        )
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().out == (
            "invalid: triangle inequality violated by 8.0 at triple (0, 1) via 2\n"
        )
        assert calls == [3]


class TestStreamedFiles:
    """validate and solve hand the open file to the parser, which reads it
    line by line; verdicts and errors are those of the whole text."""

    BODIES = (
        ["maxtsp v1 3 matrix", "0 1 1", "1 0 1", "1 1 0"],
        ["maxtsp v1 3 points", "norm manhattan dim 2", "0 0", "1 0", "0 2"],
        ["maxtsp v1 3 matrix", "0 9 1", "9 0 1", "1 1 0"],
        ["maxtsp v1 3 matrix", "0 1 1", "1 0 1"],
    )

    @pytest.mark.parametrize("final", (True, False), ids=("final-break", "no-final-break"))
    @pytest.mark.parametrize("body", BODIES, ids=("matrix", "points", "violation", "short"))
    @pytest.mark.parametrize(
        "end", ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"),
        ids=("LF", "CRLF", "CR", "VT", "FF", "FS", "NEL", "LS"),
    )
    def test_line_breaks_and_blank_lines(self, tmp_path, capsys, end, body, final):
        text = end.join(["", body[0], " ", *body[1:2], "", "\t", *body[2:]]) + (end if final else "")
        try:
            inst = parse_instance(text)
        except ValueError as exc:
            expected = (1, f"invalid: {exc}\n")
        else:
            report = validate_metric(inst)
            expected = (0, report.summary() + "\n") if report.passed else (
                1, f"invalid: {metric_violation(report)}\n")
        path = tmp_path / "inst.txt"
        path.write_bytes(text.encode("utf-8"))
        assert (main(["validate", str(path)]), capsys.readouterr().out) == expected

    @pytest.mark.parametrize("pad", (0, 1 << 17), ids=("small", "large"))
    @pytest.mark.parametrize("place", ("header", "last-row", "after-bad-header"))
    @pytest.mark.parametrize("command", (["validate"], ["solve", "--five-sixths"]))
    def test_undecodable_byte_is_an_error(self, tmp_path, capsys, command, place, pad):
        # UnicodeDecodeError is a ValueError; validate must not report it as
        # an invalid instance.  pad blank lines put a byte in the last row
        # past the first chunks the decoder reads, and the codec error still
        # wins over a bad header read before it
        rows = [b"maxtsp v1 3 matrix", b"0 1 1", b"1 0 1", b"1 1 0"]
        if place == "header":
            rows[0] = b"maxtsp v1 3 matr\xffix"
        else:
            rows[3] = b"1 1 \xff0"
        if place == "after-bad-header":
            rows[0] = b"maxtsp v2 3 matrix"
        data = rows[0] + b"\n" * (1 + pad) + b"\n".join(rows[1:]) + b"\n"
        path = tmp_path / "inst.txt"
        path.write_bytes(data)
        assert main([command[0], str(path), *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8")
        if pad:
            # the position counts from the start of the chunk being decoded
            assert re.fullmatch(
                r"error: 'utf-8' codec can't decode byte 0xff in position \d+: invalid start byte\n",
                captured.err,
            )
        else:
            assert captured.err == f"error: {whole.value}\n"

    @pytest.mark.parametrize(
        "norm, dim, matrix",
        (("euclidean", 2, True), ("euclidean", 2, False), ("chebyshev", 12, False)),
        ids=("matrix", "euclidean-2", "chebyshev-12"),
    )
    def test_validate_peak_stays_under_three_matrices(
        self, tmp_path, capsys, monkeypatch, norm, dim, matrix
    ):
        # the file is read line by line, the points' differences exist
        # one row block at a time, the instance adopts the parsed or
        # computed matrix, and the metric check holds block-sized scratch
        # only: 1.46 to 1.55 matrices here.  A whole read, or all n x n x
        # d differences at once, peaks at 4.9 to 25 matrices; a copy in
        # the instance and the whole square of gaps took 2.42 to 2.51.
        # Two workers fix the metric check's scratch (a chunk buffer, an
        # accumulator and a block of gaps each) on any host, and the
        # untraced first call loads the thread pool.
        n = 600
        monkeypatch.setattr(maxtsp.metricspace, "_cpus", lambda: 2)
        inst = Instance.from_points(np.random.default_rng(7).uniform(size=(n, dim)), norm)
        path = write_instance(tmp_path, Instance(inst.dist) if matrix else inst)
        assert main(["validate", path]) == 0
        tracemalloc.start()
        try:
            assert main(["validate", path]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "result: pass" in capsys.readouterr().out
        assert peak <= 2 * n * n * 8


def test_import_leaves_networkx_unloaded():
    src = str(Path(maxtsp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, maxtsp; print('networkx' in sys.modules)"],
        capture_output=True, text=True, encoding="utf-8", env=env, check=True,
    )
    assert out.stdout.strip() == "False"


def test_repeated_main_calls_match_fresh_processes(tmp_path, capsys):
    # the parser is built once per process: errors in between must leave
    # every later call as a fresh process would see it
    path = write_instance(tmp_path, random_metric(7, 3))
    argvs = [
        ["solve", path, "--algoA", "0.5", "--out", "json"],
        ["solve", path, "--exact", "--bogus"],
        ["solve", path, "--eptas", "0.1"],
        ["validate", path],
        ["solve", path, "--asymptotic"],
        ["solve", path, "--algoA", "0.5", "--out", "json"],
        ["bench", "--family", "line", "--n-list", "5", "--seeds", "1", "--solver", "nope"],
        ["validate", path],
    ]
    in_process = []
    for argv in argvs:
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        in_process.append((rc, captured.out, captured.err))
    src = str(Path(maxtsp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    fresh = []
    for argv in argvs:
        proc = subprocess.run(
            [sys.executable, "-m", "maxtsp", *argv], capture_output=True, text=True,
            encoding="utf-8", env=env,
        )
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert in_process == fresh
    assert [rc for rc, _, _ in fresh] == [0, 2, 2, 0, 2, 0, 2, 0]


class TestSolve:
    def test_algoa_json(self, tmp_path, capsys):
        path = write_instance(tmp_path, equilateral(6))
        rc = main(["solve", path, "--algoA", "0.5", "--out", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["weight"] == 6.0
        assert sorted(payload["tour"]) == list(range(6))
        cert = payload["certificate"]
        assert cert["branch"] == "algorithm-A"
        assert cert["certified"] is True
        assert cert["k_after_gluing"] == 1

    def test_asymptotic_json_parameters(self, tmp_path, capsys):
        inst = generate(GeneratorSpec(family="line", n=12, seed=4))
        path = write_instance(tmp_path, inst)
        rc = main(["solve", path, "--asymptotic", "--dim", "1", "--out", "json"])
        assert rc == 0
        cert = json.loads(capsys.readouterr().out)["certificate"]
        assert cert["branch"] == "algorithm-A"
        assert cert["delta"] == pytest.approx(0.8735804647362989)
        assert cert["claimed_bound"] == pytest.approx(1.0 - 0.8007820926749406)

    def test_exact_matches_brute_force(self, tmp_path, capsys):
        inst = random_metric(7, 13)
        path = write_instance(tmp_path, inst)
        rc = main(["solve", path, "--exact", "--out", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["weight"] == pytest.approx(brute_force_tour(inst).weight, rel=1e-12)
        assert payload["certificate"]["claimed_bound"] == 1.0

    def test_five_sixths_text(self, tmp_path, capsys):
        path = write_instance(tmp_path, random_metric(8, 2))
        rc = main(["solve", path, "--five-sixths"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "tour:" in out
        assert "weight:" in out
        assert "branch = five-sixths" in out
        assert "claimed_bound = " in out

    def test_uncertified_run_warns(self, tmp_path, capsys):
        # plan prescribes the exact branch, instance exceeds the DP cap
        path = write_instance(tmp_path, random_metric(24, 0))
        rc = main(["solve", path, "--eptas", "0.05", "--dim", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("*** certified = false")
        assert "branch = algorithm-A" in out

    def test_eptas_requires_dim(self, tmp_path, capsys):
        path = write_instance(tmp_path, equilateral(5))
        with pytest.raises(SystemExit) as exc:
            main(["solve", path, "--eptas", "0.1"])
        assert exc.value.code == 2

    def test_asymptotic_requires_dim(self, tmp_path, capsys):
        path = write_instance(tmp_path, equilateral(5))
        with pytest.raises(SystemExit) as exc:
            main(["solve", path, "--asymptotic"])
        assert exc.value.code == 2
        assert "error: --asymptotic requires --dim" in capsys.readouterr().err

    def test_solver_flags_are_exclusive(self, tmp_path, capsys):
        path = write_instance(tmp_path, equilateral(5))
        with pytest.raises(SystemExit) as exc:
            main(["solve", path, "--exact", "--five-sixths"])
        assert exc.value.code == 2

    def test_missing_solver_flag(self, tmp_path, capsys):
        path = write_instance(tmp_path, equilateral(5))
        with pytest.raises(SystemExit) as exc:
            main(["solve", path])
        assert exc.value.code == 2

    def test_unknown_flag(self, tmp_path, capsys):
        path = write_instance(tmp_path, equilateral(5))
        with pytest.raises(SystemExit) as exc:
            main(["solve", path, "--exact", "--bogus"])
        assert exc.value.code == 2

    def test_asymmetric_file_message(self, tmp_path, capsys):
        path = tmp_path / "asym.txt"
        path.write_text("maxtsp v1 3 matrix\n0 1 1\n1.5 0 1\n1 1 0\n", encoding="utf-8")
        message = "symmetry violation at pair (0, 1): dist[0][1]=1.0 vs dist[1][0]=1.5"
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().out == f"invalid: {message}\n"
        assert main(["solve", str(path), "--algoA", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_bad_delta_reports_error(self, tmp_path, capsys):
        path = write_instance(tmp_path, equilateral(5))
        rc = main(["solve", path, "--algoA", "1.5"])
        assert rc == 1
        assert "delta" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        ((["--algoA", "1.5"], "delta must be in (0, 1), got 1.5"),
         (["--eptas", "0", "--dim", "1"], "epsilon must be in (0, 1), got 0.0"),
         (["--five-sixths", "--dim", "-1"], "dim must be non-negative, got -1.0")),
        ids=("delta", "epsilon", "dim"),
    )
    def test_flags_are_checked_before_the_file_is_opened(self, tmp_path, capsys, flags, message):
        # a missing file would be reported if it were opened first
        rc = main(["solve", str(tmp_path / "missing.txt"), *flags])
        assert rc == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_missing_dim_is_reported_before_the_file_is_opened(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(tmp_path / "missing.txt"), "--eptas", "0.1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: --eptas requires --dim" in err
        assert "missing.txt" not in err

    def test_checks_that_need_n_come_after_the_file(self, tmp_path, capsys):
        # the DP cap needs n: a missing file is reported first, a loaded
        # file too large for the DP after it is read
        missing = str(tmp_path / "missing.txt")
        assert main(["solve", missing, "--exact"]) == 1
        assert "No such file" in capsys.readouterr().err
        path = write_instance(tmp_path, line_instance(25, seed=0))
        assert main(["solve", path, "--exact"]) == 1
        assert capsys.readouterr() == ("", "error: exact DP capped at 20 vertices, got 25\n")

    @pytest.mark.parametrize(
        "flags",
        (["--eptas", "0.1"], ["--asymptotic"], ["--algoA", "0.3"], ["--exact"],
         ["--five-sixths"]),
    )
    @pytest.mark.parametrize("dim", ("nan", "-1"))
    @pytest.mark.parametrize("out", ("json", "text"))
    def test_dim_must_be_non_negative(self, tmp_path, capsys, flags, dim, out):
        path = write_instance(tmp_path, line_instance(30, seed=0))
        rc = main(["solve", path, *flags, "--dim", dim, "--out", out])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: dim must be non-negative, got {float(dim)}\n"

    @pytest.mark.parametrize(
        "flags, branch",
        ((["--eptas", "0.01", "--dim", "200"], "algorithm-A"),
         (["--asymptotic", "--dim", "1e4"], "five-sixths")),
    )
    def test_overflowing_threshold_saturates(self, tmp_path, capsys, flags, branch):
        path = write_instance(tmp_path, line_instance(30, seed=0))
        rc = main(["solve", path, *flags, "--out", "json"])
        assert rc == 0
        cert = json.loads(capsys.readouterr().out)["certificate"]
        assert cert["branch"] == branch
        assert cert["certified"] is (branch == "five-sixths")
        assert float(cert["n_threshold"]) == float("inf")

    @pytest.mark.parametrize("n, dim", FLOAT_BOUNDARY)
    def test_asymptotic_float_boundary_runs_the_fallback(self, tmp_path, capsys, n, dim):
        path = write_instance(tmp_path, line_instance(n, seed=0))
        rc = main(["solve", path, "--asymptotic", "--dim", repr(dim), "--out", "json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["certificate"]["branch"] == "five-sixths"

    @pytest.mark.parametrize(
        "flags, key",
        ((["--eptas", "0.01", "--dim", "200"], "n_threshold"),
         (["--algoA", "0.3", "--dim", "inf"], "dim")),
    )
    def test_json_writes_infinity_as_a_string(self, tmp_path, capsys, flags, key):
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        path = write_instance(tmp_path, line_instance(30, seed=0))
        assert main(["solve", path, *flags, "--out", "json"]) == 0
        cert = json.loads(capsys.readouterr().out, parse_constant=reject)["certificate"]
        assert cert[key] == "inf"


def matrix_file(tmp_path, value, n=5):
    rows = [" ".join("0" if i == j else repr(value) for j in range(n)) for i in range(n)]
    path = tmp_path / "matrix.txt"
    path.write_text(f"maxtsp v1 {n} matrix\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


def points_file(tmp_path, coords, norm="euclidean"):
    path = tmp_path / "points.txt"
    body = "\n".join(repr(c) for c in coords)
    path.write_text(f"maxtsp v1 {len(coords)} points\nnorm {norm} dim 1\n{body}\n", encoding="utf-8")
    return str(path)


class TestOutOfRangeNumbers:
    # the suite turns numpy RuntimeWarnings into errors, so each case also
    # checks that no overflow or inf - inf warning escapes
    @pytest.mark.parametrize(
        "make, message",
        ((lambda tmp: points_file(tmp, [1e308, -1e308, 0.0]), "non-finite"),
         (lambda tmp: points_file(tmp, [1.7e308, -1.7e308, 0.0], "chebyshev"), "non-finite"),
         (lambda tmp: points_file(tmp, [math.inf, -1.0, 0.0]), "non-finite"),
         (lambda tmp: matrix_file(tmp, math.inf), "non-finite"),
         (lambda tmp: matrix_file(tmp, 1e308), "distances too large")),
    )
    @pytest.mark.parametrize("command", (["solve", "--algoA", "0.5"], ["validate"]))
    def test_rejected_without_warnings(self, tmp_path, capsys, make, message, command):
        path = make(tmp_path)
        assert main([command[0], path, *command[1:]]) == 1
        captured = capsys.readouterr()
        assert message in captured.out + captured.err

    @pytest.mark.parametrize(
        "coords, message",
        (([0.0, math.nan, 1.0], "points contain non-finite coordinates"),
         ([1e308, -1e308, 0.0], "distance matrix contains non-finite entries")),
    )
    def test_coordinate_and_matrix_messages(self, tmp_path, capsys, coords, message):
        path = points_file(tmp_path, coords)
        assert main(["validate", path]) == 1
        assert capsys.readouterr().out == f"invalid: {message}\n"
        assert main(["solve", path, "--five-sixths"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("dim", ("0", "-2"))
    def test_dimension_below_one_is_named_at_its_line(self, tmp_path, capsys, dim):
        # the rows would fit dim 1; the norm line is rejected before they are read
        path = tmp_path / "points.txt"
        path.write_text(f"maxtsp v1 3 points\nnorm euclidean dim {dim}\n0\n1\n2\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().out == f"invalid: bad coordinate dimension '{dim}'\n"
        assert main(["solve", str(path), "--five-sixths"]) == 1
        assert capsys.readouterr().err == f"error: bad coordinate dimension '{dim}'\n"

    @pytest.mark.parametrize(
        "header, n",
        (("maxtsp v1 1000000 matrix", 1000000),
         ("maxtsp v1 1000000000000 points\nnorm euclidean dim 1", 1000000000000),
         # past numpy's own size limit, which it reports as a ValueError
         ("maxtsp v1 10000000000 matrix", 10000000000)),
        ids=("matrix", "points", "matrix-past-numpy-limit"),
    )
    def test_a_header_too_large_for_memory_names_n(self, tmp_path, capsys, header, n):
        path = tmp_path / "huge.txt"
        path.write_text(header + "\n0 1 1\n", encoding="utf-8")
        width = 1 if "points" in header else n
        message = f"vertex count {n} is too large: {n} x {width} floats do not fit in memory"
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr() == (f"invalid: {message}\n", "")
        assert main(["solve", str(path), "--five-sixths"]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("flags", (["--five-sixths"], ["--exact"], ["--algoA", "0.5"]))
    def test_coordinates_whose_squares_overflow_solve(self, tmp_path, capsys, flags):
        # distances 2e200 and 1e200 are finite although their squares are not
        path = points_file(tmp_path, [1e200, -1e200, 0.0])
        assert main(["solve", path, *flags, "--out", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["weight"] == 4e200

    @pytest.mark.parametrize(
        "flags",
        (["--algoA", "0.5"], ["--five-sixths"], ["--exact"],
         ["--eptas", "0.05", "--dim", "1"], ["--asymptotic", "--dim", "0.5"]),
    )
    def test_largest_finite_scale_solves(self, tmp_path, capsys, flags):
        for value in (1e300, sys.float_info.max / 5):
            path = matrix_file(tmp_path, value)
            assert main(["solve", path, *flags, "--out", "json"]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["weight"] == pytest.approx(5 * value, rel=1e-12)
            assert out["certificate"]["certified"] is True


class TestBench:
    def test_table_shape_and_oracle_column(self, capsys):
        rc = main(
            [
                "bench",
                "--family", "line",
                "--n-list", "9,12",
                "--seeds", "2",
                "--solver", "algoA:0.5",
                "--dim", "1",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split() == [
            "n", "seed", "weight_cover", "k_initial", "k_final",
            "weight_tour", "claimed_bound", "ratio_cover", "ratio_opt",
        ]
        assert len(lines) == 5
        for row in lines[1:]:
            cells = row.split()
            assert int(cells[4]) <= 8
            ratio_cover = float(cells[7])
            assert 0.0 < ratio_cover <= 1.0 + 1e-9
            assert 0.0 < float(cells[8]) <= 1.0 + 1e-9

    def test_exact_solver_has_no_cover_columns(self, capsys):
        rc = main(
            [
                "bench",
                "--family", "random-metric",
                "--n-list", "6",
                "--seeds", "1",
                "--solver", "exact",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        cells = lines[1].split()
        assert cells[2] == "-" and cells[3] == "-" and cells[4] == "-"
        assert float(cells[8]) == pytest.approx(1.0)

    @pytest.mark.parametrize("solver", ("exact", "eptas:0.05"))
    def test_exact_dp_tour_is_its_own_oracle(self, capsys, monkeypatch, solver):
        # both solvers take the exact-dp branch at n = 8, so bench reuses
        # their tour and runs the DP once a row
        calls = []
        real = maxtsp.exact.held_karp_max

        def counting(inst):
            calls.append(inst.n)
            return real(inst)

        for module in (maxtsp.cli, maxtsp.exact):
            monkeypatch.setattr(module, "held_karp_max", counting)
        rc = main(
            ["bench", "--family", "random-metric", "--n-list", "8", "--seeds", "2",
             "--solver", solver, "--dim", "1"]
        )
        assert rc == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert [float(row.split()[8]) for row in rows] == [1.0, 1.0]
        assert calls == [8, 8]

    def test_no_oracle_above_the_dp_cap(self, capsys):
        rc = main(
            ["bench", "--family", "line", "--n-list", "20,21", "--seeds", "1",
             "--solver", "five-sixths"]
        )
        assert rc == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert 0.0 < float(rows[0].split()[8]) <= 1.0 + 1e-9
        assert rows[1].split()[8] == "-"

    def test_unknown_solver_spec(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                ["bench", "--family", "line", "--n-list", "6", "--seeds", "1",
                 "--solver", "anneal"]
            )
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "spec, flag", (("eptas:0.1", "eptas:<eps>"), ("asymptotic", "asymptotic"))
    )
    def test_solver_requires_dim(self, capsys, spec, flag):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--family", "line", "--n-list", "6", "--seeds", "1",
                  "--solver", spec])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: --solver {flag} requires --dim" in captured.err

    @pytest.mark.parametrize("spec", ("eptas:0.1", "asymptotic", "algoA:0.5", "exact"))
    def test_dim_must_be_non_negative(self, capsys, spec):
        rc = main(["bench", "--family", "line", "--n-list", "6", "--seeds", "1",
                   "--solver", spec, "--dim", "nan"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: dim must be non-negative, got nan\n"

    def test_overflowing_threshold_saturates(self, capsys):
        rc = main(["bench", "--family", "line", "--n-list", "30", "--seeds", "1",
                   "--solver", "eptas:0.01", "--dim", "300"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        # uncertified pipeline run: the chain bound, not 1 - eps
        assert float(lines[1].split()[6]) < 0.99

    @pytest.mark.parametrize("n, dim", FLOAT_BOUNDARY)
    def test_asymptotic_float_boundary_runs_the_fallback(self, capsys, n, dim):
        rc = main(["bench", "--family", "line", "--n-list", str(n), "--seeds", "1",
                   "--solver", "asymptotic", "--dim", repr(dim)])
        assert rc == 0
        # the claimed_bound column holds the 5/6 fallback's bound
        assert float(capsys.readouterr().out.splitlines()[1].split()[6]) == 5.0 / 6.0

    def test_empty_solver_parameter(self, capsys):
        rc = main(["bench", "--family", "line", "--n-list", "6", "--seeds", "1",
                   "--solver", "algoA:"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: could not convert string to float")

    @pytest.mark.parametrize(
        "n_list, seeds, message",
        (("6", "0", "--seeds must be at least 1, got 0"),
         ("6", "-2", "--seeds must be at least 1, got -2"),
         ("6,2", "1", "--n-list sizes must be at least 3, got 2")),
    )
    def test_empty_or_too_small_grid_is_rejected_before_the_header(
        self, capsys, n_list, seeds, message
    ):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--family", "line", "--n-list", n_list, "--seeds", seeds,
                  "--solver", "exact"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {message}" in captured.err

    def test_infinite_scale_is_rejected_before_the_header(self, capsys):
        rc = main(["bench", "--family", "line", "--n-list", "6", "--seeds", "1",
                   "--solver", "exact", "--scale", "inf"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: scale must be a positive finite number, got inf\n"

    @pytest.mark.parametrize(
        "n_list, spec, dim, message",
        (("6", "algoA:2", None, "delta must be in (0, 1), got 2.0"),
         ("6", "algoA:nan", None, "delta must be in (0, 1), got nan"),
         ("6", "eptas:1.5", "1", "epsilon must be in (0, 1), got 1.5"),
         ("6,25,30", "exact", None, "exact DP capped at 20 vertices, got 25")),
    )
    def test_out_of_range_parameter_is_rejected_before_the_header(
        self, capsys, n_list, spec, dim, message
    ):
        dim_flags = [] if dim is None else ["--dim", dim]
        rc = main(["bench", "--family", "line", "--n-list", n_list, "--seeds", "1",
                   "--solver", spec, *dim_flags])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_size_too_large_for_memory_is_an_error(self, capsys):
        # 10^6 vertices ask for a 7.28 TiB matrix, which fails to allocate
        rc = main(["bench", "--family", "random-metric", "--n-list", "1000000", "--seeds", "1",
                   "--solver", "algoA:0.5"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert out.splitlines() == [
            "n seed weight_cover k_initial k_final weight_tour claimed_bound ratio_cover ratio_opt"
        ]
        message = "vertex count 1000000 is too large: 1000000 x 1000000 floats do not fit in memory"
        assert err == f"error: {message}\n"

    def test_bad_n_list(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                ["bench", "--family", "line", "--n-list", "6,x", "--seeds", "1",
                 "--solver", "exact"]
            )
        assert exc.value.code == 2
