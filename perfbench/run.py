"""maxtsp benchmark: one closed-loop client sending real CLI requests.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each request is `maxtsp.cli.main(argv)`
called in this process with its output captured, on an instance file
written during set-up; the next request goes out when the previous one
has returned.  After each request the client times a fixed pure-Python
reference loop, and request times are reported in multiples of its
median over the nearest requests (unit "ref"): the host's speed drifts
by a fifth and more from one run to the next, and the quotient cancels
that drift.  Set-up (imports, instance generation, file writing) runs
3 to 9 times, each in a fresh process, and setup_s is the median; the
reference values for the checks are computed once more, untimed.  Every
output is checked after the timed loop.

--trace 0 prints the end-to-end metrics.  --trace 1 splits the time into
an untraced and a traced pass and prints the per-layer metrics, as means
per traced request, and the tracing overhead.  The last line of stdout is
the JSON result.
"""

from __future__ import annotations

import os

# Pin the numeric thread pools before anything can import numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import checker  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, plan  # noqa: E402

# Set-up runs at least SETUP_MIN_REPEATS times, and more while it has used
# less than SETUP_BUDGET_S, up to SETUP_MAX_REPEATS.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 9
SETUP_BUDGET_S = 5.0
SETUP_TIMEOUT_S = 120
# request_ref_tail is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10
# Iterations of the reference loop: about 10 ms, 1-5 % of a request.
REFERENCE_LOOPS = 100_000
# A request is divided by the median reference time of the requests up to
# this many places before and after it: one 10 ms loop jitters by 10-25 %,
# while the host's speed drifts over some ten seconds.
REFERENCE_WINDOW = 5


def provenance() -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version()}
    for dist in ("numpy", "networkx", "scipy"):
        try:
            info[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            info[dist] = None
    info["commit"] = None
    if (ROOT / ".git").exists():
        try:
            info["commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except OSError:
            pass
    return info


def set_up(workload: str, seed: int, work: Path, trace: bool, references: bool):
    """Run the timed set-up several times, each in a fresh process, then
    compute the reference values once, untimed.

    Returns (wall times, generate self times) of the timed set-ups.
    """
    base = [sys.executable, str(HERE / "prepare.py"), "--workload", workload,
            "--seed", str(seed), "--dir", str(work)]
    walls, generate_s = [], []
    while len(walls) < SETUP_MIN_REPEATS or (
        len(walls) < SETUP_MAX_REPEATS and sum(walls) < SETUP_BUDGET_S
    ):
        start = time.perf_counter()
        proc = subprocess.run(base + ["--trace", str(int(trace))], cwd=ROOT,
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        generate_s.append(json.loads(proc.stdout.splitlines()[-1])["generate_self_s"])
    if references:
        proc = subprocess.run(base + ["--references"], cwd=ROOT, capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"reference values failed:\n{proc.stderr}")
    return walls, generate_s


def call(cli, argv):
    """One request: (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crashing request is a failed request, not a crashed run
            traceback.print_exc()
            rc = -1
    if rc != 0:
        return rc, out.getvalue() + err.getvalue()
    return rc, out.getvalue()


def reference_s() -> float:
    """Seconds one fixed pure-Python loop takes now: the unit request
    times are divided by, so that a slower or faster host cancels out."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def argv_for(req, work: Path):
    return [str(work / a) if a == req.file else a for a in req.argv]


def run_pass(cli, requests, period, seconds, work, tracer=None):
    """Closed loop over whole periods of the request list for about `seconds`.

    Returns (samples, references) with one (request, seconds, rc, output)
    per request and the reference loop's time right after each request.
    """
    samples, references, periods, i = [], [], 0, 0
    start = time.perf_counter()
    while True:
        for _ in range(period):
            req = requests[i % len(requests)]
            argv = argv_for(req, work)
            if tracer is not None:
                tracer.request_id = i
            t0 = time.perf_counter()
            rc, out = call(cli, argv)
            samples.append((req, time.perf_counter() - t0, rc, out))
            references.append(reference_s())
            i += 1
        periods += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / periods > seconds:
            return samples, references


def check_samples(samples, work, refs):
    """Number of failed requests; prints the first few problems."""
    failed, matrices = 0, {}
    for req, _, rc, out in samples:
        ref = refs[req.file]
        if req.kind == "solve":
            if req.file not in matrices:
                matrices[req.file] = checker.read_matrix(work / req.file)
            problems = checker.check_solve(req.argv, rc, out, matrices[req.file], ref)
        else:
            problems = checker.check_validate(rc, out, ref)
        if problems:
            failed += 1
            if failed <= 5:
                print(f"FAILED {' '.join(req.argv)}: {'; '.join(problems)}")
    return failed


def tail(times):
    """(value, percentile, samples beyond) of the highest percentile that
    has TAIL_BEYOND samples beyond it, or of the maximum in a shorter run."""
    ordered = sorted(times)
    index = len(ordered) - 1 - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - 1 - index


def solve_summary(samples) -> dict:
    """Certificate figures over the successful solve outputs; the driver
    figures are shares of those solves."""
    certs = []
    for req, _, rc, out in samples:
        if req.kind == "solve" and rc == 0:
            certs.append(json.loads(out)["certificate"])
    if not certs:
        return {"solves": 0, **{name: 0.0 for name in SUMMARY_UNITS}}
    ratios = [c["weight_tour"] / c["weight_cover"] for c in certs if c["weight_cover"]]
    summary = {
        "solves": len(certs),
        "certified_frac": sum(c["certified"] for c in certs) / len(certs),
        "ratio_to_cover_mean": statistics.fmean(ratios) if ratios else 0.0,
        "ratio_to_cover_min": min(ratios) if ratios else 0.0,
        "claimed_bound_mean": statistics.fmean(c["claimed_bound"] for c in certs),
        "driver.uncertified": sum(not c["certified"] for c in certs) / len(certs),
    }
    for branch in ("exact-dp", "algorithm-A", "five-sixths"):
        key = "driver.branch_" + branch.replace("-", "_")
        summary[key] = sum(c["branch"] == branch for c in certs) / len(certs)
    return summary


def metric(value, unit):
    return {"value": value, "unit": unit}


def timings(samples, references) -> dict:
    """Request times in seconds and in reference loops ("ref")."""
    times = [s[1] for s in samples]
    w = REFERENCE_WINDOW
    quotients = [t / statistics.median(references[max(0, i - w):i + w + 1])
                 for i, t in enumerate(times)]
    return {
        "requests_per_s": len(times) / sum(times),
        "request_s_p50": statistics.median(times),
        "request_s_tail": tail(times)[0],
        "reference_s": statistics.median(references),
        "request_ref_mean": sum(times) / sum(references),
        "request_ref_p50": statistics.median(quotients),
        "request_ref_tail": tail(quotients)[0],
    }


def end_to_end(samples, references, setup_walls, peak_rss_mb):
    t = timings(samples, references)
    _, tail_pct, beyond = tail([s[1] for s in samples])
    print(f"requests: {len(samples)} taking {sum(s[1] for s in samples):.3f} s; "
          f"tail is p{tail_pct:.1f} with {beyond} samples beyond it")
    print(f"setup runs (s): {', '.join(f'{w:.3f}' for w in setup_walls)}")
    print("wall clock: " + ", ".join(f"{k} {t[k]:.4f}" for k in
                                     ("requests_per_s", "request_s_p50", "request_s_tail",
                                      "reference_s")))
    return {
        "setup_s": metric(statistics.median(setup_walls), "s"),
        "request_ref_mean": metric(t["request_ref_mean"], "ref"),
        "request_ref_p50": metric(t["request_ref_p50"], "ref"),
        "request_ref_tail": metric(t["request_ref_tail"], "ref"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


SUMMARY_UNITS = {
    "certified_frac": "ratio",
    "ratio_to_cover_mean": "ratio",
    "ratio_to_cover_min": "ratio",
    "claimed_bound_mean": "ratio",
    "driver.uncertified": "ratio",
    "driver.branch_exact_dp": "ratio",
    "driver.branch_algorithm_A": "ratio",
    "driver.branch_five_sixths": "ratio",
}


def per_layer(tracer, traced, traced_refs, untraced, untraced_refs, generate_s):
    """Per-layer metrics.  Calls, self times and work counts are means per
    traced request, over whole periods of the request list, so they measure
    the work of one request whatever the pass's length."""
    table = tracing.layer_table(tracer.spans)
    requests = len(traced)
    wall = sum(s[1] for s in traced)
    metrics = {}
    print(f"{'span':45s} {'calls':>7s} {'self_s':>10s} {'share':>7s}")
    for module, attr, _ in tracing.REQUEST_TARGETS:
        name = tracing.span_name(module, attr)
        row = table.get(name, {"calls": 0, "self_s": 0.0})
        print(f"{name:45s} {row['calls']:7d} {row['self_s']:10.4f} {row['self_s'] / wall:7.2%}")
        metrics[f"{name}.calls"] = metric(row["calls"] / requests, "count/req")
        metrics[f"{name}.self_s"] = metric(row["self_s"] / requests, "s/req")
    metrics["metricspace.generate.self_s"] = metric(statistics.median(generate_s), "s")
    for name, unit in tracing.COUNTERS.items():
        metrics[name] = metric(tracer.counters.get(name, 0) / requests, unit + "/req")
    attempts = table.get("corealgo.try_delta_gluing", {"calls": 0})["calls"]
    metrics["corealgo.gluing_yield"] = metric(
        tracer.counters.get("corealgo.merges", 0) / attempts if attempts else 0.0, "ratio")
    summary = solve_summary(untraced + traced)
    for name, unit in SUMMARY_UNITS.items():
        metrics[name] = metric(summary[name], unit)
    self_sum = sum(row["self_s"] for row in table.values())
    plain, on = timings(untraced, untraced_refs), timings(traced, traced_refs)
    rate_traced, rate_untraced = on["requests_per_s"], plain["requests_per_s"]
    overhead_ref = on["request_ref_mean"] - plain["request_ref_mean"]
    metrics.update({
        "wall.request_s_p50": metric(plain["request_s_p50"], "s"),
        "wall.request_s_tail": metric(plain["request_s_tail"], "s"),
        "wall.reference_s": metric(plain["reference_s"], "s"),
        "trace.requests": metric(requests, "count"),
        "trace.self_sum_share": metric(self_sum / wall, "ratio"),
        "trace.requests_per_s_untraced": metric(rate_untraced, "1/s"),
        "trace.requests_per_s_traced": metric(rate_traced, "1/s"),
        "trace.overhead_requests_per_s": metric(rate_traced - rate_untraced, "1/s"),
        "trace.overhead_ref_mean": metric(overhead_ref, "ref"),
        "trace.absent_names": metric(len(tracer.absent), "count"),
    })
    print(f"absent names: {', '.join(tracer.absent) or 'none'}")
    if tracer.hook_errors:
        print(f"hook errors: {dict(tracer.hook_errors)}")
    print(f"layer self times sum to {self_sum / wall:.4%} of request wall time; "
          f"tracing overhead {rate_traced - rate_untraced:+.4f} requests/s "
          f"({rate_untraced:.4f} untraced, {rate_traced:.4f} traced), "
          f"{overhead_ref:+.4f} ref a request")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "maxtsp" / "cli.py").is_file():
        print(f"error: no maxtsp sources under {SRC}", file=sys.stderr)
        return 2

    base = ROOT / ".perfbench_work"
    work = base / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        p = plan(args.workload, args.seed)
        setup_walls, generate_s = set_up(args.workload, args.seed, work, bool(args.trace),
                                         p.cover_refs)
        refs = json.loads((work / "refs.json").read_text(encoding="utf-8"))
        sys.path.insert(0, str(SRC))
        import maxtsp.cli as cli

        call(cli, argv_for(p.requests[0], work))  # warm-up, not timed
        if args.trace:
            untraced, untraced_refs = run_pass(cli, p.requests, p.period, args.seconds / 2, work)
            tracer = tracing.Tracer()
            tracer.install(tracing.REQUEST_TARGETS)
            try:
                traced, traced_refs = run_pass(cli, p.requests, p.period, args.seconds / 2,
                                               work, tracer)
            finally:
                tracer.uninstall()
            samples, references = untraced + traced, untraced_refs + traced_refs
        else:
            samples, references = run_pass(cli, p.requests, p.period, args.seconds, work)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed = check_samples(samples, work, refs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = provenance()
    print("provenance: " + json.dumps(info, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: failed {failed} of {len(samples)} "
          f"(failed_frac {failed / len(samples):.4f})")
    if args.trace:
        metrics = per_layer(tracer, traced, traced_refs, untraced, untraced_refs, generate_s)
        tracer.write(base / f"spans-{args.workload}-s{args.seed}.jsonl")
    else:
        metrics = end_to_end(samples, references, setup_walls, peak_rss_mb)
        summary = solve_summary(samples)
        if summary["solves"]:
            for name, value in summary.items():
                print(f"{name}: {value}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    result = {"correct": failed == 0, "attempted": len(samples), "failed": failed,
              "metrics": metrics}
    (base / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({**result, "provenance": info,
                    "samples": [[" ".join(r.argv), t, rc, ref]
                                for (r, t, rc, _), ref in zip(samples, references)]}),
        encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
