"""Command-line interface: solve, generate, validate, bench."""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional

from .corealgo import algorithm_A
from .driver import asymptotic, eptas, eptas_plan
from .exact import HELD_KARP_CAP, check_dp_size, exact_dp, held_karp_max
from .merge import kostochka_serdyukov_56
from .metricspace import (
    FAMILIES,
    GeneratorSpec,
    check_delta,
    check_dim,
    check_tol,
    dump_instance,
    generate,
    load_instance,
    metric_violation,
    parse_instance,
    validate_metric,
)

# Solver name -> spec as bench --solver takes it; solve selects the same
# solvers by the flags --<name>.
SOLVER_SPECS = {
    "algoA": "algoA:<delta>",
    "eptas": "eptas:<eps>",
    "asymptotic": "asymptotic",
    "exact": "exact",
    "five-sixths": "five-sixths",
}


# Building the parser costs about ten times parsing one command line, and
# parsing leaves the parser unchanged, so one process builds it once.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxtsp",
        description="Metric maximum traveling salesman solver with certified bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("file")
    mode = p_solve.add_mutually_exclusive_group(required=True)
    mode.add_argument("--eptas", type=float, metavar="EPS", help="target accuracy in (0,1)")
    mode.add_argument("--asymptotic", action="store_true", help="error shrinking with n")
    mode.add_argument("--algoA", type=float, metavar="DELTA", help="gluing pipeline at delta")
    mode.add_argument("--exact", action="store_true", help=f"exact DP (n <= {HELD_KARP_CAP})")
    mode.add_argument("--five-sixths", action="store_true", help="5/6 fallback")
    p_solve.add_argument("--dim", type=float, help="doubling-dimension upper bound")
    p_solve.add_argument("--out", choices=("json", "text"), default="text")

    p_gen = sub.add_parser("generate", help="write a generated instance file")
    p_gen.add_argument("--family", required=True, choices=FAMILIES)
    p_gen.add_argument("--n", required=True, type=int)
    p_gen.add_argument("--d", type=int, help="coordinate dimension (euclidean)")
    p_gen.add_argument("--seed", required=True, type=int)
    p_gen.add_argument("--scale", type=float, default=1.0)
    p_gen.add_argument("--out", required=True)

    p_val = sub.add_parser("validate", help="metric validation report")
    p_val.add_argument("file")
    p_val.add_argument("--tol", type=float, default=None)

    p_bench = sub.add_parser("bench", help="benchmark table over (n, seed) cells")
    p_bench.add_argument("--family", required=True, choices=FAMILIES)
    p_bench.add_argument("--n-list", required=True, help="comma-separated sizes")
    p_bench.add_argument("--seeds", required=True, type=int)
    p_bench.add_argument("--solver", required=True, help=" | ".join(SOLVER_SPECS.values()))
    p_bench.add_argument("--dim", type=float)
    p_bench.add_argument("--d", type=int, help="coordinate dimension (euclidean)")
    p_bench.add_argument("--scale", type=float, default=1.0)
    return parser


def _solver(name: str, param, dim: Optional[float], parser, flag: str):
    """The function inst -> (Tour, Certificate) for one solver name.

    param is the delta of algoA or the epsilon of eptas, as given on the
    command line; the other solvers ignore it.  flag names the solver in
    the error raised when it needs --dim and has none; any dim given must
    be non-negative, whatever the solver.
    """
    if name in ("algoA", "eptas"):
        param = float(param)
    if name in ("eptas", "asymptotic") and dim is None:
        parser.error(f"{flag} requires --dim")
    if dim is not None:
        check_dim(dim)
    if name == "algoA":
        return lambda inst: algorithm_A(inst, param, dim)
    if name == "eptas":
        return lambda inst: eptas(inst, param, dim)
    if name == "asymptotic":
        return lambda inst: asymptotic(inst, dim)
    if name == "exact":
        return exact_dp
    return kostochka_serdyukov_56


def _cmd_solve(args, parser) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        inst = load_instance(fh)
    for name in SOLVER_SPECS:
        param = getattr(args, name.replace("-", "_"))
        if param is not None and param is not False:
            break
    tour, cert = _solver(name, param, args.dim, parser, f"--{name}")(inst)
    if args.out == "json":
        # strict JSON has no infinity: write the token to_text() prints
        certificate = {
            key: repr(value) if isinstance(value, float) and math.isinf(value) else value
            for key, value in cert.to_dict().items()
        }
        payload = {"tour": list(tour.order), "weight": tour.weight, "certificate": certificate}
        print(json.dumps(payload, allow_nan=False))
    else:
        if not cert.certified:
            print("*** certified = false: this run carries no accuracy guarantee "
                  "beyond its cover-relative bound ***")
        print("tour:", " ".join(str(v) for v in tour.order))
        print("weight:", repr(tour.weight))
        print(cert.to_text())
    return 0


def _cmd_generate(args) -> int:
    spec = GeneratorSpec(
        family=args.family, n=args.n, seed=args.seed, d=args.d, scale=args.scale
    )
    inst = generate(spec)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(dump_instance(inst))
    print(f"wrote {args.out}: family={args.family} n={args.n} seed={args.seed}")
    return 0


def _cmd_validate(args) -> int:
    if args.tol is not None:
        check_tol(args.tol)
    with open(args.file, "r", encoding="utf-8") as fh:
        try:
            inst = parse_instance(fh, tol=args.tol)
        except UnicodeDecodeError:
            raise  # a file that is not UTF-8 is an error, not an invalid instance
        except ValueError as exc:
            print(f"invalid: {exc}")
            return 1
    report = validate_metric(inst, tol=args.tol)
    if not report.passed:
        print(f"invalid: {metric_violation(report)}")
        return 1
    print(report.summary())
    return 0


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _cmd_bench(args, parser) -> int:
    try:
        sizes = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    except ValueError:
        parser.error(f"bad --n-list {args.n_list!r}")
    if not sizes:
        parser.error("empty --n-list")
    if min(sizes) < 3:
        parser.error(f"--n-list sizes must be at least 3, got {min(sizes)}")
    if args.seeds < 1:
        parser.error(f"--seeds must be at least 1, got {args.seeds}")
    name, _, param = args.solver.partition(":")
    if name not in SOLVER_SPECS:
        parser.error(f"unknown solver spec {args.solver!r}")
    run = _solver(name, param, args.dim, parser, f"--solver {SOLVER_SPECS[name]}")
    specs = [
        GeneratorSpec(family=args.family, n=n, seed=seed, d=args.d, scale=args.scale)
        for n in sizes
        for seed in range(args.seeds)
    ]
    # the solver's own range errors, raised before any output
    if name == "algoA":
        check_delta(float(param))
    elif name == "eptas":
        eptas_plan(sizes[0], float(param), args.dim)
    elif name == "exact":
        for n in sizes:
            check_dp_size(n)
    columns = (
        "n seed weight_cover k_initial k_final weight_tour "
        "claimed_bound ratio_cover ratio_opt"
    )
    print(columns)
    sys.stdout.flush()
    for spec in specs:
        inst = generate(spec)
        tour, cert = run(inst)
        ratio_cover = tour.weight / cert.weight_cover if cert.weight_cover else None
        ratio_opt = None
        if spec.n <= HELD_KARP_CAP:
            # an exact-dp certificate already carries the optimum
            opt = tour if cert.branch == "exact-dp" else held_karp_max(inst)
            ratio_opt = tour.weight / opt.weight if opt.weight else None
        row = [
            spec.n,
            spec.seed,
            cert.weight_cover,
            cert.k_initial,
            cert.k_after_gluing,
            tour.weight,
            cert.claimed_bound,
            ratio_cover,
            ratio_opt,
        ]
        print(" ".join(_fmt(v) for v in row))
        sys.stdout.flush()
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args, parser)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_bench(args, parser)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
