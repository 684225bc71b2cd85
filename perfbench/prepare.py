"""Set-up for one benchmark run, in processes of their own.

The timed step writes the workload's instance files with the program's
`generate` command, injects the planned triangle violations, and, for a
`validate` workload, writes the expected verdicts to refs.json.  It prints
one JSON line with the time `generate` spent, when traced.

The reference step (--references) runs once, untimed, for a `solve`
workload: it computes each instance's maximum cover weight and, for the
exact workload, a maximum tour, with scipy's HiGHS milp, and writes them
to refs.json.  The measured process therefore never imports scipy.

    python3 perfbench/prepare.py --workload NAME --seed N --dir DIR [--trace 1]
    python3 perfbench/prepare.py --workload NAME --seed N --dir DIR --references
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import maxtsp.cli  # noqa: E402

import tracer as tracing  # noqa: E402
from checker import read_matrix  # noqa: E402
from workloads import plan  # noqa: E402


def generate_file(spec, path: Path) -> None:
    argv = ["generate", "--family", spec.family, "--n", str(spec.n),
            "--seed", str(spec.seed), "--out", str(path)]
    if spec.d is not None:
        argv += ["--d", str(spec.d)]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = maxtsp.cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"generate {argv} exited with {rc}")


def inject_violation(clean: Path, bad: Path, seed: int) -> dict:
    """Copy a metric matrix file, raising one symmetric entry d[i,j] above
    min_k d[i,k] + d[k,j]; only rows i and j are parsed or rewritten."""
    lines = clean.read_text(encoding="utf-8").splitlines()
    n = int(lines[0].split()[2])
    # a seeded pair, never on the diagonal
    i = seed % n
    j = (i + 1 + (seed // n) % (n - 1)) % n
    row_i = [float(x) for x in lines[1 + i].split()]
    row_j = [float(x) for x in lines[1 + j].split()]
    via = {k: row_i[k] + row_j[k] for k in range(n) if k not in (i, j)}
    value = min(via.values()) + 0.1 * max(row_i)
    for r, c in ((i, j), (j, i)):
        row = lines[1 + r].split()
        row[c] = repr(value)
        lines[1 + r] = " ".join(row)
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"passed": False, "pair": [i, j], "witnesses": sorted(k for k, s in via.items() if s < value)}


def _max_two_factor(dist, connected: bool):
    """Weight of a maximum-weight 2-factor by scipy's HiGHS milp over the
    edge variables; with connected=True, subtour cuts are added until the
    2-factor is one cycle, so it is a maximum tour."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    n = dist.shape[0]
    iu, ju = np.triu_indices(n, 1)
    m = iu.size
    degree = coo_matrix(
        (np.ones(2 * m), (np.concatenate([iu, ju]), np.tile(np.arange(m), 2))), shape=(n, m)
    )
    constraints = [LinearConstraint(degree.tocsr(), 2, 2)]
    while True:
        res = milp(-dist[iu, ju], constraints=constraints, integrality=np.ones(m),
                   bounds=Bounds(0, 1), options={"mip_rel_gap": 0})
        if res.status != 0:
            raise RuntimeError(f"milp failed: {res.message}")
        chosen = res.x > 0.5
        if not np.all(np.bincount(np.concatenate([iu[chosen], ju[chosen]]), minlength=n) == 2):
            raise RuntimeError("milp solution is not a 2-factor")
        weight = float(dist[iu[chosen], ju[chosen]].sum())
        graph = coo_matrix((np.ones(int(chosen.sum())), (iu[chosen], ju[chosen])), shape=(n, n))
        parts, label = connected_components(graph, directed=False)
        if not connected or parts == 1:
            return weight
        # each cycle S gets the cut: at most |S| - 1 edges inside S
        for part in range(parts):
            inside = (label[iu] == part) & (label[ju] == part)
            size = int((label == part).sum())
            constraints.append(LinearConstraint(inside.astype(float), -np.inf, size - 1))


def max_cover_weight(dist) -> float:
    """Maximum-weight 2-factor (cycle cover) weight."""
    return _max_two_factor(dist, connected=False)


def max_tour_weight(dist) -> float:
    """Maximum tour weight: the 2-factor milp with subtour cuts."""
    return _max_two_factor(dist, connected=True)


def write_instances(p, work: Path, trace: bool) -> dict:
    """The timed set-up; returns the time `generate` spent when traced."""
    tracer = tracing.Tracer()
    if trace:
        tracer.install(tracing.SETUP_TARGETS)
    try:
        for spec in p.instances:
            if spec.inject_from is None:
                generate_file(spec, work / spec.file)
    finally:
        tracer.uninstall()
    refs = {}
    for spec in p.instances:
        if spec.inject_from is not None:
            refs[spec.file] = inject_violation(work / spec.inject_from, work / spec.file, spec.seed)
        else:
            refs[spec.file] = {"passed": True}
    if not p.cover_refs:
        (work / "refs.json").write_text(json.dumps(refs), encoding="utf-8")
    table = tracing.layer_table(tracer.spans)
    return {"generate_self_s": table.get("metricspace.generate", {}).get("self_s", 0.0)}


def write_references(p, work: Path) -> None:
    refs = {}
    for spec in p.instances:
        dist = read_matrix(work / spec.file)
        refs[spec.file] = {"cover": max_cover_weight(dist)}
        if p.tour_refs:
            refs[spec.file]["tour"] = max_tour_weight(dist)
    (work / "refs.json").write_text(json.dumps(refs), encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--references", action="store_true")
    args = parser.parse_args()
    work = Path(args.dir)
    p = plan(args.workload, args.seed)
    if args.references:
        write_references(p, work)
    else:
        print(json.dumps(write_instances(p, work, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
