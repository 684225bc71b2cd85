"""Checks on the program's outputs, written apart from the code under test.

Each check recomputes what it needs from the instance file with this
module's own reader and from reference values computed in set-up, and
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional, Sequence

import numpy as np

REL_TOL = 1e-9


def read_matrix(path) -> np.ndarray:
    """Distance matrix of a `maxtsp v1` file (matrix mode, or euclidean points)."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [ln.split() for ln in fh if ln.strip()]
    n, mode = int(rows[0][2]), rows[0][3]
    if mode == "matrix":
        return np.array(rows[1 : 1 + n], dtype=np.float64)
    if rows[1][1] != "euclidean":
        raise ValueError(f"unsupported norm {rows[1][1]!r}")
    pts = np.array(rows[2 : 2 + n], dtype=np.float64)
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def tour_weight(dist: np.ndarray, order: Sequence[int]) -> float:
    order = list(order)
    return float(sum(dist[a, b] for a, b in zip(order, order[1:] + order[:1])))


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def at_least(a: float, b: float) -> bool:
    """a >= b up to relative float noise."""
    return a >= b - REL_TOL * max(abs(a), abs(b))


def solver_flags(argv: Sequence[str]) -> Dict[str, Optional[float]]:
    """The solver mode of a `solve` argv: {"mode": ..., "param": ..., "dim": ...}."""
    flags: Dict[str, Optional[float]] = {"mode": None, "param": None, "dim": None}
    args = list(argv)
    for i, tok in enumerate(args):
        if tok in ("--algoA", "--eptas"):
            flags["mode"], flags["param"] = tok[2:], float(args[i + 1])
        elif tok in ("--asymptotic", "--five-sixths", "--exact"):
            flags["mode"] = tok[2:]
        elif tok == "--dim":
            flags["dim"] = float(args[i + 1])
    return flags


def chain_bound(delta: float, k: int, n: int) -> float:
    return 1.0 - (2.0 / 3.0) * delta - k / n


def expected_claim(flags, n: int, cert: dict) -> List[str]:
    """Problems with the certificate's claimed_bound and certified flag."""
    problems = []
    branch, claimed = cert["branch"], cert["claimed_bound"]
    mode, param, dim = flags["mode"], flags["param"], flags["dim"]
    if branch == "exact-dp":
        want = 1.0
    elif branch == "five-sixths":
        want = 5.0 / 6.0
    elif branch == "algorithm-A":
        delta, k = cert["delta"], cert["k_after_gluing"]
        if mode == "algoA" and not close(delta, param):
            problems.append(f"delta {delta!r} differs from the requested {param!r}")
        if mode == "eptas" and not close(delta, (12.0 / 11.0) * param):
            problems.append(f"eptas ran the pipeline at delta {delta!r}, not (12/11)*eps")
        if mode == "eptas" and cert["certified"]:
            threshold = ((11.0 / 6.0) / param) ** (2.0 * dim + 1.0)
            if n <= threshold:
                problems.append(f"certified pipeline run at n={n} <= n(eps)={threshold!r}")
            want = 1.0 - param
        elif mode == "asymptotic":
            if n <= 2.0 ** (2.0 * dim + 1.0):
                problems.append(f"asymptotic pipeline run at n={n} <= 2^(2*dim+1)")
            want = 1.0 - (11.0 / 6.0) / n ** (1.0 / (2.0 * dim + 1.0))
        else:
            want = chain_bound(delta, k, n)
    else:
        return [f"unknown branch {branch!r}"]
    if not close(claimed, want):
        problems.append(f"claimed_bound {claimed!r} but the {branch} formula gives {want!r}")
    return problems


def check_solve(argv: Sequence[str], rc: int, out: str, dist: np.ndarray, ref: dict) -> List[str]:
    """Problems with one `solve --out json` output.

    ref holds the instance's maximum cover weight from an independent
    engine, under "cover", and for exact solves the weight of a maximum
    tour from the same engine, under "tour".
    """
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        payload = json.loads(out)
        order, weight, cert = payload["tour"], payload["weight"], payload["certificate"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    n = dist.shape[0]
    if sorted(order) != list(range(n)):
        return ["tour is not a permutation of 0..n-1"]
    problems = []
    real = tour_weight(dist, order)
    if not close(weight, real):
        problems.append(f"weight {weight!r} but the tour weighs {real!r}")
    if not close(cert["weight_tour"], weight):
        problems.append(f"certificate weight_tour {cert['weight_tour']!r} != weight {weight!r}")
    problems += expected_claim(solver_flags(argv), n, cert)

    cover, ref_cover = cert.get("weight_cover"), ref["cover"]
    if cover is not None:
        if not at_least(cover, real):
            problems.append(f"tour weight {real!r} exceeds cover weight {cover!r}")
        if not close(cover, ref_cover):
            problems.append(f"cover weight {cover!r} but the maximum cover weighs {ref_cover!r}")
    if cert["branch"] == "algorithm-A" and cover is not None:
        floor = chain_bound(cert["delta"], cert["k_after_gluing"], n) * cover
        if not at_least(real, floor):
            problems.append(f"tour {real!r} below the gluing guarantee {floor!r}")
    if cert["branch"] == "five-sixths" and cover is not None:
        if not at_least(real, (5.0 / 6.0) * cover):
            problems.append(f"tour {real!r} below 5/6 of the cover {cover!r}")
    if cert["branch"] == "exact-dp":
        # the reference tour is a real tour, so an optimum weighs at least as much
        if not at_least(real, ref["tour"]):
            problems.append(f"exact tour {real!r} lighter than the reference tour {ref['tour']!r}")
        if not at_least(ref_cover, real):
            problems.append(f"exact tour {real!r} exceeds the maximum cover {ref_cover!r}")
    return problems


_PAIR = re.compile(r"\((\d+),\s*(\d+)(?:,\s*(\d+))?\)(?:\s+via\s+(\d+))?")


def check_validate(rc: int, out: str, ref: dict) -> List[str]:
    """Problems with one `validate` output.

    ref is {"passed": True} for a metric file, or {"passed": False,
    "pair": [i, j], "witnesses": [k, ...]} for a file with one injected
    violation d[i,j] > d[i,k] + d[k,j].
    """
    if ref["passed"]:
        return [] if rc == 0 else [f"metric file rejected, exit code {rc}: {out.strip()!r}"]
    if rc == 0:
        return ["injected violation passed validation"]
    match = _PAIR.search(out)
    if match is None:
        return [f"violation reported without its pair: {out.strip()!r}"]
    a, b = int(match.group(1)), int(match.group(2))
    problems = []
    if {a, b} != set(ref["pair"]):
        problems.append(f"reported pair ({a}, {b}), injected {tuple(ref['pair'])}")
    k = match.group(3) or match.group(4)
    if k is not None and int(k) not in ref["witnesses"]:
        problems.append(f"reported via {k}, which does not violate the triangle")
    return problems
