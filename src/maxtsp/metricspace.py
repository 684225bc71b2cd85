"""Instance representation, metric validation, generation, and file I/O.

An :class:`Instance` is a complete weighted graph given by a symmetric
n x n distance matrix.  Solvers in this package assume the matrix is a
metric (triangle inequality within tolerance); :func:`validate_metric`
produces a report, and :func:`load_instance` runs it for you.
Instances are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

NORM_TAGS = ("euclidean", "manhattan", "chebyshev")
FAMILIES = ("line", "euclidean", "random-metric")

# Default absolute tolerance for metric checks is this factor times the
# largest distance in the matrix, with no floor: an all-zero matrix gets
# tolerance 0, which it meets exactly.
DEFAULT_TOL_FACTOR = 1e-9

# Row blocks of the min-plus triangle check hold about this many entries,
# so a block and its scratch buffer stay in cache across the pass over k.
_BLOCK_ENTRIES = 1 << 16


class Instance:
    """A complete weighted graph on n points with a symmetric distance matrix.

    Attributes:
        n: vertex count (at least 3 for every solver entry point).
        dist: read-only float64 array of shape (n, n), zero diagonal.
        points: optional tuple of coordinate tuples the matrix came from.
        norm: norm tag for the points ("euclidean", "manhattan", "chebyshev").
        dim_hint: optional doubling-dimension upper bound supplied by the
            generator or the caller.  Never inferred; bound-certifying code
            treats every dimension-dependent guarantee as conditional on it.
    """

    __slots__ = ("_dist", "points", "norm", "dim_hint")

    def __init__(
        self,
        dist: np.ndarray,
        points: Optional[Sequence[Sequence[float]]] = None,
        norm: Optional[str] = None,
        dim_hint: Optional[float] = None,
    ):
        arr = np.array(dist, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {arr.shape}")
        n = arr.shape[0]
        if n < 3:
            raise ValueError(f"need at least 3 vertices, got {n}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("distance matrix contains non-finite entries")
        if np.any(arr < 0):
            i, j = np.argwhere(arr < 0)[0]
            raise ValueError(f"negative distance at ({i}, {j}): {arr[i, j]}")
        if np.any(np.diagonal(arr) != 0):
            i = int(np.flatnonzero(np.diagonal(arr))[0])
            raise ValueError(f"nonzero diagonal at ({i}, {i}): {arr[i, i]}")
        arr.setflags(write=False)
        self._dist = arr
        if points is not None:
            points = tuple(tuple(float(c) for c in p) for p in points)
            if len(points) != n:
                raise ValueError(f"{len(points)} points for a {n}x{n} matrix")
            if norm not in NORM_TAGS:
                raise ValueError(f"unknown norm tag {norm!r}")
        self.points = points
        self.norm = norm if points is not None else None
        self.dim_hint = None if dim_hint is None else float(dim_hint)

    @property
    def n(self) -> int:
        return self._dist.shape[0]

    @property
    def dist(self) -> np.ndarray:
        return self._dist

    def max_dist(self) -> float:
        return float(self._dist.max())

    def with_dim_hint(self, dim_hint: Optional[float]) -> "Instance":
        """Return a copy of this instance carrying a different dim_hint."""
        inst = Instance.__new__(Instance)
        inst._dist = self._dist
        inst.points = self.points
        inst.norm = self.norm
        inst.dim_hint = None if dim_hint is None else float(dim_hint)
        return inst

    def __repr__(self) -> str:
        return f"Instance(n={self.n}, norm={self.norm}, dim_hint={self.dim_hint})"


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters for :func:`generate`.

    family: "line", "euclidean", or "random-metric".
    n: point count, at least 3.
    d: coordinate dimension, euclidean family only.
    seed: RNG seed; generation is deterministic for a fixed spec.
    scale: positive coordinate range.
    """

    family: str
    n: int
    seed: int
    d: Optional[int] = None
    scale: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 3:
            raise ValueError(f"n must be >= 3, got {self.n}")
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")
        if self.family == "euclidean":
            if self.d is None or self.d < 1:
                raise ValueError("euclidean family needs coordinate dimension d >= 1")


@dataclass
class MetricReport:
    """Result of :func:`validate_metric`.

    symmetry_violations lists the first 10 (i, j, |d_ij - d_ji|) pairs
    above tolerance in row-major order; symmetry_violation_count counts
    them all.
    max_triangle_violation is max over triples of d[i,j] - d[i,k] - d[k,j];
    a value <= tol means the triangle inequality holds within tolerance.
    worst_triple is the (i, j, k) attaining that maximum.
    """

    n: int
    tol: float
    symmetry_violations: list = field(default_factory=list)
    symmetry_violation_count: int = 0
    max_triangle_violation: float = 0.0
    worst_triple: Optional[tuple] = None
    passed: bool = True

    def summary(self) -> str:
        lines = [f"metric check: n={self.n} tol={self.tol!r}"]
        if self.symmetry_violations:
            for i, j, gap in self.symmetry_violations:
                lines.append(f"  symmetry violation at ({i}, {j}): |d_ij - d_ji| = {gap!r}")
            if self.symmetry_violation_count > 10:
                lines.append(f"  ... {self.symmetry_violation_count - 10} more")
        else:
            lines.append("  symmetry: ok")
        if self.worst_triple is not None:
            i, j, k = self.worst_triple
            lines.append(
                f"  max triangle violation: {self.max_triangle_violation!r} "
                f"at d[{i},{j}] vs d[{i},{k}] + d[{k},{j}]"
            )
        lines.append("  result: " + ("pass" if self.passed else "FAIL"))
        return "\n".join(lines)


def default_tol(dist: np.ndarray) -> float:
    """1e-9 times the largest distance; 0.0 for an all-zero matrix."""
    return DEFAULT_TOL_FACTOR * float(dist.max())


def check_tol(tol: float) -> float:
    """tol as a float; ValueError unless it is a non-negative number."""
    tol = float(tol)
    if not tol >= 0.0:  # also rejects NaN
        raise ValueError(f"tol must be a non-negative number, got {tol!r}")
    return tol


def _min_plus_square(d: np.ndarray, symmetric: bool) -> np.ndarray:
    """S[i, j] = min over k of d[i, k] + d[k, j], in float64 arithmetic.

    Rows are filled in blocks of about _BLOCK_ENTRIES entries (one block
    of all n rows when d is smaller), with one add and one minimum per
    (block, k) into buffers sized to the block and allocated up front.  On a
    symmetric d, S is symmetric too (float addition commutes), so each
    block fills only the columns from its first row onward and copies the
    rest from the transpose of the blocks above it.
    """
    n = d.shape[0]
    rows = min(n, max(1, _BLOCK_ENTRIES // n))
    s = np.empty_like(d)
    scratch = np.empty(rows * n)
    for r0 in range(0, n, rows):
        r1 = min(n, r0 + rows)
        c0 = r0 if symmetric else 0
        block = s[r0:r1, c0:]
        tmp = scratch[: block.size].reshape(block.shape)
        np.add(d[r0:r1, :1], d[:1, c0:], out=block)
        for k in range(1, n):
            np.add(d[r0:r1, k : k + 1], d[k : k + 1, c0:], out=tmp)
            np.minimum(block, tmp, out=block)
        if symmetric:
            s[r0:r1, :r0] = s[:r0, r0:r1].T
    return s


def _first_worst_triple(d: np.ndarray, worst: float, rows: np.ndarray):
    """(gap, (i, j, k)) for the smallest k, then the first (i, j) in
    row-major order, with gap = d[i, j] - (d[i, k] + d[k, j]) == worst.

    rows lists, ascending, the rows that hold a pair attaining worst; no
    other row can hold the triple.  They are scanned in blocks of about
    _BLOCK_ENTRIES gaps (no larger than the rows themselves), each block
    only over the k below the best found in the blocks before it.
    """
    n = d.shape[0]
    step = max(1, min(rows.size, _BLOCK_ENTRIES // n))
    gap = np.empty((step, n))
    hit = np.empty((step, n), dtype=bool)
    best = None
    for c in range(0, rows.size, step):
        chunk = rows[c : c + step]
        block = d[chunk]
        g, h = gap[: chunk.size], hit[: chunk.size]
        for k in range(n if best is None else best[1][2]):
            np.add(block[:, k : k + 1], d[k : k + 1, :], out=g)
            np.subtract(block, g, out=g)
            np.equal(g, worst, out=h)
            r, j = divmod(int(np.argmax(h)), n)
            if h[r, j]:
                best = float(g[r, j]), (int(chunk[r]), j, k)
                break
    return best


def validate_metric(inst: Instance, tol: Optional[float] = None) -> MetricReport:
    """Check symmetry and the triangle inequality within tolerance.

    tol is an absolute slack; when omitted it defaults to 1e-9 times the
    largest distance (0 on an all-zero matrix).  A NaN or negative tol
    raises ValueError; otherwise the report never raises and callers
    decide what a failure means.

    The triangle check is a min-plus pass: S[i, j] = min_k fl(d[i, k] +
    d[k, j]), then max_triangle_violation = max_ij fl(d[i, j] - S[i, j]).
    Rounded subtraction is monotone, so fl(d[i, j] - S[i, j]) equals
    max_k fl(d[i, j] - fl(d[i, k] + d[k, j])) exactly, and the maximum is
    the one a loop over every triple would find, bit for bit.  worst_triple
    is (i, j, k) for the smallest k attaining that maximum and, within that
    k, the first (i, j) in row-major order; the value reported is that
    triple's own gap, so even the sign of a zero matches the loop.
    """
    d = inst.dist
    n = inst.n
    tol = default_tol(d) if tol is None else check_tol(tol)
    report = MetricReport(n=n, tol=tol)

    asym = d - d.T
    np.abs(asym, out=asym)
    bad = np.triu(asym > tol, k=1)
    report.symmetry_violation_count = int(np.count_nonzero(bad))
    # the first 10 pairs lie in the first 10 rows holding any
    bad_rows = np.flatnonzero(bad.any(axis=1))[:10]
    for r, j in np.argwhere(bad[bad_rows])[:10]:
        i = bad_rows[r]
        report.symmetry_violations.append((int(i), int(j), float(asym[i, j])))
    del bad
    symmetric = not asym.any()
    del asym

    gaps = _min_plus_square(d, symmetric)
    np.subtract(d, gaps, out=gaps)
    worst = gaps.max()
    rows = np.flatnonzero((gaps == worst).any(axis=1))
    del gaps
    worst, triple = _first_worst_triple(d, worst, rows)
    report.max_triangle_violation = worst
    report.worst_triple = triple
    report.passed = not report.symmetry_violation_count and worst <= tol
    return report


def pairwise_distances(points: Sequence[Sequence[float]], norm: str) -> np.ndarray:
    """Dense pairwise distance matrix for the given norm tag."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array-like")
    diff = pts[:, None, :] - pts[None, :, :]
    if norm == "euclidean":
        d = np.sqrt((diff * diff).sum(axis=2))
    elif norm == "manhattan":
        d = np.abs(diff).sum(axis=2)
    elif norm == "chebyshev":
        d = np.abs(diff).max(axis=2)
    else:
        raise ValueError(f"unknown norm tag {norm!r}")
    np.fill_diagonal(d, 0.0)
    # symmetrize to kill last-bit asymmetry from float evaluation order
    return np.minimum(d, d.T)


def _closure(raw: np.ndarray) -> np.ndarray:
    """Shortest-path closure; repeats sweeps until a float fixed point.

    At the fixed point d[i,j] <= d[i,k] + d[k,j] holds under exact float
    comparison for every triple, so the result validates at tol = 0.
    """
    d = raw.copy()
    n = d.shape[0]
    for _ in range(n):
        before = d.copy()
        for k in range(n):
            np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :], out=d)
        if np.array_equal(before, d):
            break
    return d


def generate(spec: GeneratorSpec) -> Instance:
    """Build a deterministic random instance of the requested family.

    line: collinear points, dim_hint 1 (a half-length interval around any
    point covers each half of any interval, so the doubling bound is exact).
    euclidean: uniform points in [0, scale]^d, dim_hint ceil(2.3*d + 1),
    a documented safe upper bound used only for diagnostics.
    random-metric: symmetric uniform weights repaired by shortest-path
    closure; no dim_hint.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.family == "line":
        xs = rng.uniform(0.0, spec.scale, size=spec.n)
        points = [(float(x),) for x in xs]
        dist = pairwise_distances(points, "euclidean")
        return Instance(dist, points=points, norm="euclidean", dim_hint=1.0)
    if spec.family == "euclidean":
        pts = rng.uniform(0.0, spec.scale, size=(spec.n, spec.d))
        points = [tuple(float(c) for c in row) for row in pts]
        dist = pairwise_distances(points, "euclidean")
        return Instance(
            dist, points=points, norm="euclidean", dim_hint=float(math.ceil(2.3 * spec.d + 1))
        )
    # random-metric
    raw = rng.uniform(0.1 * spec.scale, spec.scale, size=(spec.n, spec.n))
    raw = (raw + raw.T) / 2.0
    np.fill_diagonal(raw, 0.0)
    return Instance(_closure(raw))


def estimate_doubling(inst: Instance, levels: int = 3) -> float:
    """Empirical doubling-dimension estimate via greedy half-radius covers.

    For sampled centers and a ladder of radii, greedily cover each ball
    with balls of half the radius (farthest-first center choice) and
    return log2 of the largest cover seen.  Diagnostic only; no bound in
    this package is certified from this value.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    d = inst.dist
    n = inst.n
    r_max = float(d.max())
    if r_max == 0.0:
        return 0.0
    centers = np.unique(np.linspace(0, n - 1, num=min(n, 64)).astype(int))
    worst = 1
    for c in centers:
        for j in range(levels):
            r = r_max / (2.0**j)
            ball = np.flatnonzero(d[c] <= r)
            covered = np.zeros(ball.size, dtype=bool)
            count = 0
            # farthest-first: repeatedly cover the uncovered point farthest
            # from the ball center with a half-radius ball around it
            dc = d[c][ball]
            while not covered.all():
                cand = np.flatnonzero(~covered)
                p = cand[int(np.argmax(dc[cand]))]
                covered |= d[ball[p]][ball] <= r / 2.0
                count += 1
            worst = max(worst, count)
    return math.log2(worst)


def dump_instance(inst: Instance) -> str:
    """Serialize to the text format; decimal fields use shortest round-trip form.

    Points mode is used when coordinates are present, matrix mode otherwise.
    """
    if inst.points is not None:
        dims = {len(p) for p in inst.points}
        d = dims.pop()
        lines = [f"maxtsp v1 {inst.n} points", f"norm {inst.norm} dim {d}"]
        lines += [" ".join(repr(c) for c in p) for p in inst.points]
    else:
        lines = [f"maxtsp v1 {inst.n} matrix"]
        lines += [" ".join(repr(float(x)) for x in row) for row in inst.dist]
    return "\n".join(lines) + "\n"


def parse_instance(text: str, tol: Optional[float] = None) -> Instance:
    """Parse the text format without the O(n^3) triangle check.

    Raises ValueError on malformed input, on n < 3, and, in matrix mode,
    on an asymmetric pair above tolerance.  :func:`load_instance` adds
    the full metric check.  A NaN or negative tol raises ValueError.
    """
    sym_tol = None if tol is None else check_tol(tol)
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty instance file")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "maxtsp" or header[1] != "v1":
        raise ValueError(f"bad header {lines[0]!r}, expected 'maxtsp v1 <n> <mode>'")
    try:
        n = int(header[2])
    except ValueError:
        raise ValueError(f"bad vertex count {header[2]!r}") from None
    mode = header[3]
    if n < 3:
        raise ValueError(f"need at least 3 vertices, got {n}")

    if mode == "matrix":
        body = lines[1:]
        if len(body) != n:
            raise ValueError(f"expected {n} matrix rows, got {len(body)}")
        try:
            rows = [[float(x) for x in ln.split()] for ln in body]
        except ValueError as exc:
            raise ValueError(f"bad matrix entry: {exc}") from None
        if any(len(r) != n for r in rows):
            raise ValueError(f"matrix rows must have {n} entries")
        dist = np.array(rows, dtype=np.float64)
        if sym_tol is None:
            sym_tol = default_tol(np.abs(dist))
        asym = np.abs(dist - dist.T)
        bad = np.argwhere(np.triu(asym > sym_tol, k=1))
        if bad.size:
            i, j = (int(v) for v in bad[0])
            raise ValueError(
                f"symmetry violation at pair ({i}, {j}): "
                f"dist[{i}][{j}]={dist[i, j]!r} vs dist[{j}][{i}]={dist[j, i]!r}"
            )
        inst = Instance(dist)
    elif mode == "points":
        if len(lines) < 2:
            raise ValueError("points mode needs a 'norm <tag> dim <d>' line")
        norm_line = lines[1].split()
        if len(norm_line) != 4 or norm_line[0] != "norm" or norm_line[2] != "dim":
            raise ValueError(f"bad norm line {lines[1]!r}")
        norm = norm_line[1]
        if norm not in NORM_TAGS:
            raise ValueError(f"unknown norm tag {norm!r}")
        try:
            d = int(norm_line[3])
        except ValueError:
            raise ValueError(f"bad coordinate dimension {norm_line[3]!r}") from None
        body = lines[2:]
        if len(body) != n:
            raise ValueError(f"expected {n} point rows, got {len(body)}")
        try:
            pts = [[float(x) for x in ln.split()] for ln in body]
        except ValueError as exc:
            raise ValueError(f"bad coordinate: {exc}") from None
        if any(len(p) != d for p in pts):
            raise ValueError(f"point rows must have {d} coordinates")
        inst = Instance(pairwise_distances(pts, norm), points=pts, norm=norm)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return inst


def metric_violation(report: MetricReport) -> str:
    """One-line description of a failed report's first violation."""
    if report.symmetry_violations:
        i, j, gap = report.symmetry_violations[0]
        return f"symmetry violation at pair ({i}, {j}), magnitude {gap!r}"
    i, j, k = report.worst_triple
    return (
        f"triangle inequality violated by {report.max_triangle_violation!r} "
        f"at triple ({i}, {j}) via {k}"
    )


def load_instance(text: str, tol: Optional[float] = None) -> Instance:
    """Parse the text format and validate the result.

    Raises ValueError on malformed input, on n < 3, and on any metric-axiom
    violation above tolerance (the message names the offending pair or
    triple and the magnitude).
    """
    inst = parse_instance(text, tol)
    report = validate_metric(inst, tol)
    if not report.passed:
        raise ValueError(metric_violation(report))
    return inst
