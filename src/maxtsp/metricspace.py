"""Instance representation, metric validation, generation, and file I/O.

An :class:`Instance` is a complete weighted graph given by an n x n
distance matrix, symmetric by construction.  Solvers in this package
assume it is a metric (triangle inequality within tolerance);
:func:`validate_metric` produces a report, and :func:`load_instance`
runs it for you.  Instances are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

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
    """The metric: a complete weighted graph with a symmetric distance matrix.

    ``Instance(dist)`` takes the matrix alone; :meth:`from_points` derives
    it from coordinates.  A doubling-dimension bound goes to the solvers.

    Attributes:
        n: vertex count (at least 3 for every solver entry point).
        dist: read-only float64 array of shape (n, n), exactly symmetric
            (-0.0 and 0.0 count as equal), zero diagonal, finite
            non-negative entries whose largest times n is finite too.
        points: the coordinate tuples dist was computed from, or None.
        norm: their norm tag (one of NORM_TAGS), or None.
    """

    __slots__ = ("_dist", "_max", "points", "norm")

    def __init__(self, dist: np.ndarray):
        arr = np.array(dist, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {arr.shape}")
        n = arr.shape[0]
        if n < 3:
            raise ValueError(f"need at least 3 vertices, got {n}")
        _check_finite(arr)
        if np.any(arr < 0):
            i, j = np.argwhere(arr < 0)[0]
            raise ValueError(f"negative distance at ({i}, {j}): {arr[i, j]}")
        top = float(arr.max())
        # a tour or cover sums n distances, and that sum must stay finite
        if not math.isfinite(n * top):
            raise ValueError(f"distances too large: {n} * {top!r} overflows")
        if np.any(np.diagonal(arr) != 0):
            i = int(np.flatnonzero(np.diagonal(arr))[0])
            raise ValueError(f"nonzero diagonal at ({i}, {i}): {arr[i, i]}")
        _check_symmetric(arr, 0.0)
        arr.setflags(write=False)
        self._dist = arr
        self._max = top
        self.points = self.norm = None

    @classmethod
    def from_points(cls, points: Sequence[Sequence[float]], norm: str) -> "Instance":
        """The instance whose matrix is :func:`pairwise_distances` of points,
        which must be finite and share one coordinate count, at least 1.
        """
        points = tuple(tuple(float(c) for c in p) for p in points)
        dims = sorted({len(p) for p in points})
        if len(dims) != 1 or dims[0] < 1:
            raise ValueError(f"points must share one coordinate count >= 1, got {dims}")
        if not all(math.isfinite(c) for p in points for c in p):
            raise ValueError("points contain non-finite coordinates")
        inst = cls(pairwise_distances(points, norm))
        inst.points, inst.norm = points, norm
        return inst

    @property
    def n(self) -> int:
        return self._dist.shape[0]

    @property
    def dist(self) -> np.ndarray:
        return self._dist

    def max_dist(self) -> float:
        """The largest distance, computed once at construction."""
        return self._max

    def __repr__(self) -> str:
        return f"Instance(n={self.n}, norm={self.norm})"


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters for :func:`generate`.

    family: "line", "euclidean", or "random-metric".
    n: point count, at least 3.
    d: coordinate dimension, euclidean family only.
    seed: RNG seed; generation is deterministic for a fixed spec.
    scale: coordinate range, a positive finite number.
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
        if not 0 < self.scale < math.inf:  # also rejects NaN
            raise ValueError(f"scale must be a positive finite number, got {self.scale}")
        if self.family == "euclidean":
            if self.d is None or self.d < 1:
                raise ValueError("euclidean family needs coordinate dimension d >= 1")


@dataclass
class MetricReport:
    """Result of :func:`validate_metric`, the triangle check.

    Symmetry needs no report: every :class:`Instance` is symmetric, so
    summary() states it as a constant line.
    max_triangle_violation is max over triples of d[i,j] - (d[i,k] + d[k,j]),
    never below 0 (take k = i); a value <= tol means the triangle
    inequality holds within tolerance.  worst_triple is an (i, j, k)
    attaining that maximum: the first pair (i, j) in row-major order, then
    the smallest k.  A valid metric reports (0, 0, 0).
    """

    n: int
    tol: float
    max_triangle_violation: float
    worst_triple: Tuple[int, int, int]
    passed: bool

    def summary(self) -> str:
        i, j, k = self.worst_triple
        return "\n".join((
            f"metric check: n={self.n} tol={self.tol!r}",
            "  symmetry: ok",
            f"  max triangle violation: {self.max_triangle_violation!r} "
            f"at d[{i},{j}] vs d[{i},{k}] + d[{k},{j}]",
            "  result: " + ("pass" if self.passed else "FAIL"),
        ))


def _check_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError("distance matrix contains non-finite entries")


def _check_symmetric(dist: np.ndarray, tol: float) -> bool:
    """Whether any pair of dist differs from its mirror image.

    Raises ValueError naming the first pair i < j in row-major order with
    |dist[i, j] - dist[j, i]| > tol.  The float gaps are built only when
    some pair differs; -0.0 and 0.0 count as equal.
    """
    if not (dist != dist.T).any():
        return False
    over = np.abs(dist - dist.T) > tol
    if over.any():
        # over is symmetric, so its first entry in row-major order has i < j
        i, j = divmod(int(np.argmax(over)), dist.shape[0])
        raise ValueError(
            f"symmetry violation at pair ({i}, {j}): "
            f"dist[{i}][{j}]={float(dist[i, j])!r} vs dist[{j}][{i}]={float(dist[j, i])!r}"
        )
    return True


def default_tol(largest: float) -> float:
    """1e-9 times the largest distance; 0.0 for an all-zero matrix."""
    return DEFAULT_TOL_FACTOR * largest


def check_tol(tol: float) -> float:
    """tol as a float; ValueError unless it is a non-negative number."""
    tol = float(tol)
    if not tol >= 0.0:  # also rejects NaN
        raise ValueError(f"tol must be a non-negative number, got {tol!r}")
    return tol


def check_dim(dim: float) -> float:
    """dim as a float; ValueError unless it is a non-negative number."""
    dim = float(dim)
    if not dim >= 0.0:  # also rejects NaN
        raise ValueError(f"dim must be non-negative, got {dim}")
    return dim


def check_delta(delta: float, name: str = "delta") -> float:
    """delta as a float; ValueError, naming it name, unless 0 < delta < 1."""
    if not 0.0 < delta < 1.0:  # also rejects NaN
        raise ValueError(f"{name} must be in (0, 1), got {delta}")
    return float(delta)


def _min_plus_square(d: np.ndarray) -> np.ndarray:
    """S[i, j] = min over k of d[i, k] + d[k, j], in float64 arithmetic.

    Rows are filled in blocks of about _BLOCK_ENTRIES entries (one block
    of all n rows when d is smaller), with one add and one minimum per
    (block, k) into buffers sized to the block and allocated up front.  d
    must be exactly symmetric, as an instance matrix is; then so is S (float
    addition commutes), so each block fills only the columns from its first
    row onward and copies the rest from the transpose of the blocks above.
    """
    n = d.shape[0]
    rows = min(n, max(1, _BLOCK_ENTRIES // n))
    s = np.empty_like(d)
    scratch = np.empty(rows * n)
    for r0 in range(0, n, rows):
        r1 = min(n, r0 + rows)
        block = s[r0:r1, r0:]
        tmp = scratch[: block.size].reshape(block.shape)
        np.add(d[r0:r1, :1], d[:1, r0:], out=block)
        for k in range(1, n):
            np.add(d[r0:r1, k : k + 1], d[k : k + 1, r0:], out=tmp)
            np.minimum(block, tmp, out=block)
        s[r0:r1, :r0] = s[:r0, r0:r1].T
    return s


def validate_metric(inst: Instance, tol: Optional[float] = None) -> MetricReport:
    """Check the triangle inequality within tolerance.

    The instance is symmetric already, so this is the whole metric check.
    tol is an absolute slack; when omitted it defaults to 1e-9 times the
    largest distance (0 on an all-zero matrix).  A NaN or negative tol
    raises ValueError; otherwise the report never raises and callers
    decide what a failure means.

    The triangle check is a min-plus pass: S[i, j] = min_k fl(d[i, k] +
    d[k, j]), then max_triangle_violation = max_ij fl(d[i, j] - S[i, j]).
    Rounded subtraction is monotone, so fl(d[i, j] - S[i, j]) equals
    max_k fl(d[i, j] - fl(d[i, k] + d[k, j])) exactly, and the maximum is
    the one a loop over every triple would find, bit for bit.  The witness
    is the first worst pair (i, j) in row-major order and the smallest k
    with fl(d[i, k] + d[k, j]) = S[i, j]; such a k exists in both halves
    of the pass because d is exactly symmetric and float addition
    commutes.  The value reported is that triple's own gap, so even the
    sign of a zero matches the loop.
    """
    d = inst.dist
    tol = default_tol(inst.max_dist()) if tol is None else check_tol(tol)
    gaps = _min_plus_square(d)
    np.subtract(d, gaps, out=gaps)
    i, j = divmod(int(gaps.argmax()), inst.n)
    k = int(np.argmin(d[i] + d[:, j]))
    worst = float(d[i, j] - (d[i, k] + d[k, j]))
    return MetricReport(
        n=inst.n, tol=tol, max_triangle_violation=worst, worst_triple=(i, j, k),
        passed=worst <= tol,
    )


def pairwise_distances(points: Sequence[Sequence[float]], norm: str) -> np.ndarray:
    """Dense pairwise distance matrix for the given norm tag.

    Euclidean differences are scaled by 2^-e, 2^e just above the widest
    coordinate range, before they are squared, and the distances back by
    2^e: a power-of-two scaling is exact, so the squares cannot overflow
    and every distance that neither version overflows or underflows is
    bit-identical to the unscaled formula.  Distances too large for a
    float come out as inf, which :class:`Instance` rejects.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array-like")
    with np.errstate(over="ignore"):
        diff = pts[:, None, :] - pts[None, :, :]
        if norm == "euclidean":
            e = math.frexp(float((pts.max(axis=0) - pts.min(axis=0)).max(initial=0.0)))[1]
            np.ldexp(diff, -e, out=diff)
            d = np.sqrt((diff * diff).sum(axis=2))
            np.ldexp(d, e, out=d)
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
    """Shortest-path closure of a symmetric matrix with a zero diagonal.

    Min-plus squares raw until no entry drops, a float fixed point that
    validates at tol = 0.  That is the greatest matrix <= raw closed under
    rounded addition, as Floyd-Warshall sweeps to a fixed point also give:
    rounding is monotone, so each such matrix stays below every iterate.
    """
    d = raw
    while True:
        s = _min_plus_square(d)
        if not (s < d).any():
            return d
        d = s


def generate(spec: GeneratorSpec) -> Instance:
    """Build a deterministic random instance of the requested family.

    line: uniform points in [0, scale] (doubling dimension 1: a
    half-length interval around any point covers each half of any
    interval).  euclidean: uniform points in [0, scale]^d.  Both carry
    their points, under the euclidean norm.  random-metric: symmetric
    uniform weights repaired by shortest-path closure.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.family != "random-metric":
        d = 1 if spec.family == "line" else spec.d
        return Instance.from_points(rng.uniform(0.0, spec.scale, size=(spec.n, d)), "euclidean")
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
    r_max = inst.max_dist()
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
        lines = [f"maxtsp v1 {inst.n} points", f"norm {inst.norm} dim {len(inst.points[0])}"]
        lines += [" ".join(repr(c) for c in p) for p in inst.points]
    else:
        lines = [f"maxtsp v1 {inst.n} matrix"]
        lines += [" ".join(repr(float(x)) for x in row) for row in inst.dist]
    return "\n".join(lines) + "\n"


def parse_instance(text: str, tol: Optional[float] = None) -> Instance:
    """Parse the text format without the O(n^3) triangle check.

    Raises ValueError on malformed input, on n < 3, and, in matrix mode,
    on an asymmetric pair above tolerance (by default 1e-9 times the
    largest magnitude).  Asymmetry within tolerance is folded away by the
    elementwise minimum of the matrix and its transpose, as
    :func:`pairwise_distances` does.  :func:`load_instance` adds the
    triangle check.  A NaN or negative tol raises ValueError.
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
        del rows
        _check_finite(dist)
        if sym_tol is None:
            sym_tol = default_tol(float(np.abs(dist).max()))
        if _check_symmetric(dist, sym_tol):
            dist = np.minimum(dist, dist.T)
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
        inst = Instance.from_points(pts, norm)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return inst


def metric_violation(report: MetricReport) -> str:
    """One-line description of a failed report's worst violation."""
    i, j, k = report.worst_triple
    return (
        f"triangle inequality violated by {report.max_triangle_violation!r} "
        f"at triple ({i}, {j}) via {k}"
    )


def load_instance(text: str, tol: Optional[float] = None) -> Instance:
    """Parse the text format and validate the result.

    Raises ValueError on malformed input, on n < 3, and on any metric-axiom
    violation above tolerance (the message names the offending pair or
    triple and, for a triple, the magnitude).
    """
    inst = parse_instance(text, tol)
    report = validate_metric(inst, tol)
    if not report.passed:
        raise ValueError(metric_violation(report))
    return inst
