"""Instance representation, metric validation, generation, and file I/O.

An :class:`Instance` is a complete weighted graph given by an n x n
distance matrix, symmetric by construction.  Solvers in this package
assume it is a metric (triangle inequality within tolerance);
:func:`validate_metric` produces a report, and :func:`load_instance`
runs it for you.  Instances are immutable after construction.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

NORM_TAGS = ("euclidean", "manhattan", "chebyshev")
FAMILIES = ("line", "euclidean", "random-metric")

# Default absolute tolerance for metric checks is this factor times the
# largest distance in the matrix, with no floor: an all-zero matrix gets
# tolerance 0, which it meets exactly.
DEFAULT_TOL_FACTOR = 1e-9

# parse_instance splits the text in pieces of about this many characters.
_PARSE_CHUNK = 1 << 16

# Scratch buffers hold at most about this many float64 entries (512 KiB):
# the sums of one chunk of k values in the min-plus triangle check, and
# one row block's coordinate differences in pairwise_distances.
_BLOCK_ENTRIES = 1 << 16
# Row blocks of the min-plus triangle check hold about this many entries,
# so a block stays in cache while its chunks of k are folded into it.
_ROW_BLOCK_ENTRIES = 1 << 13
# Min-plus blocks at least this many columns wide run with numpy's ufunc
# buffer at 16 entries, narrower ones with a buffer of one k's sums: on
# one core the two break even at 40 to 44 columns for a square block, the
# buffered copy takes a 24-point check about 30 % less time, and wide
# blocks unbuffered take a 600-point check about half the time.
_UNBUFFERED_MIN_COLUMNS = 40


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


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@contextmanager
def _unbuffered(size: int = 16) -> Iterator[None]:
    """Run the body with numpy's ufunc buffer at size entries, a multiple
    of 16; by default its smallest legal size.

    numpy copies a broadcast operand through that buffer when the inner
    loop is shorter than the buffer; at 16 entries, loops at least that
    long read it in place.  The setting lives in a contextvar, so a thread pool worker
    must enter this itself; the caller's size is restored on exit.
    """
    old = np.setbufsize(size)
    try:
        yield
    finally:
        np.setbufsize(old)


def _min_plus_square(d: np.ndarray) -> np.ndarray:
    """S[i, j] = min over k of d[i, k] + d[k, j], in float64 arithmetic.

    Rows are filled in blocks of about _ROW_BLOCK_ENTRIES entries (one
    block of all n rows when n <= 90).  d must be exactly symmetric, as an
    instance matrix is; then so is S (float addition commutes), so each
    block fills only the columns from its first row onward, and the rest
    is copied from the transpose once every block is done.

    A block takes the k values in chunks whose sums fit a scratch buffer
    of at most _BLOCK_ENTRIES entries: one broadcast add writes the
    chunk's sums d[i, k] + d[k, j], one minimum-reduce over k folds them
    into a block-sized accumulator, and one minimum folds that into the
    block; the first chunk reduces straight into the block.  Up to n = 40
    the whole pass is one add and one reduce.  np.minimum settles a tie
    between -0.0 and 0.0 the same way in every call, and the reduce runs
    over k in order, so each entry is the minimum of the same float sums
    in the same order as a loop over one k at a time takes it: S is that
    loop's, bit for bit, whatever the chunk and block shapes.  (numpy
    reduces a lone column in SIMD lanes, out of order, so a one-column
    block takes one k at a time.)  Where a pair of d holds -0.0 and 0.0,
    a mirrored entry can differ from the loop's in the sign of a zero,
    which no caller reads.

    The blocks write disjoint parts of S, so they run on a thread pool,
    handed out widest first; numpy releases the GIL on blocks this
    large.  It has one worker per CPU the process may run on, but no more
    workers than blocks or than n^2 / _BLOCK_ENTRIES, so that their
    scratch buffers together stay within about one n x n matrix.  Every
    n below 363 runs on one worker, in the calling thread.  Blocks of at
    least _UNBUFFERED_MIN_COLUMNS columns run under :func:`_unbuffered`,
    because under numpy's default buffer the broadcast add copies its
    operands through that buffer; narrower blocks are faster with the
    copy, through a buffer of one k's sums, which also keeps numpy's
    iterator buffers that small.
    """
    n = d.shape[0]
    rows = min(n, max(1, _ROW_BLOCK_ENTRIES // n))
    starts = range(0, n, rows)
    s = np.empty_like(d)

    def fill(r0: int) -> None:
        block = s[r0 : r0 + rows, r0:]
        h, w = block.shape
        step = max(1, _BLOCK_ENTRIES // (h * w)) if w > 1 else 1
        sums = np.empty((min(step, n), h, w))
        part = np.empty((h, w)) if step < n else None
        # left[k, i] = d[r0 + i, k], the first operand of every sum
        left = d[r0 : r0 + rows].T
        size = 16 if w >= _UNBUFFERED_MIN_COLUMNS else -(-h * w // 16) * 16
        with _unbuffered(size):
            for k0 in range(0, n, step):
                chunk = sums[: n - k0]  # the last chunk may be shorter
                np.add(left[k0 : k0 + step, :, None], d[k0 : k0 + step, None, r0:], out=chunk)
                if k0 == 0:
                    np.minimum.reduce(chunk, axis=0, out=block)
                else:
                    np.minimum.reduce(chunk, axis=0, out=part)
                    np.minimum(block, part, out=block)

    workers = min(len(starts), _cpus(), max(1, n * n // _BLOCK_ENTRIES))
    if workers == 1:
        for r0 in starts:
            fill(r0)
    else:
        # imported here: it loads logging, which one-worker callers never need
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            # list() waits for every block and re-raises a worker's error
            list(pool.map(fill, starts))
    for r0 in starts:
        s[r0 : r0 + rows, :r0] = s[:r0, r0 : r0 + rows].T
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

    Rows are computed in blocks whose n x n x d differences hold about
    _BLOCK_ENTRIES entries (at least one row), so the only n x n arrays
    are the result and its symmetrized copy.  Each block evaluates the
    whole-array formula on its rows, reducing over the coordinates of
    each pair as that formula does, so every entry is bit-identical to it.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array-like")
    if norm not in NORM_TAGS:
        raise ValueError(f"unknown norm tag {norm!r}")
    n, dim = pts.shape
    rows = max(1, min(n, _BLOCK_ENTRIES // max(1, n * dim)))
    d = np.empty((n, n))
    diff = np.empty((rows, n, dim))
    with np.errstate(over="ignore"):
        if norm == "euclidean":
            e = math.frexp(float((pts.max(axis=0) - pts.min(axis=0)).max(initial=0.0)))[1]
        for r0 in range(0, n, rows):
            out = d[r0 : r0 + rows]
            block = diff[: len(out)]
            np.subtract(pts[r0 : r0 + rows, None, :], pts[None, :, :], out=block)
            if norm == "euclidean":
                np.ldexp(block, -e, out=block)
                np.multiply(block, block, out=block)
                block.sum(axis=2, out=out)
                np.sqrt(out, out=out)
                np.ldexp(out, e, out=out)
            else:
                np.abs(block, out=block)
                (block.sum if norm == "manhattan" else block.max)(axis=2, out=out)
    diff = block = None  # free the buffer before the n x n minimum below
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


def _text_pieces(text: str) -> Iterator[str]:
    """text in pieces of about _PARSE_CHUNK characters, each cut after a newline."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _PARSE_CHUNK)
        end = len(text) if end < 0 else end + 1
        yield text[start:end]
        start = end


def _nonblank_lines(source: Union[str, Iterable[str]]) -> Iterator[str]:
    """The stripped nonblank lines of source, one at a time.

    source is the text itself, cut by :func:`_text_pieces` so that no
    second copy of the whole text is made, or a text-mode file, which
    gives its own lines.  Every piece ends at a line break and goes
    through str.splitlines, so the lines are those of splitlines() on the
    whole text; a file's newline translation turns CRLF and CR into LF,
    which splitlines reads as the same single break.
    """
    for piece in _text_pieces(source) if isinstance(source, str) else source:
        for line in piece.splitlines():
            line = line.strip()
            if line:
                yield line


def _float_rows(lines: Iterator[str], n: int, what: str, entry: str) -> Iterator[Tuple[int, List[float]]]:
    """The rest of the lines, n expected, as (index, floats) pairs.

    After the last line it raises ValueError when the line count is not
    n, else when a value did not parse.  No line after a bad one, or
    after the n-th, is parsed.
    """
    count = 0
    bad: Optional[ValueError] = None
    for line in lines:
        if bad is None and count < n:
            try:
                values = list(map(float, line.split()))
            except ValueError as exc:
                bad = exc
            else:
                yield count, values
        count += 1
    if count != n:
        raise ValueError(f"expected {n} {what}, got {count}")
    if bad is not None:
        raise ValueError(f"{entry}: {bad}")


def parse_instance(source: Union[str, Iterable[str]], tol: Optional[float] = None) -> Instance:
    """Parse the text format without the O(n^3) triangle check.

    source is the text, or a text-mode file open for reading, which is
    read one line at a time and never whole; either gives the same
    instance or the same error.

    Raises ValueError on malformed input, on n < 3, and, in matrix mode,
    on an asymmetric pair above tolerance (by default 1e-9 times the
    largest magnitude).  Asymmetry within tolerance is folded away by the
    elementwise minimum of the matrix and its transpose, as
    :func:`pairwise_distances` does.  :func:`load_instance` adds the
    triangle check.  A NaN or negative tol raises ValueError.  A file
    that cannot be decoded raises its UnicodeDecodeError, a ValueError
    too, before any other error: on an early error the rest of the file
    is still read, as it was when files were read whole.
    """
    sym_tol = None if tol is None else check_tol(tol)
    lines = _nonblank_lines(source)
    try:
        return _parse_lines(lines, sym_tol)
    except ValueError:
        if not isinstance(source, str):
            # an undecodable byte further on is reported instead
            for _ in lines:
                pass
        raise


def _parse_lines(lines: Iterator[str], sym_tol: Optional[float]) -> Instance:
    """The instance the nonblank lines describe; see :func:`parse_instance`."""
    first = next(lines, None)
    if first is None:
        raise ValueError("empty instance file")
    header = first.split()
    if len(header) != 4 or header[0] != "maxtsp" or header[1] != "v1":
        raise ValueError(f"bad header {first!r}, expected 'maxtsp v1 <n> <mode>'")
    try:
        n = int(header[2])
    except ValueError:
        raise ValueError(f"bad vertex count {header[2]!r}") from None
    mode = header[3]
    if n < 3:
        raise ValueError(f"need at least 3 vertices, got {n}")

    if mode == "matrix":
        # a bad entry in any row is reported before a row of the wrong length
        dist = np.empty((n, n))
        ragged = False
        for i, values in _float_rows(lines, n, "matrix rows", "bad matrix entry"):
            if len(values) == n:
                dist[i] = values
            else:
                ragged = True
        if ragged:
            raise ValueError(f"matrix rows must have {n} entries")
        _check_finite(dist)
        if sym_tol is None:
            sym_tol = default_tol(float(np.abs(dist).max()))
        if _check_symmetric(dist, sym_tol):
            dist = np.minimum(dist, dist.T)
        inst = Instance(dist)
    elif mode == "points":
        norm_text = next(lines, None)
        if norm_text is None:
            raise ValueError("points mode needs a 'norm <tag> dim <d>' line")
        norm_line = norm_text.split()
        if len(norm_line) != 4 or norm_line[0] != "norm" or norm_line[2] != "dim":
            raise ValueError(f"bad norm line {norm_text!r}")
        norm = norm_line[1]
        if norm not in NORM_TAGS:
            raise ValueError(f"unknown norm tag {norm!r}")
        try:
            d = int(norm_line[3])
        except ValueError:
            raise ValueError(f"bad coordinate dimension {norm_line[3]!r}") from None
        pts = [values for _, values in _float_rows(lines, n, "point rows", "bad coordinate")]
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


def load_instance(source: Union[str, Iterable[str]], tol: Optional[float] = None) -> Instance:
    """Parse the text format and validate the result.

    source is the text or a text-mode file, as :func:`parse_instance`
    takes it; a file is read to its end before the triangle check starts,
    and no text of it is alive during the check.

    Raises ValueError on malformed input, on n < 3, and on any metric-axiom
    violation above tolerance (the message names the offending pair or
    triple and, for a triple, the magnitude).
    """
    inst = parse_instance(source, tol)
    report = validate_metric(inst, tol)
    if not report.passed:
        raise ValueError(metric_violation(report))
    return inst
