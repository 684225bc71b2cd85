"""Per-layer tracing from outside the program.

A Tracer wraps named public functions of the maxtsp modules, in every
maxtsp namespace that binds them, and records one span per call: name,
start, end, parent span and request id.  Spans stay in memory until the
run writes them out.  Hooks turn call arguments and return values into
work counts at the same boundaries.  A name missing from the program is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple


def _gadget(t, args, kwargs, result):
    t.count("matching.gadget_nodes", args[0].num_vertices)
    t.count("matching.gadget_edges", len(args[0].edges))


def _cover(t, args, kwargs, result):
    t.count("cyclecover.k_initial_sum", result.k)


def _glue(t, args, kwargs, result):
    t.count("corealgo.merges", 1 if result else 0)


def _combine(t, args, kwargs, result):
    t.count("merge.patch_merges", args[1].k - 1)


def _orientation(t, args, kwargs, result):
    t.count("merge.closings", 1)
    t.last_orientation_weight = result.weight


def _greedy(t, args, kwargs, result):
    # kostochka_serdyukov_56 keeps the greedy closing only when it is heavier
    if t.last_orientation_weight is not None and result.weight > t.last_orientation_weight:
        t.count("merge.greedy_closing_wins", 1)


def _held_karp(t, args, kwargs, result):
    n = args[0].n
    states = (1 << n) * n
    t.count("exact.dp_states", states)
    # float64 value table plus int8 parent table
    t.count("exact.dp_bytes", 9 * states)


def _validate(t, args, kwargs, result):
    t.count("metricspace.triples_checked", args[0].n ** 3)


def _load(t, args, kwargs, result):
    t.count("metricspace.bytes_parsed", len(args[0] if args else kwargs["text"]))


# (module, attribute path, hook).  The span name drops the "maxtsp." prefix
# and the class name, so Certificate.to_dict reports as certificate.to_dict.
REQUEST_TARGETS: Tuple[Tuple[str, str, Optional[Callable]], ...] = (
    ("maxtsp.cli", "main", None),
    ("maxtsp.certificate", "Certificate.to_dict", None),
    ("maxtsp.metricspace", "load_instance", _load),
    ("maxtsp.metricspace", "validate_metric", _validate),
    ("maxtsp.metricspace", "pairwise_distances", None),
    ("maxtsp.driver", "eptas", None),
    ("maxtsp.driver", "asymptotic", None),
    ("maxtsp.corealgo", "algorithm_A", None),
    ("maxtsp.corealgo", "select_E0", None),
    ("maxtsp.corealgo", "glue_once", _glue),
    ("maxtsp.corealgo", "try_delta_gluing", None),
    ("maxtsp.cyclecover", "max_weight_cycle_cover", _cover),
    ("maxtsp.cyclecover", "build_gadget", None),
    ("maxtsp.cyclecover", "decode_matching", None),
    ("maxtsp.matching", "max_weight_perfect_matching", _gadget),
    ("maxtsp.merge", "serdyukov_combine", _combine),
    ("maxtsp.merge", "kostochka_serdyukov_56", None),
    ("maxtsp.merge", "_best_orientation_tour", _orientation),
    ("maxtsp.merge", "_greedy_junction_tour", _greedy),
    ("maxtsp.exact", "held_karp_max", _held_karp),
)
SETUP_TARGETS = (("maxtsp.metricspace", "generate", None),)

# Work counts the hooks above fill, with their units.
COUNTERS = {
    "matching.gadget_nodes": "count",
    "matching.gadget_edges": "count",
    "cyclecover.k_initial_sum": "count",
    "corealgo.merges": "count",
    "merge.patch_merges": "count",
    "merge.closings": "count",
    "merge.greedy_closing_wins": "count",
    "exact.dp_states": "count",
    "exact.dp_bytes": "bytes",
    "metricspace.triples_checked": "count",
    "metricspace.bytes_parsed": "bytes",
}


def span_name(module: str, attr: str) -> str:
    return module.split(".", 1)[-1] + "." + attr.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        # each span is [name, start, end, parent index, request id]
        self.spans: List[list] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self.absent: List[str] = []
        self.hook_errors: Dict[str, int] = defaultdict(int)
        self.request_id: Optional[int] = None
        self.last_orientation_weight: Optional[float] = None
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    def count(self, name: str, amount: int) -> None:
        self.counters[name] += amount

    def install(self, targets) -> None:
        """Wrap every target in each maxtsp namespace (module or class) binding it."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "maxtsp" or key.startswith("maxtsp."))
        ]
        for module, attr, hook in targets:
            name = span_name(module, attr)
            owner = sys.modules.get(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, hook)
            owners = [owner] if path else modules
            for ns in owners:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patches):
            setattr(ns, key, original)
        self._patches.clear()

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, 0.0, 0.0, parent, tracer.request_id]
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if hook is not None:
                try:
                    hook(tracer, args, kwargs, result)
                except Exception:  # a changed signature must not end the run
                    tracer.hook_errors[name] += 1
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus its direct children's durations.

    Spans nest on one stack, so the direct children of a span never overlap.
    """
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] is not None:
            own[span[3]] -= span[2] - span[1]
    return own


def layer_table(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """{span name: {"calls": ..., "self_s": ...}} over all spans."""
    table: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        row = table[span[0]]
        row["calls"] += 1
        row["self_s"] += own
    return dict(table)
