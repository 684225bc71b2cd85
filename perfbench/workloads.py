"""The benchmark's workloads: which instance files to write and which
CLI requests to send, both derived from the workload seed alone.

Requests cycle the families in the order line, euclidean, random-metric.
A run sends whole periods of its request list, so every run sees the
same mix of request kinds whatever its length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

FAMILIES: Tuple[Tuple[str, Optional[int]], ...] = (
    ("line", None),
    ("euclidean", 2),
    ("random-metric", None),
)

# Every non-exact branch, plus the eptas corner that prescribes the exact
# branch above its DP cap and so answers with certified = false.
PIPELINE_FLAGS = (
    ("--algoA", "0.1"),
    ("--algoA", "0.5"),
    ("--asymptotic", "--dim", "1"),
    ("--five-sixths",),
    ("--eptas", "0.1", "--dim", "1"),
)
# Held-Karp time depends on n alone, so request times form one cluster per
# size.  With n = 16 three times in a period of six, the median request and
# the tail (11th-longest) are both n = 16 ones whenever a run holds 3 to 10
# periods (a 36 s run holds 5 to 8), so neither statistic sits in the gap
# between two clusters.
EXACT_SIZES = (14, 15, 16, 16, 16, 17)
# (family, n, injected violation) per request.  Four n = 600 points files
# sit between the quick n = 400 requests and the n = 600 matrix, so the
# median request is a points validation rather than a gap between sizes.
INGEST_PERIOD = (
    ("line", 400, False),
    ("euclidean", 600, False),
    ("random-metric", 600, False),
    ("line", 600, False),
    ("euclidean", 400, False),
    ("random-metric", 600, False),
    ("line", 600, False),
    ("euclidean", 600, False),
    ("random-metric", 400, True),
)


@dataclass(frozen=True)
class InstanceSpec:
    """One instance file written during set-up.

    inject_from names the clean matrix file this one copies with one
    injected triangle violation; such a file is not generated itself.
    """

    file: str
    family: str
    n: int
    d: Optional[int]
    seed: int
    inject_from: Optional[str] = None


@dataclass(frozen=True)
class Request:
    """One CLI request; argv names its instance file relative to the work dir."""

    argv: Tuple[str, ...]
    file: str

    @property
    def kind(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Plan:
    instances: List[InstanceSpec]
    requests: List[Request]
    period: int
    cover_refs: bool  # solve requests, checked against milp reference values
    tour_refs: bool = False  # exact solves, checked against a milp maximum tour


def _pipeline_mid(seed: int) -> Plan:
    instances, requests = [], []
    for i in range(4 * len(FAMILIES) * len(PIPELINE_FLAGS)):
        family, d = FAMILIES[i % len(FAMILIES)]
        file = f"pm-{i:03d}.txt"
        instances.append(InstanceSpec(file, family, 24, d, seed * 1000 + i))
        flags = PIPELINE_FLAGS[i % len(PIPELINE_FLAGS)]
        requests.append(Request(("solve", file, *flags, "--out", "json"), file))
    return Plan(instances, requests, len(FAMILIES) * len(PIPELINE_FLAGS), True)


def _exact_small(seed: int) -> Plan:
    instances, requests = [], []
    for i in range(3 * len(FAMILIES) * len(EXACT_SIZES)):
        # shift the families by one each period, so every size meets every family
        family, d = FAMILIES[(i + i // len(EXACT_SIZES)) % len(FAMILIES)]
        n = EXACT_SIZES[i % len(EXACT_SIZES)]
        file = f"es-{i:03d}.txt"
        instances.append(InstanceSpec(file, family, n, d, seed * 1000 + i))
        requests.append(
            Request(("solve", file, "--eptas", "0.05", "--dim", "1", "--out", "json"), file)
        )
    # Held-Karp time depends on n only, so one pass over the sizes is a
    # complete mix.
    return Plan(instances, requests, len(EXACT_SIZES), True, True)


def _ingest_large(seed: int) -> Plan:
    dims = dict(FAMILIES)
    instances, requests = [], []
    for i, (family, n, bad) in enumerate(INGEST_PERIOD):
        if family != "random-metric":
            file = f"il-{i:03d}.txt"
            instances.append(InstanceSpec(file, family, n, dims[family], seed * 1000 + i))
        else:
            # one matrix per size, shared by its requests; a violation goes
            # into a copy
            file = f"il-matrix-{n}.txt"
            if all(spec.file != file for spec in instances):
                instances.append(InstanceSpec(file, family, n, None, seed * 1000 + n))
            if bad:
                clean, file = file, f"il-matrix-{n}-bad.txt"
                instances.append(InstanceSpec(file, family, n, None, seed * 1000 + i, clean))
        requests.append(Request(("validate", file), file))
    return Plan(instances, requests, len(INGEST_PERIOD), False)


WORKLOADS = {
    "pipeline-mid": _pipeline_mid,
    "exact-small": _exact_small,
    "ingest-large": _ingest_large,
}


def plan(workload: str, seed: int) -> Plan:
    return WORKLOADS[workload](seed)
