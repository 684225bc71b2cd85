"""Solver certificates: what ran, with which parameters, claiming what.

Every driver returns a :class:`Certificate` next to its tour.  The
certificate is the audit trail for the guarantee: which branch ran, the
parameters it was given, the intermediate weights, and the ratio bound
the run claims.  ``certified`` is False whenever a desk-scale cap forced
the run off the branch the scheme prescribes; such a tour is still valid,
but its claimed bound is only the unconditional cover-relative one.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

BRANCHES = ("five-sixths", "exact-dp", "algorithm-A")


# Keyword-only, so the fields can sit in the fixed key order of the text
# block and the json dict.
@dataclass(kw_only=True)
class Certificate:
    """Record of a solver run.

    claimed_bound is the weight ratio guaranteed for this run, always in
    (0, 1]: against the optimum for certified runs, against the cycle
    cover (hence also the optimum) for uncertified algorithm-A runs.
    weight_cover and k_initial are None when the branch never built a
    cover (the exact-dp branch).
    """

    branch: str
    certified: bool
    epsilon: Optional[float] = None
    delta: Optional[float] = None
    dim: Optional[float] = None
    n_threshold: Optional[float] = None
    k_initial: Optional[int] = None
    k_after_gluing: Optional[int] = None
    weight_cover: Optional[float] = None
    weight_tour: float
    claimed_bound: float

    def __post_init__(self):
        if self.branch not in BRANCHES:
            raise ValueError(f"unknown branch {self.branch!r}")
        if not 0.0 < self.claimed_bound <= 1.0:
            raise ValueError(f"claimed_bound must be in (0, 1], got {self.claimed_bound!r}")
        if self.weight_cover is not None:
            # a tour is itself a cover, so the max cover can never be
            # lighter; allow last-bit float noise between the two sums,
            # relative to the cover and with no absolute floor
            slack = 1e-9 * abs(self.weight_cover)
            if self.weight_tour > self.weight_cover + slack:
                raise ValueError(
                    f"tour weight {self.weight_tour!r} exceeds cover weight {self.weight_cover!r}"
                )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_text(self) -> str:
        lines = []
        for key, value in self.to_dict().items():
            if value is None:
                text = "none"
            elif isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, str):
                text = value
            else:
                text = repr(value)
            lines.append(f"{key} = {text}")
        return "\n".join(lines)
