"""Solver certificates: what ran, with which parameters, claiming what.

Every driver returns a :class:`Certificate` next to its tour, built by
:func:`certify`: the audit trail for the guarantee, with the branch that
ran, its parameters, the intermediate weights, and the ratio bound the
run claims.  ``certified`` is False whenever a desk-scale cap forced the
run off the branch the scheme prescribes; such a tour is still valid,
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


def asymptotic_error(n: int, dim: float) -> float:
    """(11/6) / n^(1/(2*dim+1)), the relative error of asymptotic's pipeline."""
    return (11.0 / 6.0) / n ** (1.0 / (2.0 * dim + 1.0))


def certify(
    branch: str, n: int, weight_tour: float, prescribed: bool = True, **fields
) -> Certificate:
    """The certificate of a run on n vertices, with the other fields it has.

    The one claim rule: five-sixths claims 5/6, exact-dp 1, algorithm-A
    the chain bound 1 - (2/3)*delta - k_after_gluing/n, which needs no
    dim.  An algorithm-A run on its scheme's prescribed branch claims the
    scheme's target instead: 1 - epsilon under eptas (epsilon given),
    1 - asymptotic_error(n, dim) under asymptotic (n_threshold, no
    epsilon).  A run off its prescribed branch (prescribed = False) keeps
    the chain bound and is the one kind with certified = False.
    """
    if branch == "five-sixths":
        bound = 5.0 / 6.0
    elif branch == "exact-dp":
        bound = 1.0
    elif prescribed and fields.get("epsilon") is not None:
        bound = 1.0 - fields["epsilon"]
    elif prescribed and fields.get("n_threshold") is not None:
        bound = 1.0 - asymptotic_error(n, fields["dim"])
    else:
        bound = 1.0 - (2.0 / 3.0) * fields["delta"] - fields["k_after_gluing"] / n
    return Certificate(
        branch=branch, certified=prescribed, weight_tour=weight_tour, claimed_bound=bound, **fields
    )
