"""maxtsp: metric maximum traveling salesman solvers with certified bounds."""

from .certificate import Certificate
from .corealgo import (
    GluingState,
    Tour,
    algorithm_A,
    current_selection,
    glue_once,
    gluing_loop,
    make_gluing_state,
    r_tau,
    select_E0,
    try_delta_gluing,
)
from .cyclecover import (
    CycleCover,
    build_gadget,
    cycle_cover_brute_force,
    max_weight_cycle_cover,
)
from .driver import asymptotic, asymptotic_plan, eptas, eptas_plan
from .exact import (
    brute_force_tour,
    exact_dp,
    held_karp_max,
    minmax_transform,
)
from .matching import (
    Matching,
    WeightedGraph,
    matching_brute_force,
    max_weight_perfect_matching,
)
from .merge import kostochka_serdyukov_56, serdyukov_combine
from .metricspace import (
    GeneratorSpec,
    Instance,
    MetricReport,
    dump_instance,
    estimate_doubling,
    generate,
    load_instance,
    validate_metric,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CycleCover",
    "GeneratorSpec",
    "GluingState",
    "Instance",
    "Matching",
    "MetricReport",
    "Tour",
    "WeightedGraph",
    "algorithm_A",
    "asymptotic",
    "asymptotic_plan",
    "brute_force_tour",
    "build_gadget",
    "current_selection",
    "cycle_cover_brute_force",
    "dump_instance",
    "eptas",
    "eptas_plan",
    "estimate_doubling",
    "exact_dp",
    "generate",
    "glue_once",
    "gluing_loop",
    "held_karp_max",
    "kostochka_serdyukov_56",
    "load_instance",
    "make_gluing_state",
    "matching_brute_force",
    "max_weight_cycle_cover",
    "max_weight_perfect_matching",
    "minmax_transform",
    "r_tau",
    "select_E0",
    "serdyukov_combine",
    "try_delta_gluing",
    "validate_metric",
]
