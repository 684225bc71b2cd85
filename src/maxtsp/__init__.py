"""maxtsp: metric maximum traveling salesman solvers with certified bounds."""

from .certificate import Certificate
from .corealgo import algorithm_A
from .cyclecover import CycleCover, Tour, max_weight_cycle_cover
from .driver import asymptotic, eptas
from .exact import exact_dp, held_karp_max
from .merge import kostochka_serdyukov_56
from .metricspace import (
    GeneratorSpec,
    Instance,
    MetricReport,
    dump_instance,
    generate,
    load_instance,
    validate_metric,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "CycleCover",
    "GeneratorSpec",
    "Instance",
    "MetricReport",
    "Tour",
    "algorithm_A",
    "asymptotic",
    "dump_instance",
    "eptas",
    "exact_dp",
    "generate",
    "held_karp_max",
    "kostochka_serdyukov_56",
    "load_instance",
    "max_weight_cycle_cover",
    "validate_metric",
]
