"""fhplab: a desk-scale laboratory for fractional Helly phenomena.

Finite set systems with exact rational intersection-pattern checks, exact LP
for intersection numbers and fractional transversals, VC/shatter analytics,
deterministic counterexample generators, square-free integer arithmetic,
finite-field counting experiments, and finitary type counting.
"""

from .setfam import (
    ConsReport,
    FhpReport,
    RationalWeights,
    SetFamily,
    check_fhp_instance,
    check_pk_property,
    colorful_check,
    cons_k,
    max_intersecting,
    measure_fhp_check,
    sequence_ratio,
    wfhp_counting_bound,
)

__version__ = "0.1.0"

__all__ = [
    "ConsReport",
    "FhpReport",
    "RationalWeights",
    "SetFamily",
    "check_fhp_instance",
    "check_pk_property",
    "colorful_check",
    "cons_k",
    "max_intersecting",
    "measure_fhp_check",
    "sequence_ratio",
    "wfhp_counting_bound",
    "__version__",
]
