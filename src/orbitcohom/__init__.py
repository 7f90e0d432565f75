"""Orbit-space mod-2 cohomology classification for free Z/2 and circle actions.

Given a finitistic space whose mod-2 cohomology has one class in each of
the degrees 0, n, 2n, 3n (with the two product parities a and b), this
package enumerates every orbit-space cohomology ring consistent with the
spectral sequence of the associated fibration, together with Poincare
data, extension ambiguities, and Conner-Floyd index bounds.
"""

__version__ = "0.1.0"

from .engine import (ClassificationReport, DifferentialPattern, GroupChoice,
                     Outcome, Page, RejectedBranch, admissible_rounds,
                     build_e2, check_pattern, classify, differential_slots,
                     enumerate_patterns, is_free_admissible, turn_page)
from .errors import (InvalidInputError, InvariantError, OrbitCohomError,
                     OversizedInstanceError, PreconditionError,
                     UnsupportedShapeError, WrongGroupError)
from .fiber import FiberRing, load_fiber, make_type_ab, point_ring
from .intervals import INFINITE, IntervalModule, free_module
from .obstruction import IndexResult, cohomology_index, sphere_map_bound
from .oracle import (OracleReport, brute_force_classify, cap_stable,
                     compare_reports, min_cap, truncate_e2)
from .presentation import (ExtensionFlag, RingPresentation,
                           extract_presentation, presentation_str,
                           same_presentation, tot_poincare)

__all__ = [
    "__version__",
    "ClassificationReport", "DifferentialPattern", "GroupChoice", "Outcome",
    "Page", "RejectedBranch", "admissible_rounds", "build_e2", "check_pattern",
    "classify", "differential_slots", "enumerate_patterns",
    "is_free_admissible", "turn_page",
    "InvalidInputError", "InvariantError", "OrbitCohomError",
    "OversizedInstanceError",
    "PreconditionError", "UnsupportedShapeError", "WrongGroupError",
    "FiberRing", "load_fiber", "make_type_ab", "point_ring",
    "INFINITE", "IntervalModule", "free_module",
    "IndexResult", "cohomology_index", "sphere_map_bound",
    "OracleReport", "brute_force_classify", "cap_stable", "compare_reports",
    "min_cap", "truncate_e2",
    "ExtensionFlag", "RingPresentation", "extract_presentation",
    "presentation_str", "same_presentation", "tot_poincare",
]
