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
                     branches, build_e2, check_pattern, classify,
                     differential_slots, is_free_admissible)
from .errors import (InvalidInputError, InvariantError, OrbitCohomError,
                     OversizedInstanceError, PreconditionError,
                     UnsupportedShapeError)
from .fiber import FiberRing, load_fiber, make_type_ab
from .intervals import FREE_ROW, INFINITE, IntervalModule
from .presentation import (ExtensionFlag, RingPresentation,
                           extract_presentation, presentation_str,
                           tot_poincare)

__all__ = [
    "__version__",
    "ClassificationReport", "DifferentialPattern", "GroupChoice", "Outcome",
    "Page", "RejectedBranch", "admissible_rounds", "branches", "build_e2",
    "check_pattern", "classify", "differential_slots", "is_free_admissible",
    "InvalidInputError", "InvariantError", "OrbitCohomError",
    "OversizedInstanceError",
    "PreconditionError", "UnsupportedShapeError",
    "FiberRing", "load_fiber", "make_type_ab",
    "FREE_ROW", "INFINITE", "IntervalModule",
    "OracleReport", "brute_force_classify", "compare_reports", "min_cap",
    "ExtensionFlag", "RingPresentation", "extract_presentation",
    "presentation_str", "tot_poincare",
    "basis_problems",
]

# Name -> module, imported on first use: only oracle-check and --self-check
# need these, and every other command would pay for their import.
_LAZY = {**dict.fromkeys(("OracleReport", "brute_force_classify",
                          "compare_reports", "min_cap"), "oracle"),
         "basis_problems": "selfcheck"}


def __getattr__(name):
    if name in _LAZY:
        from importlib import import_module
        return getattr(import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
