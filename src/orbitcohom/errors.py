"""Exception types shared across the package."""


class OrbitCohomError(Exception):
    """Base class for all package errors."""


class InvalidInputError(OrbitCohomError, ValueError):
    """Malformed or out-of-range input (bad fiber file, n = 0, cap too small, ...)."""


class PreconditionError(OrbitCohomError, ValueError):
    """A documented operation precondition was violated by the caller."""


class UnsupportedShapeError(OrbitCohomError, ValueError):
    """The input is structurally valid but outside the supported shape
    (rows of rank > 1, fragmented base row, non-monomial relations, ...)."""


class OversizedInstanceError(OrbitCohomError, ValueError):
    """An input beyond what the package walks: more cells than the
    brute-force oracle's ``MAX_CELLS``, or a branch tree of more than the
    engine's ``MAX_BRANCHES`` branches."""


class InvariantError(OrbitCohomError, RuntimeError):
    """A property every page turn must keep failed (for example, the unit
    class did not survive); the input page or pattern was inconsistent."""
