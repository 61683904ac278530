"""Exception types shared across the package."""


class MstRatioError(Exception):
    """Base class for all library-specific errors."""


class DegenerateBasis(MstRatioError):
    """Basis vectors are (numerically) linearly dependent."""


class DegenerateSublattice(MstRatioError):
    """Sublattice generator matrix has |det| < 2."""


class TopologyMismatch(MstRatioError):
    """A metric's topology differs from the cloud's, or periods disagree."""


class NotHexagonal(MstRatioError):
    """Operation requires the unit hexagonal basis."""


class DuplicatePoints(MstRatioError):
    """Cloud construction rejected coincident points."""


class EmptyCloud(MstRatioError):
    """Operation requires at least one point."""


class ZeroDenominator(MstRatioError):
    """Ratio denominator vanishes (fewer than two points, or cutoff too small)."""


class TooLarge(MstRatioError):
    """An input refused above a size cap: exhaustive enumeration, or
    candidate keys wider than 63 bits."""


class StaleCache(MstRatioError):
    """Incremental-ratio cache does not match the supplied coloring."""


class PeriodTooSmall(MstRatioError):
    """Torus period too small for the requested thickening level."""


class EmptySet(MstRatioError):
    """A non-empty point subset is required."""


class RegionTooSmall(MstRatioError):
    """Generation window too small for the requested construction."""


class InvariantViolation(MstRatioError):
    """An internal consistency check failed: a bug, not a bad input."""
