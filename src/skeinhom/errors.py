"""Shared exception types.

Everything raised on purpose by this package derives from SkeinError, so
callers (and the CLI) can tell deliberate rejections apart from bugs.
"""


class SkeinError(Exception):
    pass


class InvalidBoundary(SkeinError):
    """Boundary data is inconsistent (bad matching, crossing chords, parity)."""


class OpenBoundary(SkeinError):
    """A closed-diagram operation was handed something with loose ends."""


class GradingError(SkeinError):
    """A quantum or homological grading came out non-integral or mismatched."""


class TruncationError(SkeinError):
    """The requested window is not certified by the truncation in memory."""


class ChainMapError(SkeinError):
    """A would-be chain map fails to commute with the differentials."""


class WindowError(SkeinError):
    """An operation needs quantum degrees outside the window a complex was built for."""


class SpecError(SkeinError):
    """A surface/tangle specification failed validation."""


class AdmissibilityError(SkeinError):
    """A spin-network coloring violates the admissibility conditions."""


class InexactDivision(SkeinError):
    """A polynomial division that must be exact left a remainder."""


class InvariantFactorError(SkeinError):
    """A Smith normal form came out with factors that do not divide in order."""
