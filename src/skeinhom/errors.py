"""Shared exception types, and the shape checker for input data.

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


def _is_list(v):
    return isinstance(v, (list, tuple))


def _is_int(v):
    return type(v) is int  # not bool, not float


def _is_int_pair(v):
    # spelled out: TruncatedComplex.homology checks its window on every call
    return isinstance(v, (list, tuple)) and len(v) == 2 and type(v[0]) is int and type(v[1]) is int


# the JSON shapes input data is checked against, by the name a message uses
_SHAPES = {
    "an object": lambda v: isinstance(v, dict),
    "an object with counts and chords": lambda v: isinstance(v, dict),
    "a name or an object with an id": lambda v: isinstance(v, (str, dict)),
    "a list": _is_list,
    "a tuple": _is_list,
    "a (string, +1 or -1) pair":
        lambda v: _is_list(v) and len(v) == 2 and isinstance(v[0], str)
        and _is_int(v[1]) and v[1] in (1, -1),
    "a string": lambda v: isinstance(v, str),
    "an integer": _is_int,
    "a non-negative integer": lambda v: _is_int(v) and v >= 0,
    "a positive integer": lambda v: _is_int(v) and v >= 1,
    "+1 or -1": lambda v: _is_int(v) and v in (1, -1),
    "'+' or '-'": lambda v: v in ("+", "-") or (_is_int(v) and v in (1, -1)),
    "a list of integers": lambda v: _is_list(v) and all(map(_is_int, v)),
    "a list of non-negative integers":
        lambda v: _is_list(v) and all(_is_int(c) and c >= 0 for c in v),
    "a pair of integer points": _is_int_pair,
    "a pair of integers": _is_int_pair,
}


def expect(value, shape, where):
    """value itself if it has the named JSON shape, else a SpecError
    "<where> must be <shape>, got <value>", where naming its place in the
    input (for example "region 0: chord 1")."""
    if not _SHAPES[shape](value):
        raise SpecError(f"{where} must be {shape}, got {value!r}")
    return value
