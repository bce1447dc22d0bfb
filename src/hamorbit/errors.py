"""Exception types used across the package.

Every exception carries a stable short ``code`` so the CLI and report files
can surface machine-readable failure reasons, and the ``exit_code`` the CLI
returns for it: 1 (a method failure) unless the class says 2 (a usage or
input error).
"""


class HamorbitError(Exception):
    """Base class for all package errors."""

    code = "E_ERROR"
    exit_code = 1

    def reason(self) -> str:
        """The failure's one line, ``code: message``, as reports and the
        CLI's stderr show it."""
        return f"{self.code}: {self}"


class ExpressionParseError(HamorbitError):
    """Raised when potential source text does not parse.

    ``position`` is the 1-based character offset of the offending token and
    ``expected`` the set of token descriptions that would have been legal.
    """

    code = "E_PARSE"
    exit_code = 2

    def __init__(self, message, position, expected=()):
        self.position = position
        self.expected = frozenset(expected)
        text = f"{message} at position {position}"
        if self.expected:
            text += " (expected " + ", ".join(sorted(self.expected)) + ")"
        super().__init__(text)


class BadIndexError(ExpressionParseError):
    """Variable index out of range for the declared dimension."""

    code = "E_BAD_INDEX"


class DomainError(HamorbitError):
    """Potential evaluated outside its mathematical domain."""

    code = "E_DOMAIN"


class OddNodeCountError(HamorbitError):
    """Half-period symmetry needs an even node count."""

    code = "E_ODD_N"
    exit_code = 2


class ZeroLoopError(HamorbitError):
    """Operation undefined on the identically-zero loop."""

    code = "E_ZERO_LOOP"


class NoBracketError(HamorbitError):
    """Ray scaling found no sign change; growth hypotheses likely fail.

    ``samples`` holds (scale, constraint value) pairs probed during the
    bracket search, for diagnostics.
    """

    code = "E_NO_BRACKET"

    def __init__(self, message, samples=()):
        self.samples = tuple(samples)
        super().__init__(message)


class EndpointGrowthError(HamorbitError):
    """No finite inflation of the base loop drives the mean energy gap <= 0."""

    code = "E_B3_FAIL"


class BaseThroughOriginError(HamorbitError):
    """Endpoint construction needs a base loop bounded away from the origin."""

    code = "E_BASE_THROUGH_ORIGIN"


class PathCollapseError(HamorbitError):
    """Mountain-pass path slid off the barrier: separation failed numerically."""

    code = "E_COLLAPSE"


class BlowupError(HamorbitError):
    """Trajectory escaped during verification integration."""

    code = "E_BLOWUP"


class NonpositiveActionError(HamorbitError):
    """Period rescaling needs both functional factors to be positive."""

    code = "E_NONPOSITIVE"


class OrbitFileError(HamorbitError):
    """Malformed orbit table; ``line`` is the 1-based offending line."""

    code = "E_ORBIT_FILE"
    exit_code = 2

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
