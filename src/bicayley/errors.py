"""Exception types shared across the toolkit.

Every error the caller can cause derives from `UsageError`: bad group or
family parameters, connection sets, maps, degrees, arguments outside a
documented precondition, a size past a budget and a malformed graph file.
The command line answers each one, whatever its type, with one `error:` line
and exit code 2.  `NotAutomorphism` is not one of them: it reports a fault
of the library itself, not of its input, so it keeps its traceback.
"""


class UsageError(ValueError):
    """The caller's input or parameters cannot be used as given."""


class ParameterError(UsageError):
    """Group or family parameters violate a structural constraint."""


class BudgetError(UsageError, RuntimeError):
    """Requested computation exceeds a declared enumeration or size budget."""


class SetConditionError(UsageError):
    """Connection sets break the bi-Cayley requirements (R=R^-1, L=L^-1, 1 not in R or L)."""


class InvalidMapError(UsageError):
    """A map given as an automorphism is not one: a generator-image map of a
    group that is not validated, or a vertex map of a graph that is not a
    permutation preserving its edges."""


class DegreeMismatch(UsageError):
    """Permutations of different degrees were combined."""


class InvariantViolation(UsageError):
    """An argument violates a documented precondition, e.g. a non-invariant subset."""


class NotAutomorphism(RuntimeError):
    """A permutation that must preserve adjacency does not; signals an internal bug."""


class NoLambdaError(UsageError):
    """No root of x^2 - x + 1 = 0 exists modulo n."""


class PreconditionError(UsageError):
    """Operation invoked outside its stated precondition."""


class GraphParseError(UsageError):
    """Malformed graph file; carries the byte offset of the first offending byte."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset
