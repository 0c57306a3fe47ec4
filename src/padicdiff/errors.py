"""Exception hierarchy shared by all modules."""


class PadicDiffError(Exception):
    """Base class for every error raised by this package."""


class InputError(PadicDiffError, ValueError):
    """Invalid user input: bad interval, zero denominator, malformed matrix."""


class ParseError(InputError):
    """Malformed rational-function or config text."""


class InvalidGaugeError(InputError):
    """A basis-change matrix is singular."""


class DomainError(PadicDiffError):
    """A log-radius lies outside the allowed interval, or a pole sits at it."""


class BudgetExceededError(PadicDiffError):
    """The Taylor recursion computed more coefficients than its budget allows."""


class CyclicSearchError(PadicDiffError):
    """No cyclic vector was found within the attempt budget."""


class HypothesisViolationError(PadicDiffError):
    """Every sample point failed the ramification-relation hypothesis."""
