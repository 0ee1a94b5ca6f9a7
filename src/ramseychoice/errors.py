"""Exception types shared across the toolkit."""


class RamseyChoiceError(Exception):
    """Base class for all toolkit-specific failures."""


class InvalidPart(RamseyChoiceError):
    """A decomposition part was smaller than 2."""


class BoundExceeded(RamseyChoiceError):
    """A requested computation lies outside the configured search bounds."""


class EmptyResult(RamseyChoiceError):
    """An enumeration that must be non-empty came back empty.

    Raised when no prime triple sums to an odd target in range; that would
    contradict the ternary Goldbach theorem, so it is a hard failure.
    """


class PreconditionViolated(RamseyChoiceError):
    """A certificate was requested for a provable pair or a non-positive m or n."""


class CertificateSearchFailed(RamseyChoiceError):
    """No certificate exists because no decomposition of n exists (n = 1)."""


class OracleDisagreement(RamseyChoiceError):
    """Two independent computations of the same fact disagreed.

    Carries the pair's recipe result as `result`: the (Classification,
    RecipeTrace | None) that classify_detailed would have returned.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class NotBlocking(RamseyChoiceError):
    """The requested model cannot exist because the decomposition admits m.

    Carries the witness subset whose cycle intersections all share a factor
    with their cycle lengths; the construction failing in exactly this way is
    a second oracle for the blocking test.
    """


class CapExceeded(RamseyChoiceError):
    """A staged construction hit its size cap; carries a progress report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report or {}


class BadSubset(RamseyChoiceError):
    """A subset argument was not a valid subset of the expected universe."""
