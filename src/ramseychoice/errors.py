"""Exception types shared across the toolkit."""


class RamseyChoiceError(Exception):
    """Base class for all toolkit-specific failures."""


class InvalidPart(RamseyChoiceError):
    """A decomposition part was smaller than 2."""


class BoundExceeded(RamseyChoiceError):
    """A requested computation lies outside a fixed search bound."""


class EmptyResult(RamseyChoiceError):
    """An enumeration that must be non-empty came back empty.

    Raised when no prime triple sums to an odd target in range; that would
    contradict the ternary Goldbach theorem.  The command line reports it as
    a negative result (exit 1).
    """


class PreconditionViolated(RamseyChoiceError):
    """A certificate was requested for a provable pair, which has none.

    A non-positive m or n is a ValueError instead, as for classify.
    """


class CertificateSearchFailed(RamseyChoiceError):
    """No certificate exists because no decomposition of n exists (n = 1)."""


class OracleDisagreement(RamseyChoiceError):
    """Two independent computations of the same fact disagreed.

    classify_detailed(oracle=True) raises it with oracle_disagreement's
    finding as the message; run_scan records the finding instead.
    """


class NotBlocking(RamseyChoiceError):
    """The requested model cannot exist because the decomposition admits m.

    Carries the witness subset whose cycle intersections all share a factor
    with their cycle lengths; the construction failing in exactly this way is
    a second oracle for the blocking test.
    """


class BadSubset(RamseyChoiceError):
    """A subset argument was not a valid subset of the expected universe."""
