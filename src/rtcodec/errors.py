"""Exception hierarchy shared across the package."""


class RtCodecError(Exception):
    """Base class for all library errors."""


class InadmissiblePattern(RtCodecError):
    """An error pattern whose shifted copy leaves the track in some head."""


class BudgetExceeded(RtCodecError):
    """An exhaustive enumeration would exceed the caller-supplied budget."""


class ParamViolation(RtCodecError):
    """Code parameters outside the regime an operation supports."""


class NotInImage(RtCodecError):
    """Input is not a valid output of the period-capping transform."""


class FieldTooSmall(RtCodecError):
    """Message plus parity does not fit in the field."""


class TooManyErasures(RtCodecError):
    """Erasures the code's parity cannot restore: more than the RS parity, or
    for pair parity more than one block or two adjacent ones."""


class ParityMismatch(RtCodecError):
    """Block hashes and parity disagree beyond what the parity corrects."""


class MalformedRepetition(RtCodecError):
    """No within-budget parse of a repetition-coded word exists."""


class UnsupportedK(RtCodecError):
    """Hasher does not support this number of correctable errors."""


class HashRecoveryFailed(RtCodecError):
    """Block content could not be recovered from its hash."""


class MajorityTie(RtCodecError):
    """The vote over window sums produced no strict majority."""


class Ambiguous(RtCodecError):
    """More than one candidate survives multi-head interval recovery."""


class NoCandidate(RtCodecError):
    """No candidate is consistent with all reads of an interval."""


class ReductionStuck(RtCodecError):
    """Head reduction could not complete (no usable probe run)."""


class DecodeFailure(RtCodecError):
    """End-to-end decode failed; ``stage`` names the pipeline step."""

    def __init__(self, stage: str, message: str = ""):
        super().__init__(f"{stage}: {message}" if message else stage)
        self.stage = stage
