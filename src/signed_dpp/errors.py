"""Exception and warning types shared across the package."""


class SignedDppError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionError(SignedDppError, ValueError):
    """Matrix or index dimensions do not match the operation's contract."""


class SingularMatrixError(SignedDppError):
    """A pivot fell below the singularity threshold during a linear solve."""


class CapabilityError(SignedDppError):
    """Input size exceeds what an exhaustive routine is willing to handle."""


class InadmissibleKernelError(SignedDppError):
    """The matrix does not define a valid point process (negative mass)."""


class SignedClassError(SignedDppError):
    """Off-diagonal magnitudes are not symmetric; edge signs are undefined."""


class GenerationError(SignedDppError):
    """Random kernel generation failed to meet its constraints."""


class ConditioningError(SignedDppError):
    """Conditioning on an event of (numerically) zero probability."""


class SamplingError(SignedDppError):
    """A sampling path hit a numerically degenerate conditioning step."""


class MissingMinorError(SignedDppError, KeyError):
    """A required principal minor is absent from the minor list."""


class NotDenseError(SignedDppError):
    """Minor list implies a zero off-diagonal entry; dense solver refuses."""


class InconsistentMinorsError(SignedDppError):
    """The minor list is not realizable by any matrix in the signed class."""


class FormatError(SignedDppError, ValueError):
    """Malformed input file (JSON kernel/minors or samples text)."""


class AmbiguousSignWarning(UserWarning):
    """A sign decision was skipped because the quantity is below tolerance."""
