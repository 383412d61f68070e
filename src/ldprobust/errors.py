"""Exception types raised by contract and invariant checks across the library."""


class ArtifactError(Exception):
    """Base class for every error raised by this package.

    An ArtifactError that is not an InputError reports a failed certificate or
    a broken invariant; the CLI exits 2 on it.
    """


class InputError(ArtifactError):
    """A caller-supplied parameter or input lies outside the documented contract.

    The CLI exits 1 on it, as for any other usage error.
    """


class InvalidConfig(InputError, ValueError):
    """A sweep, trial-cell or estimator setting outside its documented range.

    Also a ValueError, which these settings raised before they were typed.
    """


class InvalidArgument(InputError, ValueError):
    """A function argument outside its documented contract: a seed or trial
    index, a batch size or sample count, a missing k, mismatched or negative
    scores, a malformed vector or outcome set, an unknown fit axis, or a
    lower-bound family parameter (alpha, n, c_gamma, gamma).

    Also a ValueError, which these checks raised before they were typed.
    """


# --- vectors, distributions, masks ---

class NegativeMass(ArtifactError):
    pass


class NotNormalized(ArtifactError):
    pass


class TooSmallAlphabet(InputError):
    pass


class LengthMismatch(ArtifactError):
    pass


# --- privatization channel ---

class NonPositiveAlpha(InputError):
    pass


class AlphaOutOfRange(InputError):
    pass


class DimensionMismatch(ArtifactError):
    pass


class SymbolOutOfRange(ArtifactError):
    pass


class EmptySubset(ArtifactError):
    pass


# --- batch collections and attacks ---

class CountMismatch(ArtifactError):
    pass


class EpsOutOfRange(InputError):
    pass


class InvalidAttackParams(InputError):
    pass


# --- bilinear maximization ---

class DimensionTooLarge(InputError):
    pass


class NotSymmetric(ArtifactError):
    pass


# --- estimator ---

class EmptyBatch(ArtifactError):
    pass


class EmptySelection(ArtifactError):
    pass


class TooFewBatches(ArtifactError):
    pass


class AllZeroScores(ArtifactError):
    pass


class Exhausted(InputError):
    """The filtering loop ran out of batch rows before sqrt(tau) fell below its
    threshold: fewer than two rows survive, or every candidate scores zero.
    The collection is too small (n too low for its d and eps)."""


class InexactStatistics(InputError):
    """n and k lie outside the bounds within which the batch statistics are
    exact integers (see `ExactSums.of`)."""


# --- lower-bound constructions ---

class InfeasibleScale(ArtifactError):
    pass


class ProductSpaceTooLarge(InputError):
    pass


class CertificateViolation(ArtifactError):
    """A constructed certificate (the information matrix, a hard pair) fails
    one of the properties it is built to have."""


class BadSigns(ArtifactError):
    pass


# --- harness ---

class InsufficientData(ArtifactError):
    pass
