"""Exception types raised by contract and invariant checks across the library."""


class ArtifactError(Exception):
    """Base class for every error raised by this package."""


# --- vectors, distributions, masks ---

class NegativeMass(ArtifactError):
    pass


class NotNormalized(ArtifactError):
    pass


class TooSmallAlphabet(ArtifactError):
    pass


class LengthMismatch(ArtifactError):
    pass


class OutcomeMismatch(ArtifactError):
    pass


# --- privatization channel ---

class NonPositiveAlpha(ArtifactError):
    pass


class AlphaOutOfRange(ArtifactError):
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


class EpsOutOfRange(ArtifactError):
    pass


class InvalidAttackParams(ArtifactError):
    pass


class BadCollectionFile(ArtifactError):
    pass


# --- bilinear maximization ---

class DimensionTooLarge(ArtifactError):
    pass


class RankTooSmall(ArtifactError):
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


class Exhausted(ArtifactError):
    pass


class IterationCap(ArtifactError):
    pass


class ShiftTooLarge(ArtifactError):
    pass


class InexactStatistics(ArtifactError):
    pass


# --- lower-bound constructions ---

class EmptySubspace(ArtifactError):
    pass


class InfeasibleScale(ArtifactError):
    pass


class ProductSpaceTooLarge(ArtifactError):
    pass


class BadSigns(ArtifactError):
    pass


# --- harness ---

class InsufficientData(ArtifactError):
    pass


class NoRoot(ArtifactError):
    pass
