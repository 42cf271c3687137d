"""Exception types shared across the package."""


class SparsevalError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(SparsevalError):
    """Point counts or class counts of two inputs disagree."""


class NotADistribution(SparsevalError):
    """A probability row does not sum to one or leaves [0, 1]."""


class LabelOutOfRange(SparsevalError):
    """A non-ignored label falls outside the catalog's class range."""


class NonFiniteInput(SparsevalError):
    """Logits contain NaN or infinity."""


class MissingStddev(SparsevalError):
    """Gaussian logit sampling was requested without a scale tensor."""


class NoPresentClasses(SparsevalError):
    """An IoU mean was requested but no class has any points."""


class EmptySubset(SparsevalError):
    """The class-relevant subset is empty, so no curve exists."""


class SubsetTooLarge(SparsevalError):
    """Brute-force evaluation refuses subsets past its size cap."""


class EmptySplit(SparsevalError):
    """The dataset contributes no frames or no evaluable points."""


class AllClassesFiltered(SparsevalError):
    """Outlier filtering removed every class row."""


class SpecInvalid(SparsevalError):
    """A synthetic scenario description violates its constraints."""


class UnknownClass(SparsevalError):
    """A class name is not part of the catalog."""


class ShapeMismatch(SparsevalError):
    """A stored tensor has the wrong rank, dtype, or length for its role."""


class ManifestError(SparsevalError):
    """A dataset manifest is malformed or references missing files."""


class IoFailure(SparsevalError):
    """Reading or writing a file failed."""


class ContainerError(SparsevalError):
    """Base class for tensor-container format violations."""


class BadMagic(ContainerError):
    """The file does not start with the container magic."""


class BadHeader(ContainerError):
    """The container header is internally inconsistent."""


class TruncatedFile(ContainerError):
    """The file ends before the header-declared size."""


class ChecksumMismatch(ContainerError):
    """The payload checksum does not verify."""
