"""Exception hierarchy shared across the package."""


class AlignvaeError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(AlignvaeError, ValueError):
    """Operands have incompatible or invalid dimensions."""


class DomainError(AlignvaeError, ValueError):
    """Input outside the mathematical domain of an operation."""


class ContractError(AlignvaeError, ValueError):
    """A documented precondition was violated by the caller."""


class DataError(AlignvaeError, ValueError):
    """Corpus files are malformed, misaligned, or empty."""


class GoldFormatError(AlignvaeError, ValueError):
    """A gold-alignment file or link set is malformed."""


class MetricError(AlignvaeError, ValueError):
    """A metric is undefined for the given input (e.g. all-zero gold)."""


class CheckpointError(AlignvaeError, ValueError):
    """Checkpoint file is malformed, wrong version, or config-incompatible."""


class DeterminismError(AlignvaeError, RuntimeError):
    """A computation expected to be deterministic produced differing values."""


class NumericalError(AlignvaeError, RuntimeError):
    """A computation gave a non-finite value where a finite one is required."""


class TrainingError(NumericalError):
    """Optimization failed (non-finite loss or gradient)."""
