"""Exception types shared across the package."""


class ExperimentModelError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameter(ExperimentModelError):
    """A numeric argument is out of range or not finite."""


class EmptyDataset(ExperimentModelError):
    """An estimator was asked to work with zero samples."""


class InvalidGrid(ExperimentModelError):
    """The quadrature grid a kernel and span set cannot be built: the kernel
    is not narrower than the span, its normalisation is not finite, or the
    grid overflows or exceeds the memory this process may allocate."""


class InvalidSchedule(ExperimentModelError):
    """Sample-count schedule is not strictly increasing or out of range."""


class ShapeMismatch(ExperimentModelError):
    """Paired arrays have different lengths."""


class DegenerateVariance(ExperimentModelError):
    """Quality statistics are undefined because both variances vanish."""
