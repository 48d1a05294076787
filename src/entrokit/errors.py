"""Exception hierarchy for entrokit.

Every operational failure mode gets its own class so callers can react
precisely; plain ValueError is reserved for malformed arguments.
"""


class EntrokitError(Exception):
    """Base class for all entrokit errors."""


class SizeLimitExceeded(EntrokitError):
    """Exact search requested on an instance above the exactness threshold."""


class SampleMismatch(EntrokitError):
    """Functionals compared on different sample sets."""


class NoPacking(EntrokitError):
    """No admissible separated point set of size >= 2 exists."""


class FamilyTooLarge(EntrokitError):
    """Constructed family would exceed the desk-scale member cap."""


class BoundNotReached(EntrokitError):
    """Greedy code scan exhausted without reaching the guaranteed size."""


class GridMisaligned(EntrokitError):
    """Piecewise-linear breakpoints do not land on grid nodes."""


class EpsilonTooLarge(EntrokitError):
    """Accuracy parameter above the admissible range for the construction."""


class DimensionExceedsTruncation(EntrokitError):
    """Requested embedding dimension exceeds the KL truncation level."""


class ResolutionTooLow(EntrokitError):
    """Grid resolution below the alias-free minimum for the Fourier cutoff."""


class ChannelMismatch(EntrokitError):
    """Input/output channel counts incompatible with the architecture."""


class IncompatibleDepth(EntrokitError):
    """Zero-padding requires equal depths."""


class TargetTooSmall(EntrokitError):
    """Padding target does not dominate the source architecture."""


class LayoutMismatch(EntrokitError):
    """Stored parameter vector does not fit the architecture's layout."""


class OutOfRange(EntrokitError):
    """Parameter vector leaves the quantization box, or a box too large
    for its Lipschitz bound to fit in a float."""


class BudgetExceeded(EntrokitError):
    """Dictionary enumeration would exceed the configured evaluation cap."""


class ConfigError(EntrokitError):
    """Experiment configuration or input data file failed validation."""
