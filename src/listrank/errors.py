"""Exception taxonomy shared across the package.

Exit-code mapping used by the CLI:
  2 -> validation / configuration / parse errors, and a missing or
       unreadable file (``OSError``)
  3 -> numeric failures during inference (degenerate embeddings etc.)
  4 -> training divergence (non-finite loss or weights)
"""


class ListrankError(Exception):
    """Base class for all package errors."""


class DimensionError(ListrankError):
    """Tensor shapes are incompatible for the requested operation."""


class GraphError(ListrankError):
    """Autodiff misuse: non-scalar backward root, reused tape, loss built
    outside a tape."""


class ConfigError(ListrankError):
    """Invalid model / stage / adapter configuration."""


class ValidationError(ListrankError):
    """Invalid request or input data."""


class ContextLengthError(ListrankError):
    """Assembled prompt exceeds the backbone context limit; the message
    gives the length and the limit."""


class VocabularyError(ListrankError):
    """Token id outside the vocabulary."""


class ChunkingError(ListrankError):
    """A single document plus template overhead cannot fit the context."""


class DegenerateEmbeddingError(ListrankError):
    """Zero-norm embedding where cosine similarity is required."""


class DataError(ListrankError):
    """Dataset cannot satisfy the training configuration."""


class MergeError(ListrankError):
    """Checkpoint merging failed (shape or name mismatch)."""


class ParseError(ListrankError):
    """Malformed input file; the message names the file and, for a line
    of a text file, its 1-based number."""


class NonFiniteLossError(ListrankError):
    """Training loss or weights became NaN/Inf; the message names the step
    and its loss components."""
