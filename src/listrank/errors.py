"""The package's errors. ``exit_code`` is what the CLI returns for each; a
missing or unreadable file (``OSError``) exits 2 too. An error carries only
its message, which names what a caller needs: for a line of an input file,
the file and its 1-based line number."""


class ListrankError(Exception):
    """Bad input, configuration or use of the package."""

    exit_code = 2


class DegenerateEmbeddingError(ListrankError):
    """Zero-norm or non-finite embedding where cosine similarity is required."""

    exit_code = 3


class NonFiniteLossError(ListrankError):
    """Training loss or weights became NaN/Inf; the message names the step
    and its loss components."""

    exit_code = 4
