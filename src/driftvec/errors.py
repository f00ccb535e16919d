"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: usage problems (ValueError and
argparse errors) exit 1, DataError exits 2, NumericalError exits 3.
"""


class DriftvecError(Exception):
    """Base class for toolkit errors."""


class DataError(DriftvecError):
    """Input data is malformed, missing, or inconsistent."""


class EmptyCorpusError(DataError):
    """No documents survived filtering or slicing."""


class NumericalError(DriftvecError):
    """A non-finite value or an underflowed variance appeared during training."""
