"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: usage problems (ValueError and
argparse errors) exit 1, DataError exits 2, NumericalError exits 3.
"""

from contextlib import contextmanager


class DriftvecError(Exception):
    """Base class for toolkit errors."""


class DataError(DriftvecError):
    """Input data is malformed, missing, or inconsistent."""


class EmptyCorpusError(DataError):
    """No documents survived filtering or slicing."""


class NumericalError(DriftvecError):
    """A non-finite value or an underflowed variance appeared during training."""


@contextmanager
def open_text(path):
    """Open an input file as UTF-8 text; a byte that does not decode,
    wherever the reader meets it, raises a DataError naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x}: "
                            f"{exc.reason})") from exc
