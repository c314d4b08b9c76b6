"""Exception types shared across the package, and the checked reads the
binary and text readers use to turn malformed input into ParseError.

The CLI maps these onto exit codes: user-facing problems (ConfigError,
ParseError) exit 1, broken internal invariants exit 2.
"""

import io
import math
import struct

import numpy as np


class ConfigError(ValueError):
    """A setting is out of range or inconsistent with the rest of the config."""


class ShapeError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class ParseError(ValueError):
    """An input file does not follow its declared layout."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NumericError(ArithmeticError):
    """A forward value left the finite-float domain (NaN or Inf)."""


class UsageError(RuntimeError):
    """An API was called in a state it does not support."""


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries a parameter/gradient norm report."""


def decode_utf8(raw, what):
    """UTF-8 text of `raw`, with ParseError for undecodable bytes."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} is not valid UTF-8: {exc}") from None


class Reader:
    """Checked reads of a binary file object from its magic at the current
    position to its end: input that breaks the layout raises ParseError.
    Every length, an array's byte count included, is checked against the
    bytes left before anything is read or allocated."""

    def __init__(self, fh, magic):
        self.fh = fh
        start = fh.tell()
        self.size = fh.seek(0, io.SEEK_END) - start
        fh.seek(start)
        self.off = 0
        got = self.read(min(len(magic), self.size), "magic")
        if got != magic:
            raise ParseError(f"bad magic {got!r}, expected {magic!r}")

    def _claim(self, n, what):
        if self.off + n > self.size:
            raise ParseError(f"file ends inside {what}: {n} bytes needed at offset "
                             f"{self.off}, {self.size} bytes in file")
        self.off += n

    def read(self, n, what):
        self._claim(n, what)
        return self.fh.read(n)

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.read(struct.calcsize(fmt), what))

    def text(self, n, what):
        return decode_utf8(self.read(n, what), what)

    def array(self, shape, dtype, what):
        """A new array of `shape`, read straight into its own buffer."""
        self._claim(math.prod(shape) * np.dtype(dtype).itemsize, what)
        arr = np.empty(shape, dtype=dtype)
        if self.fh.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
            raise ParseError(f"file shrank while reading {what}")
        return arr

    def end(self, what):
        """ParseError unless every byte of the file has been read."""
        if self.off != self.size:
            raise ParseError(f"{self.size - self.off} trailing bytes in {what}")
