"""Exception types shared across the package, and the checked reads the
binary and text readers use to turn malformed input into ParseError.

The CLI maps these onto exit codes: user-facing problems (ConfigError,
ParseError) exit 1, broken internal invariants exit 2.
"""

import struct


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


def need(data, offset, size, what):
    """ParseError unless `data` holds `size` bytes from `offset` on."""
    if offset + size > len(data):
        raise ParseError(f"file ends inside {what}: {size} bytes needed at offset "
                         f"{offset}, {len(data)} bytes in file")


def unpack(fmt, data, offset, what):
    """struct.unpack_from, with ParseError instead of struct.error on short input."""
    need(data, offset, struct.calcsize(fmt), what)
    return struct.unpack_from(fmt, data, offset)


def decode_utf8(raw, what):
    """UTF-8 text of `raw`, with ParseError for undecodable bytes."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} is not valid UTF-8: {exc}") from None
