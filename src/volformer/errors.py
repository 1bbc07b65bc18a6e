"""Exception types shared across the package, and the config type check
that raises one."""

import dataclasses
import numbers
import typing


class VolformerError(Exception):
    """Base class for all package errors."""


class DimensionError(VolformerError):
    """Operand shapes do not satisfy an operation's contract."""


class NumericError(VolformerError):
    """Non-finite values where finite ones are required."""


class ConfigError(VolformerError):
    """Invalid configuration value or combination."""


class UsageError(VolformerError):
    """An API was called in a way its contract forbids."""


class DataError(VolformerError):
    """Dataset-level problem: bad labels, empty splits, classes too small."""


class FormatError(VolformerError):
    """Malformed binary or JSON container; messages carry byte offsets."""


class CheckpointMismatchError(VolformerError):
    """Checkpoint contents disagree with the expected model configuration."""


def require_int_fields(config) -> None:
    """Reject bools and non-integers in a config dataclass's int fields.

    JSON spells a count as 32.5 or true as easily as 32; the field
    annotations, not a list of keys, say which values must be integers.
    """
    hints = typing.get_type_hints(type(config))
    for f in dataclasses.fields(config):
        allowed = typing.get_args(hints[f.name]) or (hints[f.name],)
        if int not in allowed:
            continue
        value = getattr(config, f.name)
        if value is None and type(None) in allowed:
            continue
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{f.name} must be an integer, got {value!r}")
