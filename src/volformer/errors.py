"""Exception types shared across the package, and the config type check
that raises one."""

import dataclasses
import math
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


_FIELD_KINDS = {int: ("an integer", numbers.Integral),
                float: ("a number", numbers.Real),
                str: ("a string", str)}


def require_field_types(config) -> None:
    """Reject values of the wrong type in a config dataclass's fields.

    JSON spells a count as 32.5 or true, or a path as 7, as easily as the
    intended value; the field annotations, not a list of keys, say what
    each field takes. An int field takes only integers, a float field an
    integer or a float, a str field only a string, and an Optional field
    also None. A bool is never a number, and a float field takes only
    finite values: JSON spells NaN and Infinity too, and NaN passes every
    range check.
    """
    hints = typing.get_type_hints(type(config))
    for f in dataclasses.fields(config):
        allowed = typing.get_args(hints[f.name]) or (hints[f.name],)
        value = getattr(config, f.name)
        if value is None and type(None) in allowed:
            continue
        for kind, (what, accepted) in _FIELD_KINDS.items():
            if kind in allowed and (isinstance(value, bool)
                                    or not isinstance(value, accepted)):
                raise ConfigError(f"{f.name} must be {what}, got {value!r}")
        if float in allowed and not _is_finite(value):
            raise ConfigError(f"{f.name} must be a finite number, got {value!r}")


def _is_finite(value: numbers.Real) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False
