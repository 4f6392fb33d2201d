"""Exception taxonomy shared by the toolkit and mapped to CLI exit codes, and the
type check that config values pass before they are used."""

import sys
import types
import typing


class MemmeterError(Exception):
    """Base class for all toolkit-specific failures."""


class ConfigError(MemmeterError):
    """Invalid configuration, incompatible shapes, or unusable arguments."""


class DataFormatError(MemmeterError):
    """Malformed input file. Carries the byte offset where parsing failed."""

    def __init__(self, message, *, path=None, offset=None):
        detail = message
        if path is not None:
            detail = f"{path}: {detail}"
        if offset is not None:
            detail = f"{detail} (byte offset {offset})"
        super().__init__(detail)
        self.path = path
        self.offset = offset


class MeasurementError(MemmeterError):
    """A measurement run produced no usable episodes."""


def check_types(values, annotations, what):
    """Raise ConfigError naming the first key whose value does not match its annotation.

    `annotations` maps keys to types (int, float, bool, str, list, dict,
    tuple[int, ...], X | None, classes); keys it lacks are not checked. As in
    JSON, a float key takes an int that a float can hold; an int key takes
    neither a float nor a bool, and a tuple key takes a list.
    """
    for key, value in values.items():
        expected = annotations.get(key)
        if expected is not None and not _has_type(value, expected):
            name = expected.__name__ if isinstance(expected, type) else str(expected)
            raise ConfigError(f"{what} {key!r} must be {name}, got {value!r}")


def _has_type(value, expected):
    origin = typing.get_origin(expected)
    if origin in (typing.Union, types.UnionType):
        return any(_has_type(value, member) for member in typing.get_args(expected))
    if origin is tuple:
        item = typing.get_args(expected)[0]
        return isinstance(value, (list, tuple)) and all(_has_type(v, item) for v in value)
    if isinstance(value, bool):
        return expected is bool
    if expected is float and isinstance(value, int):
        return abs(value) <= sys.float_info.max
    return isinstance(value, expected)
