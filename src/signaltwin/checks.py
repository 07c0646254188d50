"""The type check that every input file and config section passes."""

from __future__ import annotations

import sys
import typing
from contextlib import suppress
from enum import Enum
from functools import cache
from types import UnionType
from typing import Callable


class ConfigError(ValueError):
    """Invalid run configuration; maps to exit code 2."""


@cache
def _hints(spec: Callable) -> dict:
    return {k: v for k, v in typing.get_type_hints(spec).items() if k != "return"}


def _checked(values: dict, spec: Callable | dict, where: str = "") -> dict:
    """``values`` with every key checked against the parameters of ``spec``
    (a dataclass, a function, or a dict of type hints) and every value
    made its declared type by ``_typed``."""
    if not isinstance(values, dict):
        raise ConfigError(f"{where} must be an object, got {values!r}".lstrip())
    hints = spec if isinstance(spec, dict) else _hints(spec)
    checked = {}
    for key, value in values.items():
        path = f"{where}.{key}" if where else key
        if key not in hints:
            raise ConfigError(f"{path}: unknown key; valid keys: {', '.join(hints)}")
        checked[key] = _typed(value, hints[key], path)
    return checked


def _typed(value, hint, path: str):
    """``value`` as type ``hint``: a float takes a finite JSON int or float,
    an int or bool only itself (a bool is never a number), a tuple a JSON
    list, an Enum one of its values, and a union its first member that fits."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is UnionType or origin is typing.Union:
        for member in args:
            with suppress(ConfigError):
                return _typed(value, member, path)
    elif origin in (tuple, list):
        if isinstance(value, (list, tuple)):
            return origin(_typed(v, args[0], f"{path}[{i}]") for i, v in enumerate(value))
    elif hint is float:
        if _is_finite(value):
            return float(value)
    elif issubclass(hint, Enum):
        with suppress(ValueError):
            return hint(value)
    elif isinstance(value, hint) and not (hint is int and isinstance(value, bool)):
        return value
    name = str(hint) if origin else hint.__name__
    raise ConfigError(f"{path} must be {name}, got {value!r}")


def _is_finite(value) -> bool:
    """A JSON number, never a bool, that is finite, also as a float."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= sys.float_info.max
