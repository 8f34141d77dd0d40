"""Exception types and value ranges shared across the package.

The CLI maps the exceptions onto distinct exit codes; library code raises
them directly so callers can tell a bad configuration from bad input data
or a numerical failure.

A field declares its range in its type, ``Annotated[X, text, test]``: an X
that passes ``test``, as ``text`` says.  The CLI checks a config file against
these types at load, and :func:`check_ranges` a dataclass built in Python.
Under postponed annotations a lambda inside a field's annotation looks up
global names in the class namespace: build such a test at module level.
"""

import dataclasses
import functools
import math
import typing
from typing import Annotated, Union


class ConfigError(ValueError):
    """A configuration file or option set is invalid."""


class InputError(ValueError):
    """A referenced input is missing or unusable."""


class AnnotationParseError(InputError):
    """An annotation or feature file is malformed (message carries the line)."""


class NumericError(RuntimeError):
    """A computation produced non-finite values."""


class EmptyResultError(RuntimeError):
    """An operation produced no result rows (empty selection everywhere)."""


def _at_least(low: int):
    return Annotated[int, f"an integer >= {low}", lambda v: v >= low]


Positive = Annotated[float, "a finite number > 0", lambda v: 0 < v < math.inf]
NonNegative = Annotated[float, "a finite number >= 0", lambda v: 0 <= v < math.inf]
Probability = Annotated[float, "a number in [0, 1]", lambda v: 0 <= v <= 1]


@functools.cache
def _hints(cls) -> dict:
    """Field types of a dataclass or TypedDict, its string annotations evaluated once."""
    return typing.get_type_hints(cls, include_extras=True)


def check_ranges(value, hint=None, key: str = "") -> None:
    """Raise a ValueError naming the first field of dataclass ``value`` outside its range.

    Nested dataclasses, tuples of them and ``Optional`` fields are checked too;
    below the top, ``hint`` and ``key`` are the declared type and the name of ``value``.
    """
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint is None or dataclasses.is_dataclass(hint):
        for name, field_hint in _hints(type(value)).items():
            check_ranges(getattr(value, name), field_hint, f"{key}.{name}" if key else name)
    elif origin is Annotated:
        check_ranges(value, args[0], key)
        if not args[2](value):
            raise ValueError(f"{key}: expected {args[1]}, got {value!r}")
    elif origin is Union and value is not None:  # Optional[X]
        check_ranges(value, args[0], key)
    elif origin is tuple:
        for i, item in enumerate(value):
            check_ranges(item, args[0], f"{key}[{i}]")
