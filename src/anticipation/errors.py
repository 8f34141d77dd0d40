"""Exception types, value ranges and the one check of declared field types.

The CLI maps the exceptions onto distinct exit codes; library code raises
them directly so callers can tell a bad configuration from bad input data
or a numerical failure.

A field declares its range in its type, ``Annotated[X, text, test]``: an X
that passes ``test``, as ``text`` says.  :func:`check` reads these types,
the same way for a JSON config file at load, which it builds into those
types, and for a config dataclass that checks itself when it is built
(``NetworkConfig``, ``SimConfig``).  It resolves each type into a checker
once, cached by the type, so checking a value reads no type hint.
Under postponed annotations a lambda inside a field's annotation looks up
global names in the class namespace: build such a test at module level.
"""

import dataclasses
import functools
import json
import math
import numbers
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


def _required(hint) -> set:
    """Keys a record of type ``hint`` must give: a dataclass's fields without a default."""
    if not dataclasses.is_dataclass(hint):
        return getattr(hint, "__required_keys__", set())
    return {f.name for f in dataclasses.fields(hint)
            if f.default is f.default_factory is dataclasses.MISSING}


# The name and the Python type of each scalar field type: an int field takes any
# integer and a float field any real number, numpy's included.  Only a bool
# field takes a bool, though Python counts it as an integer.
_SCALARS = {bool: ("true or false", bool), int: ("an integer", numbers.Integral),
            float: ("a number", numbers.Real), str: ("a string", str)}


def _json(value) -> str:
    return json.dumps(value, default=lambda v: v.tolist() if hasattr(v, "tolist") else repr(v))


def _refuse(key: str, expected: str, got: str):
    raise ConfigError(f"{key or 'top level'}: expected {expected}, got {got}")


def check(value, hint, key: str = ""):
    """``value`` built as type ``hint``; a ConfigError naming ``key`` unless it is one.

    A record type (a dict of key types, a dataclass or a TypedDict) takes a
    dict that holds no unknown key and every key without a default, and
    gives a dict, or an instance of its dataclass built from it: a
    ValueError its fields raise against each other becomes a ConfigError.
    An instance of the dataclass is checked and comes back as it is.
    ``tuple[X, ...]`` (or ``tuple[X, Y]``, of one X and one Y) takes a list
    or a tuple and gives a tuple; an int field takes an integer that int64
    can hold, and a float field a real number that a float can hold, as a
    float; a value of type ``Annotated[X, text, test]`` is an X whose built
    value passes ``test``.  Messages print values as JSON.
    """
    return _checker(hint)(value, key)


def _checker(hint):
    """``hint``'s checker, built once; a dict of key types cannot be hashed, so on each call."""
    return _compile(hint) if isinstance(hint, dict) else _compiled(hint)


def _compile(hint):
    """``hint`` resolved into its checker; field tables and texts are built here, once."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Annotated:
        inner, text, test = _checker(args[0]), args[1], args[2]
        def annotated(value, key):
            built = inner(value, key)
            return built if test(built) else _refuse(key, text, _json(value))
        return annotated
    if origin is Union and type(None) in args:  # Optional[X]
        inner = _checker(args[0])
        return lambda value, key: None if value is None else inner(value, key)
    if origin is tuple:
        fixed = args[-1] is not Ellipsis
        items = [_checker(a) for a in (args if fixed else args[:1])]
        expected = f"a list of {len(args)}" if fixed else "a list"
        def sequence(value, key):
            if not isinstance(value, (list, tuple)) or fixed and len(value) != len(args):
                _refuse(key, expected, _json(value))
            return tuple(items[i if fixed else 0](item, f"{key}[{i}]")
                         for i, item in enumerate(value))
        return sequence
    if isinstance(hint, dict) or dataclasses.is_dataclass(hint) or typing.is_typeddict(hint):
        fields = hint if isinstance(hint, dict) else _hints(hint)
        checkers = {name: _checker(field) for name, field in fields.items()}
        cls, required = hint if dataclasses.is_dataclass(hint) else None, _required(hint)
        def record(value, key):
            where, instance = key or "top level", cls is not None and isinstance(value, cls)
            if not (instance or isinstance(value, dict)):
                _refuse(key, "an object", _json(value))
            items = {name: getattr(value, name) for name in fields} if instance else value
            if unknown := set(items) - set(fields):
                raise ConfigError(f"unknown config key(s) in {where}: {', '.join(sorted(unknown))}")
            if missing := required - set(items):
                raise ConfigError(f"{where}: missing key(s): {', '.join(sorted(missing))}")
            built = {k: checkers[k](item, f"{key}.{k}" if key else k) for k, item in items.items()}
            if instance or cls is None:
                return value if instance else built
            try:
                return cls(**built)
            except ValueError as exc:  # fields that do not fit each other
                raise ConfigError(f"{where}: {exc}") from None
        return record
    choices = args or (hint,)  # a scalar type, or a choice of them
    expected = " or ".join(_SCALARS[a][0] for a in choices)
    def scalar(value, key):  # the exact built-in type first: the ABCs are slower to ask
        if type(value) not in choices and not any(
                isinstance(value, _SCALARS[a][1]) and isinstance(value, bool) == (a is bool)
                for a in choices):
            _refuse(key, expected, _json(value))
        if int in choices and isinstance(value, numbers.Integral) and not -2**63 <= value < 2**63:
            _refuse(key, expected, "an integer too large for int64")
        try:
            return float(value) if hint is float else value
        except OverflowError:  # an integer beyond the largest float
            _refuse(key, expected, "an integer too large for a float")
    return scalar


_compiled = functools.cache(_compile)
