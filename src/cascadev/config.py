"""What a config field may hold, and one reader for config documents.

A config class is a dataclass whose field annotations say what each
field takes: int (not a bool), float (a finite int or float, not a
bool), bool, str, tuple[...] of those, X | None, or a config class.
check_types enforces them, so a __post_init__ keeps only range rules.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import typing

_WORDS = {int: "an integer", float: "a finite number", bool: "true or false",
          str: "a string", type(None): "null"}
_hints = functools.cache(typing.get_type_hints)  # field name -> annotation, per class


def _fits(value, tp) -> bool:
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, tuple):
            return False
        if args[-1] is Ellipsis:
            return all(_fits(v, args[0]) for v in value)
        return len(value) == len(args) and all(map(_fits, value, args))
    if args:  # X | Y
        return any(_fits(value, t) for t in args)
    if tp is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if tp is float:  # a finite float, or an int that converts to one
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and abs(value) <= sys.float_info.max)
    return isinstance(value, tp)


def _spell(tp) -> str:
    args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:
        return "[" + ", ".join("..." if t is Ellipsis else _spell(t) for t in args) + "]"
    if args:
        return " or ".join(_spell(t) for t in args)
    return _WORDS.get(tp, f"a {tp.__name__}")


def check_types(obj) -> None:
    """ValueError unless every field of the config obj holds what its annotation declares."""
    for name, tp in _hints(type(obj)).items():
        value = getattr(obj, name)
        if not _fits(value, tp):
            expected = _spell(tp)
            if expected.startswith("["):  # a tuple field
                raise ValueError(f"invalid {name} {value!r}, expected {expected}")
            raise ValueError(f"{name} must be {expected}, got {value!r}")


def _tuples(value):
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def from_doc(cls: type, doc, what: str):
    """The config cls read from the JSON object doc (named what in errors).

    Unknown keys are rejected, arrays read as tuples, and a config-class field
    from its own object, whose errors start "invalid <field> config: ".
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {doc!r}")
    hints = _hints(cls)
    unknown = set(doc) - set(hints)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    kwargs = {}
    for key, value in doc.items():
        if dataclasses.is_dataclass(hints[key]):
            try:
                value = from_doc(hints[key], value, key)
            except ValueError as exc:
                raise ValueError(f"invalid {key} config: {exc}") from exc
        kwargs[key] = _tuples(value)
    return cls(**kwargs)
