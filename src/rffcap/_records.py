"""read_record, for the records read back from files (scenario YAML, sweep CSV/JSON
rows, .rfds meta), and _check_count and _check_real, for every count and real-valued
limit a config section or a library function takes. It imports nothing from rffcap."""

from __future__ import annotations

import math
import operator
from dataclasses import MISSING, fields, is_dataclass
from numbers import Real

import numpy as np

# the Python types each word of an annotation takes; a bool is never a number
_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str, "None": type(None)}
_ORDER = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


def read_record(cls, data, where: str | None):
    """cls from a mapping of its fields, each value checked against its annotation.

    Unknown keys are rejected and a field with no default is required. A
    field whose default is a dataclass is read as a nested record, a tuple
    default takes a [low, high] list of integers and a list field a list.
    Otherwise each word of the annotation is one accepted type: int takes
    only an integer, float an integer or a float (stored as float), bool
    only true/false, str a string and None null. Errors name {where}.{field}
    (where None is a file's top level), also for cls's own ValueError.
    """
    label = where or "top level"
    if not isinstance(data, dict):
        raise ValueError(f"{label}: expected a mapping, got {type(data).__name__}")
    declared = {f.name: (f.type, f.default if f.default_factory is MISSING
                         else f.default_factory()) for f in fields(cls)}
    unknown = sorted(set(data) - set(declared))
    if unknown:
        raise ValueError(f"{label}: unknown keys {unknown}")
    missing = [name for name, (_, default) in declared.items()
               if default is MISSING and name not in data]
    if missing:
        raise ValueError(f"{label}: missing keys {missing}")
    values = {}
    for name, value in data.items():
        key = f"{where}.{name}" if where else name
        annotation, default = declared[name]
        if is_dataclass(default):
            value = read_record(type(default), value, key)
        elif isinstance(default, tuple):
            if not (isinstance(value, (list, tuple)) and len(value) == len(default)):
                raise ValueError(f"{key}: expected [low, high]")
            value = tuple(_typed("int", v, key) for v in value)
        elif annotation == "list":
            if not isinstance(value, list):
                raise ValueError(f"{key}: expected a list, got {type(value).__name__}")
        else:
            value = _typed(annotation, value, key)
        values[name] = value
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{label}: {exc}") from None


def _typed(annotation: str, value, key: str):
    for word in annotation.split(" | "):
        if isinstance(value, _TYPES[word]) and isinstance(value, bool) == (word == "bool"):
            return float(value) if word == "float" else value
    raise ValueError(f"{key}: expected {annotation}, got {value!r}")


def _check_count(name: str, value, low: int, high: int | None = None):
    """value if it is an integer in [low, high] (no upper limit when high is
    None), else ValueError. A bool is an int to isinstance, but never a count."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and low <= value and (high is None or value <= high)):
        upper = "" if high is None else f", <= {high}"
        raise ValueError(f"{name} must be >= {low}{upper} and an integer: {value!r}")
    return value


def _check_real(name: str, value, low=None, high=None, strict: bool = False):
    """value if it is a finite real number (never a bool or a string) in [low, high],
    or (low, high) when strict, a limit of None being absent; else ValueError."""
    limits = [(op, limit) for op, limit in zip((">", "<") if strict else (">=", "<="), (low, high))
              if limit is not None]
    try:
        finite = _is_real(value) and math.isfinite(value)
    except OverflowError:  # an integer past float range
        finite = False
    if not (finite and all(_ORDER[op](value, limit) for op, limit in limits)):
        text = ", ".join(f"{op} {limit}" for op, limit in limits)
        raise ValueError(f"{name} must be {text + ' and ' if text else ''}finite: {value!r}")
    return value


def _is_real(value) -> bool:
    """Whether a limit can be compared with value; never for a string or a bool."""
    return isinstance(value, Real) and not isinstance(value, bool)
