"""YAML run-configuration loading with strict schema validation.

Unknown keys are rejected; every error message carries the schema path of the
offending entry so CLI failures are actionable without reading the code.
"""
from __future__ import annotations

import sys
from functools import partial
from typing import Any, Callable

import yaml

from .expr import ScalarField, lower
from .point import TimeFunction

__all__ = ["ConfigError", "load_yaml", "check_keys", "need", "per_name", "as_number",
           "as_count", "as_name_list", "field_from", "time_fn", "time_fn_scalar",
           "time_fn_vector", "time_fn_matrix"]


class ConfigError(Exception):
    pass


# libyaml's parser where PyYAML is built with it; the constructor is the same Python class
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_yaml(path: str) -> dict:
    try:
        with open(path, "rb") as fh:  # the YAML reader decodes, and names a byte that is not UTF-8
            doc = yaml.load(fh, Loader=_LOADER)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    return doc


def check_keys(d: dict, allowed: set[str], path: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected a mapping, got {d!r}")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")


def need(d: dict, key: str, path: str) -> Any:
    if key not in d:
        raise ConfigError(f"{path}.{key}: missing required key")
    return d[key]


def per_name(d: Any, names: tuple[str, ...], path: str, read: Callable[[Any, str], Any]) -> dict:
    """``{name: read(d[name], "<path>.<name>")}`` for a mapping whose keys are exactly ``names``."""
    check_keys(d, set(names), path)
    return {name: read(need(d, name, path), f"{path}.{name}") for name in names}


def as_number(value: Any, path: str) -> float:
    # the bound test is False for NaN and +-inf, and exact for ints too large for a float
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def as_count(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{path}: expected an integer >= 1, got {value!r}")
    return value


def as_name_list(value: Any, path: str) -> tuple[str, ...]:
    if not isinstance(value, list) or not value or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{path}: expected a non-empty list of names")
    if len(set(value)) != len(value):
        raise ConfigError(f"{path}: names must be unique")
    return tuple(value)


def field_from(text: Any, coords: tuple[str, ...], path: str) -> ScalarField:
    if not isinstance(text, str):
        raise ConfigError(f"{path}: expected an expression string")
    try:
        return ScalarField.from_text(text, coords)
    except Exception as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def time_fn(value: Any, path: str, shape: tuple[int, ...]) -> TimeFunction:
    """A function of t from an expression string (``shape`` ()) or a nested list of
    them of ``shape``; None is constant zeros.  Entry paths read ``<path>[i][j]``.

    The entries are lowered into one tape with an output per entry (a ``Forcing`` reads
    them from its joint tape instead).  A call is one float value sweep over it (sqrt(0)
    stays legal), an ndarray of ``shape`` or a float for ().  When the sweep fails, the
    entries are re-run one by one, so the error is the first failing entry's own.
    """
    if value is None:
        return TimeFunction(None, shape)
    leaves = [(value, path)]
    for n in shape:  # the whole shape is checked before any entry is parsed
        if any(not isinstance(row, list) or len(row) != n for row, _ in leaves):
            kind = f"list of {n}" if len(shape) == 1 else f"{'x'.join(map(str, shape))} nested list of"
            raise ConfigError(f"{path}: expected a {kind} expression strings")
        leaves = [(v, f"{p}[{i}]") for row, p in leaves for i, v in enumerate(row)]
    return TimeFunction(lower(field_from(v, ("t",), p).expression for v, p in leaves), shape)


time_fn_scalar = partial(time_fn, shape=())
time_fn_vector = partial(time_fn, shape=(3,))
time_fn_matrix = partial(time_fn, shape=(3, 3))
