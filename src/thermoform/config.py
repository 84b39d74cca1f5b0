"""YAML run-configuration loading with strict schema validation.

Unknown keys are rejected; every error message carries the schema path of the
offending entry so CLI failures are actionable without reading the code.
"""
from __future__ import annotations

import sys
from typing import Any, Callable

import numpy as np
import yaml

from .expr import ScalarField

__all__ = ["ConfigError", "load_yaml", "check_keys", "need", "per_name", "as_number",
           "as_count", "as_name_list", "field_from", "time_fn_scalar", "time_fn_vector",
           "time_fn_matrix"]


class ConfigError(Exception):
    pass


def load_yaml(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
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


def _t_field(text: Any, path: str) -> ScalarField:
    return field_from(text, ("t",), path)


def time_fn_scalar(value: Any, path: str):
    f = _t_field("0" if value is None else value, path)
    return lambda t: f.value({"t": t})


def time_fn_vector(value: Any, path: str):
    if value is None:
        value = ["0"] * 3
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"{path}: expected a list of 3 expression strings")
    fields = [_t_field(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return lambda t: np.array([f.value({"t": t}) for f in fields])


def time_fn_matrix(value: Any, path: str):
    if value is None:
        value = [["0"] * 3 for _ in range(3)]
    if (not isinstance(value, list) or len(value) != 3
            or any(not isinstance(r, list) or len(r) != 3 for r in value)):
        raise ConfigError(f"{path}: expected a 3x3 nested list of expression strings")
    fields = [[_t_field(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)]
              for i, row in enumerate(value)]
    return lambda t: np.array([[f.value({"t": t}) for f in row] for row in fields])
