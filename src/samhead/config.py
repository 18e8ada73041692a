"""The JSON form of the config dataclasses.

``read`` builds a dataclass from a parsed JSON object, checking each value
against the field's annotation.  Type errors, unknown keys and missing
required fields raise ConfigError naming the key; range checks stay in each
``__post_init__``.  ``dataclasses.asdict`` writes the same form back.

``write_array`` and ``read_array`` are the JSON form of a numeric array in
a data file: one string, the padded standard base64 of the array's
little-endian bytes.  A malformed array is a DataError naming its key.
"""

from __future__ import annotations

import base64
import dataclasses
import types
import typing

import numpy as np

from .errors import ConfigError, DataError

_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string"}


def section(value, key: str, allowed=None) -> dict:
    """``value``, which must be a JSON object, with no key outside ``allowed`` if given."""
    if not isinstance(value, dict):
        raise ConfigError(f"{key} section must be a JSON object, got {type(value).__name__}")
    if allowed is not None:
        unknown = sorted(set(value) - set(allowed))
        if unknown:
            raise ConfigError(f"unknown {key} keys {unknown}; allowed: {sorted(allowed)}")
    return value


def read(tp, value, key: str):
    """``value`` read as type ``tp``; ``key`` names it in errors.

    Supported: dataclasses, ``int``, ``float`` (a JSON integer is read as a
    float), ``bool``, ``str``, ``X | None``, ``tuple[T, ...]``, fixed-length
    tuples and ``dict[str, T]``.  A list or a tuple is accepted where a tuple
    is expected.
    """
    if dataclasses.is_dataclass(tp):
        return _read_dataclass(tp, value, key)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (types.UnionType, typing.Union):
        if value is None and type(None) in args:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return read(inner, value, key)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key} must be a JSON list, got {value!r}")
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{key} must hold {len(args)} values, got {len(value)}")
        return tuple(read(t, v, f"{key}[{i}]") for i, (t, v) in enumerate(zip(args, value)))
    if origin is dict:
        return {k: read(args[1], v, f"{key}[{k!r}]") for k, v in section(value, key).items()}
    if tp is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, tp) and not (tp is not bool and isinstance(value, bool)):
        return value
    raise ConfigError(f"{key} must be {_NAMES[tp]}, got {value!r}")


def _read_dataclass(cls, value, key: str):
    fields = {f.name: f for f in dataclasses.fields(cls) if f.init}
    value = section(value, key, fields)
    missing = [
        name for name, f in fields.items()
        if name not in value
        and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise ConfigError(f"{key} lacks required keys {missing}")
    hints = typing.get_type_hints(cls)
    return cls(**{name: read(hints[name], v, name) for name, v in value.items()})


def write_array(values, dtype: str) -> str:
    """``values`` as ``dtype`` (a little-endian type such as ``"<i4"``), in base64."""
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode("ascii")


def read_array(value, dtype: str, key: str, count: int | None = None) -> np.ndarray:
    """The 1-D array ``write_array`` wrote, as native int64 or float64.

    ``value`` must be the canonical padded base64 of ``count`` items (any
    whole number of items if ``count`` is None); anything else is a
    DataError naming ``key``.  Values are not range-checked.
    """
    if not isinstance(value, str):
        raise DataError(f"{key} must be a base64 string, got {type(value).__name__}")
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError as e:
        raise DataError(f"{key} is not base64: {e}") from None
    if base64.b64encode(raw).decode("ascii") != value:
        raise DataError(f"{key} is not canonical padded base64")
    item = np.dtype(dtype)
    if len(raw) % item.itemsize or (count is not None and len(raw) != count * item.itemsize):
        want = "a whole number of" if count is None else str(count)
        raise DataError(
            f"{key} must hold {want} {item.itemsize}-byte values, got {len(raw)} bytes"
        )
    return np.frombuffer(raw, dtype=item).astype(np.int64 if item.kind == "i" else np.float64)
