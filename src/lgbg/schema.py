"""The one reader for files that come from outside the program, and the one
writer for every file the program makes.

Every JSON input -- dataset manifest, vocabulary, config, scenario spec and
checkpoint -- is read with `read_json`; event logs (`read_lines`) and
embedding files (`read_text`) parse their own lines. Fields are taken with
`require` and `require_array`, and flat records are made with `build`, which
checks each value against its dataclass field's annotation.

Each fault raises one error, which the CLI reports with exit code 2:

* a file that does not exist: `ValidationError`;
* bytes that are not UTF-8, text that is not JSON, an object that gives one
  key twice, a document that is not a JSON object, or a wrong `format`:
  `ParseError`;
* a field that is missing or has the wrong type: `ParseError`. A bool never
  counts as an int or a float, and a number must be finite, so JSON
  `NaN`/`Infinity` and overflowing literals such as `1e999` are rejected;
* a key that names no field of the record being built: `ValidationError`.

Every output file is written with `write_text`, which replaces the file
atomically: a reader sees its old bytes or its new ones, never a part.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import typing
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError

_NAMES = {bool: "a bool", int: "an integer", float: "a finite number",
          str: "a string", list: "a list", dict: "an object"}


def read_lines(path, what: str):
    """The lines of the UTF-8 text file at `path`, a `what` to the user,
    read one at a time."""
    path = Path(path)
    try:
        with path.open(encoding="utf-8") as fh:
            yield from fh
    except FileNotFoundError:
        raise ValidationError(f"{what} not found: {path}") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"{what} {path} is not UTF-8: {e}") from None


def read_text(path, what: str) -> str:
    """The whole UTF-8 text of the file at `path`."""
    return "".join(read_lines(path, what))


def _no_constant(name: str):
    raise ValueError(f"{name} is not a finite number")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"key {key!r} appears twice in one object")
        doc[key] = value
    return doc


def read_json(path, what: str, fmt: int | None = None) -> dict:
    """The JSON object in the file at `path`; its `format` must equal `fmt`
    unless `fmt` is None."""
    try:
        doc = json.loads(read_text(path, what), parse_constant=_no_constant,
                         object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as e:
        raise ParseError(f"{what} is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must hold a JSON object")
    if fmt is not None and require(doc, "format", int, None) != fmt:
        raise ParseError(f"unsupported {what} format {doc.get('format')!r}")
    return doc


def _is(value, typ) -> bool:
    """Whether the decoded JSON `value` has type `typ`: one of bool, int,
    float, str, list, dict, or `list[T]` / `dict[str, T]` of those."""
    origin = typing.get_origin(typ)
    if origin is list:
        return isinstance(value, list) and all(_is(v, typing.get_args(typ)[0])
                                               for v in value)
    if origin is dict:
        key, item = typing.get_args(typ)
        return isinstance(value, dict) and all(_is(k, key) and _is(v, item)
                                               for k, v in value.items())
    if isinstance(value, bool):
        return typ is bool
    if typ is float:
        return isinstance(value, int) or isinstance(value, float) and math.isfinite(value)
    return isinstance(value, typ)


def _name(typ) -> str:
    args = typing.get_args(typ)
    if typing.get_origin(typ) is list:
        return f"a list of {_name(args[0]).split(' ', 1)[1]}s"
    if typing.get_origin(typ) is dict:
        return f"an object of {_name(args[1]).split(' ', 1)[1]}s"
    return _NAMES[typ]


def _show(value) -> str:
    if value is MISSING:
        return "nothing"
    if isinstance(value, (str, list, dict)):
        return _name(type(value))
    return repr(value)


def require(doc: dict, key: str, typ, default=MISSING):
    """`doc[key]`, which must have type `typ` (see `_is`); `default` when the
    key is absent and a default is given."""
    value = doc.get(key, MISSING)
    if value is MISSING and default is not MISSING:
        return default
    if not _is(value, typ):
        raise ParseError(f"{key!r} must be {_name(typ)}, got {_show(value)}")
    return value


def require_array(doc: dict, key: str, shape: tuple[int, ...]) -> np.ndarray:
    """`doc[key]`, a (nested) list of finite numbers, as a float64 array of
    exactly `shape`."""
    try:
        arr = np.array(require(doc, key, list))
    except ValueError:  # ragged nesting
        arr = None
    if (arr is None or arr.dtype.kind not in "if" or arr.shape != tuple(shape)
            or not np.isfinite(arr).all()):
        raise ParseError(f"{key!r} must be an array of finite numbers "
                         f"of shape {tuple(shape)}")
    return arr.astype(np.float64)


def build(cls, values: dict, what: str):
    """`cls(**values)` for the dataclass `cls`, once every key names one of its
    fields, every value has its field's annotated type and every field
    without a default is given."""
    hints = typing.get_type_hints(cls)
    unknown = [key for key in values if key not in hints]
    if unknown:
        raise ValidationError(f"unknown {what} key {unknown[0]!r}")
    for f in fields(cls):
        if f.name in values or f.default is MISSING and f.default_factory is MISSING:
            require(values, f.name, hints[f.name])
    return cls(**values)


def write_text(path, text: str) -> None:
    """Replace the file at `path` with the UTF-8 `text`, atomically.

    The text goes to a temp file in the same directory, which `os.replace`
    then moves over `path`. If anything fails, the temp file is removed and
    the error re-raised, so `path` keeps its old bytes, or stays absent. No
    `fsync` is made: this guards against a failed or interrupted run, not a
    crash of the machine.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise
