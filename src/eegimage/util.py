"""Small shared helpers: canonical JSON and its inverse, config hashing,
the one writer and reader of stamped JSON records and stamp lines, and the
C heap's thresholds."""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import hashlib
import json
import platform
import types
from pathlib import Path
from typing import Any, get_args, get_origin, get_type_hints

import numpy as np


def to_jsonable(obj: Any) -> Any:
    """Recursively convert dataclasses / numpy values to plain python; an int
    in a float field is written as a float, as :func:`from_jsonable` reads it."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        hints, out = get_type_hints(type(obj)), {}
        for f in dataclasses.fields(obj):
            v = getattr(obj, f.name)
            out[f.name] = to_jsonable(float(v) if hints[f.name] is float and type(v) is int else v)
        return out
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
              dict: "an object"}


def from_jsonable(kind: Any, data: Any) -> Any:
    """The inverse of :func:`to_jsonable` for a type: a dataclass from an
    object holding exactly its fields, a tuple from a list, ``X | None`` from
    null or an X, a scalar of its own JSON type (an integer passes for a
    float). Each dataclass runs its own checks; a ValueError names the field
    that does not fit."""
    if dataclasses.is_dataclass(kind):
        if type(data) is not dict:
            raise ValueError(f"must be an object, got {json.dumps(data)}")
        hints = get_type_hints(kind)
        names = [f.name for f in dataclasses.fields(kind)]
        unknown = sorted(set(data) - set(names))
        if unknown:
            raise ValueError(f"unknown fields {unknown}")
        values = {}
        for name in names:
            try:
                if name not in data:
                    raise ValueError("missing")
                values[name] = from_jsonable(hints[name], data[name])
            except ValueError as e:
                raise ValueError(f"field {name!r}: {e}") from None
        return kind(**values)
    args = get_args(kind)
    if get_origin(kind) is types.UnionType:  # X | None
        return None if data is None else from_jsonable(args[0], data)
    if get_origin(kind) is tuple:  # tuple[X, ...]
        if type(data) is not list:
            raise ValueError(f"must be a list, got {json.dumps(data)}")
        return tuple(from_jsonable(args[0], v) for v in data)
    if kind is float and type(data) is int:
        return float(data)
    if type(data) is not kind:
        raise ValueError(f"must be {TYPE_NAMES[kind]}, got {json.dumps(data)}")
    return data


def read_json_object(path: Path) -> dict:
    """A JSON file that must hold an object; a ValueError names the file."""
    with open(path) as f:
        try:
            obj = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: not JSON: {e}") from None
    if type(obj) is not dict:
        raise ValueError(f"{path}: not a JSON object, got {json.dumps(obj)}")
    return obj


def read_record(path: Path, kind: type, field: str | None = None) -> tuple[Any, dict]:
    """A stamped record of type `kind` and the JSON object that holds it: its
    fields at the top level (other keys are ignored) or the object under
    `field`, checked against the file's config_hash. Every ValueError names
    the file and the field."""
    doc = read_json_object(path)
    if field is None:
        names = {f.name for f in dataclasses.fields(kind)}
        data, where = {k: v for k, v in doc.items() if k in names}, f"{path}"
    elif field not in doc:
        raise ValueError(f"{path}: field {field!r}: missing")
    else:
        data, where = doc[field], f"{path}: field {field!r}"
    try:
        record = from_jsonable(kind, data)
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None
    got, want = doc.get("config_hash"), config_hash(record)
    if got != want:
        raise ValueError(f"{path}: field 'config_hash' {got!r} does not match the "
                         f"recorded config, which hashes to {want!r}")
    return record, doc


def write_record(path: Path, record: Any, field: str | None = None, /, **extra) -> None:
    """Write `record` as :func:`read_record` reads it: its fields at the top
    level, or the object under `field`, beside its config_hash and the
    `extra` keys, which cannot displace either; sorted keys, one-space
    indent, newline-terminated."""
    body = {field: record} if field is not None else to_jsonable(record)
    doc = {**extra, **body, "config_hash": config_hash(record)}
    with open(path, "w") as f:
        json.dump(to_jsonable(doc), f, sort_keys=True, indent=1)
        f.write("\n")


def stamp(obj: Any, seed: int) -> str:
    """The comment line that stamps an artifact made from `obj` with `seed`."""
    return f"config_hash={config_hash(obj)} seed={seed}"


def canonical_json(obj: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace surprises)."""
    return json.dumps(to_jsonable(obj), sort_keys=True, separators=(",", ":"))


def config_hash(obj: Any) -> str:
    """Short stable hash identifying a configuration."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()[:16]


@functools.cache
def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at 32 MiB, the most its dynamic threshold
    reaches on 64-bit, and its trim threshold at 128 MiB, above a training
    command's working set; once per process, and nothing under another C
    library.

    glibc starts them at 128 KiB and 256 KiB and raises them only when a
    large mmapped block is freed. Until then a loop that frees each batch's
    arrays before the next batch hands their pages back to the kernel at
    every step and faults them in again.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 128 << 20)  # M_TRIM_THRESHOLD
