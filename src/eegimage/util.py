"""Small shared helpers: canonical JSON, config hashing and the C heap's
thresholds."""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import hashlib
import json
import platform
from typing import Any

import numpy as np


def to_jsonable(obj: Any) -> Any:
    """Recursively convert dataclasses / numpy values to plain python."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
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
