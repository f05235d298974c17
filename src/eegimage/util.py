"""Small shared helpers: canonical JSON and config hashing."""

from __future__ import annotations

import dataclasses
import hashlib
import json
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

