"""JSON helpers: complex arrays as [re, im] pairs, canonical dumps, digests."""

from __future__ import annotations

import hashlib
import json

import numpy as np


def complex_to_pairs(arr):
    """Nested lists with every complex entry encoded as [re, im]."""
    arr = np.asarray(arr, dtype=complex)
    return np.stack((arr.real, arr.imag), axis=-1).tolist()


def pairs_to_complex(data) -> np.ndarray:
    """Inverse of :func:`complex_to_pairs`; validates the pair structure."""
    a = np.asarray(data, dtype=float)
    if a.ndim < 2 or a.shape[-1] != 2:
        raise ValueError("complex data must be nested [re, im] pairs")
    if not np.isfinite(a).all():
        raise ValueError("complex data holds a number that is not finite")
    return a[..., 0] + 1j * a[..., 1]


def canonical_dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, no whitespace padding."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(obj))
        fh.write("\n")


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
