"""JSON helpers: complex arrays as [re, im] pairs, canonical dumps, digests, and the input policy.

Every file the package reads back goes through one decode (:func:`decode`), one key rule
(:func:`exact_keys`: exactly the layout's keys, checked first), one integer rule (:func:`integer`,
:func:`integers`: never ``2.0``, ``2.5``, ``"2"`` or ``true``), one number rule (:func:`numbers`:
finite JSON numbers, never ``"0.5"``, ``true`` or ``null``, every [re, im] entry included) and one
wrapper (:func:`reading`): ``FormatError("bad <kind> file <path>: ...")``.
"""

from __future__ import annotations

import hashlib
import json
import reprlib
from contextlib import contextmanager

import numpy as np


class FormatError(ValueError):
    """An input file does not match its JSON layout."""


@contextmanager
def reading(kind: str, path):
    """Raise a layout error of the block as :class:`FormatError`, naming the file and its kind."""
    try:
        yield
    except (TypeError, ValueError, IndexError, OverflowError) as exc:
        raise FormatError(f"bad {kind} file {path}: {exc}") from exc


def decode(text: str, what: str = "not JSON"):
    """The JSON value of ``text``; ``ValueError``, ``what`` first, for text that is not JSON."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep to decode
        raise ValueError(f"{what}: {exc}") from None


def exact_keys(raw, keys: list, what: str) -> dict:
    """``raw`` if it is an object with exactly the sorted ``keys``; else ``ValueError``."""
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be an object with the keys {keys}")
    odd = sorted(raw.keys() ^ set(keys))
    if odd:
        raise ValueError(f"{what} must have the keys {keys}; "
                         f"{'extra' if odd[0] in raw else 'missing'} key {reprlib.repr(odd[0])}")
    return raw


def integer(value, what: str, least: int = 0) -> int:
    """``value`` if it is a JSON integer >= ``least``, else ``ValueError``."""
    if type(value) is not int or value < least:  # type() leaves out bool
        raise ValueError(f"{what} must be an integer >= {least}, not {reprlib.repr(value)}")
    return value


def integers(values, what: str, least: int = 0) -> list:
    """``values`` if it is a list of JSON integers >= ``least``, else ``ValueError``."""
    if type(values) is not list or not set(map(type, values)) <= {int} \
            or min(values, default=least) < least:
        raise ValueError(f"{what} must be a list of integers >= {least}")
    return values


def numbers(data, what: str) -> np.ndarray:
    """A JSON number, or a regular nested array of them, as a float array; else ``ValueError``."""
    leaves = np.asarray(data, dtype=object)  # as json gave them: numpy reads true as 1.0
    if not set(map(type, leaves.reshape(-1))) <= {int, float}:
        odd = next(v for v in leaves.reshape(-1) if type(v) not in (int, float))
        raise ValueError(f"{what} holds {reprlib.repr(odd)} where a number belongs")
    a = leaves.astype(float)
    if not np.isfinite(a).all():
        raise ValueError(f"{what} holds a number that is not finite")
    return a


def complex_to_pairs(arr):
    """Nested lists with every complex entry encoded as [re, im]."""
    arr = np.asarray(arr, dtype=complex)
    return np.stack((arr.real, arr.imag), axis=-1).tolist()


def pairs_to_complex(data) -> np.ndarray:
    """Inverse of :func:`complex_to_pairs`; validates the pair structure and the numbers."""
    a = numbers(data, "complex data")
    if a.ndim < 2 or a.shape[-1] != 2:
        raise ValueError("complex data must be nested [re, im] pairs")
    return a[..., 0] + 1j * a[..., 1]


def canonical_dumps(obj) -> str:
    """Deterministic JSON text: sorted keys, no whitespace padding; NaN and infinities raise."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def write_json(path, obj) -> None:
    text = canonical_dumps(obj)  # before the open, so a refused payload leaves no file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return decode(fh.read())


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
