"""Atomic replacement of output files, and strict readers for JSON objects and numbers.

Model, episode, excitation and config files are written to a
temporary file in the target's directory and renamed over the target only
once complete, so a write that fails part-way leaves the previous file
untouched and no partial file behind.  Text is written untranslated
(``newline=""``), so csv's ``\r\n`` row terminators survive on every platform.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path: str | Path, binary: bool = False):
    """Text (or binary) handle whose content replaces ``path`` when the block succeeds."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") if binary else tmp.open("w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def finite_number(value, name: str) -> float:
    """``value`` as a float if it decoded from a finite JSON number, else a ``ValueError``.

    A bool is not a number here, although Python counts it as an int, and
    neither is a string of digits.  NaN and infinity, which ``json`` accepts,
    are refused, and so is an integer beyond the float range.
    """
    if type(value) in (int, float):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def check_keys(data, keys, part: str, optional=()) -> None:
    """Raise ``ValueError`` unless ``data`` is an object of ``keys`` and any of ``optional``.

    ``part`` names ``data`` in the message.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{part} must be a JSON object, got {type(data).__name__}")
    stray = sorted(set(data).symmetric_difference(keys) - set(optional))
    if stray:
        raise ValueError(f"unexpected or missing keys {stray}")
