"""Atomic replacement of output files.

Model, episode, excitation and config files are written to a
temporary file in the target's directory and renamed over the target only
once complete, so a write that fails part-way leaves the previous file
untouched and no partial file behind.  Text is written untranslated
(``newline=""``), so csv's ``\r\n`` row terminators survive on every platform.
"""

from __future__ import annotations

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
