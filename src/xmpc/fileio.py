"""Atomic replacement of output files.

Model and episode files are written to a temporary file in the target's
directory and renamed over the target only once complete, so a write that
fails part-way leaves the previous file untouched and no partial file behind.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path: str | Path):
    """Text handle whose content replaces ``path`` when the block succeeds."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
