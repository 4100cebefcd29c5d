"""Whole-or-nothing file writes.  A leaf module: it imports nothing from
wirebeam, so every module that writes a file can import it."""

import contextlib
import os
from pathlib import Path


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", newline: str | None = None):
    """Open a temporary file beside `path` that replaces `path` only once it
    is written and closed, so a run cut short never leaves a partial file
    under the final name.  `newline` is `open`'s, for text files."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
