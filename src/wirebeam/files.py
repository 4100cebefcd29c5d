"""Every file the package writes, whole or not at all.  A leaf module that
imports nothing from wirebeam; no other module opens a file for writing,
imports `csv` or makes a directory, so a directory appears with its first
file and a run that fails before writing leaves none behind."""

import contextlib
import csv
import os
from pathlib import Path


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", newline: str | None = None):
    """Open a temporary file beside `path` that replaces `path` only once it
    is written and closed, so a run cut short never leaves a partial file
    under the final name.  It makes the parent directory, safely when forked
    workers race to.  `newline` is `open`'s, for text files."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_text(path, text: str):
    """`text` as the whole file at `path`."""
    with atomic_open(path) as fh:
        fh.write(text)


def write_csv(path, header, rows, echo: str | None = None):
    """A CSV table at `path`: a `# config <echo>` line when `echo` is given,
    the header, then a line per row of `rows` (an iterable, consumed here)."""
    with atomic_open(path, newline="") as fh:
        if echo is not None:
            fh.write("# config " + echo + "\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
