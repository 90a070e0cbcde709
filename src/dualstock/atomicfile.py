"""Atomic file writes: every output appears whole or not at all.

A file is written under a temporary name in its own directory and renamed
onto its final name with ``os.replace`` only after it was written and closed
without error.  If the writer raises, the temporary file is removed and an
earlier file at the final name is left as it was, so a failed unit leaves
nothing on disk that a manifest would have to list.  The rename is atomic
against a failing or killed process; nothing is fsynced, so it does not
promise durability across a power loss.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path

__all__ = ["atomic_open"]


@contextlib.contextmanager
def atomic_open(path: str | Path):
    """Binary handle on a temporary sibling of ``path``, renamed onto it on success."""
    path = Path(path)
    # A fixed name keeps error messages, which the manifest records, the same
    # on every run, and a stale one left by a killed run is simply truncated.
    # os.open with 0o666 keeps the umask's file mode, as a plain open() would;
    # tempfile.mkstemp would create every output readable by its owner only.
    tmp = path.with_name(f".{path.name}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        with open(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
