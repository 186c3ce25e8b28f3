"""Whole-file writes: a file is either replaced completely or left as it was."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def open_atomic(path, newline: str | None = None):
    """Open a temporary text file beside ``path`` for writing.

    When the block ends normally the file replaces ``path`` in one
    ``os.replace``; when it raises, the temporary file is removed and
    ``path`` keeps its previous contents. The file gets the permissions a
    plain ``open(path, "w")`` would give it (0o666 less the umask).
    """
    path = Path(path)
    # 128 random bits, as uuid4 gives, without importing uuid (and platform with it)
    # on every command; O_EXCL refuses a clash.
    tmp = path.with_name(f"{path.name}.{os.urandom(16).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
