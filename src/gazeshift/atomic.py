"""A command's files: whole-file writes, and a file's identity, the SHA-256 of its bytes.

``open_atomic`` replaces a file completely or leaves it as it was, writes the
text as given, and is the one place a directory is made: a command makes
``--out`` with its first file. ``hashlib`` is imported where a digest is
taken, so ``import gazeshift.cli`` does not load it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def open_atomic(path):
    """Open a temporary text file beside ``path`` for writing, making ``path``'s missing parents.

    When the block ends normally the file replaces ``path`` in one
    ``os.replace``; when it raises, the temporary file is removed and
    ``path`` keeps its previous contents. The file gets the permissions a
    plain ``open(path, "w")`` would give it (0o666 less the umask).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # 128 random bits, as uuid4 gives, without importing uuid (and platform with it)
    # on every command; O_EXCL refuses a clash.
    tmp = path.with_name(f"{path.name}.{os.urandom(16).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text(path, text: str) -> str:
    """Write ``text`` to ``path`` through ``open_atomic``; returns its UTF-8 bytes' SHA-256."""
    import hashlib

    with open_atomic(path) as fh:
        fh.write(text)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def read_text(path) -> tuple[str, str]:
    """The UTF-8 text of the file at ``path`` and the SHA-256 of its bytes, read once."""
    import hashlib

    with open(path, "rb") as fh:
        data = fh.read()
    return data.decode("utf-8"), hashlib.sha256(data).hexdigest()
