"""Crash-safe file replacement, shared by every checkpoint and manifest.

A crash at any point leaves the previous file or the new one, never a
torn mix; a write that raises leaves the previous file and no temp file.
"""

from __future__ import annotations

import contextlib
import os
from typing import BinaryIO, Callable


def replace_durably(path, write: Callable[[BinaryIO], None]) -> None:
    """Replace ``path`` with what ``write(fh)`` writes: temp file, data
    fsync, rename, directory fsync."""
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    dir_fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
