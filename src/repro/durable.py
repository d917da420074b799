"""Crash-safe persistence: every checkpoint, store manifest and artifact.

:func:`replace_durably` is the one file replacement (a crash leaves the
old file or the new one, never a torn mix).  On it sit the versioned
``.npz`` checkpoints, :class:`SegmentManifest`, the manifest of the
history and event-log segment stores, which keep only their codecs, and
:func:`write_text_durably`, behind ``incidents.json``, the incident
bundles and ``health.json``.
"""

from __future__ import annotations

import contextlib
import json
import os
import zipfile
import zlib
from pathlib import Path
from typing import BinaryIO, Callable, List, Mapping, Sequence, Tuple

import numpy as np

from .errors import TelemetryError

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = 1


def _replace(path: str, write: Callable[[BinaryIO], None]) -> None:
    """Temp file, data fsync, rename; a failure removes the temp file."""
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


def _fsync_dir(path: str) -> None:
    dir_fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def replace_durably(path, write: Callable[[BinaryIO], None]) -> None:
    """Replace ``path`` with what ``write(fh)`` writes: temp file, data
    fsync, rename, directory fsync."""
    path = os.fspath(path)
    _replace(path, write)
    _fsync_dir(path)


def write_text_durably(path, text: str) -> None:
    """:func:`replace_durably` with ``text``, UTF-8 encoded."""
    data = text.encode()
    replace_durably(path, lambda fh: fh.write(data))


def save_versioned_npz(path, version: int, arrays: Mapping) -> None:
    """``arrays`` and a ``version`` array as one compressed npz; like
    ``np.savez_compressed``, a path without the ``.npz`` suffix gains it."""
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    arrays = {"version": np.array([version], dtype=np.int64), **arrays}
    replace_durably(path, lambda fh: np.savez_compressed(fh, **arrays))


class _Arrays(dict):
    """Loaded arrays; indexing a key the file lacks is an error."""

    def __missing__(self, key):
        raise TelemetryError(f"checkpoint {self.path} lacks {key!r}")


def load_versioned_npz(path, version: int, kind: str = "checkpoint") -> dict:
    """The arrays of a :func:`save_versioned_npz` file of ``version``; an
    unreadable, corrupt or other-version file, or a key it lacks, is a
    :class:`~repro.errors.TelemetryError`."""
    arrays = _Arrays()
    arrays.path = path
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays.update(data)
    except (OSError, ValueError, EOFError, zipfile.BadZipFile,
            zlib.error) as exc:
        raise TelemetryError(f"cannot read {kind} {path}: {exc}") from exc
    found = int(arrays.get("version", [0])[0])
    if found != version:
        raise TelemetryError(
            f"unsupported {kind} version {found} (expected {version})"
        )
    return arrays


def retire(segments: Sequence[dict], cutoff: float, *, size: str,
           open_last: bool = False) -> Tuple[List[dict], List[dict]]:
    """``(kept, retired)``: a segment retires when it is not the open one
    (the last, with ``open_last``) and is empty (``seg[size] == 0``) or
    ends before ``cutoff`` (``seg["t1"] < cutoff``)."""
    closed = len(segments) - 1 if open_last else len(segments)
    split: Tuple[List[dict], List[dict]] = ([], [])
    for i, seg in enumerate(segments):
        gone = i < closed and (
            seg[size] == 0 or (seg["t1"] is not None and seg["t1"] < cutoff)
        )
        split[gone].append(seg)
    return split


def _files(holders) -> List[str]:
    return [s["file"] for h in holders for s in h.segments if s["file"]]


class SegmentManifest:
    """The ``manifest.json`` naming a store directory's segment files.

    ``error`` is the store's exception class, ``kind`` its name.  With
    ``dir=None`` (a store kept in memory) retention writes nothing.
    """

    def __init__(self, dir, error: type, kind: str) -> None:
        self.dir = None if dir is None else Path(dir)
        self.error, self.kind = error, kind

    def create(self) -> None:
        """Make the directory; refuse one that already holds a store."""
        if (self.dir / MANIFEST_NAME).exists():
            raise self.error(
                f"{self.dir} already holds a {self.kind} store; open it"
            )
        self.dir.mkdir(parents=True, exist_ok=True)

    def read(self, required: Sequence[str]) -> dict:
        """The manifest, its format and ``required`` keys checked."""
        path = self.dir / MANIFEST_NAME
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise self.error(f"cannot read {self.kind} manifest {path}: "
                             f"{exc}") from exc
        if not isinstance(doc, dict) or doc.get("format") != MANIFEST_FORMAT:
            raise self.error(f"{path} is not a {self.kind} manifest of "
                             f"format {MANIFEST_FORMAT}")
        missing = [key for key in required if key not in doc]
        if missing:
            raise self.error(f"{path} lacks {', '.join(missing)}")
        return doc

    def _rename(self, doc: dict) -> None:
        text = json.dumps({"format": MANIFEST_FORMAT, **doc},
                          sort_keys=True, indent=2) + "\n"
        _replace(str(self.dir / MANIFEST_NAME),
                 lambda fh: fh.write(text.encode()))

    def write(self, doc: dict) -> None:
        """Replace the manifest with ``doc``, durably."""
        self._rename(doc)
        _fsync_dir(str(self.dir / MANIFEST_NAME))

    @contextlib.contextmanager
    def retention(self, holders: Sequence, counters: Sequence[str],
                  doc: Callable[[], dict]):
        """Commit the retention step the ``with`` body makes to each
        holder's ``segments`` list and ``counters`` attributes.

        The manifest ``doc()`` is written first.  If the body or that
        write fails, the holders get their lists and counters back and
        the files written since are deleted.  Once the rename is durable
        the files it no longer names are deleted (and listed in the
        yielded list); if only the directory fsync fails, nothing is.
        """
        saved = [(h, list(h.segments), [getattr(h, c) for c in counters])
                 for h in holders]
        before, removed = _files(holders), []
        try:
            yield removed
            if self.dir is not None:
                self._rename(doc())
        except BaseException:
            named = set(before)
            written = [f for f in _files(holders) if f not in named]
            for holder, segments, values in saved:
                holder.segments = segments
                for name, value in zip(counters, values):
                    setattr(holder, name, value)
            self._unlink(written)
            raise
        if self.dir is not None:
            _fsync_dir(str(self.dir / MANIFEST_NAME))
            named = set(_files(holders))
            removed += [f for f in before if f not in named]
            self._unlink(removed)

    def _unlink(self, files: Sequence[str]) -> None:
        for name in files:
            (self.dir / name).unlink(missing_ok=True)
