"""Atomic file replacement, optionally durable.

Every on-disk artifact the library rewrites in place — archive segments
and manifests, store markers, WAL entries, run cache entries — lands
through :func:`atomic_write`: the bytes go to a ``*.tmp`` sibling which
then replaces the target in one ``os.replace``, so readers (and
concurrent writers) see the old file or the new one, never a torn mix.
``*.tmp`` droppings of a crashed writer are what ``TraceBank.gc``
reclaims.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

__all__ = ["atomic_write"]


def atomic_write(path: Path, data: bytes, durable: bool = True) -> None:
    """Atomically land ``data`` at ``path`` (parents are created).

    ``durable=True`` also fsyncs the temp file before the replace and the
    directory after it, so an acknowledged write (segment, manifest,
    store marker, WAL entry) survives an OS crash or power loss, not just
    a process crash; platforms that refuse directory fsync degrade
    gracefully.  The run cache, which is rebuildable, passes
    ``durable=False`` and skips both fsyncs.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            if durable:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if not durable:
        return
    try:
        dfd = os.open(str(path.parent), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dfd)
    except OSError:
        pass
    finally:
        os.close(dfd)
