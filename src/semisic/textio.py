"""Reading and writing text where the target is a path or an open stream.

A path is written in place: an existing file is opened without truncation,
overwritten from its start, and its old tail cut at the end of the write.
Truncating a file that holds data before rewriting it makes ext4 (with its
default auto_da_alloc) start writeback when the file is closed, which costs
far more than the write itself; a file written in place keeps its hard links
and its mode. A fresh path is written as before. Nothing is fsynced, so a
crash during a write can leave old and new bytes mixed in the file.
"""

from __future__ import annotations

import json
import os
import stat
from contextlib import contextmanager


@contextmanager
def open_text(target, mode: str = "r", **kwargs):
    """Yield target itself if it is an open stream (it stays open), else open
    the path with open(target, mode, **kwargs), or in place for mode "w", and
    close it after. A "w" write to a regular file is cut at the last byte
    written, also when the write raises."""
    if hasattr(target, "read" if mode == "r" else "write"):
        yield target
    elif mode != "w":
        with open(target, mode, **kwargs) as handle:
            yield handle
    else:
        fd = os.open(target, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            handle = open(fd, "w", **kwargs)
        except BaseException:
            os.close(fd)
            raise
        with handle:
            try:
                yield handle
            finally:  # ftruncate on /dev/null, a pipe or a tty is EINVAL
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    handle.truncate()


def write_json(target, doc) -> None:
    """Write doc as one line of JSON and a final newline, in one write (json.dumps
    without indent is the C encoder; floats are float.__repr__, which round-trips).
    The document is encoded before the target is opened, so a doc that fails to
    encode leaves the target as it was."""
    text = json.dumps(doc) + "\n"
    with open_text(target, "w") as handle:
        handle.write(text)
