"""Reading and writing text where the target is a path or an open stream.

A path is read and written at its file descriptor, with no io wrappers, as
UTF-8 with "\n" line ends on every platform (save_povm over an existing file:
30 us, 39 us through a text wrapper), and in place: an existing file is opened
without truncation, overwritten from its start, and its old tail cut at the
end. Truncating a file that holds data first makes ext4 (auto_da_alloc) start
writeback at close, which costs far more than the write; a file written in
place keeps its hard links and its mode. Nothing is fsynced, so a crash during
a write can leave old and new bytes mixed in the file.
"""

from __future__ import annotations

import json
import os
import stat

_READ_CHUNK = 1 << 16


def read_text(source) -> str:
    """The whole text of source: an open stream's read(), or a path's bytes as UTF-8
    (UnicodeDecodeError, a ValueError, if they are not)."""
    if hasattr(source, "read"):
        return source.read()
    fd, chunks = os.open(source, os.O_RDONLY), []
    try:
        while chunk := os.read(fd, _READ_CHUNK):
            chunks.append(chunk)
    except OSError as exc:  # a directory opens, then fails its first read without a name
        raise OSError(exc.errno, exc.strerror, os.fspath(source)) from None
    finally:
        os.close(fd)
    return b"".join(chunks).decode()


def write_text(target, texts) -> None:
    """Write each string of texts to target: an open stream at its position (it
    stays open), or a path in place as UTF-8. A regular file is cut at the last
    byte written, also when texts raises."""
    if hasattr(target, "write"):
        for text in texts:
            target.write(text)
        return
    fd = os.open(target, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        for text in texts:
            view = memoryview(text.encode())
            while view:  # os.write may take fewer bytes than it is given
                view = view[os.write(fd, view):]
    finally:
        try:  # ftruncate on /dev/null, a pipe or a tty is EINVAL
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
        finally:
            os.close(fd)


def write_json(target, doc) -> None:
    """Write doc as one line of JSON and a final newline, in one write (json.dumps
    without indent is the C encoder; floats are float.__repr__, which round-trips).
    The document is encoded before the target is opened, so a doc that fails to
    encode leaves the target as it was."""
    write_text(target, (json.dumps(doc) + "\n",))
