"""Reading and writing text where the target is a path or an open stream."""

from __future__ import annotations

import json
from contextlib import contextmanager


@contextmanager
def open_text(target, mode: str = "r", **kwargs):
    """Yield target itself if it is an open stream (it stays open), else
    open the path with open(target, mode, **kwargs) and close it after."""
    if hasattr(target, "read" if mode == "r" else "write"):
        yield target
    else:
        with open(target, mode, **kwargs) as handle:
            yield handle


def write_json(target, doc) -> None:
    """Write doc as one line of JSON and a final newline, in one write (json.dumps
    without indent is the C encoder; floats are float.__repr__, which round-trips)."""
    with open_text(target, "w") as handle:
        handle.write(json.dumps(doc) + "\n")
