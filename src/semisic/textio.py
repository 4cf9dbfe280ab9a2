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
    """Write doc as indented JSON and a final newline."""
    with open_text(target, "w") as handle:
        json.dump(doc, handle, indent=2)
        handle.write("\n")
