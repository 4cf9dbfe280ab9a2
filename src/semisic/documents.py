"""JSON interchange for POVMs and dual frames.

Documents are one line of JSON. Matrix entries are [re, im] pairs, and floats
go through Python's shortest repr, which round-trips bit-identically. Parse
errors carry the JSON path of the first defect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .dual import DualFrame
from .errors import DocumentError
from .model import Povm
from .textio import read_text, write_json


def matrix_to_pairs(mat: np.ndarray) -> list:
    """Encode a complex matrix, or a stack of them, as nested [re, im] pairs."""
    arr = np.asarray(mat, dtype=complex)
    return np.stack([arr.real, arr.imag], -1).tolist()


def _check_pairs(obj, where: str, dim: int) -> None:
    """Raise DocumentError unless obj is dim x dim [re, im] pairs of ints or floats, no bools."""
    if not isinstance(obj, list) or len(obj) != dim:
        raise DocumentError(f"{where}: expected {dim} rows")
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != dim:
            raise DocumentError(f"{where}[{i}]: expected {dim} entries")
        for j, entry in enumerate(row):
            if not (isinstance(entry, list) and len(entry) == 2
                    and isinstance(entry[0], (int, float)) and type(entry[0]) is not bool
                    and isinstance(entry[1], (int, float)) and type(entry[1]) is not bool):
                raise DocumentError(f"{where}[{i}][{j}]: expected a [re, im] pair of reals")


def pairs_to_matrix(obj, where: str, dim: int) -> np.ndarray:
    """Decode a dim x dim matrix of [re, im] pairs in one np.array call, or raise DocumentError."""
    _check_pairs(obj, where, dim)
    try:
        return np.array(obj, dtype=float).view(complex)[..., 0]
    except OverflowError:
        raise DocumentError(f"{where}: an entry is too large for a float") from None


@dataclass(frozen=True)
class PovmDocument:
    """A parsed POVM file: the POVM plus its optional annotations."""

    povm: Povm
    b: float | None = None
    k: int | None = None
    metadata: dict = field(default_factory=dict)


def povm_document(povm: Povm, b: float | None = None, k: int | None = None,
                  metadata: dict | None = None) -> dict:
    """JSON-ready dict for a POVM."""
    doc = {
        "dim": int(povm.dim),
        "elements": matrix_to_pairs(povm.elements),
        "metadata": dict(metadata or {}),
    }
    if b is not None:
        doc["b"] = float(b)
    if k is not None:
        doc["k"] = int(k)
    return doc


def parse_povm_document(doc) -> PovmDocument:
    """Validate and decode a POVM document.

    Raises DocumentError for malformed documents; structural POVM defects
    (wrong sums, negativity) surface as MalformedPovm from the container.
    """
    if not isinstance(doc, dict):
        raise DocumentError(f"document root must be an object, got {type(doc).__name__}")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 2:
        raise DocumentError(f"dim: expected an integer >= 2, got {dim!r}")
    elements = doc.get("elements")
    if not isinstance(elements, list) or len(elements) != dim * dim:
        raise DocumentError(
            f"elements: expected a list of {dim * dim} matrices, got "
            f"{len(elements) if isinstance(elements, list) else type(elements).__name__}"
        )
    for x, e in enumerate(elements):
        _check_pairs(e, f"elements[{x}]", dim)
    try:
        stack = np.array(elements, dtype=float).view(complex)[..., 0]
    except OverflowError:  # matrix by matrix, so the error names the one that overflows
        stack = np.stack([pairs_to_matrix(e, f"elements[{x}]", dim)
                          for x, e in enumerate(elements)])

    b = doc.get("b")
    if b is not None and (not isinstance(b, (int, float)) or isinstance(b, bool)):
        raise DocumentError(f"b: expected a real number, got {b!r}")
    if b is not None and not abs(b) <= float(np.finfo(float).max):  # NaN, inf, 10**400
        raise DocumentError(f"b: expected a finite real number, got {b!r}")
    k = doc.get("k")
    if k is not None and (not isinstance(k, int) or isinstance(k, bool)):
        raise DocumentError(f"k: expected an integer, got {k!r}")
    if k is not None and not 1 <= k <= dim * dim:
        raise DocumentError(f"k: expected an integer in 1..{dim * dim}, got {k!r}")
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise DocumentError(f"metadata: expected an object, got {type(metadata).__name__}")

    return PovmDocument(
        povm=Povm(dim=dim, elements=stack),
        b=None if b is None else float(b),
        k=None if k is None else int(k),
        metadata=metadata,
    )


def save_povm(path, povm: Povm, b: float | None = None, k: int | None = None,
              metadata: dict | None = None) -> None:
    write_json(path, povm_document(povm, b=b, k=k, metadata=metadata))


def load_povm(path) -> PovmDocument:
    try:
        doc = json.loads(read_text(path))
    except (ValueError, RecursionError) as exc:  # not UTF-8, bad JSON, too many digits or too deep
        raise DocumentError(f"invalid JSON: {exc}") from exc
    return parse_povm_document(doc)


def dual_frame_document(frame: DualFrame, metadata: dict | None = None) -> dict:
    """JSON-ready dict for a dual frame (same element encoding as POVMs)."""
    meta = {"kind": "dual-frame", "permutation": list(frame.permutation)}
    meta.update(metadata or {})
    return {
        "dim": int(frame.dim),
        "k": int(frame.source_k),
        "elements": matrix_to_pairs(frame.duals),
        "metadata": meta,
    }


def save_dual_frame(path, frame: DualFrame, metadata: dict | None = None) -> None:
    write_json(path, dual_frame_document(frame, metadata=metadata))
