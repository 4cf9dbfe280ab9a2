"""JSON document round trips and parse-error reporting."""

import io
import json

import numpy as np
import pytest

from semisic.documents import (
    dual_frame_document,
    load_povm,
    matrix_to_pairs,
    pairs_to_matrix,
    parse_povm_document,
    povm_document,
    save_dual_frame,
    save_povm,
)
from semisic.dual import dual_basis
from semisic.errors import DocumentError, MalformedPovm
from semisic.model import SemiSicParams
from semisic.qubit import construct


def sample_doc():
    povm = construct(2.0 / 25.0)
    return povm_document(povm, b=2.0 / 25.0, k=2, metadata={"note": "fixture"})


def test_matrix_pair_roundtrip_is_bit_exact():
    rng = np.random.default_rng(41)
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    pairs = matrix_to_pairs(z)
    wire = json.loads(json.dumps(pairs))
    back = pairs_to_matrix(wire, "elements[0]", 3)
    assert np.array_equal(back, z)


def test_povm_document_roundtrip(tmp_path):
    povm = construct(2.0 / 25.0)
    path = tmp_path / "member.json"
    save_povm(path, povm, b=2.0 / 25.0, k=2, metadata={"note": "fixture"})
    doc = load_povm(path)
    assert doc.povm.dim == 2
    assert np.array_equal(doc.povm.elements, povm.elements)
    assert doc.b == 2.0 / 25.0
    assert doc.k == 2
    assert doc.metadata["note"] == "fixture"


def test_save_povm_to_stream_defaults():
    povm = construct(2.0 / 25.0)
    buf = io.StringIO()
    save_povm(buf, povm)
    text = buf.getvalue()
    assert text.endswith("\n")
    raw = json.loads(text)
    assert "b" not in raw and "k" not in raw
    parsed = parse_povm_document(raw)
    assert parsed.b is None and parsed.k is None
    assert parsed.metadata == {}


def broken(mutate):
    doc = sample_doc()
    mutate(doc)
    return doc


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("dim"), "dim"),
        (lambda d: d.update(dim=True), "dim"),
        (lambda d: d.update(elements=d["elements"][:3]), "elements"),
        (lambda d: d["elements"][1].pop(0), "elements[1]"),
        (lambda d: d["elements"][0][0].__setitem__(1, [1.0]), "elements[0][0][1]"),
        (
            lambda d: d["elements"][0][0].__setitem__(0, [True, 0.0]),
            "elements[0][0][0]",
        ),
        (lambda d: d.update(b=True), "b"),
        (lambda d: d.update(k=2.5), "k"),
        (lambda d: d.update(metadata=[1]), "metadata"),
        (lambda d: d["elements"][2][1].append([0.0, 0.0]), "elements[2][1]: expected 2 entries"),
    ],
)
def test_parse_errors_carry_paths(mutate, fragment):
    doc = broken(mutate)
    with pytest.raises(DocumentError) as err:
        parse_povm_document(doc)
    assert fragment in str(err.value)


def test_parse_rejects_non_dict_root():
    with pytest.raises(DocumentError):
        parse_povm_document([1, 2, 3])


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    with pytest.raises(DocumentError):
        load_povm(path)


def test_parse_surfaces_structural_defects():
    doc = sample_doc()
    doc["elements"][0][0][0][0] = 2.0
    with pytest.raises(MalformedPovm):
        parse_povm_document(doc)


def test_dual_frame_document_layout(tmp_path):
    povm = construct(2.0 / 25.0)
    frame = dual_basis(povm, SemiSicParams.from_b(2, 2.0 / 25.0, 2))
    doc = dual_frame_document(frame, metadata={"tag": "t"})
    assert doc["dim"] == 2
    assert doc["k"] == 2
    assert doc["metadata"]["kind"] == "dual-frame"
    assert doc["metadata"]["permutation"] == [0, 1, 2, 3]
    assert doc["metadata"]["tag"] == "t"
    decoded = np.stack(
        [pairs_to_matrix(e, f"elements[{i}]", 2) for i, e in enumerate(doc["elements"])]
    )
    assert np.array_equal(decoded, frame.duals)
    path = tmp_path / "frame.json"
    save_dual_frame(path, frame)
    assert json.loads(path.read_text())["dim"] == 2
