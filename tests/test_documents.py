"""JSON document round trips and parse-error reporting."""

import io
import json
import os
import stat
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
from semisic import cli
from semisic.dual import dual_basis, region_grid, write_region_csv
from semisic.errors import DocumentError, MalformedPovm
from semisic.model import Povm, SemiSicParams
from semisic.qubit import construct
from semisic import textio
from semisic.textio import write_json, write_text

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
# every finite double: hypothesis draws -0.0, subnormals and magnitudes near 1e308 too
REALS = st.floats(allow_nan=False, allow_infinity=False)
TINY = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310])
HUGE = st.sampled_from([1e308, -1.7976931348623157e308, 8.98846567431158e307])


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
        (lambda d: d["elements"][0][1][0].__setitem__(0, None), "elements[0][1][0]: expected"),
        (lambda d: d["elements"][1][0][1].__setitem__(1, "0.5"), "elements[1][0][1]: expected"),
        (
            lambda d: d["elements"][3][1].__setitem__(1, [[0.0, 0.0], [0.0, 0.0]]),
            "elements[3][1][1]: expected",
        ),
        (lambda d: d["elements"][3][0][0].__setitem__(1, [0.0]), "elements[3][0][0]: expected"),
    ],
)
def test_parse_errors_carry_paths(mutate, fragment):
    doc = broken(mutate)
    with pytest.raises(DocumentError) as err:
        parse_povm_document(doc)
    assert fragment in str(err.value)


def test_numpy_float_and_int_leaves_are_accepted():
    doc = sample_doc()
    doc["elements"] = [
        [[[0, 0] if pair == [0.0, 0.0] else [np.float64(v) for v in pair] for pair in row]
         for row in matrix]
        for matrix in doc["elements"]
    ]
    assert [0, 0] in doc["elements"][0][1]
    parsed = parse_povm_document(doc)
    assert parsed.povm.elements.tobytes() == construct(2.0 / 25.0).elements.tobytes()


def test_oversized_integer_entry_names_its_matrix(tmp_path):
    doc = sample_doc()
    doc["elements"][2][0][1][0] = 10**400
    with pytest.raises(DocumentError, match=r"^elements\[2\]: .*too large"):
        parse_povm_document(doc)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DocumentError, match=r"^elements\[2\]: "):
        load_povm(path)
    # past 4300 digits Python's json refuses the integer itself (3.10.7 and later)
    path.write_text(json.dumps(doc).replace("1" + "0" * 400, "1" * 5000))
    with pytest.raises(DocumentError):
        load_povm(path)


def test_every_entry_is_checked_before_the_conversion():
    # the elements convert in one call after every entry is checked, so a
    # malformed entry is named even behind a matrix holding an oversized integer
    doc = sample_doc()
    doc["elements"][1][0][1][0] = 10**400
    doc["elements"][3][1][0][1] = "0.5"
    with pytest.raises(DocumentError, match=r"^elements\[3\]\[1\]\[0\]: expected"):
        parse_povm_document(doc)


@pytest.mark.parametrize("text", ["[" * 200_000, "[" * 100_000 + "]" * 100_000,
                                  '{"a": ' * 100_000 + "1" + "}" * 100_000],
                         ids=["open", "closed", "objects"])
def test_deeply_nested_json_is_a_document_error(tmp_path, text):
    # past the recursion limit json raises RecursionError, not a ValueError
    path = tmp_path / "nested.json"
    path.write_text(text)
    for source in (path, io.StringIO(text)):
        with pytest.raises(DocumentError, match="^invalid JSON: "):
            load_povm(source)


@pytest.mark.parametrize(
    "key, value",
    [("b", float("nan")), ("b", float("inf")), ("b", -float("inf")),
     pytest.param("b", 10**400, id="b-10**400"), ("k", 0), ("k", -3), ("k", 5)],
)
def test_parse_rejects_impossible_annotations(tmp_path, key, value):
    doc = sample_doc()
    doc[key] = value
    with pytest.raises(DocumentError, match=f"^{key}: "):
        parse_povm_document(doc)
    path = tmp_path / "annotated.json"
    path.write_text(json.dumps(doc))  # NaN and Infinity, which json reads back
    with pytest.raises(DocumentError, match=f"^{key}: "):
        load_povm(path)


@pytest.mark.parametrize("k", [1, 4])
def test_parse_accepts_k_from_1_to_d_squared(k):
    doc = sample_doc()
    doc["k"] = k
    assert parse_povm_document(doc).k == k


def test_write_json_is_one_line_of_json_dumps(tmp_path):
    doc = sample_doc()
    buf = io.StringIO()
    write_json(buf, doc)
    assert buf.getvalue() == json.dumps(doc) + "\n"
    path = tmp_path / "member.json"
    save_povm(path, construct(2.0 / 25.0), b=2.0 / 25.0, k=2, metadata={"note": "fixture"})
    assert path.read_text() == json.dumps(doc) + "\n"


@PROPERTY
@given(d=st.sampled_from([2, 3, 4]), data=st.data())
def test_matrix_codec_is_bit_exact_for_every_finite_double(d, data):
    parts = data.draw(arrays(float, (d, d, 2), elements=st.one_of(TINY, HUGE, REALS)))
    z = parts.view(complex)[..., 0]
    buf = io.StringIO()
    write_json(buf, matrix_to_pairs(z))
    back = pairs_to_matrix(json.loads(buf.getvalue()), "elements[0]", d)
    assert back.tobytes() == z.tobytes()


@PROPERTY
@given(d=st.sampled_from([2, 3, 4]), hermitian=st.booleans(), data=st.data())
def test_save_load_povm_is_bit_exact(d, hermitian, data):
    """I/d^2 plus drawn shifts, -0.0 and subnormals included: off the diagonal
    the entries are the drawn values themselves. A Hermitian draw mirrors its
    upper triangle; any other stays within HERMITIAN_GATE."""
    n = d * d
    small = st.one_of(TINY, st.floats(-1e-9, 1e-9))
    shift = data.draw(arrays(float, (n, d, d, 2), elements=small)).view(complex)[..., 0]
    if hermitian:
        upper = np.triu(np.ones((d, d), dtype=bool), 1)
        shift = np.where(upper.T, shift.conj().transpose(0, 2, 1), shift)
    diagonal = 1.0 / n + (shift.real if hermitian else shift)
    stack = np.where(np.eye(d, dtype=bool), diagonal, shift)
    povm = Povm(dim=d, elements=stack)
    if hermitian:  # symmetrizing changes no value, only the sign of a zero part
        assert np.array_equal(povm.elements, stack)
    buf = io.StringIO()
    save_povm(buf, povm, b=0.05, k=n)
    buf.seek(0)
    loaded = load_povm(buf)
    assert loaded.povm.elements.tobytes() == povm.elements.tobytes()
    assert (loaded.b, loaded.k) == (0.05, n)


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


# every file the package writes goes through textio.write_text, which writes a
# path in place: an existing file is overwritten from its start and its tail cut
def povm_writer(target):
    save_povm(target, construct(2.0 / 25.0), b=2.0 / 25.0, k=2, metadata={"note": "fixture"})


def dual_writer(target):
    save_dual_frame(target, dual_basis(construct(0.07), SemiSicParams.from_b(2, 0.07, 2)))


def csv_writer(target):
    frame = dual_basis(construct(0.07), SemiSicParams.from_b(2, 0.07, 2))
    write_region_csv(region_grid(frame, 6), target)


WRITERS = [povm_writer, dual_writer, csv_writer]


def fresh_bytes(tmp_path, writer):
    path = tmp_path / "fresh.out"
    writer(path)
    return path.read_bytes()


@pytest.mark.parametrize("writer", WRITERS)
@pytest.mark.parametrize("old", ["longer", "shorter", "same-size"])
def test_overwriting_a_file_gives_the_bytes_of_a_fresh_write(tmp_path, writer, old):
    want = fresh_bytes(tmp_path, writer)
    buf = io.StringIO()
    writer(buf)
    assert buf.getvalue().encode() == want
    path = tmp_path / "old.out"
    path.write_bytes({"longer": want + b"tail\n" * 1000, "shorter": want[: len(want) // 3],
                      "same-size": b"x" * len(want)}[old])
    writer(path)
    assert path.read_bytes() == want


@pytest.mark.parametrize("writer", WRITERS)
def test_overwriting_keeps_hard_links_and_the_mode(tmp_path, writer):
    want = fresh_bytes(tmp_path, writer)
    path, link = tmp_path / "old.out", tmp_path / "link.out"
    path.write_bytes(want * 3)
    os.link(path, link)
    path.chmod(0o640)
    writer(path)
    assert link.read_bytes() == want
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert path.stat().st_ino == link.stat().st_ino


@pytest.mark.parametrize("argv", [["dual"], ["region", "--resolution", "4"]])
def test_out_to_dev_null_exits_0(tmp_path, capsys, argv):
    # /dev/null is not a regular file, so its tail is not cut (ftruncate is EINVAL there)
    path = tmp_path / "member.json"
    povm_writer(path)
    assert cli.main([*argv, "--in", str(path), "--out", os.devnull]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("writer", WRITERS)
def test_a_stream_target_stays_open_and_untruncated(tmp_path, writer):
    want = fresh_bytes(tmp_path, writer).decode()
    path = tmp_path / "stream.out"
    path.write_text("head\n" + "old tail\n" * 1000)
    with open(path, "r+", newline="") as handle:
        handle.seek(5)
        writer(handle)
        assert not handle.closed
        assert handle.tell() == 5 + len(want)
        handle.write("end\n")
    assert path.read_text() == "head\n" + want + "end\n" + ("old tail\n" * 1000)[len(want) + 4:]


def test_a_write_that_raises_keeps_the_bytes_written_and_no_old_tail(tmp_path):
    path = tmp_path / "partial.out"
    path.write_text("old " * 1000)

    def texts():
        yield "new "
        raise RuntimeError("midway")

    with pytest.raises(RuntimeError, match="midway"):
        write_text(path, texts())
    assert path.read_text() == "new "


@pytest.mark.parametrize("save", [save_povm, save_dual_frame])
def test_a_document_that_fails_to_encode_leaves_the_target(tmp_path, save):
    path = tmp_path / "doc.json"
    povm_writer(path)
    before = path.read_bytes()
    target = construct(0.07)
    if save is save_dual_frame:
        target = dual_basis(target, SemiSicParams.from_b(2, 0.07, 2))
    with pytest.raises(TypeError):
        save(path, target, metadata={"x": object()})
    assert path.read_bytes() == before


@pytest.mark.parametrize("scan", [
    np.zeros(3, dtype=[("p1", float), ("p2", float), ("p3", float), ("f", float)]),
    np.zeros(3, dtype=[(n, np.float32 if n == "f" else float) for n in "p1 p2 p3 f".split()]
             + [("feasible", bool)]),
    np.zeros((3, 5)),
    [(0.0, 0.0, 0.0, 0.0, True)],
])
def test_a_scan_without_the_region_fields_leaves_the_target(tmp_path, scan):
    path = tmp_path / "r.csv"
    csv_writer(path)
    before = path.read_bytes()
    with pytest.raises(ValueError, match="region scan"):
        write_region_csv(scan, path)
    assert path.read_bytes() == before


@pytest.mark.parametrize("writer", WRITERS)
def test_short_os_writes_give_the_same_bytes(tmp_path, monkeypatch, writer):
    # os.write may take fewer bytes than it is given; here it takes at most 7 a call
    want = fresh_bytes(tmp_path, writer)
    write, calls = os.write, []

    def short(fd, data):
        calls.append(fd)
        return write(fd, data[:7])

    monkeypatch.setattr(os, "write", short)
    path = tmp_path / "old.out"
    path.write_bytes(b"old tail\n" * 2000)
    writer(path)
    monkeypatch.undo()
    assert path.read_bytes() == want
    assert len(calls) >= len(want) / 7


def padded_member(tmp_path, size):
    path = tmp_path / f"member-{size}.json"
    save_povm(path, construct(2.0 / 25.0), b=2.0 / 25.0, k=2, metadata={"pad": "x" * size})
    return path


def assert_same_document(got, want):
    assert np.array_equal(got.povm.elements, want.povm.elements)
    assert (got.b, got.k, got.metadata) == (want.b, want.k, want.metadata)


@pytest.mark.parametrize("size", [0, 3 * textio._READ_CHUNK])
def test_a_document_larger_than_a_read_chunk_loads_as_its_text(tmp_path, size):
    path = padded_member(tmp_path, size)
    assert (path.stat().st_size > textio._READ_CHUNK) == (size > 0)
    assert_same_document(load_povm(path), parse_povm_document(json.loads(path.read_text())))


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("size", [0, 3 * textio._READ_CHUNK])
def test_a_document_read_through_a_pipe_loads_as_from_its_path(tmp_path, size):
    path = padded_member(tmp_path, size)
    read_end, write_end = os.pipe()

    def feed():  # the pipe holds less than the large document, so it is fed while read
        with open(write_end, "wb") as handle:
            handle.write(path.read_bytes())

    feeder = threading.Thread(target=feed)
    feeder.start()
    try:
        got = load_povm(f"/dev/fd/{read_end}")
    finally:  # closed first, a failed read cannot leave the feeder blocked
        os.close(read_end)
        feeder.join()
    assert_same_document(got, load_povm(path))


def test_a_document_that_is_not_utf8_is_invalid_json(tmp_path, capsys):
    path = padded_member(tmp_path, 0)
    path.write_bytes(path.read_bytes().replace(b'"pad": ""', b'"pad": "\xff"'))
    assert path.read_bytes().count(b"\xff") == 1
    with pytest.raises(DocumentError, match="invalid JSON"):
        load_povm(path)
    assert cli.main(["verify", "--in", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: invalid JSON: ")
