"""End-to-end CLI behavior: exit codes, documents, and printed output."""

import argparse
import dataclasses
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import count_measurements, disguise, hermitian_noise, hesse_sic, perturbed_sic_stack
import semisic
from semisic import cli, dual, model, qubit, search
from semisic.bloch import bloch_to_probs
from semisic.documents import matrix_to_pairs, parse_povm_document, save_povm
from semisic.model import Povm, VerificationReport
from semisic.qubit import construct, family_point


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def member_path(tmp_path, capsys, b="2/25"):
    path = tmp_path / "member.json"
    rc, _, _ = run(capsys, "construct", "--b", b, "--out", str(path))
    assert rc == 0
    return path


def test_parse_number():
    assert cli.parse_number("2/25") == 0.08
    assert cli.parse_number("-1/4") == -0.25
    assert cli.parse_number("0.07") == 0.07
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_number("abc")


@pytest.mark.parametrize("text,code", [("2/25", 0), ("-2/25", 2), ("8e-2", 0), (".5", 2),
                                       ("1/0", 2), ("inf", 2), ("nan", 2), ("1e400", 2),
                                       ("abc", 2)])
def test_construct_b_exit_codes(tmp_path, text, code):
    try:
        rc = cli.main(["construct", "--b", text, "--out", str(tmp_path / "m.json")])
    except SystemExit as exc:
        rc = exc.code
    assert rc == code


def test_zero_denominator_is_a_usage_error(capsys):
    for text in ("1/0", "-3/0", "1" + "0" * 400 + "/1"):
        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_number(text)
    with pytest.raises(SystemExit) as exc:
        cli.main(["construct", "--b", "1/0"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_construct_verify_cycle(tmp_path, capsys):
    path = member_path(tmp_path, capsys)
    doc = json.loads(path.read_text())
    assert doc["dim"] == 2
    assert doc["b"] == 0.08
    assert doc["k"] == 2
    assert "theta" in doc["metadata"]

    rc, out, _ = run(capsys, "verify", "--in", str(path))
    assert rc == 0
    assert "StrictSemiSIC" in out

    rc, out, _ = run(capsys, "verify", "--in", str(path), "--json")
    assert rc == 0
    report = json.loads(out)
    assert report["classification"] == "StrictSemiSIC"
    assert report["k"] == 2
    assert report["fitted_b"] == pytest.approx(0.08, abs=1e-13)


def test_verify_json_keys_follow_the_report_fields(tmp_path, capsys):
    path = member_path(tmp_path, capsys)
    rc, out, _ = run(capsys, "verify", "--in", str(path), "--json")
    assert rc == 0
    assert list(json.loads(out)) == [f.name for f in dataclasses.fields(VerificationReport)]
    # one line, whose values are the report's fields
    assert out.endswith("}\n") and out.count("\n") == 1
    report = model.verify(parse_povm_document(json.loads(path.read_text())).povm)
    fields = dataclasses.asdict(report)
    fields["trace_classes"] = [list(c) for c in report.trace_classes]
    assert json.loads(out) == fields


DEVIATIONS = ["equi_dev", "comp_dev", "psd_dev", "herm_dev", "trace_dev"]


@pytest.mark.parametrize("condition", model.CONDITIONS)
def test_verify_and_dual_name_the_failed_condition(tmp_path, capsys, condition):
    path = tmp_path / "perturbed.json"
    # written by hand: save_povm would store the Hermitian part only
    path.write_text(json.dumps({"dim": 3, "elements": matrix_to_pairs(perturbed_sic_stack(condition))}))
    rc, out, _ = run(capsys, "verify", "--in", str(path), "--json")
    report = json.loads(out)
    assert rc == 1 and report["worst_condition"] == condition
    assert report["max_violation"] == max(report[name] for name in DEVIATIONS)
    rc, out, _ = run(capsys, "verify", "--in", str(path))
    lines = out.splitlines()
    assert rc == 1 and f"worst_condition: {condition}" in lines
    assert [line.split(":")[0] for line in lines[4:10]] == ["worst_condition", *DEVIATIONS]
    rc, _, err = run(capsys, "dual", "--in", str(path))
    assert rc == 1 and err.rstrip().endswith(f"({condition}))")


def test_documents_are_one_line(tmp_path, capsys):
    path = member_path(tmp_path, capsys)
    frame = tmp_path / "frame.json"
    assert run(capsys, "dual", "--in", str(path), "--out", str(frame))[0] == 0
    for written in (path, frame):
        assert written.read_text().count("\n") == 1


def test_verify_refuses_an_oversized_integer_entry(tmp_path, capsys):
    doc = json.loads(member_path(tmp_path, capsys).read_text())
    doc["elements"][2][0][1][0] = 10**400
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "verify", "--in", str(huge))
    assert rc == 2
    assert err.startswith("error: elements[2]: ") and "Traceback" not in err


def test_verify_refuses_deeply_nested_json(tmp_path, capsys):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200_000)
    rc, _, err = run(capsys, "verify", "--in", str(nested))
    assert rc == 2
    assert err.startswith("error: invalid JSON: ") and "Traceback" not in err


def test_construct_writes_stdout(tmp_path, capsys):
    rc, out, _ = run(capsys, "construct", "--b", "2/25")
    assert rc == 0
    doc = parse_povm_document(json.loads(out))
    assert doc.povm.dim == 2
    assert len(doc.povm.elements) == 4


def test_every_writer_takes_a_given_out_as_a_path(tmp_path, capsys):
    # only an absent --out means stdout; an empty path fails to open, with nothing written
    path = str(member_path(tmp_path, capsys))
    for argv in (["construct", "--b", "2/25"], ["dual", "--in", path],
                 ["region", "--in", path, "--resolution", "5"],
                 ["search", "--d", "2", "--k", "4", "--restarts", "1", "--max-iterations", "5"]):
        rc, out, err = run(capsys, *argv, "--out", "")
        assert (rc, out) == (2, "") and err.startswith("error: ")


def test_construct_resolves_the_family_point_once(capsys, monkeypatch):
    calls = []

    def counted(b):
        calls.append(b)
        return family_point(b)

    monkeypatch.setattr(qubit, "family_point", counted)
    rc, out, _ = run(capsys, "construct", "--b", "2/25")
    assert rc == 0 and calls == [0.08]
    doc = parse_povm_document(json.loads(out))
    assert np.array_equal(doc.povm.elements, construct(0.08).elements)


def test_verify_flags_perturbed_member(tmp_path, capsys):
    path = member_path(tmp_path, capsys)
    doc = json.loads(path.read_text())
    doc["elements"][0][0][0][0] += 1e-3
    bad = tmp_path / "perturbed.json"
    bad.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "verify", "--in", str(bad))
    assert rc == 1
    assert "NotSemiSIC" in out


def test_usage_and_range_errors_exit_2(tmp_path, capsys):
    rc, _, err = run(capsys, "construct", "--b", "1/16")
    assert rc == 2 and "error:" in err

    rc, _, err = run(capsys, "verify", "--in", str(tmp_path / "missing.json"))
    assert rc == 2

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{oops")
    rc, _, err = run(capsys, "verify", "--in", str(garbled))
    assert rc == 2 and "error:" in err


def test_construct_snaps_to_sic(tmp_path, capsys):
    # just under 1/12, and at most TOL_COND above it, where b is the SIC point itself
    path = tmp_path / "sic.json"
    for text in ("0.0833333333333333", "0.0833333333834"):
        rc, _, err = run(capsys, "construct", "--b", text, "--out", str(path))
        assert rc == 0, err
        doc = parse_povm_document(json.loads(path.read_text()))
        traces = np.einsum("xii->x", doc.povm.elements).real
        assert np.allclose(traces, 0.5, atol=1e-12)
        assert doc.k == 4
    assert doc.b == 1.0 / 12.0  # the b above 1/12 is stored as the SIC point


def test_dual_roundtrip(tmp_path, capsys):
    path = member_path(tmp_path, capsys)
    out_path = tmp_path / "frame.json"
    out_path.write_text("old tail\n" * 2000)
    rc, _, _ = run(capsys, "dual", "--in", str(path), "--out", str(out_path))
    assert rc == 0
    # the file over a longer old one holds what stdout gets
    assert run(capsys, "dual", "--in", str(path)) == (0, out_path.read_text(), "")
    frame_doc = json.loads(out_path.read_text())
    assert frame_doc["metadata"]["kind"] == "dual-frame"
    assert frame_doc["k"] == 2
    povm = parse_povm_document(json.loads(path.read_text())).povm
    duals = np.array(
        [[[complex(re, im) for re, im in row] for row in e]
         for e in frame_doc["elements"]]
    )
    prod = np.einsum("xij,yji->xy", povm.elements, duals)
    assert np.max(np.abs(prod - np.eye(4))) < 1e-10


def test_region_scan(tmp_path, capsys):
    path = member_path(tmp_path, capsys)
    rc, out, err = run(capsys, "region", "--in", str(path), "--resolution", "10")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("p1,")
    assert len(lines) == 1 + 286
    assert "feasible" in err
    # the file over a longer scan's holds what stdout got
    csv_path = tmp_path / "r.csv"
    for resolution in ("20", "10"):
        rc, _, _ = run(capsys, "region", "--in", str(path), "--resolution", resolution,
                       "--out", str(csv_path))
        assert rc == 0
    assert csv_path.read_text() == out


@pytest.mark.parametrize("argv", [["dual"], ["region", "--resolution", "3"]])
def test_dual_and_region_measure_the_povm_once(tmp_path, capsys, monkeypatch, argv):
    path = member_path(tmp_path, capsys)
    calls = count_measurements(monkeypatch)
    rc, _, _ = run(capsys, argv[0], "--in", str(path), *argv[1:])
    assert rc == 0 and len(calls) == 1


def test_region_over_the_point_cap_exits_2(tmp_path, capsys, monkeypatch):
    path = member_path(tmp_path, capsys)
    monkeypatch.setattr(dual, "MAX_REGION_POINTS", 285)
    out = tmp_path / "f.csv"
    rc, _, err = run(capsys, "region", "--in", str(path), "--resolution", "10",
                     "--out", str(out))
    assert rc == 2 and "cap" in err
    assert not out.exists()


def test_bloch_conversions(capsys):
    rc, out, _ = run(capsys, "bloch", "--b", "2/25", "--to-probs", "0", "0", "1")
    assert rc == 0
    probs = [float(v) for v in out.split()]
    assert np.allclose(probs, [0.4, 0.2, 0.2, 0.2], atol=1e-11)

    rc, out, _ = run(capsys, "bloch", "--b", "2/25",
                     "--to-bloch", "0.4", "0.2", "0.2", "0.2")
    assert rc == 0
    vec = [float(v) for v in out.split()]
    assert np.allclose(vec, [0.0, 0.0, 1.0], atol=1e-10)

    rc, _, err = run(capsys, "bloch", "--b", "2/25",
                     "--to-bloch", "0.9", "0.05", "0.03", "0.02")
    assert rc == 1 and "error:" in err

    # a fit that overflows is refused at once
    rc, _, err = run(capsys, "bloch", "--b", "2/25", "--to-bloch", "1e200", "0", "0", "0")
    assert rc == 1 and "error:" in err


@pytest.mark.parametrize("argv, want", [
    # the README example and the maximally mixed state
    ("--to-bloch 0.4 0.2 0.2 0.2", "0 0 1"),
    ("--to-bloch 0.2 0.2 0.3 0.3", "0 0 0"),
    # the README example in fractions, and back
    ("--to-bloch 2/5 1/5 1/5 1/5", "0 0 1"),
    ("--to-probs 0 0 1", "0.4 0.2 0.2 0.2"),
    # the pure state opposite n_3 (to 15 digits), whose q_3 is 0
    ("--to-probs 0.333333333333333 0.881917103688197 0.333333333333333",
     "0.266666666667 0.266666666667 0 0.466666666667"),
], ids=["readme", "mixed", "fractions", "readme-to-probs", "to-probs"])
def test_bloch_prints_rounding_noise_as_zero(capsys, argv, want):
    # each zero is about 1e-16 after rounding
    rc, out, _ = run(capsys, "bloch", "--b", "2/25", *argv.split())
    assert (rc, out) == (0, want + "\n")


@pytest.mark.parametrize("value", ["nan", "inf", "1e400", "1/0"])
def test_bloch_refuses_non_finite_numbers(capsys, value):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bloch", "--b", "2/25", "--to-probs", "0", value, "0"])
    assert exc.value.code == 2 and "not a number or fraction" in capsys.readouterr().err


def test_search_command(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    for argv in (["--d", "2", "--k", "2", "--b", "2/25", "--restarts", "2", "--seed", "3"],
                 ["--d", "4", "--k", "16", "--restarts", "4", "--seed", "0"],
                 ["--d", "2", "--k", "4", "--restarts", "4", "--seed", "4"]):
        rc, out, _ = run(capsys, "search", *argv, "--require-solution", "--out", str(report_path))
        assert rc == 0, argv
        assert "solution found" in out
        report = json.loads(report_path.read_text())
        assert report["best_residual"] < 1e-12 and report["gradient_check"] < 1e-6
        # the hit flows through verify and dual as a document of its own
        hit_path = tmp_path / "hit.json"
        hit_path.write_text(json.dumps(report["best_povm"]))
        rc, out, _ = run(capsys, "verify", "--in", str(hit_path))
        assert rc == 0 and f"classification: {report['classification']}" in out
        rc, _, _ = run(capsys, "dual", "--in", str(hit_path), "--out", str(tmp_path / "f.json"))
        assert rc == 0

    # a fraction b where (d, k) pins it
    rc, out, _ = run(capsys, "search", "--d", "3", "--k", "9", "--b", "1/36", "--restarts", "1",
                     "--max-iterations", "5")
    assert rc == 0 and "stopped: 1 cap)" in out

    rc, out, _ = run(capsys, "search", "--d", "3", "--k", "7", "--restarts", "1",
                     "--max-iterations", "150", "--require-solution")
    assert rc == 1
    assert "no candidate" in out


def test_require_solution_needs_a_verified_hit(capsys, monkeypatch):
    run_search = cli.search.run_search

    def rejected(config):
        return dataclasses.replace(run_search(config), classification=model.NOT_SEMI_SIC)

    argv = ["search", "--d", "2", "--k", "2", "--b", "2/25", "--restarts", "2", "--seed", "3"]
    assert run(capsys, *argv, "--require-solution")[0] == 0
    monkeypatch.setattr(cli.search, "run_search", rejected)
    rc, out, _ = run(capsys, *argv, "--require-solution")
    assert rc == 1 and "solution found: classification NotSemiSIC" in out
    assert run(capsys, *argv)[0] == 0


def test_search_summary_counts_stop_reasons(capsys):
    rc, out, _ = run(capsys, "search", "--d", "3", "--k", "8", "--restarts", "2",
                     "--max-iterations", "30")
    assert rc == 0
    assert "stopped: 2 cap)" in out


def test_search_rejects_inadmissible_counts(capsys):
    rc, _, err = run(capsys, "search", "--d", "3", "--k", "6")
    assert rc == 2 and "error:" in err


def test_search_refuses_a_non_finite_residual_goal(capsys):
    rc, out, err = run(capsys, "search", "--d", "3", "--k", "9", "--restarts", "2",
                       "--residual-goal", "inf")
    assert rc == 2 and "residual_goal" in err
    assert "solution found" not in out


def test_search_refuses_removed_flags_and_oversized_runs(capsys):
    for extra in (["--penalty-weight", "5"], ["--initial-step", "0.1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["search", "--d", "2", "--k", "4", *extra])
        assert exc.value.code == 2
    for argv in (["--d", "2", "--k", "4", "--restarts", "1000000"], ["--d", "20", "--k", "400"]):
        rc, _, err = run(capsys, "search", *argv)
        assert rc == 2 and "over the cap" in err


def test_every_option_has_help():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, sub in commands.choices.items():
        for action in sub._actions:
            assert action.help, (name, action.option_strings)
    # the search options default to SearchConfig's fields, and their help prints them
    options = {a.dest: a for a in commands.choices["search"]._actions}
    defaults = {f.name: f.default for f in dataclasses.fields(search.SearchConfig)}
    for name in ("restarts", "max_iterations", "seed", "residual_goal"):
        assert options[name].default == defaults[name] and "%(default)s" in options[name].help
    goal = options["residual_goal"]
    # the one goal threshold: a restart stops below it, and a hit is polished
    assert "1e-3" not in goal.help and "stops" in goal.help and "polish" in goal.help


def test_readme_examples_run_in_order(tmp_path, capsys, monkeypatch):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    commands = [shlex.split(line)[1:] for line in readme.read_text().splitlines()
                if line.startswith("semisic ")]
    assert len(commands) >= 9
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert run(capsys, *argv)[0] == 0, argv


def test_spectrum_table(capsys):
    rc, out, _ = run(capsys, "spectrum", "--d", "3")
    assert rc == 0 and len(out.splitlines()) == 4  # the header and k = 7, 8, 9
    for token in ("1/50", "5/196", "1/36", "2/7", "5/7"):
        assert token in out

    rc, _, err = run(capsys, "spectrum", "--d", "2")
    assert rc == 2 and "error:" in err


def test_spectrum_refuses_an_oversized_dimension_at_once(capsys):
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, "spectrum", "--d", "100000000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rc, out) == (2, "") and "needs d <= " in err
    assert peak < 2**20  # refused before anything that grows with d


def test_unknown_command_is_usage_error(capsys):
    for argv, code in ((["bogus"], 2), ([], 2), (["--help"], 0)):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == code, argv
    capsys.readouterr()


def test_the_module_runs_as_a_script_with_main_s_exit_codes(tmp_path):
    # a process of its own, so the __main__ line and the real exit status are checked
    path = [str(Path(semisic.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    for argv, code in ((["spectrum", "--d", "3"], 0),
                       (["bloch", "--b", "2/25", "--to-bloch", "0.9", "0.05", "0.03", "0.02"], 1),
                       ([], 2)):
        done = subprocess.run([sys.executable, "-m", "semisic.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == code, (argv, done.stderr)
        assert (done.stderr == "") == (code == 0)


def test_bloch_reads_negative_scientific_notation(capsys):
    # argparse before Python 3.13 takes "-1e-05" for an option; the bloch
    # parser's negative-number matcher is widened so these stay values
    point = family_point(2.0 / 25.0)
    rc, out, err = run(capsys, "bloch", "--b", "2/25", "--to-probs", "-1e-05", "0", "-1e+00")
    assert rc == 0, err
    probs = [float(v) for v in out.split()]
    assert np.allclose(probs, bloch_to_probs([-1e-5, 0.0, -1.0], point), atol=1e-11)

    q = bloch_to_probs([0.0, 0.0, -1.0], point)
    assert q[0] == 0.0
    rc, out, err = run(capsys, "bloch", "--b", "2/25", "--to-bloch",
                       "-0e+00", *("%.17e" % v for v in q[1:]))
    assert rc == 0, err
    assert np.allclose([float(v) for v in out.split()], [0.0, 0.0, -1.0], atol=1e-10)


def test_noisy_hesse_sic_verifies_and_dualizes(tmp_path, capsys):
    clean = hesse_sic()
    noise = hermitian_noise(np.random.default_rng(5), clean.elements.shape, 1e-11)
    noisy = Povm(dim=3, elements=clean.elements + noise)
    path = tmp_path / "hesse.json"
    save_povm(path, noisy)

    rc, out, _ = run(capsys, "verify", "--in", str(path), "--json")
    assert rc == 0
    report = json.loads(out)
    assert (report["classification"], report["k"]) == ("SIC", 9)

    frame_path = tmp_path / "frame.json"
    rc, _, err = run(capsys, "dual", "--in", str(path), "--out", str(frame_path))
    assert rc == 0, err
    frame_doc = json.loads(frame_path.read_text())
    duals = np.array(
        [[[complex(re, im) for re, im in row] for row in e]
         for e in frame_doc["elements"]]
    )
    prod = np.einsum("xij,yji->xy", noisy.elements, duals)
    assert np.max(np.abs(prod - np.eye(9))) < 1e-8


def test_near_sic_member_with_fitted_b_above_the_double_root_dualizes(tmp_path, capsys):
    # at b = 1/12 - 1e-12 with noise 1e-11, seed 2's fitted b lands just above 1/12
    povm = disguise(np.random.default_rng(2), construct(1.0 / 12.0 - 1e-12), 1e-11)
    path = tmp_path / "near_sic.json"
    save_povm(path, povm)

    rc, out, _ = run(capsys, "verify", "--in", str(path), "--json")
    assert rc == 0
    assert json.loads(out)["fitted_b"] > 1.0 / 12.0

    rc, _, err = run(capsys, "dual", "--in", str(path), "--out", str(tmp_path / "frame.json"))
    assert rc == 0, err

    # the fitted b is a family overlap too: the SIC point, as SemiSicParams.from_b takes it
    rc, _, err = run(capsys, "bloch", "--b", repr(json.loads(out)["fitted_b"]),
                     "--to-probs", "0", "0", "1")
    assert rc == 0, err


def test_dual_refuses_a_shifted_document(tmp_path, capsys):
    path = member_path(tmp_path, capsys)
    doc = json.loads(path.read_text())
    doc["elements"][0][0][0][0] += 1e-3
    path.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "dual", "--in", str(path))
    assert rc == 1 and out == ""
    assert "input is not a semi-SIC" in err


def test_dual_names_the_failed_ic_test(tmp_path, capsys):
    # 1e-13 above 1/16 the Gram matrix falls under TOL_RANK, at a violation of ~2e-16
    path = member_path(tmp_path, capsys, b="0.0625000000001")
    rc, out, err = run(capsys, "dual", "--in", str(path))
    assert rc == 1 and out == ""
    assert "informationally complete" in err


def test_dual_and_region_accept_a_member_1e_10_above_one_sixteenth(tmp_path, capsys):
    # cond(G) is 3.3e9 here, so the Gram solve's rounding reaches 3e-8
    path = member_path(tmp_path, capsys, b="0.0625000001")
    rc, _, err = run(capsys, "dual", "--in", str(path), "--out", str(tmp_path / "f.json"))
    assert rc == 0, err
    rc, _, err = run(capsys, "region", "--in", str(path), "--resolution", "10",
                     "--out", str(tmp_path / "r.csv"))
    assert rc == 0 and "of 286 grid points feasible" in err
    # each coordinate and f round-trips at 17 digits, and the flag is f's sign test
    rows = [line.split(",") for line in (tmp_path / "r.csv").read_text().splitlines()[1:]]
    assert len(rows) == 286 and all(x == "%.17g" % float(x) for r in rows for x in r[:4])
    assert all(r[4] == str(int(float(r[3]) >= -dual.FEASIBILITY_SLACK)) for r in rows)


# One row per command (with --flag=value and abbreviated flags), the bloch
# negative numbers, and the calls the top-level parser reports itself: no
# arguments, -h and an unknown command; then a subparser's own errors and a
# leftover argument. "{dir}" is the test's directory, holding member.json.
ROUTING_TABLE = [
    ["construct", "--b=2/25", "--ou", "{dir}/c.json"],
    ["verify", "--in", "{dir}/member.json", "--js"],
    ["verify", "--in={dir}/member.json"],
    ["dual", "--in", "{dir}/member.json", "--ou={dir}/f.json"],
    ["region", "--in", "{dir}/member.json", "--res", "3", "--out", "{dir}/r.csv"],
    ["bloch", "--b", "2/25", "--to-p", "0", "0", "1"],
    ["bloch", "--b", "2/25", "--to-probs", "-1e-05", "0", "-1e+00"],
    ["bloch", "--b=2/25", "--to-bloch", "0.4", "0.2", "0.2", "0.2"],
    ["search", "--d", "2", "--k", "4", "--restarts=1", "--max-it", "5", "--out", "{dir}/s.json"],
    ["spectrum", "--d=3"],
    [],
    ["-h"],
    ["bogus"],
    ["dual", "-h"],
    ["dual", "--in"],
    ["search", "--d", "2", "--k", "4", "--re", "1"],
    ["bloch", "--b", "2/25", "--to-probs", "0", "0", "1", "--to-bloch", "1", "0", "0", "0"],
    ["verify", "--in", "{dir}/member.json", "--bogus"],
    ["verify", "--in", "{dir}/member.json", "extra", "-x"],
]


def outcome(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("row", ROUTING_TABLE, ids=lambda row: " ".join(row) or "no-arguments")
def test_routing_prints_and_exits_as_the_full_parse(tmp_path, capsys, monkeypatch, row):
    member_path(tmp_path, capsys)
    argv = [arg.format(dir=tmp_path) for arg in row]
    parser, commands = cli._parsers()
    top_level = []

    def counted(*args, **kwargs):
        top_level.append(args)
        return type(parser).parse_known_args(parser, *args, **kwargs)

    monkeypatch.setattr(parser, "parse_known_args", counted)
    routed = outcome(capsys, argv)
    assert (len(top_level) == 0) == (bool(argv) and argv[0] in commands)
    # the same main() with no command known to it parses every call with build_parser()
    monkeypatch.setattr(cli, "_parsers", lambda: (cli.build_parser(), {}))
    assert routed == outcome(capsys, argv)
    if argv[-1:] == ["--bogus"]:
        assert routed[0] == 2 and "semisic: error: unrecognized arguments: --bogus" in routed[2]
