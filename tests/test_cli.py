"""CLI behavior: JSON output, exit codes, guardrails, fault injection."""
import json
import os
import subprocess
import sys
import tempfile

import hypothesis.strategies as st
import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from test_problems import GOOD_LEMMA_SPEC, GOOD_PAIR_SPEC, _edit

from quasiq.circuitgen import AncillaRestorationError, ResidualTermError, SimulationInvariantError
from quasiq.exactnum import Amplitude
from quasiq.harness import cli
from quasiq.harness.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_INTERNAL,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from quasiq.harness.dsl import ParseError, parse_dsl
from quasiq.harness.problems import SCHEMA
from quasiq.quasistate import _NumeratorState
from quasiq.verifierkit import allzero_verifier, language_pair, table_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def test_gap_constant_reject(capsys):
    code, obj, _ = run_json(capsys, "gap", "--problem", "constant-reject", "--input", "000")
    assert code == EXIT_OK
    assert obj["m"] == 3
    (report,) = obj["reports"]
    assert report["Delta"] == 4
    assert report["A"] == 0 and report["R"] == 8


def test_gap_reports_both_sides_of_a_pair(capsys):
    code, obj, _ = run_json(capsys, "gap", "--problem", "allzero", "--input", "00")
    assert code == EXIT_OK
    assert len(obj["reports"]) == 2
    assert obj["reports"][0]["Delta"] == 0  # v0 vanishes on the member 00
    assert obj["reports"][1]["Delta"] == 2


def test_simulate_zqp_outcome(capsys):
    code, obj, _ = run_json(
        capsys, "simulate", "--problem", "allzero", "--input", "00",
        "--construction", "fig3-zqp")
    assert code == EXIT_OK
    assert obj["verdict"] == "YES"
    assert obj["answer"] == 1
    assert "final_state" not in obj
    assert "checkpoints" not in obj


def test_simulate_dump_state_and_checkpoints(capsys):
    code, obj, _ = run_json(
        capsys, "simulate", "--problem", "allzero", "--input", "01",
        "--construction", "un", "--dump-state", "--checkpoints")
    assert code == EXIT_OK
    assert obj["verdict"] == "NO"
    assert {"psi_1", "psi_2", "psi_3"} <= set(obj["checkpoints"])
    assert all(len(entry["basis"]) == obj["width"] for entry in obj["final_state"])


def test_simulate_infers_n_from_input(capsys):
    code, obj, _ = run_json(
        capsys, "simulate", "--problem", "parity", "--input", "101",
        "--construction", "lwpp")
    assert code == EXIT_OK
    assert obj["verdict"] == "NO"


def test_verify_allzero_all_constructions(capsys):
    code, obj, _ = run_json(capsys, "verify", "--problem", "allzero", "--n", "2")
    assert code == EXIT_OK
    assert obj["ok"] is True
    constructions = {row["construction"] for row in obj["results"]}
    assert constructions == {"un", "fig3-zqp", "fig3-post", "wn", "lwpp", "lpwpp"}
    assert len(obj["results"]) == 6 * 4
    assert all(row["ok"] for row in obj["results"])


def test_verify_corrupted_h_names_the_input(capsys):
    code, obj, err = run_json(
        capsys, "verify", "--problem", "allzero", "--n", "2",
        "--construction", "lwpp", "--corrupt-h")
    assert code == EXIT_MISMATCH
    failing = [row for row in obj["results"] if not row["ok"]]
    assert failing and all(row["input"] in {"00", "01", "10", "11"} for row in failing)
    assert any("Residual" in row["detail"] for row in failing)
    assert "failed" in err


def test_verify_random_table_skips_deciders(capsys):
    code, obj, err = run_json(
        capsys, "verify", "--problem", "random-table", "--n", "2", "--seed", "3")
    assert code == EXIT_OK
    constructions = {row["construction"] for row in obj["results"]}
    assert "lwpp" not in constructions and "lpwpp" not in constructions
    assert "skipping" in err
    assert obj["seed"] == 3


def test_verify_explicit_lwpp_without_witness_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--problem", "random-table", "--n", "2",
        "--construction", "lwpp")
    assert code == EXIT_USAGE
    assert "half-gap witness" in err


def test_duals_builtin(capsys):
    code, obj, _ = run_json(capsys, "duals", "--problem", "allzero", "--n", "2")
    assert code == EXIT_OK
    assert obj["ok"] is True
    assert all(row["dual"] and row["h_matches"] for row in obj["rows"])


def test_duals_detects_invalid_pair(tmp_path, capsys):
    spec = {
        "name": "not-dual",
        "n": {"min": 1, "max": 2},
        "m": {"affine": {"a": 0, "b": 2}},
        "verifier": {"kind": "dsl", "v0": "b[0]", "v1": "b[0]"},
        "dual": "given-pair",
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, obj, _ = run_json(capsys, "duals", "--problem", str(path), "--n", "2")
    assert code == EXIT_MISMATCH
    assert not obj["ok"]
    assert all(not row["dual"] for row in obj["rows"])


def test_unknown_problem_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "gap", "--problem", "nope", "--input", "00")
    assert code == EXIT_USAGE
    assert "neither a builtin problem" in err


def test_bad_input_string_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "gap", "--problem", "allzero", "--input", "0x1")
    assert code == EXIT_USAGE
    assert "bit string" in err


def test_missing_n_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--problem", "allzero")
    assert code == EXIT_USAGE
    assert "--n" in err


def test_verify_single_verifier_problem_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--problem", "constant-reject", "--n", "2")
    assert code == EXIT_USAGE
    assert "dual pair" in err


def test_desk_scale_guardrail(capsys):
    code, _, err = run_cli(capsys, "verify", "--problem", "allzero", "--n", "18")
    assert code == EXIT_USAGE
    assert "force-large" in err


def test_compact_json_flag(capsys):
    code, out, _ = run_cli(
        capsys, "gap", "--problem", "balanced", "--input", "11", "--json")
    assert code == EXIT_OK
    assert out.count("\n") == 1
    assert json.loads(out)["reports"][0]["Delta"] == 0


def test_simulate_invalid_pair_is_usage_error(tmp_path, capsys):
    spec = {
        "name": "not-dual",
        "n": {"min": 1, "max": 1},
        "m": {"affine": {"a": 0, "b": 2}},
        "verifier": {"kind": "dsl", "v0": "b[0]", "v1": "b[0]"},
        "dual": "given-pair",
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, _, err = run_cli(
        capsys, "simulate", "--problem", str(path), "--input", "0",
        "--construction", "fig3-zqp")
    assert code == EXIT_USAGE
    assert "not dual" in err


def test_problem_spec_file_end_to_end(tmp_path, capsys):
    spec = {
        "name": "allzero-dsl",
        "n": {"min": 1, "max": 3},
        "m": {"affine": {"a": 1, "b": 0}},
        "verifier": {"kind": "dsl", "base": "parity(x & b)"},
        "h": {"kind": "power", "M": 2, "t": {"a": 1, "b": -1}},
        "dual": "derive-via-lemma",
    }
    path = tmp_path / "allzero.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, obj, _ = run_json(capsys, "verify", "--problem", str(path), "--n", "2")
    assert code == EXIT_OK
    assert obj["ok"] is True


def test_gap_output_round_trips(capsys):
    from quasiq.verifierkit import GapReport

    code, obj, _ = run_json(capsys, "gap", "--problem", "parity", "--input", "10")
    assert code == EXIT_OK
    for report in obj["reports"]:
        rebuilt = GapReport.from_json(report)
        assert rebuilt.to_json() == report


def test_verify_lpwpp_corrupted_h_flags_every_row(capsys):
    code, obj, err = run_json(
        capsys, "verify", "--problem", "parity", "--n", "3",
        "--construction", "lpwpp", "--corrupt-h")
    assert code == EXIT_MISMATCH
    assert len(obj["results"]) == 8
    assert not any(row["ok"] for row in obj["results"])
    assert "failed on 8 row(s)" in err


def test_verify_all_corrupted_h_flags_only_the_decider_rows(capsys):
    code, obj, _ = run_json(
        capsys, "verify", "--problem", "allzero", "--n", "2", "--corrupt-h")
    assert code == EXIT_MISMATCH
    for row in obj["results"]:
        assert row["ok"] is (row["construction"] not in ("lwpp", "lpwpp"))


@pytest.mark.parametrize("construction", ["un", "fig3-zqp", "fig3-post", "wn", "lpwpp"])
def test_simulate_corrupted_h_needs_lwpp(capsys, construction):
    code, out, err = run_cli(
        capsys, "simulate", "--problem", "parity", "--input", "101",
        "--construction", construction, "--corrupt-h")
    assert code == EXIT_USAGE
    assert "--corrupt-h" in err and out == ""


@pytest.mark.parametrize("construction", ["un", "fig3-zqp", "fig3-post", "wn"])
def test_verify_corrupted_h_needs_a_decider(capsys, construction):
    code, out, err = run_cli(
        capsys, "verify", "--problem", "parity", "--n", "3",
        "--construction", construction, "--corrupt-h")
    assert code == EXIT_USAGE
    assert "--corrupt-h" in err and out == ""


def test_simulate_corrupted_h_residual_is_a_mismatch(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--problem", "parity", "--input", "101",
        "--construction", "lwpp", "--corrupt-h")
    assert code == EXIT_MISMATCH
    assert "residual terms" in err and out == ""


@pytest.mark.parametrize("error", [
    ResidualTermError("residual", residuals=["0"]),
    AncillaRestorationError("ancilla", term="0"),
    SimulationInvariantError("invariant"),
])
def test_failed_self_check_exits_with_mismatch(monkeypatch, capsys, error):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "_simulate_one", failing)
    code, out, err = run_cli(
        capsys, "simulate", "--problem", "parity", "--input", "10",
        "--construction", "wn")
    assert code == EXIT_MISMATCH
    assert f"error: {error}" in err and out == ""


def test_verify_corrupted_h_that_no_row_reads_is_a_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--problem", "random-table", "--n", "2", "--seed", "3", "--corrupt-h")
    assert code == EXIT_USAGE
    assert "--corrupt-h" in err and out == ""


@pytest.mark.parametrize("n", ["0", "-1"])
def test_n_below_one_names_the_flag(capsys, n):
    code, out, err = run_cli(capsys, "verify", "--problem", "parity", "--n", n)
    assert code == EXIT_USAGE
    assert "--n must be at least 1" in err and out == ""


@pytest.mark.parametrize("m, code", [({"affine": {"a": 0, "b": 5}}, EXIT_USAGE),
                                     ({"affine": {"a": 1, "b": 0}}, EXIT_OK)])
def test_builtin_spec_must_declare_the_builtin_m(tmp_path, capsys, m, code):
    spec = {"name": "bm", "n": {"min": 1, "max": 3}, "m": m,
            "verifier": {"kind": "builtin", "name": "parity"}, "dual": "given-pair"}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    got, out, err = run_cli(capsys, "gap", "--problem", str(path), "--input", "01")
    assert got == code
    if code == EXIT_USAGE:
        assert "declares m = 5 at n = 2, but builtin 'parity' has m = 2" in err and out == ""
    else:
        assert json.loads(out)["m"] == 2


@pytest.mark.parametrize("m", [None, {"affine": {"a": 0, "b": 3}}])
def test_missing_table_file_is_a_spec_error(tmp_path, capsys, m):
    spec = {
        "name": "missing-table",
        "n": {"min": 2, "max": 2},
        "verifier": {"kind": "table-file", "base": "absent.json"},
        "h": {"kind": "power", "M": 2, "t": {"a": 0, "b": 0}},
        "dual": "derive-via-lemma",
    }
    if m is not None:
        spec["m"] = m
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--problem", str(path), "--n", "2")
    assert code == EXIT_USAGE
    assert str(tmp_path / "absent.json") in err and out == ""
    assert "Traceback" not in err


_STRAY = "rejected by schema: the branches of input {row!r} are not all bit strings"
# Each malformed table file and the one stderr line it gives. A key or branch
# of the wrong length is reported for the first row that has one, a key before
# a branch in the same row; labels with a stray character are found before any
# length is checked.
MALFORMED_TABLES = {
    "no-m": ({"n": 2, "table": {}}, "rejected by schema: 'm' is a required property"),
    "table-list": ({"n": 2, "m": 2, "table": []}, "rejected by schema: [] is not of type 'object'"),
    "row-string": ({"n": 2, "m": 2, "table": {"00": "01"}},
                   "rejected by schema: '01' is not of type 'array'"),
    "branch-int": ({"n": 2, "m": 2, "table": {"00": [1]}}, _STRAY.format(row="00")),
    "key-length": ({"n": 2, "m": 2, "table": {"0": []}},
                   "rejected: table key '0' does not have length n = 2"),
    "branch-length": ({"n": 2, "m": 2, "table": {"00": ["0"]}},
                      "rejected: branch '0' does not have length m = 2"),
    # int(label, 2) reads these three, but they are not bit strings
    "plus-sign": ({"n": 2, "m": 3, "table": {"00": ["+1"]}}, _STRAY.format(row="00")),
    "space": ({"n": 2, "m": 3, "table": {"00": ["011"], "01": [" 1"]}}, _STRAY.format(row="01")),
    "underscore": ({"n": 2, "m": 3, "table": {"00": [], "01": ["100"], "10": ["1_0"]}},
                   _STRAY.format(row="10")),
    "null-item": ({"n": 2, "m": 2, "table": {"00": ["01"], "11": ["10", None]}},
                  _STRAY.format(row="11")),
    "list-item": ({"n": 2, "m": 2, "table": {"00": ["01", ["10"]]}}, _STRAY.format(row="00")),
    "key-before-branch": ({"n": 2, "m": 2, "table": {"00": ["01"], "1": ["11"], "01": ["0"]}},
                          "rejected: table key '1' does not have length n = 2"),
    "branch-before-key": ({"n": 2, "m": 2, "table": {"00": ["0"], "1": []}},
                          "rejected: branch '0' does not have length m = 2"),
    "key-and-branch": ({"n": 2, "m": 2, "table": {"1": ["0"]}},
                       "rejected: table key '1' does not have length n = 2"),
    "stray-after-length": ({"n": 2, "m": 2, "table": {"0": [], "01": ["0"], "10": ["12"]}},
                           _STRAY.format(row="10")),
    "empty-branch": ({"n": 2, "m": 2, "table": {"00": [""]}},
                     "rejected: branch '' does not have length m = 2"),
    # the schema's ^[01]*$ lets a key end in a newline, as jsonschema matches it
    "key-newline": ({"n": 2, "m": 2, "table": {"0\n": ["01"], "1": []}},
                    "rejected: invalid literal for int() with base 10: '\\n'"),
}
BAD_TABLE_SPEC = {
    "name": "bad-table",
    "n": {"min": 2, "max": 2},
    "verifier": {"kind": "table-file", "base": "base.json"},
    "h": {"kind": "power", "M": 2, "t": {"a": 0, "b": 1}},
    "dual": "derive-via-lemma",
}


def _run_table(tmp_path, capsys, table):
    """verify at n = 2 on a lemma spec whose base is `table`."""
    (tmp_path / "base.json").write_text(json.dumps(table), encoding="utf-8")
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(BAD_TABLE_SPEC), encoding="utf-8")
    return run_cli(capsys, "verify", "--problem", str(path), "--n", "2")


@pytest.mark.parametrize("table, message", MALFORMED_TABLES.values(), ids=MALFORMED_TABLES)
def test_malformed_table_file_is_a_spec_error(tmp_path, capsys, table, message):
    code, out, err = _run_table(tmp_path, capsys, table)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: table file {tmp_path / 'base.json'} {message}\n"


def test_duplicate_branch_labels_are_valid(tmp_path, capsys):
    """A label listed twice accepts its branch once: the output equals that of
    the table with each label once."""
    table = table_to_json(allzero_verifier(2))
    once = _run_table(tmp_path, capsys, table)
    twice = _run_table(tmp_path, capsys, {**table, "table": {
        x: labels + labels[::-1] for x, labels in table["table"].items()}})
    assert once == twice and once[0] == EXIT_OK


@pytest.mark.parametrize("text, message", [
    (json.dumps(table_to_json(allzero_verifier(3))), "table file {path} is for n = 3, not 2"),
    ("{not json", "table file {path} is not valid JSON: "),
    (json.dumps({"n": 2, "table": {}}),
     "table file {path} rejected by schema: 'm' is a required property"),
], ids=["other-n", "not-json", "no-m"])
def test_a_bad_table_file_is_a_spec_error_that_names_it(tmp_path, capsys, text, message):
    base = tmp_path / "base.json"
    base.write_text(text, encoding="utf-8")
    spec = {**TABLE_LEMMA_SPEC, "verifier": {"kind": "table-file", "base": "base.json"}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--problem", str(path), "--n", "2")
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: " + message.format(path=base))


def test_a_spec_file_that_is_not_json_is_a_spec_error(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text("{not json", encoding="utf-8")
    code, out, err = run_cli(capsys, "gap", "--problem", str(path), "--input", "00")
    assert code == EXIT_USAGE and out == ""
    assert err.startswith(f"error: problem file {path} is not valid JSON: ")


def test_an_input_of_another_length_than_n_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "gap", "--problem", "parity", "--input", "01", "--n", "3")
    assert code == EXIT_USAGE and out == ""
    assert err == "error: --input has 2 bits but n = 3\n"


def test_an_unexpected_exception_exits_3_with_one_line(monkeypatch, capsys):
    """An error main does not map is a bug: exit 3 and one stderr line, never
    a traceback."""
    def broken(verifier, x):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "gap_stats", broken)
    code, out, err = run_cli(capsys, "gap", "--problem", "parity", "--input", "01")
    assert code == EXIT_INTERNAL == 3 and out == ""
    assert err == "internal error: KeyError: 'boom'\n"


LANGUAGE_PAIR = language_pair(2, 2, lambda x: x[0], "first-bit")


@pytest.mark.parametrize("verifier, tables", [
    ({"kind": "table-file", "base": "t0.json"}, {"t0.json": allzero_verifier(2)}),
    ({"kind": "table-file", "v0": "t0.json", "v1": "t1.json"},
     {"t0.json": LANGUAGE_PAIR.v0, "t1.json": LANGUAGE_PAIR.v1}),
], ids=["lemma", "pair"])
def test_each_table_file_is_read_once_per_command(monkeypatch, tmp_path, capsys, verifier, tables):
    """A spec without "m" takes it from its first table file, for the
    guardrail; resolving the problem reuses what that read, so every table
    file is read once, and the output is that of the spec with "m"."""
    from quasiq.harness import problems

    for name, table in tables.items():
        (tmp_path / name).write_text(json.dumps(table_to_json(table)), encoding="utf-8")
    spec = {"name": "tables", "n": {"min": 2, "max": 2}, "verifier": verifier,
            "h": {"kind": "power", "M": 2, "t": {"a": 0, "b": 1}},
            "dual": "derive-via-lemma" if "base" in verifier else "given-pair"}
    reads = []
    read = problems.read_table_file

    def counting(path):
        reads.append(os.path.basename(path))
        return read(path)

    monkeypatch.setattr(problems, "read_table_file", counting)
    outputs = []
    for m in (None, {"affine": {"a": 1, "b": 0}}):
        if m is not None:
            spec["m"] = m
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        reads.clear()
        code, out, err = run_cli(capsys, "verify", "--problem", str(path), "--n", "2", "--json")
        assert code == EXIT_OK, err
        assert sorted(reads) == sorted(tables)
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_n_range_is_checked_before_table_files_are_read(tmp_path, capsys):
    spec = {
        "name": "missing-table",
        "n": {"min": 2, "max": 3},
        "verifier": {"kind": "table-file", "base": "absent.json"},
        "h": {"kind": "power", "M": 2, "t": {"a": 0, "b": 0}},
        "dual": "derive-via-lemma",
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--problem", str(path), "--n", "9")
    assert code == EXIT_USAGE
    assert "n = 9 outside declared range [2, 3]" in err and out == ""
    assert "absent.json" not in err


REFUSAL = "error: n + m = {} exceeds the desk-scale limit 20; pass --force-large to override\n"


def _count_calls(monkeypatch, name, *modules):
    """The argument tuples of every call to `name`, patched in each module."""
    calls = []
    original = getattr(modules[0], name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("declare_m", [True, False], ids=["declared-m", "table-m"])
@pytest.mark.parametrize("dual", ["derive-via-lemma", "given-pair"], ids=["lemma", "pair"])
def test_the_guardrail_fires_as_soon_as_m_is_known(monkeypatch, tmp_path, capsys, dual, declare_m):
    """n = 1 over a table of m = 20 that accepts no branch: a declared m is
    refused before any table is read, a table's m after the one read of the
    first table, and both before any branch is counted; --force-large runs it."""
    from quasiq import verifierkit
    from quasiq.harness import problems

    (tmp_path / "t.json").write_text(json.dumps({"n": 1, "m": 20, "table": {}}))
    lemma = dual == "derive-via-lemma"
    tables = {"base": "t.json"} if lemma else {"v0": "t.json", "v1": "t.json"}
    spec = {"name": "wide", "n": {"min": 1, "max": 1}, "dual": dual,
            "verifier": {"kind": "table-file", **tables},
            "h": {"kind": "power", "M": 2, "t": {"a": 0, "b": 19}}}
    if declare_m:
        spec["m"] = {"affine": {"a": 0, "b": 20}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    reads = _count_calls(monkeypatch, "read_table_file", problems)
    counts = _count_calls(monkeypatch, "gap_stats", cli, verifierkit)
    argv = ["gap", "--problem", str(path), "--input", "0"]
    m = 21 if lemma else 20
    assert run_cli(capsys, *argv) == (EXIT_USAGE, "", REFUSAL.format(1 + m))
    assert len(reads) == (0 if declare_m else 1) and counts == []
    code, obj, err = run_json(capsys, *argv, "--force-large")
    assert code == EXIT_OK, err
    assert obj["m"] == m


def test_random_table_is_refused_before_a_table_is_drawn(monkeypatch, capsys):
    from quasiq import generators

    draws = _count_calls(monkeypatch, "random_dual_pair", generators)
    assert run_cli(capsys, "gap", "--problem", "random-table", "--input", "0" * 10) == (
        EXIT_USAGE, "", REFUSAL.format(21))
    assert draws == []
    code, _, err = run_cli(capsys, "gap", "--problem", "random-table", "--input", "0" * 9)
    assert code == EXIT_OK, err
    assert len(draws) == 1


def test_a_given_pair_whose_tables_disagree_on_m_names_both(tmp_path, capsys):
    for name, m in (("t0.json", 2), ("t1.json", 3)):
        (tmp_path / name).write_text(json.dumps({"n": 2, "m": m, "table": {}}))
    spec = {"name": "mixed", "n": {"min": 2, "max": 2}, "dual": "given-pair",
            "verifier": {"kind": "table-file", "v0": "t0.json", "v1": "t1.json"}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "gap", "--problem", str(path), "--input", "01")
    assert code == EXIT_USAGE and out == "" and "Traceback" not in err
    assert err == (f"error: table files {tmp_path / 't0.json'} and {tmp_path / 't1.json'} "
                   "have m = 2 and m = 3; a dual pair needs one branching length\n")


@pytest.mark.parametrize("m", [None, {"affine": {"a": 0, "b": 2}}], ids=["table-m", "declared-m"])
def test_an_unreadable_later_table_is_reported_as_unreadable(tmp_path, capsys, m):
    (tmp_path / "t0.json").write_text(json.dumps({"n": 2, "m": 2, "table": {}}))
    spec = {"name": "later", "n": {"min": 2, "max": 2}, "dual": "given-pair",
            "verifier": {"kind": "table-file", "v0": "t0.json", "v1": "absent.json"}}
    if m is not None:
        spec["m"] = m
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run_cli(capsys, "gap", "--problem", str(path), "--input", "01") == (
        EXIT_USAGE, "", f"error: cannot read table file {tmp_path / 'absent.json'}: "
                        "No such file or directory\n")


@pytest.mark.parametrize("key", ["\u0662", "02", "2\n"], ids=["arabic-indic", "leading-zero", "newline"])
@pytest.mark.parametrize("table", ["m table", "h values"])
def test_a_size_key_is_ascii_decimal_without_leading_zeros(tmp_path, capsys, table, key):
    """The schema's ^\\d+$ passes each key, which int() would read as 2."""
    spec = {"name": "keys", "n": {"min": 1, "max": 3}, "dual": "given-pair",
            "verifier": {"kind": "builtin", "name": "parity"}}
    if table == "m table":
        spec["m"] = {"table": {key: 2}}
    else:
        spec["h"] = {"kind": "tabulated", "values": {key: 1}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run_cli(capsys, "simulate", "--problem", str(path), "--input", "10",
                   "--construction", "lwpp") == (
        EXIT_USAGE, "", f"error: {table} key {key!r} is not a size n in ASCII digits "
                        "without leading zeros\n")


def test_every_construction_is_a_choice_and_a_verify_row(capsys):
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command").choices
    for command in ("simulate", "verify"):
        (action,) = [a for a in subparsers[command]._actions if a.dest == "construction"]
        assert set(cli.CONSTRUCTIONS) <= set(action.choices), command
    code, obj, _ = run_json(capsys, "verify", "--problem", "allzero", "--n", "2")
    assert code == EXIT_OK
    rows = [(row["construction"], row["input"]) for row in obj["results"]]
    assert sorted(rows) == sorted(
        (name, format(x, "02b")) for name in cli.CONSTRUCTION_TABLE for x in range(4))


def test_lpwpp_rows_simulate_only_their_own_decider(monkeypatch, capsys):
    """Each lpwpp row is checked against the closed form, not a second circuit:
    one simulation per row."""
    created = []
    init = _NumeratorState.__init__

    def counting_init(self, width, key, *inner):
        created.append(key)
        init(self, width, key, *inner)

    monkeypatch.setattr(_NumeratorState, "__init__", counting_init)
    code, obj, _ = run_json(capsys, "verify", "--problem", "parity", "--n", "3",
                            "--construction", "lpwpp")
    assert code == EXIT_OK and obj["ok"] and len(obj["results"]) == 8
    assert len(created) == 8


def test_verify_simulates_each_shared_prefix_once_per_input(monkeypatch, capsys):
    """verify runs un, then fig3-zqp, fig3-post and wn from un's final state,
    then lwpp and lpwpp from wn's: per input, the two oracles of un and the
    two of wn's inverse block, where six runs from |x 0...0> apply 18."""
    oracles = []
    move = _NumeratorState._move

    def counting_move(self, gate, cmask, cval):
        if gate.kind == "ORACLE":
            oracles.append(gate)
        move(self, gate, cmask, cval)

    monkeypatch.setattr(_NumeratorState, "_move", counting_move)
    code, obj, _ = run_json(capsys, "verify", "--problem", "parity", "--n", "3")
    assert code == EXIT_OK and obj["ok"] and len(obj["results"]) == 6 * 8
    assert len(oracles) == 4 * 8


@pytest.mark.parametrize("error, code, message", [
    (ValueError("kernel bug"), EXIT_USAGE, "error: kernel bug"),
    (TypeError("kernel bug"), EXIT_INTERNAL, "internal error: TypeError: kernel bug"),
], ids=["ValueError", "TypeError"])
def test_a_kernel_error_ends_verify_instead_of_failing_a_row(monkeypatch, capsys, error, code,
                                                             message):
    """A verify row reports as its mismatch only the errors its pair and input
    can raise (duality, half-gap promise, postselection, registers and the
    self-checks). A bare ValueError from the kernel is none of them, so it
    ends the command as main maps it: no rows, one stderr line."""
    def broken(self, gate, cmask, cval):
        raise error

    monkeypatch.setattr(_NumeratorState, "_move", broken)
    got, out, err = run_cli(capsys, "verify", "--problem", "parity", "--n", "2")
    assert (got, out, err) == (code, "", message + "\n")


@pytest.mark.parametrize("construction, kept", [("fig3-zqp", False), ("lwpp", False),
                                               ("un", True), ("wn", True)])
def test_only_a_circuit_children_start_from_keeps_its_final_terms(monkeypatch, capsys,
                                                                  construction, kept):
    """un and wn are the parents of the other constructions, so a run of
    either keeps its final terms in `last`; a run of any other construction
    keeps none, and its parents, which did not run, hold none either."""
    from quasiq import circuitgen

    runs = []
    simulate = circuitgen.simulate_circuit

    def recording(circuit, x, record=False):
        runs.append(circuit)
        return simulate(circuit, x, record)

    monkeypatch.setattr(circuitgen, "simulate_circuit", recording)
    code, _, err = run_cli(capsys, "simulate", "--problem", "parity", "--input", "101",
                           "--construction", construction)
    assert code == EXIT_OK, err
    (circuit,) = runs
    assert (circuit.last is not None) == kept == circuit.forks
    while circuit.parent is not None:
        circuit = circuit.parent
        assert circuit.forks and circuit.last is None


def test_an_lpwpp_circuit_with_a_length_dependent_gate_fails_every_row(monkeypatch, capsys):
    """The builder checks the gate alphabet; a circuit that fails it is never
    kept, so every row builds it again and fails."""
    from quasiq.quasistate import Gate

    monkeypatch.setattr(Gate, "g", classmethod(lambda cls, wire, base: cls.a(wire, base)))
    code, obj, _ = run_json(capsys, "verify", "--problem", "parity", "--n", "3",
                            "--construction", "lpwpp")
    assert code == EXIT_MISMATCH and len(obj["results"]) == 8
    assert {row["detail"] for row in obj["results"]} == {
        "SimulationInvariantError: fixed-gate-set circuit still contains a length-dependent gate"}


def test_lpwpp_gate_alphabet_is_checked_once_per_pair(monkeypatch, capsys):
    """One decider per pair: every row runs, and checks the alphabet of, the
    circuit built for the first row."""
    from quasiq import circuitgen

    built = []
    build = circuitgen.build_lpwpp_decider

    def counting_build(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(circuitgen, "build_lpwpp_decider", counting_build)
    code, obj, _ = run_json(capsys, "verify", "--problem", "parity", "--n", "3",
                            "--construction", "lpwpp")
    assert code == EXIT_OK and obj["ok"] and len(obj["results"]) == 8
    assert len(built) == 1


def _double_every_nonzero_gap(monkeypatch):
    """Make the oracle report twice every nonzero half-gap: L(x) stays as it
    was, so only a run that compares its amplitudes with the oracle notices."""
    from quasiq import verifierkit

    real = verifierkit.gap_stats

    def doubled(v, x):
        report = real(v, x)
        if report.Delta == 0:
            return report
        return report._replace(Delta=2 * report.Delta,
                               delta=Amplitude(2 * report.Delta, 0, report.m))

    monkeypatch.setattr(verifierkit, "gap_stats", doubled)


@pytest.mark.parametrize("construction", ["un", "fig3-zqp", "wn"])
def test_simulate_and_verify_share_the_oracle_check(monkeypatch, capsys, construction):
    _double_every_nonzero_gap(monkeypatch)
    code, out, err = run_cli(capsys, "simulate", "--problem", "parity", "--input", "101",
                             "--construction", construction)
    assert (code, out) == (EXIT_MISMATCH, "")
    assert err.startswith("error: ")
    code, obj, _ = run_json(capsys, "verify", "--problem", "parity", "--n", "3",
                            "--construction", construction)
    assert code == EXIT_MISMATCH
    (row,) = [row for row in obj["results"] if row["input"] == "101"]
    assert row["detail"] == "SimulationInvariantError: " + err[len("error: "):].rstrip("\n")


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_fresh(code, *argv):
    """Run `code` in a new interpreter that imports quasiq from this checkout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


# Modules that hold only code no workload command runs; each loads on first use.
DEFERRED_MODULES = ("quasiq.reference", "quasiq.readers", "quasiq.generators",
                    "quasiq.harness.duals", "quasiq.harness.dsl_language")
# Runs the CLI, then prints the loaded quasiq modules and their source lines.
LOAD_PROBE = """
import json, sys
from quasiq.harness.cli import main
code = main(sys.argv[1:])
names = sorted(name for name in sys.modules if name.split(".")[0] == "quasiq")
lines = sum(len(open(sys.modules[name].__file__).readlines()) for name in names)
print(json.dumps({"modules": names, "lines": lines}))
sys.exit(code)
"""
# Every quasiq module a command loaded held 3,404 lines before the code that
# no workload command runs moved out; at 13 us of compiling per line without
# cached bytecode, 250 lines are about 3 ms per command. The packed Hadamard
# kernel took 2 more lines off, and the lane-block kernel, with the DSL's
# printer and one-branch evaluator moved out, 1 more. With the guardrail checked
# where the problem is resolved, 14 more: a cold command loaded 3,137. With the
# DSL's lexer, parser and mask compiler loaded only for DSL text, 302 more.
LINES_BEFORE, LINES_MOVED_OUT = 3404, 569


@pytest.mark.parametrize("argv", [
    ["simulate", "--problem", "allzero", "--input", "000", "--construction", "un", "--json"],
    ["gap", "--problem", "parity", "--input", "0", "--json"],
    ["verify", "--problem", "parity", "--n", "3", "--json"],
], ids=["simulate", "gap", "verify"])
def test_a_command_loads_no_deferred_module(argv):
    proc = run_fresh(LOAD_PROBE, *argv)
    assert proc.returncode == EXIT_OK, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert not set(loaded["modules"]) & set(DEFERRED_MODULES)
    assert loaded["lines"] <= LINES_BEFORE - LINES_MOVED_OUT


@pytest.mark.parametrize("call, module", [
    ("StateVector.basis(1, 0).apply(Gate.h(0))", "quasiq.reference"),
    ("str(Amplitude(1, 1, 1))", "quasiq.reference"),
    ("Amplitude(2, 0).div_exact(Amplitude(1, 1))", "quasiq.reference"),
    ("verifierkit.random_dual_pair(1, 2, random.Random(0))", "quasiq.generators"),
    ("verifierkit.builtin_problems()['random-table'].pair(1, random.Random(0))",
     "quasiq.generators"),
    ("Gate.from_json(Gate.h(0).to_json())", "quasiq.readers"),
    ("verifierkit.validate_dual_pair(verifierkit.builtin_problems()['parity'].pair(1))",
     "quasiq.harness.duals"),
    ("__import__('quasiq.harness.dsl', fromlist=['_']).dsl_verifier('b[0]', 1, 1).eval((0,), (1,))",
     "quasiq.reference"),
    ("__import__('quasiq.harness.dsl', fromlist=['_']).dsl_verifier('b[0]', 1, 1, 'v')",
     "quasiq.harness.dsl_language"),
], ids=["apply", "str", "div-exact", "random-pair", "random-table", "reader", "duals", "dsl-eval",
        "dsl-language"])
def test_deferred_code_loads_on_first_use(call, module):
    proc = run_fresh("import random, sys; from quasiq import verifierkit; "
                     "from quasiq.exactnum import Amplitude; "
                     "from quasiq.quasistate import Gate, StateVector; "
                     f"print({module!r} in sys.modules); {call}; print({module!r} in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


@pytest.mark.parametrize("text", ["(" * 400 + "b[0]" + ")" * 400, "!" * 3000 + "b[0]",
                                  " ^ ".join(["b[0]"] * 2000)],
                         ids=["parentheses", "negations", "chain"])
def test_deep_dsl_nesting_is_a_spec_error(tmp_path, text):
    spec = {"name": "deep", "n": {"min": 1, "max": 2}, "m": {"affine": {"a": 1, "b": 0}},
            "verifier": {"kind": "dsl", "base": text},
            "h": {"kind": "power", "M": 2, "t": {"a": 1, "b": -1}}, "dual": "derive-via-lemma"}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(spec))
    proc = run_fresh("import sys; from quasiq.harness.cli import main; sys.exit(main())",
                     "gap", "--problem", str(path), "--input", "0")
    assert proc.returncode == EXIT_USAGE
    assert "Traceback" not in proc.stderr
    assert "nested more than 100 levels deep at line 1, column" in proc.stderr


# DSL tokens and stray characters that a v1 text is drawn from.
DSL_PIECES = ("x", "b", "[", "]", "0", "1", "2", "(", ")", "&", "^", "|", "!", "parity", " ",
              "\n", "\t", "\r", "\x00", "\x0b", "_", "$", "\u00e9", "\u0301", "\u00b2",
              "\u0663", "x[0]", "b[1]")
WELL_FORMED_INPUTS = ("0", "1", "01", "10", "00", "11")  # n is 1 or 2 in GOOD_PAIR_SPEC


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(v1=st.lists(st.sampled_from(DSL_PIECES), max_size=10).map("".join),
       x=st.one_of(st.sampled_from(WELL_FORMED_INPUTS), st.text("01 2x-=\u0663\n", max_size=4)))
def test_dsl_text_and_input_errors_keep_the_cli_contract(capsys, v1, x):
    """A refused run exits 2 with one `error:` line, which names a line and a
    column when the DSL text is at fault, and nothing prints a traceback."""
    spec = dict(GOOD_PAIR_SPEC, verifier=dict(GOOD_PAIR_SPEC["verifier"], v1=v1))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pair.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        code, out, err = run_cli(capsys, "gap", "--problem", path, f"--input={x}", "--json")
    assert "Traceback" not in out + err and "internal error" not in err
    if code == EXIT_OK:
        assert x in WELL_FORMED_INPUTS and json.loads(out)["input"] == x
        return
    assert code == EXIT_USAGE and out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: ")
    if x in WELL_FORMED_INPUTS:
        with pytest.raises(ParseError) as info:
            parse_dsl(v1, len(x), 2)
        assert f"line {info.value.line}, column {info.value.col}" in line


# Runs the CLI, then prints whether jsonschema was imported.
# bench/layers.py times DSL evaluations through dataclasses.replace(verifier,
# eval_fn=...), so Verifier stays a dataclass. Every other record is a
# namedtuple or a class with __slots__: a dataclass generates and compiles its
# methods at import, which every command pays.
DATACLASS_PROBE = ("import dataclasses, sys, quasiq.harness.cli; "
                   "print(sorted({c.__qualname__ for name, module in list(sys.modules.items()) "
                   "if name.split('.')[0] == 'quasiq' for c in vars(module).values() "
                   "if isinstance(c, type) and dataclasses.is_dataclass(c)}))")


def test_verifier_is_the_only_dataclass():
    proc = run_fresh(DATACLASS_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "['Verifier']"


IMPORT_PROBE = ("import sys; from quasiq.harness.cli import main; code = main(sys.argv[1:]); "
                "print('jsonschema' in sys.modules); sys.exit(code)")
TABLE_LEMMA_SPEC = {"name": "allzero-table", "n": {"min": 2, "max": 2},
                    "verifier": {"kind": "table-file", "base": "allzero-n2.json"},
                    "h": {"kind": "tabulated", "values": {"2": 2}}, "dual": "derive-via-lemma"}


def _spec_file(tmp_path, spec: dict) -> str:
    """The path of `spec` written to tmp_path, beside the table file it may name."""
    (tmp_path / "allzero-n2.json").write_text(json.dumps(table_to_json(allzero_verifier(2))))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.mark.parametrize("spec", [None, GOOD_PAIR_SPEC, TABLE_LEMMA_SPEC],
                         ids=["builtin", "dsl-pair", "table-lemma"])
def test_a_valid_problem_never_imports_jsonschema(tmp_path, spec):
    problem = "parity" if spec is None else _spec_file(tmp_path, spec)
    proc = run_fresh(IMPORT_PROBE, "simulate", "--problem", problem, "--input", "00",
                     "--construction", "un")
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_a_malformed_spec_imports_jsonschema_for_its_message(tmp_path):
    spec = {**GOOD_PAIR_SPEC, "name": ""}
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(spec, SCHEMA)
    proc = run_fresh(IMPORT_PROBE, "gap", "--problem", _spec_file(tmp_path, spec), "--input", "00")
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout.splitlines()[-1] == "True"
    assert proc.stderr == f"error: problem spec rejected by schema: {expected.value.message}\n"


@pytest.mark.parametrize("path, value", [(("m", "affine", "a"), 1.0), (("h", "M"), 2.0)],
                         ids=["m-affine", "h-power"])
def test_an_integer_given_as_a_float_is_a_spec_error(tmp_path, path, value):
    """Draft 2020-12 counts 1.0 as an integer; quasiq's schema does not, since
    a float m or M would end in a TypeError deep in the run."""
    spec = _edit(GOOD_LEMMA_SPEC if path[0] == "h" else GOOD_PAIR_SPEC, path, value)
    proc = run_fresh("import sys; from quasiq.harness.cli import main; sys.exit(main())",
                     "verify", "--problem", _spec_file(tmp_path, spec), "--n", "2")
    assert proc.returncode == EXIT_USAGE
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"error: problem spec rejected by schema: {value} is not of type 'integer'\n"


def test_closed_stdout_exits_quietly():
    """A reader that is gone before the first write: no traceback, and the
    status a shell gives a filter killed by SIGPIPE."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from quasiq.harness.cli import main; "
             "sys.exit(main())", "verify", "--problem", "parity", "--n", "6"],
            env=dict(os.environ, PYTHONPATH=SRC), stdout=write_end, stderr=subprocess.PIPE,
            text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (EXIT_BROKEN_PIPE, "")
