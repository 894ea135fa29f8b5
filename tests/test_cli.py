"""CLI behavior: JSON output, exit codes, guardrails, fault injection."""
import json
import os
import re
import subprocess
import sys
import tempfile
import time

import hypothesis.strategies as st
import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings
from test_problems import GOOD_LEMMA_SPEC, GOOD_PAIR_SPEC, _edit

from quasiq import circuitgen
from quasiq.circuitgen import AncillaRestorationError, ResidualTermError, SimulationInvariantError
from quasiq.exactnum import Amplitude
from quasiq.harness import cli
from quasiq.harness.cli import (
    CONSTRUCTIONS,
    EXIT_BROKEN_PIPE,
    EXIT_INTERNAL,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from quasiq.harness.dsl import ParseError, parse_dsl
from quasiq.harness.schema import SCHEMA
from quasiq.quasistate import _NumeratorState, bits_of
from quasiq.verifierkit import DualVerifierPair, allzero_verifier, language_pair, table_to_json


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


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_simulate_invalid_pair_is_usage_error(tmp_path, capsys, construction):
    """Every construction reads L(x) before its check reads the run, so a pair
    that is not dual is a usage error, not a decider's residual terms."""
    spec = {
        "name": "not-dual",
        "n": {"min": 1, "max": 1},
        "m": {"affine": {"a": 0, "b": 2}},
        "verifier": {"kind": "dsl", "v0": "b[0]", "v1": "b[0]"},
        "h": {"kind": "power", "M": 2, "t": {"a": 0, "b": 1}},
        "dual": "given-pair",
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, _, err = run_cli(
        capsys, "simulate", "--problem", str(path), "--input", "0",
        "--construction", construction)
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


@pytest.mark.parametrize("M", [2, 3])
def test_a_power_witness_past_the_bound_is_refused_before_it_is_formed(tmp_path, capsys, M):
    """h(n) = M**t(n) with t(n) > m - 1 exceeds 2**(m-1) for any M >= 2, so the
    lemma refuses it by its exponent, naming it as M**t, and never forms the
    power, whose decimal digits alone would exceed Python's limit."""
    spec = {"name": "huge-h", "n": {"min": 1, "max": 3}, "m": {"affine": {"a": 1, "b": 0}},
            "verifier": {"kind": "dsl", "base": "parity(x & b)"},
            "h": {"kind": "power", "M": M, "t": {"a": 30000000, "b": 0}},
            "dual": "derive-via-lemma"}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "gap", "--problem", str(path), "--input", "01")
    assert time.perf_counter() - start < 1
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: half-gap h(2) = {M}**60000000 outside [1, 2**(m-1)] for m = 2\n"


def test_gap_output_round_trips(capsys):
    from quasiq.verifierkit import GapReport

    code, obj, _ = run_json(capsys, "gap", "--problem", "parity", "--input", "10")
    assert code == EXIT_OK
    for report in obj["reports"]:
        rebuilt = GapReport.from_json(report)
        assert rebuilt.to_json() == report


@pytest.mark.parametrize("construction, detail", [
    ("lpwpp", "fixed-gate-set decider differs from the length-dependent one"),
    ("lwpp", "ResidualTermError: decider output is not a single clean term at x = {x}; "
             "residual terms: ['{x}000000']"),
])
def test_verify_corrupted_h_flags_every_row(capsys, construction, detail):
    """Each input's sector of the one decider run is checked on its own: an
    lpwpp row against the term for h + 1, and an lwpp row, built for h + 1,
    names the residual term at its input."""
    code, obj, err = run_json(
        capsys, "verify", "--problem", "parity", "--n", "3",
        "--construction", construction, "--corrupt-h")
    assert code == EXIT_MISMATCH and err == "verification failed on 8 row(s)\n"
    assert obj["results"] == [
        {"construction": construction, "input": f"{x:03b}", "ok": False,
         "detail": detail.format(x=f"{x:03b}")} for x in range(8)]


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
# a branch in the same row; keys, then labels, with a stray character are found
# before any length is checked.
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
                    "rejected by schema: the input '0\\n' is not a bit string"),
    "key-before-label": ({"n": 2, "m": 2, "table": {"00": ["0\t"], "1\n": []}},
                         "rejected by schema: the input '1\\n' is not a bit string"),
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
        (name, format(x, "02b")) for name in cli.RUNS for x in range(4))


def test_simulate_calls_each_constructions_cli_binding_once(monkeypatch, capsys):
    """cli.RUNNERS, the one per-construction list beside circuitgen.RUNS, names the same
    constructions, and simulate reaches each run_* through cli's module binding, as a
    wrapper installed on the module (bench/layers.py's tracer) needs."""
    assert cli.RUNNERS.keys() == cli.RUNS.keys()
    bindings = {"un": "run_un", "fig3-zqp": "run_zqp", "fig3-post": "run_posteqp", "wn": "run_wn",
                "lwpp": "run_lwpp", "lpwpp": "run_lpwpp"}
    calls = []

    def counting(binding, original):
        def run(*args):
            calls.append(binding)
            return original(*args)
        return run

    for binding in bindings.values():
        monkeypatch.setattr(cli, binding, counting(binding, getattr(cli, binding)))
    for name, binding in bindings.items():
        calls.clear()
        code = cli.main(["simulate", "--problem", "parity", "--input", "01", "--construction", name])
        assert (code, calls) == (EXIT_OK, [binding]), name
        assert json.loads(capsys.readouterr().out)["construction"] == name


# n = m = 2, L(x) = x[0], h = 2: where a side's half-gap vanishes it accepts
# half the branches, elsewhere none (half-gap 2). Each case changes one row.
HALF_ROWS = ["00", "01"]
DUALITY = "DualityError: pair 'one-bad-input' is not dual at x = 01: Delta0 = {0}, Delta1 = {0}"
RESIDUAL = ("ResidualTermError: decider output is not a single clean term at x = 10; "
            "residual terms: ['1000000']")


@pytest.mark.parametrize("side, row, branches, details", [
    ("v0", "01", HALF_ROWS, dict.fromkeys(cli.CONSTRUCTIONS, DUALITY.format(0))),
    ("v1", "01", [], dict.fromkeys(cli.CONSTRUCTIONS, DUALITY.format(2))),
    ("v1", "10", ["00"], {"lwpp": RESIDUAL, "lpwpp": RESIDUAL}),
], ids=["both-gaps-zero", "both-gaps-nonzero", "gap-below-h"])
def test_a_pair_broken_at_one_input_fails_only_that_inputs_rows(tmp_path, capsys, side, row,
                                                                 branches, details):
    """verify runs each construction once on all four inputs as one state,
    and each row reads its own input's sector and oracle values: a pair that
    breaks at one input fails only that input's rows whose checks reach the
    fault, each with the detail that a run per input gave, and every other
    row passes."""
    tables = {"v0": {"00": [], "01": [], "10": HALF_ROWS, "11": HALF_ROWS},
              "v1": {"00": HALF_ROWS, "01": HALF_ROWS, "10": [], "11": []}}
    tables[side][row] = branches
    for name, table in tables.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({"n": 2, "m": 2, "table": table}))
    spec = {"name": "one-bad-input", "n": {"min": 2, "max": 2}, "dual": "given-pair",
            "verifier": {"kind": "table-file", "v0": "v0.json", "v1": "v1.json"},
            "h": {"kind": "power", "M": 2, "t": {"a": 0, "b": 1}}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, obj, err = run_json(capsys, "verify", "--problem", str(path), "--n", "2")
    assert code == EXIT_MISMATCH and err == f"verification failed on {len(details)} row(s)\n"
    expected = []
    for construction in cli.CONSTRUCTIONS:
        for x in ("00", "01", "10", "11"):
            expected.append({"construction": construction, "input": x, "ok": True})
            if x == row and construction in details:
                expected[-1].update(ok=False, detail=details[construction])
    assert obj["results"] == expected


def test_an_empty_n_range_is_refused_when_the_spec_loads(tmp_path, capsys):
    spec = _edit(GOOD_PAIR_SPEC, ["n"], {"min": 3, "max": 1})
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert run_cli(capsys, "gap", "--problem", str(path), "--input", "00") == (
        EXIT_USAGE, "", f"error: spec {spec['name']!r} declares n from 3 to 1, an empty range\n")


def test_lpwpp_rows_simulate_only_their_own_decider(monkeypatch, capsys):
    """Each lpwpp row is checked against the closed form, not a second circuit:
    one simulation of the decider, from all eight inputs |x 0...0> at once."""
    created = []
    init = _NumeratorState.__init__

    def counting_init(self, width, keys, *inner):
        created.append(list(keys))
        init(self, width, created[-1], *inner)

    monkeypatch.setattr(_NumeratorState, "__init__", counting_init)
    code, obj, _ = run_json(capsys, "verify", "--problem", "parity", "--n", "3",
                            "--construction", "lpwpp")
    assert code == EXIT_OK and obj["ok"] and len(obj["results"]) == 8
    assert created == [[x << 6 for x in range(8)]]  # x on the top 3 of 9 wires


def test_verify_simulates_each_shared_prefix_once(monkeypatch, capsys):
    """verify runs un on all inputs at once, then fig3-zqp, fig3-post and wn
    from un's final state, then lwpp and lpwpp from wn's: the two oracles of
    un and the two of wn's inverse block, once each, where six runs from
    |x 0...0> per input apply 18 per input."""
    oracles = []
    move = _NumeratorState._move

    def counting_move(self, gate, cmask, cval):
        if gate.kind == "ORACLE":
            oracles.append(gate)
        move(self, gate, cmask, cval)

    monkeypatch.setattr(_NumeratorState, "_move", counting_move)
    code, obj, _ = run_json(capsys, "verify", "--problem", "parity", "--n", "3")
    assert code == EXIT_OK and obj["ok"] and len(obj["results"]) == 6 * 8
    assert len(oracles) == 4


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
                    "quasiq.harness.duals", "quasiq.harness.dsl_language", "quasiq.harness.schema")
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
# With the package's re-exports deleted, 55 fewer, less the 7 that check a table
# key and name a DSL text's field: 2,787. With verify's inputs run as one state,
# 2,782. With the lanes kept to the gates the constructions make, the others run
# through the reference and the ring's reciprocal moved out with its one caller,
# 13 fewer, less the 9 that check a gate's wire types and bound a power-form
# witness: a cold command loads 2,778. With the checks reading the kernel's
# numerators (the Numerators class; the batch protocol, _sectors and the
# Amplitude-building to_state gone), 119 more, and the spec and table schemas
# loaded only for a spec or table file, 207 fewer: 2,690. With the CLI's construction
# records folded into circuitgen.RUNS and verify's rows of a chunk made by one function,
# 27 fewer: 2,663. With a chunk's x wires in the lanes, L(x) read once an input and passed
# to the checks, and a fork's regrouping shared by the children that need it, 44 more, and
# the StateVector methods no command calls, Amplitude.sign and the gate and circuit JSON
# writers moved to quasiq.reference and quasiq.readers, 47 fewer: 2,660. With the whole
# StateVector class in quasiq.reference and a printed state written from the numerators, 93
# fewer: 2,567.
LINES_BEFORE, LINES_MOVED_OUT = 3404, 837


@pytest.mark.parametrize("argv", [
    ["simulate", "--problem", "allzero", "--input", "000", "--construction", "un", "--json"],
    ["gap", "--problem", "parity", "--input", "0", "--json"],
    ["verify", "--problem", "parity", "--n", "3", "--json"],
    ["simulate", "--problem", "allzero", "--input", "00", "--construction", "lwpp", "--dump-state",
     "--checkpoints", "--json"],
], ids=["simulate", "gap", "verify", "simulate-dump"])
def test_a_command_loads_no_deferred_module(argv):
    proc = run_fresh(LOAD_PROBE, *argv)
    assert proc.returncode == EXIT_OK, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert not set(loaded["modules"]) & set(DEFERRED_MODULES)
    assert loaded["lines"] <= LINES_BEFORE - LINES_MOVED_OUT


@pytest.mark.parametrize("verifier, tables", [
    ({"kind": "dsl", "base": "parity(x & b)"}, {}),
    ({"kind": "table-file", "v0": "t0.json", "v1": "t1.json"},
     {"t0.json": LANGUAGE_PAIR.v0, "t1.json": LANGUAGE_PAIR.v1}),
], ids=["lemma-dsl", "table-pair"])
def test_every_construction_runs_on_the_lanes(tmp_path, verifier, tables):
    """verify runs all six constructions, on a pair derived from a DSL base
    and on a given table-file pair, without loading the per-gate reference:
    the kernel's lanes apply every gate they make."""
    for name, table in tables.items():
        (tmp_path / name).write_text(json.dumps(table_to_json(table)), encoding="utf-8")
    spec = {"name": "lanes", "n": {"min": 2, "max": 2}, "m": {"affine": {"a": 1, "b": 0}},
            "verifier": verifier, "h": {"kind": "power", "M": 2, "t": {"a": 0, "b": 1}},
            "dual": "given-pair" if tables else "derive-via-lemma"}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    proc = run_fresh(LOAD_PROBE, "verify", "--problem", str(path), "--n", "2", "--json")
    assert proc.returncode == EXIT_OK, proc.stderr
    *out, loaded = proc.stdout.splitlines()
    rows = json.loads("\n".join(out))["results"]
    assert {row["construction"] for row in rows} == {"un", "fig3-zqp", "fig3-post", "wn", "lwpp",
                                                     "lpwpp"}
    assert all(row["ok"] for row in rows)
    assert "quasiq.reference" not in json.loads(loaded)["modules"]


# Runs the CLI with the kernel's to_state counted, then prints the count and whether
# quasiq.reference loaded: StateVector lives there, so a command that leaves it
# unloaded made no StateVector.
STATE_PROBE = """
import json, sys
from quasiq.quasistate import _NumeratorState
made = []
to_state = _NumeratorState.to_state
_NumeratorState.to_state = lambda self: made.append("to_state") or to_state(self)
from quasiq.harness.cli import main
code = main(sys.argv[1:])
print(json.dumps({"made": made, "reference": "quasiq.reference" in sys.modules}))
sys.exit(code)
"""


@pytest.mark.parametrize("table", [False, True], ids=["parity", "table-pair"])
def test_verify_checks_numerators_and_builds_no_state(tmp_path, table):
    """verify reads its checks off the kernel's numerators: no StateVector is
    made, the kernel's to_state never runs, and the reference does not load."""
    problem, n = "parity", 3
    if table:
        for name, verifier in (("t0.json", LANGUAGE_PAIR.v0), ("t1.json", LANGUAGE_PAIR.v1)):
            (tmp_path / name).write_text(json.dumps(table_to_json(verifier)), encoding="utf-8")
        spec = {"name": "tables", "n": {"min": 2, "max": 2}, "m": {"affine": {"a": 1, "b": 0}},
                "verifier": {"kind": "table-file", "v0": "t0.json", "v1": "t1.json"},
                "dual": "given-pair"}
        problem, n = str(tmp_path / "spec.json"), 2
        (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    proc = run_fresh(STATE_PROBE, "verify", "--problem", problem, "--n", str(n), "--json")
    assert proc.returncode == EXIT_OK, proc.stderr
    *out, probe = proc.stdout.splitlines()
    assert len(json.loads("\n".join(out))["results"]) >= 4 * 2**n
    assert json.loads(probe) == {"made": [], "reference": False}


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_simulate_prints_its_states_from_the_numerators(construction):
    """simulate --dump-state --checkpoints writes every state it prints from
    the kernel's numerators: no to_state runs and the reference does not load."""
    proc = run_fresh(STATE_PROBE, "simulate", "--problem", "allzero", "--input", "00",
                     "--construction", construction, "--dump-state", "--checkpoints", "--json")
    assert proc.returncode == EXIT_OK, proc.stderr
    out, probe = proc.stdout.splitlines()
    assert json.loads(out)["final_state"] and json.loads(out)["checkpoints"]
    assert json.loads(probe) == {"made": [], "reference": False}


@pytest.mark.parametrize("call, module", [
    ("quasistate.StateVector.basis(1, 0).apply(Gate.h(0))", "quasiq.reference"),
    ("quasistate._NumeratorState(1, [0]).to_state()", "quasiq.reference"),
    ("__import__('quasiq.circuitgen', fromlist=['_']).Numerators(1, 0, {0: (1, 0)}).match('*')",
     "quasiq.reference"),
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
], ids=["apply", "to-state", "numerators-read", "str", "div-exact", "random-pair", "random-table",
        "reader", "duals", "dsl-eval", "dsl-language"])
def test_deferred_code_loads_on_first_use(call, module):
    proc = run_fresh("import random, sys; from quasiq import verifierkit; "
                     "from quasiq.exactnum import Amplitude; "
                     "from quasiq import quasistate; from quasiq.quasistate import Gate; "
                     f"print({module!r} in sys.modules); {call}; print({module!r} in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_a_module_loads_only_the_modules_it_imports():
    """The package exports nothing, so importing one module does not load the
    others: the branch-counting oracle loads without the circuit path."""
    proc = run_fresh("import sys, quasiq.exactnum; "
                     "print(sorted(m for m in sys.modules if m.startswith('quasiq'))); "
                     "import quasiq.verifierkit; print('quasiq.circuitgen' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["['quasiq', 'quasiq.exactnum']", "False"]


def test_importing_quasistate_loads_no_reference():
    """StateVector lives in quasiq.reference; quasistate gives it under its old
    name only when asked for, and no other name that way."""
    proc = run_fresh("import sys, quasiq.quasistate as q; print('quasiq.reference' in sys.modules); "
                     "from quasiq.quasistate import StateVector; from quasiq import reference; "
                     "print(StateVector is reference.StateVector); print(hasattr(q, 'apply_gate'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "True", "False"]


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


@pytest.mark.parametrize("field", ["v0", "v1", "base"])
def test_a_dsl_parse_error_names_the_spec_and_the_field(tmp_path, capsys, field):
    spec = GOOD_LEMMA_SPEC if field == "base" else GOOD_PAIR_SPEC
    spec = _edit(spec, ("verifier", field), "x[0] $")
    code, out, err = run_cli(capsys, "gap", "--problem", _spec_file(tmp_path, spec),
                             "--input", "01")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (f"error: spec {spec['name']!r}, {field}: "
                   "unexpected character '$' at line 1, column 6\n")


# A valid table (n = m = 2; row "00" accepts no branch) and the faults that a
# mutated copy of it gets.
VALID_TABLE = table_to_json(allzero_verifier(2))
LABELLED_ROWS = [xlabel for xlabel, blabels in VALID_TABLE["table"].items() if blabels]
TABLE_STRAYS = ("\n", "\t", "2", "\u0663", "\x00")
NOT_A_LABEL = (0, 1, ["01"], None)
NOT_A_SIZE = (True, False, 2.0, -1, "2")
BY_SCHEMA = "rejected by schema: "


@st.composite
def mutated_tables(draw):
    """A copy of VALID_TABLE with one fault, and the text its refusal holds: a
    stray character or a value of the wrong type is refused by the schema, and
    a key or branch with a bit too many or too few by its own name."""
    table = {xlabel: list(blabels) for xlabel, blabels in VALID_TABLE["table"].items()}
    obj = dict(VALID_TABLE, table=table)
    fault = draw(st.sampled_from(["stray", "bits", "label-type", "size-type", "table-list"]))
    if fault == "size-type":
        obj[draw(st.sampled_from("nm"))] = draw(st.sampled_from(NOT_A_SIZE))
        return obj, BY_SCHEMA
    if fault == "table-list":
        obj["table"] = list(table)
        return obj, BY_SCHEMA
    xlabel = draw(st.sampled_from(LABELLED_ROWS))
    blabels = table[xlabel]
    j = draw(st.integers(0, len(blabels) - 1))
    if fault == "label-type":
        blabels[j] = draw(st.sampled_from(NOT_A_LABEL))
        return obj, BY_SCHEMA
    on_key = draw(st.booleans())
    old = xlabel if on_key else blabels[j]
    pos = draw(st.integers(0, len(old)))
    if fault == "stray":  # inserted, or in place of the bit at pos
        new = old[:pos] + draw(st.sampled_from(TABLE_STRAYS)) + old[pos + draw(st.booleans()):]
        expected = BY_SCHEMA
    else:
        lose = pos < len(old) and draw(st.booleans())
        new = old[:pos] + ("" if lose else draw(st.sampled_from("01"))) + old[pos + lose:]
        expected = f"rejected: table key {new!r}" if on_key else f"rejected: branch {new!r}"
    if on_key:
        table[new] = table.pop(xlabel)
    else:
        blabels[j] = new
    return obj, expected


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutation=mutated_tables(), side=st.sampled_from(["v0", "v1"]))
@example(mutation=({**VALID_TABLE, "table": {("0\n" if xlabel == "01" else xlabel): blabels
                                              for xlabel, blabels in VALID_TABLE["table"].items()}},
                   BY_SCHEMA), side="v0")  # the key passes the schema's ^[01]*$
def test_table_file_faults_keep_the_cli_contract(capsys, mutation, side):
    """A given pair with one side, and a lemma base, read from a faulty table
    file: each run exits 2 with one `error:` line that names the file and says
    what is wrong, and nothing prints a traceback."""
    table, expected = mutation
    with tempfile.TemporaryDirectory() as tmp:
        bad = os.path.join(tmp, "bad.json")
        for name, obj in (("bad.json", table), ("good.json", VALID_TABLE)):
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        pair = {"name": "pair", "n": {"min": 2, "max": 2}, "dual": "given-pair",
                "verifier": {"kind": "table-file", "v0": "good.json", "v1": "good.json",
                             side: "bad.json"}}
        lemma = {**TABLE_LEMMA_SPEC, "verifier": {"kind": "table-file", "base": "bad.json"}}
        for spec in (pair, lemma):
            path = os.path.join(tmp, "spec.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            code, out, err = run_cli(capsys, "gap", "--problem", path, "--input", "00")
            assert "Traceback" not in out + err and "internal error" not in err
            assert (code, out) == (EXIT_USAGE, "")
            (line,) = err.splitlines()
            assert line.startswith(f"error: table file {bad} ")
            assert expected in line


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


NEGATIVE_E = {"c0": "1", "c1": "0", "e": -10**12}  # as read before, 2**(10**12): about 125 GB


@pytest.mark.parametrize("obj, message", [
    (NEGATIVE_E, "amplitude field 'e' must be at least 0, got -1000000000000"),
    ({"c0": "1", "c1": "0", "e": "3"}, "amplitude field 'e' must be an int, got '3'"),
    ({"c0": "1", "c1": "0", "e": 2.0}, "amplitude field 'e' must be an int, got 2.0"),
    ({"c0": "1", "c1": "0"}, "amplitude field 'e' must be an int, got None"),
    ({"c0": 1.5, "c1": "0", "e": 0}, "amplitude field 'c0' must be an int or a decimal string, got 1.5"),
    ({"c0": True, "c1": "0", "e": 0}, "amplitude field 'c0' must be an int or a decimal string, got True"),
    ({"c0": "1", "c1": " 2", "e": 0}, "amplitude field 'c1' must be an int or a decimal string, got ' 2'"),
    ({"c0": "1", "c1": "1e3", "e": 0}, "amplitude field 'c1' must be an int or a decimal string, got '1e3'"),
])
def test_an_amplitude_field_that_is_not_a_canonical_int_is_refused_by_name(obj, message):
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        Amplitude.from_json(obj)


def test_a_negative_exponent_is_refused_quickly_by_every_reader(monkeypatch, capsys):
    """The N gate's parameter, a state dump and an outcome all read amplitudes
    through Amplitude.from_json, which refuses e < 0 before any shift; main maps
    the ValueError to exit 2 with one line naming the field."""
    from quasiq.circuitgen import RunOutcome, run_un
    from quasiq.quasistate import Gate
    from quasiq.reference import StateVector
    from quasiq.verifierkit import builtin_problems

    outcome = run_un(builtin_problems()["parity"].pair(1), (1,), True).to_json()
    outcome["final_state"][0]["amp"] = NEGATIVE_E
    start = time.monotonic()
    with pytest.raises(ValueError, match="N takes an Amplitude parameter") as info:
        Gate.from_json({"kind": "N", "wires": [0], "param": NEGATIVE_E})
    assert "'e' must be at least 0" in str(info.value.__cause__)
    with pytest.raises(ValueError, match="'e' must be at least 0"):
        StateVector.from_json([{"basis": "01", "amp": NEGATIVE_E}])
    with pytest.raises(ValueError, match="'e' must be at least 0"):
        RunOutcome.from_json(outcome)
    assert time.monotonic() - start < 1.0
    monkeypatch.setattr(cli, "_simulate_one", lambda *args, **kwargs: RunOutcome.from_json(outcome))
    code, out, err = run_cli(capsys, "simulate", "--problem", "parity", "--input", "1",
                             "--construction", "un")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: amplitude field 'e' must be at least 0, got -1000000000000\n"


@settings(max_examples=200, deadline=None)
@given(st.integers(-2**200, 2**200), st.integers(-2**200, 2**200), st.integers(0, 300))
def test_every_canonical_amplitude_dump_reads_back(c0, c1, e):
    amp = Amplitude(c0, c1, e)
    assert Amplitude.from_json(json.loads(json.dumps(amp.to_json()))) == amp
    from quasiq.quasistate import Gate
    from quasiq.reference import StateVector
    if amp:
        gate = Gate.n(0, amp)
        assert Gate.from_json(json.loads(json.dumps(gate.to_json()))) == gate
        state = StateVector(2, {1: amp, 2: Amplitude(1, 0, 0)})
        assert StateVector.from_json(json.loads(json.dumps(state.to_json()))) == state



# -- x wires in the lanes ---------------------------------------------------------------


def _spec_files(tmp_path, kind):
    """A spec path: a DSL lemma spec, a table-file pair, or that pair broken at one input,
    so that rows in the middle of a chunk fail (a residual at 10, a duality error at 01)."""
    if kind == "lemma-dsl":
        spec = GOOD_LEMMA_SPEC
    else:
        tables = {"t0.json": table_to_json(LANGUAGE_PAIR.v0), "t1.json": table_to_json(LANGUAGE_PAIR.v1)}
        if kind == "broken-pair":
            tables["t1.json"]["table"].update({"10": ["00"], "01": []})
        for name, table in tables.items():
            (tmp_path / name).write_text(json.dumps(table), encoding="utf-8")
        spec = {"name": kind, "n": {"min": 2, "max": 2}, "dual": "given-pair",
                "verifier": {"kind": "table-file", "v0": "t0.json", "v1": "t1.json"},
                "h": {"kind": "power", "M": 2, "t": {"a": 0, "b": 1}}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv", [
    *(["--problem", "parity", "--n", str(n)] for n in range(1, 8)),
    ["--problem", "allzero", "--n", "3"],
    ["--problem", "allzero", "--n", "4", "--corrupt-h"],
    ["--problem", "parity", "--n", "3", "--construction", "lwpp", "--corrupt-h"],
    ["--problem", "lemma-dsl", "--n", "2"],
    ["--problem", "table-pair", "--n", "2"],
    ["--problem", "broken-pair", "--n", "2"],
], ids=lambda argv: "-".join(argv[1::2]))
def test_verify_prints_the_same_with_x_in_the_lanes_and_out(monkeypatch, capsys, tmp_path, argv):
    """verify's exit code, stdout and stderr do not depend on whether a chunk's x
    wires join the lanes: forced out (X_LANES = 1) and in, as they go by default."""
    if argv[1] in ("lemma-dsl", "table-pair", "broken-pair"):
        argv = [argv[0], _spec_files(tmp_path, argv[1]), *argv[2:]]
    n, inner = int(argv[3]), []
    init = _NumeratorState.__init__

    def recording(self, width, keys, wires=()):
        init(self, width, keys, wires)
        inner.append(any(w < n for w in self.inner))

    monkeypatch.setattr(_NumeratorState, "__init__", recording)
    outputs = []
    for x_lanes in (1, circuitgen.X_LANES):
        monkeypatch.setattr(circuitgen, "X_LANES", x_lanes)
        outputs.append((run_cli(capsys, "verify", *argv), inner[:]))
        inner.clear()
    (off, off_inner), (on, on_inner) = outputs
    assert on == off and on[0] in (EXIT_OK, EXIT_MISMATCH)
    assert not any(off_inner) and all(on_inner)
    if argv[1].endswith("spec.json") and "broken" in open(argv[1]).read():
        assert on[0] == EXIT_MISMATCH and '"ok": false' in on[1]


def test_verify_reads_l_of_x_once_an_input_and_builds_no_mass_amplitude(monkeypatch, capsys):
    """verify reads L(x) once an input and passes it to every row's check; no row builds
    a RunOutcome or a mass Amplitude: the only Amplitudes circuitgen makes are the
    deciders' closed-form amplitudes h/2^m, one a decider row."""
    reads, made = [], []
    language_bit = DualVerifierPair.language_bit
    monkeypatch.setattr(DualVerifierPair, "language_bit",
                        lambda self, x: reads.append(x) or language_bit(self, x))
    monkeypatch.setattr(circuitgen, "Amplitude", lambda *args: made.append(args) or Amplitude(*args))

    def no_outcome(*args):
        raise AssertionError("a verify row built a RunOutcome")

    monkeypatch.setattr(circuitgen, "_outcome", no_outcome)
    code, obj, _ = run_json(capsys, "verify", "--problem", "parity", "--n", "3")
    assert code == EXIT_OK and obj["ok"] and len(obj["results"]) == 48
    assert sorted(reads) == [bits_of(x, 3) for x in range(8)]
    assert made == [(4, 0, 3)] * 16  # h(3) = 4 for parity at m = 3
