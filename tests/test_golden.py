"""Golden CLI outputs: exit code and stdout hash of a fixed command set.

Each command runs in process; its exit code and the sha256 of its stdout must
equal the entry recorded in golden_cli.json. "{tmp}" in an argument stands for
a directory holding the spec and table files written by `_write_specs`.

Regenerate the fixture (only when an output is meant to change) with

    PYTHONPATH=src python3 tests/test_golden.py
"""
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest

from quasiq.harness.cli import CONSTRUCTIONS, main

FIXTURE = os.path.join(os.path.dirname(__file__), "golden_cli.json")

# Parity at n = 2 as two truth tables, m taken from the file header.
_PARITY_V0 = {"00": [], "01": ["00", "01"], "10": ["00", "01"], "11": []}
_PARITY_V1 = {"00": ["00", "01"], "01": [], "10": [], "11": ["00", "01"]}
SPECS = {
    "lemma-dsl.json": {
        "name": "allzero-dsl",
        "n": {"min": 1, "max": 3},
        "m": {"affine": {"a": 1, "b": 0}},
        "verifier": {"kind": "dsl", "base": "parity(x & b)"},
        "h": {"kind": "power", "M": 2, "t": {"a": 1, "b": -1}},
        "dual": "derive-via-lemma",
    },
    "parity-v0.json": {"n": 2, "m": 2, "table": _PARITY_V0},
    "parity-v1.json": {"n": 2, "m": 2, "table": _PARITY_V1},
    "parity-table.json": {
        "name": "parity-table",
        "n": {"min": 2, "max": 2},
        "verifier": {"kind": "table-file", "v0": "parity-v0.json", "v1": "parity-v1.json"},
        "h": {"kind": "tabulated", "values": {"2": 2}},
        "dual": "given-pair",
    },
    "parity-table-power.json": {
        "name": "parity-table-power",
        "n": {"min": 2, "max": 2},
        "verifier": {"kind": "table-file", "v0": "parity-v0.json", "v1": "parity-v1.json"},
        "h": {"kind": "power", "M": 2, "t": {"a": 0, "b": 1}},
        "dual": "given-pair",
    },
    # Parity at n = 2 with m = 2, written to lean on operator binding: ^ is
    # left-associative and binds tighter than |, & tighter than both.
    "parity-dsl.json": {
        "name": "parity-dsl",
        "n": {"min": 2, "max": 2},
        "m": {"affine": {"a": 0, "b": 2}},
        "verifier": {"kind": "dsl",
                     "v0": "b[0] & (b[1] | x[0] ^ !x[1] ^ 1)",
                     "v1": "b[0] & b[1] | b[0] & !(x[0] ^ x[1]) & 1"},
        "h": {"kind": "power", "M": 2, "t": {"a": 0, "b": 0}},
        "dual": "given-pair",
    },
    # The builtin parity pair named through a spec file, without and with a
    # half-gap witness of the spec's own (tabulated, so no lpwpp).
    "parity-builtin.json": {
        "name": "parity-builtin",
        "n": {"min": 1, "max": 3},
        "verifier": {"kind": "builtin", "name": "parity"},
        "dual": "given-pair",
    },
    "parity-builtin-h.json": {
        "name": "parity-builtin-h",
        "n": {"min": 2, "max": 3},
        "verifier": {"kind": "builtin", "name": "parity"},
        "h": {"kind": "tabulated", "values": {"2": 2, "3": 4}},
        "dual": "given-pair",
    },
}


def _commands() -> list[list[str]]:
    cmds = []
    for construction in CONSTRUCTIONS:
        cmds.append(["simulate", "--problem", "parity", "--input", "101",
                     "--construction", construction])
        cmds.append(["simulate", "--problem", "allzero", "--input", "00",
                     "--construction", construction, "--dump-state", "--checkpoints"])
    cmds.append(["simulate", "--problem", "coparity", "--input", "10",
                 "--construction", "wn", "--dump-state", "--json"])
    cmds.append(["gap", "--problem", "parity", "--input", "101"])
    cmds.append(["gap", "--problem", "allzero", "--input", "000"])
    for construction in CONSTRUCTIONS + ("all",):
        cmds.append(["verify", "--problem", "parity", "--n", "3", "--construction", construction])
    cmds.append(["verify", "--problem", "allzero", "--n", "2"])
    for construction in ("lwpp", "lpwpp", "all"):
        cmds.append(["verify", "--problem", "allzero", "--n", "2",
                     "--construction", construction, "--corrupt-h"])
    cmds.append(["verify", "--problem", "random-table", "--n", "2", "--seed", "3"])
    for problem in ("parity", "coparity", "allzero"):
        for n in ("2", "3"):
            cmds.append(["duals", "--problem", problem, "--n", n])
    cmds.append(["simulate", "--problem", "{tmp}/lemma-dsl.json", "--input", "000",
                 "--construction", "lwpp", "--dump-state", "--checkpoints"])
    cmds.append(["verify", "--problem", "{tmp}/lemma-dsl.json", "--n", "2"])
    cmds.append(["simulate", "--problem", "{tmp}/parity-table.json", "--input", "01",
                 "--construction", "un", "--dump-state"])
    cmds.append(["verify", "--problem", "{tmp}/parity-table.json", "--n", "2"])
    cmds.append(["duals", "--problem", "{tmp}/parity-table.json", "--n", "2"])
    for spec in ("parity-table.json", "parity-table-power.json", "lemma-dsl.json"):
        for corrupt in ((), ("--corrupt-h",)):
            cmds.append(["verify", "--problem", "{tmp}/" + spec, "--n", "2",
                         "--construction", "lpwpp", *corrupt])
    cmds.append(["gap", "--problem", "{tmp}/parity-dsl.json", "--input", "01"])
    cmds.append(["verify", "--problem", "{tmp}/parity-dsl.json", "--n", "2"])
    cmds.append(["verify", "--problem", "{tmp}/parity-dsl.json", "--n", "2", "--corrupt-h"])
    for spec in ("parity-builtin.json", "parity-builtin-h.json"):
        cmds.append(["gap", "--problem", "{tmp}/" + spec, "--input", "011"])
        cmds.append(["verify", "--problem", "{tmp}/" + spec, "--n", "3"])
    cmds.append(["verify", "--problem", "{tmp}/parity-builtin.json", "--n", "3", "--corrupt-h"])
    # errors whose stdout is empty and whose exit code is fixed
    cmds.append(["simulate", "--problem", "constant-reject", "--input", "00",
                 "--construction", "un"])
    cmds.append(["simulate", "--problem", "parity", "--input", "101",
                 "--construction", "lwpp", "--corrupt-h"])
    return cmds


def _write_specs(directory: str) -> None:
    for name, obj in SPECS.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)


def _run(argv: list[str], directory: str) -> tuple[int, str]:
    argv = [arg.replace("{tmp}", directory) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def _load_fixture() -> list[dict]:
    # A missing fixture fails test_fixture_covers_the_command_set.
    if not os.path.exists(FIXTURE):
        return []
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


def test_fixture_covers_the_command_set():
    assert [entry["argv"] for entry in _load_fixture()] == _commands()


@pytest.mark.parametrize("entry", _load_fixture(), ids=lambda e: " ".join(e["argv"]))
def test_cli_output_matches_golden(tmp_path, entry):
    _write_specs(str(tmp_path))
    code, digest = _run(entry["argv"], str(tmp_path))
    assert (code, digest) == (entry["exit"], entry["stdout_sha256"])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        _write_specs(tmp)
        golden = []
        for argv in _commands():
            code, digest = _run(argv, tmp)
            golden.append({"argv": argv, "exit": code, "stdout_sha256": digest})
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(golden)} entries to {FIXTURE}", file=sys.stderr)
