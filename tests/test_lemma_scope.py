"""Where the half-gap lemma is checked, and how often verify asks the oracle.

gap and simulate check the lemma's promise and postcondition only at the
input they run; verify, duals, make_dual_lwpp and the default resolve_problem
check every input.
"""
import json

import pytest

from quasiq import verifierkit
from quasiq.harness import cli
from quasiq.harness.cli import CONSTRUCTIONS, EXIT_OK, EXIT_USAGE, _simulate_one, main
from quasiq.harness.problems import load_problem_file, resolve_problem
from quasiq.quasistate import bits_of
from quasiq.verifierkit import (
    HalfGapFunction,
    HalfGapPromiseError,
    make_dual_lwpp,
    verifier_from_table_json,
)

# n = 2, m = 3, h = 2: Delta = R - 4 must be 0 (4 accepted branches) or 2
# (2 accepted). Input 10 accepts 3 branches, so its Delta is 1.
ONE_BAD_TABLE = {
    "n": 2,
    "m": 3,
    "table": {
        "00": ["000", "001", "010", "011"],
        "01": ["000", "111"],
        "10": ["000", "001", "010"],
        "11": ["100", "101", "110", "111"],
    },
}
BAD_INPUT = "10"


def _lemma_spec(name: str, m: dict, verifier: dict, h: dict, n: tuple[int, int]) -> dict:
    return {
        "name": name,
        "n": {"min": n[0], "max": n[1]},
        "m": m,
        "verifier": verifier,
        "h": h,
        "dual": "derive-via-lemma",
    }


def _write(path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture
def one_bad_spec(tmp_path):
    _write(tmp_path / "one-bad-base.json", ONE_BAD_TABLE)
    return _write(tmp_path / "one-bad.json", _lemma_spec(
        "one-bad", {"affine": {"a": 0, "b": 3}},
        {"kind": "table-file", "base": "one-bad-base.json"},
        {"kind": "power", "M": 2, "t": {"a": 0, "b": 1}}, (2, 2)))


def _cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_simulate_fails_only_at_the_input_that_breaks_the_promise(one_bad_spec, capsys,
                                                                   construction):
    for xkey in range(4):
        x = format(xkey, "02b")
        code, out, err = _cli(capsys, "simulate", "--problem", one_bad_spec,
                              "--input", x, "--construction", construction)
        if x == BAD_INPUT:
            assert code == EXIT_USAGE
            assert f"x = {BAD_INPUT}" in err and "half-gap promise" in err
            assert out == ""
        else:
            assert code == EXIT_OK, err
            assert json.loads(out)["input"] == x


def test_gap_fails_only_at_the_input_that_breaks_the_promise(one_bad_spec, capsys):
    for xkey in range(4):
        x = format(xkey, "02b")
        code, out, err = _cli(capsys, "gap", "--problem", one_bad_spec, "--input", x)
        if x == BAD_INPUT:
            assert code == EXIT_USAGE
            assert f"x = {BAD_INPUT}" in err
        else:
            assert code == EXIT_OK, err
            assert len(json.loads(out)["reports"]) == 2


@pytest.mark.parametrize("command", ["duals", "verify"])
def test_sweeping_commands_still_check_every_input(one_bad_spec, capsys, command):
    code, out, err = _cli(capsys, command, "--problem", one_bad_spec, "--n", "2")
    assert code == EXIT_USAGE
    assert f"x = {BAD_INPUT}" in err
    assert out == ""


def test_library_callers_still_check_every_input(one_bad_spec, tmp_path):
    h = HalfGapFunction.power(2, 0, 1)
    base = json.loads((tmp_path / "one-bad-base.json").read_text())
    with pytest.raises(HalfGapPromiseError) as info:
        make_dual_lwpp(verifier_from_table_json(base), h)
    assert info.value.witness == BAD_INPUT
    with pytest.raises(HalfGapPromiseError) as info:
        resolve_problem(load_problem_file(one_bad_spec), 2)
    assert info.value.witness == BAD_INPUT
    # one good input checks only that input
    pair = resolve_problem(load_problem_file(one_bad_spec), 2, inputs=[(0, 1)]).pair
    assert pair.language_bit((0, 1)) == 1  # base Delta = h: a member


def _lemma_sources(tmp_path) -> list:
    # n = 3, m = 3, h = 2: the table base accepts 4 branches (Delta 0, a
    # non-member) or 2 (Delta = h, a member).
    table = {format(k, "03b"): [format(b, "03b") for b in range(4 if k % 3 else 2)]
             for k in range(8)}
    _write(tmp_path / "lemma-base.json", {"n": 3, "m": 3, "table": table})
    dsl = _write(tmp_path / "lemma-dsl.json", _lemma_spec(
        "lemma-dsl", {"affine": {"a": 1, "b": 0}},
        {"kind": "dsl", "base": "parity(x & b)"},
        {"kind": "power", "M": 2, "t": {"a": 1, "b": -1}}, (1, 3)))
    tab = _write(tmp_path / "lemma-table.json", _lemma_spec(
        "lemma-table", {"affine": {"a": 1, "b": 0}},
        {"kind": "table-file", "base": "lemma-base.json"},
        {"kind": "power", "M": 2, "t": {"a": 0, "b": 1}}, (3, 3)))
    return ["allzero", load_problem_file(dsl), load_problem_file(tab)]


def test_one_input_resolution_gives_the_full_sweep_outputs(tmp_path):
    n = 3
    for source in _lemma_sources(tmp_path):
        full = resolve_problem(source, n)
        for xkey in range(2**n):
            x = bits_of(xkey, n)
            scoped = resolve_problem(source, n, inputs=[x])
            assert scoped.pair.name == full.pair.name
            for construction in CONSTRUCTIONS:
                want = _simulate_one(full, construction, x, True).to_json()
                got = _simulate_one(scoped, construction, x, True).to_json()
                assert got == want, (source, x, construction)


def test_verify_evaluates_the_oracle_once_per_pair_and_input(monkeypatch, capsys):
    calls = []
    original = verifierkit.gap_stats

    def counting(v, x):
        calls.append((v.name, tuple(x)))
        return original(v, x)

    monkeypatch.setattr(verifierkit, "gap_stats", counting)
    monkeypatch.setattr(cli, "gap_stats", counting)
    code, out, _ = _cli(capsys, "verify", "--problem", "parity", "--n", "3")
    assert code == EXIT_OK
    assert len(json.loads(out)["results"]) == 6 * 2**3
    assert len(calls) == 2 * 2**3
    assert len(set(calls)) == len(calls)


def test_allzero_simulate_counts_the_lemma_input_once(monkeypatch, capsys):
    # One count of the base for the lemma's promise, then one per side of the
    # pair, which the run and the postcondition share through the pair's memo.
    calls = []
    original = verifierkit.gap_stats

    def counting(v, x):
        calls.append((v.name, tuple(x)))
        return original(v, x)

    monkeypatch.setattr(verifierkit, "gap_stats", counting)
    code, out, _ = _cli(capsys, "simulate", "--problem", "allzero", "--input", "00000000",
                        "--construction", "un")
    assert code == EXIT_OK
    assert json.loads(out)["problem"] == "allzero"
    assert len(calls) == 3
