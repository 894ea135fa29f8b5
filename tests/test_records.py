"""The record types: immutability, equality and hashing as their fields give,
and the one dataclass, Verifier, as the traced benchmark copies it."""
import dataclasses
import json
import weakref

import pytest
from test_problems import GOOD_LEMMA_SPEC, GOOD_PAIR_SPEC

from quasiq.circuitgen import Circuit, Construction, RunOutcome, build_un, build_wn, check_un
from quasiq.exactnum import HALF, ONE, Amplitude
from quasiq.harness import cli, problems
from quasiq.harness.dsl import BinOp, Lit, Not, Parity, Ref, _Token, dsl_verifier
from quasiq.harness.problems import ProblemSpec, ResolvedProblem
from quasiq.quasistate import Gate, WireError
from quasiq.reference import StateVector
from quasiq.verifierkit import (
    BuiltinProblem,
    DualVerifierPair,
    GapReport,
    HalfGapFunction,
    allzero_verifier,
    language_pair,
)


def _m_of(n):
    return n


ALLZERO = allzero_verifier(1)  # a Verifier equals only itself


# Each makes a new record from equal fields; every one of these types was frozen.
FROZEN = {
    "Gate": lambda: Gate.a(0, 7, controls=((2, 0),)),
    "GapReport": lambda: GapReport("v", "01", 2, 1, 1, 1, 0, HALF, HALF, Amplitude(0, 0, 1)),
    "HalfGapFunction": lambda: HalfGapFunction.power(2, 1, -1),
    "BuiltinProblem": lambda: BuiltinProblem("p", "a problem", _m_of, h=HalfGapFunction.power(2, 1, 0)),
    "Construction": lambda: Construction(build_un, (), check_un),
    "Lit": lambda: Lit(1),
    "Ref": lambda: Ref("x", 0),
    "Not": lambda: Not(Ref("b", 1)),
    "BinOp": lambda: BinOp("^", Lit(0), Parity("x&b")),
    "Parity": lambda: Parity("b"),
    "_Token": lambda: _Token("INT", "3", 1, 5),
}
# Records with a dict or list field: equal, but unhashable.
UNHASHABLE = {
    "HalfGapFunction-table": lambda: HalfGapFunction.tabulated({2: 1}),
    "RunOutcome": lambda: RunOutcome("un", "0", "YES", 1, ONE, HALF, StateVector(1), 1,
                                     {"psi_1": StateVector(1)}),
    "ProblemSpec": lambda: ProblemSpec.from_json(GOOD_PAIR_SPEC),
    "ResolvedProblem": lambda: ResolvedProblem("p", 1, 1, [ALLZERO], None, None),
}


@pytest.mark.parametrize("make", FROZEN.values(), ids=FROZEN)
def test_a_formerly_frozen_record_refuses_assignment(make):
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == make()


@pytest.mark.parametrize("make", FROZEN.values(), ids=FROZEN)
def test_equal_fields_give_equal_records_and_hashes(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != tuple(a) and not a == tuple(a)
    assert tuple(a) != a and not tuple(a) == a


@pytest.mark.parametrize("make", UNHASHABLE.values(), ids=UNHASHABLE)
def test_records_with_a_mutable_field_compare_by_value_and_are_unhashable(make):
    a, b = make(), make()
    assert a == b and not a != b
    assert a != tuple(a)
    with pytest.raises(TypeError):
        hash(a)


def test_a_replaced_record_equals_one_made_with_its_fields():
    report = FROZEN["GapReport"]()
    doubled = report._replace(Delta=2, delta=HALF)
    assert doubled == GapReport("v", "01", 2, 1, 1, 1, 2, HALF, HALF, HALF)
    assert doubled != report and report == FROZEN["GapReport"]()


def test_a_replaced_gate_is_checked_as_when_made():
    assert Gate.h(0)._replace(controls=((1, 0),)) == Gate.h(0, controls=((1, 0),))
    with pytest.raises(WireError, match="H acts on 1 wire"):
        Gate.h(0)._replace(wires=(0, 1))


def test_distinct_dsl_node_types_never_compare_equal():
    """One-field nodes of equal fields are unequal both ways."""
    nodes = [Lit("x"), Not("x"), Parity("x"), Ref("x", 0), BinOp("x", 0, 0), _Token("x", 0, 0, 0)]
    for a in nodes:
        for b in nodes:
            assert (a == b) is (a is b)
            assert (a != b) is (a is not b)
    assert len(set(nodes)) == len(nodes)


def test_a_dual_pair_equals_only_itself_and_is_weakly_referenced():
    v0, v1 = allzero_verifier(1), allzero_verifier(1)
    pair = DualVerifierPair(v0, v1, name="same")
    twin = DualVerifierPair(v0, v1, name="same")
    assert pair == pair and pair != twin and not pair == twin
    assert {pair: 1, twin: 2}[pair] == 1
    ref = weakref.ref(pair)
    assert ref() is pair
    del pair
    assert ref() is None
    with pytest.raises(AttributeError):
        twin.name = "other"
    with pytest.raises(AttributeError):
        del twin.v0
    with pytest.raises(AttributeError):
        twin.extra = 1
    assert (twin.v0, twin.v1, twin.name, twin.h_witness) == (v0, v1, "same", None)


def test_circuit_equality_ignores_parent_and_last():
    pair = language_pair(2, 2, lambda x: x[0], "first")
    un, wn = build_un(pair, 2), build_wn(pair, 2)
    copy = Circuit(wn.width, wn.registers, wn.gates, wn.checkpoints)
    assert wn.parent == un and copy.parent is None
    copy.last = (0, {}, 0)
    assert copy == wn and not copy != wn
    assert Circuit(un.width, un.registers, un.gates) != un  # no checkpoints
    assert wn != un
    with pytest.raises(TypeError):
        hash(wn)


def test_a_replaced_dsl_verifier_works():
    """dataclasses.replace(verifier, eval_fn=...) is how bench/layers.py times
    DSL evaluations: the copy evaluates through the new function and keeps
    the original's accept masks."""
    verifier = dsl_verifier("parity(x & b) ^ b[1]", 2, 2, name="probe")
    calls = []

    def counted(x, b):
        calls.append((x, b))
        return verifier.eval_fn(x, b)

    timed = dataclasses.replace(verifier, eval_fn=counted)
    assert (timed.n, timed.m, timed.name, timed.mask_fn) == (2, 2, "probe", verifier.mask_fn)
    inputs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for x in inputs:
        assert timed.accept_mask(x) == verifier.accept_mask(x)
        assert [timed.eval(x, b) for b in inputs] == [verifier.eval(x, b) for b in inputs]
    assert len(calls) == len(inputs) ** 2


@pytest.mark.parametrize("spec", [GOOD_LEMMA_SPEC, GOOD_PAIR_SPEC], ids=["lemma", "pair"])
@pytest.mark.parametrize("construction", ["un", "wn"])
def test_a_cli_run_on_replaced_dsl_verifiers_prints_the_same(tmp_path, monkeypatch, capsys,
                                                             spec, construction):
    """The traced benchmark's path on the DSL workloads: the problems module's
    dsl_verifier is wrapped to return a replaced copy."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    argv = ["simulate", "--problem", str(path), "--n", "1", "--input", "1",
            "--construction", construction, "--json"]
    assert cli.main(argv) == cli.EXIT_OK
    expected = capsys.readouterr().out

    def replaced(*args, **kwargs):
        verifier = dsl_verifier(*args, **kwargs)
        evaluate = verifier.eval_fn
        return dataclasses.replace(verifier, eval_fn=lambda x, b: evaluate(x, b))

    monkeypatch.setattr(problems, "dsl_verifier", replaced)
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out == expected
