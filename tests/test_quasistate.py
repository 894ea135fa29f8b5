"""Gate semantics, inverses, projection, and state dump format."""
import json
import random
import re

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from quasiq.exactnum import HALF, INV_SQRT2, ONE, ZERO, Amplitude
from quasiq.quasistate import (
    _KINDS,
    Gate,
    NotInvertibleError,
    ProjectionError,
    WireError,
    bits_of,
    key_of,
    label_of,
)
from quasiq.reference import StateVector, compile_pattern


def amp(c0, c1=0, e=0):
    return Amplitude(c0, c1, e)


def sv(width, entries):
    return StateVector(width, {k: a for k, a in entries})


def random_state(rng, width, max_terms=6):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        key = rng.randrange(2**width)
        terms[key] = Amplitude(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(0, 3))
    return StateVector(width, terms)


class TableVerifier:
    """Minimal oracle-backed verifier stub: accepts listed (x, b) pairs."""

    def __init__(self, n, m, accepted, name="stub"):
        self.n, self.m, self.name = n, m, name
        self.accepted = set(accepted)

    def eval(self, xbits, bbits):
        return 1 if (xbits, bbits) in self.accepted else 0


def test_key_label_round_trip():
    assert label_of(key_of((1, 0, 1)), 3) == "101"
    assert bits_of(0b011, 3) == (0, 1, 1)


def test_hadamard_column():
    out = StateVector.basis(1, "0").apply(Gate.h(0))
    assert out == sv(1, [(0, INV_SQRT2), (1, INV_SQRT2)])
    back = out.apply(Gate.h(0))
    assert back == StateVector.basis(1, "0")


def test_s_gate_adds_one_column_into_zero():
    state = sv(1, [(0, amp(1)), (1, amp(2))])
    assert state.apply(Gate.s(0)) == sv(1, [(0, amp(3)), (1, amp(2))])


def test_d_gate_on_10():
    out = StateVector.basis(2, "10").apply(Gate.d(0, 1))
    assert out == sv(2, [(0b10, ONE), (0b00, amp(-1))])
    assert StateVector.basis(2, "00").apply(Gate.d(0, 1)) == StateVector.basis(2, "00")
    assert StateVector.basis(2, "01").apply(Gate.d(0, 1)) == StateVector.basis(2, "01")


def test_norm_sq_examples():
    assert StateVector.basis(1, "0").apply(Gate.h(0)).norm_sq() == ONE
    assert StateVector(3).norm_sq() == ZERO


COEFFS = st.one_of(st.integers(-40, 40), st.integers(-2**80, 2**80))
AMPLITUDES = st.builds(Amplitude, COEFFS, COEFFS, st.integers(0, 70))


@given(st.dictionaries(st.integers(0, 15), AMPLITUDES, max_size=12))
def test_norm_sq_matches_the_amplitude_fold(terms):
    """The integer sum gives the value, and so the canonical triple, of a
    fold of Amplitude products."""
    state = StateVector(4, terms)
    total = ZERO
    for a in state.terms.values():
        total = total + a * a
    assert state.norm_sq() == total


def test_amplitude_of_patterns():
    assert StateVector.basis(2, "01").match("**") == [(0b01, ONE)]
    bell = sv(2, [(0b00, INV_SQRT2), (0b11, INV_SQRT2)])
    assert bell.match("0*") == [(0b00, INV_SQRT2)]
    assert bell.match("0·") == [(0b00, INV_SQRT2)]
    assert bell.match("1*") == [(0b11, INV_SQRT2)]
    assert bell.match("10") == []


@pytest.mark.parametrize("pattern, compiled", [
    ("", (0, 0)), ("*.\u00b7", (0, 0)), ("1*0", (0b101, 0b100)), ("0\u00b71", (0b101, 0b001)),
])
def test_a_pattern_compiles_to_its_mask_and_value(pattern, compiled):
    assert compile_pattern(pattern) == compiled


@pytest.mark.parametrize("pattern, bad", [
    ("0x1y", "x"), ("0_1", "_"), ("1 0", " "), ("0\uff11", "\uff11"), ("**+", "+"),
])
def test_a_pattern_names_its_first_bad_character(pattern, bad):
    with pytest.raises(ValueError) as info:
        compile_pattern(pattern)
    assert str(info.value) == f"bad pattern character {bad!r}"


def test_a_middle_dot_matches_either_bit():
    state = sv(3, [(k, ONE) for k in range(8)])
    assert state.match("0\u00b71") == [(0b001, ONE), (0b011, ONE)]
    with pytest.raises(ValueError, match="bad pattern character '2'"):
        state.match("021")


def test_match_ordering_is_lexicographic():
    state = sv(2, [(0b11, ONE), (0b00, ONE), (0b10, ONE)])
    assert [k for k, _ in state.match("**")] == [0b00, 0b10, 0b11]


def test_project_plus_state():
    plus = StateVector.basis(1, "0").apply(Gate.h(0))
    mass, conditional = plus.project(0, 1)
    assert mass == HALF
    assert conditional == sv(1, [(1, INV_SQRT2)])


def test_project_no_mass():
    mass, conditional = StateVector.basis(1, "0").project(0, 1)
    assert mass == ZERO
    assert conditional.is_zero()


def test_project_zero_state_raises():
    with pytest.raises(ProjectionError):
        StateVector(2).project(0, 1)


def test_wire_range_checked():
    with pytest.raises(WireError):
        StateVector.basis(2, "00").apply(Gate.h(2))
    with pytest.raises(WireError):
        StateVector.basis(2, "00").apply(Gate.x(0, controls=((2, 1),)))


def test_controls_apply_only_where_satisfied():
    state = sv(2, [(0b00, ONE), (0b10, ONE)])
    out = state.apply(Gate.cnot(0, 1))
    assert out == sv(2, [(0b00, ONE), (0b11, ONE)])
    out = state.apply(Gate.x(1, controls=((0, 0),)))
    assert out == sv(2, [(0b01, ONE), (0b10, ONE)])


def test_perm_rejects_bad_relabelings():
    with pytest.raises(WireError):
        Gate.perm((0, 0), (0, 0))
    with pytest.raises(WireError):
        Gate.perm((0, 1), (1, 2))


def test_perm_moves_bit_values():
    # values move c->s, a->c, s->a on wires (0,1,2) = (c,a,s)
    cycle = Gate.perm((0, 1, 2), (2, 0, 1))
    out = StateVector.basis(3, "100").apply(cycle)
    assert out == StateVector.basis(3, "001")
    out = StateVector.basis(3, "010").apply(cycle)
    assert out == StateVector.basis(3, "100")


def test_oracle_is_basis_permutation_and_self_inverse():
    rng = random.Random(7)
    for n, m in [(1, 1), (2, 2), (1, 3), (2, 5)]:
        accepted = {
            (tuple(rng.randint(0, 1) for _ in range(n)), tuple(rng.randint(0, 1) for _ in range(m)))
            for _ in range(2 ** (n + m - 1))
        }
        v = TableVerifier(n, m, accepted)
        width = n + m + 1
        gate = Gate.oracle(v, range(n), range(n, n + m), width - 1)
        images = set()
        for key in range(2**width):
            out = StateVector.basis(width, key).apply(gate)
            assert len(out) == 1
            ((image, a),) = out.items_sorted()
            assert a == ONE
            images.add(image)
            assert out.apply(gate) == StateVector.basis(width, key)
        assert images == set(range(2**width))


def test_oracle_arity_mismatch():
    v = TableVerifier(2, 2, set())
    with pytest.raises(WireError, match=re.escape(
            "oracle arity mismatch: gate has 1+2 wires, verifier wants 2+2")):
        Gate.oracle(v, (0,), (1, 2), 3)


def test_oracle_respects_control_polarity():
    v = TableVerifier(1, 1, {((0,), (0,))})
    gate = Gate.oracle(v, (0,), (1,), 3, controls=((2, 1),))
    assert StateVector.basis(4, "0000").apply(gate) == StateVector.basis(4, "0000")
    assert StateVector.basis(4, "0010").apply(gate) == StateVector.basis(4, "0011")


INVERTIBLE_GATES = [
    Gate.h(1),
    Gate.x(1),
    Gate.cnot(0, 1),
    Gate.toffoli(0, 2, 1),
    Gate.mcx(((0, 0), (2, 1)), 1),
    Gate.s(1),
    Gate.b(1),
    Gate.g(1, 3),
    Gate.a(1, 7),
    Gate.n(1, Amplitude(1, 0, 2)),
    Gate.n(1, Amplitude(1, 1, 1)),
    Gate.d(1, 2),
    Gate.perm((0, 1, 2), (2, 0, 1)),
    Gate.oracle(TableVerifier(1, 1, {((1,), (1,))}), (0,), (1,), 2),
]


@pytest.mark.parametrize("gate", INVERTIBLE_GATES, ids=lambda g: g.label())
def test_apply_inverse_is_identity(gate):
    rng = random.Random(hash(gate.kind) & 0xFFFF)
    inv = gate.inverse()
    # G/A inverses divide by a non-unit integer, so they are defined on the
    # gate's image only; apply-then-invert is the contract for every kind.
    bidirectional = gate.kind not in ("G", "A")
    for _ in range(100):
        state = random_state(rng, 4)
        assert state.apply(gate).apply(inv) == state
        if bidirectional:
            assert state.apply(inv).apply(gate) == state


def test_projectors_and_n0_not_invertible():
    with pytest.raises(NotInvertibleError):
        Gate.proj(0, 1).inverse()
    with pytest.raises(NotInvertibleError):
        Gate.n(0, ZERO).inverse()


def test_h_twice_is_identity():
    rng = random.Random(11)
    for _ in range(50):
        state = random_state(rng, 3)
        assert state.apply(Gate.h(1)).apply(Gate.h(1)) == state


def test_unitaries_preserve_norm_nonunitaries_do_not():
    rng = random.Random(3)
    state = random_state(rng, 3)
    for gate in [Gate.h(0), Gate.h(2), Gate.x(1), Gate.cnot(0, 2)]:
        assert state.apply(gate).norm_sq() == state.norm_sq()
    witnesses = {
        "S": (Gate.s(0), StateVector.basis(1, "1")),
        "B": (Gate.b(0), StateVector.basis(1, "0")),
        "G": (Gate.g(0, 2), StateVector.basis(1, "0")),
        "A": (Gate.a(0, 5), StateVector.basis(1, "0")),
        "N": (Gate.n(0, HALF), StateVector.basis(1, "0")),
        "D": (Gate.d(0, 1), StateVector.basis(2, "10")),
    }
    for kind, (gate, witness) in witnesses.items():
        assert witness.apply(gate).norm_sq() != witness.norm_sq(), kind


def test_subnormalized_states_are_first_class():
    state = StateVector.basis(1, "0").apply(Gate.h(0)).apply(Gate.proj(0, 1))
    assert state.norm_sq() == HALF
    assert state.apply(Gate.b(0)).norm_sq() == HALF  # wire already at 1


def test_zero_amplitude_terms_pruned():
    state = sv(1, [(0, ONE), (1, amp(-1))])
    out = state.apply(Gate.h(0))
    assert out.labels() == ["1"]
    assert out.amplitude("1") == Amplitude(0, 1, 0)  # 2/sqrt(2) = sqrt(2)


def test_append_wires():
    state = sv(2, [(0b01, ONE), (0b10, HALF)])
    out = state.append_wires(1)
    assert out == sv(3, [(0b010, ONE), (0b100, HALF)])


def test_dump_is_sorted_and_byte_stable():
    state = sv(2, [(0b10, INV_SQRT2), (0b01, amp(-3, 0, 1))])
    dump = state.to_json()
    assert [entry["basis"] for entry in dump] == ["01", "10"]
    text = json.dumps(dump, sort_keys=True)
    expected = (
        '[{"amp": {"c0": "-3", "c1": "0", "e": 1}, "basis": "01"},'
        ' {"amp": {"c0": "0", "c1": "1", "e": 1}, "basis": "10"}]'
    )
    assert text == expected
    assert StateVector.from_json(dump) == state


PROBE = TableVerifier(1, 2, set(), name="probe")


def test_gate_json_round_trip():
    """Every kind, each forward kind with its inverse, survives to_json and
    from_json through JSON text."""
    forward = [
        Gate.h(0),
        Gate.mcx(((0, 0), (1, 1)), 2),
        Gate.s(1, controls=((0, 1),)),
        Gate.b(2),
        Gate.g(1, 3),
        Gate.a(0, 7, controls=((2, 0),)),
        Gate.n(1, Amplitude(1, 0, 3)),
        Gate.n(1, Amplitude(3, -1, 1)),
        Gate.d(1, 2),
        Gate.perm((0, 1, 2), (2, 0, 1)),
        Gate.oracle(PROBE, (0,), (1, 2), 3, controls=((4, 0),)),
    ]
    gates = forward + [gate.inverse() for gate in forward] + [Gate.proj(0, 0), Gate.proj(3, 1)]
    assert {gate.kind for gate in gates} == set(_KINDS)
    for gate in gates:
        rebuilt = Gate.from_json(json.loads(json.dumps(gate.to_json())), verifiers={"probe": PROBE})
        assert rebuilt == gate
        assert rebuilt.to_json() == gate.to_json()


@pytest.mark.parametrize("verifiers", [None, {}, {"other": PROBE}])
def test_an_oracle_naming_a_missing_verifier_raises_key_error(verifiers):
    dump = Gate.oracle(PROBE, (0,), (1, 2), 3).to_json()
    with pytest.raises(KeyError, match="no verifier named 'probe'"):
        Gate.from_json(dump, verifiers)


@pytest.mark.parametrize("dump, message", [
    ({"kind": "N", "wires": [0], "param": {}}, "N takes an Amplitude parameter, got {}"),
    ({"kind": "NINV", "wires": [0], "param": {"c0": "1", "c1": "0"}},
     "NINV takes an Amplitude parameter, got {'c0': '1', 'c1': '0'}"),
    ({"kind": "ORACLE", "wires": [0, 1, 2, 3], "param": {"verifier": "probe"}},
     "ORACLE takes a (verifier, int) parameter, got {'verifier': 'probe'}"),
    ({"kind": "ORACLE", "wires": [0, 1, 2, 3], "param": {"n_input_wires": 1}},
     "ORACLE takes a (verifier, int) parameter, got {'n_input_wires': 1}"),
], ids=["n-empty", "ninv-no-e", "oracle-no-width", "oracle-no-name"])
def test_a_param_missing_a_field_is_a_value_error_naming_the_kind(dump, message):
    """A dict param that lacks a field is refused as a param of the wrong type
    is, not with the decoder's KeyError; a verifier name that the reader was
    not given stays a KeyError (above)."""
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        Gate.from_json(dump, verifiers={"probe": PROBE})


# kind, wires, controls, param, its JSON form, the error and its message.
MALFORMED_GATES = {
    "unknown-kind": ("Y", (0,), (), None, None, ValueError, "unknown gate kind 'Y'"),
    "h-two-wires": ("H", (0, 1), (), None, None, WireError, "H acts on 1 wire(s), not 2"),
    "d-one-wire": ("D", (1,), (), None, None, WireError, "D acts on 2 wire(s), not 1"),
    "repeated-wire": ("D", (1, 1), (), None, None, WireError, "D wires must be distinct"),
    "overlap": ("X", (0,), ((0, 1),), None, None, WireError, "control wires overlap gate wires"),
    "perm-not-a-relabelling": ("PERM", (0, 1), (), (1, 2), [1, 2], WireError,
                               "PERM must relabel distinct wires within the same set"),
    "arity": ("ORACLE", (0, 1, 2), (), (PROBE, 1), {"verifier": "probe", "n_input_wires": 1},
              WireError, "oracle arity mismatch: gate has 1+1 wires, verifier wants 1+2"),
    "x-width": ("ORACLE", (0, 1, 2, 3), (), (PROBE, 2), {"verifier": "probe", "n_input_wires": 2},
                WireError, "oracle arity mismatch: gate has 2+1 wires, verifier wants 1+2"),
    # b[0] and the target share wire 1, so the oracle's key map is no permutation
    "oracle-overlap": ("ORACLE", (0, 1, 2, 1), (), (PROBE, 1),
                       {"verifier": "probe", "n_input_wires": 1},
                       WireError, "ORACLE wires must be distinct"),
    # A kind with a parameter needs one of its type; a kind without one takes none.
    "perm-no-param": ("PERM", (0, 1), (), None, None, ValueError,
                      "PERM takes a tuple parameter, got None"),
    "oracle-no-param": ("ORACLE", (0, 1, 2, 3), (), None, None, ValueError,
                        "ORACLE takes a (verifier, int) parameter, got None"),
    "oracle-str-width": ("ORACLE", (0, 1, 2, 3), (), (PROBE, "1"),
                         {"verifier": "probe", "n_input_wires": "1"}, ValueError,
                         "ORACLE takes a (verifier, int) parameter"),
    "n-no-param": ("N", (0,), (), None, None, ValueError,
                   "N takes an Amplitude parameter, got None"),
    "ninv-float-param": ("NINV", (0,), (), 0.5, None, ValueError,
                         "NINV takes an Amplitude parameter"),
    "g-no-param": ("G", (0,), (), None, None, ValueError, "G takes an int parameter, got None"),
    "ginv-no-param": ("GINV", (0,), (), None, None, ValueError, "GINV takes an int parameter"),
    "a-no-param": ("A", (0,), (), None, None, ValueError, "A takes an int parameter, got None"),
    "g-str-param": ("G", (0,), (), "x", "x", ValueError, "G takes an int parameter, got 'x'"),
    "ainv-bool-param": ("AINV", (0,), (), True, True, ValueError,
                        "AINV takes an int parameter, got True"),
    "h-with-param": ("H", (0,), (), 2, 2, ValueError, "H takes no parameter, got 2"),
    # A param of the wrong JSON type is refused before its decoder reads it.
    "n-float-param": ("N", (0,), (), 0.5, 0.5, ValueError,
                      "N takes an Amplitude parameter, got 0.5"),
    "perm-int-param": ("PERM", (0, 1), (), 5, 5, ValueError, "PERM takes a tuple parameter, got 5"),
    "oracle-list-param": ("ORACLE", (0, 1, 2, 3), (), [1], [1], ValueError,
                          "ORACLE takes a (verifier, int) parameter, got [1]"),
    # Wires, control wires and PERM destinations are ints; a polarity is 0 or 1.
    "float-wire": ("H", (0.5,), (), None, None, WireError, "H wire 0.5 is not an int"),
    "str-wire": ("H", ("a",), (), None, None, WireError, "H wire 'a' is not an int"),
    "bool-wire": ("X", (True,), (), None, None, WireError, "X wire True is not an int"),
    "float-control-wire": ("X", (0,), ((1.0, 1),), None, None, WireError, "X wire 1.0 is not an int"),
    "float-destination": ("PERM", (0, 1), (), (1, 0.0), [1, 0.0], WireError,
                          "PERM wire 0.0 is not an int"),
    "polarity-2": ("X", (0,), ((1, 2),), None, None, WireError,
                   "control polarity 2 on wire 1 is not 0 or 1"),
    "bool-polarity": ("H", (0,), ((2, True),), None, None, WireError,
                      "control polarity True on wire 2 is not 0 or 1"),
}


@pytest.mark.parametrize("case", MALFORMED_GATES.values(), ids=MALFORMED_GATES)
def test_a_malformed_gate_raises_when_made(case):
    """A shape that fits no state is refused when the gate is made, from its
    fields or from JSON, before any state sees it."""
    kind, wires, controls, param, param_json, error, message = case
    with pytest.raises(error, match=re.escape(message)):
        Gate(kind, wires, controls, param)
    dump = {"kind": kind, "wires": list(wires), "controls": [list(c) for c in controls]}
    if param_json is not None:
        dump["param"] = param_json
    with pytest.raises(error, match=re.escape(message)):
        Gate.from_json(dump, verifiers={"probe": PROBE})


def test_gate_labels():
    assert Gate.cnot(0, 1).label() == "CNOT"
    assert Gate.toffoli(0, 1, 2).label() == "TOFFOLI"
    assert Gate.mcx(((0, 0), (1, 1), (2, 1)), 3).label() == "MCX"
    assert Gate.x(0).label() == "X"
    assert Gate.h(0).label() == "H"


# Any JSON value, for the fuzz of the gate and circuit readers below.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.text(max_size=3)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
FUZZ_GATES = [Gate.h(0), Gate.mcx(((0, 0), (1, 1)), 2), Gate.g(1, 3), Gate.n(1, Amplitude(3, -1, 1)),
              Gate.d(1, 2), Gate.perm((0, 1, 2), (2, 0, 1)), Gate.proj(3, 1),
              Gate.oracle(PROBE, (0,), (1, 2), 3, controls=((4, 0),))]


def mutated(draw, value):
    """`value` with one node of its JSON tree replaced by any JSON value or,
    in a dict or a list, deleted."""
    if isinstance(value, (dict, list)) and value and draw(st.integers(0, 3)):
        at = draw(st.sampled_from(sorted(value) if isinstance(value, dict) else range(len(value))))
        out = dict(value) if isinstance(value, dict) else list(value)
        if draw(st.booleans()):
            del out[at]
        else:
            out[at] = mutated(draw, value[at])
        return out
    return draw(JSON_VALUES)


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_malformed_gate_and_circuit_json_raises_only_value_or_key_errors(data):
    """A gate or circuit dump with some nodes replaced or deleted is read, or
    refused with a ValueError (WireError among them) or, for an oracle's
    unknown verifier, a KeyError: never another exception. What is read dumps
    to JSON that reads back to it."""
    from quasiq.circuitgen import Circuit

    if data.draw(st.booleans()):
        cls, dump = Gate, data.draw(st.sampled_from(FUZZ_GATES)).to_json()
    else:
        cls, dump = Circuit, Circuit(5, {"x": (0, 1), "b": (1, 2)}, tuple(FUZZ_GATES),
                                     (("start", 0), ("end", len(FUZZ_GATES)))).to_json()
    for _ in range(data.draw(st.integers(1, 3))):
        dump = mutated(data.draw, dump)
    try:
        read = cls.from_json(dump, {"probe": PROBE})
    except (ValueError, KeyError):
        return
    assert cls.from_json(read.to_json(), {"probe": PROBE}) == read
