"""The integer-numerator kernel that simulate_circuit runs on, checked state
for state against the reference StateVector.apply."""
import itertools
import random
import re

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from quasiq.circuitgen import (
    AncillaRestorationError,
    Circuit,
    Numerators,
    build_fig3,
    build_lpwpp_decider,
    build_lwpp_decider,
    build_un,
    build_wn,
    check_ancillas_restored,
    simulate_circuit,
    simulate_inputs,
)
from quasiq.exactnum import ZERO, Amplitude, ExactDivisionError
from quasiq.quasistate import (
    _KINDS,
    Gate,
    NotInvertibleError,
    StateVector,
    WireError,
    _amplitude,
    _NumeratorState,
    bits_of,
    key_of,
)
from quasiq.verifierkit import Verifier, random_dual_pair, table_verifier

from test_acceptance import all_inputs, builtin_pairs, lemma_pairs


def numerators(state):
    """{key: (c0, c1)} of every nonzero lane of a kernel state."""
    offsets = state._offsets()
    out = {}
    for key, (c0, c1) in state.blocks.items():
        v0 = state._unpack(c0)
        v1 = (0,) * len(v0) if c1 is None else state._unpack(c1)
        out.update({key | off: (a0, a1) for off, a0, a1 in zip(offsets, v0, v1) if a0 or a1})
    return out


def reference_states(width, key, gates):
    """State after each prefix of `gates` under StateVector.apply."""
    state = StateVector.basis(width, key)
    states = [state]
    for gate in gates:
        state = state.apply(gate)
        states.append(state)
    return states


def sweep_circuits():
    """Every construction over the pairs of the acceptance sweeps."""
    pairs = [pair for pair, _ in builtin_pairs()]
    pairs += [random_dual_pair(1 + i % 3, 1 + i % 5, random.Random(1000 + i), name=f"random-{i}")
              for i in range(0, 50, 5)]
    pairs += [pair for pair, _ in lemma_pairs()]
    for pair in pairs:
        n = pair.n
        yield build_un(pair, n)
        yield build_fig3(pair, n, "bm")
        yield build_fig3(pair, n, "n", Amplitude(1, 1, 2))
        yield build_fig3(pair, n, "proj1")
        yield build_wn(pair, n)
        for h in (1, 3):  # a wrong witness leaves residual terms; they must agree too
            yield build_lwpp_decider(pair, h, n)
        yield build_lpwpp_decider(pair, 2, 1, n)


def test_every_checkpoint_of_the_acceptance_sweeps_matches_the_reference():
    count = 0
    for circuit in sweep_circuits():
        n = circuit.registers["x"][1]
        for x in all_inputs(n):
            key = key_of(x) << (circuit.width - n)
            expected = reference_states(circuit.width, key, circuit.gates)
            final, captured = simulate_circuit(circuit, x, record=True)
            assert final == expected[-1]
            assert set(captured) == set(circuit.checkpoint_labels())
            for label, pos in circuit.checkpoints:
                assert captured[label] == expected[pos], (label, x)
            count += 1
    assert count > 500


def parity_verifier(n, m):
    def eval_fn(x, b):
        acc = b[0]
        for xi, bi in zip(x, b[1:]):
            acc ^= xi & bi
        return acc

    return Verifier(n, m, eval_fn, name=f"parity-{n}x{m}")


def check_against_reference(width, key, gates, inner=()):
    """Apply gates one at a time through both paths, the kernel's lanes over
    the `inner` wires, from |key> or from the sum of |key> over a list of keys
    that differ on the outer wires; the states must be equal after every gate,
    and a failing gate must fail with the same exception type. Returns the kernel."""
    keys = key if isinstance(key, list) else [key]
    reference = StateVector(width, {k: Amplitude(1, 0, 0) for k in keys})
    kernel = _NumeratorState(width, keys, inner)
    for gate in gates:
        try:
            reference = reference.apply(gate)
        except Exception as exc:
            with pytest.raises(type(exc)):
                kernel.run([gate])
            return
        kernel.run([gate])
        assert kernel.to_state() == reference, gate
    return kernel


def spread(width):
    """Hadamards on every wire, then a few non-unitary gates, so that later
    gates see many terms with unequal amplitudes."""
    return [Gate.h(w) for w in range(width)] + [
        Gate.n(0, Amplitude(1, 1, 1)), Gate.b(1), Gate.s(width - 1, controls=((0, 0),))]


ORACLE_VERIFIER = parity_verifier(1, 2)

EVERY_KIND = [
    Gate.h(2),
    Gate.h(2, controls=((0, 1),)),
    Gate.h(2, controls=((0, 0), (3, 1))),
    Gate.x(1),
    Gate.cnot(0, 3),
    Gate.mcx(((0, 0), (2, 1)), 1),
    Gate.s(1),
    Gate.s(1, controls=((3, 0),)),
    Gate.b(2, controls=((0, 1),)),
    Gate.g(1, 3),
    Gate.g(1, 4, controls=((2, 0),)),
    Gate.a(3, 5),
    Gate.n(0, Amplitude(3, -1, 1)),
    Gate.n(2, Amplitude(0, 1, 0), controls=((1, 1),)),
    Gate.n(1, Amplitude(0, 0, 0)),
    Gate.d(1, 2),
    Gate.d(3, 0, controls=((1, 0),)),
    Gate.proj(2, 0),
    Gate.proj(2, 1),
    Gate.perm((0, 1, 2), (2, 0, 1)),
    Gate.swap(1, 3),
    Gate.oracle(ORACLE_VERIFIER, (0,), (1, 2), 3),
    Gate.oracle(ORACLE_VERIFIER, (3,), (2, 0), 1, controls=((4, 0),)),
]


@pytest.mark.parametrize("gate", EVERY_KIND, ids=lambda g: g.kind)
def test_every_gate_kind_and_its_inverse(gate):
    width = 5
    for key in (0, 0b10110, 0b01011):
        gates = spread(width) + [gate]
        if not gate.kind.startswith("PROJ") and not (gate.kind == "N" and gate.param.is_zero()):
            gates += [gate.inverse(), gate, gate.inverse(), gate.inverse()]
        check_against_reference(width, key, gates)


def test_n_with_a_sqrt2_part_makes_odd_exponents():
    gates = [Gate.h(0), Gate.n(0, Amplitude(1, 1, 0)), Gate.h(1), Gate.n(1, Amplitude(-1, 2, 1)),
             Gate.h(0, controls=((1, 0),))]
    check_against_reference(2, 0, gates)
    kernel = _NumeratorState(2, [0])
    kernel.run(gates)
    assert any(amp.c1 for _, amp in kernel.to_state())


@pytest.mark.parametrize("gate", [
    Gate.g(0, 3).inverse(),
    Gate.a(0, 6, controls=((1, 0),)).inverse(),
    Gate.n(0, Amplitude(3, 1, 0)).inverse(),
    Gate("NINV", (0,), (), Amplitude(0, 0, 0)),
], ids=["GINV", "AINV", "NINV", "NINV-zero"])
def test_failed_exact_division_raises_the_same_error(gate):
    with pytest.raises(ExactDivisionError):
        StateVector.basis(2, 0).apply(gate)
    with pytest.raises(ExactDivisionError):
        _NumeratorState(2, [0]).run([gate])
    check_against_reference(2, 0, [gate])


def test_division_by_zero_raises_only_where_a_term_is_divided():
    ninv_zero = Gate("NINV", (0,), (), Amplitude(0, 0, 0))
    ginv_zero = Gate("GINV", (0,), ((1, 1),), 0)
    # No term is divided: wire 0 holds 1, or the control on wire 1 fails.
    for key, gate in ((0b10, ninv_zero), (0b10, ginv_zero), (0b00, ginv_zero)):
        _NumeratorState(2, [key]).run([gate])
        check_against_reference(2, key, [gate])
    for key, gate in ((0b00, ninv_zero), (0b01, ginv_zero)):
        with pytest.raises(ExactDivisionError, match="division by zero"):
            _NumeratorState(2, [key]).run([gate])


def test_the_kernel_goes_on_after_a_reference_gate():
    """N and the inverse diagonal kinds go through the reference, and the
    lanes hold its result: an odd k then NINV of 2 + sqrt2, whose quotient
    needs one more exponent; GINV after a G wide enough to widen the lanes,
    then NINV of 2**-70, which widens them again; an ORACLE whose x wires are
    inner, on a state of several inputs. Every step matches StateVector.apply."""
    def steps(width, key, gates, inner):
        """(k, size) after each gate, checking every state against the reference."""
        kernel, reference, seen = _NumeratorState(width, [key], inner), StateVector.basis(width, key), []
        for gate in gates:
            kernel.run([gate])
            reference = reference.apply(gate)
            assert kernel.to_state() == reference, gate
            seen.append((kernel.k, kernel.size))
        return seen

    ks = [k for k, _ in steps(3, 0b010, [
        Gate.h(0), Gate.n(0, Amplitude(2, 1, 0)).inverse(), Gate.h(2), Gate.h(1), Gate.h(0),
        Gate.b(1), Gate.g(2, 3), Gate.s(1), Gate.h(2)], (0, 1, 2))]
    assert ks[:2] == [1, 2]  # (sqrt2/2) / (2 + sqrt2) = (sqrt2 - 1)/2: needs k = 2
    sizes = [size for _, size in steps(2, 0b01, [
        Gate.h(0), Gate.h(1), Gate.g(0, 3**30), Gate.g(0, 3**30).inverse(), Gate.h(1),
        Gate.n(0, Amplitude(1, 0, 70)).inverse(), Gate.h(0), Gate.d(0, 1), Gate.h(1)], (0, 1))]
    assert sizes == sorted(sizes) and sizes[1] < sizes[2] == sizes[3] < sizes[5]
    verifier = table_verifier(2, 2, {(0, 0): {1}, (0, 1): {0, 3}, (1, 0): set(), (1, 1): {2}})
    check_against_reference(6, [0b000000, 0b100000, 0b100001], [
        Gate.h(1), Gate.h(2), Gate.h(3), Gate.oracle(verifier, (0, 1), (2, 3), 4),
        Gate.h(2), Gate.cnot(4, 5), Gate.s(3), Gate.h(1)], (1, 2, 3))


def test_exact_division_that_succeeds_matches():
    # 9 = 3 * 3 and 7 = (3 + sqrt2)(3 - sqrt2): both quotients stay in the ring
    check_against_reference(2, 0, [Gate.g(0, 9), Gate.g(0, 3).inverse(), Gate.h(1),
                                   Gate.a(0, 3).inverse()])
    check_against_reference(1, 0, [Gate.n(0, Amplitude(7, 0, 2)), Gate.n(0, Amplitude(3, 1, 0)).inverse(),
                                   Gate.n(0, Amplitude(3, -1, 1)).inverse(), Gate.b(0).inverse()])


def test_wire_errors_match():
    """A wire out of range is the one fit error that depends on the state, so
    both paths raise it on a state of many terms too; a gate that fits no
    state raises when it is made (test_quasistate.py)."""
    for gate in (Gate.h(4), Gate.x(0, controls=((3, 1),)),
                 Gate.oracle(ORACLE_VERIFIER, (0,), (1, 2), 3)):
        check_against_reference(3, 0, [gate])
        check_against_reference(3, 0, spread(3) + [gate])


@pytest.mark.parametrize("gate, message", [
    (Gate.h(4), "wire 4 out of range for width 3"),
    (Gate.x(0, controls=((3, 1),)), "wire 3 out of range for width 3"),
    (Gate.oracle(ORACLE_VERIFIER, (0,), (1, 2), 5), "wire 5 out of range for width 3"),
], ids=["range", "control-range", "oracle-range"])
def test_gate_fit_messages_match(gate, message):
    with pytest.raises(WireError, match=re.escape(message)):
        StateVector.basis(3, 0).apply(gate)
    with pytest.raises(WireError, match=re.escape(message)):
        _NumeratorState(3, [0]).run([gate])


# -- random gate lists ------------------------------------------------------------

KINDS = ("H", "X", "S", "SINV", "B", "BINV", "G", "GINV", "A", "AINV", "N", "NINV",
         "D", "DINV", "PROJ0", "PROJ1", "PERM", "ORACLE")
SMALL = st.integers(min_value=-3, max_value=5)


@st.composite
def random_gate(draw, width):
    kind = draw(st.sampled_from(KINDS))
    order = draw(st.permutations(range(width)))
    arity = {"D": 2, "DINV": 2, "ORACLE": 3}.get(kind, 1)
    if kind == "PERM":
        arity = draw(st.integers(2, min(3, width)))
    if arity > width:
        kind, arity = "H", 1
    wires = tuple(order[:arity])
    free = order[arity:]
    ncontrols = draw(st.integers(0, min(2, len(free))))
    controls = tuple((w, draw(st.integers(0, 1))) for w in free[:ncontrols])
    param = None
    if kind in ("G", "GINV", "A", "AINV"):
        param = draw(SMALL)
    elif kind in ("N", "NINV"):
        param = Amplitude(draw(SMALL), draw(SMALL), draw(st.integers(0, 2)))
    elif kind == "PERM":
        param = tuple(draw(st.permutations(wires)))
    elif kind == "ORACLE":
        param = (parity_verifier(1, 1), 1)
    return Gate(kind, wires, controls, param)


@st.composite
def gate_lists(draw):
    width = draw(st.integers(2, 5))
    key = draw(st.integers(0, 2**width - 1))
    gates = draw(st.lists(random_gate(width), max_size=14))
    return width, key, gates


@settings(max_examples=300, deadline=None)
@given(gate_lists())
def test_random_gate_lists_match_the_reference(case):
    width, key, gates = case
    check_against_reference(width, key, gates)


def a_gate_of_kind(kind):
    """A gate of `kind` with no controls, on the wires (and with the
    parameter) of the first EVERY_KIND gate of that kind or of its forward
    kind; H's wire for a kind with neither."""
    samples = {}
    for gate in EVERY_KIND:
        samples.setdefault(gate.kind, gate)
    template = samples.get(kind) or samples.get(kind.removesuffix("INV"), Gate.h(2))
    return Gate(kind, template.wires, (), template.param)


def test_the_kind_table_covers_the_reference_and_the_strategy():
    """_KINDS holds exactly the kinds StateVector.apply knows, which are the
    kinds random_gate draws. Every wire holds 1, so no diag gate divides."""
    candidates = set(_KINDS) | set(KINDS) | {"Y", "CZ", "SWAP", "h"}
    known = set()
    for kind in candidates:
        try:
            StateVector.basis(5, 0b11111).apply(a_gate_of_kind(kind))
        except ValueError as exc:
            assert "unknown gate kind" in str(exc), kind
        else:
            known.add(kind)
    assert set(_KINDS) == known == set(KINDS)


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_every_inverse_undoes_itself(kind):
    gate = a_gate_of_kind(kind)
    if _KINDS[kind].inverse is None:
        with pytest.raises(NotInvertibleError):
            gate.inverse()
        return
    assert gate.inverse().inverse() == gate
    assert _KINDS[gate.inverse().kind].inverse == kind


def check_run_against_gate_by_gate(width, key, gates):
    """_NumeratorState.run must leave the terms and k that running the gates
    one at a time leaves, or raise the same exception type."""
    one_by_one = _NumeratorState(width, [key])
    try:
        for gate in gates:
            one_by_one.run([gate])
    except Exception as exc:
        with pytest.raises(type(exc)):
            _NumeratorState(width, [key]).run(gates)
        return
    kernel = _NumeratorState(width, [key])
    kernel.run(gates)
    assert (numerators(kernel), kernel.k) == (numerators(one_by_one), one_by_one.k)


def test_oracle_reads_b_wires_in_any_order():
    """The kernel reads the b register one run of adjacent wires at a time:
    every order of three b wires (ascending, descending, split) must match."""
    rng = random.Random(17)
    table = {x: frozenset(v for v in range(8) if rng.getrandbits(1)) for x in ((0,), (1,))}
    verifier = table_verifier(1, 3, table, name="asymmetric")
    width = 5
    for x_wire in range(width):
        rest = [w for w in range(width) if w != x_wire]
        for *b_wires, target in itertools.permutations(rest):
            gate = Gate.oracle(verifier, (x_wire,), tuple(b_wires), target)
            check_against_reference(width, 0b10110, spread(width) + [gate])


# -- Hadamard layers --------------------------------------------------------------


@st.composite
def layered_circuits(draw):
    """Runs of H gates between random gates, with checkpoints at random
    positions and some of them recorded. A run may repeat a wire, use wires
    that are not adjacent, and give some of its gates other controls."""
    width = draw(st.integers(2, 6))
    gates = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            gates.append(draw(random_gate(width)))
            continue
        wires = draw(st.lists(st.integers(0, width - 1), min_size=1, max_size=width + 1))
        free = [w for w in range(width) if w not in wires]
        shared = tuple((w, draw(st.integers(0, 1)))
                       for w in free[:draw(st.integers(0, min(2, len(free))))])
        for w in wires:
            controls = shared
            if shared and not draw(st.integers(0, 4)):
                controls = draw(st.sampled_from([shared[:1], shared[::-1],
                                                 ((shared[0][0], 1 - shared[0][1]),)]))
            gates.append(Gate.h(w, controls))
    positions = draw(st.lists(st.integers(0, len(gates)), max_size=4))
    checkpoints = tuple((f"cp{i}", pos) for i, pos in enumerate(positions))
    record = draw(st.sets(st.sampled_from([label for label, _ in checkpoints]))) if positions else set()
    circuit = Circuit(width, {"x": (0, width)}, tuple(gates), checkpoints)
    return circuit, draw(st.integers(0, 2**width - 1)), record


@settings(max_examples=300, deadline=None)
@given(layered_circuits())
def test_hadamard_layers_match_the_reference_at_every_recorded_checkpoint(case):
    circuit, key, record = case
    x = bits_of(key, circuit.width)
    try:
        expected = reference_states(circuit.width, key, circuit.gates)
    except Exception as exc:  # an exact division that leaves the ring
        with pytest.raises(type(exc)):
            simulate_circuit(circuit, x, record)
        return
    final, captured = simulate_circuit(circuit, x, record)
    assert final == expected[-1]
    assert set(captured) == record
    for label, pos in circuit.checkpoints:
        if label in record:
            assert captured[label] == expected[pos], label


@settings(max_examples=300, deadline=None)
@given(st.one_of(gate_lists(), layered_circuits().map(
    lambda case: (case[0].width, case[1], case[0].gates))))
def test_run_matches_applying_one_gate_at_a_time(case):
    check_run_against_gate_by_gate(*case)


def test_a_fit_error_inside_a_run_raises_the_reference_error():
    # The controls are shared, so the three gates form one run; the middle
    # gate's wire lies out of range.
    controls = ((2, 1),)
    gates = [Gate.h(0, controls), Gate.h(5, controls), Gate.h(1, controls)]
    with pytest.raises(WireError, match="wire 5 out of range for width 3"):
        reference_states(3, 0b001, gates)
    with pytest.raises(WireError, match="wire 5 out of range for width 3"):
        _NumeratorState(3, [0b001]).run(gates)
    with pytest.raises(WireError, match="wire 5 out of range for width 3"):
        _NumeratorState(3, [0]).run([Gate.h(0), Gate.h(5), Gate.h(1)])
    # A control on its own gate's wire is refused before any circuit holds it.
    with pytest.raises(WireError, match="control wires overlap gate wires"):
        Circuit(3, {"x": (0, 3)}, (Gate.h(0, controls), Gate.h(2, controls), Gate.h(1, controls)))


def test_a_run_of_hadamards_is_one_kernel_call(monkeypatch):
    """The un circuit opens with H on b and c and closes with H on b and a:
    two layers, and three when the checkpoint psi_2 between the last two
    runs is recorded."""
    pair = builtin_pairs()[-1][0]
    circuit = build_un(pair, pair.n)
    b = circuit.register_wires("b")
    c, a = circuit.wire("c"), circuit.wire("a")
    calls = []
    layer = _NumeratorState._hadamards

    def counting(self, wires, cmask, cval):
        calls.append(sorted(wires))
        layer(self, wires, cmask, cval)

    monkeypatch.setattr(_NumeratorState, "_hadamards", counting)
    x = (0,) * pair.n
    simulate_circuit(circuit, x)
    assert calls == [sorted(b + (c,)), sorted(b + (a,))]
    calls.clear()
    simulate_circuit(circuit, x, record=True)
    assert calls == [sorted(b + (c,)), list(b), [a]]


# -- the lane blocks --------------------------------------------------------------


def butterflies_reference(v, layer):
    """The transform a layer makes of the lanes v (its length a power of two)
    on the index bits set in `layer`, one pair of entries at a time."""
    v = list(v)
    for bit in range(len(v).bit_length()):
        step = 1 << bit
        if layer & step:
            for i in range(len(v)):
                if not i & step:
                    v[i], v[i | step] = v[i] + v[i | step], v[i] - v[i | step]
    return v


@st.composite
def butterfly_cases(draw):
    """(v, layer): a list of 2**size entries and a random subset of its index
    bits. Entries lie near a lane-width boundary, that of 8-, 16-, 32- and
    64-bit lanes once the layer's growth is counted, or near 2**100, or are 0."""
    size = draw(st.integers(0, 7))
    layer = draw(st.integers(0, 2**size - 1))
    bits = layer.bit_count()
    near = st.sampled_from([max(top - bits, 0) for top in (7, 15, 31, 63)] + [100]).flatmap(
        lambda e: st.integers(2**e - 2, 2**e + 2))
    entry = st.one_of(st.just(0), st.integers(-3, 3), near, near.map(lambda x: -x))
    v = draw(st.one_of(st.lists(entry, min_size=2**size, max_size=2**size),
                       st.just([0] * 2**size)))
    return v, layer


def packed_state(c0, c1=None):
    """A state on log2(len(c0)) wires, all inner, whose one block holds the
    lanes c0 and c1 (None: zeros), as narrow as the kernel's lane rule allows."""
    width = len(c0).bit_length() - 1
    state = _NumeratorState(width, [0], range(width))
    state.bits = max(map(abs, c0 + (c1 or [])), default=0).bit_length()
    size = -(-(state.bits + 1) // 8)
    state.size = 1 << (size - 1).bit_length() if size <= 8 else size
    state._place(state.inner)  # the bias of the new lane width
    state.blocks = {0: (state._pack(c0), None if c1 is None else state._pack(c1))}
    return state


def layer_of(state, layer):
    """Run H on the wires of the lane bits set in `layer`; return both lane lists."""
    width = state.width
    state._hadamards([width - 1 - bit for bit in range(width) if layer >> bit & 1], 0, 0)
    c0, c1 = state.blocks.get(0, (state.bias, None))
    zeros = [0] * (1 << width)
    return [list(state._unpack(c0)), zeros if c1 is None else list(state._unpack(c1))]


@settings(max_examples=400, deadline=None)
@given(butterfly_cases())
def test_layer_steps_match_the_pairwise_reference(case):
    v, layer = case
    assert layer_of(packed_state(v), layer) == [butterflies_reference(v, layer), [0] * len(v)]


@settings(max_examples=200, deadline=None)
@given(butterfly_cases(), st.data())
def test_a_layer_transforms_c0_and_c1_each(case, data):
    c0, layer = case
    c1 = data.draw(st.lists(st.sampled_from(c0 + [0, 1, -1]), min_size=len(c0), max_size=len(c0)))
    assert layer_of(packed_state(c0, c1), layer) == [butterflies_reference(c0, layer),
                                                     butterflies_reference(c1, layer)]


@st.composite
def inner_cases(draw):
    """A gate list or a layered circuit's gates, and inner wires that are a
    strict subset of the wires its gates target: targets and controls fall
    on inner and on outer wires."""
    width, key, gates = draw(st.one_of(gate_lists(), layered_circuits().map(
        lambda case: (case[0].width, case[1], case[0].gates))))
    targeted = sorted({w for gate in gates for w in gate.wires})
    inner = draw(st.sets(st.sampled_from(targeted), max_size=len(targeted) - 1)) if targeted else ()
    return width, key, gates, inner


@settings(max_examples=300, deadline=None)
@given(inner_cases())
def test_blocks_on_any_inner_wires_match_the_reference(case):
    width, key, gates, inner = case
    check_against_reference(width, key, gates, inner)
    try:
        expected = reference_states(width, key, gates)[-1]
    except Exception as exc:
        with pytest.raises(type(exc)):
            _NumeratorState(width, [key], inner).run(gates)
        return
    kernel = _NumeratorState(width, [key], inner)
    kernel.run(gates)
    assert kernel.to_state() == expected


def test_lanes_widen_from_one_byte_to_past_eight(monkeypatch):
    """Large G, A and N parameters take the lanes through 1, 2, 4 and 8 bytes
    and past them, and a 13-wire H run then acts on 17-byte lanes; every state
    matches the reference, gate by gate and as one run."""
    width = 13
    gates = ([Gate.h(w) for w in range(width)] + [Gate.g(0, 2**9 + 1), Gate.a(1, 2**18 + 3),
             Gate.g(2, -2**30), Gate.a(3, 2**70), Gate.n(4, Amplitude(3, 2**35, 1)), Gate.s(5),
             Gate.d(6, 7), Gate.x(8, ((9, 1),))] + [Gate.h(w) for w in range(width)])
    sizes = []
    fit = _NumeratorState._fit

    def recording(self, grow):
        fit(self, grow)
        sizes.append(self.size)

    monkeypatch.setattr(_NumeratorState, "_fit", recording)
    kernel = check_against_reference(width, 0b1010, gates, range(width))
    assert sizes == sorted(sizes)  # lanes only widen
    assert {1, 2, 4, 8} < set(sizes) and max(sizes) > 8 and kernel.size == max(sizes)
    check_one_run_against_reference(width, 0b1010, gates, range(width))


def test_hadamards_on_far_apart_wires_use_a_block_of_four_lanes():
    """Only the H targets are inner: H on wires 0 and 17 of an 18-wire state
    makes one block of four lanes, not a list over the wires between them."""
    circuit = Circuit(18, {"x": (0, 18)}, (Gate.h(0), Gate.h(17)), forks=True)
    x = (1,) + (0,) * 16 + (1,)
    final, _ = simulate_circuit(circuit, x)
    state = circuit.last[1]
    assert state.inner == (0, 17) and len(state.blocks) == 1
    ((c0, c1),) = state.blocks.values()
    assert len(state._unpack(c0)) == 4 and c1 is None
    assert final == reference_states(18, key_of(x), circuit.gates)[-1] and len(final) == 4


@pytest.mark.parametrize("tail_wire", [3, 1])
@pytest.mark.parametrize("head", [Gate.s(3), Gate.d(3, 1)], ids=["S", "D"])
def test_a_tail_that_starts_with_a_shear_leaves_the_parent_state_alone(monkeypatch, head,
                                                                       tail_wire):
    """S and D change their blocks in place no more than any other gate: a
    child starts from its parent's final blocks, shared, and neither the
    parent's record nor a second child's run sees the first child's gates,
    whether the child's own H gates target the parent's inner wires or not."""
    parent = Circuit(4, {"x": (0, 2)}, (Gate.h(2), Gate.h(3), Gate.cnot(0, 2)), forks=True)
    first = Circuit(4, parent.registers, parent.gates + (head, Gate.h(tail_wire)), parent=parent,
                    forks=True)
    second = Circuit(4, parent.registers, parent.gates + (Gate.x(3),), parent=parent)
    forked = []
    fork = _NumeratorState.fork
    monkeypatch.setattr(_NumeratorState, "fork",
                        lambda self, *args: forked.append(args[0]) or fork(self, *args))
    x = (1, 0)
    parent_final, _ = simulate_circuit(parent, x)
    state = parent.last[1]
    record = dict(state.blocks)
    assert simulate_circuit(first, x)[0] == cold_run(first, x)
    assert first.last[1].blocks != record and state.blocks == record
    assert simulate_circuit(second, x)[0] == cold_run(second, x)
    assert state.blocks == record and simulate_circuit(parent, x)[0] == parent_final
    assert forked == [state, state]


def cold_run(circuit, x, record=False):
    """simulate_circuit on a copy of `circuit` with no parent."""
    alone = Circuit(circuit.width, circuit.registers, circuit.gates, circuit.checkpoints)
    return simulate_circuit(alone, x, record)[0]


SPREAD = tuple(Gate.h(w) for w in range(6))


@pytest.mark.parametrize("head", [
    SPREAD + (Gate.s(3),) + SPREAD,
    (Gate.h(0), Gate.h(1), Gate.n(0, Amplitude(1, 1, 1)), Gate.h(2), Gate.h(3), Gate.h(3)),
], ids=["sparse", "odd-k-sqrt2"])
@pytest.mark.parametrize("tail", [(Gate.s(6), Gate.x(1, ((6, 1),)), Gate.d(6, 0)),
                                  (Gate.x(6), Gate.h(2, ((6, 1),)), Gate.h(0))],
                         ids=["no-H", "H"])
def test_a_child_regroups_its_parents_state_on_the_wires_it_spans(head, tail):
    """A parent whose final state spans fewer wires than its H gates target
    (two live lanes in 64; or odd k, sqrt2 parts and an H undone) hands its
    child that state regrouped on the wires where its terms differ and those
    the child's own H gates target. The child equals its cold run, and the
    parent's blocks stay as they were."""
    parent = Circuit(7, {"x": (0, 1)}, head, forks=True)
    child = Circuit(7, parent.registers, parent.gates + tail, parent=parent)
    x = (1,)
    final, _ = simulate_circuit(parent, x)
    state = parent.last[1]
    record = dict(state.blocks)
    first = min(final.terms)
    spanned = {w for w in range(7) for key in final.terms if (first ^ key) >> 6 - w & 1}
    regrouped = []
    fork = _NumeratorState.fork
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_NumeratorState, "fork",
                      lambda self, *args: fork(self, *args) or regrouped.append(self.inner))
        assert simulate_circuit(child, x)[0] == cold_run(child, x)
    assert regrouped == [tuple(sorted(spanned | {g.wires[0] for g in tail if g.kind == "H"}))]
    assert regrouped[0] != state.inner and state.blocks == record


def check_one_run_against_reference(width, key, gates, inner=()):
    """Run `gates` as one list, so that runs of H or of equal diagonal gates
    form layers and fused passes, and compare with StateVector.apply."""
    kernel = _NumeratorState(width, [key], inner)
    kernel.run(gates)
    assert kernel.to_state() == reference_states(width, key, gates)[-1]


@pytest.mark.parametrize("controls", [((2, 1),), ((2, 0),), ((2, 1), (5, 0)), ((0, 1), (2, 0))],
                         ids=["inside", "inside-0", "inside-and-after", "before-and-inside"])
def test_controlled_layers_match_the_reference(controls):
    """A layer on wires 1, 3 and 4 spans wires 1 to 4, so a control on wire 2
    lies inside the span: the terms that pass it are transformed, the others
    scaled by sqrt2**3."""
    width = 6
    layer = [Gate.h(w, controls) for w in (3, 1, 4)]
    for key in (0, 0b101101, 0b010010, 0b111111):
        check_one_run_against_reference(width, key, spread(width) + layer)
        check_one_run_against_reference(width, key, spread(width) + layer[:2] + [Gate.x(2)] + layer)


def test_a_layer_with_c1_terms_and_large_numerators_matches_the_reference():
    gates = [Gate.h(0), Gate.n(0, Amplitude(3, 5, 0)), Gate.g(1, 2**40), Gate.h(1),
             Gate.n(1, Amplitude(-7, 2**70, 1))] + [Gate.h(w) for w in range(4)]
    check_one_run_against_reference(4, 0b0110, gates)


FUSED_RUNS = {
    "B": [Gate.b(1)] * 3,
    "B-then-other-wire": [Gate.b(1)] * 2 + [Gate.b(2)] * 2 + [Gate.b(1)],
    "B-then-other-control": [Gate.b(1)] * 2 + [Gate.b(1, ((0, 1),))] * 2 + [Gate.b(1, ((0, 0),))],
    "G": [Gate.g(2, 3)] * 4,
    "G-then-other-parameter": [Gate.g(2, 3)] * 2 + [Gate.g(2, -2)] * 3 + [Gate.g(2, 3)],
    "G-zero": [Gate.g(2, 0)] * 2,
    "A": [Gate.a(0, 5, ((3, 1),))] * 3 + [Gate.g(0, 5, ((3, 1),))],
    "inverse": [Gate.b(1).inverse()] * 2 + [Gate.g(1, 3)] * 2 + [Gate.g(1, 3).inverse()] * 2,
    "AINV-fails": [Gate.a(2, 9)] + [Gate.a(2, 3).inverse()] * 3,
    "N": [Gate.n(1, Amplitude(1, 1, 1))] * 3 + [Gate.n(1, Amplitude(1, 1, 1)).inverse()] * 2,
    "between-layers": [Gate.h(0), Gate.h(1)] + [Gate.b(0)] * 2 + [Gate.h(0), Gate.h(1)],
}


@pytest.mark.parametrize("gates", FUSED_RUNS.values(), ids=FUSED_RUNS)
def test_fused_diagonal_runs_match_one_gate_at_a_time(monkeypatch, gates):
    """A run of t equal B, G or A gates is one pass with p**t, and leaves the
    terms and k of t passes; N and the inverse kinds go through the reference
    one gate at a time."""
    width = 4
    passes = []
    diag = _NumeratorState._diag

    def counting(self, gate, cmask, cval, power=1):
        passes.append(power)
        diag(self, gate, cmask, cval, power)

    for key in (0, 0b1010, 0b0111):
        check_run_against_gate_by_gate(width, key, spread(width) + gates)
        if not any(g.kind == "AINV" for g in gates):
            check_one_run_against_reference(width, key, spread(width) + gates)
    monkeypatch.setattr(_NumeratorState, "_diag", counting)
    _NumeratorState(width, [0b1111]).run(gates)  # every wire is 1: no gate divides
    expected = []
    for gate, previous in zip(gates, [None] + gates):
        if gate.kind in ("B", "G", "A") and gate == previous:
            expected[-1] += 1
        elif gate.kind in _KINDS and _KINDS[gate.kind].family == "_diag":
            expected.append(1)
    assert passes == expected


class CountingVerifier(Verifier):
    """A verifier that records the inputs its accept mask is asked for."""

    def accept_mask(self, x):
        self.asked.append(x)
        return super().accept_mask(x)


@pytest.mark.parametrize("x_wires, b_wires, target, controls", [
    ((0, 1), (2, 3, 4), 5, ()),
    ((6, 0), (2, 3, 4), 1, ((5, 1),)),
    ((0, 5), (1, 3, 4), 2, ((6, 1),)),
    ((6, 0), (4, 1, 5), 3, ()),
    ((3,), (6, 0, 4), 1, ((2, 0), (5, 1))),
], ids=["adjacent", "adjacent-split-x", "gapped", "out-of-order", "spread"])
def test_oracle_looks_up_one_mask_per_x_value(x_wires, b_wires, target, controls):
    """An ORACLE on a state with several x values, on adjacent and on
    non-adjacent or unordered b wires, matches the reference with lanes on its
    b wires and on none. With its x wires outer and its b wires adjacent inner
    ones in order, as in every construction, the lanes apply it and ask for one
    accept mask per x value among the terms that pass its controls; the
    reference takes every other layout."""
    rng = random.Random(5)
    nx = len(x_wires)
    table = {x: frozenset(b for b in range(8) if rng.getrandbits(1))
             for x in itertools.product((0, 1), repeat=nx)}
    plain = table_verifier(nx, 3, table, name="table")
    verifier = CountingVerifier(nx, 3, plain.eval_fn, name="counting", mask_fn=plain.mask_fn)
    verifier.asked = []
    width = 7
    gate = Gate.oracle(verifier, x_wires, b_wires, target, controls)
    for key in (0, 0b1011001):
        for inner in ((), b_wires):
            check_against_reference(width, key, spread(width) + [gate], inner)
        if b_wires != tuple(range(b_wires[0], b_wires[0] + len(b_wires))):
            continue
        state = _NumeratorState(width, [key], b_wires)
        state.run(spread(width))
        cmask, cval = gate.control_mask(width)
        xs = {tuple(key >> (width - 1 - w) & 1 for w in x_wires)
              for key in numerators(state) if key & cmask == cval}
        verifier.asked.clear()
        state.run([gate])
        assert sorted(verifier.asked) == sorted(xs) and len(xs) > 1


# -- several inputs as one state ----------------------------------------------------


@st.composite
def gate_off_x(draw, n, width):
    """A random gate that targets no x wire (the first n): random_gate's gate
    on the other wires, maybe with controls on x, or an ORACLE that reads x
    through a random truth table, maybe under a control on a wire left over."""
    if width - n >= 2 and not draw(st.integers(0, 3)):
        rest = draw(st.permutations(range(n, width)))
        m = draw(st.integers(1, len(rest) - 1))
        table = {x: frozenset(b for b in range(2**m) if draw(st.booleans()))
                 for x in itertools.product((0, 1), repeat=n)}
        controls = tuple((w, draw(st.integers(0, 1))) for w in rest[m + 1:] if draw(st.booleans()))
        return Gate.oracle(table_verifier(n, m, table), range(n), rest[:m], rest[m], controls)
    x_controls = tuple((w, draw(st.integers(0, 1))) for w in draw(
        st.lists(st.integers(0, n - 1), max_size=min(2, n), unique=True)))
    gate = draw(random_gate(width - n))
    param = tuple(w + n for w in gate.param) if gate.kind == "PERM" else gate.param
    return Gate(gate.kind, tuple(w + n for w in gate.wires),
                tuple((w + n, v) for w, v in gate.controls) + x_controls, param)


@st.composite
def batched_cases(draw):
    """A parent that forks and a child that adds gates, on n <= 3 x wires and
    2 or 3 more, no gate targeting x; the child's checkpoints lie after the
    fork, some recorded; and a set of distinct inputs."""
    n = draw(st.integers(1, 3))
    width = n + draw(st.integers(2, 3))
    head = tuple(draw(st.lists(gate_off_x(n, width), min_size=1, max_size=8)))
    tail = tuple(draw(st.lists(gate_off_x(n, width), max_size=8)))
    parent = Circuit(width, {"x": (0, n)}, head, (("end", len(head)),), forks=True)
    positions = draw(st.lists(st.integers(len(head), len(head) + len(tail)), max_size=3))
    checkpoints = tuple((f"cp{i}", pos) for i, pos in enumerate(positions))
    child = Circuit(width, parent.registers, head + tail, checkpoints, parent=parent)
    record = draw(st.sets(st.sampled_from([label for label, _ in checkpoints]))) if positions else set()
    keys = draw(st.lists(st.integers(0, 2**n - 1), min_size=1, unique=True))
    return parent, child, [bits_of(key, n) for key in keys], record


@settings(max_examples=200, deadline=None)
@given(batched_cases())
def test_each_sector_of_a_batched_run_is_that_inputs_run(case):
    """Run on several inputs at once, as one state, a circuit that targets no
    x wire gives each input the final and recorded states of its run alone
    and of the reference, and so does a child forked from that batched run,
    which keeps every x wire outer; a run that fails for some input fails."""
    parent, child, inputs, record = case
    n, width = len(inputs[0]), child.width
    try:
        expected = [reference_states(width, key_of(x) << width - n, child.gates) for x in inputs]
    except ExactDivisionError:
        with pytest.raises(ExactDivisionError):
            simulate_inputs(parent, inputs, True)
            simulate_inputs(child, inputs, record)
        return
    forked = []
    fork = _NumeratorState.fork
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_NumeratorState, "fork",
                      lambda self, *args: fork(self, *args) or forked.append(self.inner))
        runs = [simulate_inputs(parent, inputs, True), simulate_inputs(child, inputs, record)]
    assert len(forked) == 1 and min(forked[0], default=n) >= n
    for circuit, wanted, batched in zip((parent, child), (True, record), runs):
        alone = Circuit(width, circuit.registers, circuit.gates, circuit.checkpoints)
        for x, states, (final, captured) in zip(inputs, expected, batched):
            assert (final, captured) == simulate_circuit(alone, x, wanted)
            assert final == states[len(circuit.gates)]
            assert captured == {label: states[pos] for label, pos in circuit.checkpoints
                                if wanted is True or label in wanted}


@pytest.mark.parametrize("gate", [Gate.h(0), Gate.swap(0, 2), Gate.d(0, 2), Gate.x(0, ((2, 1),))],
                         ids=["H", "SWAP", "D", "controlled-X"])
def test_several_inputs_need_a_circuit_that_targets_no_x_wire(gate):
    """A gate that targets an x wire moves terms between the inputs' sectors:
    such a circuit runs on one input at a time only. Reading x, as controls
    and an ORACLE do, is allowed."""
    reads = (Gate.h(2), Gate.cnot(0, 2), Gate.oracle(ORACLE_VERIFIER, (1,), (2, 3), 4))
    circuit = Circuit(5, {"x": (0, 2)}, reads)
    inputs = [(0, 0), (0, 1), (1, 1)]
    assert simulate_inputs(circuit, inputs) == [simulate_circuit(circuit, x) for x in inputs]
    circuit = Circuit(5, {"x": (0, 2)}, reads + (gate,))
    assert simulate_inputs(circuit, [(1, 0)]) == [simulate_circuit(circuit, (1, 0))]
    with pytest.raises(ValueError, match="must target no x wire"):
        simulate_inputs(circuit, inputs)


# -- numerator reads against the reference ------------------------------------------


def check_reads(sector, data):
    """Every read the runs' checks make of a sector equals the same quantity
    computed on its StateVector: masses of a pattern and of the rest, a projected
    mass, the amplitude at a key compared in integers, the whole state compared,
    a wire's values, and the ancilla test."""
    ref, width = sector.to_state(), sector.width
    assert ref == StateVector(width, {key: _amplitude(*c, sector.k) for key, c in sector.numerators.items()})
    mask = data.draw(st.integers(0, 2**width - 1))
    value = data.draw(st.integers(0, 2**width - 1)) & mask
    wire = data.draw(st.integers(0, width - 1))
    bit = 1 << width - 1 - wire
    match = lambda key: key & mask == value  # noqa: E731
    mass = lambda sums: Amplitude(*sums, sector.k)  # noqa: E731
    assert tuple(map(mass, sector.masses(mask, value))) == (
        ref.filter_terms(match).norm_sq(), ref.filter_terms(lambda key: not match(key)).norm_sq())
    assert mass(sector.masses()[0]) == ref.norm_sq()
    if ref.terms:
        assert mass(sector.masses(bit, bit)[0]) == ref.project(wire, 1)[0]
    assert sector.wire_values(wire, mask, value) == {key >> width - 1 - wire & 1 for key in ref.terms
                                                     if match(key)}
    keys = sorted(ref.terms)[:3] + [data.draw(st.integers(0, 2**width - 1))]
    for key in keys:
        amp = ref.amplitude(key)
        assert sector.equals_at(key, amp)
        for other in (amp + Amplitude(1, 0, sector.k // 2 + 1), amp + Amplitude(0, 1, 0), -amp):
            assert sector.equals_at(key, other) == (other == amp)
    dead = [key for key in range(2**width) if key not in ref.terms][:1]
    assert sector.holds(ref.terms) and sector.holds({**ref.terms, **dict.fromkeys(dead, ZERO)})
    if ref.terms:
        key = keys[0]
        assert not sector.holds({**ref.terms, key: ref.terms[key] + Amplitude(1, 1, 3)})
        assert not sector.holds({k: a for k, a in ref.terms.items() if k != key})
    if width < 2:  # the ancilla test below needs two wires
        return
    circuit = Circuit(width, {"b": (wire, 1), "a": ((wire + 1) % width, 1)}, ())
    stray = sorted(key for key in ref.terms if key & (bit | 1 << width - 1 - (wire + 1) % width))
    if stray:
        with pytest.raises(AncillaRestorationError) as info:
            check_ancillas_restored(sector, circuit)
        assert info.value.term == format(stray[0], f"0{width}b")
    else:
        check_ancillas_restored(sector, circuit)


@settings(max_examples=200, deadline=None)
@given(inner_cases(), st.data())
def test_numerator_reads_of_a_run_match_its_state(case, data):
    """Random gate lists and layered circuits on any inner wires: odd and even
    k, c1 None and nonzero, sparse and dense blocks."""
    width, key, gates, inner = case
    kernel = _NumeratorState(width, [key], inner)
    try:
        kernel.run(gates)
    except (ExactDivisionError, NotInvertibleError, WireError):
        return
    check_reads(Numerators(width, kernel.k, kernel.sectors((0,), width)[0]), data)


@settings(max_examples=200, deadline=None)
@given(butterfly_cases(), st.integers(0, 5), st.data())
def test_numerator_reads_of_lanes_of_every_width(case, k, data):
    """One block whose lanes hold numerators near the bounds of 1-, 2-, 4- and
    8-byte lanes or past them, over an odd or even k, with c1 None or not."""
    c0, _ = case
    assume(len(c0) > 1)
    c1 = data.draw(st.one_of(st.none(), st.lists(st.sampled_from(c0 + [0, 1, -3]), min_size=len(c0),
                                                 max_size=len(c0))))
    state = packed_state(c0, c1)
    state.k = k
    live = state.sectors((0,), state.width)[0]
    assert live == {key: (a, b) for key, a, b in zip(state._offsets(), c0, c1 or [0] * len(c0)) if a or b}
    check_reads(Numerators(state.width, k, live), data)


@settings(max_examples=100, deadline=None)
@given(batched_cases(), st.data())
def test_numerator_reads_of_each_sector_of_a_batch_and_its_fork(case, data):
    """Each input's sector, final and recorded, of a batched run and of a child
    forked from it."""
    parent, child, inputs, record = case
    try:
        runs = simulate_inputs(parent, inputs, True) + simulate_inputs(child, inputs, record)
    except ExactDivisionError:
        return
    for final, captured in runs:
        for sector in (final, *captured.values()):
            check_reads(sector, data)

