"""Circuit constructions checked term-by-term against brute-force reconstructions.

Every expected state here is rebuilt directly from verifier evaluations and
the branch-counting oracle (sums over branch strings, explicit Hadamard sign
formulas), never from the gate machinery under test.
"""
import dataclasses
import hashlib
import json
import random
import re
from functools import partial

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings
from test_acceptance import builtin_pairs, lemma_pairs

from quasiq.exactnum import HALF, ONE, ZERO, Amplitude
from quasiq.quasistate import Gate, StateVector, bits_of, key_of
from quasiq.verifierkit import (
    DualityError,
    DualVerifierPair,
    HalfGapFunction,
    balanced_verifier,
    builtin_problems,
    gap_stats,
    make_dual_lwpp,
    allzero_verifier,
    random_dual_pair,
)
from quasiq.circuitgen import (
    AncillaRestorationError,
    Circuit,
    PostselectionError,
    RegisterMismatchError,
    ResidualTermError,
    RunOutcome,
    _built,
    build_fig3,
    build_lpwpp_decider,
    build_lwpp_decider,
    build_un,
    build_wn,
    check_ancillas_restored,
    gate_alphabet,
    run_lpwpp,
    run_lwpp,
    run_posteqp,
    run_un,
    run_wn,
    run_zqp,
    simulate_circuit,
)

H_HALF = HalfGapFunction.power(2, 1, -1)


def allzero_pair(n):
    return make_dual_lwpp(allzero_verifier(n), H_HALF)


def all_inputs(n):
    return [bits_of(k, n) for k in range(2**n)]


def basis_term(width, label, amp=ONE):
    return StateVector.basis(width, label, amp)


def label(x, b_m, c, a, s=None, b_val=0):
    bits = "".join(str(v) for v in x) + format(b_val, f"0{b_m}b") + str(c) + str(a)
    if s is not None:
        bits += str(s)
    return bits


# -- brute-force state reconstructions ------------------------------------------


def expected_after_oracles(pair, x):
    """(1/sqrt(2)^(m+1)) sum over branches b and sides c of |x>|b>|c>|V_c(x,b)>."""
    n, m = pair.n, pair.m
    width = n + m + 2
    coeff = Amplitude(0, 1, 1)  # 1/sqrt(2)
    scale = ONE
    for _ in range(m + 1):
        scale = scale * coeff
    terms = {}
    for bkey in range(2**m):
        b = bits_of(bkey, m)
        for c in (0, 1):
            v = pair.side(c).eval(x, b)
            key = key_of(tuple(x) + b + (c, v))
            terms[key] = terms.get(key, ZERO) + scale
    return StateVector(width, terms)


def expected_after_second_hadamards(pair, x):
    """(1/(2^m sqrt(2))) sum over b, z, c of (-1)^(z.b) |x>|z>|c>|V_c(x,b)>."""
    n, m = pair.n, pair.m
    width = n + m + 2
    scale = Amplitude(0, 1, m + 1)  # 2^-m / sqrt(2)
    terms = {}
    for bkey in range(2**m):
        b = bits_of(bkey, m)
        for zkey in range(2**m):
            sign = -1 if bin(bkey & zkey).count("1") % 2 else 1
            for c in (0, 1):
                v = pair.side(c).eval(x, b)
                key = key_of(tuple(x) + bits_of(zkey, m) + (c, v))
                terms[key] = terms.get(key, ZERO) + scale.scale_int(sign)
    return StateVector(width, terms)


def expected_gap_state(pair, x):
    """Final Hadamard expanded by its sign formula: amplitude of |x,z,c,a> is
    (1/2^(m+1)) sum over b of (-1)^(z.b + a*V_c(x,b))."""
    n, m = pair.n, pair.m
    width = n + m + 2
    terms = {}
    for zkey in range(2**m):
        z = bits_of(zkey, m)
        for c in (0, 1):
            for a in (0, 1):
                acc = 0
                for bkey in range(2**m):
                    b = bits_of(bkey, m)
                    v = pair.side(c).eval(x, b)
                    sign = (bin(bkey & zkey).count("1") + a * v) % 2
                    acc += -1 if sign else 1
                if acc:
                    key = key_of(tuple(x) + z + (c, a))
                    terms[key] = Amplitude(acc, 0, m + 1)
    return StateVector(width, terms)


def residual_part(gap_state, n, m):
    """Component of the gap state outside the b = 0...0 block."""
    width = gap_state.width
    bmask = 0
    for w in range(n, n + m):
        bmask |= 1 << (width - 1 - w)
    return gap_state.filter_terms(lambda k: k & bmask != 0)


def expected_flagged_cycled(pair, x, p):
    """|x>|0^m>(p/2 |000> + p/2 |001> + delta |11 L(x)>) + p * cycled residual."""
    n, m = pair.n, pair.m
    lx = pair.language_bit(x)
    delta = gap_stats(pair.side(lx), x).delta
    c, a, s = n + m, n + m + 1, n + m + 2
    psi = expected_gap_state(pair, x)
    residual = residual_part(psi, n, m).append_wires(1).apply(Gate.perm((c, a, s), (s, c, a)))
    half_p = p * HALF
    state = residual.scale(p)
    state = state + basis_term(n + m + 3, label(x, m, 0, 0, 0), half_p)
    state = state + basis_term(n + m + 3, label(x, m, 0, 0, 1), half_p)
    state = state + basis_term(n + m + 3, label(x, m, 1, 1, lx), delta)
    return state


def test_build_un_rejects_size_mismatch():
    with pytest.raises(RegisterMismatchError):
        build_un(allzero_pair(2), 3)
    with pytest.raises(RegisterMismatchError):
        simulate_circuit(build_un(allzero_pair(2), 2), (0, 0, 1))


@pytest.mark.parametrize("name,n", [("allzero", 1), ("allzero", 2), ("parity", 2), ("empty", 1)])
def test_un_checkpoints_match_reconstructions(name, n):
    pair = builtin_problems()[name].pair(n)
    circuit = build_un(pair, n)
    for x in all_inputs(n):
        final, cps = simulate_circuit(circuit, x, record=True)
        assert cps["psi_1"] == expected_after_oracles(pair, x)
        assert cps["psi_2"] == expected_after_second_hadamards(pair, x)
        assert cps["psi_3"] == final
        assert final == expected_gap_state(pair, x)


def test_un_checkpoints_match_on_random_pairs():
    rng = random.Random(1234)
    for _ in range(5):
        pair = random_dual_pair(2, rng.randint(1, 3), rng)
        circuit = build_un(pair, 2)
        for x in all_inputs(2):
            final, _ = simulate_circuit(circuit, x)
            assert final == expected_gap_state(pair, x)


def test_un_gap_amplitude_identity():
    pair = allzero_pair(2)
    circuit = build_un(pair, 2)
    m = pair.m
    for x in all_inputs(2):
        final, _ = simulate_circuit(circuit, x)
        g0, g1 = pair.gap_reports(x)
        assert final.amplitude(label(x, m, 0, 1)) == g0.delta
        assert final.amplitude(label(x, m, 1, 1)) == g1.delta
        assert final.amplitude(label(x, m, 0, 0)) == HALF
        assert final.amplitude(label(x, m, 1, 0)) == HALF
        # the b = 0...0 block holds exactly those four (nonzero) components
        block = final.match("".join(str(v) for v in x) + "0" * m + "**")
        expected = {k for k, amp in [
            (label(x, m, 0, 0), HALF),
            (label(x, m, 1, 0), HALF),
            (label(x, m, 0, 1), g0.delta),
            (label(x, m, 1, 1), g1.delta),
        ] if not amp.is_zero()}
        assert {format(k, f"0{final.width}b") for k, _ in block} == expected


def test_un_is_unitary_and_residual_below_half():
    for name in ("allzero", "full", "parity"):
        pair = builtin_problems()[name].pair(2)
        circuit = build_un(pair, 2)
        for x in all_inputs(2):
            final, _ = simulate_circuit(circuit, x)
            assert final.norm_sq() == ONE
            residual = residual_part(final, pair.n, pair.m)
            assert residual.norm_sq() < HALF


def test_fig3_identity_scaling_matches_cycled_checkpoint():
    pair = allzero_pair(2)
    circuit = build_fig3(pair, 2, "n", p=ONE)
    for x in all_inputs(2):
        final, cps = simulate_circuit(circuit, x, record=True)
        assert final == cps["cycled"]


@pytest.mark.parametrize("name", ["allzero", "parity", "empty", "full"])
def test_fig3_final_state_equation(name):
    prob = builtin_problems()[name]
    for n in (1, 2):
        pair = prob.pair(n)
        m = pair.m
        p = Amplitude(1, 0, m)  # 2^-m from the B^m stage
        circuit = build_fig3(pair, n, "bm")
        for x in all_inputs(n):
            final, _ = simulate_circuit(circuit, x)
            assert final == expected_flagged_cycled(pair, x, p)


def test_fig3_generic_p_and_projector():
    pair = allzero_pair(2)
    x = (0, 0)
    final, _ = simulate_circuit(build_fig3(pair, 2, "n", p=HALF), x)
    assert final == expected_flagged_cycled(pair, x, HALF)
    # projector: only the success-flagged component survives
    final, _ = simulate_circuit(build_fig3(pair, 2, "proj1"), x)
    lx = pair.language_bit(x)
    delta = gap_stats(pair.side(lx), x).delta
    assert final == basis_term(final.width, label(x, pair.m, 1, 1, lx), delta)


def test_fig3_and_wn_final_states_on_random_pairs():
    rng = random.Random(77)
    for _ in range(4):
        pair = random_dual_pair(2, rng.randint(2, 3), rng)
        m = pair.m
        p = Amplitude(1, 0, m)
        circuit = build_fig3(pair, 2, "bm")
        for x in all_inputs(2):
            final, _ = simulate_circuit(circuit, x)
            assert final == expected_flagged_cycled(pair, x, p)
            outcome = run_wn(pair, x)
            lx = pair.language_bit(x)
            delta = gap_stats(pair.side(lx), x).delta
            width = 2 + m + 3
            expected = basis_term(width, label(x, m, 0, 0, 0)) + basis_term(
                width, label(x, m, lx, 0, 1), delta)
            assert outcome.final_state == expected


def test_fig3_failure_terms_have_amplitude_half_p():
    pair = allzero_pair(2)
    m = pair.m
    circuit = build_fig3(pair, 2, "bm")
    for x in all_inputs(2):
        final, _ = simulate_circuit(circuit, x)
        half_p = Amplitude(1, 0, m + 1)
        assert final.amplitude(label(x, m, 0, 0, 0)) == half_p
        assert final.amplitude(label(x, m, 0, 0, 1)) == half_p


def test_fig3_rejects_bad_gate_choice_and_p():
    pair = allzero_pair(1)
    with pytest.raises(ValueError):
        build_fig3(pair, 1, "nope")
    with pytest.raises(ValueError):
        build_fig3(pair, 1, "n", p=0.5)


def test_run_zqp_on_builtins():
    problems = builtin_problems()
    for name in ("allzero", "empty", "full", "parity", "coparity"):
        prob = problems[name]
        for n in (1, 2):
            pair = prob.pair(n)
            for x in all_inputs(n):
                outcome = run_zqp(pair, x)
                assert outcome.answer == prob.language(x)
                assert outcome.verdict == ("YES" if outcome.answer else "NO")
                # exact success probability strictly above one half, and the
                # failure mass is strictly below p^2 = 2^-2m
                assert outcome.failure_mass < outcome.success_mass
                assert outcome.failure_mass < Amplitude(1, 0, 2 * pair.m)
                lx = prob.language(x)
                delta = gap_stats(pair.side(lx), x).delta
                assert outcome.success_mass == delta * delta


def test_run_un_reads_gap_block():
    pair = allzero_pair(2)
    for x in all_inputs(2):
        outcome = run_un(pair, x)
        lx = pair.language_bit(x)
        assert outcome.answer == lx
        delta = gap_stats(pair.side(lx), x).delta
        assert outcome.success_mass == delta * delta
        assert outcome.success_mass + outcome.failure_mass == ONE


def test_run_zqp_rejects_invalid_pair():
    bogus = DualVerifierPair(balanced_verifier(1, 2), balanced_verifier(1, 2))
    with pytest.raises(DualityError):
        run_zqp(bogus, (0,))


def test_run_posteqp_on_builtins():
    problems = builtin_problems()
    for name in ("allzero", "full", "coparity"):
        prob = problems[name]
        for n in (1, 2):
            pair = prob.pair(n)
            for x in all_inputs(n):
                outcome = run_posteqp(pair, x)
                assert outcome.verdict == "POSTSELECTED"
                assert outcome.answer == prob.language(x)
                assert not outcome.success_mass.is_zero()
                # postselected support is a single basis term on the right answer
                assert len(outcome.final_state) == 1


def test_run_posteqp_checkpoint_trimming():
    pair = allzero_pair(1)
    assert run_posteqp(pair, (0,)).checkpoints == {}
    assert set(run_posteqp(pair, (0,), record=("psi_3",)).checkpoints) == {"psi_3"}
    assert "cycled" in run_posteqp(pair, (0,), record=True).checkpoints


def test_wn_checkpoints_match_displayed_chain():
    for name, n in [("allzero", 1), ("allzero", 2), ("parity", 2)]:
        pair = builtin_problems()[name].pair(n)
        m = pair.m
        circuit = build_wn(pair, n)
        for x in all_inputs(n):
            final, cps = simulate_circuit(circuit, x, record=True)
            psi = expected_gap_state(pair, x)
            lx = pair.language_bit(x)
            delta = gap_stats(pair.side(lx), x).delta
            width = n + m + 3

            assert cps["phi_1"] == psi.append_wires(1)

            # flag flips s exactly on the b = 0...0, a = 1 components
            flagged = StateVector(width, {})
            bmask_and_a = 0
            for w in range(n, n + m):
                bmask_and_a |= 1 << (width - 1 - w)
            a_bit = 1 << (width - 1 - (n + m + 1))
            for key, amp in psi.append_wires(1):
                if key & bmask_and_a == 0 and key & a_bit:
                    key |= 1
                flagged = flagged + StateVector(width, {key: amp})
            assert cps["phi_2"] == flagged

            assert cps["phi_3"] == psi.append_wires(1) + basis_term(
                width, label(x, m, lx, 1, 1), delta)

            assert final == cps["phi_4"]
            assert final == basis_term(width, label(x, m, 0, 0, 0)) + basis_term(
                width, label(x, m, lx, 0, 1), delta)


def test_wn_ancilla_failure_reports_term():
    pair = allzero_pair(1)
    circuit = build_wn(pair, 1)
    broken = Circuit(circuit.width, circuit.registers, circuit.gates[:-1])
    final, _ = simulate_circuit(broken, (0,))
    with pytest.raises(AncillaRestorationError) as info:
        check_ancillas_restored(final, broken)
    assert info.value.term.count("1") >= 1


def test_wn_changes_norm_un_does_not():
    pair = allzero_pair(2)
    x = (0, 0)
    un_final, _ = simulate_circuit(build_un(pair, 2), x)
    assert un_final.norm_sq() == ONE
    wn_final, _ = simulate_circuit(build_wn(pair, 2), x)
    assert wn_final.norm_sq() != ONE


def test_lwpp_decider_single_term():
    for n in (1, 2, 3):
        pair = allzero_pair(n)
        hv = H_HALF.value(n)
        for x in all_inputs(n):
            outcome = run_lwpp(pair, H_HALF, x)
            assert len(outcome.final_state) == 1
            lx = pair.language_bit(x)
            assert outcome.answer == lx
            expected = StateVector.basis(
                outcome.width, label(x, pair.m, 1, 0, lx), Amplitude(hv, 0, pair.m))
            assert outcome.final_state == expected


def test_lwpp_decider_rejects_corrupted_h():
    pair = allzero_pair(2)
    hv = H_HALF.value(2)
    x = (0, 0)
    with pytest.raises(ResidualTermError) as info:
        run_lwpp(pair, hv + 1, x)
    # the leftover |00> tail survives on (x, 0^m, c=0, a=0, s=0)
    assert "00" + "0" * pair.m + "000" in info.value.residuals


def test_lpwpp_matches_lwpp_exactly():
    for n in (1, 2, 3):
        pair = allzero_pair(n)
        t = n - 1  # h(n) = 2^(n-1)
        lw = build_lwpp_decider(pair, H_HALF, n)
        lp = build_lpwpp_decider(pair, 2, t, n)
        for x in all_inputs(n):
            final_lw, _ = simulate_circuit(lw, x)
            final_lp, _ = simulate_circuit(lp, x)
            assert final_lw == final_lp
            assert run_lpwpp(pair, 2, t, x).answer == pair.language_bit(x)


def test_lpwpp_gate_block_edge_cases():
    pair = allzero_pair(1)
    # t = 0: no G gates at all
    circuit = build_lpwpp_decider(pair, 2, 0, 1)
    assert "G" not in gate_alphabet(circuit)
    final, _ = simulate_circuit(circuit, (0,))
    assert len(final) == 1
    # M = 1 with any t is also the identity scaling
    circuit = build_lpwpp_decider(pair, 1, 5, 1)
    final_m1, _ = simulate_circuit(circuit, (0,))
    assert final_m1 == final


def test_decider_gate_alphabets():
    pair = allzero_pair(2)
    lw = gate_alphabet(build_lwpp_decider(pair, H_HALF, 2))
    lp = gate_alphabet(build_lpwpp_decider(pair, 2, 1, 2))
    fixed = {"X", "CNOT", "TOFFOLI", "MCX", "H", "S", "SINV", "B", "G", "D", "PERM", "ORACLE"}
    assert "A" in lw and "G" not in lw
    assert "A" not in lp
    assert lp <= fixed


def test_builder_validation():
    pair = allzero_pair(1)
    with pytest.raises(ValueError):
        build_lwpp_decider(pair, 0, 1)
    with pytest.raises(ValueError):
        build_lpwpp_decider(pair, 0, 1, 1)
    with pytest.raises(ValueError):
        build_lpwpp_decider(pair, 2, -1, 1)


def test_circuit_json_round_trip():
    pair = allzero_pair(1)
    circuit = build_lwpp_decider(pair, H_HALF, 1)
    dump = circuit.to_json()
    text = json.dumps(dump, sort_keys=True)
    verifiers = {pair.v0.name: pair.v0, pair.v1.name: pair.v1}
    rebuilt = Circuit.from_json(json.loads(text), verifiers)
    assert json.dumps(rebuilt.to_json(), sort_keys=True) == text
    final_a, _ = simulate_circuit(circuit, (1,))
    final_b, _ = simulate_circuit(rebuilt, (1,))
    assert final_a == final_b


# sha256 of every construction's JSON form (each circuit's parent too) on the
# pairs below; a change to any gate, its order or a checkpoint moves it.
PINNED_CONSTRUCTIONS_SHA256 = "198c9da3962234c493d83e3be6a5596c126e69bfbb91f8b5aae5a71ec6690d51"


def test_every_construction_keeps_its_gates_and_checkpoints():
    problems = builtin_problems()
    pairs = [problems[name].pair(n) for name in ("parity", "allzero") for n in (1, 2, 3)]
    pairs += [random_dual_pair(2, 3, random.Random(seed)) for seed in (11, 12)]
    p = Amplitude(3, 1, 2)
    digest = hashlib.sha256()
    for pair in pairs:
        n = pair.n
        for circuit in (build_un(pair, n), build_fig3(pair, n, "bm"),
                        build_fig3(pair, n, "proj1"), build_fig3(pair, n, "n", p),
                        build_wn(pair, n), build_lwpp_decider(pair, 3, n),
                        build_lpwpp_decider(pair, 2, 2, n)):
            for dumped in (circuit, circuit.parent):
                text = json.dumps(dumped and dumped.to_json(), sort_keys=True)
                digest.update(text.encode() + b"\n")
    assert digest.hexdigest() == PINNED_CONSTRUCTIONS_SHA256


def test_run_outcome_json_round_trip():
    pair = allzero_pair(1)
    outcome = run_zqp(pair, (0,), record=True)
    rebuilt = RunOutcome.from_json(json.loads(json.dumps(outcome.to_json())))
    assert rebuilt == outcome


def test_checkpoint_labels_unique():
    with pytest.raises(ValueError):
        Circuit(1, {"x": (0, 1)}, (), (("dup", 0), ("dup", 0)))


@pytest.mark.parametrize("pos", [-1, 2, 5])
def test_a_checkpoint_must_lie_within_the_gate_list(pos):
    """A checkpoint outside 0..len(gates) would never be captured, though
    checkpoint_labels() lists it: the circuit, and its JSON form, are refused."""
    message = re.escape(f"checkpoint 'late' at position {pos} lies outside 0..1")
    with pytest.raises(ValueError, match=message):
        Circuit(1, {"x": (0, 1)}, (Gate.h(0),), (("late", pos),))
    circuit = Circuit(1, {"x": (0, 1)}, (Gate.h(0),), (("start", 0), ("end", 1)))
    assert set(simulate_circuit(circuit, (0,), record=True)[1]) == {"start", "end"}
    dump = circuit.to_json()
    dump["checkpoints"].append(["late", pos])
    with pytest.raises(ValueError, match=message):
        Circuit.from_json(dump)


# -- shared prefixes --------------------------------------------------------------


def full_run(circuit, x):
    """Final and every checkpoint state of `circuit` run alone from |x 0...0>."""
    return simulate_circuit(dataclasses.replace(circuit, parent=None), x, record=True)


@pytest.mark.parametrize("head", [Gate.s(3), Gate.d(3, 1)], ids=["S", "D"])
def test_a_tail_that_starts_with_a_shear_leaves_the_parent_state_alone(head):
    """S and D change their terms in place no more than any other gate: a
    child of the same width shares its parent's final terms, and neither the
    parent's record nor a second child's run sees the first child's gates."""
    parent = Circuit(4, {"x": (0, 2)}, (Gate.h(2), Gate.h(3), Gate.cnot(0, 2)))
    first = Circuit(4, parent.registers, parent.gates + (head, Gate.h(1)), parent=parent)
    second = Circuit(4, parent.registers, parent.gates + (Gate.x(3),), parent=parent)
    x = (1, 0)
    parent_final, _ = simulate_circuit(parent, x)
    record = dict(parent.last[1])
    assert simulate_circuit(first, x)[0] == full_run(first, x)[0]
    assert first.last[1] != record and parent.last[1] == record
    assert simulate_circuit(second, x)[0] == full_run(second, x)[0]
    assert parent.last[1] == record and simulate_circuit(parent, x)[0] == parent_final


def test_a_child_must_start_with_its_parents_gates():
    parent = Circuit(2, {"x": (0, 1)}, (Gate.h(1),))
    with pytest.raises(ValueError, match="parent's gates"):
        Circuit(2, parent.registers, (Gate.x(1), Gate.h(1)), parent=parent)


def sweep_pairs():
    """The acceptance-sweep pairs and a few seeded random dual pairs, m <= 4."""
    pairs = [pair for pair, _ in builtin_pairs()] + [pair for pair, _ in lemma_pairs()]
    pairs += [random_dual_pair(1 + i % 3, 1 + i % 4, random.Random(1000 + i), name=f"random-{i}")
              for i in range(4)]
    return [pair for pair in pairs if pair.m <= 4]


def pair_runs(pair):
    """(run(x, record) -> (final, checkpoints), circuit it simulates) for every
    construction the pair supports, and the lwpp decider built from h + 1,
    which shares the wn parent and fails its own check, so it is run alone."""
    n = pair.n

    def outcome(run):
        def go(x, record):
            result = run(x, record)
            return result.final_state, result.checkpoints
        return go

    runs = [(outcome(partial(run_un, pair)), _built(pair, build_un, n)),
            (outcome(partial(run_zqp, pair)), _built(pair, build_fig3, n, "bm")),
            (outcome(partial(run_posteqp, pair)), _built(pair, build_fig3, n, "proj1")),
            (outcome(partial(run_wn, pair)), _built(pair, build_wn, n))]
    h = pair.h_witness
    if h is not None:
        hv = h.value(n)
        runs.append((outcome(partial(run_lwpp, pair, hv)), _built(pair, build_lwpp_decider, hv, n)))
        bumped = _built(pair, build_lwpp_decider, hv + 1, n)
        runs.append((partial(simulate_circuit, bumped), bumped))
        if h.kind == "power":
            base, t = h.base, h.exponent(n)
            runs.append((outcome(partial(run_lpwpp, pair, base, t)),
                         _built(pair, build_lpwpp_decider, base, t, n)))
    return runs


SWEEP = [(pair, pair_runs(pair)) for pair in sweep_pairs()]
FULL_RUNS: dict = {}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_runs_in_any_order_match_runs_from_the_start(data):
    """Whatever ran before it, each run gives the final state and checkpoints
    of the same circuit run alone; a step that records every checkpoint takes
    the full path wherever a checkpoint lies before the fork. Each example
    interleaves one or two pairs on a few inputs, so that children often find
    their parent's state."""
    chosen = data.draw(st.lists(st.integers(0, len(SWEEP) - 1), min_size=1, max_size=2,
                                unique=True))
    steps = data.draw(st.lists(st.tuples(st.sampled_from(chosen), st.integers(0, 6),
                                         st.integers(0, 1), st.booleans()),
                               min_size=8, max_size=40))
    for _, runs in SWEEP:
        for _, circuit in runs:
            circuit.last = None
    for pair_index, which, xkey, record in steps:
        pair, runs = SWEEP[pair_index]
        run, circuit = runs[which % len(runs)]
        x = bits_of(xkey % 2**pair.n, pair.n)
        key = (pair_index, which % len(runs), x)
        if key not in FULL_RUNS:
            FULL_RUNS[key] = full_run(circuit, x)
        final, checkpoints = run(x, record)
        assert final == FULL_RUNS[key][0]
        if record:
            assert checkpoints == FULL_RUNS[key][1]
