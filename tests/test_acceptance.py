"""Acceptance suite: one test per criterion, zero numerical tolerance.

Each criterion prints a single PASS/FAIL line (run with `pytest -s` to see
them live; pytest also replays captured output for failures).  Every
expected value is either computed by the brute-force branch-counting oracle
or fixed by exact ring arithmetic; no assertion uses a float.
"""
import functools
import json
import random
import time

import pytest

from quasiq.exactnum import HALF, ONE, ZERO, Amplitude
from quasiq.quasistate import Gate, StateVector, bits_of
from quasiq.verifierkit import (
    GapReport,
    HalfGapFunction,
    allzero_verifier,
    balanced_verifier,
    builtin_problems,
    const_verifier,
    equalize_branch_lengths,
    gap_stats,
    make_dual_lwpp,
    random_dual_pair,
    random_fixed_gap_base,
    table_verifier,
)
from quasiq.circuitgen import (
    Circuit,
    ResidualTermError,
    RunOutcome,
    build_lpwpp_decider,
    build_lwpp_decider,
    build_un,
    build_wn,
    gate_alphabet,
    run_lwpp,
    run_posteqp,
    run_wn,
    run_zqp,
    simulate_circuit,
)
from quasiq.harness.cli import EXIT_MISMATCH, EXIT_OK
from quasiq.harness.cli import main as cli_main
from quasiq.harness.dsl import parse_dsl, print_dsl
from quasiq.harness.problems import ProblemSpec

H_HALF = HalfGapFunction.power(2, 1, -1)
BUILTIN_PAIR_NAMES = ("allzero", "empty", "full", "parity", "coparity")


def criterion(num, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:>2} ({label}): FAIL")
                raise
            print(f"criterion {num:>2} ({label}): PASS")

        return wrapper

    return decorate


def all_inputs(n):
    return [bits_of(k, n) for k in range(2**n)]


def xs_label(x):
    return "".join(str(v) for v in x)


def builtin_pairs(max_n=3):
    problems = builtin_problems()
    return [
        (problems[name].pair(n), problems[name].language)
        for name in BUILTIN_PAIR_NAMES
        for n in range(1, max_n + 1)
    ]


@pytest.fixture(scope="module")
def gap_sweep():
    """Shared sweep for criteria 1 and 2: every builtin problem at n <= 3 plus
    50 seeded random dual pairs with n <= 3, m <= 5, each simulated on every
    input through the unitary gap-amplitude circuit."""
    pairs = [pair for pair, _ in builtin_pairs()]
    for i in range(50):
        rng = random.Random(1000 + i)
        n = 1 + i % 3
        m = 1 + i % 5
        pairs.append(random_dual_pair(n, m, rng, name=f"random-{i}"))
    start = time.monotonic()
    runs = []
    for pair in pairs:
        circuit = build_un(pair, pair.n)
        for x in all_inputs(pair.n):
            final, _ = simulate_circuit(circuit, x)
            runs.append((pair, x, final))
    elapsed = time.monotonic() - start
    return runs, elapsed


@criterion(1, "gap-amplitude identity")
def test_criterion_1_gap_amplitude_identity(gap_sweep):
    runs, elapsed = gap_sweep
    assert len(runs) >= 50
    for pair, x, final in runs:
        m = pair.m
        prefix = xs_label(x) + "0" * m
        g0, g1 = pair.gap_reports(x)
        assert final.amplitude(prefix + "01") == g0.delta
        assert final.amplitude(prefix + "11") == g1.delta
        assert final.amplitude(prefix + "00") == HALF
        assert final.amplitude(prefix + "10") == HALF
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"


@criterion(2, "residual mass strictly below 1/2")
def test_criterion_2_residual_bound(gap_sweep):
    runs, _ = gap_sweep
    for pair, x, final in runs:
        width = final.width
        bmask = 0
        for w in range(pair.n, pair.n + pair.m):
            bmask |= 1 << (width - 1 - w)
        residual = final.filter_terms(lambda k: k & bmask != 0)
        assert residual.norm_sq() < HALF


@criterion(3, "zero-error decision with success probability > 1/2")
def test_criterion_3_zqp_witness():
    for pair, language in builtin_pairs():
        for x in all_inputs(pair.n):
            outcome = run_zqp(pair, x)
            assert outcome.answer == language(x)
            assert outcome.verdict == ("YES" if language(x) else "NO")
            # exact probability > 1/2: success mass strictly exceeds failure mass
            assert outcome.failure_mass < outcome.success_mass
            # failure/success < (p/delta)^2 with p = 2^-m, i.e. failure < p^2
            p_squared = Amplitude(1, 0, 2 * pair.m)
            assert outcome.failure_mass < p_squared
            # zero mass on the wrong answer under the success projector
            _, conditional = outcome.final_state.project(outcome.width - 2, 1)
            wrong = conditional.filter_terms(lambda k: k & 1 != language(x))
            assert wrong.is_zero()


@criterion(4, "postselected decision is exact")
def test_criterion_4_posteqp_witness():
    for pair, language in builtin_pairs():
        for x in all_inputs(pair.n):
            outcome = run_posteqp(pair, x)
            assert not outcome.success_mass.is_zero()
            assert outcome.verdict == "POSTSELECTED"
            assert outcome.answer == language(x)
            wrong = outcome.final_state.filter_terms(lambda k: k & 1 != language(x))
            assert wrong.is_zero()


def lemma_pairs():
    """Lemma-derived fixed-half-gap pairs: the allzero family plus balanced,
    constant-reject, and seeded random bases."""
    entries = []
    for n in (1, 2, 3):
        entries.append((make_dual_lwpp(allzero_verifier(n), H_HALF), 2 ** (n - 1)))
    for h_value in (1, 3, 4):
        base = balanced_verifier(2, 3)
        entries.append(
            (make_dual_lwpp(base, HalfGapFunction.tabulated({2: h_value})), h_value))
    entries.append(
        (make_dual_lwpp(const_verifier(2, 2, 0), HalfGapFunction.tabulated({2: 2})), 2))
    for seed in range(6):
        rng = random.Random(7000 + seed)
        m = rng.randint(2, 4)
        h_value = rng.randint(1, 2 ** (m - 1))
        base = random_fixed_gap_base(2, m, h_value, rng, name=f"fixed-{seed}")
        entries.append(
            (make_dual_lwpp(base, HalfGapFunction.tabulated({2: h_value})), h_value))
    return entries


@criterion(5, "exact decider leaves one term (h/2^m)|x>|1>|L(x)>")
def test_criterion_5_lwpp_decider():
    for pair, h_value in lemma_pairs():
        n, m = pair.n, pair.m
        for x in all_inputs(n):
            outcome = run_lwpp(pair, h_value, x)
            lx = pair.language_bit(x)
            expected = StateVector.basis(
                outcome.width,
                xs_label(x) + "0" * m + "10" + str(lx),
                Amplitude(h_value, 0, m),
            )
            assert outcome.final_state == expected
            assert outcome.answer == lx
    # a corrupted witness must fail with a named residual term
    pair = make_dual_lwpp(allzero_verifier(2), H_HALF)
    for x in all_inputs(2):
        with pytest.raises(ResidualTermError) as info:
            run_lwpp(pair, H_HALF.value(2) + 1, x)
        assert xs_label(x) + "0" * pair.m + "000" in info.value.residuals


@criterion(6, "fixed gate alphabet reproduces the decider exactly")
def test_criterion_6_lpwpp_gate_set():
    fixed = {"X", "CNOT", "TOFFOLI", "MCX", "H", "S", "SINV", "B", "G", "D", "PERM", "ORACLE"}
    for n in (1, 2, 3):
        pair = make_dual_lwpp(allzero_verifier(n), H_HALF)
        lwpp = build_lwpp_decider(pair, H_HALF, n)
        lpwpp = build_lpwpp_decider(pair, 2, n - 1, n)
        alphabet = gate_alphabet(lpwpp)
        assert "A" not in alphabet
        assert alphabet <= fixed
        for x in all_inputs(n):
            final_a, _ = simulate_circuit(lwpp, x)
            final_b, _ = simulate_circuit(lpwpp, x)
            assert final_a == final_b


def test_power_witness_deciders_equal_the_closed_form():
    """verify checks each lpwpp row against (h/2^m)|x 0^m 1 0 L(x)> alone, with
    no second circuit: on every sweep pair with a witness M**t, both deciders
    reach that term, and the one built from h + 1 reaches neither it nor the
    term built from h + 1."""
    pairs = [pair for pair, _ in builtin_pairs()] + [pair for pair, _ in lemma_pairs()]
    checked = 0
    for pair in pairs:
        h = pair.h_witness
        if h is None or h.kind != "power":
            continue
        n, m, hv = pair.n, pair.m, h.value(pair.n)
        lwpp = build_lwpp_decider(pair, hv, n)
        lpwpp = build_lpwpp_decider(pair, h.base, h.exponent(n), n)
        bumped = build_lwpp_decider(pair, hv + 1, n)
        for x in all_inputs(n):
            label = xs_label(x) + "0" * m + "10" + str(pair.language_bit(x))
            term = StateVector.basis(lwpp.width, label, Amplitude(hv, 0, m))
            bumped_term = StateVector.basis(lwpp.width, label, Amplitude(hv + 1, 0, m))
            assert simulate_circuit(lwpp, x)[0] == term
            assert simulate_circuit(lpwpp, x)[0] == term
            final, _ = simulate_circuit(bumped, x)
            assert final != term and final != bumped_term
            checked += 1
    assert checked == 2 + 4 + 8 + 5 * (2 + 4 + 8)


@criterion(7, "lemma transforms: padding doubles the half-gap; duals validated")
def test_criterion_7_lemma_validations():
    rng = random.Random(555)
    verifiers = [
        allzero_verifier(2),
        allzero_verifier(4),
        const_verifier(1, 1, 0),
        const_verifier(2, 3, 1),
        balanced_verifier(3, 4),
    ]
    for n, m in ((2, 2), (3, 3), (2, 4)):
        table = {
            x: frozenset(v for v in range(2**m) if rng.getrandbits(1))
            for x in all_inputs(n)
        }
        verifiers.append(table_verifier(n, m, table, name=f"random-{n}x{m}"))
    for v in verifiers:
        for pad in (1, 2):
            padded = equalize_branch_lengths(v, v.m + pad)
            for x in all_inputs(v.n):
                assert gap_stats(padded, x).Delta == gap_stats(v, x).Delta * 2**pad

    for pair, h_value in lemma_pairs():
        for x in all_inputs(pair.n):
            g0, g1 = pair.gap_reports(x)
            assert g0.Delta * g1.Delta == 0
            assert (g0.Delta == 0) != (g1.Delta == 0)
            live = g1 if g0.Delta == 0 else g0
            assert live.delta == Amplitude(h_value, 0, pair.m)


@criterion(8, "gate algebra: inverses, H^2, norm behavior")
def test_criterion_8_gate_algebra():
    def random_state(rng, width):
        terms = {}
        for _ in range(rng.randrange(1, 7)):
            terms[rng.randrange(2**width)] = Amplitude(
                rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(0, 3))
        return StateVector(width, terms)

    class StubVerifier:
        n, m, name = 1, 2, "stub"

        @staticmethod
        def eval(x, b):
            return x[0] & b[0] & b[1]

    gates = [
        Gate.h(1),
        Gate.x(2),
        Gate.cnot(0, 3),
        Gate.toffoli(0, 1, 2),
        Gate.mcx(((0, 0), (1, 1), (3, 0)), 2),
        Gate.s(1),
        Gate.b(3),
        Gate.g(2, 3),
        Gate.a(0, 9),
        Gate.n(1, Amplitude(1, 0, 2)),
        Gate.d(1, 3),
        Gate.perm((0, 1, 2), (2, 0, 1)),
        Gate.swap(1, 3),
        Gate.oracle(StubVerifier, (0,), (1, 2), 3),
    ]
    for gate in gates:
        rng = random.Random(sum(gate.wires) + len(gate.kind))
        inverse = gate.inverse()
        for _ in range(100):
            state = random_state(rng, 4)
            assert state.apply(gate).apply(inverse) == state

    rng = random.Random(8)
    for _ in range(100):
        state = random_state(rng, 3)
        assert state.apply(Gate.h(1)).apply(Gate.h(1)) == state

    # the unitary construction preserves the exact norm on every sweep input
    for pair, _ in builtin_pairs(max_n=2):
        circuit = build_un(pair, pair.n)
        for x in all_inputs(pair.n):
            final, _ = simulate_circuit(circuit, x)
            assert final.norm_sq() == ONE

    witnesses = [
        (Gate.s(0), StateVector.basis(1, "1")),
        (Gate.b(0), StateVector.basis(1, "0")),
        (Gate.g(0, 2), StateVector.basis(1, "0")),
        (Gate.d(0, 1), StateVector.basis(2, "10")),
    ]
    for gate, state in witnesses:
        assert state.apply(gate).norm_sq() != state.norm_sq()


@criterion(9, "uncomputation restores every ancilla; checkpoint chain matches")
def test_criterion_9_wn_ancilla_restoration():
    test_pairs = [pair for pair, _ in builtin_pairs(max_n=2)]
    for seed in (21, 22):
        rng = random.Random(seed)
        test_pairs.append(random_dual_pair(2, rng.randint(1, 3), rng, name=f"wn-{seed}"))
    for pair in test_pairs:
        n, m = pair.n, pair.m
        width = n + m + 3
        un = build_un(pair, n)
        for x in all_inputs(n):
            outcome = run_wn(pair, x, record=True)  # raises on any stray ancilla bit
            psi, _ = simulate_circuit(un, x)
            lx = pair.language_bit(x)
            delta = gap_stats(pair.side(lx), x).delta
            gap_term = StateVector.basis(
                width, xs_label(x) + "0" * m + str(lx) + "11", delta)

            # flag stage: s flips exactly on the b = 0...0, a = 1 components
            expected_phi2 = StateVector(width, {})
            bmask = 0
            for w in range(n, n + m):
                bmask |= 1 << (width - 1 - w)
            a_bit = 1 << (width - 1 - (n + m + 1))
            for key, amp in psi.append_wires(1):
                if key & bmask == 0 and key & a_bit:
                    key |= 1
                expected_phi2 = expected_phi2 + StateVector(width, {key: amp})
            assert outcome.checkpoints["phi_2"] == expected_phi2

            # after the shear: the full gap state plus the flagged term
            assert outcome.checkpoints["phi_3"] == psi.append_wires(1) + gap_term

            expected_final = StateVector.basis(
                width, xs_label(x) + "0" * m + "000") + StateVector.basis(
                width, xs_label(x) + "0" * m + str(lx) + "01", delta)
            assert outcome.final_state == expected_final


@criterion(10, "harness: full sweep exits 0, DSL fixpoints, JSON round trips")
def test_criterion_10_harness(capsys, tmp_path):
    start = time.monotonic()
    code = cli_main(["verify", "--problem", "allzero", "--n", "2"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert elapsed < 10.0, f"verify sweep took {elapsed:.1f}s"
    report = json.loads(out)
    assert report["ok"] is True
    assert {row["construction"] for row in report["results"]} == {
        "un", "fig3-zqp", "fig3-post", "wn", "lwpp", "lpwpp"}

    # fault injection: corrupted witness flips the exit code and names inputs
    code = cli_main(["verify", "--problem", "allzero", "--n", "2",
                     "--construction", "lwpp", "--corrupt-h"])
    out = capsys.readouterr().out
    assert code == EXIT_MISMATCH
    failed = [row for row in json.loads(out)["results"] if not row["ok"]]
    assert failed and all(row["input"] for row in failed)

    corpus = [
        "x[0]",
        "b[1]",
        "0",
        "1",
        "!x[0]",
        "!!b[2]",
        "x[0] & b[0]",
        "x[0] | b[0]",
        "x[0] ^ b[0]",
        "x[0] & b[0] & b[1]",
        "x[0] | x[1] | x[2]",
        "x[0] ^ x[1] ^ x[2]",
        "x[0] & (b[0] | b[1])",
        "(x[0] ^ b[0]) & b[1]",
        "!(x[0] & b[0])",
        "!x[0] & !b[0]",
        "parity(x)",
        "parity(b)",
        "parity(x & b)",
        "parity(x) ^ parity(b)",
        "1 ^ parity(x & b)",
        "x[0] & b[0] ^ x[1] & b[1]",
        "x[0] | x[1] & b[0]",
        "(x[0] | x[1]) & b[0]",
        "!(x[0] | b[0]) ^ 1",
        "x[0] ^ (x[1] ^ x[2])",
        "x[0] & !b[0] | !x[0] & b[0]",
        "parity(x & b) ^ x[0] & b[1]",
        "!parity(b) | x[0]",
        "(0 | 1) & x[0] ^ !b[1]",
    ]
    assert len(corpus) == 30
    for text in corpus:
        expr = parse_dsl(text)
        printed = print_dsl(expr)
        assert parse_dsl(printed) == expr
        assert print_dsl(parse_dsl(printed)) == printed

    # JSON round trips for every emitted artifact
    amp = Amplitude(-(10**30), 7, 9)
    assert Amplitude.from_json(json.loads(json.dumps(amp.to_json()))) == amp

    report = gap_stats(allzero_verifier(2), (0, 1))
    assert GapReport.from_json(json.loads(json.dumps(report.to_json()))) == report

    pair = make_dual_lwpp(allzero_verifier(2), H_HALF)
    outcome = run_zqp(pair, (0, 0), record=True)
    assert RunOutcome.from_json(json.loads(json.dumps(outcome.to_json()))) == outcome

    circuit = build_lwpp_decider(pair, H_HALF, 2)
    dump = json.dumps(circuit.to_json(), sort_keys=True)
    verifiers = {pair.v0.name: pair.v0, pair.v1.name: pair.v1}
    rebuilt = Circuit.from_json(json.loads(dump), verifiers)
    assert json.dumps(rebuilt.to_json(), sort_keys=True) == dump

    spec_obj = {
        "name": "allzero-dsl",
        "n": {"min": 1, "max": 3},
        "m": {"affine": {"a": 1, "b": 0}},
        "verifier": {"kind": "dsl", "base": "parity(x & b)"},
        "h": {"kind": "power", "M": 2, "t": {"a": 1, "b": -1}},
        "dual": "derive-via-lemma",
    }
    spec = ProblemSpec.from_json(spec_obj)
    assert ProblemSpec.from_json(json.loads(json.dumps(spec.to_json()))).to_json() == spec_obj

    state = outcome.final_state
    assert StateVector.from_json(json.loads(json.dumps(state.to_json()))) == state
