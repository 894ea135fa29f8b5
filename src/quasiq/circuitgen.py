"""Compile dual verifier pairs into gap-amplitude circuits and run them.

Five builders make six constructions on one wire layout, registers in the
fixed order x (n wires), b (m wires), c, a, and s (when present):

* the unitary gap-amplitude circuit: Hadamards on b and c, the two verifier
  oracles XORed onto a (conditioned on c = 0 resp. c = 1), Hadamards on b,
  then a Hadamard on a — after which the b = 0...0 block carries amplitude
  1/2 on |c 0> and the normalized half-gap delta_c on |c 1>;
* its zero-error / postselected extension: a multiply-controlled NOT flags
  success on s, the last three wires are cyclically relabeled so the flag
  sits second-to-last and the answer last, and a diag(p, 1) stage (p = 2^-m
  via B gates, a generic exact p, or a projector) suppresses failure mass;
* the uncomputing variant: flag, one S gate on s, then the whole unitary
  block inverted under an s = 0 control, leaving the b and a ancillas at 0
  in every surviving component;
* the exact deciders: the uncomputed state is fed through B^m and a scaling
  gate matching the half-gap witness, and a D gate cancels the |00> tail
  exactly, leaving the single term (h/2^m)|x>|1>|L(x)> — with the scaling
  gate either input-length dependent (diag(h, 1)) or expanded into t copies
  of the fixed gate diag(M, 1) when h = M^t.

Checkpoints label the intermediate states (psi_1..psi_3, flagged, cycled,
phi_1..phi_4, swapped, scaled) so each displayed identity can be checked
term by term. Circuits nest, un -> fig3 and wn -> both deciders: each builder
names only its own labelled segments, and _chain appends them to the parent's
gates and places a checkpoint where each ends. A child run on the x its
parent last ran on starts from the parent's final state.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from weakref import WeakKeyDictionary

from quasiq.exactnum import HALF, ONE, ZERO, Amplitude
from quasiq.quasistate import Gate, StateVector, _NumeratorState, bits_label, key_of, label_of
from quasiq.verifierkit import DualVerifierPair, HalfGapFunction

VERDICT_YES = "YES"
VERDICT_NO = "NO"
VERDICT_FAIL = "FAIL-branch-mass"
VERDICT_POSTSELECTED = "POSTSELECTED"

GATE_CHOICES = ("bm", "n", "proj1")


class RegisterMismatchError(ValueError):
    """Input or verifier sizes do not fit the circuit's registers."""


class AncillaRestorationError(ValueError):
    """A surviving component left an ancilla wire nonzero."""

    def __init__(self, message: str, term: str):
        super().__init__(message)
        self.term = term


class ResidualTermError(ValueError):
    """The decider output is not the expected single basis term."""

    def __init__(self, message: str, residuals: list[str]):
        super().__init__(message)
        self.residuals = residuals


class PostselectionError(ValueError):
    """The postselected event has zero mass (signals an invalid pair)."""


class SimulationInvariantError(RuntimeError):
    """Simulation and oracle disagree; construction bug or invalid pair."""


@dataclass
class Circuit:
    """Gate list on named registers, with labeled checkpoint positions. A child
    circuit starts with its parent's gates, on the same wires plus extra ones
    last; `last` is (x key, numerator terms, k) after the circuit's last run."""

    width: int
    registers: dict[str, tuple[int, int]]
    gates: tuple[Gate, ...]
    checkpoints: tuple[tuple[str, int], ...] = ()
    parent: Circuit | None = field(default=None, compare=False, repr=False)
    last: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        labels = [label for label, _ in self.checkpoints]
        if len(labels) != len(set(labels)):
            raise ValueError("checkpoint labels must be unique")
        for label, pos in self.checkpoints:
            if not 0 <= pos <= len(self.gates):
                raise ValueError(f"checkpoint {label!r} at position {pos} lies outside "
                                 f"0..{len(self.gates)}")
        if self.parent is not None and self.gates[:len(self.parent.gates)] != self.parent.gates:
            raise ValueError("a circuit must start with its parent's gates")
        for gate in self.gates:
            for w in gate.all_wires():
                if not 0 <= w < self.width:
                    raise RegisterMismatchError(f"gate wire {w} outside width {self.width}")

    def register_wires(self, name: str) -> tuple[int, ...]:
        start, length = self.registers[name]
        return tuple(range(start, start + length))

    def wire(self, name: str) -> int:
        start, length = self.registers[name]
        if length != 1:
            raise ValueError(f"register {name!r} spans {length} wires")
        return start

    def checkpoint_labels(self) -> list[str]:
        return [label for label, _ in self.checkpoints]

    def to_json(self) -> dict:
        return {
            "width": self.width,
            "registers": {name: list(span) for name, span in self.registers.items()},
            "gates": [g.to_json() for g in self.gates],
            "checkpoints": [[label, pos] for label, pos in self.checkpoints],
        }

    @classmethod
    def from_json(cls, obj: dict, verifiers: dict | None = None) -> Circuit:
        return cls(
            width=obj["width"],
            registers={name: tuple(span) for name, span in obj["registers"].items()},
            gates=tuple(Gate.from_json(g, verifiers) for g in obj["gates"]),
            checkpoints=tuple((label, pos) for label, pos in obj["checkpoints"]),
        )


def gate_alphabet(circuit: Circuit) -> set[str]:
    """Display labels of every gate used, controlled X collapsing to CNOT/TOFFOLI/MCX."""
    return {gate.label() for gate in circuit.gates}


def simulate_circuit(circuit: Circuit, x_bits, record=False) -> tuple[StateVector, dict[str, StateVector]]:
    """Run the circuit on |x>|0...0> and capture checkpoint states.

    record: False for none, True for all checkpoints, or an iterable of labels.
    """
    n = circuit.registers["x"][1]
    if len(x_bits) != n:
        raise RegisterMismatchError(f"input has {len(x_bits)} bits, x register has {n} wires")
    wanted = set(circuit.checkpoint_labels()) if record is True else set(record or ())
    by_position: dict[int, list[str]] = {}
    for label, pos in circuit.checkpoints:
        if label in wanted:
            by_position.setdefault(pos, []).append(label)

    # Gates run on integer numerators, one segment between recorded
    # checkpoints at a time; StateVectors are built only at the end of each
    # segment. A child run on the x its parent last ran on, with no recorded
    # checkpoint before the fork, starts from the parent's final terms,
    # shared, as no gate changes a terms dict in place.
    xkey = key_of(x_bits)
    state = _NumeratorState(circuit.width, xkey << (circuit.width - n))
    captured: dict[str, StateVector] = {}
    gates, start, parent = circuit.gates, 0, circuit.parent
    if (parent and parent.last and parent.last[0] == xkey
            and min(by_position, default=len(gates)) >= len(parent.gates)):
        _, terms, state.k = parent.last
        lift = circuit.width - parent.width
        state.terms = {key << lift: value for key, value in terms.items()} if lift else terms
        start = len(parent.gates)
    for stop in sorted({*by_position, len(gates)}):
        state.run(gates[start:stop])
        start = stop
        snapshot = state.to_state()
        for label in by_position.get(stop, ()):
            captured[label] = snapshot
    circuit.last = (xkey, state.terms, state.k)
    return snapshot, captured


@dataclass
class RunOutcome:
    """Result of one simulation: exact masses, verdict, and checkpoint states."""

    construction: str
    input: str
    verdict: str
    answer: int | None
    success_mass: Amplitude
    failure_mass: Amplitude
    final_state: StateVector
    width: int
    checkpoints: dict[str, StateVector] = field(default_factory=dict)

    def to_json(self, final_state: bool = True, checkpoints: bool = True) -> dict:
        """The outcome as JSON; a state left out by its flag is not serialized."""
        obj = {
            "construction": self.construction,
            "input": self.input,
            "verdict": self.verdict,
            "answer": self.answer,
            "success_mass": self.success_mass.to_json(),
            "failure_mass": self.failure_mass.to_json(),
            "width": self.width,
        }
        if final_state:
            obj["final_state"] = self.final_state.to_json()
        if checkpoints:
            obj["checkpoints"] = {label: state.to_json()
                                  for label, state in sorted(self.checkpoints.items())}
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> RunOutcome:
        width = obj["width"]
        return cls(
            construction=obj["construction"],
            input=obj["input"],
            verdict=obj["verdict"],
            answer=obj["answer"],
            success_mass=Amplitude.from_json(obj["success_mass"]),
            failure_mass=Amplitude.from_json(obj["failure_mass"]),
            final_state=StateVector.from_json(obj["final_state"], width),
            width=width,
            checkpoints={
                label: StateVector.from_json(dump, width)
                for label, dump in obj["checkpoints"].items()
            },
        )


def _outcome(construction: str, x_bits, final: StateVector, captured: dict, answer: int | None,
             success_mass: Amplitude, failure_mass: Amplitude,
             verdict: str | None = None) -> RunOutcome:
    """A run's outcome; by default the verdict is YES/NO from the answer, or
    FAIL-branch-mass when the run certified no answer."""
    if verdict is None:
        verdict = VERDICT_FAIL if answer is None else (VERDICT_YES if answer else VERDICT_NO)
    return RunOutcome(construction, bits_label(x_bits), verdict, answer, success_mass,
                      failure_mass, final, final.width, captured)


# -- circuit builders -------------------------------------------------------------


# Circuits already built, by pair and builder arguments, shared by every run of
# a pair and by the child builders, whose parent is thus the circuit the runs
# use. The keys are weak, so the circuits go with their pair.
_BUILT: WeakKeyDictionary = WeakKeyDictionary()


def _built(pair: DualVerifierPair, build, *args) -> Circuit:
    """build(pair, *args), built once per pair, builder and arguments."""
    circuits = _BUILT.setdefault(pair, {})
    key = (build, args)
    if key not in circuits:
        circuits[key] = build(pair, *args)
    return circuits[key]


def _chain(parent: Circuit | None, width: int, registers: dict[str, tuple[int, int]],
           segments, checkpoints=()) -> Circuit:
    """The parent's gates, then each (gates, label) segment in turn, with
    checkpoint `label` where its segment ends (an empty segment labels the
    fork); `checkpoints` come first, at positions already counted."""
    gates = list(parent.gates) if parent else []
    checkpoints = list(checkpoints)
    for segment, label in segments:
        gates.extend(segment)
        checkpoints.append((label, len(gates)))
    return Circuit(width, registers, tuple(gates), tuple(checkpoints), parent)


def build_un(pair: DualVerifierPair, n: int) -> Circuit:
    """Unitary gap-amplitude circuit on registers (x, b, c, a)."""
    if pair.n != n:
        raise RegisterMismatchError(f"pair expects n = {pair.n}, circuit built for n = {n}")
    m = pair.m
    x_wires, b_wires = tuple(range(n)), tuple(range(n, n + m))
    c, a = n + m, n + m + 1
    b_layer = [Gate.h(w) for w in b_wires]
    oracles = [Gate.oracle(pair.v0, x_wires, b_wires, a, controls=((c, 0),)),
               Gate.oracle(pair.v1, x_wires, b_wires, a, controls=((c, 1),))]
    registers = {"x": (0, n), "b": (n, m), "c": (c, 1), "a": (a, 1)}
    return _chain(None, n + m + 2, registers, (
        ([*b_layer, Gate.h(c), *oracles], "psi_1"),
        (b_layer, "psi_2"),
        ([Gate.h(a)], "psi_3"),
    ))


def _success_flag(un: Circuit) -> Gate:
    """The MCX that writes the success flag: controls b = 0...0 and a = 1, target s."""
    return Gate.mcx([(w, 0) for w in un.register_wires("b")] + [(un.wire("a"), 1)], un.width)


def build_fig3(pair: DualVerifierPair, n: int, gate_choice: str = "bm",
               p: Amplitude | None = None) -> Circuit:
    """Zero-error / postselected circuit: flag, cycle, then the diag(p, 1) stage.

    gate_choice picks the stage: "bm" uses m B gates (p = 2^-m), "n" a single
    diag(p, 1) with the given exact p, "proj1" the postselecting projector.
    """
    if gate_choice not in GATE_CHOICES:
        raise ValueError(f"gate_choice must be one of {GATE_CHOICES}")
    un = _built(pair, build_un, n)
    m = pair.m
    c, a, s = n + m, n + m + 1, n + m + 2
    if gate_choice == "bm":
        stage = [Gate.b(a)] * m
    elif gate_choice == "n":
        stage = [Gate.n(a, p)]  # Gate refuses a p that is no Amplitude
    else:
        stage = [Gate.proj(a, 1)]
    # The cycle relabels the last three wires: the flag moves to a
    # (second-to-last) and the answer bit held on c moves to s (last).
    return _chain(un, un.width + 1, {**un.registers, "s": (s, 1)}, (
        ([], "psi_3"),
        ([_success_flag(un)], "flagged"),
        ([Gate.perm((c, a, s), (s, c, a))], "cycled"),
        (stage, "final"),
    ))


def build_wn(pair: DualVerifierPair, n: int) -> Circuit:
    """Uncomputing circuit: flag on s, S gate, inverse unitary block under an
    s = 0 control, then a flip of a under an s = 1 control.

    Every surviving output component returns the b register and a to 0.
    """
    un = _built(pair, build_un, n)
    m = pair.m
    a, s = n + m + 1, n + m + 2
    uncompute = [g.inverse().with_controls(((s, 0),)) for g in reversed(un.gates)]
    return _chain(un, un.width + 1, {**un.registers, "s": (s, 1)}, (
        ([], "phi_1"),
        ([_success_flag(un)], "phi_2"),
        ([Gate.s(s)], "phi_3"),
        ([*uncompute, Gate.cnot(s, a)], "phi_4"),
    ))


def _decider_tail(pair: DualVerifierPair, n: int, scaling: list[Gate]) -> Circuit:
    wn = _built(pair, build_wn, n)
    c, s = wn.wire("c"), wn.wire("s")
    return _chain(wn, wn.width, wn.registers, (
        ([Gate.swap(c, s)], "swapped"),
        ([Gate.b(c)] * pair.m + scaling, "scaled"),
        ([Gate.d(c, s)], "final"),
    ), wn.checkpoints)


def _witness_value(h, n: int) -> int:
    """h(n) of a HalfGapFunction h, or h itself as a plain positive integer."""
    hv = h.value(n) if isinstance(h, HalfGapFunction) else int(h)
    if hv < 1:
        raise ValueError(f"half-gap value must be positive, got {hv}")
    return hv


def build_lwpp_decider(pair: DualVerifierPair, h, n: int) -> Circuit:
    """Exact decider with the input-length-dependent gate diag(h(n), 1).

    h may be a HalfGapFunction or a plain positive integer (the value at n).
    """
    c = n + pair.m
    return _decider_tail(pair, n, [Gate.a(c, _witness_value(h, n))])


def build_lpwpp_decider(pair: DualVerifierPair, base: int, t: int, n: int) -> Circuit:
    """Exact decider over the fixed gate alphabet: diag(h, 1) expanded into
    t copies of diag(base, 1), valid when h = base**t."""
    if base < 1:
        raise ValueError("gate base M must be at least 1")
    if t < 0:
        raise ValueError("exponent t must be nonnegative")
    c = n + pair.m
    circuit = _decider_tail(pair, n, [Gate.g(c, base) for _ in range(t)])
    if "A" in gate_alphabet(circuit):
        raise SimulationInvariantError(
            "fixed-gate-set circuit still contains a length-dependent gate")
    return circuit


# -- runs -------------------------------------------------------------------------


def _single_wire_value(state: StateVector, wire: int, context: str) -> int:
    values = {(key >> (state.width - 1 - wire)) & 1 for key, _ in state}
    if len(values) != 1:
        raise SimulationInvariantError(f"{context}: support spans both values of wire {wire}")
    return values.pop()


def run_un(pair: DualVerifierPair, x_bits, record=False) -> RunOutcome:
    """Run the unitary gap-amplitude circuit.

    success_mass is the mass of the b = 0...0, a = 1 block (the gap
    components); for a dual pair that block is a single term whose c bit is
    the language bit. The b = 0...0 block must hold 1/2 on |c 0> and the
    oracle's delta_c on |c 1>, the norm must stay 1, and the rest of the
    state must carry mass below 1/2.
    """
    n, m = pair.n, pair.m
    lx = pair.language_bit(tuple(x_bits))
    circuit = _built(pair, build_un, n)
    final, captured = simulate_circuit(circuit, x_bits, record)
    pattern = bits_label(x_bits) + "0" * m + "*1"
    block = final.match(pattern)
    success_mass = sum((amp * amp for _, amp in block), ZERO)
    norm = final.norm_sq()
    failure_mass = norm - success_mass
    c = circuit.wire("c")
    gap_block = StateVector(final.width, dict(block))
    answer = _single_wire_value(gap_block, c, "gap-amplitude block")
    if answer != lx:
        raise SimulationInvariantError(
            f"gap-amplitude block sits on c = {answer}, oracle says L(x) = {lx}")
    prefix = key_of(x_bits) << (m + 2)  # |x 0^m 0 0>
    for c, report in enumerate(pair.gap_reports(tuple(x_bits))):
        got = final.amplitude(prefix | c << 1 | 1)
        if got != report.delta:
            raise SimulationInvariantError(
                f"amplitude at c={c} is {got}, oracle delta is {report.delta}")
        if final.amplitude(prefix | c << 1) != HALF:
            raise SimulationInvariantError(f"amplitude of |{c}0> block is not 1/2")
    if norm != ONE:
        raise SimulationInvariantError("unitary circuit did not preserve the norm")
    # The b = 0...0 block now holds 1/2 plus the gap mass, so the rest is failure_mass - 1/2.
    if not failure_mass - HALF < HALF:
        raise SimulationInvariantError("residual mass is not strictly below 1/2")
    return _outcome("un", x_bits, final, captured, answer, success_mass, failure_mass)


def run_zqp(pair: DualVerifierPair, x_bits, record=False) -> RunOutcome:
    """Zero-error run with p = 2^-m: success flag on a, answer on s.

    The exact success probability is certified strictly greater than 1/2
    (success mass > failure mass), the success-conditioned component is
    checked to carry zero mass on the wrong answer, and the success mass must
    be the square of the oracle's live delta.
    """
    n = pair.n
    lx = pair.language_bit(tuple(x_bits))  # DualityError on an invalid pair
    circuit = _built(pair, build_fig3, n, "bm")
    final, captured = simulate_circuit(circuit, x_bits, record)
    a, s = circuit.wire("a"), circuit.wire("s")
    success_mass, conditional = final.project(a, 1)
    failure_mass = final.norm_sq() - success_mass
    wrong_mass = sum(
        (amp * amp for key, amp in conditional
         if (key >> (final.width - 1 - s)) & 1 != lx),
        ZERO,
    )
    if not wrong_mass.is_zero():
        raise SimulationInvariantError(
            f"success-conditioned state has mass {wrong_mass} on answer {1 - lx}")
    answer = None
    if failure_mass < success_mass:
        answer = _single_wire_value(conditional, s, "zero-error conditional")
    live = pair.gap_reports(tuple(x_bits))[lx]
    if success_mass != live.delta * live.delta:
        raise SimulationInvariantError("success mass differs from the squared gap amplitude")
    return _outcome("fig3-zqp", x_bits, final, captured, answer, success_mass, failure_mass)


def run_posteqp(pair: DualVerifierPair, x_bits, record=False) -> RunOutcome:
    """Postselected run: project a onto 1; the conditional state must be
    supported entirely on the correct answer and have nonzero mass."""
    n = pair.n
    lx = pair.language_bit(tuple(x_bits))
    circuit = _built(pair, build_fig3, n, "proj1")
    # The pre-projection state is always captured to report the rejected mass.
    wanted = True if record is True else set(record or ()) | {"cycled"}
    final, captured = simulate_circuit(circuit, x_bits, wanted)
    success_mass = final.norm_sq()
    if success_mass.is_zero():
        raise PostselectionError(
            f"postselection mass is zero at x = {bits_label(x_bits)} "
            "(signals an invalid pair)")
    failure_mass = captured["cycled"].norm_sq() - success_mass
    if record is not True:
        captured = {k: v for k, v in captured.items() if k in set(record or ())}
    s = circuit.wire("s")
    answer = _single_wire_value(final, s, "postselected state")
    if answer != lx:
        raise SimulationInvariantError(
            f"postselected answer {answer} contradicts the oracle value {lx}")
    return _outcome("fig3-post", x_bits, final, captured, answer, success_mass, failure_mass,
                    VERDICT_POSTSELECTED)


def check_ancillas_restored(state: StateVector, circuit: Circuit) -> None:
    """Every surviving component must hold the b register and a at zero."""
    ancilla_wires = circuit.register_wires("b") + (circuit.wire("a"),)
    mask = 0
    for w in ancilla_wires:
        mask |= 1 << (state.width - 1 - w)
    for key, _ in state:
        if key & mask:
            term = label_of(key, state.width)
            raise AncillaRestorationError(
                f"component |{term}> leaves an ancilla nonzero", term=term)


def run_wn(pair: DualVerifierPair, x_bits, record=False) -> RunOutcome:
    """Run the uncomputing circuit and verify ancilla restoration and the
    closed form |x 0^m>(|000> + delta|L(x) 0 1>).

    success_mass is the mass of the s = 1 (gap-indicator) component; the
    answer is that component's c bit.
    """
    n, m = pair.n, pair.m
    lx = pair.language_bit(tuple(x_bits))
    circuit = _built(pair, build_wn, n)
    final, captured = simulate_circuit(circuit, x_bits, record)
    check_ancillas_restored(final, circuit)
    c, s = circuit.wire("c"), circuit.wire("s")
    success_mass, indicator = final.project(s, 1)
    failure_mass = final.norm_sq() - success_mass
    answer = None
    if not indicator.is_zero():
        answer = _single_wire_value(indicator, c, "gap-indicator component")
    prefix = key_of(x_bits) << (m + 3)
    delta = pair.gap_reports(tuple(x_bits))[lx].delta
    if final != StateVector(final.width, {prefix: ONE, prefix | lx << 2 | 1: delta}):
        raise SimulationInvariantError(
            "uncomputed state differs from |x>(|00> + delta|L>|1>) plus ancillas")
    return _outcome("wn", x_bits, final, captured, answer, success_mass, failure_mass)


def decider_term(pair: DualVerifierPair, x_bits, h: int) -> StateVector:
    """Both exact deciders' closed-form output (h/2^m)|x 0^m 1 0 L(x)>."""
    m = pair.m
    key = key_of(x_bits) << (m + 3) | 0b100 | pair.language_bit(tuple(x_bits))
    return StateVector.basis(pair.n + m + 3, key, Amplitude(h, 0, m))


def _run_decider(circuit: Circuit, construction: str, pair: DualVerifierPair, h: int, x_bits,
                 record, mismatch: str) -> RunOutcome:
    """Run a decider built for witness value h: its output must be the single
    term decider_term(pair, x, h), else ResidualTermError or the `mismatch`."""
    final, captured = simulate_circuit(circuit, x_bits, record)
    stem = key_of(x_bits) << (pair.m + 2) | 0b10  # |x 0^m 1 0>: every wire but the answer
    residuals = [label_of(key, final.width) for key, _ in final if key >> 1 != stem]
    if residuals or len(final) != 1:
        residuals = residuals or final.labels()
        raise ResidualTermError(f"decider output is not a single clean term at x = "
                                f"{bits_label(x_bits)}; residual terms: {residuals}", residuals)
    if final != decider_term(pair, x_bits, h):
        raise SimulationInvariantError(mismatch)
    answer = pair.language_bit(tuple(x_bits))
    return _outcome(construction, x_bits, final, captured, answer, final.norm_sq(), ZERO)


def run_lwpp(pair: DualVerifierPair, h, x_bits, record=False) -> RunOutcome:
    """Exact decider run; raises ResidualTermError when the half-gap witness
    fails to cancel the |00> tail."""
    hv = _witness_value(h, pair.n)
    circuit = _built(pair, build_lwpp_decider, hv, pair.n)
    return _run_decider(circuit, "lwpp", pair, hv, x_bits, record,
                        "decider output is not the single term (h/2^m)|x>|1>|L(x)>")


def run_lpwpp(pair: DualVerifierPair, base: int, t: int, x_bits, record=False) -> RunOutcome:
    """Exact decider run over the fixed gate alphabet, h = base**t; the circuit
    must use no length-dependent gate."""
    circuit = _built(pair, build_lpwpp_decider, base, t, pair.n)
    return _run_decider(circuit, "lpwpp", pair, base**t, x_bits, record,
                        "fixed-gate-set decider differs from the length-dependent one")
