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
gates and places a checkpoint where each ends. A run may start from many
inputs at once, one sector each (simulate_inputs): verify runs each circuit
once a chunk of inputs, and a child forks from its parent's final state.
"""
from __future__ import annotations

from types import MappingProxyType
from weakref import WeakKeyDictionary

from quasiq.exactnum import HALF, ONE, ZERO, Amplitude
from quasiq.quasistate import (Gate, ProjectionError, _amplitude, _NumeratorState, bits_label, key_of,
                               label_of, record)
from quasiq.verifierkit import DualVerifierPair, HalfGapFunction

VERDICT_YES = "YES"
VERDICT_NO = "NO"
VERDICT_FAIL = "FAIL-branch-mass"
VERDICT_POSTSELECTED = "POSTSELECTED"

GATE_CHOICES = ("bm", "n", "proj1")
# A run on several inputs makes the x wires from the first one they differ on inner while a
# block then holds at most this many lanes. Blocks of up to 2**11 lanes gain; at parity n = 9
# (2**11 lanes an input) un and wn took 1-7% longer a chunk on blocks of 2**12 lanes, 12-17%
# on 2**13 and about 50% on 2**15, as their whole-int operations leave the cache.
X_LANES = 2**11


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


class Circuit:
    """Gate list on named registers, with labeled checkpoint positions. A child
    circuit starts with its parent's gates, on the same wires plus extra ones
    last. A circuit that `forks` is one that children start from (un and wn);
    only it keeps `last`, (input keys, kernel state, live terms of every input's sector)
    after its last run. Circuits are equal when all but parent, forks and last are."""

    __slots__ = ("width", "registers", "gates", "checkpoints", "parent", "forks", "last")

    def __init__(self, width: int, registers: dict[str, tuple[int, int]], gates: tuple[Gate, ...],
                 checkpoints: tuple[tuple[str, int], ...] = (), parent: Circuit | None = None,
                 forks: bool = False):
        self.width, self.registers, self.gates = width, registers, gates
        self.checkpoints, self.parent, self.forks, self.last = checkpoints, parent, forks, None
        for name, span in registers.items():
            if not (type(span) in (tuple, list) and len(span) == 2 and all(type(v) is int for v in span)
                    and 0 <= span[0] <= sum(span) <= width):
                raise RegisterMismatchError(f"register {name!r} must be [start, length] within width "
                                            f"{width}, got {list(span)!r}")
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

    def __eq__(self, other):
        return type(other) is type(self) and (
            (self.width, self.registers, self.gates, self.checkpoints)
            == (other.width, other.registers, other.gates, other.checkpoints))

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
        from quasiq.readers import circuit_to_json
        return circuit_to_json(self)

    @classmethod
    def from_json(cls, obj: dict, verifiers: dict | None = None) -> Circuit:
        from quasiq.readers import circuit_from_json
        return circuit_from_json(cls, obj, verifiers)


def gate_alphabet(circuit: Circuit) -> set[str]:
    """Display labels of every gate used, controlled X collapsing to CNOT/TOFFOLI/MCX."""
    return {gate.label() for gate in circuit.gates}


def simulate_circuit(circuit: Circuit, x_bits, record=False) -> tuple[Numerators, dict]:
    """Run the circuit on |x>|0...0> and capture checkpoint states, as the kernel's
    numerators; each builds its quasiq.reference.StateVector when first read as one.

    record: False for none, True for all checkpoints, or an iterable of labels.
    """
    return simulate_inputs(circuit, [x_bits], record)[0]


def simulate_inputs(circuit: Circuit, inputs, record=False) -> list[tuple[Numerators, dict]]:
    """The final and checkpoint states of each input, from one kernel run on the
    sum of |x>|0...0> over the distinct `inputs`, amplitude 1 each. Several inputs need a
    circuit that targets no x wire: then each x's terms evolve as that run alone."""
    n = circuit.registers["x"][1]
    if (bits := next((len(x_bits) for x_bits in inputs if len(x_bits) != n), n)) != n:
        raise RegisterMismatchError(f"input has {bits} bits, x register has {n} wires")
    keys = tuple(key_of(x_bits) for x_bits in inputs)
    if len(set(keys)) < len(keys):
        twice = next(x_bits for i, x_bits in enumerate(inputs) if keys.index(keys[i]) < i)
        raise ValueError(f"input {bits_label(twice)} is given more than once")
    gates, start, parent, shift = circuit.gates, 0, circuit.parent, circuit.width - n
    if len(inputs) > 1 and any(w < n for g in gates  # an ORACLE writes its last wire only
                               for w in (g.wires[-1:] if g.kind == "ORACLE" else g.wires)):
        raise ValueError("a circuit run on several inputs at once must target no x wire")
    wanted = set(circuit.checkpoint_labels()) if record is True else set(record or ())
    by_position: dict[int, list[str]] = {}
    for label, pos in circuit.checkpoints:
        if label in wanted:
            by_position.setdefault(pos, []).append(label)

    # The kernel runs one segment between recorded checkpoints at a time. A
    # child run on the inputs its parent last ran on, with no recorded checkpoint
    # before the fork, starts from the parent's final state (kernel.fork).
    if (parent and parent.last and parent.last[0] == keys
            and min(by_position, default=len(gates)) >= len(parent.gates)):
        start = len(parent.gates)
    # The x wires from the first one the inputs differ on join the lanes, as many as X_LANES has
    # room for beside the wires the circuit's H gates target, so a child keeps its parent's.
    room = X_LANES.bit_length() - 1 - len({gate.wires[0] for gate in gates if gate.kind == "H"})
    x_lanes = range(n - min(max((key ^ keys[0] for key in keys), default=0).bit_length(), room), n)
    state = _NumeratorState(circuit.width, () if start else [key << shift for key in keys],
                            {gate.wires[0] for gate in gates[start:] if gate.kind == "H"}.union(x_lanes))
    if start:  # one input is one sector, whatever x its terms come to read
        state.fork(*parent.last[1:])
    captured: dict[str, list[Numerators]] = {}
    for stop in sorted({*by_position, len(gates)}):
        state.run(gates[start:stop])
        start = stop
        live = state.sectors(keys, shift) if len(keys) > 1 else state.sectors((0,), circuit.width)
        sectors = [Numerators(circuit.width, state.k, terms) for terms in live]
        for label in by_position.get(stop, ()):
            captured[label] = sectors
    if circuit.forks:
        circuit.last = (keys, state, live)
    return [(final, {label: states[i] for label, states in captured.items()})
            for i, final in enumerate(sectors)]


def _lift(c0: int, c1: int, d: int) -> tuple[int, int]:
    """The numerators of (c0 + c1*sqrt(2)) * sqrt(2)**d, d >= 0."""
    return (c0 << d // 2, c1 << d // 2) if d % 2 == 0 else (c1 << d // 2 + 1, c0 << d // 2)


def _negative(a: int, b: int) -> bool:
    """Whether a + b*sqrt(2) < 0, exactly: where a and b differ in sign, a**2 against 2*b**2."""
    if a >= 0 and b >= 0 or a <= 0 and b <= 0:
        return a < 0 or b < 0
    return a * a > 2 * b * b if a < 0 else 2 * b * b > a * a


class Numerators:
    """A state as the kernel leaves it: `numerators` maps each live key to the ints (c0, c1)
    of its amplitude (c0 + c1*sqrt(2)) / sqrt(2)**k. The runs' checks read it in integers,
    and `to_json` writes the state's dump from it; any other StateVector read (`match`,
    `==`, ...) builds quasiq.reference's StateVector once."""

    __slots__ = ("width", "k", "numerators", "_state")

    def __init__(self, width: int, k: int, numerators: dict[int, tuple[int, int]]):
        self.width, self.k, self.numerators, self._state = width, k, numerators, None

    def masses(self, mask: int = 0, value: int = 0) -> tuple[tuple[int, int], tuple[int, int]]:
        """The squared norms of the terms whose key & mask == value and of the others, each as
        the numerators (s0, s1) of (s0 + s1*sqrt2) / 2**k, integer sums of
        (c0 + c1*sqrt2)**2 = c0**2 + 2*c1**2 + 2*c0*c1*sqrt2."""
        s0 = s1 = r0 = r1 = 0
        for key, (c0, c1) in self.numerators.items():
            if key & mask == value:
                s0, s1 = s0 + c0 * c0 + 2 * c1 * c1, s1 + c0 * c1
            else:
                r0, r1 = r0 + c0 * c0 + 2 * c1 * c1, r1 + c0 * c1
        return (s0, 2 * s1), (r0, 2 * r1)

    def equals_at(self, key: int, amp: Amplitude) -> bool:
        """Whether the amplitude at `key` is `amp`, in integers at the larger of their exponents."""
        d = self.k - 2 * amp.e
        numerators = self.numerators.get(key, (0, 0))
        return numerators == _lift(amp.c0, amp.c1, d) if d >= 0 else _lift(*numerators, -d) == (amp.c0, amp.c1)

    def holds(self, terms: dict[int, Amplitude]) -> bool:
        """Whether the live terms are exactly the nonzero ones of `terms`, each equal."""
        return (self.numerators.keys() == {key for key, amp in terms.items() if amp}
                and all(self.equals_at(key, amp) for key, amp in terms.items()))

    def wire_values(self, wire: int, mask: int = 0, value: int = 0) -> set[int]:
        """The values of `wire` over the live terms whose key & mask == value."""
        shift = self.width - 1 - wire
        return {key >> shift & 1 for key in self.numerators if key & mask == value}

    def to_json(self) -> list[dict]:
        """StateVector.to_json's dump: the live terms in key order, each amplitude exact."""
        return [{"basis": label_of(key, self.width), "amp": _amplitude(*self.numerators[key], self.k).to_json()}
                for key in sorted(self.numerators)]

    def to_state(self):
        if self._state is None:
            from quasiq.reference import StateVector
            self._state = StateVector.of_numerators(self.width, self.k, self.numerators)
        return self._state

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.to_state(), name)

    def __eq__(self, other) -> bool:
        return self.to_state() == (other.to_state() if isinstance(other, Numerators) else other)

    __hash__ = None

    def __len__(self) -> int:
        return len(self.numerators)

    def __repr__(self) -> str:
        return repr(self.to_state())


class RunOutcome(record("RunOutcome", "construction input verdict answer success_mass failure_mass "
                        "final_state width checkpoints", (MappingProxyType({}),))):
    """Result of one simulation: exact masses, verdict (answer None when the
    run certified none), the final state on `width` wires, and the checkpoint
    states by label (none by default). A run's states are the kernel's
    Numerators, which build their StateVector when first read as one (to_json does not)."""

    __slots__ = ()

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
        from quasiq.readers import outcome_from_json
        return outcome_from_json(cls, obj)


def _outcome(construction: str, x_bits, final: Numerators, captured: dict, answer: int | None,
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
           segments, checkpoints=(), forks=False) -> Circuit:
    """The parent's gates, then each (gates, label) segment in turn, with
    checkpoint `label` where its segment ends (an empty segment labels the
    fork); `checkpoints` come first, at positions already counted."""
    gates = list(parent.gates) if parent else []
    checkpoints = list(checkpoints)
    for segment, label in segments:
        gates.extend(segment)
        checkpoints.append((label, len(gates)))
    return Circuit(width, registers, tuple(gates), tuple(checkpoints), parent, forks)


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
    ), forks=True)


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
    ), forks=True)


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


def _single_wire_value(state: Numerators, wire: int, context: str, mask: int = 0, value: int = 0) -> int:
    values = state.wire_values(wire, mask, value)
    if len(values) != 1:
        spread = f"spans both values of wire {wire}" if values else "is empty"
        raise SimulationInvariantError(f"{context}: support {spread}")
    return values.pop()


def check_un(pair: DualVerifierPair, circuit: Circuit, x_bits, lx, final: Numerators, captured):
    """The unitary gap-amplitude circuit's answer and outcome.

    success_mass is the mass of the b = 0...0, a = 1 block (the gap
    components); for a dual pair that block is a single term whose c bit is
    the language bit. The b = 0...0 block must hold 1/2 on |c 0> and the
    oracle's delta_c on |c 1>, the norm must stay 1, and the rest of the
    state must carry mass below 1/2.
    """
    prefix = key_of(x_bits) << (pair.m + 2)  # |x 0^m 0 0>
    gap_block = ((1 << final.width) - 1) ^ 0b10, prefix | 1  # |x 0^m * 1>
    (s0, s1), (f0, f1) = final.masses(*gap_block)  # over 2**k
    answer = _single_wire_value(final, circuit.wire("c"), "gap-amplitude block", *gap_block)
    if answer != lx:
        raise SimulationInvariantError(
            f"gap-amplitude block sits on c = {answer}, oracle says L(x) = {lx}")
    for c, report in enumerate(pair.gap_reports(tuple(x_bits))):
        if not final.equals_at(prefix | c << 1 | 1, report.delta):
            raise SimulationInvariantError(f"amplitude at c={c} is {final.amplitude(prefix | c << 1 | 1)}, "
                                           f"oracle delta is {report.delta}")
        if not final.equals_at(prefix | c << 1, HALF):
            raise SimulationInvariantError(f"amplitude of |{c}0> block is not 1/2")
    if (s0 + f0, s1 + f1) != (1 << final.k, 0):
        raise SimulationInvariantError("unitary circuit did not preserve the norm")
    # The b = 0...0 block now holds 1/2 plus the gap mass, so the rest is failure_mass - 1/2,
    # which must be below 1/2: failure_mass < 1.
    if not _negative(f0 - (1 << final.k), f1):
        raise SimulationInvariantError("residual mass is not strictly below 1/2")
    return answer, lambda: _outcome("un", x_bits, final, captured, answer, Amplitude(s0, s1, final.k),
                                    Amplitude(f0, f1, final.k))


def check_zqp(pair: DualVerifierPair, circuit: Circuit, x_bits, lx, final: Numerators, captured):
    """The zero-error answer and outcome with p = 2^-m: success flag on a, answer on s.

    The exact success probability is certified strictly greater than 1/2
    (success mass > failure mass), the success-conditioned component is
    checked to carry zero mass on the wrong answer, and the success mass must
    be the square of the oracle's live delta.
    """
    if not final.numerators:
        raise ProjectionError("cannot project the zero state")
    a, s = (1 << final.width - 1 - circuit.wire(name) for name in "as")
    (s0, s1), (f0, f1) = final.masses(a, a)  # over 2**k
    wrong = a | s * (1 - lx)  # a live term there has a nonzero mass
    if any(key & (a | s) == wrong for key in final.numerators):
        raise SimulationInvariantError(f"success-conditioned state has mass "
                                       f"{Amplitude(*final.masses(a | s, wrong)[0], final.k)} on answer {1 - lx}")
    answer = None
    if _negative(f0 - s0, f1 - s1):  # failure_mass < success_mass
        answer = _single_wire_value(final, circuit.wire("s"), "zero-error conditional", a, a)
    live = pair.gap_reports(tuple(x_bits))[lx]
    if (s0 << 2 * live.m, s1) != (live.Delta ** 2 << final.k, 0):  # delta**2 = Delta**2 / 2**(2m)
        raise SimulationInvariantError("success mass differs from the squared gap amplitude")
    return answer, lambda: _outcome("fig3-zqp", x_bits, final, captured, answer, Amplitude(s0, s1, final.k),
                                    Amplitude(f0, f1, final.k))


def check_posteqp(pair: DualVerifierPair, circuit: Circuit, x_bits, lx, final: Numerators, captured):
    """The postselected answer and outcome, a projected onto 1: the conditional state must
    be supported entirely on the correct answer and have nonzero mass. Its outcome reads the
    pre-projection state at checkpoint "cycled" to report the rejected mass."""
    if not final.numerators:  # the mass is zero
        raise PostselectionError(
            f"postselection mass is zero at x = {bits_label(x_bits)} "
            "(signals an invalid pair)")
    answer = _single_wire_value(final, circuit.wire("s"), "postselected state")
    if answer != lx:
        raise SimulationInvariantError(
            f"postselected answer {answer} contradicts the oracle value {lx}")
    cycled = captured["cycled"]
    return answer, lambda: _outcome("fig3-post", x_bits, final, captured, answer,
                                    success := Amplitude(*final.masses()[0], final.k),
                                    Amplitude(*cycled.masses()[0], cycled.k) - success, VERDICT_POSTSELECTED)


def check_ancillas_restored(state: Numerators, circuit: Circuit) -> None:
    """Every surviving component must hold the b register and a at zero."""
    mask = sum(1 << (state.width - 1 - w) for w in circuit.register_wires("b") + (circuit.wire("a"),))
    stray = [key for key in state.numerators if key & mask]
    if stray:
        term = label_of(min(stray), state.width)
        raise AncillaRestorationError(f"component |{term}> leaves an ancilla nonzero", term=term)


def check_wn(pair: DualVerifierPair, circuit: Circuit, x_bits, lx, final: Numerators, captured):
    """The uncomputing circuit's answer and outcome: ancilla restoration and the closed
    form |x 0^m>(|000> + delta|L(x) 0 1>).

    success_mass is the mass of the s = 1 (gap-indicator) component; the
    answer is that component's c bit.
    """
    check_ancillas_restored(final, circuit)
    if not final.numerators:
        raise ProjectionError("cannot project the zero state")
    (s0, s1), (f0, f1) = final.masses(1, 1)  # s is the last wire
    answer = None
    if (s0, s1) != (0, 0):
        answer = _single_wire_value(final, circuit.wire("c"), "gap-indicator component", 1, 1)
    prefix = key_of(x_bits) << (pair.m + 3)
    delta = pair.gap_reports(tuple(x_bits))[lx].delta
    if not final.holds({prefix: ONE, prefix | lx << 2 | 1: delta}):
        raise SimulationInvariantError(
            "uncomputed state differs from |x>(|00> + delta|L>|1>) plus ancillas")
    return answer, lambda: _outcome("wn", x_bits, final, captured, answer, Amplitude(s0, s1, final.k),
                                    Amplitude(f0, f1, final.k))


def decider_term(pair: DualVerifierPair, x_bits, lx: int, h: int) -> dict[int, Amplitude]:
    """Both exact deciders' closed-form output (h/2^m)|x 0^m 1 0 L(x)>, as {key: amplitude}."""
    return {key_of(x_bits) << (pair.m + 3) | 0b100 | lx: Amplitude(h, 0, pair.m)}


def _check_decider(construction: str, mismatch: str, pair: DualVerifierPair, x_bits, lx, final: Numerators,
                   captured, h: int):
    """The answer and outcome of a decider built for witness value h: its output must be the
    single term decider_term(pair, x, L(x), h), else ResidualTermError or the `mismatch`."""
    keys = sorted(final.numerators)
    stem = key_of(x_bits) << (pair.m + 2) | 0b10  # |x 0^m 1 0>: every wire but the answer
    residuals = [label_of(key, final.width) for key in keys if key >> 1 != stem]
    if residuals or len(keys) != 1:
        residuals = residuals or [label_of(key, final.width) for key in keys]
        raise ResidualTermError(f"decider output is not a single clean term at x = "
                                f"{bits_label(x_bits)}; residual terms: {residuals}", residuals)
    if not final.holds(decider_term(pair, x_bits, lx, h)):
        raise SimulationInvariantError(mismatch)
    return lx, lambda: _outcome(construction, x_bits, final, captured, lx,
                                Amplitude(*final.masses()[0], final.k), ZERO)


class Construction(record("Construction", "build reads check witness", (None,))):
    """One construction: build(pair, *witness), the circuit it runs; reads, the checkpoints
    its check reads, recorded or not; check(pair, circuit, x_bits, lx, final, captured,
    *witness), one input's run checked against the oracle and L(x) = lx: its answer and a
    function that makes its RunOutcome; and witness, the half-gap witness it reads: None,
    "value" for h(n), or "power" for the form M**t. Its run_* is one input's run and check;
    verify runs the circuit once a chunk of inputs and the check once a row."""

    __slots__ = ()

    def available(self, h: HalfGapFunction | None) -> bool:
        """Whether a problem whose half-gap witness is h (None: it has none) can run it."""
        return self.witness is None or h is not None and (self.witness == "value" or h.kind == "power")

    def witness_args(self, h: HalfGapFunction, n: int, corrupt: bool = False) -> tuple:
        """What build, check and run_* take after the pair at input size n: nothing,
        h(n) (h(n) + 1 when corrupt), or (M, t)."""
        if self.witness is None:
            return ()
        return (h.value(n) + (1 if corrupt else 0),) if self.witness == "value" else (
            h.base, h.exponent(n))


# The one table of constructions, in the order verify's rows and the CLI's choices take.
RUNS = {
    "un": Construction(lambda pair: _built(pair, build_un, pair.n), (), check_un),
    "fig3-zqp": Construction(lambda pair: _built(pair, build_fig3, pair.n, "bm"), (), check_zqp),
    "fig3-post": Construction(lambda pair: _built(pair, build_fig3, pair.n, "proj1"), ("cycled",),
                              check_posteqp),
    "wn": Construction(lambda pair: _built(pair, build_wn, pair.n), (), check_wn),
    "lwpp": Construction(
        lambda pair, h: _built(pair, build_lwpp_decider, _witness_value(h, pair.n), pair.n), (),
        lambda pair, circuit, x_bits, lx, final, captured, h: _check_decider(
            "lwpp", "decider output is not the single term (h/2^m)|x>|1>|L(x)>", pair, x_bits,
            lx, final, captured, _witness_value(h, pair.n)), "value"),
    "lpwpp": Construction(
        lambda pair, base, t: _built(pair, build_lpwpp_decider, base, t, pair.n), (),
        lambda pair, circuit, x_bits, lx, final, captured, base, t: _check_decider(
            "lpwpp", "fixed-gate-set decider differs from the length-dependent one", pair, x_bits,
            lx, final, captured, base**t), "power"),
}


def _run(construction: str, pair: DualVerifierPair, x_bits, record, *witness) -> RunOutcome:
    run = RUNS[construction]
    circuit = run.build(pair, *witness)
    final, captured = simulate_circuit(circuit, x_bits, True if record is True else {*(record or ()), *run.reads})
    lx = pair.language_bit(tuple(x_bits))  # a DualityError here, before any check reads the run
    outcome = run.check(pair, circuit, x_bits, lx, final, captured, *witness)[1]()
    if record is True or not run.reads:
        return outcome
    return outcome._replace(checkpoints={k: v for k, v in captured.items() if k in set(record or ())})


def run_un(pair: DualVerifierPair, x_bits, record=False) -> RunOutcome:
    return _run("un", pair, x_bits, record)


def run_zqp(pair: DualVerifierPair, x_bits, record=False) -> RunOutcome:
    return _run("fig3-zqp", pair, x_bits, record)


def run_posteqp(pair: DualVerifierPair, x_bits, record=False) -> RunOutcome:
    return _run("fig3-post", pair, x_bits, record)


def run_wn(pair: DualVerifierPair, x_bits, record=False) -> RunOutcome:
    return _run("wn", pair, x_bits, record)


def run_lwpp(pair: DualVerifierPair, h, x_bits, record=False) -> RunOutcome:
    """h is a HalfGapFunction or its value at n; ResidualTermError when it fails to cancel the |00> tail."""
    return _run("lwpp", pair, x_bits, record, h)


def run_lpwpp(pair: DualVerifierPair, base: int, t: int, x_bits, record=False) -> RunOutcome:
    """The decider over the fixed gate alphabet, h = base**t: the circuit must use no length-dependent gate."""
    return _run("lpwpp", pair, x_bits, record, base, t)
