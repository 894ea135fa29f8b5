"""Sparse exact statevector and the full gate alphabet.

Basis states are ints whose binary rendering (zero-padded to the wire count)
is the basis label: wire 0 is the leftmost character, so numeric order of
keys equals lexicographic order of labels.

Gates cover four families: unitary (H and the classical permutations),
invertible non-unitary (S, B, G, A, N, D and their inverses), projective
(PROJ0/PROJ1), and classical oracle gates that XOR a verifier's output onto
a target wire.  Any gate may carry coherent controls with explicit
polarities; a multiply-controlled X is just X with controls. One table,
_KINDS, holds the per-kind facts: a Gate checks its shape against it once,
when it is made, and Gate.inverse, the JSON form and the kernel read it.

Circuits run on a private kernel over integer numerators with one shared
power of sqrt(2) (_NumeratorState, at the end of this module). Its one entry
point, `run`, applies a gate list: each run of H gates that share their
controls and act on distinct wires as one unnormalized Walsh-Hadamard layer,
butterflied on the packed lanes of one int (_butterflies), each run of equal
B, G or A gates as one diagonal pass, and every other gate through its kind's
family method. StateVector.apply is the per-gate reference the kernel is
tested against; its code is in quasiq.reference.
"""
from __future__ import annotations

import struct
from collections import namedtuple
from itertools import compress, repeat
from operator import or_
from typing import Iterable, Iterator

from quasiq.exactnum import ONE, ZERO, Amplitude, ExactDivisionError


class WireError(ValueError):
    """A gate references a wire outside the state's width."""


class NotInvertibleError(ValueError):
    """Projectors and N(0) have no inverse."""


class ProjectionError(ValueError):
    """Raised when projecting the zero state."""


def bits_of(key: int, width: int) -> tuple[int, ...]:
    return tuple((key >> (width - 1 - i)) & 1 for i in range(width))


def key_of(bits: Iterable[int]) -> int:
    key = 0
    for b in bits:
        key = (key << 1) | (b & 1)
    return key


def label_of(key: int, width: int) -> str:
    return format(key, f"0{width}b") if width else ""


def bits_label(bits: Iterable[int]) -> str:
    """A bit tuple as its string label, e.g. (1, 0, 1) -> "101"."""
    return "".join(str(b) for b in bits)


def key_of_label(label: str) -> int:
    return int(label, 2) if label else 0


_WILDCARDS = frozenset("*.·")


def compile_pattern(pattern: str) -> tuple[int, int]:
    """Bit pattern with wildcards ('*', '.', or middle dot) -> (mask, value)."""
    mask = value = 0
    for ch in pattern:
        mask <<= 1
        value <<= 1
        if ch == "1":
            mask |= 1
            value |= 1
        elif ch == "0":
            mask |= 1
        elif ch not in _WILDCARDS:
            raise ValueError(f"bad pattern character {ch!r}")
    return mask, value


# The facts about one gate kind. family: the _NumeratorState method that
# applies it (runs of H gates go to _hadamards as layers). inverse: the inverse
# kind, None for a projector. sign: what S and D add into their target times the
# source, or the power of p in diag(p, 1), as +1 or -1. arity: the wire count,
# None for any. param: the _Param of the kind's parameter, None for a kind
# without one. StateVector.apply reads none of it.
_Kind = namedtuple("_Kind", "family inverse sign arity param", defaults=(0, 1, None))
# A parameter's codec, to_json and from_json(obj, verifiers), and the type
# test `accepts` that Gate applies when made, with `what` naming the type.
_Param = namedtuple("_Param", "to_json from_json accepts what")


def _oracle_from_json(obj: dict, verifiers: dict | None) -> tuple:
    """(verifier, n_input_wires), the verifier None if `verifiers` lacks its name."""
    name, nx = obj["verifier"], obj["n_input_wires"]
    return (None if verifiers is None else verifiers.get(name)), nx


_INT = _Param(lambda p: p, lambda obj, verifiers: obj, lambda p: type(p) is int, "an int")
_AMP = _Param(Amplitude.to_json, lambda obj, verifiers: Amplitude.from_json(obj),
              lambda p: isinstance(p, Amplitude), "an Amplitude")
_KINDS = {
    "H": _Kind("_hadamards", "H"),
    "X": _Kind("_move", "X"),
    "PERM": _Kind("_move", "PERM", 0, None, _Param(
        list, lambda obj, verifiers: tuple(obj), lambda p: isinstance(p, tuple), "a tuple")),
    "ORACLE": _Kind("_move", "ORACLE", 0, None, _Param(
        lambda p: {"verifier": getattr(p[0], "name", "?"), "n_input_wires": p[1]},
        _oracle_from_json,
        lambda p: isinstance(p, tuple) and len(p) == 2 and type(p[1]) is int,
        "a (verifier, int)")),
    "PROJ0": _Kind("_move", None), "PROJ1": _Kind("_move", None),
    "S": _Kind("_shear", "SINV", 1), "SINV": _Kind("_shear", "S", -1),
    "D": _Kind("_shear", "DINV", -1, 2), "DINV": _Kind("_shear", "D", 1, 2),
    "B": _Kind("_diag", "BINV", 1), "BINV": _Kind("_diag", "B", -1),
    "G": _Kind("_diag", "GINV", 1, 1, _INT), "GINV": _Kind("_diag", "G", -1, 1, _INT),
    "A": _Kind("_diag", "AINV", 1, 1, _INT), "AINV": _Kind("_diag", "A", -1, 1, _INT),
    "N": _Kind("_diag", "NINV", 1, 1, _AMP), "NINV": _Kind("_diag", "N", -1, 1, _AMP),
}


def record(name: str, fields: str, defaults=()) -> type:
    """A namedtuple base for an immutable record class, which subclasses it
    with `__slots__ = ()`. Unlike a plain namedtuple, a record equals only a
    record of its own class, never a bare tuple or another record type.

    quasiq's records are not dataclasses (verifierkit.Verifier aside): a
    dataclass generates and compiles its methods when its module is imported,
    and every command pays that at start-up."""
    base = namedtuple(name, fields, defaults=defaults)
    base.__eq__ = lambda a, b: type(a) is type(b) and tuple.__eq__(a, b)
    base.__ne__ = lambda a, b: not base.__eq__(a, b)
    base.__hash__ = tuple.__hash__
    return base


class Gate(record("Gate", "kind wires controls param")):
    """One typed gate application on named wires.

    param holds the kind-specific data: an int for G/A (the |0>-branch
    multiplier), an Amplitude for N, the destination tuple for PERM, and
    (verifier, n_input_wires) for ORACLE.
    """

    __slots__ = ()

    def __new__(cls, kind: str, wires: tuple[int, ...],
                controls: tuple[tuple[int, int], ...] = (), param: object = None) -> Gate:
        """Check all but the wire range (control_mask's, as it needs the width):
        a known kind, its wire count, distinct wires, no control on a gate wire,
        a parameter of the kind's type (none if it has no codec), a PERM that
        relabels its own wires, ORACLE registers as its verifier's."""
        row = _KINDS.get(kind)
        if row is None:
            raise ValueError(f"unknown gate kind {kind!r}")
        if not (row.param.accepts(param) if row.param else param is None):
            raise ValueError(f"{kind} takes {row.param.what if row.param else 'no'} "
                             f"parameter, got {param!r}")
        if row.arity is not None and len(wires) != row.arity:
            raise WireError(f"{kind} acts on {row.arity} wire(s), not {len(wires)}")
        if len(set(wires)) != len(wires):
            raise WireError(f"{kind} wires must be distinct")
        if any(w in wires for w, _ in controls):
            raise WireError("control wires overlap gate wires")
        if kind == "PERM" and sorted(wires) != sorted(param):
            raise WireError("PERM must relabel distinct wires within the same set")
        if kind == "ORACLE":
            v, nx = param
            if (nx, len(wires)) != (v.n, v.n + v.m + 1):
                raise WireError(f"oracle arity mismatch: gate has {len(wires[:nx])}+"
                                f"{len(wires[nx:-1])} wires, verifier wants {v.n}+{v.m}")
        return tuple.__new__(cls, (kind, wires, controls, param))

    @classmethod
    def _make(cls, fields: Iterable) -> Gate:
        """A gate of the given fields, checked as when made (_replace calls this)."""
        return cls(*fields)

    # -- constructors --------------------------------------------------------

    @classmethod
    def h(cls, wire: int, controls=()) -> Gate:
        return cls("H", (wire,), tuple(controls))

    @classmethod
    def x(cls, wire: int, controls=()) -> Gate:
        return cls("X", (wire,), tuple(controls))

    @classmethod
    def cnot(cls, control: int, target: int) -> Gate:
        return cls.x(target, controls=((control, 1),))

    @classmethod
    def toffoli(cls, c1: int, c2: int, target: int) -> Gate:
        return cls.x(target, controls=((c1, 1), (c2, 1)))

    @classmethod
    def mcx(cls, controls: Iterable[tuple[int, int]], target: int) -> Gate:
        return cls.x(target, controls=tuple(controls))

    @classmethod
    def s(cls, wire: int, controls=()) -> Gate:
        return cls("S", (wire,), tuple(controls))

    @classmethod
    def b(cls, wire: int, controls=()) -> Gate:
        return cls("B", (wire,), tuple(controls))

    @classmethod
    def g(cls, wire: int, base: int, controls=()) -> Gate:
        return cls("G", (wire,), tuple(controls), int(base))

    @classmethod
    def a(cls, wire: int, value: int, controls=()) -> Gate:
        return cls("A", (wire,), tuple(controls), int(value))

    @classmethod
    def n(cls, wire: int, p: Amplitude, controls=()) -> Gate:
        return cls("N", (wire,), tuple(controls), p)

    @classmethod
    def d(cls, first: int, second: int, controls=()) -> Gate:
        return cls("D", (first, second), tuple(controls))

    @classmethod
    def proj(cls, wire: int, value: int) -> Gate:
        return cls("PROJ1" if value else "PROJ0", (wire,))

    @classmethod
    def perm(cls, sources: Iterable[int], dests: Iterable[int]) -> Gate:
        return cls("PERM", tuple(sources), (), tuple(dests))

    @classmethod
    def swap(cls, w1: int, w2: int) -> Gate:
        return cls.perm((w1, w2), (w2, w1))

    @classmethod
    def oracle(cls, verifier, x_wires: Iterable[int], b_wires: Iterable[int],
               target: int, controls=()) -> Gate:
        xw, bw = tuple(x_wires), tuple(b_wires)
        return cls("ORACLE", xw + bw + (target,), tuple(controls), (verifier, len(xw)))

    # -- structure -----------------------------------------------------------

    def with_controls(self, extra: Iterable[tuple[int, int]]) -> Gate:
        return Gate(self.kind, self.wires, self.controls + tuple(extra), self.param)

    def inverse(self) -> Gate:
        kind, inverse = self.kind, _KINDS[self.kind].inverse
        if inverse is None:
            raise NotInvertibleError("projectors are not invertible")
        if kind == "PERM":
            return Gate("PERM", self.param, self.controls, self.wires)
        if kind in ("N", "NINV") and self.param.is_zero():
            raise NotInvertibleError("N(0) is not invertible")
        return self if inverse == kind else Gate(inverse, self.wires, self.controls, self.param)

    def label(self) -> str:
        """Display name; controlled X renders as CNOT/TOFFOLI/MCX."""
        if self.kind == "X" and self.controls:
            if all(pol == 1 for _, pol in self.controls):
                if len(self.controls) == 1:
                    return "CNOT"
                if len(self.controls) == 2:
                    return "TOFFOLI"
            return "MCX"
        return self.kind

    def all_wires(self) -> tuple[int, ...]:
        return self.wires + tuple(w for w, _ in self.controls)

    def control_mask(self, width: int) -> tuple[int, int]:
        """(mask, value) of the controls on a state of `width` wires, once every
        wire is checked to lie in range; the gate checked the rest when made."""
        for w in self.all_wires():
            if not 0 <= w < width:
                raise WireError(f"wire {w} out of range for width {width}")
        cmask = cval = 0
        for w, pol in self.controls:
            bit = 1 << (width - 1 - w)
            cmask |= bit
            if pol:
                cval |= bit
        return cmask, cval

    def to_json(self) -> dict:
        obj: dict = {"kind": self.kind, "label": self.label(), "wires": list(self.wires)}
        if self.controls:
            obj["controls"] = [[w, p] for w, p in self.controls]
        codec = _KINDS[self.kind].param
        if codec:
            obj["param"] = codec.to_json(self.param)
        return obj

    @classmethod
    def from_json(cls, obj: dict, verifiers: dict | None = None) -> Gate:
        from quasiq.readers import gate_from_json
        return gate_from_json(cls, obj, verifiers)


class StateVector:
    """Map from basis keys to nonzero amplitudes over a fixed wire count."""

    __slots__ = ("width", "terms")

    def __init__(self, width: int, terms: dict[int, Amplitude] | None = None):
        self.width = width
        self.terms = {k: a for k, a in (terms or {}).items() if not a.is_zero()}

    @classmethod
    def basis(cls, width: int, key: int | str, amp: Amplitude = ONE) -> StateVector:
        if isinstance(key, str):
            if len(key) != width:
                raise WireError(f"label width {len(key)} != state width {width}")
            key = key_of_label(key)
        return cls(width, {key: amp})

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def amplitude(self, key: int | str) -> Amplitude:
        if isinstance(key, str):
            key = key_of_label(key)
        return self.terms.get(key, ZERO)

    def items_sorted(self) -> list[tuple[int, Amplitude]]:
        return sorted(self.terms.items())

    def labels(self) -> list[str]:
        return [label_of(k, self.width) for k, _ in self.items_sorted()]

    def match(self, pattern: str) -> list[tuple[int, Amplitude]]:
        """All stored terms matching the wildcard pattern, in lexicographic order."""
        if len(pattern) != self.width:
            raise WireError(f"pattern width {len(pattern)} != state width {self.width}")
        mask, value = compile_pattern(pattern)
        return sorted((k, a) for k, a in self.terms.items() if k & mask == value)

    def norm_sq(self) -> Amplitude:
        """The sum of the squared amplitudes, added in integers over the
        largest exponent: (c0 + c1*sqrt2)**2 = c0**2 + 2*c1**2 + 2*c0*c1*sqrt2."""
        top = max((a.e for a in self.terms.values()), default=0)
        s0 = s1 = 0
        for a in self.terms.values():
            shift = 2 * (top - a.e)
            s0 += (a.c0 * a.c0 + 2 * a.c1 * a.c1) << shift
            s1 += a.c0 * a.c1 << shift + 1
        return Amplitude(s0, s1, 2 * top)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return self.width == other.width and self.terms == other.terms

    def __iter__(self) -> Iterator[tuple[int, Amplitude]]:
        return iter(self.items_sorted())

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        body = " + ".join(f"{a}|{label_of(k, self.width)}>" for k, a in self.items_sorted())
        return f"StateVector({body or '0'})"

    # -- linear structure ------------------------------------------------------

    def __add__(self, other: StateVector) -> StateVector:
        if self.width != other.width:
            raise WireError("width mismatch in superposition")
        out = dict(self.terms)
        for k, a in other.terms.items():
            out[k] = out.get(k, ZERO) + a
        return StateVector(self.width, out)

    def scale(self, factor: Amplitude) -> StateVector:
        return StateVector(self.width, {k: a * factor for k, a in self.terms.items()})

    def filter_terms(self, keep) -> StateVector:
        return StateVector(self.width, {k: a for k, a in self.terms.items() if keep(k)})

    def append_wires(self, count: int) -> StateVector:
        """Tensor with |0...0> on new trailing wires."""
        return StateVector(self.width + count, {k << count: a for k, a in self.terms.items()})

    # -- gate application ------------------------------------------------------

    def apply(self, gate: Gate) -> StateVector:
        """The per-gate reference the kernel is tested against (quasiq.reference)."""
        from quasiq.reference import apply_gate
        return apply_gate(self, gate)

    # -- projection --------------------------------------------------------------

    def project(self, wire: int, value: int) -> tuple[Amplitude, StateVector]:
        """Project onto wire == value.

        Returns (success_mass, conditional): the squared norm of the projected
        component and the projected state left unnormalized, so probabilities
        stay exact ratios.
        """
        if self.is_zero():
            raise ProjectionError("cannot project the zero state")
        if not 0 <= wire < self.width:
            raise WireError(f"wire {wire} out of range for width {self.width}")
        m = 1 << (self.width - 1 - wire)
        want = m if value else 0
        conditional = self.filter_terms(lambda k: k & m == want)
        return conditional.norm_sq(), conditional

    # -- serialization --------------------------------------------------------------

    def to_json(self) -> list[dict]:
        """Lexicographically sorted dump; byte-stable for golden tests."""
        return [
            {"basis": label_of(k, self.width), "amp": a.to_json()}
            for k, a in self.items_sorted()
        ]

    @classmethod
    def from_json(cls, entries: list[dict], width: int | None = None) -> StateVector:
        from quasiq.readers import state_from_json
        return state_from_json(cls, entries, width)


# -- integer-numerator kernel -------------------------------------------------------

class _NumeratorState:
    """The exact simulator's working state: integer numerators over one
    shared power of sqrt(2).

    terms maps each basis key to an integer pair (c0, c1) standing for the
    amplitude (c0 + c1*sqrt(2)) / sqrt(2)**k, with one k for the whole state.
    Gates then cost integer adds and multiplies only; Amplitudes, and their
    canonical form, are built only when `to_state` is asked for one.
    StateVector.apply is the reference this kernel must agree with exactly.

    A layer packs a group's entries into the w-bit lanes of one int, lane i
    holding v[i] + 2**(w-1), with w >= bits(max|v|) + L + 1 for L layer wires.
    L butterflies at most double an entry L times, so every lane of every
    result lies in [0, 2**w): an int made of such lanes is their exact sum, so
    however whole ints add and subtract, no lane borrows from its neighbour.
    """

    __slots__ = ("width", "terms", "k")

    def __init__(self, width: int, key: int):
        self.width = width
        self.terms: dict[int, tuple[int, int]] = {key: (1, 0)}
        self.k = 0

    def amplitude(self, c0: int, c1: int) -> Amplitude:
        k = self.k
        if k & 1:
            # (c0 + c1*sqrt2) / sqrt2**k == (2*c1 + c0*sqrt2) / 2**((k+1)/2)
            return Amplitude(c1 << 1, c0, (k + 1) >> 1)
        return Amplitude(c0, c1, k >> 1)

    def to_state(self) -> StateVector:
        amplitude = self.amplitude
        return StateVector(self.width, {key: amplitude(c0, c1)
                                        for key, (c0, c1) in self.terms.items()})

    def _mask(self, wire: int) -> int:
        return 1 << (self.width - 1 - wire)

    def run(self, gates) -> None:
        """Apply `gates` in order: each run of H gates that share their controls
        and act on distinct wires as one layer, each run of t equal B, G or A
        gates as one diagonal pass with p**t, any other gate by its family."""
        i, end = 0, len(gates)
        while i < end:
            gate = gates[i]
            i += 1
            cmask, cval = gate.control_mask(self.width)
            if gate.kind == "H":
                wires = [gate.wires[0]]
                while (i < end and gates[i].kind == "H" and gates[i].controls == gate.controls
                       and gates[i].wires[0] not in wires):
                    gates[i].control_mask(self.width)  # the wire-range check
                    wires.append(gates[i].wires[0])
                    i += 1
                self._hadamards(wires, cmask, cval)
            elif gate.kind in ("B", "G", "A"):  # N and the inverse kinds: one pass a gate
                start = i
                while i < end and gates[i] == gate:
                    i += 1
                self._diag(gate, cmask, cval, i - start + 1)
            else:
                getattr(self, _KINDS[gate.kind].family)(gate, cmask, cval)

    def _hadamards(self, wires: list[int], cmask: int, cval: int) -> None:
        """H on each of the distinct `wires`: one unnormalized Walsh-Hadamard
        transform per group of terms that agree off the key bits from the
        lowest to the highest layer wire, on a dense list indexed by those bits
        (so far-apart wires cost many slots). The 1/sqrt2**L goes into k, so a
        term that fails the controls is multiplied by sqrt2**L instead."""
        size = len(wires)
        half = size >> 1
        shifts = [self.width - 1 - w for w in wires]
        lo = min(shifts)
        span = (2 << max(shifts) - lo) - 1
        layer = sum(1 << s - lo for s in shifts)
        outside = ~(span << lo)
        terms = self.terms
        out = {}
        groups: dict[int, list[int]] = {}
        for key, (a0, a1) in terms.items():
            if key & cmask != cval:
                out[key] = (a1 << (half + 1), a0 << half) if size & 1 else (a0 << half, a1 << half)
            elif key & outside in groups:
                groups[key & outside].append(key)
            else:
                groups[key & outside] = [key]
        count = span + 1
        for rest, keys in groups.items():
            c0 = [0] * count
            c1 = [0] * count
            for key in keys:
                i = key >> lo & span
                c0[i], c1[i] = terms[key]
            if any(c1):  # c0 and c1 side by side, the top index bit outside the layer
                c0 += c1
                both = _butterflies(c0, layer)
                c0, c1 = both[:count], both[count:]
                nonzero = list(map(or_, c0, c1))
            else:
                c1 = repeat(0)  # frees the zero list before the transform allocates
                c0 = nonzero = _butterflies(c0, layer)
            # Index i is key rest | i << lo; only nonzero entries go back.
            out.update(zip(compress(range(rest, rest + (count << lo), 1 << lo), nonzero),
                           compress(zip(c0, c1), nonzero)))
        self.terms = out
        self.k += size

    def _shear(self, gate: Gate, cmask: int, cval: int) -> None:
        """S adds the |1> amplitude into |0> (SINV subtracts it); D subtracts
        the |1?> amplitudes into |00> (DINV adds them)."""
        sign = _KINDS[gate.kind].sign
        m = self._mask(gate.wires[0])
        clear = m | self._mask(gate.wires[-1])  # one wire for S, two for D
        # Sources keep their keys and no target is a source, so one pass over a
        # copy (the old dict may be shared); a target whose sum cancels is dropped.
        terms = dict(self.terms)
        sources = [(k, v) for k, v in terms.items() if k & m and k & cmask == cval]
        for key, (a0, a1) in sources:
            target = key & ~clear
            b0, b1 = terms.get(target, (0, 0))
            b0 += sign * a0
            b1 += sign * a1
            if b0 or b1:
                terms[target] = (b0, b1)
            else:
                del terms[target]
        self.terms = terms

    def _diag(self, gate: Gate, cmask: int, cval: int, power: int = 1) -> None:
        """diag(p**sign, 1), `power` times (above 1 only for B, G and A): multiply
        the |0> branch by p**power, or divide it exactly by p for an inverse kind,
        with powers of two in k. p is 1/2 for B, G's and A's integer, N's Amplitude."""
        p = gate.param
        if not isinstance(p, Amplitude):  # B's 1/2, or the integer of G or A
            p = Amplitude(1, 0, power) if p is None else Amplitude(p ** power, 0, 0)
        if _KINDS[gate.kind].sign < 0:
            u0, u1, odd, shift = p.reciprocal()
        else:
            u0, u1, odd, shift = p.c0, p.c1, 1, -p.e
        lift = -shift if shift < 0 else 0  # applied to every other term, and to k
        up = shift if shift > 0 else 0
        m = self._mask(gate.wires[0])
        out = {}
        for key, (a0, a1) in self.terms.items():
            if key & m or key & cmask != cval:
                out[key] = (a0 << lift, a1 << lift)
                continue
            d0 = a0 * u0 + 2 * a1 * u1
            d1 = a0 * u1 + a1 * u0
            if odd != 1:
                if not odd:
                    raise ExactDivisionError("division by zero")
                if d0 % odd or d1 % odd:
                    raise ExactDivisionError(f"{self.amplitude(a0, a1)!r} / {p!r} is not in the ring")
                d0 //= odd
                d1 //= odd
            if d0 or d1:
                out[key] = (d0 << up, d1 << up)
        self.terms = out
        self.k += 2 * lift

    def _move(self, gate: Gate, cmask: int, cval: int) -> None:
        """Relabel the keys that pass the controls: X flips a wire, PERM moves
        bits, a projector drops keys and ORACLE flips its target where the accept
        mask of the x wires' value, looked up once per value, has the b wires'
        bit set. No key map moves a control wire or merges two keys (Gate
        checks that when it is made), so no numerator changes."""
        terms, kind = self.terms, gate.kind
        m = self._mask(gate.wires[-1])
        if kind == "X":
            self.terms = {k ^ m if k & cmask == cval else k: v for k, v in terms.items()}
        elif kind.startswith("PROJ"):
            want = m if kind == "PROJ1" else 0
            self.terms = {k: v for k, v in terms.items() if k & m == want or k & cmask != cval}
        elif kind == "PERM":
            pairs = [(self._mask(s), self._mask(d)) for s, d in zip(gate.wires, gate.param)]
            kept = ~sum(s for s, _ in pairs)

            def permute(key: int) -> int:
                new = key & kept
                for s, d in pairs:
                    if key & s:
                        new |= d
                return new

            self.terms = {permute(k) if k & cmask == cval else k: v for k, v in terms.items()}
        else:
            verifier, nx = gate.param
            xs = [self.width - 1 - w for w in gate.wires[:nx]]
            x_mask = sum(1 << s for s in xs)
            b = gate.wires[nx:-1]
            lo = self.width - 1 - max(b)
            span = (2 << max(b) - min(b)) - 1
            accepts = {}
            for x_value in {k & x_mask for k in terms if k & cmask == cval}:
                accept = verifier.accept_mask(tuple(x_value >> s & 1 for s in xs))
                if b != tuple(range(b[0], b[-1] + 1)):  # index the mask by the bits of b's span
                    accept = sum(1 << i for i in range(span + 1) if accept >> key_of(
                        i << lo >> self.width - 1 - w & 1 for w in b) & 1)
                accepts[x_value] = accept
            self.terms = {k ^ m if k & cmask == cval and accepts[k & x_mask] >> (k >> lo & span) & 1
                          else k: v for k, v in terms.items()}


def _butterflies(v: list[int], layer: int) -> tuple[int, ...]:
    """The unnormalized Walsh-Hadamard transform of v (its length a power of
    two) on the index bits set in `layer` (Fino and Algazi, 1976), on v packed
    as the biased lanes of one int (SIMD within a register: Fisher and Dietz,
    1998; _NumeratorState has the lane-width rule). Each bit is one butterfly
    on all lanes, e = b & m; o = b >> sh & m; b = (e + o - t) | (e - o + t) << sh:
    m covers the lanes whose index has the bit clear, which take the sums, sh
    shifts a lane onto its partner and t is the bias in m's lanes. Each mask
    is built for its pass from a repeated byte pattern."""
    count = len(v)
    top = max(max(v), -min(v)).bit_length() + layer.bit_count() + 1
    size = -(-top // 8)  # bytes a lane
    if size <= 8:
        size = 1 << (size - 1).bit_length()
    fmt = f"<{count}{'bhiq'[size.bit_length() - 1]}" if size <= 8 else None  # struct's codes
    # A two's-complement lane is biased by flipping its top bit.
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")
    packed = struct.pack(fmt, *v) if fmt else b"".join(
        x.to_bytes(size, "little", signed=True) for x in v)
    b = int.from_bytes(packed, "little") ^ bias
    ones, zeros = b"\xff" * size, bytes(size)
    for bit in range(layer.bit_length()):
        if layer >> bit & 1:
            run = 1 << bit
            m = int.from_bytes((ones * run + zeros * run) * (count >> bit + 1), "little")
            t = bias & m
            sh = 8 * size * run
            e = b & m
            o = b >> sh & m
            b = (e + o - t) | (e - o + t) << sh
    packed = (b ^ bias).to_bytes(count * size, "little")
    if fmt:
        return struct.unpack(fmt, packed)
    return tuple(int.from_bytes(packed[i:i + size], "little", signed=True)
                 for i in range(0, len(packed), size))
