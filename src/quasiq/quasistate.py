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
controls and act on distinct wires as one unnormalized Walsh-Hadamard layer
on dense integer lists, one group of terms at a time, and every other gate
through its kind's family method. StateVector.apply is the per-gate
reference the kernel is tested against.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from itertools import compress
from operator import add, neg, or_, sub
from typing import Iterable, Iterator

from quasiq.exactnum import HALF, INV_SQRT2, ONE, TWO, ZERO, Amplitude, ExactDivisionError


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
    name = obj["verifier"]
    if verifiers is None or name not in verifiers:
        raise KeyError(f"no verifier named {name!r} to rebind the oracle gate")
    return verifiers[name], obj["n_input_wires"]


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


@dataclass(frozen=True)
class Gate:
    """One typed gate application on named wires.

    param holds the kind-specific data: an int for G/A (the |0>-branch
    multiplier), an Amplitude for N, the destination tuple for PERM, and
    (verifier, n_input_wires) for ORACLE.
    """

    kind: str
    wires: tuple[int, ...]
    controls: tuple[tuple[int, int], ...] = ()
    param: object = None

    def __post_init__(self):
        """Check all but the wire range (control_mask's, as it needs the width):
        a known kind, its wire count, distinct wires, no control on a gate wire,
        a parameter of the kind's type (none if it has no codec), a PERM that
        relabels its own wires, ORACLE registers as its verifier's."""
        kind, wires, param = self.kind, self.wires, self.param
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
        if any(w in wires for w, _ in self.controls):
            raise WireError("control wires overlap gate wires")
        if kind == "PERM" and sorted(wires) != sorted(param):
            raise WireError("PERM must relabel distinct wires within the same set")
        if kind == "ORACLE":
            v, nx = param
            if (nx, len(wires)) != (v.n, v.n + v.m + 1):
                raise WireError(f"oracle arity mismatch: gate has {len(wires[:nx])}+"
                                f"{len(wires[nx:-1])} wires, verifier wants {v.n}+{v.m}")

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
        """The gate of a to_json dump; Gate() names a bad kind or a missing param."""
        kind, param = obj["kind"], obj.get("param")
        codec = _KINDS[kind].param if kind in _KINDS else None
        if codec and param is not None:
            param = codec.from_json(param, verifiers)
        return cls(kind, tuple(obj["wires"]), tuple((w, p) for w, p in obj.get("controls", [])),
                   param)


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
        width = self.width
        cmask, cval = gate.control_mask(width)
        out: dict[int, Amplitude] = {}

        def put(key: int, amp: Amplitude) -> None:
            prev = out.get(key)
            out[key] = amp if prev is None else prev + amp

        kind = gate.kind
        if kind == "ORACLE":
            verifier, nx = gate.param
            xw, bw, target = gate.wires[:nx], gate.wires[nx:-1], gate.wires[-1]
        if kind == "PERM":
            shift = [(width - 1 - s, width - 1 - d) for s, d in zip(gate.wires, gate.param)]
            moved = 0
            for s, _ in shift:
                moved |= 1 << s

        for key, amp in self.terms.items():
            if key & cmask != cval:
                put(key, amp)
                continue
            if kind == "H":
                m = 1 << (width - 1 - gate.wires[0])
                scaled = amp * INV_SQRT2
                put(key & ~m, scaled)
                put(key | m, scaled if key & m == 0 else -scaled)
            elif kind == "X":
                put(key ^ (1 << (width - 1 - gate.wires[0])), amp)
            elif kind == "S":
                m = 1 << (width - 1 - gate.wires[0])
                put(key, amp)
                if key & m:
                    put(key & ~m, amp)
            elif kind == "SINV":
                m = 1 << (width - 1 - gate.wires[0])
                put(key, amp)
                if key & m:
                    put(key & ~m, -amp)
            elif kind in ("B", "BINV", "G", "GINV", "A", "AINV", "N", "NINV"):
                m = 1 << (width - 1 - gate.wires[0])
                if key & m:
                    put(key, amp)
                elif kind == "B":
                    put(key, amp * HALF)
                elif kind == "BINV":
                    put(key, amp * TWO)
                elif kind in ("G", "A"):
                    put(key, amp.scale_int(gate.param))
                elif kind in ("GINV", "AINV"):
                    put(key, amp.div_exact(Amplitude(gate.param, 0, 0)))
                elif kind == "N":
                    put(key, amp * gate.param)
                else:  # NINV
                    put(key, amp.div_exact(gate.param))
            elif kind in ("D", "DINV"):
                m1 = 1 << (width - 1 - gate.wires[0])
                m2 = 1 << (width - 1 - gate.wires[1])
                put(key, amp)
                if key & m1:
                    put(key & ~m1 & ~m2, -amp if kind == "D" else amp)
            elif kind == "PROJ0":
                if key & (1 << (width - 1 - gate.wires[0])) == 0:
                    put(key, amp)
            elif kind == "PROJ1":
                if key & (1 << (width - 1 - gate.wires[0])):
                    put(key, amp)
            elif kind == "PERM":
                new = key & ~moved
                for s, d in shift:
                    if key & (1 << s):
                        new |= 1 << d
                put(new, amp)
            elif kind == "ORACLE":
                xbits = tuple((key >> (width - 1 - w)) & 1 for w in xw)
                bbits = tuple((key >> (width - 1 - w)) & 1 for w in bw)
                if verifier.eval(xbits, bbits):
                    key ^= 1 << (width - 1 - target)
                put(key, amp)
            else:
                raise ValueError(f"unknown gate kind {kind!r}")
        return StateVector(width, out)

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
        if width is None:
            if not entries:
                raise ValueError("cannot infer width of an empty dump")
            width = len(entries[0]["basis"])
        terms = {
            key_of_label(entry["basis"]): Amplitude.from_json(entry["amp"])
            for entry in entries
        }
        return cls(width, terms)


# -- integer-numerator kernel -------------------------------------------------------

class _NumeratorState:
    """The exact simulator's working state: integer numerators over one
    shared power of sqrt(2).

    terms maps each basis key to an integer pair (c0, c1) standing for the
    amplitude (c0 + c1*sqrt(2)) / sqrt(2)**k, with one k for the whole state.
    Gates then cost integer adds and multiplies only; Amplitudes, and their
    canonical form, are built only when `to_state` is asked for one.
    StateVector.apply is the reference this kernel must agree with exactly.
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
        and act on distinct wires as one layer, any other gate by its family."""
        i, end = 0, len(gates)
        while i < end:
            gate = gates[i]
            i += 1
            cmask, cval = gate.control_mask(self.width)
            if gate.kind != "H":
                getattr(self, _KINDS[gate.kind].family)(gate, cmask, cval)
                continue
            wires = [gate.wires[0]]
            while (i < end and gates[i].kind == "H" and gates[i].controls == gate.controls
                   and gates[i].wires[0] not in wires):
                gates[i].control_mask(self.width)  # the wire-range check
                wires.append(gates[i].wires[0])
                i += 1
            self._hadamards(wires, cmask, cval)

    def _hadamards(self, wires: list[int], cmask: int, cval: int) -> None:
        """H on each of the distinct `wires`: one unnormalized Walsh-Hadamard
        transform of size 2**L per group of terms that agree off the layer
        wires, on two dense lists for one group at a time. The 1/sqrt2**L goes
        into k, so a term that fails the controls is multiplied by sqrt2**L
        instead."""
        size = len(wires)
        half = size >> 1
        runs = self._runs(tuple(sorted(wires)))
        layer = sum(low << shift for shift, low, _ in runs)
        # place[i]: the layer-wire bits of a key whose dense index is i, built
        # one run of adjacent wires at a time from the lowest index bits up. It
        # has 2**L entries and lives for this call only.
        place = None
        for shift, low, _ in runs:
            high = range(0, (low + 1) << shift, 1 << shift)
            place = high if place is None else [h | p for h in high for p in place]
        terms = self.terms
        out = {}
        groups: dict[int, list[int]] = {}
        rest_mask = ~layer
        for key, (a0, a1) in terms.items():
            if key & cmask != cval:
                out[key] = (a1 << (half + 1), a0 << half) if size & 1 else (a0 << half, a1 << half)
                continue
            group = groups.get(key & rest_mask)
            if group is None:
                groups[key & rest_mask] = [key]
            else:
                group.append(key)
        indices = range(len(place))
        for rest, keys in groups.items():
            c0 = [0] * len(place)
            c1 = [0] * len(place)
            ones, zeros = -1, -1  # index bits that are 1, or 0, in every term
            for key in keys:
                index = 0
                for shift, low, up in runs:
                    index |= (key >> shift & low) << up
                c0[index], c1[index] = terms[key]
                ones &= index
                zeros &= ~index
            c0 = nonzero = _walsh_hadamard(c0, size, ones, zeros)
            if any(c1):
                c1 = _walsh_hadamard(c1, size, ones, zeros)
                nonzero = map(or_, c0, c1)
            for index in compress(indices, nonzero):
                out[rest | place[index]] = c0[index], c1[index]
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

    def _diag(self, gate: Gate, cmask: int, cval: int) -> None:
        """diag(p**sign, 1): multiply the |0> branch by p, or divide it exactly
        by p for an inverse kind; powers of two go into k. p is 1/2 for B, the
        integer parameter for G and A, and the Amplitude for N."""
        p = gate.param if _KINDS[gate.kind].param else HALF  # B takes no parameter
        if not isinstance(p, Amplitude):
            p = Amplitude(p, 0, 0)
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

    def _key_map(self, gate: Gate):
        """The basis-key map of X, PERM, ORACLE or a projector (None drops
        the term); the numerators are untouched."""
        kind = gate.kind
        if kind == "X":
            m = self._mask(gate.wires[0])
            return lambda key: key ^ m
        if kind.startswith("PROJ"):
            m = self._mask(gate.wires[0])
            want = m if kind == "PROJ1" else 0
            return lambda key: key if key & m == want else None
        if kind == "PERM":
            shift = [(self._mask(s), self._mask(d)) for s, d in zip(gate.wires, gate.param)]
            moved = 0
            for s, _ in shift:
                moved |= s

            def permute(key: int) -> int:
                new = key & ~moved
                for s, d in shift:
                    if key & s:
                        new |= d
                return new

            return permute
        # ORACLE: the verifier's accept mask for the x wires' value, looked up once
        # per distinct value; the b wires' value is the bit to test in it.
        verifier, nx = gate.param
        xs = [self.width - 1 - w for w in gate.wires[:nx]]
        x_mask = sum(1 << s for s in xs)
        runs = self._runs(gate.wires[nx:-1])
        flip = self._mask(gate.wires[-1])
        masks: dict[int, int] = {}

        def oracle(key: int) -> int:
            x_value = key & x_mask
            accept = masks.get(x_value)
            if accept is None:
                accept = masks[x_value] = verifier.accept_mask(
                    tuple((key >> s) & 1 for s in xs))
            branch = 0
            for shift, low, up in runs:
                branch |= (key >> shift & low) << up
            return key ^ flip if accept >> branch & 1 else key

        return oracle

    def _runs(self, wires: tuple[int, ...]) -> list[tuple[int, int, int]]:
        """Read the bits on `wires` as a big-endian integer in one shift and
        mask per run of adjacent wires: the sum over the returned (shift,
        low, up) of (key >> shift & low) << up."""
        runs = []
        end = len(wires)
        while end:
            start = end - 1
            while start and wires[start - 1] == wires[start] - 1:
                start -= 1
            length = end - start
            runs.append((self.width - 1 - wires[end - 1], (1 << length) - 1,
                         len(wires) - end))
            end = start
        return runs

    def _move(self, gate: Gate, cmask: int, cval: int) -> None:
        """Relabel the keys that pass the controls by the gate's key map. Every
        key map is injective and leaves the control wires alone (Gate checks
        that when it is made), so no two terms meet and none needs adding."""
        key_map = self._key_map(gate)
        out: dict[int, tuple[int, int]] = {}
        for key, value in self.terms.items():
            if key & cmask == cval:
                key = key_map(key)
                if key is None:
                    continue
            out[key] = value
        self.terms = out


def _walsh_hadamard(v: list[int], passes: int, ones: int, zeros: int) -> list[int]:
    """The unnormalized transform H^{(x)passes} of v (length 2**passes), in
    natural index order: pass p butterflies index bit p, which a perfect
    shuffle has brought to the bottom, and moves it to the top (Fino and
    Algazi, 1976). Where bit p is 1 (in `ones`) or 0 (in `zeros`) on every
    nonzero entry, half the pairs are zero and the pass only copies."""
    for p in range(passes):
        if zeros >> p & 1:
            e = v[0::2]
            v = [*e, *e]
        elif ones >> p & 1:
            o = v[1::2]
            v = [*o, *map(neg, o)]
        else:
            e, o = v[0::2], v[1::2]
            v = [*map(add, e, o), *map(sub, e, o)]
    return v
