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

Circuits run on a private kernel (_NumeratorState, at the end of this
module): integer numerators over one shared power of sqrt(2), packed in lanes
of ints over the wires H gates target. Its one entry point, `run`, applies
each run of H gates as one layer of butterflies, each run of equal B, G or A
gates as one diagonal pass, and every other gate by its family. StateVector.apply
is the per-gate reference it is tested against; its code is in quasiq.reference.
"""
from __future__ import annotations

import struct
from collections import namedtuple
from functools import lru_cache, partial, reduce
from itertools import compress
from operator import or_
from typing import Iterable, Iterator

from quasiq.exactnum import ONE, ZERO, Amplitude


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


# A pattern's mask bits and value bits; any other character passes through.
_MASK_BITS = str.maketrans("01*.·", "11000")
_VALUE_BITS = str.maketrans("*.·", "000")


def compile_pattern(pattern: str) -> tuple[int, int]:
    """Bit pattern with wildcards ('*', '.', or middle dot) -> (mask, value)."""
    mask = pattern.translate(_MASK_BITS)
    bad = mask.lstrip("01")
    if bad:
        raise ValueError(f"bad pattern character {bad[0]!r}")
    return key_of_label(mask), key_of_label(pattern.translate(_VALUE_BITS))


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

# Each gate family as op(lo, hi, t) on the halves of its target: the lanes that
# read 0 and 1, aligned, t their bias. S and D add one half into the other.
_HALF_OPS = {"H": lambda lo, hi, t: (lo + hi - t, lo - hi + t), "X": lambda lo, hi, t: (hi, lo),
             "PROJ0": lambda lo, hi, t: (lo, t), "PROJ1": lambda lo, hi, t: (t, hi),
             "S": lambda lo, hi, t: (lo + hi - t, hi), "SINV": lambda lo, hi, t: (lo - hi + t, hi)}


class _NumeratorState:
    """The exact simulator's working state (README, "Kernel notes"): a key's
    amplitude is (c0 + c1*sqrt(2)) / sqrt(2)**k. `blocks` maps each key, inner
    bits clear, to (c0, c1): ints whose w-bit lanes, one a value of the inner
    wires, hold the numerators plus 2**(w-1), c1 None where all zero; no block
    is all zeros. `bits` bounds each numerator's length, so `_fit` can widen
    the lanes in time and no lane borrows from the next."""

    __slots__ = ("width", "inner", "lanes", "count", "outer", "blocks", "k", "size", "bits", "bias", "fmt")

    def __init__(self, width: int, key: int, inner: Iterable[int] = ()):
        self.width, self.k, self.size, self.bits = width, 0, 1, 1
        self._place(inner)
        lane = sum(lb for bit, lb in self.lanes.items() if key & bit)
        self.blocks = {key & self.outer: (self.bias + (1 << 8 * lane), None)}

    def _place(self, inner: Iterable[int]) -> None:
        self.inner = tuple(sorted(inner))
        self.count = 1 << len(self.inner)
        self.lanes = {1 << self.width - 1 - w: self.count >> 1 + i for i, w in enumerate(self.inner)}
        self.outer = ~sum(self.lanes)  # key bit -> lane bit above; the outer wires' key bits
        self.bias = int.from_bytes((bytes(self.size - 1) + b"\x80") * self.count, "little")
        self.fmt = f"<{self.count}{'bhiq'[self.size.bit_length() - 1]}" if self.size <= 8 else None

    def fork(self, parent: _NumeratorState, final: StateVector) -> None:
        """Go on from `parent`'s state, held by `final` too, on the wires this state's H
        gates target and `final` spans: as its blocks if it has them inner, else `final`."""
        self.k, self.size, self.bits, lift = parent.k, parent.size, parent.bits, self.width - parent.width
        first = next(iter(final.terms), 0)
        spread = reduce(or_, (key ^ first for key in final.terms), 0)
        self._place({w for w in range(parent.width) if spread >> parent.width - 1 - w & 1} | set(self.inner))
        if self.inner == parent.inner:
            self.blocks = {key << lift: block for key, block in parent.blocks.items()}
            return
        blocks, e = {}, (self.k + 1) >> 1
        for key, amp in final.terms.items():  # the numerators to_state read
            v0, v1 = blocks.setdefault(key << lift & self.outer, ([0] * self.count, [0] * self.count))
            lane = sum(lb for bit, lb in self.lanes.items() if key << lift & bit)
            c0, c1 = amp.c0 << e - amp.e, amp.c1 << e - amp.e
            v0[lane], v1[lane] = (c1, c0 >> 1) if self.k & 1 else (c0, c1)
        self.blocks = {key: (self._pack(v0), self._pack(v1) if any(v1) else None)
                       for key, (v0, v1) in blocks.items()}

    def _unpack(self, c: int) -> tuple[int, ...]:
        raw = (c ^ self.bias).to_bytes(self.size * self.count, "little")  # flips each top bit
        return struct.unpack(self.fmt, raw) if self.fmt else tuple(
            int.from_bytes(raw[i:i + self.size], "little", signed=True) for i in range(0, len(raw), self.size))

    def _pack(self, values) -> int:
        raw = (struct.pack(self.fmt, *values) if self.fmt
               else b"".join(v.to_bytes(self.size, "little", signed=True) for v in values))
        return int.from_bytes(raw, "little") ^ self.bias

    def _offsets(self):  # the key bits of each lane index
        step = 1 << self.width - 1 - self.inner[-1] if self.inner else 1
        if ~self.outer == step * (self.count - 1):  # adjacent inner wires
            return range(0, step * self.count, step)
        offsets = [0]
        for bit in reversed(self.lanes):
            offsets += [o | bit for o in offsets]
        return offsets

    def to_state(self) -> StateVector:
        offsets, k, state = self._offsets(), self.k, StateVector(self.width)
        e = (k + 1) >> 1  # k odd: (c0 + c1*sqrt2) / sqrt2**k == (2*c1 + c0*sqrt2) / 2**e
        for key, (c0, c1) in self.blocks.items():  # one unpack and one compress a block
            v0 = self._unpack(c0)
            v1 = (0,) * len(v0) if c1 is None else self._unpack(c1)
            state.terms.update({key | offsets[i]: Amplitude(v1[i] << 1, v0[i], e) if k & 1
                                else Amplitude(v0[i], v1[i], e) for i in compress(
                                    range(len(v0)), v0 if c1 is None else map(or_, v0, v1))})
        return state

    def _fit(self, grow: int) -> None:
        """Make room for numerators `grow` bits longer in the narrowest lanes of 1, 2, 4,
        8 or more bytes: a size's `room` holds them if each v + low is in [0, 2**room)."""
        w, bias, size = 8 * self.size, self.bias, self.size
        while self.bits + grow >= w:
            room = 8 * size - 1 - grow  # at least w - 1 holds any numerator the lanes can
            low = bias >> w - room if 0 < room < w else 0
            if room >= w - 1 or low and all(c is None or (y := c - bias + low) >= 0 and not y & (
                    bias - low) << 1 for block in self.blocks.values() for c in block):
                self.bits = min(self.bits, room)
                break
            size = size << 1 if size < 8 else size + 1
        if size > self.size:
            blocks = {key: [c and self._unpack(c) for c in block] for key, block in self.blocks.items()}
            self.size = size
            self._place(self.inner)
            self.blocks = {key: tuple(v and self._pack(v) for v in block) for key, block in blocks.items()}
        self.bits += grow

    def _lanes(self, cm: int, cv: int) -> int:  # all-ones lanes where lane i has i & cm == cv
        pattern, span = b"\xff" * self.size, 1  # the pattern of lanes 0 to span - 1
        while cm:
            bit = cm & -cm
            blank = bytes(len(pattern) * bit // span)
            pattern = blank + pattern * (bit // span) if cv & bit else pattern * (bit // span) + blank
            cm, span = cm ^ bit, bit << 1
        return int.from_bytes(pattern * (self.count // span), "little")

    def _controls(self, cmask: int, cval: int) -> tuple[int, int, int, int]:  # outer, lane
        lanes = [(lane, cval & bit) for bit, lane in self.lanes.items() if cmask & bit]
        return cmask & self.outer, cval & self.outer, sum(lb for lb, _ in lanes), sum(lb for lb, v in lanes if v)

    def _settle(self, blocks: dict) -> None:  # c1 None for zeros, and no block of zeros
        self.blocks = {key: (c0, None if c1 == self.bias else c1) for key, (c0, c1) in blocks.items()
                       if c0 != self.bias or c1 not in (None, self.bias)}

    def _pairs(self, halves, cmask: int, cval: int, op, lanes_of=None) -> None:
        """Apply op to each pair of halves, c0 and c1 alike, in the lanes the controls
        and lanes_of(key) pass: halves (b0, b1) are the keys that read b0 and b1 on
        b0 | b1, or for an inner wire's (0, bit), the lanes that read 0 and 1."""
        ocm, ocv, icm, icv = self._controls(cmask, cval)
        bias, blocks, last = self.bias, self.blocks, 0
        for bit0, bit1 in halves:
            lane, both = 0 if bit0 else self.lanes.get(bit1, 0), bit0 | bit1
            sh = 8 * self.size * lane
            if lane and not icm and lane << 1 == last:  # its mask from the one before
                base ^= base & base << sh
                base |= base << 2 * sh
            else:
                base = self._lanes(icm | lane, icv)
            last = lane
            out = {} if lane and not ocm else {key: block for key, block in blocks.items()
                                               if key & ocm != ocv or key & both not in (bit0, bit1)}
            for k0 in blocks if lane and not ocm else {key & ~both | bit0 for key in blocks.keys() - out}:
                k1 = k0 if lane else k0 ^ both  # a missing block reads as zeros
                mask = base if lanes_of is None else base & lanes_of(k0)
                t, keep = bias & mask, ~(mask | mask << sh) if icm or lanes_of else 0
                (a0, a1), (b0, b1) = blocks.get(k0, (bias, None)), blocks.get(k1, (bias, None))
                new = [(a0, b0)] + ([(a1 or bias, b1 or bias)] if a1 or b1 else [])
                for i, (a, b) in enumerate(new):
                    lo, hi = op(a & mask, b >> sh & mask, t)
                    new[i] = (a & keep | lo | hi << sh, None) if lane else (a & keep | lo, b & keep | hi)
                c1 = new[1] if len(new) > 1 else (None, None)
                out[k0] = new[0][0], c1[0]
                if not lane:
                    out[k1] = new[0][1], c1[1]
            blocks = out
        self._settle(blocks)

    def _map(self, cmask: int, cval: int, inside, outside) -> None:
        """Each block as inside(c0, c1) where the controls pass, else outside(c0, c1)."""
        ocm, ocv, icm, icv = self._controls(cmask, cval)
        sel, bias, out = self._lanes(icm, icv) if icm else None, self.bias, {}
        for key, block in self.blocks.items():
            if key & ocm != ocv or sel is None:
                out[key] = (outside if key & ocm != ocv else inside)(*block)
            else:
                out[key] = tuple(None if a is None is b else (a or bias) & sel | (b or bias) & ~sel
                                 for a, b in zip(inside(*block), outside(*block)))
        self._settle(out)

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
        """H on each of the distinct `wires`; the 1/sqrt2**L goes into k, so the lanes
        that fail the controls are multiplied by sqrt2**L instead, first."""
        self._fit(size := len(wires))
        if cmask:
            bias, half = self.bias, size >> 1
            up = lambda c, shift: c and (c - bias << shift) + bias  # noqa: E731
            self._map(cmask, cval, lambda c0, c1: (c0, c1), lambda c0, c1: (
                (up(c1, half + 1) or bias, up(c0, half)) if size & 1 else (up(c0, half), up(c1, half))))
        self._pairs([(0, 1 << self.width - 1 - w) for w in sorted(wires)], cmask, cval, _HALF_OPS["H"])
        self.k += size

    def _shear(self, gate: Gate, cmask: int, cval: int) -> None:
        """S adds the |1> half into the |0> half (SINV subtracts). D subtracts |1?> into
        |00> (DINV adds): with v inner, on u's halves, moving v's 1 lanes onto its 0
        lanes m0; else in three S steps."""
        sign, top = _KINDS[gate.kind].sign, self.width - 1
        self._fit(len(gate.wires))
        u, v = 1 << top - gate.wires[0], 1 << top - gate.wires[-1]
        if u == v:
            self._pairs([(0, u)], cmask, cval, _HALF_OPS[gate.kind])
        elif v in self.lanes:
            m0, sh = self._lanes(self.lanes[v], 0), 8 * self.size * self.lanes[v]
            self._pairs([(0, u)], cmask, cval, lambda lo, hi, t: (
                lo + sign * ((hi & m0) + (hi >> sh & m0) - 2 * (t & m0)), hi))
        else:  # |10> += |11>, |00> -= |10> (or +=), |10> -= |11>
            self._pairs([(0, v)], cmask | u, cval | u, _HALF_OPS["S"])
            self._pairs([(0, u)], cmask | v, cval & ~v, _HALF_OPS["S" if sign > 0 else "SINV"])
            self._pairs([(0, v)], cmask | u, cval | u, _HALF_OPS["SINV"])

    def _diag(self, gate: Gate, cmask: int, cval: int, power: int = 1) -> None:
        """diag(p**sign, 1), `power` times (above 1 only for B, G and A): multiply the
        |0> lanes by p**power, an int product a block (an inverse kind divides them
        exactly), powers of two going into k. p is 1/2 for B, else G's, A's or N's."""
        p = gate.param if isinstance(gate.param, Amplitude) else (  # B's 1/2, G's or A's integer
            Amplitude(1, 0, power) if gate.param is None else Amplitude(gate.param ** power, 0, 0))
        u0, u1, odd, shift = p.reciprocal() if _KINDS[gate.kind].sign < 0 else (p.c0, p.c1, 1, -p.e)
        lift, up = max(-shift, 0), max(shift, 0)  # lift: every other lane, and k
        self._fit(max(lift, up + (abs(u0) + 2 * abs(u1) - 1).bit_length()))
        bias, bit = self.bias, 1 << self.width - 1 - gate.wires[0]
        cmask, cval = cmask | bit, cval & ~bit  # the target reading 0 is one more control

        def scaled(c0, c1):
            if odd != 1:
                from quasiq.reference import divide_lanes
                return divide_lanes(self, c0, c1, (u0, u1, odd, up, p), self._controls(cmask, cval))
            a0, a1 = c0 - bias, 0 if c1 is None else c1 - bias
            return ((a0 * u0 + 2 * a1 * u1 << up) + bias,
                    None if c1 is None and not u1 else (a0 * u1 + a1 * u0 << up) + bias)

        self._map(cmask, cval, scaled, lambda c0, c1: tuple(c and (c - bias << lift) + bias for c in (c0, c1)))
        self.k += 2 * lift

    def _move(self, gate: Gate, cmask: int, cval: int) -> None:
        """X swaps its wire's halves and a projector zeros one; PERM is a product of
        transpositions; ORACLE is X on the lanes an accept mask selects, a lane mask
        per x value made by str.translate (if, as in every construction, the x
        wires are outer and the b wires adjacent inner ones)."""
        kind, top = gate.kind, self.width - 1
        if kind == "PERM":
            at = {w: w for w in gate.wires}  # source wire -> the wire that holds its bit now
            for src, dest in zip(gate.wires, gate.param):
                u, v = sorted((1 << top - at[src], 1 << top - dest), key=self.lanes.__contains__)
                if u == v:
                    continue
                other = next(s for s, w in at.items() if w == dest)
                at[src], at[other] = dest, at[src]
                if v not in self.lanes:  # both outer: pair the blocks that read 01 and 10
                    self._pairs([(v, u)], cmask, cval, _HALF_OPS["X"])
                    continue
                ones, sh = self._lanes(self.lanes[v], self.lanes[v]), 8 * self.size * self.lanes[v]
                self._pairs([(0, u)], cmask, cval, lambda lo, hi, t: (  # v's 1 lanes, shift
                    lo & ~ones | (hi & ~ones) << sh, hi & ones | (lo & ones) >> sh))
        elif kind != "ORACLE":
            self._pairs([(0, 1 << top - gate.wires[0])], cmask, cval, _HALF_OPS[kind])
        else:
            verifier, nx = gate.param
            xs, bs = gate.wires[:nx], gate.wires[nx:-1]
            lbs, masks, mask_of = [self.lanes.get(1 << top - w, 0) for w in bs], {}, lru_cache()(
                verifier.accept_mask)  # one accept mask per x value, for this gate only

            def accept(key):
                return mask_of(tuple(key >> top - w & 1 for w in xs))

            def lanes_of(key):
                mask = accept(key)
                if mask not in masks:
                    masks[mask] = int.from_bytes(format(mask, f"0{1 << len(bs)}b")[::-1].translate(
                        table).encode("latin-1") * (self.count >> low + len(bs)), "little")
                return masks[mask]

            if (lbs and all(lb == lbs[0] >> i > 0 for i, lb in enumerate(lbs))
                    and not any(1 << top - w in self.lanes for w in xs)):
                low = lbs[-1].bit_length() - 1  # lanes b << low to (b + 1 << low) - 1 read b
                table = {48: "\0" * (self.size << low), 49: "\xff" * (self.size << low)}
            else:  # lane by lane
                from quasiq.reference import oracle_lanes
                lanes_of = partial(oracle_lanes, self, accept, bs)
            self._pairs([(0, 1 << top - gate.wires[-1])], cmask, cval, _HALF_OPS["X"], lanes_of)
