"""Code that no command runs, compiled only by a caller that uses it: the
per-gate reference simulator; the Amplitude operations that only it and
people reading results need (exact division, the display form); the DSL's
one-branch evaluator and printer; and the kernel's lane-by-lane paths, which
no construction takes.

Circuits run on quasistate's integer kernel, which the tests check against
`apply_gate` term by term. StateVector.apply, Amplitude.div_exact,
Amplitude.__str__, the DSL module's eval_dsl and print_dsl, and the kernel's
exact division and general ORACLE masks delegate here.
"""
from __future__ import annotations

from itertools import compress
from operator import or_

from quasiq.exactnum import HALF, INV_SQRT2, TWO, Amplitude, ExactDivisionError
from quasiq.harness.dsl_language import _OPS, _PRECEDENCE, BinOp, Bits, DslExpr, Lit, Not, Parity, Ref
from quasiq.quasistate import Gate, StateVector, key_of


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """The state after `gate`, one term and one Amplitude at a time."""
    width = state.width
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

    for key, amp in state.terms.items():
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
                put(key, div_exact(amp, Amplitude(gate.param, 0, 0)))
            elif kind == "N":
                put(key, amp * gate.param)
            else:  # NINV
                put(key, div_exact(amp, gate.param))
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


def div_exact(a: Amplitude, b: Amplitude) -> Amplitude:
    """Exact quotient a / b, or ExactDivisionError if it leaves the ring."""
    u0, u1, odd, shift = b.reciprocal()
    if not odd:
        raise ExactDivisionError("division by zero")
    # The quotient exists iff the odd part divides both integer components.
    num = a * Amplitude(u0, u1, -shift)
    if num.c0 % odd or num.c1 % odd:
        raise ExactDivisionError(f"{a!r} / {b!r} is not in the ring")
    return Amplitude(num.c0 // odd, num.c1 // odd, num.e)


def amplitude_str(a: Amplitude) -> str:
    """Display form, e.g. "(1-3sqrt2)/2^2"."""
    if a.is_zero():
        return "0"
    parts = []
    if a.c0:
        parts.append(str(a.c0))
    if a.c1:
        sign = "-" if a.c1 < 0 else ("+" if parts else "")
        mag = abs(a.c1)
        coeff = "" if mag == 1 else str(mag)
        parts.append(f"{sign}{coeff}sqrt2")
    body = "".join(parts)
    if a.e == 0:
        return body
    return f"({body})/2^{a.e}" if (a.c0 and a.c1) else f"{body}/2^{a.e}"


def divide_lanes(state, c0: int, c1: int | None, factor: tuple, controls: tuple) -> tuple[int, int]:
    """A block's numerators after the kernel's exact division by p, lane by
    lane in the lanes its lane controls select; (u0, u1, odd, up, p) are as
    _diag has them: (u0 + u1*sqrt2) * 2**up / odd is 1/p."""
    u0, u1, odd, up, p = factor
    icm, icv = controls[2:]
    v0 = state._unpack(c0)
    v1 = (0,) * len(v0) if c1 is None else state._unpack(c1)
    d0, d1 = [0] * len(v0), [0] * len(v0)
    for i in compress(range(len(v0)), map(or_, v0, v1)):
        if i & icm == icv:
            if not odd:
                raise ExactDivisionError("division by zero")
            n0, n1 = v0[i] * u0 + 2 * v1[i] * u1, v0[i] * u1 + v1[i] * u0
            if n0 % odd or n1 % odd:
                raise ExactDivisionError(f"({v0[i]} + {v1[i]}*sqrt2) / sqrt2**{state.k} / {p!r}"
                                         " is not in the ring")
            d0[i], d1[i] = n0 // odd << up, n1 // odd << up
    return state._pack(d0), state._pack(d1)


def oracle_lanes(state, accept, b_wires, key: int) -> int:
    """An ORACLE's lane mask for the block at `key`, lane by lane: for x wires
    that are not all outer or b wires that are not adjacent inner ones."""
    top, unit = state.width - 1, state.size
    chars = "".join("01"[accept(f) >> key_of(f >> top - w & 1 for w in b_wires) & 1]
                    for f in (key | off for off in state._offsets()))
    return int.from_bytes(chars.translate({48: "\0" * unit, 49: "\xff" * unit}).encode("latin-1"),
                          "little")


# -- the DSL's printer and one-branch evaluator ---------------------------------------


def _prec(expr: DslExpr) -> int:
    if isinstance(expr, BinOp):
        return _PRECEDENCE[expr.op]
    if isinstance(expr, Not):
        return 4
    return 5


def print_dsl(expr: DslExpr) -> str:
    if isinstance(expr, Lit):
        return str(expr.value)
    if isinstance(expr, Ref):
        return f"{expr.reg}[{expr.index}]"
    if isinstance(expr, Parity):
        return "parity(x & b)" if expr.arg == "x&b" else f"parity({expr.arg})"
    if isinstance(expr, Not):
        inner = print_dsl(expr.child)
        if _prec(expr.child) < 4:
            inner = f"({inner})"
        return f"!{inner}"
    prec = _PRECEDENCE[expr.op]
    left = print_dsl(expr.left)
    if _prec(expr.left) < prec:
        left = f"({left})"
    right = print_dsl(expr.right)
    if _prec(expr.right) <= prec:
        right = f"({right})"
    return f"{left} {expr.op} {right}"


def eval_dsl(expr: DslExpr, x: Bits, b: Bits) -> int:
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Ref):
        bits = x if expr.reg == "x" else b
        return bits[expr.index]
    if isinstance(expr, Not):
        return 1 - eval_dsl(expr.child, x, b)
    if isinstance(expr, Parity):
        if expr.arg == "x":
            values = x
        elif expr.arg == "b":
            values = b
        else:
            values = tuple(xi & bi for xi, bi in zip(x, b))
        acc = 0
        for v in values:
            acc ^= v
        return acc
    return _OPS[expr.op](eval_dsl(expr.left, x, b), eval_dsl(expr.right, x, b))
