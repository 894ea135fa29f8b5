"""Code that no command runs, compiled only by a caller that uses it: the
per-gate reference simulator, and the kernel's way to apply through it the
gates no construction makes; the wildcard patterns of StateVector.match; the
Amplitude operations that only it and people reading results need (exact
division, the display form); the DSL's one-branch evaluator and printer.

Circuits run on quasistate's integer kernel, which the tests check against
`apply_gate` term by term. StateVector.apply, Amplitude.div_exact,
Amplitude.__str__, the DSL module's eval_dsl and print_dsl, and the kernel's
N, inverse diagonal kinds and other ORACLE and PERM layouts delegate here.
"""
from __future__ import annotations

from quasiq.exactnum import HALF, INV_SQRT2, Amplitude, ExactDivisionError
from quasiq.harness.dsl_language import _OPS, _PRECEDENCE, BinOp, Bits, DslExpr, Lit, Not, Parity, Ref
from quasiq.quasistate import Gate, StateVector, key_of_label


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """The state after `gate`, one term and one Amplitude at a time."""
    width = state.width
    cmask, cval = gate.control_mask(width)
    out: dict[int, Amplitude] = {}

    def put(key: int, amp: Amplitude) -> None:
        prev = out.get(key)
        out[key] = amp if prev is None else prev + amp

    kind = gate.kind
    diag = kind in ("B", "BINV", "G", "GINV", "A", "AINV", "N", "NINV")
    if diag:  # diag(p, 1), or diag(1/p, 1) for an inverse kind
        p = HALF if kind[0] == "B" else gate.param if kind[0] == "N" else Amplitude(gate.param, 0, 0)
    if kind == "ORACLE":
        verifier, nx = gate.param
        xw, bw, target = gate.wires[:nx], gate.wires[nx:-1], gate.wires[-1]
    if kind == "PERM":
        shift = [(width - 1 - s, width - 1 - d) for s, d in zip(gate.wires, gate.param)]
        moved = sum(1 << s for s, _ in shift)

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
        elif kind in ("S", "SINV"):
            m = 1 << (width - 1 - gate.wires[0])
            put(key, amp)
            if key & m:
                put(key & ~m, amp if kind == "S" else -amp)
        elif diag:
            if key & (1 << (width - 1 - gate.wires[0])):
                put(key, amp)
            else:
                put(key, div_exact(amp, p) if kind.endswith("INV") else amp * p)
        elif kind in ("D", "DINV"):
            m1 = 1 << (width - 1 - gate.wires[0])
            m2 = 1 << (width - 1 - gate.wires[1])
            put(key, amp)
            if key & m1:
                put(key & ~m1 & ~m2, -amp if kind == "D" else amp)
        elif kind in ("PROJ0", "PROJ1"):
            if bool(key & (1 << (width - 1 - gate.wires[0]))) == (kind == "PROJ1"):
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


def apply_by_reference(kernel, gate: Gate) -> None:
    """Apply `gate` to a kernel state (quasistate._NumeratorState) through
    apply_gate, and hold the result on the same inner wires, k the least even
    one that every exponent fits."""
    terms = apply_gate(kernel.to_state(), gate).terms
    e = max((amp.e for amp in terms.values()), default=0)
    kernel.hold({key: (amp.c0 << e - amp.e, amp.c1 << e - amp.e) for key, amp in terms.items()}, 2 * e)


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


def reciprocal(a: Amplitude) -> tuple[int, int, int, int]:
    """(u0, u1, odd, shift) with 1/a == Amplitude(u0, u1, -shift) / odd for a
    positive odd `odd`, which is 0 when a is zero. From 1/a = 2**e *
    (c0 - c1*sqrt(2)) / (c0**2 - 2*c1**2), with the norm's sign and powers of
    two moved out."""
    c0, c1 = a.c0, a.c1
    norm = c0 * c0 - 2 * c1 * c1
    if norm < 0:
        c0, c1, norm = -c0, -c1, -norm
    twos = (norm & -norm).bit_length() - 1
    return c0, -c1, norm >> twos if norm else 0, a.e - twos


def div_exact(a: Amplitude, b: Amplitude) -> Amplitude:
    """Exact quotient a / b, or ExactDivisionError if it leaves the ring."""
    u0, u1, odd, shift = reciprocal(b)
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
