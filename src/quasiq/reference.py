"""The per-gate reference simulator, and the Amplitude operations that only it
and people reading results need: exact division and the display form.

No command runs this code: circuits run on quasistate's integer kernel, which
the tests check against `apply_gate` term by term. StateVector.apply,
Amplitude.div_exact and Amplitude.__str__ delegate here, so the module is
compiled only by a caller that uses one of them.
"""
from __future__ import annotations

from quasiq.exactnum import HALF, INV_SQRT2, TWO, Amplitude, ExactDivisionError
from quasiq.quasistate import Gate, StateVector


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
