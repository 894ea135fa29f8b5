"""Exact arithmetic over numbers of the form (c0 + c1*sqrt(2)) / 2**e.

This ring is closed under every gate coefficient the simulator uses: the
Hadamard coefficient 1/sqrt(2), the halving coefficient 1/2, and all integer
scalings.  Integer parts are arbitrary-precision Python ints, so no overflow
is possible, and equality of values reduces to equality of canonical triples.

Canonical form: e >= 0, and if e > 0 then c0 and c1 are not both even.
Zero is uniquely (0, 0, 0).
"""
from __future__ import annotations


class ExactDivisionError(ArithmeticError):
    """The quotient does not exist inside the ring."""


class Amplitude:
    """Immutable element (c0 + c1*sqrt(2)) / 2**e in canonical form."""

    __slots__ = ("c0", "c1", "e")

    def __init__(self, c0: int, c1: int, e: int = 0):
        # A negative raw exponent means the value is scaled up by 2**(-e).
        if e < 0:
            c0 <<= -e
            c1 <<= -e
            e = 0
        if c0 == 0 and c1 == 0:
            e = 0
        else:
            while e > 0 and (c0 & 1) == 0 and (c1 & 1) == 0:
                c0 >>= 1
                c1 >>= 1
                e -= 1
        object.__setattr__(self, "c0", c0)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "e", e)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Amplitude is immutable")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: Amplitude) -> Amplitude:
        e = max(self.e, other.e)
        sa = e - self.e
        sb = e - other.e
        return Amplitude(
            (self.c0 << sa) + (other.c0 << sb),
            (self.c1 << sa) + (other.c1 << sb),
            e,
        )

    def __sub__(self, other: Amplitude) -> Amplitude:
        return self + (-other)

    def __neg__(self) -> Amplitude:
        return Amplitude(-self.c0, -self.c1, self.e)

    def __mul__(self, other: Amplitude) -> Amplitude:
        # (a0 + a1*r)(b0 + b1*r) with r**2 = 2
        return Amplitude(
            self.c0 * other.c0 + 2 * self.c1 * other.c1,
            self.c0 * other.c1 + self.c1 * other.c0,
            self.e + other.e,
        )

    def scale_int(self, k: int) -> Amplitude:
        return Amplitude(self.c0 * k, self.c1 * k, self.e)

    def div_exact(self, other: Amplitude) -> Amplitude:
        """Exact quotient self / other, or ExactDivisionError if it leaves the ring."""
        if other.is_zero():
            raise ExactDivisionError("division by zero")
        b0, b1 = other.c0, other.c1
        # 1/other = 2**other.e * (b0 - b1*sqrt(2)) / (b0**2 - 2*b1**2)
        norm = b0 * b0 - 2 * b1 * b1
        num = self * Amplitude(b0, -b1, 0)
        c0, c1, e = num.c0, num.c1, num.e - other.e
        if norm < 0:
            c0, c1, norm = -c0, -c1, -norm
        # Powers of two in the divisor fold into the exponent; the odd part
        # must divide both integer components exactly.
        twos = (norm & -norm).bit_length() - 1
        odd = norm >> twos
        if c0 % odd or c1 % odd:
            raise ExactDivisionError(f"{self!r} / {other!r} is not in the ring")
        return Amplitude(c0 // odd, c1 // odd, e + twos)

    # -- comparisons -------------------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}; never approximates sqrt(2)."""
        s0 = (self.c0 > 0) - (self.c0 < 0)
        s1 = (self.c1 > 0) - (self.c1 < 0)
        if s1 == 0:
            return s0
        if s0 == 0 or s0 == s1:
            return s1
        # Opposite signs: the dominant term is decided by c0**2 vs 2*c1**2.
        # They can never be equal (sqrt(2) is irrational).
        return s0 if self.c0 * self.c0 > 2 * self.c1 * self.c1 else s1

    def is_zero(self) -> bool:
        return self.c0 == 0 and self.c1 == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Amplitude):
            return NotImplemented
        return self.c0 == other.c0 and self.c1 == other.c1 and self.e == other.e

    def __hash__(self) -> int:
        return hash((self.c0, self.c1, self.e))

    def __lt__(self, other: Amplitude) -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: Amplitude) -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other: Amplitude) -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other: Amplitude) -> bool:
        return (self - other).sign() >= 0

    # -- serialization and display -------------------------------------------

    def to_json(self) -> dict:
        # Decimal strings keep arbitrary-width integers JSON-safe.
        return {"c0": str(self.c0), "c1": str(self.c1), "e": self.e}

    @classmethod
    def from_json(cls, obj: dict) -> Amplitude:
        return cls(int(obj["c0"]), int(obj["c1"]), int(obj["e"]))

    def __repr__(self) -> str:
        return f"Amplitude({self.c0}, {self.c1}, {self.e})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        if self.c0:
            parts.append(str(self.c0))
        if self.c1:
            sign = "-" if self.c1 < 0 else ("+" if parts else "")
            mag = abs(self.c1)
            coeff = "" if mag == 1 else str(mag)
            parts.append(f"{sign}{coeff}sqrt2")
        body = "".join(parts)
        if self.e == 0:
            return body
        return f"({body})/2^{self.e}" if (self.c0 and self.c1) else f"{body}/2^{self.e}"


ZERO = Amplitude(0, 0, 0)
ONE = Amplitude(1, 0, 0)
TWO = Amplitude(2, 0, 0)
HALF = Amplitude(1, 0, 1)
INV_SQRT2 = Amplitude(0, 1, 1)  # sqrt(2)/2 == 1/sqrt(2)
