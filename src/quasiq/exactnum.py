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
        elif e:  # strip the powers of two c0 and c1 share: the trailing zeros of c0 | c1
            both = c0 | c1
            twos = min((both & -both).bit_length() - 1, e)
            c0, c1, e = c0 >> twos, c1 >> twos, e - twos
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
        e = max(self.e, other.e)
        return Amplitude((self.c0 << e - self.e) - (other.c0 << e - other.e),
                         (self.c1 << e - self.e) - (other.c1 << e - other.e), e)

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
        from quasiq.reference import div_exact
        return div_exact(self, other)

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
        from quasiq.readers import amplitude_from_json
        return amplitude_from_json(cls, obj)

    def __repr__(self) -> str:
        return f"Amplitude({self.c0}, {self.c1}, {self.e})"

    def __str__(self) -> str:
        from quasiq.reference import amplitude_str
        return amplitude_str(self)


ZERO = Amplitude(0, 0, 0)
ONE = Amplitude(1, 0, 0)
HALF = Amplitude(1, 0, 1)
INV_SQRT2 = Amplitude(0, 1, 1)  # sqrt(2)/2 == 1/sqrt(2)
