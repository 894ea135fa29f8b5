"""Ring arithmetic tests: canonical form, exact comparisons, exact division."""
from fractions import Fraction

import mpmath
from hypothesis import given
import hypothesis.strategies as st

from quasiq.exactnum import HALF, INV_SQRT2, ONE, ZERO, Amplitude, ExactDivisionError
from quasiq.reference import reciprocal

import pytest

ints = st.integers(min_value=-(10**6), max_value=10**6)
exps = st.integers(min_value=0, max_value=12)
amps = st.builds(Amplitude, ints, ints, exps)


def test_normalize_examples():
    assert Amplitude(2, 0, 1) == Amplitude(1, 0, 0)
    assert Amplitude(0, 0, 7) == Amplitude(0, 0, 0)
    a = Amplitude(1, 1, 1)
    assert (a.c0, a.c1, a.e) == (1, 1, 1)


def test_arithmetic_examples():
    assert INV_SQRT2 * INV_SQRT2 == HALF
    assert Amplitude(1, 0, 0) + Amplitude(-1, 0, 0) == ZERO
    assert Amplitude(1, 1, 0) * Amplitude(1, -1, 0) == Amplitude(-1, 0, 0)


def test_sign_examples():
    assert Amplitude(-1, 1, 0).sign() == 1
    # 3 - 2*sqrt(2): compare 3**2 = 9 against 2 * 2**2 = 8
    assert Amplitude(3, -2, 0).sign() == 1
    assert Amplitude(1, -1, 0).sign() == -1
    assert ZERO.sign() == 0
    assert Amplitude(-3, 2, 0).sign() == -1


def canonical_by_halving(c0, c1, e):
    """The canonical triple as the halving loop computed it, one power of two
    at a time: the reference for the trailing-zero count that replaced it."""
    if e < 0:
        c0, c1, e = c0 << -e, c1 << -e, 0
    if c0 == 0 and c1 == 0:
        return 0, 0, 0
    while e > 0 and (c0 & 1) == 0 and (c1 & 1) == 0:
        c0, c1, e = c0 >> 1, c1 >> 1, e - 1
    return c0, c1, e


@given(st.one_of(st.just(0), ints, st.integers(-2**80, 2**80)).map(lambda c: c << 7).flatmap(
    lambda c: st.tuples(st.just(c), st.sampled_from([0, 1, -1, c, -c, c + 1, 3 * c]))),
    st.integers(0, 20), st.integers(min_value=-6, max_value=90))
def test_canonical_form_matches_the_halving_loop(pair, shift, e):
    """Even, odd, negative and zero numerators with shared and unshared powers
    of two, at exponents below zero, below their twos and above them."""
    c0, c1 = pair[0] >> shift, pair[1] >> shift
    for a, b in ((c0, c1), (c1, c0)):
        amp = Amplitude(a, b, e)
        assert (amp.c0, amp.c1, amp.e) == canonical_by_halving(a, b, e)


def test_negative_raw_exponent_scales_up():
    assert Amplitude(1, 0, -3) == Amplitude(8, 0, 0)
    assert Amplitude(0, 1, -1) == Amplitude(0, 2, 0)


@given(amps)
def test_construction_is_canonical(a):
    assert a.e >= 0
    if a.c0 == 0 and a.c1 == 0:
        assert a.e == 0
    elif a.e > 0:
        assert (a.c0 & 1) or (a.c1 & 1)
    # normalizing again changes nothing
    assert Amplitude(a.c0, a.c1, a.e) == a


@given(amps, amps)
def test_add_commutes(a, b):
    assert a + b == b + a


@given(amps, amps, amps)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(amps)
def test_additive_inverse(a):
    assert a + (-a) == ZERO
    assert a - a == ZERO
    assert a * ONE == a


@given(amps)
def test_square_sign(a):
    sq = a * a
    assert sq.sign() >= 0
    assert (sq.sign() == 0) == a.is_zero()


@given(ints, exps, ints, exps)
def test_dyadic_subring_matches_fractions(n1, e1, n2, e2):
    # With c1 = 0 the ring is plain dyadic rationals; Fraction is the oracle.
    a, b = Amplitude(n1, 0, e1), Amplitude(n2, 0, e2)
    fa, fb = Fraction(n1, 2**e1), Fraction(n2, 2**e2)

    def as_fraction(x):
        assert x.c1 == 0
        return Fraction(x.c0, 2**x.e)

    assert as_fraction(a + b) == fa + fb
    assert as_fraction(a * b) == fa * fb
    assert as_fraction(-a) == -fa
    assert (a < b) == (fa < fb)


@given(amps, amps)
def test_sign_and_order_against_mpmath(a, b):
    # Secondary numeric oracle at 60 digits; component magnitudes are bounded
    # well below what would make this inconclusive.
    with mpmath.workdps(60):
        sqrt2 = mpmath.sqrt(2)

        def val(x):
            return (x.c0 + x.c1 * sqrt2) / mpmath.mpf(2) ** x.e

        va, vb = val(a), val(b)
        assert a.sign() == int(mpmath.sign(va))
        if va != vb:
            assert (a < b) == (va < vb)


# Nonzero elements whose c0 and c1 differ in sign, where sign() compares c0**2 with 2*c1**2.
mixed = st.builds(lambda c0, c1, e, flip: Amplitude(-c0 if flip else c0, c1 if flip else -c1, e),
                  st.integers(1, 10**6), st.integers(1, 10**6), exps, st.booleans())


@given(amps, st.one_of(amps, mixed))
def test_each_comparison_agrees_with_the_sign_of_the_difference(a, d):
    """Amplitude defines < and <= only: Python answers a > b with b < a and a >= b with b <= a."""
    for b in (d, a - d):  # a - (a - d) is d
        sign = (a - b).sign()
        assert (a < b, a <= b, a > b, a >= b) == (sign < 0, sign <= 0, sign > 0, sign >= 0)


@given(amps, amps)
def test_div_exact_inverts_mul(a, b):
    if b.is_zero():
        with pytest.raises(ExactDivisionError):
            a.div_exact(b)
    else:
        assert (a * b).div_exact(b) == a


@given(amps)
def test_reciprocal_parts_invert(p):
    u0, u1, odd, shift = reciprocal(p)
    if p.is_zero():
        assert odd == 0
    else:
        assert odd > 0 and odd % 2 == 1
        assert Amplitude(u0, u1, -shift) * p == Amplitude(odd, 0, 0)


def test_div_exact_examples():
    assert ONE.div_exact(INV_SQRT2) == Amplitude(0, 1, 0)
    assert ONE.div_exact(Amplitude(2, 0, 0)) == HALF
    with pytest.raises(ExactDivisionError):
        ONE.div_exact(Amplitude(3, 0, 0))
    # units of the integer ring divide exactly: 1/(1+sqrt2) = -1+sqrt2
    assert ONE.div_exact(Amplitude(1, 1, 0)) == Amplitude(-1, 1, 0)


@given(amps)
def test_json_round_trip(a):
    assert Amplitude.from_json(a.to_json()) == a


def test_json_uses_decimal_strings_for_big_ints():
    big = 10**50 + 1
    a = Amplitude(big, -big, 3)
    obj = a.to_json()
    assert obj == {"c0": str(big), "c1": str(-big), "e": 3}
    assert Amplitude.from_json(obj) == a


def test_immutable():
    with pytest.raises(AttributeError):
        ONE.c0 = 5


def test_hash_consistent_with_eq():
    assert hash(Amplitude(2, 4, 1)) == hash(Amplitude(1, 2, 0))
