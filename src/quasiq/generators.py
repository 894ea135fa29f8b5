"""Verifier and table makers that no workload command runs: the seeded random
truth-table generators, the truth-table writer, and branch padding.

verifierkit gives these names on first use (its module __getattr__), so old
imports keep working and a command that needs none of them never compiles
this module. The builtin "random-table" problem imports random_dual_pair here.
"""
from __future__ import annotations

from quasiq.quasistate import bits_of, label_of
from quasiq.verifierkit import (Bits, DualVerifierPair, Verifier, _rows_verifier, full_mask,
                                table_verifier)


def table_to_json(v: Verifier) -> dict:
    """Enumerate a verifier into the truth-table file format."""
    table: dict[str, list[str]] = {}
    for xkey in range(2**v.n):
        x = bits_of(xkey, v.n)
        accepted = [
            label_of(bkey, v.m)
            for bkey in range(2**v.m)
            if v.eval(x, bits_of(bkey, v.m))
        ]
        table[label_of(xkey, v.n)] = accepted
    return {"n": v.n, "m": v.m, "table": table}


def equalize_branch_lengths(v: Verifier, target_m: int) -> Verifier:
    """Pad a verifier to a longer branching length.

    Padding is applied one bit at a time; each extra bit defers to the shorter
    machine regardless of its value, which doubles the accepting and rejecting
    counts alike, so the half-gap doubles per padding bit while its
    zero/nonzero pattern is untouched.
    """
    if target_m < v.m:
        raise ValueError(f"cannot shrink branching length {v.m} to {target_m}")
    if target_m == v.m:
        return v
    base_m = v.m
    pad = target_m - base_m
    return Verifier(v.n, target_m, lambda x, b: v.eval(x, b[:base_m]),
                    name=f"{v.name}+pad{pad}")


def random_dual_pair(n: int, m: int, rng, name: str | None = None) -> DualVerifierPair:
    """Rejection-sample a valid dual pair of truth-table verifiers.

    Per input: pick the language bit, then draw accept sets until the
    zero-gap side is exactly balanced and the other side is not.

    An accept set takes one coin flip per branch value, in value order. A
    flip is the top bit of one 32-bit output of the generator, which is
    what getrandbits(1) returns, so one getrandbits(32 * 2**m) holds all
    2**m flips (flip i is bit 32*i + 31) and leaves the generator where
    2**m calls of getrandbits(1) would.
    """
    count = 2**m
    half = count // 2
    flip_bits = (full_mask(m + 5) // 0xFFFFFFFF) << 31

    def draw(balanced: bool) -> int:
        while True:
            words = rng.getrandbits(32 * count)
            if ((words & flip_bits).bit_count() == half) == balanced:
                # every 32nd binary digit, from flip count-1 down to flip 0
                return int(format(words, f"0{32 * count}b")[::32], 2)

    t0: dict[Bits, int] = {}
    t1: dict[Bits, int] = {}
    for xkey in range(2**n):
        x = bits_of(xkey, n)
        member = rng.getrandbits(1)
        balanced = draw(True)
        skewed = draw(False)
        # v0 is gapless exactly on members, v1 exactly on non-members
        t0[x] = balanced if member else skewed
        t1[x] = skewed if member else balanced
    name = name or f"random-{n}x{m}"
    return DualVerifierPair(
        _rows_verifier(n, m, t0, f"{name}-v0"),
        _rows_verifier(n, m, t1, f"{name}-v1"),
        name=name,
    )


def random_fixed_gap_base(n: int, m: int, h_value: int, rng,
                          name: str | None = None) -> Verifier:
    """Random truth-table verifier whose half-gap is 0 or exactly h_value,
    following a random language (suitable input to make_dual_lwpp)."""
    count = 2**m
    half = count // 2
    if not 1 <= h_value <= half:
        raise ValueError(f"h_value must lie in [1, {half}]")
    table: dict[Bits, frozenset[int]] = {}
    for xkey in range(2**n):
        x = bits_of(xkey, n)
        accepts = half - h_value if rng.getrandbits(1) else half
        table[x] = frozenset(rng.sample(range(count), accepts))
    return table_verifier(n, m, table, name=name or f"fixed-gap-{h_value}")
