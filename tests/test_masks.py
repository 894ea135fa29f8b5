"""Accept masks against per-branch evaluation.

Verifier.accept_mask(x) feeds both the gap oracle and the kernel's ORACLE
gates, so a wrong mask would fool both sides of every check. Here it must set
bit key_of(b) exactly where Verifier.eval(x, b) accepts, on DSL verifiers
(bit-sliced masks), truth tables (stored masks), every builtin, the lemma
combinators, and verifiers without a mask_fn (one enumeration of eval_fn).
"""
import random
from itertools import product

import hypothesis.strategies as st
from hypothesis import given, settings

from quasiq.harness.dsl import BinOp, Lit, Not, Parity, Ref, dsl_verifier, print_dsl
from quasiq.quasistate import key_of, label_of
from quasiq.readers import table_rows
from quasiq.verifierkit import (
    HalfGapFunction,
    Verifier,
    allzero_verifier,
    balanced_verifier,
    branch_on_first_bit,
    builtin_problems,
    const_verifier,
    equalize_branch_lengths,
    gap_stats,
    make_dual_lwpp,
    negate_verifier,
    random_dual_pair,
    random_fixed_gap_base,
    table_to_json,
    table_verifier,
    threshold_verifier,
    verifier_from_table_json,
)


def enumerated_mask(v, x):
    return sum(v.eval(x, b) << key_of(b) for b in product((0, 1), repeat=v.m))


def assert_masks_match(v):
    for x in product((0, 1), repeat=v.n):
        mask = v.accept_mask(x)
        assert mask == enumerated_mask(v, x), (v.name, x)
        assert v.accept_mask(x) is mask  # memoized per input
        assert gap_stats(v, x).A == mask.bit_count()


@st.composite
def dsl_cases(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 4))
    leaves = st.one_of(
        st.builds(Lit, st.integers(0, 1)),
        st.builds(Ref, st.just("x"), st.integers(0, n - 1)),
        st.builds(Ref, st.just("b"), st.integers(0, m - 1)),
        st.builds(Parity, st.sampled_from(["x", "b", "x&b"])),
    )
    expr = draw(st.recursive(leaves, lambda kids: st.one_of(
        st.builds(Not, kids),
        st.builds(BinOp, st.sampled_from("&^|"), kids, kids)), max_leaves=12))
    return print_dsl(expr), n, m


@settings(max_examples=100, deadline=None)
@given(dsl_cases())
def test_dsl_masks_match_eval(case):
    text, n, m = case
    assert_masks_match(dsl_verifier(text, n, m))


@st.composite
def tables(draw):
    n = draw(st.integers(0, 3))
    m = draw(st.integers(1, 4))
    rows = {}
    for x in product((0, 1), repeat=n):
        if draw(st.booleans()):  # an input without a row rejects every branch
            rows[x] = frozenset(draw(st.sets(st.integers(0, 2**m - 1))))
    return n, m, rows


@settings(max_examples=100, deadline=None)
@given(tables())
def test_table_masks_match_eval(case):
    n, m, rows = case
    v = table_verifier(n, m, rows)
    assert_masks_match(v)
    assert_masks_match(verifier_from_table_json(table_to_json(v)))


def test_bulk_table_read_matches_a_label_by_label_read():
    """verifier_from_table_json parses each distinct label once; its masks
    must be the OR of 1 << int(label, 2) over each row's labels, repeats, empty
    rows and missing rows included, and Verifier.eval must read the same bits.
    The label-by-label fallback, table_rows, must give the same rows."""
    rng = random.Random(16)
    for _ in range(80):
        n, m = rng.randint(0, 4), rng.randint(1, 6)
        table = {}
        for xkey in range(2**n):
            if rng.random() < 0.2:
                continue  # a missing row rejects every branch
            count = rng.choice((0, 1, 3, 2**m, 2 ** (m + 1)))  # 2**(m+1) draws repeat labels
            table[label_of(xkey, n)] = [label_of(rng.randrange(2**m), m) for _ in range(count)]
        v = verifier_from_table_json({"n": n, "m": m, "table": table})
        expected = {}
        for xlabel, labels in table.items():
            mask = 0
            for label in labels:
                mask |= 1 << int(label, 2)
            expected[tuple(int(c) for c in xlabel)] = mask
        assert table_rows(table, n, m) == expected
        for x in product((0, 1), repeat=n):
            assert v.accept_mask(x) == expected.get(x, 0), (n, m, x)
            assert all(v.eval(x, b) == expected.get(x, 0) >> key_of(b) & 1
                       for b in product((0, 1), repeat=m))


def test_random_table_masks_match_eval():
    for seed in range(4):
        rng = random.Random(seed)
        pair = random_dual_pair(1 + seed % 3, 1 + seed, rng)
        assert_masks_match(pair.v0)
        assert_masks_match(pair.v1)
        assert_masks_match(random_fixed_gap_base(2, 3, 1 + seed % 4, rng))


def test_every_builtin_side_matches_eval():
    for entry in builtin_problems().values():
        for n in (1, 2, 3):
            if entry.make_single is not None:
                assert_masks_match(entry.make_single(n))
                continue
            pair = entry.pair(n, random.Random(n))
            assert_masks_match(pair.v0)
            assert_masks_match(pair.v1)


def test_lemma_pairs_and_their_combinators_match_eval():
    bases = [allzero_verifier(2), balanced_verifier(2, 3), const_verifier(2, 2, 0),
             random_fixed_gap_base(2, 3, 2, random.Random(5)),
             dsl_verifier("parity(x & b)", 2, 2)]
    witnesses = [HalfGapFunction.power(2, 1, -1), HalfGapFunction.tabulated({2: 1}),
                 HalfGapFunction.tabulated({2: 2}), HalfGapFunction.tabulated({2: 2}),
                 HalfGapFunction.power(2, 1, -1)]
    for base, h in zip(bases, witnesses):
        pair = make_dual_lwpp(base, h)
        assert_masks_match(pair.v0)
        assert_masks_match(pair.v1)
    for cutoff in (-1, 0, 3, 8, 9):
        assert_masks_match(threshold_verifier(1, 3, cutoff))
    odd = dsl_verifier("x[0] ^ b[1]", 1, 2)
    assert_masks_match(negate_verifier(odd))
    assert_masks_match(branch_on_first_bit(odd, negate_verifier(odd), "arms"))
    assert_masks_match(const_verifier(2, 3, 1))


def test_verifiers_without_mask_fn_enumerate_eval():
    # truthy values other than 1 accept, as Verifier.eval reads them
    v = Verifier(2, 3, lambda x, b: (x[0] + b[2]) * b[0], name="plain")
    assert v.mask_fn is None
    assert_masks_match(v)
    assert_masks_match(equalize_branch_lengths(dsl_verifier("b[0] | x[1]", 2, 2), 4))
