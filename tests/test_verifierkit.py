"""Gap oracle, lemma transforms, builtin catalog, and truth-table IO."""
import random

import pytest

from quasiq.exactnum import Amplitude
from quasiq.quasistate import bits_of
from quasiq.verifierkit import (
    DualityError,
    DualVerifierPair,
    HalfGapFunction,
    HalfGapPromiseError,
    Verifier,
    allzero_verifier,
    balanced_verifier,
    builtin_problems,
    const_verifier,
    equalize_branch_lengths,
    gap_stats,
    language_pair,
    make_dual_lwpp,
    random_dual_pair,
    random_fixed_gap_base,
    table_to_json,
    table_verifier,
    validate_dual_pair,
    verifier_from_table_json,
)


def all_inputs(n):
    return [bits_of(k, n) for k in range(2**n)]


def test_gap_stats_constant_verifiers():
    reject = const_verifier(0, 3, 0)
    st = gap_stats(reject, ())
    assert (st.A, st.R, st.Delta) == (0, 8, 4)
    assert st.delta == Amplitude(1, 0, 1)  # 4/8 = 1/2

    accept = const_verifier(0, 3, 1)
    st = gap_stats(accept, ())
    assert st.Delta == -4
    assert st.delta == Amplitude(-1, 0, 1)


def test_gap_stats_allzero():
    v = allzero_verifier(2)
    st = gap_stats(v, (0, 0))
    assert (st.A, st.R, st.Delta) == (0, 4, 2)
    assert st.delta == Amplitude(1, 0, 1)
    st = gap_stats(v, (0, 1))
    assert (st.A, st.R, st.Delta) == (2, 2, 0)
    assert st.delta == Amplitude(0, 0, 0)


def test_gap_stats_checks_input_length():
    with pytest.raises(ValueError):
        gap_stats(allzero_verifier(2), (0, 0, 0))


def test_gap_invariants_on_random_verifiers():
    rng = random.Random(2024)
    for _ in range(25):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        table = {
            x: frozenset(v for v in range(2**m) if rng.getrandbits(1))
            for x in all_inputs(n)
        }
        v = table_verifier(n, m, table)
        for x in all_inputs(n):
            st = gap_stats(v, x)
            assert st.A + st.R == 2**m
            assert st.Delta == st.R - 2 ** (m - 1)
            assert st.alpha + st.rho == Amplitude(1, 0, 0)
            if st.Delta != 0:
                # integrality: any nonzero normalized half-gap is at least 2**-m
                assert not (-Amplitude(1, 0, m) < st.delta < Amplitude(1, 0, m))


def test_gap_report_json_round_trip():
    import json

    st = gap_stats(allzero_verifier(2), (1, 0))
    rebuilt = type(st).from_json(json.loads(json.dumps(st.to_json())))
    assert rebuilt == st


def test_equalize_identity_padding():
    v = allzero_verifier(2)
    assert equalize_branch_lengths(v, 2) is v


def test_equalize_doubles_once_per_bit():
    cases = [
        allzero_verifier(2),
        const_verifier(1, 1, 0),
        balanced_verifier(2, 3),
    ]
    rng = random.Random(5)
    cases.append(
        table_verifier(
            2, 2, {x: frozenset(v for v in range(4) if rng.getrandbits(1)) for x in all_inputs(2)}
        )
    )
    for v in cases:
        for pad in (1, 2, 3):
            padded = equalize_branch_lengths(v, v.m + pad)
            assert padded.m == v.m + pad
            for x in all_inputs(v.n):
                before = gap_stats(v, x).Delta
                after = gap_stats(padded, x).Delta
                assert after == before * 2**pad
                assert (after == 0) == (before == 0)


def test_equalize_specific_values():
    # allzero at x = 00: Delta = 2, padded by one bit: Delta = 4
    padded = equalize_branch_lengths(allzero_verifier(2), 3)
    assert gap_stats(padded, (0, 0)).Delta == 4
    # constant-reject m=1 -> m=2: Delta 1 -> 2, enumerating all 4 branches
    padded = equalize_branch_lengths(const_verifier(1, 1, 0), 2)
    assert gap_stats(padded, (0,)).Delta == 2


def test_equalize_rejects_shrinking():
    with pytest.raises(ValueError):
        equalize_branch_lengths(allzero_verifier(2), 1)


def test_make_dual_lwpp_allzero():
    h = HalfGapFunction.power(2, 1, -1)
    pair = make_dual_lwpp(allzero_verifier(2), h)
    assert pair.m == 3
    g0, g1 = pair.gap_reports((0, 0))
    assert g0.Delta == 0 and g1.Delta == 2
    assert g1.delta == Amplitude(2, 0, 3)  # h / 2**(m+1)
    assert pair.language_bit((0, 0)) == 1
    g0, g1 = pair.gap_reports((0, 1))
    assert g0.Delta != 0 and g1.Delta == 0
    assert pair.language_bit((0, 1)) == 0


def test_make_dual_lwpp_postconditions_sweep():
    h = HalfGapFunction.power(2, 1, -1)
    for n in (1, 2, 3):
        pair = make_dual_lwpp(allzero_verifier(n), h)
        hv = h.value(n)
        for x in all_inputs(n):
            g0, g1 = pair.gap_reports(x)
            assert g0.Delta * g1.Delta == 0
            assert g0.Delta + g1.Delta != 0
            lx = pair.language_bit(x)
            live = g1 if lx else g0
            assert live.delta == Amplitude(hv, 0, pair.m)


def test_make_dual_lwpp_rejects_promise_violation():
    # half-gap 2 at one input, 1 at another: no single h fits
    table = {
        (0,): frozenset(),          # Delta = 2 with m = 2
        (1,): frozenset({0}),       # Delta = 1
    }
    base = table_verifier(1, 2, table, name="broken")
    with pytest.raises(HalfGapPromiseError) as info:
        make_dual_lwpp(base, HalfGapFunction.tabulated({1: 2}))
    assert info.value.witness == "1"


def test_make_dual_lwpp_rejects_oversized_h():
    with pytest.raises(HalfGapPromiseError):
        make_dual_lwpp(balanced_verifier(1, 2), HalfGapFunction.tabulated({1: 4}))


def test_language_pair_builtins_are_dual():
    pair = language_pair(2, 2, lambda x: 1 if not any(x) else 0, "member-of-zero")
    for x in all_inputs(2):
        expected = 1 if x == (0, 0) else 0
        assert pair.language_bit(x) == expected


def test_builtin_catalog_duality_sweeps():
    problems = builtin_problems()
    for name in ("allzero", "empty", "full", "parity", "coparity"):
        prob = problems[name]
        for n in (1, 2):
            pair = prob.pair(n)
            assert pair.m == prob.m_of(n)
            for x in all_inputs(n):
                assert pair.language_bit(x) == prob.language(x)


def test_builtin_empty_has_no_members():
    pair = builtin_problems()["empty"].pair(2)
    for x in all_inputs(2):
        _, g1 = pair.gap_reports(x)
        assert g1.Delta == 0


def test_builtin_h_matches_delta():
    problems = builtin_problems()
    for name in ("allzero", "empty", "full", "parity", "coparity"):
        prob = problems[name]
        for n in (1, 2, 3):
            pair = prob.pair(n)
            hv = prob.h.value(n)
            for x in all_inputs(n):
                lx = pair.language_bit(x)
                live = gap_stats(pair.side(lx), x)
                assert live.delta == Amplitude(hv, 0, pair.m)


def test_random_dual_pair_generator_self_check():
    for seed in range(8):
        rng = random.Random(seed)
        pair = random_dual_pair(2, 3, rng)
        rows = validate_dual_pair(pair)
        assert all(row["dual"] for row in rows)


def coin_flip_dual_tables(n, m, rng):
    """The sampler as first written, one getrandbits(1) per branch value: the
    reference for the stream random_dual_pair must reproduce."""
    count = 2**m

    def subset():
        return {value for value in range(count) if rng.getrandbits(1)}

    rows = []
    for _ in range(2**n):
        member = rng.getrandbits(1)
        while len(balanced := subset()) != count // 2:
            pass
        while len(skewed := subset()) == count // 2:
            pass
        rows.append((balanced, skewed) if member else (skewed, balanced))
    return rows


@pytest.mark.parametrize("m", [1, 2, 3, 5, 7])
def test_random_dual_pair_keeps_the_coin_flip_stream(m):
    for seed in range(5):
        n = 1 + seed % 3
        fast, slow = random.Random(seed), random.Random(seed)
        pair = random_dual_pair(n, m, fast)
        expected = coin_flip_dual_tables(n, m, slow)
        assert fast.getstate() == slow.getstate()
        for x, sides in zip(all_inputs(n), expected):
            for verifier, accepted in zip((pair.v0, pair.v1), sides):
                assert verifier.accept_mask(x) == sum(1 << value for value in accepted)
                assert {v for v in range(2**m) if verifier.eval(x, bits_of(v, m))} == accepted


def test_random_fixed_gap_base_feeds_the_lemma():
    rng = random.Random(99)
    for _ in range(6):
        m = rng.randint(2, 4)
        h_value = rng.randint(1, 2 ** (m - 1))
        base = random_fixed_gap_base(2, m, h_value, rng)
        pair = make_dual_lwpp(base, HalfGapFunction.tabulated({2: h_value}))
        for x in all_inputs(2):
            pair.language_bit(x)


def test_duality_error_carries_witness():
    v0 = balanced_verifier(1, 2)
    v1 = balanced_verifier(1, 2)
    pair = DualVerifierPair(v0, v1, name="bogus")
    with pytest.raises(DualityError) as info:
        pair.language_bit((0,))
    assert info.value.witness == "0"


def test_pair_requires_matching_lengths():
    with pytest.raises(ValueError):
        DualVerifierPair(balanced_verifier(1, 2), balanced_verifier(1, 3))
    with pytest.raises(ValueError):
        DualVerifierPair(balanced_verifier(1, 2), balanced_verifier(2, 2))


def test_m_zero_rejected():
    with pytest.raises(ValueError):
        Verifier(1, 0, lambda x, b: 0)


def test_truth_table_json_round_trip():
    rng = random.Random(31)
    table = {x: frozenset(v for v in range(8) if rng.getrandbits(1)) for x in all_inputs(2)}
    v = table_verifier(2, 3, table, name="roundtrip")
    obj = table_to_json(v)
    rebuilt = verifier_from_table_json(obj, name="roundtrip")
    assert table_to_json(rebuilt) == obj
    for x in all_inputs(2):
        assert gap_stats(rebuilt, x) == gap_stats(v, x)


def test_table_json_validates_lengths():
    with pytest.raises(ValueError):
        verifier_from_table_json({"n": 2, "m": 2, "table": {"0": []}})
    with pytest.raises(ValueError):
        verifier_from_table_json({"n": 1, "m": 2, "table": {"0": ["011"]}})


def test_half_gap_function_forms():
    power = HalfGapFunction.power(2, 1, -1)
    assert [power.value(n) for n in (1, 2, 3)] == [1, 2, 4]
    assert power.exponent(3) == 2
    tab = HalfGapFunction.tabulated({1: 3, 2: 5})
    assert tab.value(2) == 5
    with pytest.raises(ValueError):
        tab.value(9)
    with pytest.raises(ValueError):
        HalfGapFunction.tabulated({1: 0})
    assert HalfGapFunction.from_json(power.to_json()) == power
    assert HalfGapFunction.from_json(tab.to_json()) == tab

