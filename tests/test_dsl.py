"""DSL grammar, positioned errors, evaluation, and print/parse fixpoints."""
import itertools
import random

import pytest

from quasiq.harness.dsl import (
    MAX_DEPTH,
    BinOp,
    Lit,
    Not,
    Parity,
    ParseError,
    Ref,
    dsl_verifier,
    eval_dsl,
    parse_dsl,
    print_dsl,
)
from quasiq.verifierkit import allzero_verifier, gap_stats
from quasiq.quasistate import bits_of


def test_parse_basic_nodes():
    assert parse_dsl("x[0] ^ b[1]") == BinOp("^", Ref("x", 0), Ref("b", 1))
    assert parse_dsl("parity(x & b)") == Parity("x&b")
    assert parse_dsl("parity(b)") == Parity("b")
    assert parse_dsl("!x[2]") == Not(Ref("x", 2))
    assert parse_dsl("0 | 1") == BinOp("|", Lit(0), Lit(1))


def test_precedence_and_associativity():
    # & binds tighter than ^, which binds tighter than |
    assert parse_dsl("x[0] | x[1] ^ x[2] & x[3]") == BinOp(
        "|", Ref("x", 0), BinOp("^", Ref("x", 1), BinOp("&", Ref("x", 2), Ref("x", 3))))
    # left associative chains
    assert parse_dsl("x[0] ^ x[1] ^ x[2]") == BinOp(
        "^", BinOp("^", Ref("x", 0), Ref("x", 1)), Ref("x", 2))


def test_binding_matches_python_operators():
    # Python's &, ^ and | bind in the same order, so its evaluation of the same
    # text is an independent reference for every mix of three operators.
    templates = ("x[0] {} x[1] {} x[2] {} x[3]", "x[0] {} (x[1] {} x[2]) {} x[3]")
    for template, ops in itertools.product(templates, itertools.product("&^|", repeat=3)):
        text = template.format(*ops)
        expr = parse_dsl(text)
        assert parse_dsl(print_dsl(expr)) == expr
        for x in itertools.product((0, 1), repeat=4):
            assert eval_dsl(expr, x, ()) == eval(text, {"x": x}), (text, x)


def test_parity_fold_matches_allzero():
    verifier = dsl_verifier("parity(x & b)", 2, 2)
    reference = allzero_verifier(2)
    for xkey in range(4):
        x = bits_of(xkey, 2)
        assert gap_stats(verifier, x).Delta == gap_stats(reference, x).Delta


def test_index_out_of_range_is_positioned():
    with pytest.raises(ParseError) as info:
        parse_dsl("b[9]", n=2, m=2)
    assert info.value.line == 1
    assert info.value.col == 3
    assert "below 2" in info.value.expected[0]


def test_unbalanced_parens():
    with pytest.raises(ParseError) as info:
        parse_dsl("(x[0] ^ b[0]", n=2, m=2)
    assert "')'" in info.value.expected


def test_unknown_identifier():
    with pytest.raises(ParseError) as info:
        parse_dsl("y[0]")
    assert "parity" in info.value.expected


def test_error_position_tracks_lines():
    with pytest.raises(ParseError) as info:
        parse_dsl("x[0] ^\n  q[1]")
    assert info.value.line == 2
    assert info.value.col == 3


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_dsl("x[0] x[1]")


def test_bad_literal_rejected():
    with pytest.raises(ParseError):
        parse_dsl("2 ^ x[0]")


def test_parity_arg_restricted():
    with pytest.raises(ParseError):
        parse_dsl("parity(q)")
    with pytest.raises(ParseError):
        parse_dsl("parity(x & x)")


def test_eval_truth_tables():
    cases = [
        ("x[0] & b[0]", lambda x, b: x[0] & b[0]),
        ("x[0] ^ b[1] | !b[0]", lambda x, b: x[0] ^ b[1] | (1 - b[0])),
        ("!(x[0] | x[1]) & b[0]", lambda x, b: (1 - (x[0] | x[1])) & b[0]),
        ("parity(x) ^ parity(b)", lambda x, b: (x[0] ^ x[1]) ^ (b[0] ^ b[1])),
        ("1 ^ parity(x & b)", lambda x, b: 1 ^ ((x[0] & b[0]) ^ (x[1] & b[1]))),
    ]
    for text, oracle in cases:
        expr = parse_dsl(text, n=2, m=2)
        for x in itertools.product((0, 1), repeat=2):
            for b in itertools.product((0, 1), repeat=2):
                assert eval_dsl(expr, x, b) == oracle(x, b), text


def test_eval_is_referentially_transparent():
    expr = parse_dsl("x[0] ^ b[1] & !b[0]", n=1, m=2)
    results = {eval_dsl(expr, (1,), (0, 1)) for _ in range(20)}
    assert len(results) == 1


def random_expr(rng, depth=0):
    roll = rng.random()
    if depth > 4 or roll < 0.3:
        choice = rng.randrange(4)
        if choice == 0:
            return Lit(rng.randint(0, 1))
        if choice == 1:
            return Ref("x", rng.randrange(3))
        if choice == 2:
            return Ref("b", rng.randrange(3))
        return Parity(rng.choice(["x", "b", "x&b"]))
    if roll < 0.45:
        return Not(random_expr(rng, depth + 1))
    op = rng.choice(["&", "^", "|"])
    return BinOp(op, random_expr(rng, depth + 1), random_expr(rng, depth + 1))


def test_print_parse_fixpoint_on_random_asts():
    rng = random.Random(424242)
    for _ in range(300):
        expr = random_expr(rng)
        text = print_dsl(expr)
        assert parse_dsl(text) == expr
        assert print_dsl(parse_dsl(text)) == text


def test_verifier_from_dsl_checks_bounds():
    with pytest.raises(ParseError):
        dsl_verifier("x[3]", 2, 2)


def test_nesting_limit_is_positioned():
    deepest = "(" * MAX_DEPTH + "b[0]" + ")" * MAX_DEPTH
    assert parse_dsl(deepest) == Ref("b", 0)
    with pytest.raises(ParseError) as info:
        parse_dsl("x[0] &\n" + "(" * (MAX_DEPTH + 1) + "b[0]" + ")" * (MAX_DEPTH + 1))
    assert (info.value.line, info.value.col) == (2, MAX_DEPTH + 1)
    chain = " ^ ".join(["b[0]"] * MAX_DEPTH)  # a tree MAX_DEPTH levels deep
    assert eval_dsl(parse_dsl(chain), (), (1,)) == MAX_DEPTH % 2
    with pytest.raises(ParseError, match=f"nested more than {MAX_DEPTH} levels deep"):
        parse_dsl(chain + " ^ b[0]")
    with pytest.raises(ParseError):
        parse_dsl("!" * MAX_DEPTH + "b[0]")
