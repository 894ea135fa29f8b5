"""Problem-spec schema validation, loading, and resolution."""
import json

import jsonschema
import pytest

from quasiq.harness.problems import (
    SCHEMA,
    ProblemSpec,
    SpecError,
    load_problem_file,
    resolve_problem,
)
from quasiq.quasistate import bits_of
from quasiq.verifierkit import allzero_verifier, gap_stats, table_to_json

GOOD_LEMMA_SPEC = {
    "name": "allzero-dsl",
    "n": {"min": 1, "max": 3},
    "m": {"affine": {"a": 1, "b": 0}},
    "verifier": {"kind": "dsl", "base": "parity(x & b)"},
    "h": {"kind": "power", "M": 2, "t": {"a": 1, "b": -1}},
    "dual": "derive-via-lemma",
}

GOOD_PAIR_SPEC = {
    "name": "tiny-pair",
    "n": {"min": 1, "max": 2},
    "m": {"affine": {"a": 0, "b": 2}},
    "verifier": {
        "kind": "dsl",
        "v0": "parity(x) & !b[0]",
        "v1": "!parity(x) & !b[0]",
    },
    "dual": "given-pair",
}


def test_schema_accepts_good_specs():
    ProblemSpec.from_json(GOOD_LEMMA_SPEC)
    ProblemSpec.from_json(GOOD_PAIR_SPEC)


def test_schema_rejects_malformed_specs():
    bad = dict(GOOD_LEMMA_SPEC)
    del bad["dual"]
    with pytest.raises(SpecError):
        ProblemSpec.from_json(bad)

    bad = dict(GOOD_LEMMA_SPEC)
    bad["dual"] = "sideways"
    with pytest.raises(SpecError):
        ProblemSpec.from_json(bad)

    bad = dict(GOOD_LEMMA_SPEC)
    bad["extra"] = 1
    with pytest.raises(SpecError):
        ProblemSpec.from_json(bad)

    bad = dict(GOOD_LEMMA_SPEC)
    bad["verifier"] = {"kind": "dsl", "v0": "b[0]", "v1": "b[0]"}
    with pytest.raises(SpecError):  # lemma directive needs a base verifier
        ProblemSpec.from_json(bad)

    bad = dict(GOOD_LEMMA_SPEC)
    del bad["h"]
    with pytest.raises(SpecError):  # lemma directive needs a witness
        ProblemSpec.from_json(bad)

    bad = dict(GOOD_PAIR_SPEC)
    bad["verifier"] = {"kind": "dsl", "base": "b[0]"}
    with pytest.raises(SpecError):  # given-pair needs v0 and v1
        ProblemSpec.from_json(bad)

    bad = dict(GOOD_PAIR_SPEC)
    del bad["m"]
    with pytest.raises(SpecError):  # dsl needs an explicit m
        ProblemSpec.from_json(bad)

    bad = dict(GOOD_LEMMA_SPEC)
    bad["verifier"] = {"kind": "builtin", "name": "parity"}
    with pytest.raises(SpecError, match="derive-via-lemma does not apply to builtin verifier "
                                        "'parity'"):
        ProblemSpec.from_json(bad)


def test_spec_json_round_trip():
    spec = ProblemSpec.from_json(GOOD_LEMMA_SPEC)
    assert spec.to_json() == GOOD_LEMMA_SPEC
    again = ProblemSpec.from_json(json.loads(json.dumps(spec.to_json())))
    assert again.to_json() == spec.to_json()


def test_resolve_lemma_spec_matches_builtin():
    spec = ProblemSpec.from_json(GOOD_LEMMA_SPEC)
    resolved = resolve_problem(spec, 2)
    builtin = resolve_problem("allzero", 2)
    assert resolved.m == builtin.m == 3
    for xkey in range(4):
        x = bits_of(xkey, 2)
        assert resolved.pair.language_bit(x) == builtin.pair.language_bit(x)
        for mine, ref in zip(resolved.pair.gap_reports(x), builtin.pair.gap_reports(x)):
            assert (mine.A, mine.R, mine.Delta) == (ref.A, ref.R, ref.Delta)


def test_resolve_given_pair_spec():
    spec = ProblemSpec.from_json(GOOD_PAIR_SPEC)
    resolved = resolve_problem(spec, 2)
    # v0 is gapless exactly on odd-parity inputs, so the language is parity
    for xkey in range(4):
        x = bits_of(xkey, 2)
        assert resolved.pair.language_bit(x) == (x[0] ^ x[1])


def test_resolve_enforces_n_range():
    spec = ProblemSpec.from_json(GOOD_LEMMA_SPEC)
    with pytest.raises(SpecError):
        resolve_problem(spec, 9)


def test_resolve_unknown_builtin():
    with pytest.raises(SpecError):
        resolve_problem("no-such-problem", 2)


def test_m_table_lookup():
    spec = ProblemSpec.from_json({
        **GOOD_PAIR_SPEC,
        "m": {"table": {"1": 2, "2": 2}},
    })
    assert spec.m_of(2) == 2
    with pytest.raises(SpecError):
        spec.m_of(3)


def test_m_below_one_is_named():
    spec = ProblemSpec.from_json({**GOOD_PAIR_SPEC, "m": {"affine": {"a": -5, "b": 2}}})
    with pytest.raises(SpecError, match=r"m\(n\) = -8 at n = 2"):
        spec.m_of(2)
    with pytest.raises(SpecError, match=r"m\(n\) = -8 at n = 2"):
        resolve_problem(spec, 2)


def test_table_file_spec(tmp_path):
    table_path = tmp_path / "allzero-n2.json"
    table_path.write_text(json.dumps(table_to_json(allzero_verifier(2))), encoding="utf-8")
    spec_obj = {
        "name": "allzero-table",
        "n": {"min": 2, "max": 2},
        "verifier": {"kind": "table-file", "base": "allzero-n2.json"},
        "h": {"kind": "tabulated", "values": {"2": 2}},
        "dual": "derive-via-lemma",
    }
    spec_path = tmp_path / "problem.json"
    spec_path.write_text(json.dumps(spec_obj), encoding="utf-8")
    spec = load_problem_file(str(spec_path))
    resolved = resolve_problem(spec, 2)
    assert resolved.pair.m == 3
    builtin = resolve_problem("allzero", 2)
    for xkey in range(4):
        x = bits_of(xkey, 2)
        assert resolved.pair.language_bit(x) == builtin.pair.language_bit(x)


def test_table_file_size_mismatch(tmp_path):
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps(table_to_json(allzero_verifier(2))), encoding="utf-8")
    spec_obj = {
        "name": "wrong-m",
        "n": {"min": 2, "max": 2},
        "m": {"affine": {"a": 0, "b": 5}},
        "verifier": {"kind": "table-file", "base": "table.json"},
        "h": {"kind": "tabulated", "values": {"2": 2}},
        "dual": "derive-via-lemma",
    }
    spec_path = tmp_path / "problem.json"
    spec_path.write_text(json.dumps(spec_obj), encoding="utf-8")
    with pytest.raises(SpecError):
        resolve_problem(load_problem_file(str(spec_path)), 2)


def test_builtin_resolution_with_seed():
    a = resolve_problem("random-table", 2, seed=5)
    b = resolve_problem("random-table", 2, seed=5)
    for xkey in range(4):
        x = bits_of(xkey, 2)
        for va, vb in zip(a.verifiers, b.verifiers):
            assert gap_stats(va, x) == gap_stats(vb, x)


def test_single_verifier_problem():
    resolved = resolve_problem("constant-reject", 3)
    assert resolved.pair is None
    assert len(resolved.verifiers) == 1
    with pytest.raises(SpecError):
        resolved.require_pair()
    with pytest.raises(SpecError):
        resolved.require_h()


def _with(**changes):
    spec = json.loads(json.dumps(GOOD_LEMMA_SPEC))
    spec.update(changes)
    return spec


@pytest.mark.parametrize("spec", [
    _with(extra=1),
    _with(n={"min": 1, "max": 3, "step": 1}),
    _with(m={"affine": {"a": 1}}),
    _with(m={"table": {"x": 1}}),
    _with(m={"affine": {"a": 1, "b": 0}, "table": {}}),
    _with(verifier={"kind": "builtin"}),
    _with(verifier={"kind": "dsl", "v0": "1"}),
    _with(verifier={"kind": "dsl", "base": 3}),
    _with(verifier={"kind": "table-file", "v0": "a.json", "v1": 1}),
    _with(verifier={"kind": "table-file", "base": "a.json", "extra": 1}),
    _with(verifier={"kind": "nope", "base": "1"}),
    _with(h={"kind": "power", "M": 0, "t": {"a": 0, "b": 0}}),
    _with(h={"kind": "tabulated", "values": {"1": 0}}),
    _with(h={"kind": "tabulated", "values": {}, "M": 2}),
    _with(dual="other"),
    [],
], ids=["top-extra", "n-extra", "m-affine", "m-table", "m-both", "builtin", "dsl-pair",
        "dsl-base", "table-pair", "table-base", "kind", "h-power", "h-tabulated", "h-extra",
        "dual", "not-object"])
def test_schema_diagnostic_is_what_jsonschema_validate_reports(spec):
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(spec, SCHEMA)
    with pytest.raises(SpecError) as got:
        ProblemSpec.from_json(spec)
    assert str(got.value) == f"problem spec rejected by schema: {expected.value.message}"
