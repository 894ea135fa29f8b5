"""Problem-spec schema validation, loading, and resolution."""
import copy
import json

import hypothesis.strategies as st
import jsonschema
import pytest
from hypothesis import given, settings
from test_golden import SPECS

from quasiq.harness.problems import (
    _KEYWORDS,
    _TYPES,
    SCHEMA,
    TABLE_SCHEMA,
    ProblemSpec,
    SpecError,
    _conforms,
    _validator,
    load_problem_file,
    read_table_file,
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


# -- the fast schema check against jsonschema --------------------------------------

TABLE = table_to_json(allzero_verifier(2))
DOCUMENTS = [GOOD_LEMMA_SPEC, GOOD_PAIR_SPEC, TABLE, *SPECS.values()]
EDGE_VALUES = [True, 1.0, 0, -1, "", [], {}, None, "12\n", "\u0664"]  # the last is Arabic-Indic 4
EDGE_KEYS = ["extra", "2", "01", "", "12\n", "\u0664"]


def _nodes(doc, path=()):
    """Every (path, value) in a JSON document, the root first."""
    yield path, doc
    if isinstance(doc, dict):
        children = doc.items()
    else:
        children = enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


@st.composite
def mutated_documents(draw):
    """A spec or table document with one to three mutations: a dropped key or
    item, an unknown key added, or a value swapped for an edge value."""
    doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS)))
    for _ in range(draw(st.integers(1, 3))):
        path, node = draw(st.sampled_from(list(_nodes(doc))))
        value = copy.deepcopy(draw(st.sampled_from(EDGE_VALUES)))
        kind = draw(st.sampled_from(["drop", "add", "swap"]))
        if kind == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(EDGE_KEYS))] = value
        elif not path:
            doc = value
        else:
            parent = dict(_nodes(doc))[path[:-1]]
            if kind == "drop":
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
    return doc


@settings(max_examples=400, deadline=None)
@given(mutated_documents())
def test_fast_check_agrees_with_jsonschema(doc):
    for table, schema in ((False, SCHEMA), (True, TABLE_SCHEMA)):
        assert _conforms(schema, doc) == _validator(table).is_valid(doc)


def _edit(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize("table, doc, valid", [
    (False, GOOD_LEMMA_SPEC, True),
    (False, _edit(GOOD_LEMMA_SPEC, ("m", "affine", "a"), 1.0), False),
    (False, _edit(GOOD_LEMMA_SPEC, ("m", "affine", "a"), True), False),
    (False, _edit(GOOD_LEMMA_SPEC, ("h", "M"), 2.0), False),
    (False, _edit(GOOD_LEMMA_SPEC, ("n", "min"), 0), False),
    (False, _edit(GOOD_LEMMA_SPEC, ("n", "max"), -1), False),
    (False, _edit(GOOD_LEMMA_SPEC, ("name",), ""), False),
    (False, _edit(GOOD_LEMMA_SPEC, ("dual",), True), False),
    (False, _edit(GOOD_LEMMA_SPEC, ("verifier", "kind"), None), False),
    (False, _edit(GOOD_LEMMA_SPEC, ("verifier", "base"), []), False),
    (False, _edit(GOOD_LEMMA_SPEC, ("h", "t"), {}), False),
    (False, _edit(GOOD_PAIR_SPEC, ("m",), {"table": {"4\n": 2}}), True),
    (False, _edit(GOOD_PAIR_SPEC, ("m",), {"table": {"\u0664": 2}}), True),
    (False, _edit(GOOD_PAIR_SPEC, ("m",), {"table": {"": 2}}), False),
    (False, _edit(GOOD_PAIR_SPEC, ("m",), {"table": {"1": 2.0}}), False),
    (False, _edit(GOOD_LEMMA_SPEC, ("h",), {"kind": "tabulated", "values": {"1": True}}), False),
    (True, TABLE, True),
    (True, _edit(TABLE, ("m",), 2.0), False),
    (True, _edit(TABLE, ("n",), True), False),
    (True, _edit(TABLE, ("n",), 0), True),
    (True, _edit(TABLE, ("table", "01\n"), []), True),
    (True, _edit(TABLE, ("table", "12\n"), []), False),
    (True, _edit(TABLE, ("table", ""), []), True),
    (True, _edit(TABLE, ("table", "00"), {}), False),
    (True, _edit(TABLE, ("table", "00"), None), False),
], ids=["good", "float", "bool", "float-M", "zero", "negative", "empty-name", "bool-enum",
        "null-const", "array-string", "empty-object", "newline-key", "unicode-digit",
        "empty-key", "float-table", "bool-values", "table", "table-float-m", "table-bool-n",
        "table-zero-n", "table-newline-key", "table-bad-key", "table-empty-key",
        "table-object-row", "table-null-row"])
def test_fast_check_edge_cases(table, doc, valid):
    """re.search for patterns, so "4\\n" and Unicode digits match ^\\d+$; a bool
    or a float is never an integer."""
    assert _conforms(TABLE_SCHEMA if table else SCHEMA, doc) is valid
    assert _validator(table).is_valid(doc) is valid


def _keywords(schema):
    """The keywords of a schema and of every subschema it holds."""
    if isinstance(schema, bool):
        return
    for keyword, value in schema.items():
        yield keyword, value
        if keyword in ("properties", "patternProperties"):
            subschemas = value.values()
        elif keyword == "oneOf":
            subschemas = value
        elif keyword in ("additionalProperties", "propertyNames"):
            subschemas = [value]
        else:
            subschemas = ()
        for sub in subschemas:
            yield from _keywords(sub)


def test_fast_check_reads_every_keyword_of_the_schemas():
    """A keyword the fast check does not read (a later "maximum", say) would
    let a file through that the schema rejects."""
    used = [*_keywords(SCHEMA), *_keywords(TABLE_SCHEMA)]
    assert {keyword for keyword, _ in used} == _KEYWORDS
    assert {value for keyword, value in used if keyword == "type"} <= set(_TYPES)


def test_a_float_integer_in_a_table_file_is_a_spec_error(tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps({**TABLE, "m": 2.0}), encoding="utf-8")
    with pytest.raises(SpecError, match=r"rejected by schema: 2\.0 is not of type 'integer'$"):
        read_table_file(str(path))
