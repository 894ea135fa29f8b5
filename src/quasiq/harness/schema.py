"""The JSON schemas of problem-spec and truth-table files, and the checker
that holds a file to them. Only a spec or table file is checked, so this
module loads on the first one a command reads (problems.ProblemSpec.from_json,
problems.read_table_file), and never for a builtin problem.
"""
from __future__ import annotations

import re
from functools import lru_cache

_AFFINE = {
    "type": "object",
    "required": ["a", "b"],
    "properties": {"a": {"type": "integer"}, "b": {"type": "integer"}},
    "additionalProperties": False,
}

SCHEMA = {
    "type": "object",
    "required": ["name", "n", "verifier", "dual"],
    "additionalProperties": False,
    "properties": {
        "name": {"type": "string", "minLength": 1},
        "n": {
            "type": "object",
            "required": ["min", "max"],
            "properties": {
                "min": {"type": "integer", "minimum": 1},
                "max": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "m": {
            "oneOf": [
                {
                    "type": "object",
                    "required": ["affine"],
                    "properties": {"affine": _AFFINE},
                    "additionalProperties": False,
                },
                {
                    "type": "object",
                    "required": ["table"],
                    "properties": {
                        "table": {
                            "type": "object",
                            "patternProperties": {r"^\d+$": {"type": "integer", "minimum": 1}},
                            "additionalProperties": False,
                        }
                    },
                    "additionalProperties": False,
                },
            ]
        },
        "verifier": {
            "oneOf": [
                {
                    "type": "object",
                    "required": ["kind", "name"],
                    "properties": {"kind": {"const": "builtin"}, "name": {"type": "string"}},
                    "additionalProperties": False,
                },
                {
                    "type": "object",
                    "required": ["kind", "v0", "v1"],
                    "properties": {
                        "kind": {"const": "dsl"},
                        "v0": {"type": "string"},
                        "v1": {"type": "string"},
                    },
                    "additionalProperties": False,
                },
                {
                    "type": "object",
                    "required": ["kind", "base"],
                    "properties": {"kind": {"const": "dsl"}, "base": {"type": "string"}},
                    "additionalProperties": False,
                },
                {
                    "type": "object",
                    "required": ["kind", "v0", "v1"],
                    "properties": {
                        "kind": {"const": "table-file"},
                        "v0": {"type": "string"},
                        "v1": {"type": "string"},
                    },
                    "additionalProperties": False,
                },
                {
                    "type": "object",
                    "required": ["kind", "base"],
                    "properties": {"kind": {"const": "table-file"}, "base": {"type": "string"}},
                    "additionalProperties": False,
                },
            ]
        },
        "h": {
            "oneOf": [
                {
                    "type": "object",
                    "required": ["kind", "M", "t"],
                    "properties": {
                        "kind": {"const": "power"},
                        "M": {"type": "integer", "minimum": 1},
                        "t": _AFFINE,
                    },
                    "additionalProperties": False,
                },
                {
                    "type": "object",
                    "required": ["kind", "values"],
                    "properties": {
                        "kind": {"const": "tabulated"},
                        "values": {
                            "type": "object",
                            "patternProperties": {r"^\d+$": {"type": "integer", "minimum": 1}},
                            "additionalProperties": False,
                        },
                    },
                    "additionalProperties": False,
                },
            ]
        },
        "dual": {"enum": ["given-pair", "derive-via-lemma"]},
    },
}

# Truth-table files. The schema stops at the arrays: under CPython 3.11 the
# validator takes about 10 us per array item (0.3 s on an n = m = 8 table), so
# read_table_file checks the items itself, once per distinct label.
TABLE_SCHEMA = {
    "type": "object",
    "required": ["n", "m", "table"],
    "properties": {
        "n": {"type": "integer", "minimum": 0},
        "m": {"type": "integer", "minimum": 1},
        "table": {
            "type": "object",
            "propertyNames": {"pattern": r"^[01]*$"},
            "additionalProperties": {"type": "array"},
        },
    },
}


def _is_int(value) -> bool:
    """JSON Schema "integer", narrowed to a Python int that is not a bool: a
    float such as 1.0, which Draft 2020-12 counts as an integer, would reach
    shifts and ranges that need an int."""
    return isinstance(value, int) and not isinstance(value, bool)


_TYPES = {"object": lambda v: isinstance(v, dict), "array": lambda v: isinstance(v, list),
          "string": lambda v: isinstance(v, str), "integer": _is_int}
# The keywords _conforms reads; tests check that SCHEMA and TABLE_SCHEMA use
# no other, since an unread keyword would let an invalid file through.
_KEYWORDS = frozenset({"type", "required", "properties", "additionalProperties",
                       "patternProperties", "propertyNames", "pattern", "oneOf", "const",
                       "enum", "minimum", "minLength"})


def _same(value, constant) -> bool:
    """JSON equality of scalars: a bool is never equal to a number."""
    return isinstance(value, bool) is isinstance(constant, bool) and value == constant


def _conforms(schema: dict | bool, value) -> bool:
    """Whether value is valid under schema (a part of SCHEMA or TABLE_SCHEMA),
    by the Draft 2020-12 rules of the _KEYWORDS and the "integer" of _is_int,
    as _validator judges it. Spec and table files are checked here first, so a
    valid one never loads jsonschema, which only words the reject messages."""
    if isinstance(schema, bool):
        return schema
    if "type" in schema and not _TYPES[schema["type"]](value):
        return False
    if "const" in schema and not _same(value, schema["const"]):
        return False
    if "enum" in schema and not any(_same(value, each) for each in schema["enum"]):
        return False
    if "oneOf" in schema and sum(_conforms(each, value) for each in schema["oneOf"]) != 1:
        return False
    if isinstance(value, str):
        if len(value) < schema.get("minLength", 0):
            return False
        # re.search, as jsonschema matches: "4\n" and other Unicode digits pass ^\d+$
        return "pattern" not in schema or re.search(schema["pattern"], value) is not None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return not ("minimum" in schema and value < schema["minimum"])
    if not isinstance(value, dict):
        return True
    if any(key not in value for key in schema.get("required", ())):
        return False
    properties = schema.get("properties", {})
    patterns = schema.get("patternProperties", {})
    for key, item in value.items():
        if not _conforms(schema.get("propertyNames", True), key):
            return False
        matched = [sub for pattern, sub in patterns.items() if re.search(pattern, key)]
        if key in properties:
            matched.append(properties[key])
        if not matched:
            matched.append(schema.get("additionalProperties", True))
        if not all(_conforms(sub, item) for sub in matched):
            return False
    return True


@lru_cache(maxsize=None)
def _validator(table: bool):
    """The validator of TABLE_SCHEMA or SCHEMA, with "integer" as in _is_int,
    built once (jsonschema.validate would re-check the schema against the
    metaschema per call). jsonschema is imported only here, to word the message
    for a file that _conforms rejects."""
    from jsonschema import Draft202012Validator, validators

    integer = Draft202012Validator.TYPE_CHECKER.redefine("integer", lambda _, v: _is_int(v))
    cls = validators.extend(Draft202012Validator, type_checker=integer)
    return cls(TABLE_SCHEMA if table else SCHEMA)
