"""Problem-spec files: schema validation, loading, and resolution to verifiers.

A problem spec names a verifier source (builtin catalog entry, DSL text, or
truth-table files), how the dual pair is obtained (given directly or derived
through the half-gap lemma transform), the input-size range, the branching
length as an affine function or per-size table, and an optional half-gap
witness.
"""
from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass
from functools import lru_cache

from quasiq.harness.dsl import dsl_verifier
from quasiq.verifierkit import (
    Bits,
    BuiltinProblem,
    DualVerifierPair,
    HalfGapFunction,
    Verifier,
    builtin_problems,
    make_dual_lwpp,
    verifier_from_table_json,
)


class SpecError(ValueError):
    """The problem spec is malformed or inconsistent."""


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
# read_table_file checks the items itself, one join per row.
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


@dataclass
class ProblemSpec:
    """Validated problem description plus the directory for relative paths."""

    name: str
    n_min: int
    n_max: int
    m_spec: dict | None
    verifier: dict
    h: HalfGapFunction | None
    dual: str
    base_dir: str = "."

    @classmethod
    def from_json(cls, obj: dict, base_dir: str = ".") -> ProblemSpec:
        if not _conforms(SCHEMA, obj):
            from jsonschema.exceptions import best_match

            error = best_match(_validator(table=False).iter_errors(obj))
            if error is not None:
                raise SpecError(f"problem spec rejected by schema: {error.message}") from error
        verifier = obj["verifier"]
        dual = obj["dual"]
        has_base = "base" in verifier
        if verifier["kind"] == "builtin" and dual == "derive-via-lemma":
            raise SpecError(f"derive-via-lemma does not apply to builtin verifier "
                            f"{verifier['name']!r}, which names its own pair; use given-pair")
        if verifier["kind"] != "builtin":
            if dual == "derive-via-lemma" and not has_base:
                raise SpecError("derive-via-lemma needs a single 'base' verifier")
            if dual == "given-pair" and has_base:
                raise SpecError("given-pair needs 'v0' and 'v1' verifiers")
            if dual == "derive-via-lemma" and "h" not in obj:
                raise SpecError("derive-via-lemma needs a half-gap witness 'h'")
            if verifier["kind"] == "dsl" and "m" not in obj:
                raise SpecError("dsl verifiers need an explicit 'm'")
        h = HalfGapFunction.from_json(obj["h"]) if "h" in obj else None
        return cls(
            name=obj["name"],
            n_min=obj["n"]["min"],
            n_max=obj["n"]["max"],
            m_spec=obj.get("m"),
            verifier=verifier,
            h=h,
            dual=dual,
            base_dir=base_dir,
        )

    def to_json(self) -> dict:
        obj: dict = {
            "name": self.name,
            "n": {"min": self.n_min, "max": self.n_max},
            "verifier": self.verifier,
            "dual": self.dual,
        }
        if self.m_spec is not None:
            obj["m"] = self.m_spec
        if self.h is not None:
            obj["h"] = self.h.to_json()
        return obj

    def table_path(self, ref: str) -> str:
        """A table file named in the spec, relative to the spec's directory."""
        return ref if os.path.isabs(ref) else os.path.join(self.base_dir, ref)

    def check_n(self, n: int) -> None:
        if not self.n_min <= n <= self.n_max:
            raise SpecError(f"n = {n} outside declared range [{self.n_min}, {self.n_max}]")

    def m_of(self, n: int) -> int | None:
        """The declared branching length at n (None when the spec gives none);
        one below 1 is a SpecError."""
        if self.m_spec is None:
            return None
        if "affine" in self.m_spec:
            m = self.m_spec["affine"]["a"] * n + self.m_spec["affine"]["b"]
            if m < 1:
                raise SpecError(f"m(n) = {m} at n = {n}; the branching length must be at least 1")
            return m
        table = self.m_spec["table"]
        if str(n) not in table:
            raise SpecError(f"m table has no entry for n = {n}")
        return table[str(n)]


@dataclass
class ResolvedProblem:
    """Concrete verifiers for one input size."""

    name: str
    n: int
    m: int
    verifiers: list[Verifier]
    pair: DualVerifierPair | None
    h: HalfGapFunction | None

    def require_pair(self) -> DualVerifierPair:
        if self.pair is None:
            raise SpecError(f"problem {self.name!r} does not define a dual pair")
        return self.pair


def load_problem_file(path: str) -> ProblemSpec:
    try:
        with open(path, "rt", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise SpecError(
            f"{path!r} is neither a builtin problem "
            f"({', '.join(sorted(builtin_problems()))}) nor a readable spec file: {exc}"
        ) from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"problem file {path} is not valid JSON: {exc}") from exc
    return ProblemSpec.from_json(obj, base_dir=os.path.dirname(path) or ".")


def read_table_file(path: str) -> dict:
    """The JSON object in a truth-table file; a file that cannot be read or
    parsed, or that fails TABLE_SCHEMA, is a SpecError naming the path."""
    try:
        with open(path, "rt", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read table file {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"table file {path} is not valid JSON: {exc}") from exc
    if not _conforms(TABLE_SCHEMA, obj):
        from jsonschema import ValidationError

        try:
            _validator(table=True).validate(obj)
        except ValidationError as exc:
            raise SpecError(f"table file {path} rejected by schema: {exc.message}") from exc
    for xlabel, blabels in obj["table"].items():
        try:
            stray = "".join(blabels).strip("01")
        except TypeError:  # an item that is not a string
            stray = True
        if stray:
            raise SpecError(f"table file {path} rejected by schema: "
                            f"the branches of input {xlabel!r} are not all bit strings")
    return obj


def builtin_entry(name: str) -> BuiltinProblem:
    """The builtin catalog entry called `name`; an unknown name is a SpecError."""
    catalog = builtin_problems()
    if name not in catalog:
        raise SpecError(
            f"unknown builtin problem {name!r}; choices: {', '.join(sorted(catalog))}")
    return catalog[name]


def _resolve_builtin(entry: BuiltinProblem, n: int, seed: int | None,
                     inputs: list[Bits] | None) -> ResolvedProblem:
    rng = random.Random(seed) if seed is not None else None
    if entry.make_single is not None:
        verifier = entry.make_single(n)
        return ResolvedProblem(entry.name, n, verifier.m, [verifier], None, entry.h)
    pair = entry.pair(n, rng, inputs)
    return ResolvedProblem(entry.name, n, pair.m, [pair.v0, pair.v1], pair, entry.h)


def resolve_problem(spec_or_name: ProblemSpec | str, n: int, seed: int | None = None,
                    inputs: list[Bits] | None = None) -> ResolvedProblem:
    """Instantiate a problem (builtin name or loaded spec) at input size n.

    A pair derived through the half-gap lemma has the lemma's promise and
    postcondition checked at every input, or only at `inputs` when given (for
    a caller that will run just those; see make_dual_lwpp).
    """
    if isinstance(spec_or_name, str):
        return _resolve_builtin(builtin_entry(spec_or_name), n, seed, inputs)

    spec = spec_or_name
    spec.check_n(n)
    source = spec.verifier
    if source["kind"] == "builtin":
        entry = builtin_entry(source["name"])
        declared = spec.m_of(n)
        if declared is not None and declared != entry.m_of(n):
            raise SpecError(f"spec {spec.name!r} declares m = {declared} at n = {n}, "
                            f"but builtin {entry.name!r} has m = {entry.m_of(n)}")
        resolved = _resolve_builtin(entry, n, seed, inputs)
        if spec.h is not None:
            resolved.h = spec.h
        resolved.name = spec.name
        return resolved

    def build(key: str) -> Verifier:
        ref = source[key]
        if source["kind"] == "dsl":
            m = spec.m_of(n)
            return dsl_verifier(ref, n, m, name=f"{spec.name}-{key}")
        path = spec.table_path(ref)
        obj = read_table_file(path)
        try:
            verifier = verifier_from_table_json(obj, name=f"{spec.name}-{key}")
        except ValueError as exc:  # a key or branch of the wrong length
            raise SpecError(f"table file {path} rejected: {exc}") from exc
        if verifier.n != n:
            raise SpecError(f"table file {path} is for n = {verifier.n}, not {n}")
        declared = spec.m_of(n)
        if declared is not None and declared != verifier.m:
            raise SpecError(f"table file {path} has m = {verifier.m}, spec says {declared}")
        return verifier

    if spec.dual == "derive-via-lemma":
        base = build("base")
        pair = make_dual_lwpp(base, spec.h, inputs)
        return ResolvedProblem(spec.name, n, pair.m, [pair.v0, pair.v1], pair, spec.h)
    v0, v1 = build("v0"), build("v1")
    pair = DualVerifierPair(v0, v1, name=spec.name, h_witness=spec.h)
    return ResolvedProblem(spec.name, n, pair.m, [v0, v1], pair, spec.h)
