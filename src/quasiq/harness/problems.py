"""Problem-spec files: loading, checked against quasiq.harness.schema, and
resolution to verifiers.

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
from itertools import chain

from quasiq.harness.dsl import dsl_verifier
from quasiq.quasistate import record
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


class ProblemSpec(record("ProblemSpec", "name n_min n_max m_spec verifier h dual base_dir", (".",))):
    """Validated problem description plus the directory for relative paths:
    the spec's "m", "verifier" and "dual" as read, and h as a HalfGapFunction
    or None."""

    __slots__ = ()

    @classmethod
    def from_json(cls, obj: dict, base_dir: str = ".") -> ProblemSpec:
        from quasiq.harness.schema import SCHEMA, _conforms, _validator

        if not _conforms(SCHEMA, obj):
            from jsonschema.exceptions import best_match

            error = best_match(_validator(table=False).iter_errors(obj))
            if error is not None:
                raise SpecError(f"problem spec rejected by schema: {error.message}") from error
        for what, table in (("m table", obj.get("m", {}).get("table", {})),
                            ("h values", obj.get("h", {}).get("values", {}))):
            for key in table:
                if not (key.isascii() and key == str(int(key))):
                    raise SpecError(f"{what} key {key!r} is not a size n in ASCII digits "
                                    "without leading zeros")
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
        n_min, n_max = obj["n"]["min"], obj["n"]["max"]
        if n_min > n_max:
            raise SpecError(f"spec {obj['name']!r} declares n from {n_min} to {n_max}, an empty range")
        h = HalfGapFunction.from_json(obj["h"]) if "h" in obj else None
        return cls(obj["name"], n_min, n_max, obj.get("m"), verifier, h, dual, base_dir)

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


class ResolvedProblem(record("ResolvedProblem", "name n m verifiers pair h")):
    """Concrete verifiers for one input size: a list of one or two, and their
    DualVerifierPair and HalfGapFunction when the problem has them."""

    __slots__ = ()

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


def _stray(labels) -> bool:
    """Whether some item of `labels` is not a string of 0s and 1s; each
    distinct item is looked at once."""
    try:
        return bool("".join(set(labels)).strip("01"))
    except TypeError:  # an item that is not a string, or cannot be hashed
        return True


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
    from quasiq.harness.schema import TABLE_SCHEMA, _conforms, _validator

    if not _conforms(TABLE_SCHEMA, obj):
        from jsonschema import ValidationError

        try:
            _validator(table=True).validate(obj)
        except ValidationError as exc:
            raise SpecError(f"table file {path} rejected by schema: {exc.message}") from exc
    table = obj["table"]
    if _stray(table):  # a key that ends in a newline matches the schema's ^[01]*$
        xlabel = next(xlabel for xlabel in table if xlabel.strip("01"))
        raise SpecError(f"table file {path} rejected by schema: "
                        f"the input {xlabel!r} is not a bit string")
    if _stray(chain.from_iterable(table.values())):  # then name the first row with one
        xlabel = next(xlabel for xlabel, blabels in table.items() if _stray(blabels))
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


def resolve_problem(spec_or_name: ProblemSpec | str, n: int, seed: int | None = None,
                    inputs: list[Bits] | None = None,
                    max_size: int | None = None) -> ResolvedProblem:
    """Instantiate a problem (builtin name or loaded spec) at input size n.

    A pair derived through the half-gap lemma has the lemma's promise and
    postcondition checked at every input, or only at `inputs` when given (for
    a caller that will run just those; see make_dual_lwpp). With `max_size`,
    a problem with n + m above it is a SpecError, raised as soon as m is
    known: from the builtin, from the spec's declared m (plus 1 for a lemma
    pair), or else from the first table file's header, before any other
    table is read, DSL text compiled, lemma swept or random table drawn.
    """
    def guard(m: int) -> None:
        if max_size is not None and n + m > max_size:
            raise SpecError(f"n + m = {n + m} exceeds the desk-scale limit "
                            f"{max_size}; pass --force-large to override")

    spec = None if isinstance(spec_or_name, str) else spec_or_name
    if spec is not None:
        spec.check_n(n)
    source = {"kind": "builtin", "name": spec_or_name} if spec is None else spec.verifier
    if source["kind"] == "builtin":
        entry = builtin_entry(source["name"])
        m = entry.m_of(n)
        guard(m)
        declared = None if spec is None else spec.m_of(n)
        if declared is not None and declared != m:
            raise SpecError(f"spec {spec.name!r} declares m = {declared} at n = {n}, "
                            f"but builtin {entry.name!r} has m = {m}")
        name = entry.name if spec is None else spec.name
        h = entry.h if spec is None or spec.h is None else spec.h
        if entry.make_single is not None:
            verifier = entry.make_single(n)
            return ResolvedProblem(name, n, verifier.m, [verifier], None, h)
        pair = entry.pair(n, random.Random(seed) if seed is not None else None, inputs)
        return ResolvedProblem(name, n, pair.m, [pair.v0, pair.v1], pair, h)

    lemma = spec.dual == "derive-via-lemma"  # the derived pair branches once more than its base
    declared = spec.m_of(n)
    first = None
    if declared is None:  # a table-file spec: its first file's header gives m
        first = read_table_file(spec.table_path(source["base" if lemma else "v0"]))
        guard(first["m"] + lemma)
    else:
        guard(declared + lemma)

    def build(key: str, obj: dict | None = None) -> Verifier:
        ref = source[key]
        if source["kind"] == "dsl":
            try:
                return dsl_verifier(ref, n, declared, name=f"{spec.name}-{key}")
            except ValueError as exc:  # a ParseError, which keeps its line and column
                raise SpecError(f"spec {spec.name!r}, {key}: {exc}") from exc
        path = spec.table_path(ref)
        obj = obj or read_table_file(path)
        try:
            verifier = verifier_from_table_json(obj, name=f"{spec.name}-{key}")
        except ValueError as exc:  # a key or branch of the wrong length
            raise SpecError(f"table file {path} rejected: {exc}") from exc
        if verifier.n != n:
            raise SpecError(f"table file {path} is for n = {verifier.n}, not {n}")
        if declared is not None and declared != verifier.m:
            raise SpecError(f"table file {path} has m = {verifier.m}, spec says {declared}")
        return verifier

    if lemma:
        pair = make_dual_lwpp(build("base", first), spec.h, inputs)
        return ResolvedProblem(spec.name, n, pair.m, [pair.v0, pair.v1], pair, spec.h)
    v0, v1 = build("v0", first), build("v1")
    if v0.m != v1.m:
        raise SpecError(f"table files {spec.table_path(source['v0'])} and "
                        f"{spec.table_path(source['v1'])} have m = {v0.m} and m = {v1.m}; "
                        "a dual pair needs one branching length")
    pair = DualVerifierPair(v0, v1, name=spec.name, h_witness=spec.h)
    return ResolvedProblem(spec.name, n, pair.m, [v0, v1], pair, spec.h)
