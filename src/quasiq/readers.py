"""JSON readers of quasiq's records, the inverses of their to_json, and the
label-by-label truth-table reader.

No command reads a gate, state, circuit, outcome or gap report back, and a
valid table is read in bulk (verifierkit.verifier_from_table_json), so this
code lives here: the records' from_json classmethods import this module when
first called, and the table reader is called only to report a bad table.
"""
from __future__ import annotations

from quasiq.exactnum import Amplitude
from quasiq.quasistate import _KINDS, Gate, StateVector, key_of_label


def gate_from_json(cls, obj: dict, verifiers: dict | None = None):
    """The gate of a to_json dump. Gate() names a bad kind or a missing param;
    a param of the wrong JSON type, or a dict param that lacks a field, is
    refused here the same way. An ORACLE naming a verifier that `verifiers`
    lacks is a KeyError."""
    kind, param = obj["kind"], obj.get("param")
    codec = _KINDS[kind].param if kind in _KINDS else None
    if codec and param is not None:
        try:
            param = codec.from_json(param, verifiers)
        except (TypeError, KeyError) as exc:
            raise ValueError(f"{kind} takes {codec.what} parameter, got {param!r}") from exc
        if kind == "ORACLE" and param[0] is None:
            raise KeyError(f"no verifier named {obj['param']['verifier']!r} "
                           "to rebind the oracle gate")
    return cls(kind, tuple(obj["wires"]), tuple((w, p) for w, p in obj.get("controls", [])),
               param)


def state_from_json(cls, entries: list[dict], width: int | None = None):
    if width is None:
        if not entries:
            raise ValueError("cannot infer width of an empty dump")
        width = len(entries[0]["basis"])
    terms = {
        key_of_label(entry["basis"]): Amplitude.from_json(entry["amp"])
        for entry in entries
    }
    return cls(width, terms)


def circuit_from_json(cls, obj: dict, verifiers: dict | None = None):
    return cls(
        width=obj["width"],
        registers={name: tuple(span) for name, span in obj["registers"].items()},
        gates=tuple(Gate.from_json(g, verifiers) for g in obj["gates"]),
        checkpoints=tuple((label, pos) for label, pos in obj["checkpoints"]),
    )


def outcome_from_json(cls, obj: dict):
    width = obj["width"]
    return cls(
        construction=obj["construction"],
        input=obj["input"],
        verdict=obj["verdict"],
        answer=obj["answer"],
        success_mass=Amplitude.from_json(obj["success_mass"]),
        failure_mass=Amplitude.from_json(obj["failure_mass"]),
        final_state=StateVector.from_json(obj["final_state"], width),
        width=width,
        checkpoints={
            label: StateVector.from_json(dump, width)
            for label, dump in obj["checkpoints"].items()
        },
    )


def gap_report_from_json(cls, obj: dict):
    return cls(
        verifier=obj["verifier"],
        x=obj["x"],
        n=obj["n"],
        m=obj["m"],
        A=obj["A"],
        R=obj["R"],
        Delta=obj["Delta"],
        alpha=Amplitude.from_json(obj["alpha"]),
        rho=Amplitude.from_json(obj["rho"]),
        delta=Amplitude.from_json(obj["delta"]),
    )


def table_rows(table: dict, n: int, m: int) -> dict[tuple[int, ...], int]:
    """The accept masks of a truth table's rows, read one label at a time, so
    that the first bad key or label in row order is the one reported:
    verifierkit.verifier_from_table_json reads distinct labels in bulk and
    falls back to this when one fails."""
    rows = {}
    for xlabel, blabels in table.items():
        if len(xlabel) != n:
            raise ValueError(f"table key {xlabel!r} does not have length n = {n}")
        mask = 0
        for blabel in blabels:
            if len(blabel) != m:
                raise ValueError(f"branch {blabel!r} does not have length m = {m}")
            mask |= 1 << int(blabel, 2)
        rows[tuple(int(c) for c in xlabel)] = mask
    return rows
