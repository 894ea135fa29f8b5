"""JSON readers of quasiq's records, the inverses of their to_json, the JSON
writers of gates and circuits, and the label-by-label truth-table reader.

No command reads a gate, state, circuit, outcome or gap report back or writes
a gate or circuit, and a valid table is read in bulk
(verifierkit.verifier_from_table_json), so this code lives here: the records'
from_json and to_json methods import this module when first called, and the
table reader is called only to report a bad table.
"""
from __future__ import annotations

import re

from quasiq.exactnum import Amplitude
from quasiq.quasistate import _KINDS, Gate, key_of_label
from quasiq.reference import StateVector

_DECIMAL = re.compile(r"-?[0-9]+")


def _expect(value, kind: type, what: str):
    """`value` if it is a `kind` and no bool, else a ValueError naming `what` and the value."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{what} must be a JSON {kind.__name__}, got {value!r}")
    return value


def _pairs(value, what: str) -> tuple:
    """A JSON list of two-item lists as a tuple of pairs, else a ValueError naming `what`."""
    if any(not isinstance(pair, list) or len(pair) != 2 for pair in _expect(value, list, what)):
        raise ValueError(f"{what} must be a list of pairs, got {value!r}")
    return tuple(map(tuple, value))


def amplitude_from_json(cls, obj: dict):
    """The amplitude of a to_json dump: c0 and c1 ints in decimal (strings, as dumped, or
    JSON ints) and e an int >= 0; a field of another value is a ValueError naming it.
    No canonical dump has e < 0, which would scale c0 and c1 up by 2**-e."""
    fields = _expect(obj, dict, "an amplitude")
    for name in ("c0", "c1", "e"):
        value = fields.get(name)
        if not (type(value) is int or name != "e" and isinstance(value, str) and _DECIMAL.fullmatch(value)):
            kinds = "an int" if name == "e" else "an int or a decimal string"
            raise ValueError(f"amplitude field {name!r} must be {kinds}, got {value!r:.40}")
    if fields["e"] < 0:
        raise ValueError(f"amplitude field 'e' must be at least 0, got {fields['e']}")
    return cls(int(fields["c0"]), int(fields["c1"]), fields["e"])


def gate_to_json(gate: Gate) -> dict:
    obj: dict = {"kind": gate.kind, "label": gate.label(), "wires": list(gate.wires)}
    if gate.controls:
        obj["controls"] = [[w, p] for w, p in gate.controls]
    codec = _KINDS[gate.kind].param
    if codec:
        obj["param"] = codec.to_json(gate.param)
    return obj


def circuit_to_json(circuit) -> dict:
    return {
        "width": circuit.width,
        "registers": {name: list(span) for name, span in circuit.registers.items()},
        "gates": [g.to_json() for g in circuit.gates],
        "checkpoints": [[label, pos] for label, pos in circuit.checkpoints],
    }


def gate_from_json(cls, obj: dict, verifiers: dict | None = None):
    """The gate of a to_json dump. Gate() names a missing param and a wire or
    polarity of the wrong type; an unknown kind, a gate, wire list or control of
    the wrong JSON shape, a param of the wrong JSON type, or a dict param that
    lacks a field, is refused here the same way. An ORACLE naming a verifier that
    `verifiers` lacks is a KeyError."""
    kind, param = _expect(obj, dict, "a gate")["kind"], obj.get("param")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown gate kind {kind!r}")
    codec = _KINDS[kind].param
    if codec and param is not None:
        try:
            param = codec.from_json(param, verifiers)
        except (TypeError, KeyError, ValueError) as exc:  # ValueError: an Amplitude field, named in the cause
            raise ValueError(f"{kind} takes {codec.what} parameter, got {param!r}") from exc
        if kind == "ORACLE" and param[0] is None:
            raise KeyError(f"no verifier named {obj['param']['verifier']!r} "
                           "to rebind the oracle gate")
    return cls(kind, tuple(_expect(obj["wires"], list, "gate wires")),
               _pairs(obj.get("controls", []), "gate controls"), param)


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
    """The circuit of a to_json dump; a field of the wrong JSON shape is a ValueError."""
    checkpoints = _pairs(_expect(obj, dict, "a circuit")["checkpoints"], "circuit checkpoints")
    return cls(
        width=_expect(obj["width"], int, "circuit width"),
        registers={name: tuple(_expect(span, list, f"register {name!r}"))
                   for name, span in _expect(obj["registers"], dict, "circuit registers").items()},
        gates=tuple(Gate.from_json(g, verifiers) for g in _expect(obj["gates"], list, "circuit gates")),
        checkpoints=tuple((_expect(label, str, "a checkpoint label"), _expect(pos, int, f"checkpoint {label!r}"))
                          for label, pos in checkpoints),
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
