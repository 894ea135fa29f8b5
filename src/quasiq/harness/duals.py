"""The `duals` command: every input's two half-gaps, the duality check, and
the half-gap witness. No other command runs this code, so cli imports this
module only when `duals` is asked for.
"""
from __future__ import annotations

from itertools import product

from quasiq.exactnum import Amplitude
from quasiq.harness.cli import EXIT_MISMATCH, EXIT_OK, _emit, _load
from quasiq.verifierkit import DualVerifierPair


def validate_dual_pair(pair: DualVerifierPair) -> list[dict]:
    """Sweep all inputs; per-x report of both half-gaps and the duality check."""
    rows = []
    for x in product((0, 1), repeat=pair.n):
        g0, g1 = pair.gap_reports(x)
        ok = (g0.Delta == 0) != (g1.Delta == 0)
        row = {
            "x": g0.x,
            "Delta0": g0.Delta,
            "Delta1": g1.Delta,
            "dual": ok,
        }
        if ok:
            row["language_bit"] = 1 if g0.Delta == 0 else 0
        rows.append(row)
    return rows


def cmd_duals(args) -> int:
    resolved = _load(args)
    pair = resolved.require_pair()
    rows = validate_dual_pair(pair)
    ok = all(row["dual"] for row in rows)
    if resolved.h is not None:
        hv = resolved.h.value(resolved.n)
        for row in rows:
            if not row["dual"]:
                continue
            x = tuple(int(ch) for ch in row["x"])
            live = pair.gap_reports(x)[row["language_bit"]]
            row["h_matches"] = live.delta == Amplitude(hv, 0, pair.m)
            ok = ok and row["h_matches"]
    _emit(
        {
            "problem": resolved.name,
            "n": resolved.n,
            "m": pair.m,
            "pair": pair.name,
            "seed": args.seed,
            "ok": ok,
            "rows": rows,
        },
        args.json,
    )
    return EXIT_OK if ok else EXIT_MISMATCH
