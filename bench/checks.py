"""Checks of quasiq's JSON outputs against the benchmark's own expected values.

Amplitudes are compared as exact elements (c0 + c1*sqrt(2)) / 2**e of the ring,
with integer arithmetic written here rather than quasiq's: two triples are equal
when their values are, and an ordering is decided on integers alone. Each check
returns a list of problems; an empty list means the output is correct.
"""
from __future__ import annotations

from inputs import CONSTRUCTIONS, Source

DECIDERS = ("lwpp", "lpwpp")


class Amp:
    """Exact value (c0 + c1*sqrt(2)) / 2**e read from a JSON triple."""

    __slots__ = ("c0", "c1", "e")

    def __init__(self, c0: int, c1: int, e: int):
        self.c0, self.c1, self.e = c0, c1, e

    @classmethod
    def from_json(cls, obj) -> Amp:
        return cls(int(obj["c0"]), int(obj["c1"]), int(obj["e"]))

    def canonical(self) -> bool:
        """quasiq's documented form: e >= 0, zero is (0, 0, 0), and when e > 0
        the two integer parts are not both even."""
        if self.c0 == 0 and self.c1 == 0:
            return self.e == 0
        return self.e == 0 or (self.e > 0 and (self.c0 % 2 or self.c1 % 2))

    def _aligned(self, other: Amp) -> tuple[int, int]:
        """Numerators of self - other over the common denominator 2**max(e)."""
        e = max(self.e, other.e)
        d0 = (self.c0 << (e - self.e)) - (other.c0 << (e - other.e))
        d1 = (self.c1 << (e - self.e)) - (other.c1 << (e - other.e))
        return d0, d1

    def __eq__(self, other) -> bool:
        return isinstance(other, Amp) and self._aligned(other) == (0, 0)

    def compare(self, other: Amp) -> int:
        """Sign of self - other: the sign of d0 + d1*sqrt(2), decided by
        comparing d0**2 with 2*d1**2 when the two parts disagree in sign."""
        d0, d1 = self._aligned(other)
        s0, s1 = (d0 > 0) - (d0 < 0), (d1 > 0) - (d1 < 0)
        if s0 == 0 or s1 == 0 or s0 == s1:
            return s0 or s1
        return s0 if d0 * d0 > 2 * d1 * d1 else s1

    def __repr__(self) -> str:
        return f"({self.c0} + {self.c1}*sqrt2)/2^{self.e}"


def dyadic(num: int, e: int) -> Amp:
    return Amp(num, 0, e)


def _amp(obj, what: str, problems: list[str]) -> Amp | None:
    try:
        amp = Amp.from_json(obj)
    except (KeyError, TypeError, ValueError):
        problems.append(f"{what} is not an amplitude triple: {obj!r}")
        return None
    if not amp.canonical():
        problems.append(f"{what} {amp!r} is not in canonical form")
    return amp


def check_simulate(out: dict, source: Source, construction: str, x: str) -> list[str]:
    """One `quasiq simulate` outcome: the answer is L(x); un, fig3-zqp and wn
    carry success mass delta**2; fig3-zqp's success mass exceeds its failure
    mass; a decider's dumped state is the single term
    (h/2**m)|x 0**m 1 0 L(x)>."""
    problems: list[str] = []
    lx = source.language(x)
    m = source.m
    if out.get("construction") != construction or out.get("input") != x:
        problems.append(f"output is for {out.get('construction')!r} on {out.get('input')!r}")
    if out.get("answer") != lx:
        problems.append(f"answer {out.get('answer')!r} != L({x}) = {lx}")
    verdict = "POSTSELECTED" if construction == "fig3-post" else ("YES" if lx else "NO")
    if out.get("verdict") != verdict:
        problems.append(f"verdict {out.get('verdict')!r} != {verdict!r}")
    success = _amp(out.get("success_mass"), "success_mass", problems)
    failure = _amp(out.get("failure_mass"), "failure_mass", problems)
    if success is None or failure is None:
        return problems
    live = source.live_delta(x)
    if construction in ("un", "fig3-zqp", "wn") and success != dyadic(live * live, 2 * m):
        problems.append(f"success_mass {success!r} != delta**2 = {live}**2/2^{2 * m}")
    if construction == "fig3-zqp" and success.compare(failure) <= 0:
        problems.append(f"success_mass {success!r} does not exceed failure_mass {failure!r}")
    if construction in DECIDERS:
        state = out.get("final_state")
        basis = x + "0" * m + "10" + str(lx)
        if not isinstance(state, list) or len(state) != 1:
            problems.append(f"decider state is not a single term: {state!r}")
        else:
            term = state[0]
            if term.get("basis") != basis:
                problems.append(f"decider term |{term.get('basis')}> != |{basis}>")
            amp = _amp(term.get("amp"), "decider amplitude", problems)
            if amp is not None and amp != dyadic(source.h, m):
                problems.append(f"decider amplitude {amp!r} != h/2^m = {source.h}/2^{m}")
    return problems


def _rows_by_key(rows, problems: list[str]) -> dict:
    keyed = {}
    for row in rows if isinstance(rows, list) else ():
        key = (row.get("construction"), row.get("input"))
        if key in keyed:
            problems.append(f"duplicate row {key}")
        keyed[key] = row
    return keyed


def _inputs(source: Source) -> list[str]:
    return sorted(source.delta0)


def check_verify(out: dict, exit_code: int, source: Source) -> list[str]:
    """`quasiq verify` over all constructions: exit 0, ok, and exactly one
    passing row per construction and input."""
    problems: list[str] = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}, expected 0")
    if out.get("ok") is not True:
        problems.append("verify reports ok != true")
    rows = out.get("results")
    keyed = _rows_by_key(rows, problems)
    expected = {(c, x) for c in CONSTRUCTIONS for x in _inputs(source)}
    if set(keyed) != expected or len(rows) != len(expected):
        missing = sorted(expected - set(keyed))[:3]
        problems.append(f"{len(rows or ())} rows, expected {len(expected)}; missing e.g. {missing}")
    failing = [key for key, row in keyed.items() if row.get("ok") is not True]
    if failing:
        problems.append(f"rows not ok: {failing[:3]}")
    return problems


def check_corrupt_h(out: dict, exit_code: int, source: Source) -> list[str]:
    """`quasiq verify --construction lwpp --corrupt-h`: exit 1 with every
    input flagged."""
    problems: list[str] = []
    if exit_code != 1:
        problems.append(f"--corrupt-h exit code {exit_code}, expected 1")
    if out.get("ok") is not False:
        problems.append("--corrupt-h reports ok != false")
    rows = out.get("results")
    keyed = _rows_by_key(rows, problems)
    expected = {("lwpp", x) for x in _inputs(source)}
    if set(keyed) != expected or len(rows) != len(expected):
        problems.append(f"--corrupt-h rows {sorted(keyed)[:3]}... != one lwpp row per input")
    passing = [key for key, row in keyed.items() if row.get("ok") is not False]
    if passing:
        problems.append(f"--corrupt-h left inputs unflagged: {passing[:3]}")
    return problems


def check_duals(out: dict, exit_code: int, source: Source) -> list[str]:
    """`quasiq duals`: Delta0, Delta1 and the language bit of every row equal
    the benchmark's own counts."""
    problems: list[str] = []
    if exit_code != 0 or out.get("ok") is not True:
        problems.append(f"duals exit code {exit_code}, ok {out.get('ok')!r}")
    rows = out.get("rows") if isinstance(out.get("rows"), list) else []
    got = {row.get("x"): row for row in rows}
    if sorted(got) != _inputs(source) or len(rows) != len(got):
        problems.append(f"duals rows cover {len(got)} inputs, expected {len(source.delta0)}")
    for x in _inputs(source):
        row = got.get(x, {})
        want = (source.delta0[x], source.delta1[x], source.language(x))
        have = (row.get("Delta0"), row.get("Delta1"), row.get("language_bit"))
        if have != want:
            problems.append(f"duals row {x}: (Delta0, Delta1, L) = {have} != {want}")
    return problems


def check_gap(out: dict, exit_code: int, source: Source, x: str) -> list[str]:
    """`quasiq gap` (the set-up command): both reports' half-gaps."""
    reports = out.get("reports")
    if exit_code != 0 or not isinstance(reports, list) or len(reports) != 2:
        return [f"gap exit code {exit_code}, reports {reports!r}"]
    have = tuple(r.get("Delta") for r in reports)
    want = (source.delta0[x], source.delta1[x])
    return [] if have == want else [f"gap half-gaps {have} != {want}"]
