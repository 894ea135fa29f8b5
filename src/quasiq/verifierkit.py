"""Verifier functions, the branch-counting gap oracle, and dual-pair transforms.

A verifier is a pure boolean function f(x, b) giving the accept bit of
branch b on input x; branch strings b have a fixed length m >= 1.  All gap
quantities here count all 2**m branches of the verifier's truth table (its
accept mask) and serve as the ground truth the circuit simulations are
checked against.

Half-gap convention: Delta = (R - A)/2 = R - 2**(m-1), where A and R count
accepting and rejecting branches.  A dual pair (v0, v1) decides a language
through which side's half-gap vanishes: Delta0 is zero exactly on members,
Delta1 exactly on non-members, and the normalized half-gap delta = Delta/2**m
of the non-vanishing side is what the circuits reproduce as an amplitude.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable, Mapping

from quasiq.exactnum import Amplitude
from quasiq.quasistate import bits_label, bits_of, key_of, label_of

Bits = tuple[int, ...]


class DualityError(ValueError):
    """A supposed dual pair has both or neither half-gap zero at some input."""

    def __init__(self, message: str, witness: str):
        super().__init__(message)
        self.witness = witness


class HalfGapPromiseError(ValueError):
    """A verifier offered as a fixed-half-gap machine breaks its promise."""

    def __init__(self, message: str, witness: str):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True, eq=False)
class Verifier:
    """Boolean verifier f(x, b) for inputs of length n and branches of length m.

    accept_mask(x) is the verifier's truth table at x, one int whose bit
    key_of(b) is set iff branch b accepts. A source that knows its table
    gives it as mask_fn; any other verifier has it from one enumeration of
    eval_fn. eval stays the per-branch reference the mask is tested against.
    """

    n: int
    m: int
    eval_fn: Callable[[Bits, Bits], int]
    name: str = "anonymous"
    mask_fn: Callable[[Bits], int] | None = field(default=None, repr=False)
    _masks: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("branching length m must be at least 1")
        if self.n < 0:
            raise ValueError("input length n must be nonnegative")

    def eval(self, x: Bits, b: Bits) -> int:
        return 1 if self.eval_fn(x, b) else 0

    def accept_mask(self, x: Bits) -> int:
        """Accepting branches at x as a bitmask, computed once per input."""
        x = tuple(x)
        mask = self._masks.get(x)
        if mask is None:
            if self.mask_fn is not None:
                mask = self.mask_fn(x)
            else:
                evaluate = self.eval_fn
                # product yields the branches in key order, lowest key first
                flags = "".join("1" if evaluate(x, b) else "0"
                                for b in product((0, 1), repeat=self.m))
                mask = int(flags[::-1], 2)
            self._masks[x] = mask
        return mask


def full_mask(m: int) -> int:
    """The accept mask of a verifier that accepts all 2**m branches."""
    return (1 << (1 << m)) - 1


@dataclass(frozen=True)
class GapReport:
    """Exact branch counts and normalized gap quantities for one (verifier, x)."""

    verifier: str
    x: str
    n: int
    m: int
    A: int
    R: int
    Delta: int
    alpha: Amplitude
    rho: Amplitude
    delta: Amplitude

    def to_json(self) -> dict:
        return {
            "verifier": self.verifier,
            "x": self.x,
            "n": self.n,
            "m": self.m,
            "A": self.A,
            "R": self.R,
            "Delta": self.Delta,
            "alpha": self.alpha.to_json(),
            "rho": self.rho.to_json(),
            "delta": self.delta.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> GapReport:
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


def gap_stats(v: Verifier, x: Bits) -> GapReport:
    """Exact branch counts for verifier v at input x; A is the popcount of
    its accept mask.

    The half-gap is computed both as (R - A)/2 and as R - 2**(m-1); the two
    must agree.
    """
    if len(x) != v.n:
        raise ValueError(f"input length {len(x)} != verifier n = {v.n}")
    m = v.m
    accepted = v.accept_mask(x).bit_count()
    rejected = 2**m - accepted
    diff = rejected - accepted
    assert diff % 2 == 0
    delta_half = diff // 2
    delta_alt = rejected - 2 ** (m - 1)
    assert delta_half == delta_alt, "half-gap computations disagree"
    return GapReport(
        verifier=v.name,
        x=bits_label(x),
        n=v.n,
        m=m,
        A=accepted,
        R=rejected,
        Delta=delta_half,
        alpha=Amplitude(accepted, 0, m),
        rho=Amplitude(rejected, 0, m),
        delta=Amplitude(delta_half, 0, m),
    )


# -- half-gap witnesses ---------------------------------------------------------


@dataclass(frozen=True)
class HalfGapFunction:
    """Length-dependent positive half-gap h(n), tabulated or M**t(n)."""

    kind: str  # "tabulated" | "power"
    table: Mapping[int, int] | None = None
    base: int | None = None
    t_affine: tuple[int, int] | None = None  # t(n) = a*n + b

    @classmethod
    def tabulated(cls, values: Mapping[int, int]) -> HalfGapFunction:
        vals = {int(k): int(v) for k, v in values.items()}
        if any(v < 1 for v in vals.values()):
            raise ValueError("half-gap values must be positive")
        return cls("tabulated", table=vals)

    @classmethod
    def power(cls, base: int, t_a: int, t_b: int) -> HalfGapFunction:
        if base < 1:
            raise ValueError("power base M must be at least 1")
        return cls("power", base=base, t_affine=(t_a, t_b))

    def exponent(self, n: int) -> int:
        if self.kind != "power":
            raise ValueError("exponent only defined for power-form half-gaps")
        a, b = self.t_affine
        t = a * n + b
        if t < 0:
            raise ValueError(f"negative exponent t({n}) = {t}")
        return t

    def value(self, n: int) -> int:
        if self.kind == "power":
            return self.base ** self.exponent(n)
        if n not in self.table:
            raise ValueError(f"half-gap table has no entry for n = {n}")
        return self.table[n]

    def to_json(self) -> dict:
        if self.kind == "power":
            a, b = self.t_affine
            return {"kind": "power", "M": self.base, "t": {"a": a, "b": b}}
        return {"kind": "tabulated", "values": {str(k): v for k, v in sorted(self.table.items())}}

    @classmethod
    def from_json(cls, obj: dict) -> HalfGapFunction:
        if obj["kind"] == "power":
            return cls.power(obj["M"], obj["t"]["a"], obj["t"]["b"])
        return cls.tabulated(obj["values"])


# -- dual pairs ----------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DualVerifierPair:
    """Two verifiers with common branching length deciding one language.

    v0's half-gap vanishes exactly on members, v1's exactly on non-members;
    the pair's language is read off from which side is nonzero.
    """

    v0: Verifier
    v1: Verifier
    name: str = "pair"
    h_witness: HalfGapFunction | None = None
    # Gap reports already computed, by input: each (pair, x) costs the oracle
    # two 2**m-branch counts, and a verify sweep asks for them per construction.
    _reports: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.v0.n != self.v1.n:
            raise ValueError("dual verifiers must share the input length")
        if self.v0.m != self.v1.m:
            raise ValueError("dual verifiers must make the same number of branchings")

    @property
    def n(self) -> int:
        return self.v0.n

    @property
    def m(self) -> int:
        return self.v0.m

    def side(self, c: int) -> Verifier:
        return self.v1 if c else self.v0

    def gap_reports(self, x: Bits) -> tuple[GapReport, GapReport]:
        """(v0, v1) gap reports at x, counted once per pair and input."""
        x = tuple(x)
        reports = self._reports.get(x)
        if reports is None:
            reports = self._reports[x] = (gap_stats(self.v0, x), gap_stats(self.v1, x))
        return reports

    def language_bit(self, x: Bits) -> int:
        """L(x) from the oracle: 1 iff v0's gap vanishes; raises DualityError
        unless exactly one side's gap is zero."""
        g0, g1 = self.gap_reports(x)
        zero0, zero1 = g0.Delta == 0, g1.Delta == 0
        if zero0 == zero1:
            label = g0.x
            raise DualityError(
                f"pair {self.name!r} is not dual at x = {label}: "
                f"Delta0 = {g0.Delta}, Delta1 = {g1.Delta}",
                witness=label,
            )
        return 1 if zero0 else 0


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


# -- verifier combinators ---------------------------------------------------------


def const_verifier(n: int, m: int, bit: int, name: str | None = None) -> Verifier:
    name = name or ("constant-accept" if bit else "constant-reject")
    mask = full_mask(m) if bit else 0
    return Verifier(n, m, lambda x, b: bit, name=name, mask_fn=lambda x: mask)


def threshold_verifier(n: int, m: int, cutoff: int, name: str | None = None) -> Verifier:
    """Accept exactly the branches whose value (as a big-endian integer) is below cutoff."""
    mask = (1 << min(max(cutoff, 0), 1 << m)) - 1
    return Verifier(n, m, lambda x, b: 1 if key_of(b) < cutoff else 0,
                    name=name or f"below-{cutoff}", mask_fn=lambda x: mask)


def balanced_verifier(n: int, m: int, name: str = "balanced") -> Verifier:
    return threshold_verifier(n, m, 2 ** (m - 1), name=name)


def negate_verifier(v: Verifier) -> Verifier:
    full = full_mask(v.m)
    return Verifier(v.n, v.m, lambda x, b: 1 - v.eval(x, b), name=f"not-{v.name}",
                    mask_fn=lambda x: v.accept_mask(x) ^ full)


def allzero_verifier(n: int) -> Verifier:
    """Accept iff parity(x AND b) is odd; balanced unless x = 0...0, where it
    rejects every branch."""
    def eval_fn(x: Bits, b: Bits) -> int:
        acc = 0
        for xi, bi in zip(x, b):
            acc ^= xi & bi
        return acc

    return Verifier(n, n, eval_fn, name="allzero-base")


def language_pair(n: int, m: int, language: Callable[[Bits], int], name: str) -> DualVerifierPair:
    """Direct dual pair for a known language: the zero-gap side runs a balanced
    verifier, the nonzero side rejects every branch (half-gap 2**(m-1))."""
    half = 2 ** (m - 1)
    low_half = (1 << half) - 1

    def v0_fn(x: Bits, b: Bits) -> int:
        return (1 if key_of(b) < half else 0) if language(x) else 0

    def v1_fn(x: Bits, b: Bits) -> int:
        return 0 if language(x) else (1 if key_of(b) < half else 0)

    v0 = Verifier(n, m, v0_fn, name=f"{name}-v0",
                  mask_fn=lambda x: low_half if language(x) else 0)
    v1 = Verifier(n, m, v1_fn, name=f"{name}-v1",
                  mask_fn=lambda x: 0 if language(x) else low_half)
    h = HalfGapFunction.power(2, 1, -1) if m == n else HalfGapFunction.tabulated({n: half})
    return DualVerifierPair(v0, v1, name=name, h_witness=h)


def equalize_branch_lengths(v: Verifier, target_m: int) -> Verifier:
    """Pad a verifier to a longer branching length.

    Padding is applied one bit at a time; each extra bit defers to the shorter
    machine regardless of its value, which doubles the accepting and rejecting
    counts alike, so the half-gap doubles per padding bit while its
    zero/nonzero pattern is untouched.
    """
    if target_m < v.m:
        raise ValueError(f"cannot shrink branching length {v.m} to {target_m}")
    if target_m == v.m:
        return v
    base_m = v.m
    pad = target_m - base_m
    return Verifier(v.n, target_m, lambda x, b: v.eval(x, b[:base_m]),
                    name=f"{v.name}+pad{pad}")


def branch_on_first_bit(when0: Verifier, when1: Verifier, name: str) -> Verifier:
    if (when0.n, when0.m) != (when1.n, when1.m):
        raise ValueError("branch arms must agree on (n, m)")
    # b[0] is the top bit of key_of(b): the when1 branches are the upper half
    shift = 1 << when0.m
    return Verifier(
        when0.n,
        when0.m + 1,
        lambda x, b: when1.eval(x, b[1:]) if b[0] else when0.eval(x, b[1:]),
        name=name,
        mask_fn=lambda x: when0.accept_mask(x) | when1.accept_mask(x) << shift,
    )


def make_dual_lwpp(base: Verifier, h: HalfGapFunction,
                   inputs: Iterable[Bits] | None = None,
                   name: str | None = None) -> DualVerifierPair:
    """Turn a fixed-half-gap verifier into a dual pair with one extra branch bit.

    Precondition (checked at every input in `inputs`, all 2**n by default):
    the half-gap is 0 or exactly h(n).  The returned pair has branching length
    m+1 and satisfies delta0 = 0 exactly on members, delta1 = 0 exactly on
    non-members, and the nonzero normalized half-gap equals h(n) / 2**(m+1);
    the postcondition is checked at the same inputs.  A caller that runs the
    pair on a few inputs only may check just those.  The pair is named `name`,
    or after the base verifier by default.
    """
    n, m = base.n, base.m
    hv = h.value(n)
    half = 2 ** (m - 1)
    if hv < 1 or hv > half:
        raise HalfGapPromiseError(
            f"half-gap h({n}) = {hv} outside [1, 2**(m-1)] for m = {m}", witness="")
    xs = list(product((0, 1), repeat=n)) if inputs is None else [tuple(x) for x in inputs]
    for x in xs:
        st = gap_stats(base, x)
        if st.Delta not in (0, hv):
            raise HalfGapPromiseError(
                f"verifier {base.name!r} breaks the half-gap promise at x = {st.x}: "
                f"Delta = {st.Delta}, expected 0 or {hv}",
                witness=st.x,
            )
    # First branch bit 0: a fixed-gap block (half-gap h on the v0 side, exactly
    # balanced on the v1 side).  First branch bit 1: defer to the base verifier,
    # with the accept bit flipped on the v0 side so the gaps cancel on members.
    v0 = branch_on_first_bit(
        threshold_verifier(n, m, half - hv),
        negate_verifier(base),
        name=f"{base.name}-dual0",
    )
    v1 = branch_on_first_bit(
        balanced_verifier(n, m),
        base,
        name=f"{base.name}-dual1",
    )
    pair = DualVerifierPair(v0, v1, name=name or f"{base.name}-dual", h_witness=h)
    expected = Amplitude(hv, 0, m + 1)
    for x in xs:
        lx = pair.language_bit(x)  # raises DualityError if construction failed
        live = pair.gap_reports(x)[lx]
        if live.delta != expected:
            raise HalfGapPromiseError(
                f"constructed pair has delta = {live.delta} != h/2**(m+1) at x = {live.x}",
                witness=live.x,
            )
    return pair


# -- truth-table verifiers ----------------------------------------------------------


def table_verifier(n: int, m: int, table: Mapping[Bits, frozenset[int]],
                   name: str = "table") -> Verifier:
    """table maps each input-bit tuple to the set of accepted branch values."""
    full = full_mask(m)
    return _rows_verifier(n, m, {x: sum(1 << value for value in accepted) & full
                                 for x, accepted in table.items()}, name)


def _rows_verifier(n: int, m: int, rows: Mapping[Bits, int], name: str) -> Verifier:
    """A truth table stored as its rows' accept masks; an input without a
    row rejects every branch."""
    return Verifier(n, m, lambda x, b: rows.get(x, 0) >> key_of(b) & 1, name=name,
                    mask_fn=lambda x: rows.get(x, 0))


def table_to_json(v: Verifier) -> dict:
    """Enumerate a verifier into the truth-table file format."""
    table: dict[str, list[str]] = {}
    for xkey in range(2**v.n):
        x = bits_of(xkey, v.n)
        accepted = [
            label_of(bkey, v.m)
            for bkey in range(2**v.m)
            if v.eval(x, bits_of(bkey, v.m))
        ]
        table[label_of(xkey, v.n)] = accepted
    return {"n": v.n, "m": v.m, "table": table}


def verifier_from_table_json(obj: dict, name: str = "table") -> Verifier:
    n, m = int(obj["n"]), int(obj["m"])
    rows: dict[Bits, int] = {}
    for xlabel, blabels in obj["table"].items():
        if len(xlabel) != n:
            raise ValueError(f"table key {xlabel!r} does not have length n = {n}")
        mask = 0
        for blabel in blabels:
            if len(blabel) != m:
                raise ValueError(f"branch {blabel!r} does not have length m = {m}")
            mask |= 1 << int(blabel, 2)
        rows[tuple(int(c) for c in xlabel)] = mask
    return _rows_verifier(n, m, rows, name)


# -- seeded random generators -------------------------------------------------------


def random_dual_pair(n: int, m: int, rng, name: str | None = None) -> DualVerifierPair:
    """Rejection-sample a valid dual pair of truth-table verifiers.

    Per input: pick the language bit, then draw accept sets until the
    zero-gap side is exactly balanced and the other side is not.

    An accept set takes one coin flip per branch value, in value order. A
    flip is the top bit of one 32-bit output of the generator, which is
    what getrandbits(1) returns, so one getrandbits(32 * 2**m) holds all
    2**m flips (flip i is bit 32*i + 31) and leaves the generator where
    2**m calls of getrandbits(1) would.
    """
    count = 2**m
    half = count // 2
    flip_bits = (full_mask(m + 5) // 0xFFFFFFFF) << 31

    def draw(balanced: bool) -> int:
        while True:
            words = rng.getrandbits(32 * count)
            if ((words & flip_bits).bit_count() == half) == balanced:
                # every 32nd binary digit, from flip count-1 down to flip 0
                return int(format(words, f"0{32 * count}b")[::32], 2)

    t0: dict[Bits, int] = {}
    t1: dict[Bits, int] = {}
    for xkey in range(2**n):
        x = bits_of(xkey, n)
        member = rng.getrandbits(1)
        balanced = draw(True)
        skewed = draw(False)
        # v0 is gapless exactly on members, v1 exactly on non-members
        t0[x] = balanced if member else skewed
        t1[x] = skewed if member else balanced
    name = name or f"random-{n}x{m}"
    return DualVerifierPair(
        _rows_verifier(n, m, t0, f"{name}-v0"),
        _rows_verifier(n, m, t1, f"{name}-v1"),
        name=name,
    )


def random_fixed_gap_base(n: int, m: int, h_value: int, rng,
                          name: str | None = None) -> Verifier:
    """Random truth-table verifier whose half-gap is 0 or exactly h_value,
    following a random language (suitable input to make_dual_lwpp)."""
    count = 2**m
    half = count // 2
    if not 1 <= h_value <= half:
        raise ValueError(f"h_value must lie in [1, {half}]")
    table: dict[Bits, frozenset[int]] = {}
    for xkey in range(2**n):
        x = bits_of(xkey, n)
        accepts = half - h_value if rng.getrandbits(1) else half
        table[x] = frozenset(rng.sample(range(count), accepts))
    return table_verifier(n, m, table, name=name or f"fixed-gap-{h_value}")


# -- builtin problem catalog ----------------------------------------------------------


@dataclass(frozen=True)
class BuiltinProblem:
    """Catalog entry: a dual pair family (make_pair) or a single verifier
    family (make_single)."""

    name: str
    summary: str
    m_of: Callable[[int], int] = field(repr=False)
    make_pair: Callable[[int, object, Iterable[Bits] | None], DualVerifierPair] | None = field(
        default=None, repr=False)
    make_single: Callable[[int], Verifier] | None = field(default=None, repr=False)
    h: HalfGapFunction | None = None
    language: Callable[[Bits], int] | None = field(default=None, repr=False)

    def pair(self, n: int, rng=None, inputs: Iterable[Bits] | None = None) -> DualVerifierPair:
        """The pair at input size n; a lemma-derived pair checks the lemma at
        `inputs` only, when given (see make_dual_lwpp)."""
        if self.make_pair is None:
            raise ValueError(f"builtin {self.name!r} is not a dual-pair problem")
        return self.make_pair(n, rng, inputs)


def _parity(x: Bits) -> int:
    acc = 0
    for bit in x:
        acc ^= bit
    return acc


def builtin_problems() -> dict[str, BuiltinProblem]:
    h_half = HalfGapFunction.power(2, 1, -1)  # 2**(n-1), matching m(n) = n

    def allzero_pair(n: int, rng=None, inputs=None) -> DualVerifierPair:
        return make_dual_lwpp(allzero_verifier(n), h_half, inputs, name="allzero")

    def given(name: str, summary: str, language: Callable[[Bits], int]) -> BuiltinProblem:
        def make(n: int, rng=None, inputs=None) -> DualVerifierPair:
            return language_pair(n, n, language, name)

        return BuiltinProblem(name, summary, m_of=lambda n: n, make_pair=make, h=h_half,
                              language=language)

    def single(name: str, summary: str, make: Callable[[int], Verifier]) -> BuiltinProblem:
        return BuiltinProblem(name, summary, m_of=lambda n: n, make_single=make)

    def random_pair(n: int, rng, inputs=None) -> DualVerifierPair:
        if rng is None:
            raise ValueError("random-table needs a seeded RNG")
        return random_dual_pair(n, n + 1, rng, name="random-table")

    problems = [
        BuiltinProblem(
            name="allzero",
            summary="membership in {0^n}; fixed-half-gap base with h(n) = 2^(n-1), dual pair via the lemma transform",
            m_of=lambda n: n + 1,
            make_pair=allzero_pair,
            h=h_half,
            language=lambda x: 1 if not any(x) else 0,
        ),
        given("empty", "the empty language: every input is a non-member", lambda x: 0),
        given("full", "the full language: every input is a member", lambda x: 1),
        given("parity", "inputs with an odd number of ones", _parity),
        given("coparity", "inputs with an even number of ones", lambda x: 1 - _parity(x)),
        BuiltinProblem(
            name="random-table",
            summary="seeded random truth-table dual pair (rejection-sampled)",
            m_of=lambda n: n + 1,
            make_pair=random_pair,
        ),
        single("constant-reject", "single verifier rejecting every branch (half-gap 2^(m-1))",
               lambda n: const_verifier(n, n, 0)),
        single("constant-accept", "single verifier accepting every branch (half-gap -2^(m-1))",
               lambda n: const_verifier(n, n, 1)),
        single("balanced", "single verifier accepting exactly half the branches (half-gap 0)",
               lambda n: balanced_verifier(n, n)),
    ]
    return {p.name: p for p in problems}
