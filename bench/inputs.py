"""Seeded inputs for the benchmark workloads, with expected values derived here.

Every expected value comes from the tables this module writes or from a closed
form, never from running quasiq: the program receives only the files written
by `write_inputs`.

Half-gap convention (as in the paper): for a verifier with branching length m,
Delta = R - 2**(m-1), where R counts rejecting branches; delta = Delta / 2**m.

Usage: python3 bench/inputs.py --workload NAME --seed N --out DIR
"""
from __future__ import annotations

import argparse
import json
import os
import random
from dataclasses import dataclass

CONSTRUCTIONS = ("un", "fig3-zqp", "fig3-post", "wn", "lwpp", "lpwpp")

LEMMA_N = 8        # base branching length m = n, pair branching length m + 1
LEMMA_TABLE_H = (4, 2)   # (M, t): the table base has half-gap h = M**t = 16
DIRECT_N = 5       # m = n for every direct pair
DIRECT_TABLE_H = (2, 2)  # h = 4: the live side accepts 2**(m-1) - 4 branches
WIDE_N, WIDE_M = 4, 12
CHECK_N, CHECK_M = 2, 4  # small bent-function pair for the --corrupt-h check


def bits(key: int, width: int) -> str:
    return format(key, f"0{width}b")


def bent_dsl(m: int) -> str:
    """Inner product b[0]&b[1] ^ ... ^ b[m-2]&b[m-1]: a bent function."""
    return " ^ ".join(f"b[{2 * i}] & b[{2 * i + 1}]" for i in range(m // 2))


@dataclass
class Source:
    """One problem the benchmark hands to quasiq, with its expected counts.

    problem: the --problem argument (builtin name or spec path).
    n, m: input size and the pair's branching length.
    h: half-gap witness value at n (the live side's Delta at every input).
    delta0, delta1: per-input half-gaps of the pair's two sides, keyed by x.
    """

    name: str
    problem: str
    n: int
    m: int
    h: int
    delta0: dict[str, int]
    delta1: dict[str, int]

    def language(self, x: str) -> int:
        """L(x) = 1 exactly when v0's half-gap vanishes."""
        return 1 if self.delta0[x] == 0 else 0

    def live_delta(self, x: str) -> int:
        return self.delta1[x] if self.language(x) else self.delta0[x]

    def inputs(self, member: int) -> list[str]:
        return [x for x in sorted(self.delta0) if self.language(x) == member]


# -- the lemma transform on counts ------------------------------------------------


def lemma_pair_deltas(base_delta: dict[str, int], h: int) -> tuple[dict, dict]:
    """Half-gaps of the dual pair the half-gap lemma derives from a base verifier.

    The pair has one extra branch bit. Under first bit 0, v0 accepts 2**(m-1) - h
    of the 2**m branches and v1 is balanced; under first bit 1, v0 runs the
    negated base and v1 the base. Summing rejections over both halves gives
    Delta0 = h - Delta_base and Delta1 = Delta_base.
    """
    return ({x: h - d for x, d in base_delta.items()},
            {x: d for x, d in base_delta.items()})


def table_deltas(table: dict[str, list[str]], m: int) -> dict[str, int]:
    """Delta = R - 2**(m-1) = 2**(m-1) - A, read off a truth table's accept lists."""
    return {x: 2 ** (m - 1) - len(accepted) for x, accepted in table.items()}


def fixed_gap_table(n: int, m: int, h: int, rng: random.Random) -> dict[str, list[str]]:
    """Truth table whose half-gap is 0 (non-member) or h (member) at each input."""
    table = {}
    for xkey in range(2 ** n):
        member = rng.getrandbits(1)
        accepts = 2 ** (m - 1) - (h if member else 0)
        table[bits(xkey, n)] = [bits(b, m) for b in sorted(rng.sample(range(2 ** m), accepts))]
    return table


def given_pair_tables(n: int, m: int, h: int, rng: random.Random) -> tuple[dict, dict]:
    """Direct pair: v0 balanced exactly on members, v1 exactly on non-members;
    the live side accepts 2**(m-1) - h branches, so its half-gap is h."""
    t0, t1 = {}, {}
    for xkey in range(2 ** n):
        x = bits(xkey, n)
        member = rng.getrandbits(1)
        zero = [bits(b, m) for b in sorted(rng.sample(range(2 ** m), 2 ** (m - 1)))]
        live = [bits(b, m) for b in sorted(rng.sample(range(2 ** m), 2 ** (m - 1) - h))]
        t0[x], t1[x] = (zero, live) if member else (live, zero)
    return t0, t1


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)


def _spec(name, n_range, m, verifier, h, dual) -> dict:
    """Problem spec; h = (M, a, b) is the witness M**(a*n + b)."""
    return {"name": name, "n": {"min": n_range[0], "max": n_range[1]}, "m": m,
            "verifier": verifier, "dual": dual,
            "h": {"kind": "power", "M": h[0], "t": {"a": h[1], "b": h[2]}}}


# -- sources per workload ------------------------------------------------------------


def parity_lemma_source(name: str, problem: str, n: int) -> Source:
    """Lemma pair over the base parity(x & b) with m = n (allzero's base too).

    The base rejects every branch at x = 0...0 (Delta = 2**(n-1) = h) and is
    balanced elsewhere (Delta = 0), since x & b has odd parity on exactly half
    of all b once x has a one.
    """
    h = 2 ** (n - 1)
    base = {bits(k, n): (h if k == 0 else 0) for k in range(2 ** n)}
    d0, d1 = lemma_pair_deltas(base, h)
    return Source(name, problem, n, n + 1, h, d0, d1)


def lemma_sources(out: str, seed: int, n: int = LEMMA_N,
                  table_h: tuple[int, int] = LEMMA_TABLE_H) -> list[Source]:
    """allzero builtin, a DSL base parity(x & b), and a seeded fixed-gap table
    base whose half-gap is h = M**t for table_h = (M, t)."""
    sources = [parity_lemma_source("allzero", "allzero", n)]

    dsl_path = os.path.join(out, "lemma-dsl.json")
    _write_json(dsl_path, _spec(
        "lemma-dsl", (1, n), {"affine": {"a": 1, "b": 0}},
        {"kind": "dsl", "base": "parity(x & b)"}, (2, 1, -1), "derive-via-lemma"))
    sources.append(parity_lemma_source("lemma-dsl", dsl_path, n))

    big_m, t = table_h
    h_table = big_m ** t
    table = fixed_gap_table(n, n, h_table, random.Random(f"lemma-table-{seed}"))
    _write_json(os.path.join(out, "lemma-base.json"), {"n": n, "m": n, "table": table})
    table_path = os.path.join(out, "lemma-table.json")
    _write_json(table_path, _spec(
        "lemma-table", (n, n), {"affine": {"a": 1, "b": 0}},
        {"kind": "table-file", "base": "lemma-base.json"}, (big_m, 0, t), "derive-via-lemma"))
    t0, t1 = lemma_pair_deltas(table_deltas(table, n), h_table)
    sources.append(Source("lemma-table", table_path, n, n + 1, h_table, t0, t1))
    return sources


def parity_source(name: str, flip: int, n: int) -> Source:
    """builtin parity (flip 0) or coparity (flip 1): m = n, and the live side
    rejects every branch, so its half-gap is 2**(n-1)."""
    half = 2 ** (n - 1)
    lang = {bits(k, n): (bin(k).count("1") + flip) % 2 for k in range(2 ** n)}
    d0 = {x: (0 if lang[x] else half) for x in lang}
    d1 = {x: (half if lang[x] else 0) for x in lang}
    return Source(name, name, n, n, half, d0, d1)


def direct_sources(out: str, seed: int, n: int = DIRECT_N) -> list[Source]:
    """builtin parity and coparity, and a seeded given-pair table spec."""
    sources = [parity_source("parity", 0, n), parity_source("coparity", 1, n)]
    big_m, t = DIRECT_TABLE_H
    h = big_m ** t
    t0, t1 = given_pair_tables(n, n, h, random.Random(f"direct-table-{seed}"))
    _write_json(os.path.join(out, "direct-v0.json"), {"n": n, "m": n, "table": t0})
    _write_json(os.path.join(out, "direct-v1.json"), {"n": n, "m": n, "table": t1})
    path = os.path.join(out, "direct-table.json")
    _write_json(path, _spec(
        "direct-table", (n, n), {"affine": {"a": 1, "b": 0}},
        {"kind": "table-file", "v0": "direct-v0.json", "v1": "direct-v1.json"},
        (big_m, 0, t), "given-pair"))
    sources.append(Source("direct-table", path, n, n, h, table_deltas(t0, n), table_deltas(t1, n)))
    return sources


def bent_source(out: str, name: str, n: int, m: int) -> Source:
    """Given pair: v0 = b[0] (balanced everywhere, so every input is a member),
    v1 = the inner product on m bits. A bent function accepts
    2**(m-1) - 2**(m/2-1) branches, so Delta1 = 2**(m/2-1) at every input."""
    h_exp = m // 2 - 1
    path = os.path.join(out, f"{name}.json")
    _write_json(path, _spec(
        name, (n, n), {"table": {str(n): m}},
        {"kind": "dsl", "v0": "b[0]", "v1": bent_dsl(m)}, (2, 0, h_exp), "given-pair"))
    xs = [bits(k, n) for k in range(2 ** n)]
    return Source(name, path, n, m, 2 ** h_exp, {x: 0 for x in xs}, {x: 2 ** h_exp for x in xs})


def wide_sources(out: str, seed: int) -> list[Source]:
    return [bent_source(out, "wide-bent", WIDE_N, WIDE_M)]


def check_source(out: str, workload: str) -> Source:
    """Small instance of the workload's kind of problem, for the --corrupt-h
    check that sweeps every input. Call after write_inputs."""
    if workload == "lemma-simulate":
        return parity_lemma_source("lemma-dsl", os.path.join(out, "lemma-dsl.json"), CHECK_N)
    if workload == "direct-verify":
        return parity_source("parity", 0, DIRECT_N)
    return bent_source(out, "bent-check", CHECK_N, CHECK_M)


SOURCES = {
    "lemma-simulate": lemma_sources,
    "direct-verify": direct_sources,
    "wide-simulate": wide_sources,
}


def write_inputs(workload: str, seed: int, out: str) -> list[Source]:
    os.makedirs(out, exist_ok=True)
    return SOURCES[workload](out, seed)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SOURCES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    for source in write_inputs(args.workload, args.seed, args.out):
        members = sum(source.language(x) for x in source.delta0)
        print(f"{source.name}: {source.problem} n={source.n} m={source.m} h={source.h} "
              f"members={members}/{len(source.delta0)}")


if __name__ == "__main__":
    main()
