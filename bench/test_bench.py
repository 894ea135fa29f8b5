"""Tests of the benchmark itself: expected values and output checks.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

The generator's expected values are compared with plain brute-force counts
at small n, and every output check must accept quasiq's real output and
reject a mutated copy of it.
"""
from __future__ import annotations

import copy
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
from checks import Amp  # noqa: E402


def key_bits(key: int, width: int) -> tuple[int, ...]:
    return tuple((key >> (width - 1 - i)) & 1 for i in range(width))


def half_gap(accept, m: int) -> int:
    """Delta = R - 2**(m-1), counting rejections over all 2**m branches."""
    rejected = sum(1 for key in range(2 ** m) if not accept(key_bits(key, m)))
    return rejected - 2 ** (m - 1)


def lemma_pair(base, m: int, h: int):
    """The half-gap lemma's pair as verifiers over m + 1 branch bits."""
    def v0(b):
        rest = int("".join(map(str, b[1:])), 2)
        return rest < 2 ** (m - 1) - h if b[0] == 0 else not base(b[1:])

    def v1(b):
        rest = int("".join(map(str, b[1:])), 2)
        return rest < 2 ** (m - 1) if b[0] == 0 else base(b[1:])

    return v0, v1


def load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def spec_h(path: str, n: int) -> int:
    h = load(path)["h"]
    return h["M"] ** (h["t"]["a"] * n + h["t"]["b"])


def table_accept(table: dict, x: str):
    accepted = set(table[x])
    return lambda b: "".join(map(str, b)) in accepted


def assert_matches(source, base_of, m_base: int):
    for x in source.delta0:
        v0, v1 = lemma_pair(base_of(x), m_base, source.h)
        assert (source.delta0[x], source.delta1[x]) == (half_gap(v0, m_base + 1), half_gap(v1, m_base + 1))


@pytest.mark.parametrize("seed", [0, 7])
def test_lemma_expected_values_match_brute_force(tmp_path, seed):
    n = 3
    allzero, dsl, table = inputs.lemma_sources(str(tmp_path), seed, n=n, table_h=(2, 2))

    def parity_and(x):
        xs = tuple(int(c) for c in x)
        return lambda b: sum(xi & bi for xi, bi in zip(xs, b)) % 2

    for source in (allzero, dsl):
        assert source.h == 2 ** (n - 1)
        assert_matches(source, parity_and, n)
        assert [x for x in source.delta0 if source.language(x)] == ["000"]
    assert spec_h(dsl.problem, n) == dsl.h

    base = load(os.path.join(str(tmp_path), "lemma-base.json"))
    assert (base["n"], base["m"]) == (n, n)
    assert_matches(table, lambda x: table_accept(base["table"], x), n)
    assert spec_h(table.problem, n) == table.h
    assert {half_gap(table_accept(base["table"], x), n) for x in table.delta0} <= {0, table.h}


@pytest.mark.parametrize("seed", [0, 7])
def test_direct_expected_values_match_brute_force(tmp_path, seed):
    n = 3
    parity, coparity, table = inputs.direct_sources(str(tmp_path), seed, n=n)
    for source, flip in ((parity, 0), (coparity, 1)):
        for x in source.delta0:
            member = (x.count("1") + flip) % 2
            balanced = lambda b: int("".join(map(str, b)), 2) < 2 ** (n - 1)  # noqa: E731
            v0 = balanced if member else (lambda b: 0)
            v1 = (lambda b: 0) if member else balanced
            assert source.language(x) == member
            assert (source.delta0[x], source.delta1[x]) == (half_gap(v0, n), half_gap(v1, n))
    t0 = load(os.path.join(str(tmp_path), "direct-v0.json"))["table"]
    t1 = load(os.path.join(str(tmp_path), "direct-v1.json"))["table"]
    for x in table.delta0:
        d0, d1 = half_gap(table_accept(t0, x), n), half_gap(table_accept(t1, x), n)
        assert (table.delta0[x], table.delta1[x]) == (d0, d1)
        assert (d0 == 0) != (d1 == 0) and table.live_delta(x) == table.h
    assert spec_h(table.problem, n) == table.h


@pytest.mark.parametrize("m", [4, 12])
def test_bent_expected_values_match_brute_force(tmp_path, m):
    source = inputs.bent_source(str(tmp_path), "bent", 2, m)
    spec = load(source.problem)
    # The DSL's & and ^ bind like Python's, so the spec text evaluates as is.
    v0 = lambda b: eval(spec["verifier"]["v0"], {"b": b})  # noqa: E731
    v1 = lambda b: eval(spec["verifier"]["v1"], {"b": b})  # noqa: E731
    assert spec["m"]["table"] == {"2": m}
    assert spec_h(source.problem, 2) == source.h == 2 ** (m // 2 - 1)
    for x in source.delta0:
        assert (source.delta0[x], source.delta1[x]) == (half_gap(v0, m), half_gap(v1, m))


def test_amp_orders_exactly():
    root2 = Amp(0, 1, 0)
    assert root2.compare(Amp(1, 0, 0)) == 1
    assert root2.compare(Amp(3, 0, 1)) == -1          # sqrt2 < 3/2
    assert Amp(3, -2, 0).compare(Amp(0, 0, 0)) == 1   # 3 > 2*sqrt2
    assert Amp(1, 0, 1) == Amp(2, 0, 2) and not Amp(2, 0, 2).canonical()
    assert Amp(0, 0, 0).canonical() and not Amp(0, 0, 3).canonical()


# -- checks against quasiq's real output ---------------------------------------------


def cli(argv):
    code, out, _ = layers.run_command(argv + ["--json"])
    return code, json.loads(out)


@pytest.fixture(scope="module")
def lemma_small(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("lemma"))
    inputs.lemma_sources(out, 0, n=3, table_h=(2, 1))
    return inputs.parity_lemma_source("lemma-dsl", os.path.join(out, "lemma-dsl.json"), 3)


@pytest.mark.parametrize("construction", inputs.CONSTRUCTIONS)
@pytest.mark.parametrize("x", ["000", "101"])
def test_simulate_check_accepts_real_and_rejects_mutated_output(lemma_small, construction, x):
    argv = ["simulate", "--problem", lemma_small.problem, "--input", x,
            "--construction", construction, "--dump-state"]
    code, out = cli(argv)
    assert code == 0
    assert checks.check_simulate(out, lemma_small, construction, x) == []

    flipped = copy.deepcopy(out)
    flipped["answer"] = 1 - out["answer"]
    assert checks.check_simulate(flipped, lemma_small, construction, x)

    if construction in ("un", "fig3-zqp", "wn"):
        bumped = copy.deepcopy(out)
        bumped["success_mass"]["c0"] = str(int(out["success_mass"]["c0"]) + 2)
        assert checks.check_simulate(bumped, lemma_small, construction, x)
    if construction == "fig3-zqp":
        heavy = copy.deepcopy(out)
        heavy["failure_mass"] = {"c0": "1", "c1": "0", "e": 0}
        assert checks.check_simulate(heavy, lemma_small, construction, x)
    if construction in checks.DECIDERS:
        changed = copy.deepcopy(out)
        changed["final_state"][0]["amp"]["e"] += 1
        assert checks.check_simulate(changed, lemma_small, construction, x)
        uncanonical = copy.deepcopy(out)
        amp = uncanonical["final_state"][0]["amp"]
        amp.update(c0=str(2 * int(amp["c0"])), e=amp["e"] + 1)
        assert checks.check_simulate(uncanonical, lemma_small, construction, x)
        extra = copy.deepcopy(out)
        extra["final_state"].append(extra["final_state"][0])
        assert checks.check_simulate(extra, lemma_small, construction, x)


def test_verify_check_rejects_a_missing_or_failing_row():
    source = inputs.parity_source("parity", 0, 3)
    code, out = cli(["verify", "--problem", "parity", "--n", "3"])
    assert checks.check_verify(out, code, source) == []
    missing = copy.deepcopy(out)
    del missing["results"][5]
    assert checks.check_verify(missing, code, source)
    duplicated = copy.deepcopy(out)
    duplicated["results"][5] = duplicated["results"][4]
    assert checks.check_verify(duplicated, code, source)
    failing = copy.deepcopy(out)
    failing["results"][0]["ok"] = False
    assert checks.check_verify(failing, code, source)
    assert checks.check_verify(out, 1, source)


def test_corrupt_h_check_rejects_exit_0_or_an_unflagged_input():
    source = inputs.parity_source("parity", 0, 3)
    code, out = cli(["verify", "--problem", "parity", "--n", "3",
                     "--construction", "lwpp", "--corrupt-h"])
    assert code == 1
    assert checks.check_corrupt_h(out, code, source) == []
    assert checks.check_corrupt_h(out, 0, source)
    unflagged = copy.deepcopy(out)
    unflagged["results"][2]["ok"] = True
    assert checks.check_corrupt_h(unflagged, code, source)


def test_duals_check_rejects_a_changed_count(lemma_small):
    code, out = cli(["duals", "--problem", lemma_small.problem, "--n", "3"])
    assert checks.check_duals(out, code, lemma_small) == []
    for field in ("Delta0", "Delta1", "language_bit"):
        changed = copy.deepcopy(out)
        changed["rows"][3][field] += 1
        assert checks.check_duals(changed, code, lemma_small)


def test_gap_check_on_the_setup_command():
    source = inputs.parity_source("parity", 0, 1)
    code, out = cli(["gap", "--problem", "parity", "--input", "0"])
    assert checks.check_gap(out, code, source, "0") == []
    out["reports"][0]["Delta"] = 0
    assert checks.check_gap(out, code, source, "0")


def test_tracer_self_time_excludes_children():
    tracer = layers.Tracer()
    tracer.enter("circuitgen.run", layers.SPANS["circuitgen.run"])
    tracer.enter("verifierkit.gap_stats", layers.SPANS["verifierkit.gap_stats"])
    tracer.leaf("dsl.eval", 1000)
    tracer.exit()
    tracer.exit()
    (_, inner_id, inner_parent, _, s1, e1, self1), (_, outer_id, _, _, s0, e0, self0) = tracer.spans
    assert inner_parent == outer_id
    assert self1 == (e1 - s1) - 1000
    assert self0 == (e0 - s0) - (e1 - s1)
    assert tracer.inclusive_ns["vp"] == e1 - s1


def test_layer_metrics_match_the_declared_per_layer_metrics():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]}
    metrics = layers.layer_metrics(layers.Tracer(), layers.RingCounter(), 1, 1, 1.0, 1.0, 0.1, (1.0, 1.0))
    assert {(name, unit) for name, (_, unit) in metrics.items()} == declared


def test_spans_replace_every_binding_and_restore():
    from quasiq import circuitgen, verifierkit
    from quasiq.harness import cli, problems

    bindings = [(cli, "run_un"), (cli, "gap_stats"), (cli, "simulate_circuit"),
                (circuitgen, "simulate_circuit"), (verifierkit, "gap_stats"),
                (problems, "make_dual_lwpp"), (problems, "dsl_verifier"),
                (cli, "resolve_problem")]
    originals = [getattr(owner, name) for owner, name in bindings]
    tracer, patches = layers.Tracer(), layers.Patches()
    layers.install_spans(tracer, patches)
    try:
        for (owner, name), original in zip(bindings, originals):
            assert getattr(owner, name) is not original, f"{owner.__name__}.{name}"
        code, out, _ = layers.run_command(["simulate", "--problem", "parity", "--input", "101",
                                           "--construction", "un", "--json"])
    finally:
        patches.restore()
    assert code == 0 and json.loads(out)["answer"] == 0
    assert [getattr(owner, name) for owner, name in bindings] == originals
    assert tracer.calls["circuitgen.run"] == 1 and tracer.calls["verifierkit.gap_stats"] == 2
    pair = verifierkit.builtin_problems()["parity"].pair(3)
    assert tracer.counts["gates"] == len(circuitgen.build_un(pair, 3).gates)
