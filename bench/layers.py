"""In-process traced runs of quasiq CLI commands: spans around each layer's calls.

The program's code is not changed. Wrappers defined here replace a function
under every name that any loaded quasiq module binds it to (the CLI imports
`run_*`, `gap_stats` and `simulate_circuit` at import time, the problems
module imports `make_dual_lwpp` and `dsl_verifier`), and are removed again
after each command, so untraced commands in the same process run the
original code.

A span records (command, id, parent, name, start, end, self time), where self
time is the span's duration minus the time its child spans cover. Spans stay
in memory and are written out as JSON lines when the run ends. DSL
evaluations are too many to keep one span each: their time is added to the
enclosing span's child time and to one total per command.

Counts that need wrappers on hot ring calls (amplitudes made, coefficient
sizes, operand samples) come from a separate counting pass, so that they do
not inflate the traced timings.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
import sys
import time
from collections import Counter

now_ns = time.perf_counter_ns

GATE_FAMILY = {
    "H": "H", "X": "X", "ORACLE": "ORACLE", "PERM": "PERM",
    "PROJ0": "PROJ", "PROJ1": "PROJ",
    "S": "shear", "SINV": "shear", "D": "shear", "DINV": "shear",
}
GATE_FAMILY.update({k: "diag" for k in ("B", "BINV", "G", "GINV", "A", "AINV", "N", "NINV")})
FAMILIES = ("H", "ORACLE", "diag", "shear", "X", "PERM", "PROJ")

# Span name -> groups whose outermost spans count toward the group's inclusive
# time. "vp" is verifierkit plus problems together.
SPANS = {
    "problems.load_problem_file": ("problems.load", "vp"),
    "problems.resolve_problem": ("problems.resolve", "vp"),
    "dsl.parse_dsl": ("dsl.parse",),
    "verifierkit.make_dual_lwpp": ("verifierkit.make_dual_lwpp", "vp"),
    "verifierkit.gap_stats": ("verifierkit.gap_stats", "vp"),
    "circuitgen.build": ("circuitgen.build",),
    "circuitgen.simulate_circuit": ("circuitgen.simulate",),
    "circuitgen.run": ("circuitgen.run",),
}
APPLY_GROUPS = ("quasistate.apply",)


class Tracer:
    """Span stack plus per-name and per-group totals for one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []
        self.command = 0
        self.next_id = 0
        self.open = Counter()
        self.inclusive_ns = Counter()
        self.self_ns = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.max_terms = 0

    def enter(self, name: str, groups: tuple[str, ...]) -> None:
        self.next_id += 1
        for group in groups:
            self.open[group] += 1
        self.stack.append([self.next_id, name, groups, now_ns(), 0])

    def exit(self) -> None:
        end = now_ns()
        span_id, name, groups, start, child_ns = self.stack.pop()
        duration = end - start
        parent = None
        if self.stack:
            self.stack[-1][4] += duration
            parent = self.stack[-1][0]
        for group in groups:
            self.open[group] -= 1
            if self.open[group] == 0:
                self.inclusive_ns[group] += duration
        self.self_ns[name] += duration - child_ns
        self.calls[name] += 1
        self.spans.append((self.command, span_id, parent, name, start, end, duration - child_ns))

    def leaf(self, name: str, duration: int) -> None:
        """Time of a call too frequent to keep as its own span."""
        if self.stack:
            self.stack[-1][4] += duration
        self.inclusive_ns[name] += duration
        self.calls[name] += 1

    def write(self, path: str) -> None:
        keys = ("command", "id", "parent", "name", "start_ns", "end_ns", "self_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
            fh.write(json.dumps({"leaf": "dsl.eval", "calls": self.calls["dsl.eval"],
                                 "total_ns": self.inclusive_ns["dsl.eval"]}) + "\n")


class Patches:
    """Replace functions under every binding in loaded quasiq modules; undo."""

    def __init__(self):
        self.undo: list[tuple[object, str, object]] = []

    def everywhere(self, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if name == "quasiq" or name.startswith("quasiq."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self.attr(module, attr, wrapper)

    def attr(self, owner, attr: str, value) -> None:
        self.undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, value in reversed(self.undo):
            setattr(owner, attr, value)
        self.undo.clear()


def _span(tracer: Tracer, fn, name: str, after=None):
    groups = SPANS[name]

    def wrapper(*args, **kwargs):
        tracer.enter(name, groups)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()
            if after is not None:
                after(*args)

    return wrapper


def install_spans(tracer: Tracer, patches: Patches) -> None:
    from quasiq import circuitgen, verifierkit
    from quasiq.harness import dsl, problems
    from quasiq.quasistate import StateVector

    def wrap(module, fn_name, span_name, after=None):
        original = getattr(module, fn_name)
        patches.everywhere(original, _span(tracer, original, span_name, after))

    wrap(problems, "load_problem_file", "problems.load_problem_file")
    wrap(problems, "resolve_problem", "problems.resolve_problem")
    wrap(dsl, "parse_dsl", "dsl.parse_dsl")
    wrap(verifierkit, "make_dual_lwpp", "verifierkit.make_dual_lwpp")

    def count_branches(verifier, x):
        tracer.counts["branch_evals"] += 2 ** verifier.m

    wrap(verifierkit, "gap_stats", "verifierkit.gap_stats", count_branches)
    for fn_name in ("build_un", "build_fig3", "build_wn", "build_lwpp_decider",
                    "build_lpwpp_decider"):
        wrap(circuitgen, fn_name, "circuitgen.build")

    def count_gates(circuit, x_bits, record=False):
        tracer.counts["gates"] += len(circuit.gates)

    wrap(circuitgen, "simulate_circuit", "circuitgen.simulate_circuit", count_gates)
    for fn_name in ("run_un", "run_zqp", "run_posteqp", "run_wn", "run_lwpp", "run_lpwpp"):
        wrap(circuitgen, fn_name, "circuitgen.run")

    original_dsl_verifier = dsl.dsl_verifier

    def dsl_verifier(*args, **kwargs):
        verifier = original_dsl_verifier(*args, **kwargs)
        evaluate = verifier.eval_fn

        def timed(x, b):
            start = now_ns()
            accept = evaluate(x, b)
            tracer.leaf("dsl.eval", now_ns() - start)
            return accept

        return dataclasses.replace(verifier, eval_fn=timed)

    patches.everywhere(original_dsl_verifier, dsl_verifier)

    original_apply = StateVector.apply

    def apply(state, gate):
        tracer.enter("quasistate.apply." + GATE_FAMILY[gate.kind], APPLY_GROUPS)
        try:
            out = original_apply(state, gate)
        finally:
            tracer.exit()
        tracer.counts["terms_in"] += len(state.terms)
        tracer.max_terms = max(tracer.max_terms, len(out.terms))
        return out

    patches.attr(StateVector, "apply", apply)


class RingCounter:
    """Counting pass: amplitudes made, coefficient sizes, operand samples."""

    SAMPLE_EVERY = 16
    SAMPLE_CAP = 4096

    def __init__(self):
        self.commands = 0
        self.amplitudes = 0
        self.max_bits = 0
        self.max_e = 0
        self.applies = 0
        self.pool: list = []

    def install(self, patches: Patches) -> None:
        from quasiq.exactnum import Amplitude
        from quasiq.quasistate import StateVector

        original_init = Amplitude.__init__
        original_apply = StateVector.apply

        def init(amp, c0, c1, e=0):
            self.amplitudes += 1
            original_init(amp, c0, c1, e)

        def apply(state, gate):
            out = original_apply(state, gate)
            self.applies += 1
            for amp in out.terms.values():
                self.max_bits = max(self.max_bits, amp.c0.bit_length(), amp.c1.bit_length())
                self.max_e = max(self.max_e, amp.e)
            if self.applies % self.SAMPLE_EVERY == 0 and len(self.pool) < self.SAMPLE_CAP:
                self.pool.extend(list(out.terms.values())[:64])
            return out

        patches.attr(Amplitude, "__init__", init)
        patches.attr(StateVector, "apply", apply)

    def ring_rates(self, seed: int, ops: int = 100_000) -> tuple[float, float]:
        """(additions/s, multiplications/s) on pairs of sampled amplitudes."""
        if not self.pool:
            return 0.0, 0.0
        rng = random.Random(seed)
        sample = [rng.choice(self.pool) for _ in range(512)]
        pairs = list(zip(sample, reversed(sample)))
        reps = max(1, ops // len(pairs))
        start = now_ns()
        for _ in range(reps):
            for a, b in pairs:
                a + b
        middle = now_ns()
        for _ in range(reps):
            for a, b in pairs:
                a * b
        end = now_ns()
        done = reps * len(pairs) * 1e9
        return done / (middle - start), done / (end - middle)


def run_command(argv: list[str]) -> tuple[int, str, str]:
    """quasiq's CLI entry point in this process: (exit code, stdout, stderr)."""
    from quasiq.harness import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def layer_metrics(tracer: Tracer, counter: RingCounter, commands: int, verdicts: int,
                  traced_s: float, untraced_s: float, import_s: float,
                  ring_rates: tuple[float, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each per command unless it is a rate, ratio or maximum."""
    per = max(commands, 1)

    def seconds(group: str) -> float:
        return tracer.inclusive_ns[group] / 1e9

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    gap_calls = tracer.calls["verifierkit.gap_stats"]
    branches = tracer.counts["branch_evals"]
    terms = tracer.counts["terms_in"]
    metrics = {
        "cli.import_s": (import_s, "s"),
        "problems.load_s": (seconds("problems.load") / per, "s"),
        "problems.resolve_s": (seconds("problems.resolve") / per, "s"),
        "dsl.parse_s": (seconds("dsl.parse") / per, "s"),
        "dsl.evals": (tracer.calls["dsl.eval"] / per, "count"),
        "dsl.eval_s": (seconds("dsl.eval") / per, "s"),
        "verifierkit.make_dual_lwpp_s": (seconds("verifierkit.make_dual_lwpp") / per, "s"),
        "verifierkit.branch_evals": (branches / per, "count"),
        "verifierkit.branch_evals_per_s": (ratio(branches, seconds("verifierkit.gap_stats")), "1/s"),
        "verifierkit.gap_stats_calls": (gap_calls / per, "count"),
        "verifierkit.gap_stats_s": (seconds("verifierkit.gap_stats") / per, "s"),
        "verifierkit.gap_stats_per_verdict": (ratio(gap_calls, verdicts), "ratio"),
        "circuitgen.build_s": (seconds("circuitgen.build") / per, "s"),
        "circuitgen.gates": (tracer.counts["gates"] / per, "count"),
        "circuitgen.simulate_s": (seconds("circuitgen.simulate") / per, "s"),
        "circuitgen.run_self_s": (tracer.self_ns["circuitgen.run"] / 1e9 / per, "s"),
        "quasistate.apply_calls": (sum(tracer.calls[f"quasistate.apply.{f}"] for f in FAMILIES) / per, "count"),
        "quasistate.apply_s": (seconds("quasistate.apply") / per, "s"),
        "quasistate.terms_in": (terms / per, "count"),
        "quasistate.terms_per_s": (ratio(terms, seconds("quasistate.apply")), "1/s"),
    }
    for family in FAMILIES:
        metrics[f"quasistate.apply_s.{family}"] = (
            tracer.self_ns[f"quasistate.apply.{family}"] / 1e9 / per, "s")
    metrics.update({
        "quasistate.max_terms": (tracer.max_terms, "count"),
        "exactnum.amplitudes_made": (ratio(counter.amplitudes, counter.commands), "count"),
        "exactnum.add_per_s": (ring_rates[0], "1/s"),
        "exactnum.mul_per_s": (ring_rates[1], "1/s"),
        "exactnum.max_coeff_bits": (counter.max_bits, "bits"),
        "exactnum.max_e": (counter.max_e, "count"),
        "trace.cmd_s": (untraced_s / per, "s"),
        "trace.overhead_s": ((traced_s - untraced_s) / per, "s"),
        "share.verifierkit_problems": (ratio(seconds("vp"), traced_s), "ratio"),
        "share.quasistate_apply": (ratio(seconds("quasistate.apply"), traced_s), "ratio"),
    })
    return metrics
