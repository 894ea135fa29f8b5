"""End-to-end benchmark of the quasiq CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. With --trace 0, real `quasiq`
commands run in fresh processes, one at a time from this process (a closed
loop with one client), for whole rounds of the workload's commands until S
seconds have passed. Every output is checked against values computed by
bench/inputs.py, never by quasiq. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics,
whose times are scaled to the machine's reference speed (see `Speed`).

With --trace 1 the same commands run in this process instead, alternately
untraced and traced (see bench/layers.py), and the metrics are the per-layer
ones. Spans are written to bench/traces/<workload>-seed<N>.jsonl.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import checks
import inputs
import layers
from inputs import CONSTRUCTIONS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("lemma-simulate", "direct-verify", "wide-simulate")

# What the installed `quasiq` console script runs.
ENTRY = "import sys; from quasiq.harness.cli import main; sys.exit(main())"
SETUP_ARGV = ["gap", "--problem", "parity", "--input", "0", "--json"]
CHECK_SETUP = functools.partial(checks.check_gap, source=inputs.parity_source("parity", 0, 1), x="0")
SETUP_AT_START = 6  # plus one more before every round

# Other tenants of the host slow this machine by up to 2x, in phases from
# under a second to minutes. bench/reference.py, a fixed task shaped like
# quasiq's hot loop, is timed after every timed process of a run, and the
# run's times are scaled by REF_TASK_S over its mean time in the run (README,
# "Why scaled times"). REF_TASK_S is a round figure a little under the
# task's median time on the machine the README describes.
REFERENCE = os.path.join(BENCH, "reference.py")
REF_TASK_S = 0.3


class Speed:
    """Times of the reference task, one after every timed process of a run, so
    that they are spread over the run as its commands are and never fall
    inside a timed interval."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        subprocess.run([sys.executable, REFERENCE], check=True)
        self.samples.append(time.perf_counter() - start)

    def factor(self) -> float:
        """Turns a wall time of this run into one at the reference speed."""
        return REF_TASK_S / statistics.mean(self.samples)


class Op:
    """One quasiq command of a workload and the check its output must pass."""

    def __init__(self, argv: list[str], source: inputs.Source, construction=None, x=None):
        self.argv = argv
        self.source = source
        self.construction = construction
        self.x = x

    def check(self, out: dict, code: int) -> tuple[list[str], int]:
        """(problems, verdicts): a simulate outcome is one verdict, a verify row one."""
        if self.argv[0] == "verify":
            return checks.check_verify(out, code, self.source), len(out.get("results") or ())
        problems = [] if code == 0 else [f"exit code {code}, expected 0"]
        return problems + checks.check_simulate(out, self.source, self.construction, self.x), 1


def simulate_op(source: inputs.Source, construction: str, x: str) -> Op:
    argv = ["simulate", "--problem", source.problem, "--input", x,
            "--construction", construction, "--json"]
    if construction in checks.DECIDERS:
        argv.append("--dump-state")
    return Op(argv, source, construction, x)


def round_ops(workload: str, sources: list[inputs.Source], seed: int, index: int) -> list[Op]:
    """The commands of round `index`; the same seed gives the same rounds.

    lemma-simulate pairs the six constructions with the three sources, two per
    source, and shifts the pairing every round; each input is a member or a
    non-member with equal chance, so the lone member 0...0 of allzero and
    parity(x & b) runs too.
    """
    rng = random.Random(f"{workload}-{seed}-{index}")
    if workload == "direct-verify":
        return [Op(["verify", "--problem", s.problem, "--n", str(s.n), "--json"], s)
                for s in sources]
    ops = []
    for i, construction in enumerate(CONSTRUCTIONS):
        source = sources[(i + index) % len(sources)]
        pool = source.inputs(rng.getrandbits(1)) or sorted(source.delta0)
        ops.append(simulate_op(source, construction, rng.choice(pool)))
    return ops


def untimed_ops(workload: str, sources: list[inputs.Source], work: str):
    """Once per run: duals rows against the benchmark's counts, and the
    --corrupt-h fault injection flagging every input.

    A duals sweep at n = 8 takes seconds, so the two lemma sources whose
    counts have a closed form valid at every n are swept at n = CHECK_N; the
    seeded table, which exists only at n = 8, is swept in full.
    """
    for source in sources:
        if source.name in ("allzero", "lemma-dsl"):
            source = inputs.parity_lemma_source(source.name, source.problem, inputs.CHECK_N)
        argv = ["duals", "--problem", source.problem, "--n", str(source.n), "--json"]
        yield argv, functools.partial(checks.check_duals, source=source)
    small = inputs.check_source(work, workload)
    argv = ["verify", "--problem", small.problem, "--n", str(small.n),
            "--construction", "lwpp", "--corrupt-h", "--json"]
    yield argv, functools.partial(checks.check_corrupt_h, source=small)


class Spawner:
    """Runs quasiq in a fresh process and reports its wall time and max RSS."""

    def __init__(self, work: str):
        self.out_path = os.path.join(work, "stdout.json")
        self.err_path = os.path.join(work, "stderr.txt")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

    def __call__(self, argv: list[str]) -> tuple[int, str, str, float, int]:
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", ENTRY] + argv, cwd=ROOT,
                                    stdout=out, stderr=err, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(self.out_path, encoding="utf-8") as fh:
            stdout = fh.read()
        with open(self.err_path, encoding="utf-8") as fh:
            stderr = fh.read()
        return proc.returncode, stdout, stderr, elapsed, usage.ru_maxrss


def _json_object(text: str) -> dict | None:
    try:
        out = json.loads(text)
    except ValueError:
        return None
    return out if isinstance(out, dict) else None


class Tally:
    """Attempted and failed operations, and every check problem seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def operation(self, argv, code, stdout, stderr, check) -> int | None:
        """Parse and check one output and return its verdict count, or None
        when the command failed: it exited with a code no check expects, or
        printed no JSON."""
        self.attempted += 1
        out = _json_object(stdout)
        if code not in (0, 1) or out is None:
            self.failed += 1
            self.note(argv, [f"failed with exit {code}: {stderr.strip()[-300:]}"])
            return None
        problems, verdicts = check(out, code)
        self.note(argv, problems)
        return verdicts

    def untimed(self, argv, code, stdout, check) -> None:
        self.note(argv, check(_json_object(stdout) or {}, code))

    def note(self, argv, problems) -> None:
        self.problems.extend(f"{' '.join(argv)}: {p}" for p in problems)

    def result(self, metrics: dict) -> dict:
        for problem in self.problems[:20]:
            print(f"check: {problem}", file=sys.stderr)
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }


class Rounds:
    """Round indices for a run of about `seconds`: whole rounds only, and a
    new round starts while the run would end nearer to `seconds` with it than
    without it (so a run overshoots by at most half a round)."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __iter__(self):
        start = time.perf_counter()
        index = 0
        while True:
            yield index
            index += 1
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / index / 2 >= self.seconds:
                return


def timed_run(workload: str, seed: int, seconds: float, sources, work: str) -> dict:
    spawn = Spawner(work)
    tally = Tally()

    def setup_sample() -> float:
        code, stdout, stderr, elapsed, _ = spawn(SETUP_ARGV)
        tally.untimed(SETUP_ARGV, code, stdout, CHECK_SETUP)
        return elapsed

    setup_sample()  # warm-up: the first start compiles bytecode
    for argv, check in untimed_ops(workload, sources, work):
        code, stdout, _, _, _ = spawn(argv)
        tally.untimed(argv, code, stdout, check)

    speed = Speed()
    setups, times, verdicts, peak_kb = [], [], 0, 0

    def cold_start() -> None:
        setups.append(setup_sample())
        speed.sample()

    for _ in range(SETUP_AT_START):
        cold_start()
    for index in Rounds(seconds):
        cold_start()
        for op in round_ops(workload, sources, seed, index):
            code, stdout, stderr, elapsed, rss_kb = spawn(op.argv)
            speed.sample()
            count = tally.operation(op.argv, code, stdout, stderr, op.check)
            if count is not None:
                times.append(elapsed)
                verdicts += count
            peak_kb = max(peak_kb, rss_kb)

    print("wall times (s): " + json.dumps(
        {"setup": setups, "commands": times, "reference_task": speed.samples}), file=sys.stderr)
    scale = speed.factor()
    metrics = {
        "setup_s": (statistics.median(setups) * scale, "s"),
        "cmd_mean_s": (statistics.mean(times) * scale if times else 0.0, "s"),
        "verdicts_per_s": (verdicts / (sum(times) * scale) if times else 0.0, "1/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return tally.result(metrics)


def import_time(samples: int = 5) -> float:
    """Median time to import quasiq's CLI module in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import quasiq.harness.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    values = []
    for _ in range(samples):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True)
        values.append(float(done.stdout))
    return statistics.median(values)


def traced_run(workload: str, seed: int, seconds: float, sources, work: str) -> dict:
    sys.path.insert(0, SRC)
    spawn = Spawner(work)
    tally = Tally()
    for argv, check in untimed_ops(workload, sources, work):
        code, stdout, _, _, _ = spawn(argv)
        tally.untimed(argv, code, stdout, check)

    tracer = layers.Tracer()
    patches = layers.Patches()

    def in_process(op: Op, traced: bool) -> tuple[float, int]:
        if traced:
            tracer.command += 1
            layers.install_spans(tracer, patches)
            tracer.enter("cli.main", ())
        start = time.perf_counter()
        try:
            code, stdout, stderr = layers.run_command(op.argv)
        except Exception:  # a crash counts as a failed operation; keep going
            code, stdout, stderr = -1, "", traceback.format_exc()
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                tracer.exit()
                patches.restore()
        return elapsed, tally.operation(op.argv, code, stdout, stderr, op.check) or 0

    traced_s = untraced_s = 0.0
    commands = verdicts = 0
    for index in Rounds(seconds):
        for op in round_ops(workload, sources, seed, index):
            untraced_s += in_process(op, traced=False)[0]
            elapsed, count = in_process(op, traced=True)
            traced_s += elapsed
            verdicts += count
            commands += 1

    counter = layers.RingCounter()
    counter.install(patches)
    try:
        for op in round_ops(workload, sources, seed, 0):
            layers.run_command(op.argv)
            counter.commands += 1
    finally:
        patches.restore()

    traces = os.path.join(BENCH, "traces")
    os.makedirs(traces, exist_ok=True)
    tracer.write(os.path.join(traces, f"{workload}-seed{seed}.jsonl"))
    metrics = layers.layer_metrics(tracer, counter, commands, verdicts, traced_s, untraced_s,
                                   import_time(), counter.ring_rates(seed))
    return tally.result(metrics)


def main() -> int:
    parser = argparse.ArgumentParser(description="quasiq CLI benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "quasiq", "harness", "cli.py")):
        print(f"error: no quasiq sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    work = os.path.join(BENCH, "work", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        sources = inputs.write_inputs(args.workload, args.seed, work)
        run = traced_run if args.trace else timed_run
        result = run(args.workload, args.seed, args.seconds, sources, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
