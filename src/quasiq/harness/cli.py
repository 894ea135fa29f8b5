"""Command-line harness: gap reports, single simulations, verification sweeps.

Subcommands:
    gap       exact branch counts and gap quantities for one input
    simulate  run one construction on one input, emitting the outcome as JSON
    verify    sweep every input of a given size, cross-checking the simulation
              against the branch-counting oracle; nonzero exit on mismatch
    duals     validate the dual-pair invariants (and the half-gap witness)

A pair derived through the half-gap lemma has the lemma checked at every
input by verify and duals, and only at the input run by gap and simulate.

Machine output goes to stdout as JSON; diagnostics go to stderr.
Exit codes: 0 success, 1 verification mismatch (including a circuit that
fails its own exact self-check), 2 usage or spec error, 3 internal error (a
bug: one stderr line, `internal error: <type>: <message>`, no traceback), 141
stdout closed before the output was written (as a shell reports a filter
killed by SIGPIPE).
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from quasiq.circuitgen import (
    RUNS,
    AncillaRestorationError,
    PostselectionError,
    RegisterMismatchError,
    ResidualTermError,
    SimulationInvariantError,
    decider_term,
    run_lpwpp,
    run_lwpp,
    run_posteqp,
    run_un,
    run_wn,
    run_zqp,
    simulate_circuit,  # noqa: F401 -- unused; bench/layers.py traces it under this name
    simulate_inputs,
)
from quasiq.harness.problems import ResolvedProblem, SpecError, load_problem_file, resolve_problem
from quasiq.quasistate import bits_label, bits_of, record
from quasiq.verifierkit import DualityError, HalfGapPromiseError, builtin_problems, gap_stats

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141

DESK_SCALE_LIMIT = 20
# verify runs its inputs in chunks of at most this many lanes in un's state: at
# parity n = 9, chunks of 16 inputs keep the peak RSS of a run per input, where 32
# add 0.6 MB and all 512 add 30 MB (BENCH_batched_verify.json); n = m = 5 is one chunk.
BATCH_LANES = 2**15

# A circuit whose exact output breaks its own invariant: a mismatch, not a
# usage error.
_SELF_CHECK_ERRORS = (ResidualTermError, AncillaRestorationError, SimulationInvariantError)
# Every other error raised on a bad problem or input (spec, parse, duality,
# half-gap promise, postselection, register) is a ValueError.
_DOMAIN_ERRORS = (ValueError, SimulationInvariantError)
# What a verify row raises on its pair and input: its mismatch. Others end the command.
_ROW_ERRORS = (DualityError, HalfGapPromiseError, PostselectionError, RegisterMismatchError,
               *_SELF_CHECK_ERRORS)


def _diag(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(obj, compact: bool) -> None:
    if compact:
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    else:
        print(json.dumps(obj, sort_keys=True, indent=2))


def _parse_input(text: str, n: int | None) -> tuple[int, ...]:
    if not text or any(ch not in "01" for ch in text):
        raise SpecError(f"--input must be a nonempty bit string, got {text!r}")
    if n is not None and len(text) != n:
        raise SpecError(f"--input has {len(text)} bits but n = {n}")
    return tuple(int(ch) for ch in text)


def _load(args, inputs=None) -> ResolvedProblem:
    """Resolve --problem at --n, within the desk-scale limit unless
    --force-large; a lemma-derived pair is checked at `inputs` only when
    given, at every input otherwise."""
    ref = args.problem
    n = args.n
    if n is None:
        raise SpecError("--n is required (or derivable from --input)")
    if n < 1:
        raise SpecError(f"--n must be at least 1, got {n}")
    spec_or_name = ref if ref in builtin_problems() else load_problem_file(ref)
    return resolve_problem(spec_or_name, n, seed=args.seed, inputs=inputs,
                           max_size=None if args.force_large else DESK_SCALE_LIMIT)


def _h_value(resolved: ResolvedProblem, corrupt: bool) -> int:
    value = resolved.h.value(resolved.n)
    return value + 1 if corrupt else value


# -- the construction table ------------------------------------------------------


_WITNESS_FORMS = {"value": "a half-gap witness h(n)",
                  "power": "a half-gap witness in power form M**t"}


class Construction(record("Construction", "name runner witness", (None,))):
    """One construction as the CLI runs it.

    run(resolved, x, record, corrupt_h) gives the RunOutcome of one input from
    runner(pair, *witness_args, x, record), its run_*, which checks the outcome
    against the oracle and raises on a mismatch. verify runs circuitgen.RUNS[name] instead:
    its circuit once a chunk of inputs, and its check once a row. witness is the
    half-gap witness read: None, "value" for h(n), or "power" for the form M**t.
    """

    __slots__ = ()

    def available(self, resolved: ResolvedProblem) -> bool:
        if self.witness is None:
            return True
        return resolved.h is not None and (self.witness == "value" or resolved.h.kind == "power")

    def require(self, resolved: ResolvedProblem) -> Construction:
        """This construction, when it can run on the resolved problem."""
        resolved.require_pair()
        if not self.available(resolved):
            raise SpecError(f"construction {self.name!r} needs {_WITNESS_FORMS[self.witness]}, "
                            f"which problem {resolved.name!r} does not carry")
        return self

    def witness_args(self, resolved: ResolvedProblem, corrupt: bool) -> tuple:
        """What its run_*, circuit and check take after the pair: nothing, h(n), or (M, t)."""
        if self.witness is None:
            return ()
        return (_h_value(resolved, corrupt),) if self.witness == "value" else (
            resolved.h.base, resolved.h.exponent(resolved.n))

    def run(self, resolved: ResolvedProblem, x, record, corrupt: bool):
        return self.runner(resolved.pair, *self.witness_args(resolved, corrupt), x, record)


# Each record calls its run_* through this module's binding, so a wrapper
# installed on the module (a tracer, a test double) sees every run.
CONSTRUCTION_TABLE = {c.name: c for c in (
    Construction("un", lambda *args: run_un(*args)),
    Construction("fig3-zqp", lambda *args: run_zqp(*args)),
    Construction("fig3-post", lambda *args: run_posteqp(*args)),
    Construction("wn", lambda *args: run_wn(*args)),
    Construction("lwpp", lambda *args: run_lwpp(*args), "value"),
    Construction("lpwpp", lambda *args: run_lpwpp(*args), "power"),
)}
CONSTRUCTIONS = tuple(CONSTRUCTION_TABLE)
# The constructions --corrupt-h reaches: simulate bumps the value h(n) that
# it runs on; verify checks every row that reads a witness against the bumped one.
CORRUPTIBLE = {
    "simulate": tuple(c.name for c in CONSTRUCTION_TABLE.values() if c.witness == "value"),
    "verify": tuple(c.name for c in CONSTRUCTION_TABLE.values() if c.witness),
}


def _require_corrupt_h_reader(args, resolved: ResolvedProblem, constructions) -> None:
    """--corrupt-h is a usage error unless some construction to be run reads it."""
    allowed = CORRUPTIBLE[args.command]
    if args.corrupt_h and not any(c.name in allowed for c in constructions):
        raise SpecError(
            f"--corrupt-h bumps the half-gap witness, which {args.command} reads only with "
            f"--construction {' or '.join(allowed)} on a problem that carries one; "
            f"not with {args.construction!r} on problem {resolved.name!r}")


def _simulate_one(resolved: ResolvedProblem, construction: str, x, record, corrupt_h=False):
    return CONSTRUCTION_TABLE[construction].require(resolved).run(resolved, x, record, corrupt_h)


# -- subcommands -----------------------------------------------------------------


def cmd_gap(args) -> int:
    x = _parse_input(args.input, args.n)
    resolved = _load(args, [x])
    reports = [gap_stats(v, x).to_json() for v in resolved.verifiers]
    _emit(
        {
            "problem": resolved.name,
            "n": resolved.n,
            "m": resolved.m,
            "input": args.input,
            "seed": args.seed,
            "reports": reports,
        },
        args.json,
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    x = _parse_input(args.input, args.n)
    resolved = _load(args, [x])
    _require_corrupt_h_reader(args, resolved, [CONSTRUCTION_TABLE[args.construction]])
    outcome = _simulate_one(resolved, args.construction, x, args.checkpoints,
                            corrupt_h=args.corrupt_h)
    obj = outcome.to_json(final_state=args.dump_state, checkpoints=args.checkpoints)
    obj["problem"] = resolved.name
    obj["seed"] = args.seed
    _emit(obj, args.json)
    return EXIT_OK


def _chunk_checks(resolved: ResolvedProblem, construction: Construction, chunk: list, corrupt_h: bool):
    """The construction's check of each row, x -> RunOutcome, on one kernel run of the chunk;
    or the row error that building or running its circuit raised, which is then every row's."""
    build, reads, check = RUNS[construction.name]
    try:
        witness = construction.witness_args(resolved, corrupt_h)
        circuit = build(resolved.pair, *witness)
        runs = dict(zip(chunk, simulate_inputs(circuit, chunk, reads)))
    except _ROW_ERRORS as exc:
        return exc
    return lambda x: check(resolved.pair, circuit, x, *runs[x], *witness)


def _verify_one(resolved: ResolvedProblem, name: str, x, lx: int, corrupt_h: bool, checks) -> str | None:
    """None when the row passes, else a mismatch description. The check tests
    the run against the oracle; a row adds that its answer is L(x) (only a
    fig3-zqp run that certifies no answer returns without one) and, under
    --corrupt-h, compares an lpwpp decider with the bumped witness."""
    if isinstance(checks, Exception):
        raise checks
    outcome = checks(x)
    if outcome.answer != lx:
        return f"zero-error answer {outcome.answer} != oracle {lx}"
    if (corrupt_h and name == "lpwpp"
            and not outcome.final_state.holds(decider_term(resolved.pair, x, _h_value(resolved, True)))):
        return "fixed-gate-set decider differs from the length-dependent one"
    return None


def cmd_verify(args) -> int:
    resolved = _load(args)
    resolved.require_pair()
    if args.construction == "all":
        constructions = [c for c in CONSTRUCTION_TABLE.values() if c.available(resolved)]
        skipped = [c.name for c in CONSTRUCTION_TABLE.values() if not c.available(resolved)]
        if skipped:
            _diag(f"skipping {', '.join(skipped)}: no usable half-gap witness")
    else:
        constructions = [CONSTRUCTION_TABLE[args.construction].require(resolved)]
    _require_corrupt_h_reader(args, resolved, constructions)
    inputs = [bits_of(xkey, resolved.n) for xkey in range(2**resolved.n)]
    step = max(1, BATCH_LANES >> resolved.m + 2)  # un holds 2**(m + 2) lanes an input
    rows = {construction.name: [] for construction in constructions}
    for start in range(0, len(inputs), step):
        chunk = inputs[start:start + step]
        for construction in constructions:  # one kernel run a chunk each, a child forked from its parent's
            checks = None  # made once the first row has its L(x)
            for x in chunk:
                try:
                    lx = resolved.pair.language_bit(x)
                    checks = checks or _chunk_checks(resolved, construction, chunk, args.corrupt_h)
                    detail = _verify_one(resolved, construction.name, x, lx, args.corrupt_h, checks)
                except _ROW_ERRORS as exc:
                    detail = f"{type(exc).__name__}: {exc}"
                row = {"construction": construction.name, "input": bits_label(x), "ok": detail is None}
                rows[construction.name].append(row if detail is None else {**row, "detail": detail})
    results = [row for name in rows for row in rows[name]]
    ok = all(row["ok"] for row in results)
    _emit(
        {
            "problem": resolved.name,
            "n": resolved.n,
            "m": resolved.m,
            "seed": args.seed,
            "ok": ok,
            "results": results,
        },
        args.json,
    )
    if not ok:
        _diag(f"verification failed on {sum(1 for r in results if not r['ok'])} row(s)")
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_duals(args) -> int:
    from quasiq.harness.duals import cmd_duals
    return cmd_duals(args)


# -- entry point ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasiq",
        description="Exact quasi-quantum circuit simulator for verifier pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_input: bool) -> None:
        p.add_argument("--problem", required=True,
                       help="builtin problem name or path to a problem-spec JSON file")
        p.add_argument("--n", type=int, default=None, help="input size")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized problems (recorded in the report)")
        p.add_argument("--force-large", action="store_true",
                       help=f"override the n + m <= {DESK_SCALE_LIMIT} guardrail")
        p.add_argument("--json", action="store_true",
                       help="compact single-line JSON output")
        if needs_input:
            p.add_argument("--input", required=True, help="input bit string x")

    p_gap = sub.add_parser("gap", help="emit exact gap reports for one input")
    common(p_gap, needs_input=True)
    p_gap.set_defaults(func=cmd_gap)

    p_sim = sub.add_parser("simulate", help="run one construction on one input")
    common(p_sim, needs_input=True)
    p_sim.add_argument("--construction", required=True, choices=CONSTRUCTIONS)
    p_sim.add_argument("--dump-state", action="store_true",
                       help="include the final statevector in the output")
    p_sim.add_argument("--checkpoints", action="store_true",
                       help="record and include intermediate checkpoint states")
    p_sim.add_argument("--corrupt-h", action="store_true",
                       help="fault injection: bump the half-gap witness by one "
                            f"(--construction {' or '.join(CORRUPTIBLE['simulate'])} only)")
    p_sim.set_defaults(func=cmd_simulate)

    p_ver = sub.add_parser("verify", help="sweep all inputs and cross-check vs the oracle")
    common(p_ver, needs_input=False)
    p_ver.add_argument("--construction", default="all", choices=CONSTRUCTIONS + ("all",))
    p_ver.add_argument("--corrupt-h", action="store_true",
                       help="fault injection: bump the half-gap witness by one "
                            f"({' and '.join(CORRUPTIBLE['verify'])} rows only)")
    p_ver.set_defaults(func=cmd_verify)

    p_dual = sub.add_parser("duals", help="validate dual-pair invariants")
    common(p_dual, needs_input=False)
    p_dual.set_defaults(func=cmd_duals)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.n is None and getattr(args, "input", None):
        args.n = len(args.input)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed stdout shows here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader left early, as `| head` does; drop what is buffered
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except _SELF_CHECK_ERRORS as exc:
        _diag(f"error: {exc}")
        return EXIT_MISMATCH
    except _DOMAIN_ERRORS as exc:
        _diag(f"error: {exc}")
        return EXIT_USAGE
    except Exception as exc:  # any other exception is a bug in quasiq, not in the input
        _diag(f"internal error: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
