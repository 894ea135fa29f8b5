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
from quasiq.quasistate import bits_label, bits_of
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


_WITNESS_FORMS = {"value": "a half-gap witness h(n)",
                  "power": "a half-gap witness in power form M**t"}

CONSTRUCTIONS = tuple(RUNS)
# Each construction's run_*, which simulate calls through this module's binding, so a
# wrapper installed on the module (bench/layers.py's tracer, a test double) sees every run.
RUNNERS = {"un": lambda *a: run_un(*a), "fig3-zqp": lambda *a: run_zqp(*a),
           "fig3-post": lambda *a: run_posteqp(*a), "wn": lambda *a: run_wn(*a),
           "lwpp": lambda *a: run_lwpp(*a), "lpwpp": lambda *a: run_lpwpp(*a)}
# The constructions --corrupt-h reaches: simulate bumps the value h(n) that
# it runs on; verify checks every row that reads a witness against the bumped one.
CORRUPTIBLE = {
    "simulate": tuple(name for name, run in RUNS.items() if run.witness == "value"),
    "verify": tuple(name for name, run in RUNS.items() if run.witness),
}


def _require(resolved: ResolvedProblem, name: str) -> str:
    """The construction `name`, when it can run on the resolved problem."""
    resolved.require_pair()
    if not RUNS[name].available(resolved.h):
        raise SpecError(f"construction {name!r} needs {_WITNESS_FORMS[RUNS[name].witness]}, "
                        f"which problem {resolved.name!r} does not carry")
    return name


def _require_corrupt_h_reader(args, resolved: ResolvedProblem, names) -> None:
    """--corrupt-h is a usage error unless some construction to be run reads it."""
    allowed = CORRUPTIBLE[args.command]
    if args.corrupt_h and not any(name in allowed for name in names):
        raise SpecError(
            f"--corrupt-h bumps the half-gap witness, which {args.command} reads only with "
            f"--construction {' or '.join(allowed)} on a problem that carries one; "
            f"not with {args.construction!r} on problem {resolved.name!r}")


def _simulate_one(resolved: ResolvedProblem, construction: str, x, record, corrupt_h=False):
    _require(resolved, construction)
    witness = RUNS[construction].witness_args(resolved.h, resolved.n, corrupt_h)
    return RUNNERS[construction](resolved.pair, *witness, x, record)


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
    _require_corrupt_h_reader(args, resolved, [args.construction])
    outcome = _simulate_one(resolved, args.construction, x, args.checkpoints,
                            corrupt_h=args.corrupt_h)
    obj = outcome.to_json(final_state=args.dump_state, checkpoints=args.checkpoints)
    obj["problem"] = resolved.name
    obj["seed"] = args.seed
    _emit(obj, args.json)
    return EXIT_OK


def _language_bit(pair, x):
    """L(x), or the DualityError reading it raised, which each of x's rows then fails with."""
    try:
        return pair.language_bit(x)
    except DualityError as exc:
        return exc


def _chunk_rows(resolved: ResolvedProblem, name: str, chunk: list, lxs: dict, corrupt_h: bool) -> list[dict]:
    """verify's rows of one construction on a chunk of inputs, whose L(x) (or the error reading
    it raised) `lxs` holds. Its circuit is built and run once on the whole chunk, when the first
    row has its L(x); a row error raised then is the detail of that row and every later one.
    Each row's check tests its run against the oracle; the row adds that its answer is L(x)
    (only a fig3-zqp run that certifies no answer returns without one) and, under --corrupt-h,
    compares an lpwpp decider with the bumped witness."""
    run, pair, rows, runs, error = RUNS[name], resolved.pair, [], None, None
    for x in chunk:
        detail = None
        try:
            if isinstance(lx := lxs[x], DualityError):
                raise lx
            if runs is None and error is None:
                try:
                    witness = run.witness_args(resolved.h, resolved.n, corrupt_h)
                    circuit = run.build(pair, *witness)
                    runs = dict(zip(chunk, simulate_inputs(circuit, chunk, run.reads)))
                except _ROW_ERRORS as exc:
                    error = exc
            if error is not None:
                raise error
            answer = run.check(pair, circuit, x, lx, *runs[x], *witness)[0]
            if answer != lx:
                detail = f"zero-error answer {answer} != oracle {lx}"
            elif corrupt_h and name == "lpwpp" and not runs[x][0].holds(
                    decider_term(pair, x, lx, resolved.h.value(resolved.n) + 1)):
                detail = "fixed-gate-set decider differs from the length-dependent one"
        except _ROW_ERRORS as exc:
            detail = f"{type(exc).__name__}: {exc}"
        row = {"construction": name, "input": bits_label(x), "ok": detail is None}
        rows.append(row if detail is None else {**row, "detail": detail})
    return rows


def cmd_verify(args) -> int:
    resolved = _load(args)
    resolved.require_pair()
    if args.construction == "all":
        names = [name for name, run in RUNS.items() if run.available(resolved.h)]
        if skipped := [name for name in RUNS if name not in names]:
            _diag(f"skipping {', '.join(skipped)}: no usable half-gap witness")
    else:
        names = [_require(resolved, args.construction)]
    _require_corrupt_h_reader(args, resolved, names)
    inputs = [bits_of(xkey, resolved.n) for xkey in range(2**resolved.n)]
    step = max(1, BATCH_LANES >> resolved.m + 2)  # un holds 2**(m + 2) lanes an input
    rows = {name: [] for name in names}
    for start in range(0, len(inputs), step):
        chunk = inputs[start:start + step]
        lxs = {x: _language_bit(resolved.pair, x) for x in chunk}  # once an input
        for name in names:  # one kernel run a chunk each, a child forked from its parent's
            rows[name] += _chunk_rows(resolved, name, chunk, lxs, args.corrupt_h)
    results = [row for name in names for row in rows[name]]
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
