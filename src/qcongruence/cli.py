"""Command-line front end: single-case checks, identity fuzzing, and case
sweeps with parallel execution.

Output is JSON Lines, one record per check, on stdout (or --output); a
human summary goes to stderr.  Records are byte-stable for a fixed seed:
timings are reported on stderr only and the elapsed_ms field is always
null, so reruns and different --jobs settings produce identical bytes.

A sweep with --jobs above 1 forks its workers itself (POSIX only):
``_fork_map`` deals each one its case indices up front and reads record
i back as the next JSON line on its owner's pipe, so no command imports
multiprocessing.

Exit codes: 0 success, 1 mathematical FAIL, 2 usage or hypothesis error,
or stdout closed before the run finished.
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import os
import random
import sys
import time
from typing import Iterable, Sequence

from .exactalg import INFINITE, ValuationReport
from .hypergeom import (
    InvalidCase,
    TheoremCase,
    Truncation,
    Variant,
    _solved_index,
    andrews_lhs,
    andrews_rhs,
    draw_andrews_params,
    draw_km_params,
    draw_watson_exponents,
    gasper_terminating_sum,
    multi_km_sum,
    sample_until_valid,
    watson_pair,
)
from .congruence import (
    CONJECTURE_R,
    CheckReport,
    CheckStatus,
    Conjecture,
    Modulus,
    check_conjecture,
    check_lemma3,
    check_lemma4,
    check_mod_square,
    check_theorem,
    enumerate_cases,
    van_hamme_check,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2

SWEEP_D_MAX = 9
SWEEP_N_MAX = 40
SWEEP_R_RANGE = (-7, 7)
_M_DEFAULT = 2

# per verify kind: the flags it requires and the flags it may take; any
# other verify flag is a usage error
VERIFY_KINDS = {
    "thm1": (("r", "n"), ("d", "trunc", "power", "oracle")),
    "thm2": (("r", "n"), ("d", "trunc", "power", "oracle")),
    "conj1": (("n",), ("d", "r", "trunc", "oracle")),
    "conj2": (("n",), ("d", "r", "trunc", "oracle")),
    "conj3": (("r", "n"), ("d", "trunc", "oracle")),
    "lemma3": (("r", "n"), ("d", "trunc", "oracle")),
    "lemma4": (("r", "n"), ("d",)),
    "modsquare": (("r", "n"), ("d", "alpha", "k_max")),
    "vanhamme": ((), ("p",)),
}
ORACLE_HELP = ("cross-check each verdict by walking the sum's terms at a root "
               "of unity in F_p; a disagreement exits 2")


def _json_valuation(v) -> object:
    return "infinite" if v == INFINITE else v


def _report_record(command: str, case_fields: dict, report: CheckReport,
                   seed: int | None) -> dict:
    rec = {
        "command": command,
        "case": case_fields,
        "modulus": {str(m): k for m, k in sorted(report.modulus.parts.items())},
        "achieved": {
            str(m): _json_valuation(v)
            for m, v in sorted(report.valuations.achieved.items())
        },
        "status": report.status.value,
        "term_count": report.term_count,
        "elapsed_ms": None,
        "seed": seed,
    }
    if report.detail:
        rec["detail"] = report.detail
    if report.oracle_status is not None:
        rec["oracle"] = report.oracle_status.value
    return rec


def _case_fields(case: TheoremCase) -> dict:
    return {
        "d": case.d,
        "r": case.r,
        "n": case.n,
        "variant": case.variant.value,
        "trunc": case.truncation.value,
    }


def _emit(lines: Iterable[str], output: str | None) -> None:
    """Write each line as ``lines`` yields it, so a generator streams."""
    if output:
        with open(output, "w") as fh:
            for line in lines:
                fh.write(line + "\n")
                fh.flush()
    else:
        for line in lines:
            print(line, flush=True)


def _status_exit(status: CheckStatus) -> int:
    if status is CheckStatus.PASS:
        return EXIT_PASS
    if status is CheckStatus.FAIL:
        return EXIT_FAIL
    return EXIT_ERROR


# ---------------------------------------------------------------------------
# verify


def _check_case(kind: str, case: TheoremCase, oracle: bool,
                power: int | None = None) -> CheckReport:
    """The check of one theorem or conjecture case, for verify and sweep."""
    if kind in ("thm1", "thm2"):
        return check_theorem(case, oracle=oracle, power=power)
    return check_conjecture(case, Conjecture(kind), oracle=oracle)


def _verify_report(args) -> tuple[CheckReport, dict]:
    kind = args.kind
    trunc = Truncation(args.trunc)
    if kind in ("thm1", "thm2"):
        case = TheoremCase(args.d, args.r, args.n, Variant(kind), trunc)
        return _check_case(kind, case, args.oracle, args.power), _case_fields(case)
    if kind in ("conj1", "conj2", "conj3"):
        r = args.r if args.r is not None else CONJECTURE_R[Conjecture(kind)]
        first = kind != "conj3" and args.d >= 1 and args.n % args.d == (-r) % args.d
        case = TheoremCase(args.d, r, args.n, Variant.THM1 if first else Variant.THM2, trunc)
        return _check_case(kind, case, args.oracle), _case_fields(case)
    if kind == "lemma3":
        report = check_lemma3(args.d, args.r, args.n, trunc, oracle=args.oracle)
        return report, {"d": args.d, "r": args.r, "n": args.n, "trunc": args.trunc}
    if kind == "lemma4":
        ok = check_lemma4(args.d, args.r, args.n)
        # no modulus to meet: the verdict is the progression test's
        report = CheckReport(
            f"lemma4(d={args.d}, r={args.r}, n={args.n})", Modulus({}),
            ValuationReport({}, {}, ok), CheckStatus.PASS if ok else CheckStatus.FAIL,
            _solved_index(args.d, args.r, args.n))
        return report, {"d": args.d, "r": args.r, "n": args.n}
    if kind == "modsquare":
        report = check_mod_square(args.alpha, args.r, args.n, args.d, args.k_max)
        return report, {"alpha": args.alpha, "r": args.r, "n": args.n,
                        "d": args.d, "k_max": args.k_max}
    return van_hamme_check(args.p), {"p": args.p}


def cmd_verify(args) -> int:
    start = time.perf_counter()
    report, fields = _verify_report(args)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    rec = _report_record(f"verify {args.kind}", fields, report, None)
    _emit([json.dumps(rec)], args.output)
    print(f"{report.description or args.kind}: {report.status.value} "
          f"({elapsed_ms:.1f} ms)", file=sys.stderr)
    if report.oracle_status is not None and report.oracle_status != report.status:
        print("oracle verdict disagrees with valuation verdict", file=sys.stderr)
        return EXIT_ERROR
    return _status_exit(report.status)


# ---------------------------------------------------------------------------
# identity


def _km_params(p) -> dict:
    return {"a": p.a, "e": list(p.e), "nondeg": list(p.nondeg), "N": p.N}


# per identity kind: draw(rng, m, N), the exact check of a draw, the record's
# params of a draw, and the fewest parameter pairs (--m) it needs, or None
# when it takes none.  The evaluators are looked up when a check runs, so a
# patched cli.andrews_lhs (say) is the one called.
IDENTITY_KINDS = {
    "andrews": (draw_andrews_params, lambda p: andrews_lhs(p) == andrews_rhs(p),
                lambda p: {"a": p.a, "pairs": [list(x) for x in p.pairs], "N": p.N}, 2),
    "watson": (lambda rg, _m, N: draw_watson_exponents(rg, N=N),
               lambda t: operator.eq(*watson_pair(*t)),
               lambda t: dict(zip(("a", "b", "c", "d", "e", "N"), t)), None),
    "gasper-km": (draw_km_params, lambda p: gasper_terminating_sum(p).is_zero, _km_params, 1),
    "multi-km": (draw_km_params, lambda p: multi_km_sum(p).is_zero, _km_params, 2),
}


def _identity_trial(kind: str, rng: random.Random, m: int, order: int | None):
    """(record params, verdict, resamples) of one trial."""
    draw, check, params_of, _m_min = IDENTITY_KINDS[kind]
    params, ok, resamples = sample_until_valid(rng, lambda rg: draw(rg, m, order), check)
    return params_of(params), ok, resamples


def cmd_identity(args) -> int:
    rng = random.Random(args.seed)
    failures = 0

    def lines():
        # write each record as soon as its trial is done
        nonlocal failures
        for trial in range(args.trials):
            params, ok, resamples = _identity_trial(args.kind, rng, args.m, args.N)
            failures += not ok
            yield json.dumps({
                "command": f"identity {args.kind}",
                "trial": trial,
                "params": params,
                "status": "PASS" if ok else "FAIL",
                "resamples": resamples,
                "elapsed_ms": None,
                "seed": args.seed,
            })

    start = time.perf_counter()
    _emit(lines(), args.output)
    elapsed = time.perf_counter() - start
    print(f"identity {args.kind}: {args.trials - failures}/{args.trials} exact "
          f"({elapsed:.1f} s, seed {args.seed})", file=sys.stderr)
    return EXIT_PASS if failures == 0 else EXIT_FAIL


# ---------------------------------------------------------------------------
# sweep


class WorkerError(RuntimeError):
    """A forked worker exited before it returned every job dealt to it."""


def _owner(index: int, workers: int) -> int:
    """The worker that job ``index`` is dealt to: one job per worker per
    round, every other round in reverse (0, 1, 1, 0, 0, 1, ... for two),
    so a pattern that repeats with the worker count (a sweep's upper and
    full pair) does not hand one worker every heavy job."""
    turn, seat = divmod(index, workers)
    return workers - 1 - seat if turn % 2 else seat


def _work(fn, jobs: Iterable[int], results: int) -> None:
    """A forked worker: for each index of ``jobs`` in order, write
    ``fn(index)`` and a newline to ``results``.  Never returns."""
    code = 1
    try:
        import signal
        # Ctrl-C is the parent's to handle (it kills and reaps the workers);
        # SIGTERM ends a worker outright, not by the parent's copied handler
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        for index in jobs:
            data = (fn(index) + "\n").encode()
            while data:
                data = data[os.write(results, data):]
        code = 0
    except BrokenPipeError:
        pass  # the parent is gone, so no one reads the records
    except BaseException:
        import traceback
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        # no exit handlers and no flush of buffers copied from the parent
        os._exit(code)


def _fork_map(fn, count: int, workers: int):
    """Yield ``fn(0)``, ..., ``fn(count - 1)`` in order, each a str with no
    newline, computed in ``workers`` forked processes (POSIX only).

    Job i goes to worker ``_owner(i, workers)``, which computes its jobs in
    order and writes each result as one line on its own pipe, so result i
    is the next line on that pipe.  A worker that exits before it writes a
    whole line for its next job raises WorkerError.  Every exit, SIGTERM
    included, kills and reaps every worker and closes the pipes.
    """
    import signal

    pids, pipes = [], []
    # SIGTERM takes Ctrl-C's path: unwind through the kill and reap below
    previous = signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    try:
        for worker in range(workers):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                # no read end left open here, so a worker whose parent is
                # gone gets a broken pipe
                os.close(read_end)
                for pipe in pipes:
                    pipe.close()
                _work(fn, [i for i in range(count) if _owner(i, workers) == worker],
                      write_end)
            os.close(write_end)
            pids.append(pid)
            pipes.append(open(read_end, "rb"))
        for index in range(count):
            owner = _owner(index, workers)
            line = pipes[owner].readline()
            if not line.endswith(b"\n"):
                raise WorkerError(f"worker {pids[owner]} exited before it "
                                  f"returned job {index}")
            yield line[:-1].decode()
    finally:
        # a worker whose last line was read has nothing left to do, and one
        # still busy after an early exit must not finish its jobs
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()
        signal.signal(signal.SIGTERM, previous)


def _sweep_cases(kind: str, d_max: int, n_max: int,
                 r_range: tuple[int, int]) -> list[TheoremCase]:
    if kind in ("thm1", "thm2"):
        return enumerate_cases(Variant(kind), d_max, n_max, r_range)
    if kind == "conj3":
        pool = enumerate_cases(Variant.THM2, d_max, n_max, r_range)
    else:
        r = CONJECTURE_R[Conjecture(kind)]
        pool = [c for variant in Variant
                for c in enumerate_cases(variant, d_max, n_max, (r, r))
                if c.truncation is Truncation.FULL]
    return sorted(pool, key=lambda c: (c.d, c.r, c.n, c.variant.value,
                                       c.truncation.value))


def cmd_sweep(args) -> int:
    kind = args.theorem or args.conjecture
    if args.d_max > SWEEP_D_MAX or args.n_max > SWEEP_N_MAX:
        print(f"sweep bounds capped at d <= {SWEEP_D_MAX}, n <= {SWEEP_N_MAX}",
              file=sys.stderr)
        return EXIT_ERROR
    r_range = (args.r_min, args.r_max)
    cases = _sweep_cases(kind, args.d_max, args.n_max, r_range)
    if not cases:
        fixed_r = CONJECTURE_R.get(Conjecture(kind)) if args.conjecture else None
        r_bound = (f"r = {fixed_r}" if fixed_r is not None
                   else f"{args.r_min} <= r <= {args.r_max}")
        print(f"sweep {kind}: no case has d <= {args.d_max}, n <= {args.n_max} "
              f"and {r_bound}", file=sys.stderr)
        return EXIT_ERROR
    if args.jobs > 1 and len(cases) > 1 and not hasattr(os, "fork"):
        print("error: --jobs above 1 forks workers, and this platform has no "
              "os.fork; use --jobs 1", file=sys.stderr)
        return EXIT_ERROR
    # the header echoes the grid and seed, never --jobs or --output, so
    # output bytes do not depend on them
    header = json.dumps({"command": f"sweep {kind}",
                         "d_max": args.d_max, "n_max": args.n_max,
                         "r_min": r_range[0], "r_max": r_range[1],
                         "cases": len(cases), "seed": args.seed})
    counts = {"PASS": 0, "FAIL": 0, "ERROR": 0, "mismatch": 0}

    def lines(records):
        # write (and count) each record as soon as it is next in order
        yield header
        for line in records:
            rec = json.loads(line)
            counts[rec["status"]] += 1
            if args.oracle and rec.get("oracle") != rec["status"]:
                counts["mismatch"] += 1
            yield line

    def record_line(index: int) -> str:
        report = _check_case(kind, cases[index], args.oracle)
        return json.dumps(_report_record(f"sweep {kind}", _case_fields(cases[index]),
                                         report, args.seed))

    start = time.perf_counter()
    if args.jobs > 1 and len(cases) > 1:
        records = _fork_map(record_line, len(cases), min(args.jobs, len(cases)))
    else:
        records = (record_line(index) for index in range(len(cases)))
    try:
        _emit(lines(records), args.output)
    finally:
        # on an early exit (a closed stdout, Ctrl-C, SIGTERM) this stops
        # the workers
        records.close()
    elapsed = time.perf_counter() - start
    print(f"sweep {kind}: {len(cases)} cases, "
          f"{counts['PASS']} pass, {counts['FAIL']} fail, "
          f"{counts['ERROR']} error ({elapsed:.1f} s)", file=sys.stderr)
    if counts["mismatch"]:
        print(f"oracle disagreements: {counts['mismatch']}", file=sys.stderr)
        return EXIT_ERROR
    if kind.startswith("conj"):
        return EXIT_PASS
    if counts["ERROR"]:
        return EXIT_ERROR
    return EXIT_PASS if counts["FAIL"] == 0 else EXIT_FAIL


# ---------------------------------------------------------------------------
# argument parsing


# built once per process; `set_defaults` binds the cmd_* functions then
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcongruence",
        description="Exact verification of q-congruences for truncated "
                    "basic hypergeometric sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="check a single case")
    ver.add_argument("kind", choices=VERIFY_KINDS)
    for flag in ("--d", "--r", "--n", "--p", "--alpha", "--k-max"):
        ver.add_argument(flag, type=int)
    ver.add_argument("--trunc", choices=["upper", "full"])
    ver.add_argument("--power", type=int,
                     help="override the cyclotomic power of the modulus")
    ver.add_argument("--oracle", action="store_true", help=ORACLE_HELP)
    ver.add_argument("--output", default=None)
    ver.set_defaults(func=cmd_verify)

    ident = sub.add_parser("identity", help="randomized exact identity checks")
    ident.add_argument("kind", choices=IDENTITY_KINDS)
    ident.add_argument("--m", type=int, default=_M_DEFAULT, help="number of parameter pairs")
    ident.add_argument("--N", type=int, default=None, help="termination order")
    ident.add_argument("--trials", type=int, default=20)
    ident.add_argument("--seed", type=int, default=0)
    ident.add_argument("--output", default=None)
    ident.set_defaults(func=cmd_identity)

    sweep = sub.add_parser("sweep", help="grid of cases, optionally parallel")
    group = sweep.add_mutually_exclusive_group(required=True)
    group.add_argument("--theorem", choices=["thm1", "thm2"])
    group.add_argument("--conjecture", choices=["conj1", "conj2", "conj3"])
    sweep.add_argument("--d-max", type=int, default=7)
    sweep.add_argument("--n-max", type=int, default=20)
    sweep.add_argument("--r-min", type=int, default=SWEEP_R_RANGE[0])
    sweep.add_argument("--r-max", type=int, default=SWEEP_R_RANGE[1])
    sweep.add_argument("--jobs", type=int, default=1)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--oracle", action="store_true", help=ORACLE_HELP)
    sweep.add_argument("--output", default=None)
    sweep.set_defaults(func=cmd_sweep)

    return parser


def _parse_args(parser: argparse.ArgumentParser, argv: Sequence[str] | None):
    """Parsed arguments; a flag that does not compose is a parser error."""
    args = parser.parse_args(argv)
    if args.command == "verify":
        required, optional = VERIFY_KINDS[args.kind]
        for name, value in vars(args).items():
            if name in ("command", "kind", "output", "func"):
                continue
            flag = "--" + name.replace("_", "-")
            # `is`, not `in (None, False)`: a given 0 equals False
            given = value is not None and value is not False
            if name in required and not given:
                parser.error(f"verify {args.kind} requires {flag}")
            if given and name not in required + optional:
                parser.error(f"{flag} does not apply to verify {args.kind}")
        if args.power is not None and args.power < 0:
            parser.error("--power must be at least 0")
        # the parser sets no verify default, so that the loop above sees
        # which flags were given
        for name, value in {"d": 5, "p": 5, "alpha": 1, "k_max": 3, "trunc": "upper"}.items():
            if getattr(args, name) is None:
                setattr(args, name, value)
    if args.command == "identity":
        if args.trials < 1:
            parser.error("--trials must be at least 1")
        m_min = IDENTITY_KINDS[args.kind][3]
        if m_min is not None and args.m < m_min:
            parser.error(f"identity {args.kind} needs --m at least {m_min}")
        # a kind that takes no pairs still accepts the default, so that a
        # command line that spells it out keeps running
        if m_min is None and args.m != _M_DEFAULT:
            parser.error(f"--m does not apply to identity {args.kind}")
    if args.command == "sweep":
        if args.jobs < 1:
            parser.error("--jobs must be at least 1")
        fixed_r = CONJECTURE_R.get(Conjecture(args.conjecture)) if args.conjecture else None
        if fixed_r is not None and (args.r_min, args.r_max) != SWEEP_R_RANGE:
            parser.error(f"sweep {args.conjecture} fixes r = {fixed_r}; "
                         "--r-min and --r-max do not apply")
    return args


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
    except SystemExit as exc:
        # a usage error (or --help) is an exit code like any other outcome
        return exc.code
    if args.output:
        # fail before any sum, not after the whole run
        try:
            with open(args.output, "a"):
                pass
        except OSError as exc:
            print(f"error: cannot write --output: {exc}", file=sys.stderr)
            return EXIT_ERROR
    try:
        return args.func(args)
    except InvalidCase as exc:
        for msg in exc.violations:
            print(f"hypothesis violated: {msg}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        # the reader closed stdout (say, `| head`); point stdout at devnull so
        # the interpreter's final flush does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout closed before the run finished", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
