"""The three benchmark workloads: their input pools, seeded draws, one
pass of checks each, and the comparison against stored expected output.

Each workload is a closed loop with one caller.  A *pass* is one unit of
work whose wall time is reported; a run repeats passes, each with its own
seeded draw, for the run's measurement window.

* theorem_grid  - in-process ``check_theorem(case, oracle=True)`` over a
                  seeded draw from the d in {5, 7}, n <= 20 theorem pool.
* identity_fuzz - in-process ``qcongruence identity ... --trials 1`` calls,
                  drawn from a stored pool of seeded identity trials.
* sweep_parallel - the ``qcongruence sweep`` CLI in a subprocess with
                  ``--jobs 2`` over the reference grid; output bytes are
                  compared with the stored output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected"

WORKLOADS = ("theorem_grid", "identity_fuzz", "sweep_parallel")
SIZES = ("full", "tiny")

# theorem_grid: the pool is every thm1/thm2 case with d in {5, 7}, n <= 20
# and both truncations.  Per-case cost spans four orders of magnitude, so a
# plain random draw would make a pass's wall time depend on the seed more
# than on the code.  Instead the pool is ranked by cost at the seed commit
# and cut into pairs of neighbours; every pair whose cases each took from
# TG_MIN_S to TG_MAX_S is a *slot*, and a pass checks one case of each
# slot, chosen and ordered by the seed.  Slots are numbered from the
# cheapest.  Without the dearer cases a run holds two passes; without the
# cheapest, the median and the 90th percentile fall among several slots of
# like cost, not on a gap between two.  sweep_parallel times the dearest.
# A slot's cases take turns in consecutive passes, so a *cover* of
# TG_SLOT_SIZE passes checks every slot case once, and runs on different
# seeds check the same cases: the seed only orders them.
TG_POOL_ARGS = dict(d_max=7, n_max=20, r_range=(-7, 7))
TG_MIN_S = 0.045
TG_MAX_S = 1.5
TG_SLOT_SIZE = 2
TG_TINY_SLOTS = 4

# identity_fuzz: trials of each (kind, m) at orders N = 2..8, drawn from a
# stored pool so every trial has expected output.  A *cell* is one (kind,
# m, N); a pass checks one trial of every cell, in seeded order, which
# keeps the mix of kinds and orders the same in every pass.  Trial costs
# within a cell still vary tenfold, so a run walks each cell in a seeded
# order instead of drawing with replacement.
ID_SPECS = (("andrews", 2), ("andrews", 3), ("andrews", 4), ("watson", 2),
            ("gasper-km", 2), ("gasper-km", 3), ("multi-km", 2), ("multi-km", 3))
ID_ORDERS = range(2, 9)
ID_POOL_PER_SPEC = 120
ID_POOL_SEED = 2021
ID_TINY_ORDER = 2

# sweep_parallel: the ROADMAP reference sweep, and a tiny grid for the
# benchmark's self-test.  --jobs 2 is the core count of the machine the
# baseline was recorded on.
SWEEP_JOBS = 2
SWEEP_GRIDS = {
    "full": ["sweep", "--theorem", "thm1", "--d-max", "7", "--n-max", "20"],
    "tiny": ["sweep", "--theorem", "thm1", "--d-max", "5", "--n-max", "9"],
}
SWEEP_TIMEOUT_S = 150

# span names a traced pass of each workload must contain
THEOREM_LAYERS = ("hypergeom.theorem_sum", "qobjects.qsum", "exactalg.divmod_monic",
                  "congruence.check_congruence", "exactalg.phi_valuation")
IDENTITY_LAYERS = ("hypergeom.andrews_lhs", "hypergeom.andrews_rhs",
                   "hypergeom.watson_pair", "hypergeom.gasper_terminating_sum",
                   "hypergeom.multi_km_sum", "qobjects.qsum", "exactalg.divmod_monic")


@dataclass
class PassResult:
    wall_s: float
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    resamples: int = 0
    cases: list[list] = field(default_factory=list)   # sweep case clocks
    peak_rss_mb: float = 0.0                           # sweep CLI and its workers


def load_jsonl(path: Path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def pass_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}/{index}")


def timed_check(res: PassResult, tracer, span: str, name: str, call):
    """Make one in-process check and record its latency.  An exception
    counts as a failed check and returns None, and the pass goes on."""
    start = time.perf_counter()
    try:
        with tracer.span(span, check=name) if tracer else contextlib.nullcontext():
            return call()
    except Exception as exc:
        res.failed += 1
        res.notes.append(f"{name}: {type(exc).__name__}: {exc}")
        return None
    finally:
        res.latencies.append(time.perf_counter() - start)
        res.attempted += 1


# ---------------------------------------------------------------------------
# theorem_grid


def tg_record(report) -> dict:
    """The verdict fields of a CheckReport that the expected output pins."""
    achieved = report.valuations.achieved if report.valuations else {}
    return {
        "status": report.status.value,
        "achieved": {str(m): v if isinstance(v, int) else "infinite"
                     for m, v in sorted(achieved.items())},
        "oracle": report.oracle_status.value if report.oracle_status else None,
    }


def tg_case(pkg, entry: dict):
    c = entry["case"]
    return pkg.TheoremCase(c["d"], c["r"], c["n"], pkg.Variant(c["variant"]),
                           pkg.Truncation(c["trunc"]))


class TheoremGrid:
    IN_PROCESS = True
    LAYERS = THEOREM_LAYERS + ("congruence.oracle_check",)
    COVER = TG_SLOT_SIZE

    def __init__(self, pkg, expected: Path, size: str):
        self.pkg = pkg
        pool = load_jsonl(expected / "theorem_grid.jsonl")
        slots: dict[int, list[dict]] = {}
        for entry in pool:
            if entry["slot"] is not None:
                slots.setdefault(entry["slot"], []).append(entry)
        keys = sorted(slots)
        if size == "tiny":
            keys = keys[:TG_TINY_SLOTS]
        self.slots = [slots[k] for k in keys]
        if any(len(slot) != TG_SLOT_SIZE for slot in self.slots):
            raise SystemExit(f"bench: a theorem_grid slot without {TG_SLOT_SIZE} cases")

    def draw(self, seed: int, index: int) -> list[dict]:
        """Pass ``index`` takes the index-th case of a seeded permutation
        of each slot, in seeded order."""
        turns = random.Random(f"{seed}/slots")
        picks = [turns.sample(slot, len(slot))[index % len(slot)] for slot in self.slots]
        pass_rng(seed, index).shuffle(picks)
        return picks

    def inputs(self, seed: int, index: int):
        return [(e, tg_case(self.pkg, e)) for e in self.draw(seed, index)]

    def run_pass(self, seed: int, index: int, tracer=None) -> PassResult:
        check_theorem = self.pkg.congruence.check_theorem
        work = self.inputs(seed, index)
        res = PassResult(0.0)
        start = time.perf_counter()
        for entry, case in work:
            name = f"{index}:{case.describe()}"
            report = timed_check(res, tracer, "congruence.check_theorem", name,
                                 lambda: check_theorem(case, oracle=True))
            if report is None:
                continue
            got = tg_record(report)
            want = {k: entry[k] for k in ("status", "achieved", "oracle")}
            if got != want or got["status"] == "ERROR" or got["oracle"] != got["status"]:
                res.failed += 1
                res.notes.append(f"{name}: got {got}, expected {want}")
        res.wall_s = time.perf_counter() - start
        return res


# ---------------------------------------------------------------------------
# identity_fuzz


def id_argv(kind: str, m: int, order: int, seed: int) -> list[str]:
    return ["identity", kind, "--m", str(m), "--N", str(order),
            "--trials", "1", "--seed", str(seed)]


def id_call(cli, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


class IdentityFuzz:
    IN_PROCESS = True
    LAYERS = IDENTITY_LAYERS
    COVER = 1

    def __init__(self, pkg, expected: Path, size: str):
        self.cli = pkg.cli
        pool = load_jsonl(expected / "identity_fuzz.jsonl")
        if size == "tiny":
            pool = [e for e in pool if e["N"] == ID_TINY_ORDER]
        cells: dict[tuple[str, int], list[dict]] = {}
        for entry in pool:
            cells.setdefault((entry["spec"], entry["N"]), []).append(entry)
        self.cells = [cells[k] for k in sorted(cells)]

    def inputs(self, seed: int, index: int) -> list[dict]:
        """Pass ``index`` takes the index-th trial of a seeded permutation
        of each cell, so consecutive passes use every trial once before
        any repeats, and runs on different seeds check alike mixes."""
        picks = []
        for number, cell in enumerate(self.cells):
            order = random.Random(f"{seed}/cell{number}").sample(cell, len(cell))
            picks.append(order[index % len(order)])
        pass_rng(seed, index).shuffle(picks)
        return picks

    def run_pass(self, seed: int, index: int, tracer=None) -> PassResult:
        cli = self.cli
        work = self.inputs(seed, index)
        res = PassResult(0.0)
        start = time.perf_counter()
        for entry in work:
            name = f"{index}:{entry['spec']}-N{entry['N']}#{entry['index']}"
            result = timed_check(res, tracer, "cli.main", name,
                                 lambda: id_call(cli, entry["argv"]))
            if result is None:
                continue
            code, out = result
            if code != entry["exit"] or out != entry["stdout"]:
                res.failed += 1
                res.notes.append(f"{name}: exit {code}, stdout {out!r}")
                continue
            res.resamples += json.loads(out)["resamples"]
        res.wall_s = time.perf_counter() - start
        return res


# ---------------------------------------------------------------------------
# sweep_parallel


class SweepParallel:
    IN_PROCESS = False
    LAYERS = THEOREM_LAYERS
    COVER = 1

    def __init__(self, pkg, expected: Path, size: str, workdir: Path):
        spec = json.loads((expected / "sweep.json").read_text())[size]
        self.argv = SWEEP_GRIDS[size] + ["--jobs", str(SWEEP_JOBS)]
        if spec["argv"] != SWEEP_GRIDS[size]:
            raise SystemExit(f"stored sweep output is for {spec['argv']}, "
                             f"not {SWEEP_GRIDS[size]}")
        self.expected_lines = (expected / spec["stdout"]).read_bytes().splitlines()
        self.expected_exit = spec["exit"]
        self.workdir = workdir
        self.pkg = pkg

    def inputs(self, seed: int, index: int):
        """The CLI's own set-up: parse the arguments and enumerate cases."""
        cli = self.pkg.cli
        args = cli.build_parser().parse_args(self.argv)
        return self.pkg.congruence.enumerate_cases(
            self.pkg.Variant(args.theorem), args.d_max, args.n_max,
            (args.r_min, args.r_max))

    def run_pass(self, seed: int, index: int, tracer=None) -> PassResult:
        """One sweep.  A check's latency is when its record line reaches
        the reader, counted from the spawn of the CLI process."""
        work = self.workdir / f"sweep{index}{'-traced' if tracer else ''}"
        work.mkdir(parents=True, exist_ok=True)
        for old in work.iterdir():
            old.unlink()
        cmd = [sys.executable, str(BENCH / "launcher.py"), str(work),
               "1" if tracer is not None else "0", "--", *self.argv]
        lines, arrivals = [], []
        with open(work / "stderr", "wb") as err:
            start = time.perf_counter()
            # a process group of its own, so the watchdog also stops the pool workers
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    cwd=ROOT, start_new_session=True)
            watchdog = threading.Timer(SWEEP_TIMEOUT_S, os.killpg,
                                       (proc.pid, signal.SIGKILL))
            watchdog.start()
            try:
                for line in proc.stdout:
                    arrivals.append(time.perf_counter() - start)
                    lines.append(line.rstrip(b"\n"))
                # wait4's usage covers the CLI and the pool workers it reaped
                _pid, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                watchdog.cancel()
                proc.stdout.close()
        res = PassResult(time.perf_counter() - start, latencies=arrivals[1:],
                         peak_rss_mb=usage.ru_maxrss / 1024.0)
        res.attempted = len(self.expected_lines) - 1      # minus the header
        res.failed = sum(a != b for a, b in zip(lines, self.expected_lines))
        res.failed += abs(len(lines) - len(self.expected_lines))
        if proc.returncode != self.expected_exit:
            res.failed += 1
            tail = (work / "stderr").read_text(errors="replace")[-2000:]
            res.notes.append(f"exit {proc.returncode}, expected {self.expected_exit}: {tail}")
        elif res.failed:
            res.notes.append(f"{res.failed} output lines differ from the stored output")
        for path in sorted(work.glob("cases.*")):
            pid = path.name.split(".", 1)[1]
            res.cases += [[pid, name, t0, t1] for name, t0, t1 in load_jsonl(path)]
        return res

    def spans(self, index: int) -> list[list]:
        out = []
        for path in sorted((self.workdir / f"sweep{index}-traced").glob("spans.*")):
            out.extend(load_jsonl(path))
        return out


def sweep_pool_stats(cases: list[list], wall_s: float, jobs: int) -> tuple[float, float]:
    """(scaling efficiency, tail idle seconds) of one parallel sweep.

    The serial wall is taken as the workers' summed busy time per case;
    tail idle is, summed over workers, how long each sat idle between its
    own last case and the end of the sweep's last case.
    """
    busy = sum(t1 - t0 for _pid, _name, t0, t1 in cases)
    last: dict[str, float] = {}
    for pid, _name, _t0, t1 in cases:
        last[pid] = max(last.get(pid, t1), t1)
    end = max(last.values(), default=0.0)
    idle = sum(end - t for t in last.values())
    return busy / (jobs * wall_s), idle


def make(workload: str, pkg, expected: Path, size: str, workdir: Path):
    if workload == "theorem_grid":
        return TheoremGrid(pkg, expected, size)
    if workload == "identity_fuzz":
        return IdentityFuzz(pkg, expected, size)
    return SweepParallel(pkg, expected, size, workdir)
