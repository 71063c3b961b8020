"""qcongruence benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload theorem_grid|identity_fuzz|sweep_parallel
                         --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout and nowhere else.  With ``--trace 0`` the result holds the
end-to-end metrics; with ``--trace 1`` the run makes pairs of one untraced
and one traced pass over the same inputs, and the result holds the
per-layer metrics.  Spans and the per-check size table of a
traced run are written under ``.bench_out/``.  The last line of standard
output is the JSON result; the lines before it are a readable summary.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import layertrace  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPEATS = 7

# traced runs of in-process workloads make at least this many pairs of
# passes, so trace.overhead_ratio is a median over pairs
TRACE_MIN_PAIRS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "check_p50_s": "s",
    "check_p90_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "exactalg.divmod_s": "s",
    "exactalg.divmod_calls": "count",
    "exactalg.divmod_useful_ratio": "ratio",
    "exactalg.phi_valuation_s": "s",
    "congruence.check_s": "s",
    "congruence.oracle_s": "s",
    "qobjects.qsum_s": "s",
    "qobjects.qsum_self_s": "s",
    "qobjects.qsum_calls": "count",
    "qobjects.binomial_mults": "count",
    "qobjects.num_degree_max": "degree",
    "qobjects.num_coeff_bits_max": "bits",
    "hypergeom.term_build_s": "s",
    "hypergeom.terms": "count",
    "hypergeom.draw_useful_ratio": "ratio",
    "check.self_s": "s",
    "cli.scaling_efficiency": "ratio",
    "cli.tail_idle_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.measure_s": "s",
    "trace.unattributed_s": "s",
}

# per-layer seconds that partition the traced passes' worker time
ACCOUNTING = ("exactalg.divmod_s", "exactalg.phi_valuation_s", "congruence.check_s",
              "congruence.oracle_s", "qobjects.qsum_self_s", "hypergeom.term_build_s",
              "check.self_s", "trace.measure_s", "trace.unattributed_s")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="qcongruence benchmark")
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=wl.SIZES, default="full",
                   help="tiny: the self-test's small inputs")
    p.add_argument("--expected", type=Path, default=wl.EXPECTED,
                   help="directory of stored expected output")
    p.add_argument("--probe", action="store_true",
                   help="import the program, build the first inputs, exit "
                        "(one timed set-up, run in a subprocess)")
    return p.parse_args(argv)


def import_program():
    """Import qcongruence from this checkout's src/, or stop."""
    init = wl.SRC / "qcongruence" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"bench: no program source at {init}")
    sys.path.insert(0, str(wl.SRC))
    import qcongruence
    from qcongruence import cli, congruence, exactalg, hypergeom  # noqa: F401
    if Path(qcongruence.__file__).resolve() != init.resolve():
        raise SystemExit(f"bench: imported {qcongruence.__file__}, not {init}")
    return qcongruence


def setup_seconds(args) -> list[float]:
    """Wall time of fresh interpreters that import the program and build
    the run's first inputs, then exit."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--size", args.size, "--expected", str(args.expected)]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, cwd=wl.ROOT, timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit("bench: set-up probe failed:\n" + proc.stderr.decode())
    return times


def measure(workload, seed: int, seconds: float):
    """Whole covers of the workload's passes until the next cover would
    overrun the window (at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        cover = [workload.run_pass(seed, len(passes)) for _ in range(workload.COVER)]
        passes += cover
        if time.perf_counter() - start + sum(p.wall_s for p in cover) > seconds:
            return passes


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def peak_rss_mb(workload, passes) -> float:
    """This process for in-process workloads, else the largest sweep."""
    if workload.IN_PROCESS:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return max(p.peak_rss_mb for p in passes)


def end_to_end(workload, passes, setup: list[float]) -> dict:
    lat = [x for p in passes for x in p.latencies]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "check_p50_s": statistics.median(lat),
        "check_p90_s": p90(lat),
        "peak_rss_mb": peak_rss_mb(workload, passes),
    }


def traced_pairs(workload, pkg, args):
    """Pairs of passes over the same inputs, one untraced and one traced,
    in alternating order so that drift on the machine cancels in the
    median ratio.  In-process workloads make pairs until the window is
    used and at least TRACE_MIN_PAIRS; a sweep pass outlasts the window,
    so the sweep makes one pair."""
    tracer = layertrace.Tracer()
    plain, traced_passes = [], []
    start = time.perf_counter()
    while True:
        index = len(plain)
        order = ("plain", "traced") if index % 2 == 0 else ("traced", "plain")
        for kind in order:
            if kind == "plain":
                plain.append(workload.run_pass(args.seed, index))
            elif workload.IN_PROCESS:
                with tracer.installed(pkg.congruence, pkg.hypergeom, pkg.exactalg, pkg.cli):
                    traced_passes.append(workload.run_pass(args.seed, index, tracer))
            else:
                traced_passes.append(workload.run_pass(args.seed, index, tracer))
        pair_s = plain[-1].wall_s + traced_passes[-1].wall_s
        if not workload.IN_PROCESS:
            break
        if (len(plain) >= TRACE_MIN_PAIRS
                and time.perf_counter() - start + pair_s > args.seconds):
            break
    if workload.IN_PROCESS:
        spans = tracer.spans
    else:
        spans = [s for i in range(len(plain)) for s in workload.spans(i)]
    return plain, traced_passes, spans


def traced(workload, pkg, args, outdir: Path):
    plain, traced_passes, spans = traced_pairs(workload, pkg, args)
    layertrace.require_calls(spans, workload.LAYERS)
    jobs = 1 if workload.IN_PROCESS else wl.SWEEP_JOBS
    metrics = layertrace.layer_metrics(spans)
    wall = sum(p.wall_s for p in traced_passes)
    if workload.IN_PROCESS:
        efficiency, tail_idle = 1.0, 0.0
    else:
        stats = [wl.sweep_pool_stats(p.cases, p.wall_s, jobs) for p in traced_passes]
        efficiency = statistics.median(s[0] for s in stats)
        tail_idle = statistics.median(s[1] for s in stats)
    trials = sum(p.attempted for p in plain + traced_passes)
    resamples = sum(p.resamples for p in plain + traced_passes)
    ratios = [t.wall_s / p.wall_s for p, t in zip(plain, traced_passes)]
    metrics.update({
        "hypergeom.draw_useful_ratio": trials / (trials + resamples),
        "cli.scaling_efficiency": efficiency,
        "cli.tail_idle_s": tail_idle,
        "trace.overhead_ratio": statistics.median(ratios),
        "trace.wall_s": wall,
        "trace.unattributed_s": jobs * wall - metrics.pop("check.total_s"),
    })
    outdir.mkdir(parents=True, exist_ok=True)
    layertrace.write_spans(outdir / "spans.jsonl", spans)
    table = layertrace.size_table_lines(layertrace.check_sizes(spans))
    (outdir / "sizes.tsv").write_text("\n".join(table) + "\n")
    summary = [f"{len(traced_passes)} pair(s) of untraced and traced passes; "
               f"spans and sizes.tsv in {outdir}",
               "traced / untraced wall per pair: "
               + " ".join(f"{r:.3f}" for r in ratios),
               f"accounting over {jobs} x traced wall = {jobs * wall:.3f} s:"]
    for name in ACCOUNTING:
        summary.append(f"  {name:28s} {metrics[name]:10.4f} s "
                       f"{100 * metrics[name] / (jobs * wall):6.2f} %")
    summary.append("heaviest checks:")
    summary += ["  " + line for line in table[:11]]
    return plain + traced_passes, metrics, summary


def main(argv=None) -> int:
    args = parse_args(argv)
    pkg = import_program()
    if not args.expected.is_dir():
        raise SystemExit(f"bench: no expected output at {args.expected}")
    outdir = wl.ROOT / ".bench_out" / f"{args.workload}-{args.size}-seed{args.seed}"
    workload = wl.make(args.workload, pkg, args.expected, args.size, outdir)
    if args.probe:
        workload.inputs(args.seed, 0)
        return 0
    if args.trace:
        passes, metrics, summary = traced(workload, pkg, args, outdir)
        units = PER_LAYER_UNITS
    else:
        setup = setup_seconds(args)
        passes = measure(workload, args.seed, args.seconds)
        metrics = end_to_end(workload, passes, setup)
        summary = [f"setup_s is the median of {len(setup)} interpreters"]
        units = END_TO_END_UNITS
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    lat = [x for p in passes for x in p.latencies]
    print(f"{args.workload} seed {args.seed} size {args.size}: {len(passes)} pass(es), "
          f"{attempted} checks, {failed} failed, {len(lat)} latency samples")
    for note in [n for p in passes for n in p.notes][:20]:
        print("FAILED " + note)
    for line in summary:
        print(line)
    for name, unit in units.items():
        print(f"{name:30s} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
