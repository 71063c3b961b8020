"""Self-test of the benchmark itself, on tiny inputs (about a minute).

    python3 bench/selftest.py

For every workload it runs the tiny size untraced and traced, and asserts
that the result line is correct and names every metric of BENCHMARK.json
with its unit, and that the traced run saw calls through the summation
and division layers.  Then it corrupts one expected record that the tiny
run will check, and asserts that the run counts it as a failed check.
Last, it asserts that the tracer stops on a boundary that does not exist.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 1

# per-layer counts that a traced run of any workload makes non-zero
CROSSED = ("exactalg.divmod_calls", "qobjects.qsum_calls", "hypergeom.terms")


def bench(workload: str, trace: int, expected: Path = wl.EXPECTED) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny", "--expected", str(expected)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=wl.ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def check_metrics(result: dict, declared: list[dict], what: str) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{what}: metrics {got} != declared {want}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{what}: {name} = {m['value']!r}"


def corrupt(dest: Path, pkg) -> None:
    """Copy the expected output and falsify one record per workload, each
    one that the tiny run with SEED checks in its first pass."""
    if dest.exists():
        shutil.rmtree(dest)
    shutil.copytree(wl.EXPECTED, dest)

    victim = wl.TheoremGrid(pkg, dest, "tiny").draw(SEED, 0)[0]
    rewrite(dest / "theorem_grid.jsonl", lambda e: e["case"] == victim["case"],
            lambda e: e | {"status": "PASS" if e["status"] == "FAIL" else "FAIL"})

    victim = wl.IdentityFuzz(pkg, dest, "tiny").inputs(SEED, 0)[0]
    rewrite(dest / "identity_fuzz.jsonl", lambda e: e["argv"] == victim["argv"],
            lambda e: e | {"stdout": e["stdout"].replace('"resamples": ', '"resamples": 1')})

    spec = json.loads((dest / "sweep.json").read_text())["tiny"]
    out = dest / spec["stdout"]
    lines = out.read_bytes().splitlines(keepends=True)
    lines[1] = lines[1].replace(b'"status": "', b'"status": "NOT')
    out.write_bytes(b"".join(lines))


def check_missing_boundary(pkg) -> None:
    """Installing the tracer on a module without one of its boundaries,
    or finding no calls through a required layer, must stop the run."""
    stripped = types.ModuleType(pkg.congruence.__name__)
    stripped.__dict__.update(pkg.congruence.__dict__)
    del stripped.theorem_sum
    tracer = layertrace.Tracer()
    try:
        tracer.install(stripped, pkg.hypergeom, pkg.exactalg)
    except layertrace.MissingBoundary:
        pass
    else:
        raise AssertionError("tracer installed without congruence.theorem_sum")
    finally:
        tracer.uninstall()
    try:
        layertrace.require_calls([], ("qobjects.qsum",))
    except layertrace.MissingBoundary:
        return
    raise AssertionError("require_calls accepted a layer with no calls")


def rewrite(path: Path, match, change) -> None:
    entries = wl.load_jsonl(path)
    hits = [i for i, e in enumerate(entries) if match(e)]
    assert len(hits) == 1, f"{path.name}: {len(hits)} records match"
    entries[hits[0]] = change(entries[hits[0]])
    path.write_text("".join(json.dumps(e) + "\n" for e in entries))


def main() -> int:
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    pkg = run.import_program()
    bad = wl.ROOT / ".bench_out" / "selftest-expected"
    corrupt(bad, pkg)
    for workload in wl.WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = bench(workload, trace)
            what = f"{workload} trace {trace}"
            assert result["correct"] and result["failed"] == 0, f"{what}: {result}"
            assert result["attempted"] > 0, what
            check_metrics(result, declared, what)
            if trace:
                for name in CROSSED:
                    assert result["metrics"][name]["value"] > 0, f"{what}: {name} is 0"
            print(f"ok  {what}: {result['attempted']} checks, "
                  f"{len(result['metrics'])} metrics")
        result = bench(workload, 0, bad)
        assert not result["correct"] and result["failed"] >= 1, f"{workload}: {result}"
        print(f"ok  {workload} with one corrupted record: {result['failed']} failed")
    shutil.rmtree(bad)
    check_missing_boundary(pkg)
    print("ok  a missing boundary stops the traced run")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
