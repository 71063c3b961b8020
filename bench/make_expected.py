"""Regenerate the benchmark's expected output from the current source.

    python3 bench/make_expected.py

Run it only at a commit whose verdicts are trusted: every later run of the
benchmark counts each difference from these files as a failed check.  The
theorem pool is also timed here, serially, to rank cases by cost for the
slot design described in ``workloads.py``; those seconds are stored as
``cost_s`` for reference and are specific to the machine that ran this.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time

import workloads as wl

sys.path.insert(0, str(wl.SRC))

import qcongruence as pkg  # noqa: E402
from qcongruence import cli, congruence  # noqa: E402


def theorem_grid() -> None:
    pool = []
    for variant in (pkg.Variant.THM1, pkg.Variant.THM2):
        pool += congruence.enumerate_cases(variant, **wl.TG_POOL_ARGS)
    rows = []
    for case in pool:
        start = time.perf_counter()
        report = congruence.check_theorem(case, oracle=True)
        cost = time.perf_counter() - start
        rows.append({
            "case": {"d": case.d, "r": case.r, "n": case.n,
                     "variant": case.variant.value, "trunc": case.truncation.value},
            **wl.tg_record(report),
            "cost_s": round(cost, 4),
            "slot": None,
        })
        print(f"{case.describe()}: {report.status.value} {cost:.3f} s", file=sys.stderr)
    assign_slots(rows)
    with open(wl.EXPECTED / "theorem_grid.jsonl", "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def assign_slots(rows: list[dict]) -> None:
    """Set each row's ``slot`` from its ``cost_s`` (see workloads.py)."""
    ranked = sorted(rows, key=lambda r: r["cost_s"], reverse=True)
    pairs = [ranked[i:i + 2] for i in range(0, len(ranked), 2)]
    chosen = [p for p in pairs
              if min(r["cost_s"] for r in p) >= wl.TG_MIN_S
              and max(r["cost_s"] for r in p) < wl.TG_MAX_S]
    for row in rows:
        row["slot"] = None
    for slot, pair in enumerate(reversed(chosen)):
        for row in pair:
            row["slot"] = slot


def identity_fuzz() -> None:
    rng = random.Random(wl.ID_POOL_SEED)
    with open(wl.EXPECTED / "identity_fuzz.jsonl", "w") as fh:
        for kind, m in wl.ID_SPECS:
            spec = f"{kind}-m{m}"
            for index in range(wl.ID_POOL_PER_SPEC):
                order = rng.choice(wl.ID_ORDERS)
                argv = wl.id_argv(kind, m, order, rng.randrange(1 << 30))
                code, out = wl.id_call(cli, argv)
                if code != 0:
                    raise SystemExit(f"{argv}: exit {code}: {out}")
                fh.write(json.dumps({"spec": spec, "N": order, "index": index,
                                     "argv": argv, "exit": code, "stdout": out}) + "\n")
            print(f"{spec}: {wl.ID_POOL_PER_SPEC} trials", file=sys.stderr)


def sweep_parallel() -> None:
    env = dict(os.environ, PYTHONPATH=str(wl.SRC))
    spec = {}
    for size, argv in wl.SWEEP_GRIDS.items():
        proc = subprocess.run([sys.executable, "-m", "qcongruence", *argv,
                               "--jobs", str(wl.SWEEP_JOBS)],
                              capture_output=True, env=env, check=False)
        name = f"sweep_{size}.out"
        (wl.EXPECTED / name).write_bytes(proc.stdout)
        spec[size] = {"argv": argv, "stdout": name, "exit": proc.returncode}
        print(f"sweep {size}: exit {proc.returncode}, "
              f"{proc.stderr.decode().strip()}", file=sys.stderr)
    (wl.EXPECTED / "sweep.json").write_text(json.dumps(spec, indent=2) + "\n")


def main() -> None:
    wl.EXPECTED.mkdir(exist_ok=True)
    theorem_grid()
    identity_fuzz()
    sweep_parallel()


if __name__ == "__main__":
    main()
