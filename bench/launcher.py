"""Run the qcongruence CLI in this process, traced when asked.

    python3 bench/launcher.py WORKDIR TRACE -- <qcongruence arguments>

With TRACE = 0 this is the plain CLI on this checkout's ``src/``.  With
TRACE = 1 a clock wraps ``cli.check_theorem``, the call each sweep worker
makes per case, and the layer tracer is installed.  As each case ends the
worker appends ``[case, start, end]`` (shared monotonic clock) to
``WORKDIR/cases.<pid>`` and the case's spans to ``WORKDIR/spans.<pid>``,
because pool workers exit without running exit handlers.  Sweep workers
are forked, so they inherit the wrappers installed here.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(1, str(BENCH))

from qcongruence import cli, congruence, exactalg, hypergeom  # noqa: E402

from layertrace import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    workdir, trace, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: launcher.py WORKDIR TRACE -- ARGS...")
    if trace != "1":
        return cli.main(cli_args)
    workdir = Path(workdir)
    tracer = Tracer()
    real = cli.check_theorem

    def clocked(case, *args, **kwargs):
        name = case.describe()
        start = time.perf_counter()
        with tracer.span("cli.check_theorem", check=name):
            out = real(case, *args, **kwargs)
        end = time.perf_counter()
        pid = os.getpid()
        with open(workdir / f"cases.{pid}", "a") as fh:
            fh.write(json.dumps([name, start, end]) + "\n")
        with open(workdir / f"spans.{pid}", "a") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s) + "\n")
        tracer.spans.clear()
        return out

    cli.check_theorem = clocked
    tracer.install(congruence, hypergeom, exactalg)
    return cli.main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
