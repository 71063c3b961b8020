"""The benchmark's traced run stops when a layer it must cross sees no
call, and counts a check whose report or record bytes differ from its
stored output as failed.  These tests make the same calls with the
benchmark's own tracer installed, and the same comparisons in process, so
such a change fails here, in about a second, and not first in a
benchmark run."""

import importlib.util
import os
import sys

import qcongruence
from qcongruence import cli, congruence, exactalg, hypergeom
from qcongruence.hypergeom import TheoremCase, Truncation, Variant

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


def bench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


layertrace = bench_module("layertrace")
workloads = bench_module("workloads")


def test_theorem_check_crosses_every_theorem_layer():
    case = TheoremCase(5, 1, 4, Variant.THM1, Truncation.UPPER)
    tracer = layertrace.Tracer()
    with tracer.installed(congruence, hypergeom, exactalg, cli):
        congruence.check_theorem(case, oracle=True)
    layertrace.require_calls(tracer.spans, workloads.THEOREM_LAYERS)


def test_identity_trials_cross_every_identity_layer():
    # one trial of each (kind, m) the benchmark draws, at its tiny order
    tracer = layertrace.Tracer()
    with tracer.installed(congruence, hypergeom, exactalg, cli):
        for kind, m in workloads.ID_SPECS:
            argv = workloads.id_argv(kind, m, workloads.ID_TINY_ORDER, 1)
            assert workloads.id_call(cli, argv)[0] == 0
    layertrace.require_calls(tracer.spans, workloads.IDENTITY_LAYERS)


def test_benchmark_passes_count_no_failed_check():
    # a cover of tiny theorem_grid passes and one tiny identity_fuzz pass,
    # compared with the stored expected output as the benchmark compares them
    grid = workloads.TheoremGrid(qcongruence, workloads.EXPECTED, "tiny")
    fuzz = workloads.IdentityFuzz(qcongruence, workloads.EXPECTED, "tiny")
    passes = [grid.run_pass(1, i) for i in range(workloads.TG_SLOT_SIZE)]
    passes.append(fuzz.run_pass(1, 0))
    for res in passes:
        assert res.attempted > 0 and res.failed == 0, res.notes
