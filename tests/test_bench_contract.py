"""What bench/ relies on from the package: span names, a sweep round, report
and converge ops.

``bench/tracing.py`` finds the functions it wraps by name, and
``bench/workloads.py`` checks every op's output.  A change that renames
a function the benchmark reads, or alters the output of an op it checks,
breaks the benchmark without breaking any other test; these tests catch
that.
"""

import importlib
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return {name: importlib.import_module(name)
            for name in ("checks", "tracing", "workloads")}


def test_tracing_resolves_the_names_it_reads(bench):
    names = set(bench["tracing"].public_functions().values())
    assert {"experiment.sweep_cell", "experiment.run_sweep", "cli.main",
            "metrics.brute_force_ratio_assoc", "data_io.read_matrix_market",
            "data_io.write_matrix_market"} <= names


def test_one_traced_sweep_round_passes_its_check(bench, tmp_path):
    tracing = bench["tracing"]
    workload = bench["workloads"].Sweep(1, str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op in workload.round(0):
            reports = workload.run(op)
            tracer.enabled = False
            workload.check(op, reports)
            tracer.enabled = True
    finally:
        tracer.uninstall()
    table = tracing.span_table(tracer.spans(), tracer.names())
    assert table["experiment.run_sweep"]["calls"] == 1
    # the grid is solved as stacked problems, past the public solvers the
    # tracer patches, and one report is made per distinct cell: one mu cell
    # per seed, one ortho cell per (seed, lambda)
    sweep = bench["workloads"].Sweep
    assert table["solvers.nmf_multiplicative"]["calls"] == 0
    assert table["solvers.nmf_orthogonal"]["calls"] == 0
    assert table["experiment.sweep_cell"]["calls"] == sweep.SEEDS * (1 + len(sweep.LAMBDAS))


def test_report_oracle_ops_pass_their_check_with_three_oracle_calls(bench, tmp_path):
    # the 11- and 12-vertex graphs, on which each of the journey's three
    # evaluations runs the RA oracle once: the item and feature affinities
    # of a symmetric graph are equal and share one search
    tracing = bench["tracing"]
    workload = bench["workloads"].Report(1, str(tmp_path))
    for op in workload.round(0)[:2]:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            workload.prepare()
            printed = workload.run(op)
            tracer.enabled = False
            workload.check(op, printed)
        finally:
            tracer.uninstall()
        table = tracing.span_table(tracer.spans(), tracer.names())
        assert table["metrics.brute_force_ratio_assoc"]["calls"] == 3


def test_report_block_op_passes_its_check_on_the_item_affinity_branch(bench, tmp_path):
    # the block-diagonal 60 x 60 op: compare's spectral baseline partitions
    # the item affinity, not the input matrix as on the symmetric graphs
    workload = bench["workloads"].Report(1, str(tmp_path))
    op = workload.round(0)[2]
    assert (op.spec.kind, op.spec.m, op.spec.n) == ("block-diagonal", 60, 60)
    workload.prepare()
    workload.check(op, workload.run(op))
    with open(workload.paths["comparison.json"], encoding="ascii") as fh:
        assert json.load(fh)["spectral"]["operates_on"] == "item affinity"


def test_report_mixture_op_passes_its_check_with_three_reads_and_one_write(bench, tmp_path):
    # the 80 x 90 mixture-docs op: gen writes the array layout once, and
    # factorize, evaluate and compare each read it back
    tracing = bench["tracing"]
    workload = bench["workloads"].Report(1, str(tmp_path))
    op = workload.round(0)[3]
    assert (op.spec.kind, op.spec.m, op.spec.n) == ("mixture-docs", 80, 90)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload.prepare()
        printed = workload.run(op)
        tracer.enabled = False
        workload.check(op, printed)
    finally:
        tracer.uninstall()
    with open(workload.paths["input.mtx"], encoding="ascii") as fh:
        assert fh.readline() == "%%MatrixMarket matrix array real general\n"
    table = tracing.span_table(tracer.spans(), tracer.names())
    assert table["data_io.read_matrix_market"]["calls"] == 3
    assert table["data_io.write_matrix_market"]["calls"] == 1


def test_one_traced_converge_op_passes_its_check_with_six_starts(bench, tmp_path):
    # the 8 x 24 instance: MU's 5 restarts and ANLS's 1 each draw one start
    tracing = bench["tracing"]
    workload = bench["workloads"].Converge(1, str(tmp_path))
    op = workload.round(0)[0]
    assert op.data.shape == (8, 24)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = workload.run(op)
        tracer.enabled = False
        workload.check(op, result)
    finally:
        tracer.uninstall()
    table = tracing.span_table(tracer.spans(), tracer.names())
    assert table["solvers.init_factors"]["calls"] == 6
