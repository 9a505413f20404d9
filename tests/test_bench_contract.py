"""What bench/ relies on from the package: span names and one sweep round.

``bench/tracing.py`` finds the functions it wraps by name, and
``bench/workloads.py`` checks every op's output.  A change that renames
a function the benchmark reads, or alters a sweep's reports, breaks the
benchmark without breaking any other test; these two tests catch that.
"""

import importlib
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
    assert {"experiment.sweep_cell", "experiment.run_sweep", "cli.main"} <= names


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
    assert table["experiment.sweep_cell"]["calls"] > 0
