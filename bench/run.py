"""Benchmark of nmfcluster: the converge, report and sweep workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload converge --seed 1 --seconds 35 --trace 0

With ``--trace 0`` it times whole rounds of ops, untraced, for up to
``--seconds``, and reports the end-to-end metrics.  With
``--trace 1`` it runs a fixed number of rounds twice, untraced and then
traced, and reports the per-layer metrics of the traced pass.  Every op's
output is checked either way.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.  See bench/README.md.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 5
# rounds per pass of a traced run: a fixed amount of work, so that the
# per-layer counts of two commits compare call for call
TRACE_ROUNDS = {"converge": 2, "report": 1, "sweep": 4}

sys.path.insert(0, SRC)


def declared(kind):
    """(name, unit) of each metric of a kind, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        return [(metric["name"], metric["unit"]) for metric in json.load(fh)[kind]]


SCORING = ("ratio_association", "cluster_accuracy", "nmi", "orthogonality_deviation",
           "assign_items", "assign_features", "as_partition")


def import_package():
    """Import nmfcluster from this checkout's src/, and from nowhere else."""
    try:
        import nmfcluster
    except ImportError as exc:
        sys.exit(f"error: cannot import nmfcluster from {SRC}: {exc}")
    if not os.path.abspath(nmfcluster.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: nmfcluster was imported from {nmfcluster.__file__}, not {SRC}")


def make_workload(name, seed):
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, OUT)
    workload.round(0)
    return workload


def measure_setup(args):
    """Median wall time of a fresh interpreter that imports the modules the
    workload calls and prepares its first round."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - started)
        if done.returncode != 0:
            sys.exit(f"error: set-up failed: {done.stderr.strip()}")
    return statistics.median(times)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.durations = []


def run_round(workload, ops, tally, tracer=None):
    """Run one round; return the seconds spent inside the ops."""
    spent = 0.0
    for op in ops:
        workload.prepare()
        tally.attempted += 1
        started = time.perf_counter()
        try:
            result = workload.run(op)
        except Exception:
            tally.failed += 1
            traceback.print_exc(file=sys.stderr)
            continue
        elapsed = time.perf_counter() - started
        spent += elapsed
        tally.durations.append(elapsed)
        if tracer is not None:
            tracer.enabled = False
        try:
            workload.check(op, result)
        except checks.CheckFailed as exc:
            tally.correct = False
            print(f"check failed: {exc}", file=sys.stderr)
        finally:
            if tracer is not None:
                tracer.enabled = True
    return spent


def end_to_end(args):
    setup_s = measure_setup(args)
    workload = make_workload(args.workload, args.seed)
    tally = Tally()
    started = time.perf_counter()
    r = elapsed = 0
    # whole rounds, as many as the mean round predicts will end within --seconds
    while r == 0 or elapsed + elapsed / r <= args.seconds:
        run_round(workload, workload.round(r), tally)
        r += 1
        elapsed = time.perf_counter() - started
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    quartiles = statistics.quantiles(tally.durations, n=4) if len(tally.durations) > 1 else []
    print(f"{args.workload}: {r} rounds, {len(tally.durations)} ops in "
          f"{elapsed:.1f} s, op quartiles "
          f"{', '.join(f'{q:.3f}' for q in quartiles)} s; {workload.summary()}", file=sys.stderr)
    return tally, {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(tally.durations) if tally.durations else 0.0,
        "ops_per_s": len(tally.durations) / sum(tally.durations) if tally.durations else 0.0,
        "peak_rss_mb": peak_mb,
    }


def sweep_capacity(spans, names):
    """Sum over run_sweep calls of their wall time times the number of
    threads their cells ran on."""
    ids = {name: i for i, name in enumerate(names)}
    if "experiment.run_sweep" not in ids:
        return 0.0
    cells = spans["name"] == ids.get("experiment.sweep_cell", -1)
    capacity = 0.0
    for i in np.flatnonzero(spans["name"] == ids["experiment.run_sweep"]):
        start, end = spans["start"][i], spans["end"][i]
        inside = cells & (spans["start"] >= start) & (spans["end"] <= end)
        capacity += (end - start) * np.unique(spans["thread"][inside]).size
    return capacity


def layer_metrics(table, capacity, ops, overhead_s):
    def get(name, field):
        return table.get(name, {}).get(field, 0.0 if field.endswith("_s") else 0)

    def self_sum(*names):
        return sum(get(name, "self_s") for name in names)

    mu_iterations = get("solvers.mu_step", "calls")
    mu_other = self_sum("solvers.nmf_multiplicative", "solvers.nmf_orthogonal")
    anls_names = ("solvers.anls_coefficient_step", "solvers.anls_basis_step")
    anls_self = self_sum(*anls_names)
    solves = sum(get(name, "count") for name in anls_names)
    busy = 1e-9 * get("experiment.sweep_cell", "count")
    generators = [name for name in table if name.startswith("data_io.gen")]
    mm = ("data_io.read_matrix_market", "data_io.write_matrix_market")
    return {
        "solvers.mu_step.calls": mu_iterations,
        "solvers.mu_step.self_s": self_sum("solvers.mu_step"),
        "solvers.mu_loop.other_s": mu_other,
        "solvers.mu_loop.other_per_iter_us": 1e6 * mu_other / mu_iterations if mu_iterations else 0.0,
        "solvers.anls_step.calls": sum(get(name, "calls") for name in anls_names),
        "solvers.anls_step.self_s": anls_self,
        "solvers.nnls.solves": solves,
        "solvers.nnls.us_per_solve": 1e6 * anls_self / solves if solves else 0.0,
        "solvers.init_factors.self_s": self_sum("solvers.init_factors"),
        "core.frobenius_objective.calls": get("core.frobenius_objective", "calls"),
        "core.kkt_residual.calls": get("core.kkt_residual", "calls"),
        "core.kkt_residual.self_s": self_sum("core.kkt_residual"),
        "metrics.brute_force_ratio_assoc.calls": get("metrics.brute_force_ratio_assoc", "calls"),
        "metrics.brute_force_ratio_assoc.self_s": self_sum("metrics.brute_force_ratio_assoc"),
        "metrics.scoring.self_s": self_sum(*(f"metrics.{name}" for name in SCORING)),
        "affinity.item_affinity.calls": get("affinity.item_affinity", "calls"),
        "affinity.self_s": self_sum("affinity.item_affinity", "affinity.feature_affinity",
                                    "affinity.symmetrize"),
        "baselines.jacobi_eigen.calls": get("baselines.jacobi_eigen", "calls"),
        "baselines.jacobi_eigen.self_s": self_sum("baselines.jacobi_eigen"),
        "baselines.kmeans.self_s": self_sum("baselines.kmeans"),
        "experiment.evaluate_factors.self_s": self_sum("experiment.evaluate_factors"),
        "experiment.sweep.busy_s": busy,
        "experiment.sweep.parallel_efficiency": busy / capacity if capacity else 0.0,
        "data_io.generate.self_s": self_sum("data_io.generate", *generators),
        "data_io.matrix_market.self_s": self_sum(*mm),
        "data_io.matrix_market.bytes": sum(get(name, "count") for name in mm),
        "cli.main.self_s": self_sum("cli.main"),
        "cli.report.bytes": get("cli.main", "count"),
        "trace.ops": ops,
        "trace.overhead_s": overhead_s,
    }


def per_layer(args):
    from tracing import Tracer, span_table

    workload = make_workload(args.workload, args.seed)
    rounds = [workload.round(r) for r in range(TRACE_ROUNDS[args.workload])]
    tally = Tally()
    plain = sum(run_round(workload, ops, tally) for ops in rounds)
    tracer = Tracer()
    tracer.install()
    try:
        traced = sum(run_round(workload, ops, tally, tracer) for ops in rounds)
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    table = span_table(spans, tracer.names())
    stem = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}")
    np.savez_compressed(stem + ".npz", names=np.array(tracer.names()), **spans)
    with open(stem + ".json", "w", encoding="ascii") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
    print(f"{'span':44s} {'calls':>9s} {'total s':>9s} {'self s':>9s}", file=sys.stderr)
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        if row["calls"]:
                print(f"{name:44s} {row['calls']:9d} {row['total_s']:9.3f} "
                  f"{row['self_s']:9.3f}", file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} rounds untraced {plain:.2f} s, traced "
          f"{traced:.2f} s; {workload.summary()}", file=sys.stderr)
    ops = sum(len(r) for r in rounds)
    capacity = sweep_capacity(spans, tracer.names())
    return tally, layer_metrics(table, capacity, ops, traced - plain)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TRACE_ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    import_package()
    if args.setup_only:
        make_workload(args.workload, args.seed)
        return 0
    tally, values = (per_layer if args.trace else end_to_end)(args)
    kind = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared(kind)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
