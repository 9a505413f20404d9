"""Show that every correctness check of the benchmark can fail.

Each check is fed a real output of nmfcluster, which it must pass, and a
wrong answer made from it (perturbed factors, a swapped label, a rising
trace...), which it must reject.  Run from the root of a checkout:

    python3 bench/selfcheck.py

It exits 0 when every check passed the real output and rejected every
wrong one, and 1 otherwise.
"""

import copy
import json
import os
import sys
from dataclasses import replace

import run  # puts the checkout's src/ on the import path

run.import_package()

import checks  # noqa: E402
import workloads  # noqa: E402

results = []


def expect(name, fn, passes):
    try:
        fn()
        outcome = "passed"
    except checks.CheckFailed as exc:
        outcome = f"rejected ({str(exc)[:100]})"
    ok = outcome.startswith("passed" if passes else "rejected")
    results.append(ok)
    print(f"{'ok ' if ok else 'BAD'} {name}: {outcome}")


def with_objective(pair, data, basis=None):
    basis = pair.basis if basis is None else basis
    return replace(pair, basis=basis,
                   objective=checks.objective(data, basis, pair.coefficients))


def swap_first_pair(labels):
    """Swap the labels of the first two elements that differ."""
    labels = list(labels)
    j = next(j for j in range(1, len(labels)) if labels[j] != labels[0])
    labels[0], labels[j] = labels[j], labels[0]
    return labels


def converge_cases():
    workload = run.make_workload("converge", 0)
    op = workload.round(0)[0]
    result = workload.run(op)
    (mu, trace), (anls, anls_trace) = result
    data = op.data
    expect("converge op", lambda: workload.check(op, result), True)
    expect("converge op, MU basis scaled by 1.01",
           lambda: workload.check(op, ((replace(mu, basis=mu.basis * 1.01), trace),
                                       (anls, anls_trace))), False)
    bumped = trace.objective.copy()
    bumped[len(bumped) // 2] *= 1.001
    expect("converge op, MU trace rises once",
           lambda: workload.check(op, ((mu, replace(trace, objective=bumped)),
                                       (anls, anls_trace))), False)
    off_basis = with_objective(anls, data, anls.basis + 0.01)
    expect("converge op, ANLS basis moved off its NNLS optimum",
           lambda: workload.check(op, ((mu, trace), (off_basis, anls_trace))), False)
    bound = checks.kkt_bound(data)
    expect("KKT bound on the MU factors",
           lambda: checks.check_kkt(max(checks.kkt_norms(data, mu.basis, mu.coefficients)),
                                    bound, "mu"), True)
    expect("KKT bound on MU factors scaled by 1.5",
           lambda: checks.check_kkt(max(checks.kkt_norms(data, mu.basis * 1.5, mu.coefficients)),
                                    bound, "mu"), False)


def report_cases():
    workload = run.make_workload("report", 0)
    op = workload.round(0)[0]  # an 11-vertex planted graph: the RA oracle runs
    workload.prepare()
    printed = workload.run(op)
    expect("report op", lambda: workload.check(op, printed), True)
    p = workload.paths
    with open(p["report.json"], encoding="ascii") as fh:
        report = json.load(fh)
    saved = {name: open(p[name], encoding="ascii").read() for name in workload.FILES}

    def corrupted(name, text):
        def go():
            try:
                with open(p[name], "w", encoding="ascii") as fh:
                    fh.write(text)
                workload.check(op, printed)
            finally:
                with open(p[name], "w", encoding="ascii") as fh:
                    fh.write(saved[name])
        return go

    lines = saved["input.mtx"].splitlines()
    last = lines[-1].split()
    lines[-1] = " ".join(last[:-1] + ["0.123"])
    expect("report op, one matrix entry changed in input.mtx",
           corrupted("input.mtx", "\n".join(lines) + "\n"), False)
    swapped = swap_first_pair(saved["labels.csv"].split())
    expect("report op, two planted labels swapped in labels.csv",
           corrupted("labels.csv", "\n".join(swapped) + "\n"), False)
    evaluation = json.loads(saved["evaluation.json"])
    evaluation["ra_items"] *= 1.0 + 1e-8
    expect("report op, evaluate's ra_items off by 1e-8",
           corrupted("evaluation.json", json.dumps(evaluation)), False)

    data, planted, _ = workloads.generate(op.spec)
    pred = report["item_labels_pred"]
    expect("own accuracy vs the report's",
           lambda: checks.check_accuracy(pred, planted.labels, report["accuracy"], "nmf"), True)
    expect("own accuracy with a swapped predicted label",
           lambda: checks.check_accuracy(swap_first_pair(pred), planted.labels,
                                         report["accuracy"], "nmf"), False)
    w = data.T @ data
    sides = {"nmf": pred, "planted": planted.labels}
    oracle = report["ra_items_oracle"]
    expect("RA oracle between the partitions and the spectral bound",
           lambda: checks.check_oracle(oracle, w, op.spec.k, sides, "oracle"), True)
    below = min(checks.ratio_association(w, labels) for labels in sides.values()) * 0.999
    expect("RA oracle below the planted partition's RA",
           lambda: checks.check_oracle(below, w, op.spec.k, sides, "oracle"), False)
    above = checks.spectral_bound(w, op.spec.k) * 1.001
    expect("RA oracle above the spectral bound",
           lambda: checks.check_oracle(above, w, op.spec.k, sides, "oracle"), False)
    expect("reported RA of the NMF partition",
           lambda: checks.check_ra(report["ra_items"], w, pred, op.spec.k, "nmf"), True)
    expect("reported RA for a swapped predicted label",
           lambda: checks.check_ra(report["ra_items"], w, swap_first_pair(pred),
                                   op.spec.k, "nmf"), False)


def sweep_cases():
    workload = run.make_workload("sweep", 0)
    op = workload.round(0)[0]
    reports = workload.run(op)
    expect("sweep op", lambda: workload.check(op, reports), True)
    wrong = copy.deepcopy(reports)
    wrong[5]["coefficients"][0][0] += 0.05
    expect("sweep op, one cell's coefficient changed", lambda: workload.check(op, wrong), False)
    lambdas = sorted({rep["lambda"] for rep in reports})
    flipped = copy.deepcopy(reports)
    for rep in flipped:
        rep["lambda"] = lambdas[-1 - lambdas.index(rep["lambda"])]
    expect("sweep op, lambdas relabelled in reverse order",
           lambda: workload.check(op, flipped), False)


def main():
    converge_cases()
    report_cases()
    sweep_cases()
    bad = results.count(False)
    print(f"{len(results) - bad} of {len(results)} cases behaved as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    os.chdir(run.ROOT)
    sys.exit(main())
