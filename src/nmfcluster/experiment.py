"""Experiment orchestration shared by the CLI and the demo scripts.

``run_experiment`` runs one solver on one matrix and returns a plain-dict
report: solver options, final objective, KKT residuals, orthogonality
deviations, ratio-association scores, accuracy/NMI against planted labels
when given, the factors themselves, and optionally the full trace.  The
report is JSON-ready; floats serialize via repr so a stored report
re-evaluates to the same numbers exactly.

``evaluate_report`` recomputes every metric from a report's stored
factors (reloading or regenerating the data named by its input
descriptor) and ``run_sweep`` runs one experiment grid serially, one
report per (solver, seed, lambda) cell plus a deterministic summary
table.
"""

import time
from dataclasses import asdict, replace
from itertools import product

import numpy as np

from .affinity import _is_symmetric, feature_affinity, item_affinity
from .baselines import KmeansOptions, kmeans, spectral_ratio_assoc
from .core import (_as_int, as_matrix, frobenius_objective, kkt_residual, normalize_factors,
                   require_nonnegative)
from .data_io import SyntheticSpec, _read_matrix_file, generate
from .errors import SpecError
from .metrics import (
    BRUTE_FORCE_MAX_N,
    Partition,
    assign_features,
    assign_items,
    brute_force_ratio_assoc,
    cluster_accuracy,
    nmi,
    orthogonality_deviation,
    ratio_association,
)
from .solvers import SolverOptions, _runs_with, nmf_anls, nmf_multiplicative, nmf_orthogonal

__all__ = [
    "run_experiment",
    "run_compare",
    "evaluate_report",
    "evaluate_factors",
    "run_sweep",
]

SCHEMA_VERSION = "2"

SUMMARY_COLUMNS = (
    "solver",
    "seed",
    "lambda",
    "objective",
    "kkt_b",
    "kkt_c",
    "jb2_norm",
    "jc2_norm",
    "ra_items",
    "accuracy",
    "nmi",
    "seconds",
)


def _options_dict(options):
    # the SolverOptions fields in their order; penalty is the last, as "lambda"
    out = asdict(options)
    out["lambda"] = out.pop("penalty")
    return out


def _trace_dict(trace):
    out = {
        "iteration": trace.iteration.tolist(),
        "objective": trace.objective.tolist(),
        "diagnostic_iteration": trace.diagnostic_iteration.tolist(),
        "kkt_basis": trace.kkt_basis.tolist(),
        "kkt_coef": trace.kkt_coef.tolist(),
        "basis_offdiag": trace.basis_offdiag.tolist(),
        "coef_offdiag": trace.coef_offdiag.tolist(),
    }
    if trace.penalized is not None:
        out["penalized"] = trace.penalized.tolist()
    return out


def _run_solver(data, k, solver, options):
    if solver == "mu":
        return nmf_multiplicative(data, k, options)
    if solver == "anls":
        return nmf_anls(data, k, options)
    return nmf_orthogonal(data, k, options)


def _score(affinity, part, truth):
    # (ratio association, accuracy, NMI) of one partition; None without truth
    ra = ratio_association(affinity, part)
    if truth is None:
        return ra, None, None
    return ra, cluster_accuracy(part, truth), nmi(part, truth)


def _oracle(affinity, k):
    # the exact RA optimum, where the exhaustive search is affordable
    if affinity.n <= BRUTE_FORCE_MAX_N:
        return brute_force_ratio_assoc(affinity, k)[1]
    return None


def evaluate_factors(data, basis, coef, item_labels=None, feature_labels=None):
    """Score one factor pair against the data (and labels when given).

    Everything downstream of the solver lives here so that a report can
    be re-checked from its stored factors alone.  Returns a dict of
    metrics; accuracy/NMI entries are None without labels.
    """
    data = as_matrix(data, "data")
    kkt_b, kkt_c = kkt_residual(data, basis, coef)
    nbasis, ncoef = normalize_factors(basis, coef)
    jb2, jb2_norm = orthogonality_deviation(nbasis, axis="columns")
    jc2, jc2_norm = orthogonality_deviation(ncoef, axis="rows")
    items = assign_items(ncoef)
    features = assign_features(nbasis)

    aff_items = item_affinity(data)
    aff_features = feature_affinity(data)
    ra_items, accuracy, item_nmi = _score(aff_items, items, item_labels)
    ra_features, feature_accuracy, feature_nmi = _score(
        aff_features, features, feature_labels
    )
    k = items.n_clusters
    return {
        "kkt_b": kkt_b,
        "kkt_c": kkt_c,
        "jb2": jb2,
        "jb2_norm": jb2_norm,
        "jc2": jc2,
        "jc2_norm": jc2_norm,
        "item_labels_pred": items.labels.tolist(),
        "feature_labels_pred": features.labels.tolist(),
        "ra_items": ra_items,
        "ra_features": ra_features,
        "ra_items_oracle": _oracle(aff_items, k),
        "ra_features_oracle": _oracle(aff_features, k),
        "accuracy": accuracy,
        "nmi": item_nmi,
        "feature_accuracy": feature_accuracy,
        "feature_nmi": feature_nmi,
    }


def run_experiment(
    data,
    k,
    solver="mu",
    options=None,
    item_labels=None,
    feature_labels=None,
    source=None,
    include_trace=False,
):
    """Run one solver and assemble the full report dict.

    ``source`` is the input descriptor recorded for later re-evaluation:
    either {"path": ..., "format": "mtx"|"csv"} for file inputs or
    {"spec": {...}} for synthetic data.  The report records the options
    the solver ran with: mu and anls run with ``ortho_mode="none"`` and
    ``penalty=0.0`` whatever ``options`` holds.  Wall-clock time covers
    the solver only, not the metric pass.
    """
    data = as_matrix(data, "data")
    options = _runs_with(solver, options)
    started = time.perf_counter()
    pair, trace = _run_solver(data, k, solver, options)
    seconds = time.perf_counter() - started

    report = {
        "schema_version": SCHEMA_VERSION,
        "input": source if source is not None else {"shape": list(data.shape)},
        "solver": solver,
        "options": _options_dict(options),
        "rank": pair.rank,
        "seed": options.seed,
        "objective": pair.objective,
        "iterations": pair.iterations,
        "converged": pair.converged,
        "seconds": seconds,
        "basis": pair.basis.tolist(),
        "coefficients": pair.coefficients.tolist(),
        "item_labels": None if item_labels is None else item_labels.labels.tolist(),
        "feature_labels": None
        if feature_labels is None
        else feature_labels.labels.tolist(),
    }
    report.update(
        evaluate_factors(
            data,
            pair.basis,
            pair.coefficients,
            item_labels=item_labels,
            feature_labels=feature_labels,
        )
    )
    if include_trace:
        report["trace"] = _trace_dict(trace)
    return report


def _baseline(part, seconds, aff_items, item_labels, **extra):
    # one baseline's section of a comparison, scored like the NMF partition
    ra, accuracy, item_nmi = _score(aff_items, part, item_labels)
    return {
        "labels": part.labels.tolist(),
        **extra,
        "ra_items": ra,
        "accuracy": accuracy,
        "nmi": item_nmi,
        "seconds": seconds,
    }


def run_compare(
    data,
    k,
    options=None,
    item_labels=None,
    feature_labels=None,
    source=None,
):
    """Factorize plus both baselines on one input; single merged report.

    K-means clusters the data columns as points.  The spectral baseline
    partitions the item affinity graph, or the matrix itself when the
    input is already a symmetric affinity matrix.
    """
    if options is None:
        options = SolverOptions()
    data = as_matrix(data, "data")
    nmf_report = run_experiment(
        data,
        k,
        solver="mu",
        options=options,
        item_labels=item_labels,
        feature_labels=feature_labels,
        source=source,
    )

    started = time.perf_counter()
    km_part, inertia = kmeans(
        data.T, KmeansOptions(k=k, seed=options.seed, restarts=options.restarts)
    )
    km_seconds = time.perf_counter() - started

    aff_items = item_affinity(data)
    started = time.perf_counter()
    on_input = _is_symmetric(data)
    sp_part = spectral_ratio_assoc(data if on_input else aff_items, k, seed=options.seed)
    sp_seconds = time.perf_counter() - started
    spectral_on = "input matrix" if on_input else "item affinity"

    return {
        "schema_version": SCHEMA_VERSION,
        "input": nmf_report["input"],
        "rank": nmf_report["rank"],
        "seed": options.seed,
        "nmf": nmf_report,
        "kmeans": _baseline(km_part, km_seconds, aff_items, item_labels, inertia=inertia),
        "spectral": _baseline(
            sp_part, sp_seconds, aff_items, item_labels, operates_on=spectral_on
        ),
    }


def _read_report(report, item_labels, feature_labels):
    # the data, factors and labels evaluate_report works on: first the keys
    # it needs are checked to be there, then each of its six keys in report
    # order.  The caller's labels win over stored ones, stored over planted.
    if not isinstance(report, dict):
        raise SpecError(f"report must be a JSON object, got a {type(report).__name__}")
    for key in ("schema_version", "basis", "coefficients"):
        if key not in report:
            raise SpecError(f"report has no {key!r}; cannot re-evaluate")
    if report["schema_version"] != SCHEMA_VERSION:
        raise SpecError(f"report schema_version must be {SCHEMA_VERSION!r}, "
                        f"got {report['schema_version']!r}")
    source = report.get("input")
    source = source if isinstance(source, dict) else {}
    if "spec" in source:
        try:
            spec = SyntheticSpec(**source["spec"])
        except TypeError as exc:
            raise SpecError(f"report input spec is malformed: {exc}") from None
        data, *planted = generate(spec)
    elif "path" in source:
        data, planted = _read_matrix_file(source)[0], (None, None)
    else:
        raise SpecError(
            "report input descriptor has neither a spec nor a path; cannot re-evaluate")
    basis, coef = (require_nonnegative(as_matrix(report[key], key), key)
                   for key in ("basis", "coefficients"))
    labels = [item_labels, feature_labels]
    for i, key in enumerate(("item_labels", "feature_labels")):
        stored, count = report.get(key), data.shape[1 - i]  # n items, m features
        if labels[i] is None and stored is not None:
            if (not isinstance(stored, list) or len(stored) != count
                    or any(_as_int(label) is None or not 0 <= label < 2**63 for label in stored)):
                raise SpecError(f"report's {key!r} must be a list of {count} non-negative integers")
            labels[i] = Partition(np.asarray(stored), max(stored) + 1)
        if labels[i] is None:
            labels[i] = planted[i]
    return data, basis, coef, *labels


def evaluate_report(report, item_labels=None, feature_labels=None):
    """Recompute all metrics of a report from its stored factors.

    Labels fall back to the ones recorded in the report (or planted by
    the regenerated spec).  Metrics missing their inputs come back as
    explicit None.  Matches the original report within 1e-10 because the
    stored factors and the reloaded data round-trip exactly.  A malformed
    report raises SpecError, or, for a stored factor that is not a finite
    nonnegative matrix, the ShapeError or DomainError that names it.
    """
    data, basis, coef, item_labels, feature_labels = _read_report(
        report, item_labels, feature_labels)
    return {
        "schema_version": SCHEMA_VERSION,
        "objective": frobenius_objective(data, basis, coef),
        **evaluate_factors(data, basis, coef, item_labels, feature_labels),
    }


def _sweep_cell(cell_spec, solver, options):
    data, items, features = generate(cell_spec)
    return run_experiment(
        data,
        cell_spec.k,
        solver=solver,
        options=options,
        item_labels=items,
        feature_labels=features,
        source={"spec": cell_spec.as_dict()},
    )


def run_sweep(spec, solvers, seeds, lambdas, base_options=None):
    """Run the (solver, seed, lambda) grid serially and deterministically.

    Every cell regenerates its dataset with the cell's seed (which also
    seeds the solver) so cells are independent.  Returns one report per
    cell in (solver, seed, lambda) sort order; a value repeated in
    ``solvers``, ``seeds`` or ``lambdas`` runs once.  Every cell's seed,
    lambda, solver and ortho mode are checked before the first cell runs,
    and the first faulty cell in the order given raises.  Cells whose
    solver runs with equal options run once: mu and anls run unpenalized,
    so each is computed once per seed and its report repeated for each
    lambda, sharing its nested lists and differing only in ``lambda``.
    """
    if base_options is None:
        base_options = SolverOptions()
    solvers, seeds, lambdas = (list(dict.fromkeys(axis)) for axis in (solvers, seeds, lambdas))
    if not seeds:
        raise SpecError("empty seed range")
    if not solvers:
        raise SpecError("no solvers selected")
    cells = [(solver, replace(spec, seed=seed), lam,
              _runs_with(solver, replace(base_options, seed=seed, penalty=lam)))
             for solver, seed, lam in product(solvers, seeds, lambdas or [0.0])]
    runs = {}
    reports = []
    for solver, cell_spec, lam, options in sorted(cells, key=lambda c: (c[0], c[1].seed, c[2])):
        if (solver, options) not in runs:
            runs[solver, options] = _sweep_cell(cell_spec, solver, options)
        reports.append({**runs[solver, options], "lambda": lam})
    return reports


def summary_rows_to_csv(reports):
    """Render sweep reports as the summary CSV text (header + one row/cell)."""
    lines = [",".join(SUMMARY_COLUMNS)]
    for rep in reports:
        rendered = []
        for col in SUMMARY_COLUMNS:
            value = rep[col]
            if value is None:
                rendered.append("")
            elif isinstance(value, float):
                rendered.append(repr(value))
            else:
                rendered.append(str(value))
        lines.append(",".join(rendered))
    return "\n".join(lines) + "\n"
