"""Reports, re-evaluation, the comparison harness, and sweeps."""

import json
import re
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from nmfcluster.data_io import SyntheticSpec, generate, write_matrix_market
from nmfcluster.errors import SpecError
from nmfcluster.metrics import Partition
from nmfcluster.experiment import (
    SCHEMA_VERSION,
    SUMMARY_COLUMNS,
    evaluate_report,
    run_compare,
    run_experiment,
    run_sweep,
    summary_rows_to_csv,
)
from nmfcluster import experiment, solvers
from nmfcluster.solvers import SolverOptions


SPEC = SyntheticSpec(kind="block-diagonal", m=8, n=8, k=2, noise=0.1, seed=0)

METRIC_KEYS = (
    "objective",
    "kkt_b",
    "kkt_c",
    "jb2",
    "jb2_norm",
    "jc2",
    "jc2_norm",
    "ra_items",
    "ra_features",
    "accuracy",
    "nmi",
    "feature_accuracy",
    "feature_nmi",
)


def _small_report(**kwargs):
    data, items, features = generate(SPEC)
    return run_experiment(
        data,
        SPEC.k,
        solver="mu",
        options=SolverOptions(seed=0),
        item_labels=items,
        feature_labels=features,
        source={"spec": SPEC.as_dict()},
        **kwargs,
    )


def test_report_shape_and_serializability():
    report = _small_report()
    assert report["schema_version"] == SCHEMA_VERSION == "2"
    assert report["solver"] == "mu"
    assert report["rank"] == 2
    assert isinstance(report["basis"], list)
    assert isinstance(report["coefficients"], list)
    assert np.asarray(report["basis"]).shape == (8, 2)
    for key in METRIC_KEYS:
        value = report[key]
        assert value is not None and np.isfinite(value), key
    assert report["seconds"] >= 0.0
    # the whole thing must survive a JSON round trip unchanged
    assert json.loads(json.dumps(report)) == report


def test_report_with_a_numpy_integer_rank_is_json_ready():
    data, _, _ = generate(SPEC)
    report = run_experiment(data, np.int64(2), options=SolverOptions(max_iterations=5))
    assert report["rank"] == 2
    assert json.loads(json.dumps(report)) == report
    # NumPy floats as a tolerance and as the recorded spec's noise
    spec = replace(SPEC, noise=np.float32(0.1))
    data, _, _ = generate(spec)
    report = run_experiment(data, 2, source={"spec": spec.as_dict()},
                            options=SolverOptions(max_iterations=5, tolerance=np.float32(1e-3)))
    assert report["options"]["tolerance"] == float(np.float32(1e-3))
    assert report["input"]["spec"]["noise"] == float(np.float32(0.1))
    assert json.loads(json.dumps(report)) == report


def test_report_trace_is_opt_in():
    assert "trace" not in _small_report()
    with_trace = _small_report(include_trace=True)
    trace = with_trace["trace"]
    assert trace["iteration"][0] == 0
    assert len(trace["objective"]) == with_trace["iterations"] + 1
    assert "penalized" not in trace
    assert len(trace["kkt_basis"]) == len(trace["diagnostic_iteration"])
    assert trace["diagnostic_iteration"][-1] == with_trace["iterations"]


def test_missing_labels_give_none_metrics():
    data, _, _ = generate(SPEC)
    report = run_experiment(data, 2, solver="anls", options=SolverOptions(seed=0))
    assert report["accuracy"] is None
    assert report["nmi"] is None
    assert report["feature_accuracy"] is None
    assert report["item_labels"] is None
    assert report["input"] == {"shape": [8, 8]}


def test_evaluate_report_reproduces_spec_input():
    report = _small_report()
    again = evaluate_report(report)
    for key in METRIC_KEYS:
        want = report[key]
        assert again[key] == pytest.approx(want, abs=1e-10), key


def test_evaluate_report_reproduces_file_input(tmp_path):
    data, items, _ = generate(SPEC)
    path = tmp_path / "data.mtx"
    write_matrix_market(path, data)
    report = run_experiment(
        data,
        2,
        options=SolverOptions(seed=1),
        item_labels=items,
        source={"path": str(path), "format": "mtx"},
    )
    again = evaluate_report(report)
    assert again["objective"] == pytest.approx(report["objective"], abs=1e-10)
    assert again["accuracy"] == report["accuracy"]
    assert again["feature_accuracy"] is None


def test_evaluate_report_prefers_the_callers_labels():
    report = _small_report()
    assert report["accuracy"] == report["feature_accuracy"] == 1.0
    swapped = Partition(np.array([0, 1] * 4), 2)
    again = evaluate_report(report, item_labels=swapped, feature_labels=swapped)
    assert again["accuracy"] == again["feature_accuracy"] == 0.5
    # the stored labels still apply to whichever side the caller leaves out
    again = evaluate_report(report, item_labels=swapped)
    assert again["accuracy"] == 0.5 and again["feature_accuracy"] == 1.0


def test_evaluate_report_needs_a_source():
    report = _small_report()
    report["input"] = {"shape": [8, 8]}
    with pytest.raises(SpecError, match="neither a spec nor a path"):
        evaluate_report(report)


@pytest.mark.parametrize("path", [0, ["a.mtx"], None], ids=["fd0", "list", "none"])
def test_evaluate_report_needs_a_string_path(path):
    report = _small_report()
    report["input"] = {"path": path, "format": "mtx"}
    with pytest.raises(SpecError, match=re.escape(
            f"report input path must be a string, got {path!r}")):
        evaluate_report(report)


def test_run_experiment_rejects_an_unknown_solver():
    with pytest.raises(SpecError, match=re.escape(
            "solver must be one of ('mu', 'anls', 'ortho'), got 'bogus'")):
        run_experiment(np.eye(3), 1, solver="bogus")


def test_reports_record_the_options_mu_and_anls_ran_with():
    # mu and anls ignore ortho_mode and penalty, so their reports record
    # "none" and 0.0 whatever the caller passed, and their factors do not change
    data, _, _ = generate(SPEC)
    plain = SolverOptions(seed=1, max_iterations=40)
    ortho = replace(plain, ortho_mode="both", penalty=1.0)
    for solver in ("mu", "anls"):
        want = run_experiment(data, 2, solver, plain)
        got = run_experiment(data, 2, solver, ortho)
        assert (got["options"]["ortho_mode"], got["options"]["lambda"]) == ("none", 0.0)
        assert got["options"] == want["options"]
        assert (got["basis"], got["coefficients"]) == (want["basis"], want["coefficients"])
    want, got = run_compare(data, 2, plain), run_compare(data, 2, ortho)
    assert (got["nmf"]["options"]["ortho_mode"], got["nmf"]["options"]["lambda"]) == (
        "none", 0.0)
    for key in ("basis", "coefficients", "options"):
        assert got["nmf"][key] == want["nmf"][key], key
    assert got["kmeans"]["labels"] == want["kmeans"]["labels"]


def test_compare_structure():
    data, items, features = generate(SPEC)
    comparison = run_compare(
        data,
        2,
        options=SolverOptions(seed=0, restarts=3),
        item_labels=items,
        feature_labels=features,
    )
    assert set(comparison) >= {"nmf", "kmeans", "spectral"}
    assert comparison["nmf"]["solver"] == "mu"
    for name in ("kmeans", "spectral"):
        sub = comparison[name]
        assert len(sub["labels"]) == 8
        assert np.isfinite(sub["ra_items"])
        assert 0.0 <= sub["accuracy"] <= 1.0
        assert sub["seconds"] >= 0.0
    assert comparison["kmeans"]["inertia"] >= 0.0
    # a symmetric input is used as the affinity graph directly
    sym = np.ones((4, 4)) - np.eye(4)
    flat = run_compare(sym, 2, options=SolverOptions(seed=0))
    assert flat["spectral"]["operates_on"] == "input matrix"
    assert comparison["spectral"]["operates_on"] == "item affinity"


def _mask_seconds(csv_text):
    lines = csv_text.strip().splitlines()
    masked = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[-1] = "X"
        masked.append(",".join(cells))
    return "\n".join(masked)


def _direct_cell(spec, solver, options):
    # one sweep cell's report from the public run_experiment
    cell_spec = replace(spec, seed=options.seed)
    data, items, features = generate(cell_spec)
    return run_experiment(data, cell_spec.k, solver=solver, options=options,
                          item_labels=items, feature_labels=features,
                          source={"spec": cell_spec.as_dict()})


def test_sweep_grid_and_determinism():
    seeds = [0, 1]
    lambdas = [0.0, 0.5]
    options = SolverOptions(ortho_mode="rows_of_C")
    sweep = run_sweep(SPEC, ["mu", "ortho"], seeds, lambdas, base_options=options)
    cells = sorted((solver, seed, lam) for solver in ("mu", "ortho")
                   for seed in seeds for lam in lambdas)
    reference = [{**_direct_cell(SPEC, solver, replace(options, seed=seed, penalty=lam)),
                  "lambda": lam} for solver, seed, lam in cells]
    assert len(sweep) == 8
    keys = [(r["solver"], r["seed"], r["lambda"]) for r in sweep]
    assert keys == cells
    assert _mask_seconds(summary_rows_to_csv(sweep)) == _mask_seconds(
        summary_rows_to_csv(reference)
    )
    for got, want in zip(sweep, reference):
        got.pop("seconds")
        want.pop("seconds")
        assert got == want


@pytest.mark.parametrize("mode, cap, solvers, lambdas", [
    ("rows_of_C", 40, ["mu", "anls", "ortho"], [0.0, 0.2, 2.0]),
    ("cols_of_B", 40, ["mu", "anls", "ortho"], [0.0, 0.2, 2.0]),
    ("both", 20, ["mu", "anls", "ortho"], [0.0, 0.2, 2.0]),
    ("rows_of_C", 40, ["ortho"], [0.0, 0.2, 2.0]),
    ("rows_of_C", 40, ["mu", "anls", "ortho"], [0.2, 2.0]),
], ids=["rows_of_C-40", "cols_of_B-40", "both-20", "ortho-only", "no-lambda-0"])
def test_sweep_equals_each_cell_run_alone(mode, cap, solvers, lambdas):
    # the stacked MU solve gives each cell the report that run_experiment
    # gives it alone, apart from seconds, whether or not a mu cell shares
    # its solve with a lambda = 0 ortho cell; some cells run to the cap
    # while others stop earlier, so the stack shrinks on the way
    options = SolverOptions(ortho_mode=mode, restarts=2, max_iterations=cap,
                            tolerance=1e-4, window=5)
    grid = run_sweep(SPEC, solvers, [0, 1], lambdas, options)
    stops = {r["iterations"] for r in grid if r["solver"] != "anls"}
    assert cap in stops and min(stops) < cap
    for rep in grid:
        want = _direct_cell(SPEC, rep["solver"],
                            replace(options, seed=rep["seed"], penalty=rep["lambda"]))
        assert {**rep, "seconds": None} == {**want, "seconds": None, "lambda": rep["lambda"]}


def test_sweep_seconds_split_the_solve_time():
    # every cell's seconds is its even share of the stacked solve that made
    # it, and the mu and ortho cells share one MU solve, so one value
    grid = run_sweep(SPEC, ["mu", "ortho"], [0, 1], [0.0, 0.5],
                     base_options=SolverOptions(ortho_mode="rows_of_C", max_iterations=20))
    assert len({r["seconds"] for r in grid}) == 1


@pytest.fixture
def solver_calls(monkeypatch):
    # the step and the number of problems of each stacked solve that
    # experiment makes
    calls = []
    run = experiment._run

    def counting(problems, step):
        calls.append((step, len(problems)))
        return run(problems, step)

    monkeypatch.setattr(experiment, "_run", counting)
    return calls


def test_sweep_runs_each_lambda_blind_cell_once(solver_calls):
    # one MU solve of 2 seeds x (mu at lambda 0, ortho at 0.5 and 1.0): each
    # lambda = 0 ortho cell shares its seed's mu problem; anls one per seed
    reports = run_sweep(SPEC, ["mu", "anls", "ortho"], [0, 1], [0.0, 0.5, 1.0],
                        base_options=SolverOptions(ortho_mode="rows_of_C"))
    assert solver_calls == [(solvers._anls_sweep, 1), (solvers._anls_sweep, 1),
                            (solvers._mu_update, 6)]
    assert len(reports) == 18
    first = {(r["solver"], r["seed"]): r for r in reports if r["lambda"] == 0.0}
    for rep in reports:
        if rep["solver"] != "ortho":
            assert {**rep, "lambda": 0.0} == first[(rep["solver"], rep["seed"])]


ORTHO = SolverOptions(ortho_mode="rows_of_C")


@pytest.mark.parametrize("solvers, seeds, lambdas, options, error, message", [
    (["mu", "ortho"], [0, 1], [0.0], SolverOptions(), ValueError,
     "nmf_orthogonal requires ortho_mode in {rows_of_C, cols_of_B, both}; "
     "use nmf_multiplicative for the unpenalized problem"),
    (["mu"], [0, 1.5], [0.0], None, SpecError, "seed must be an integer, got 1.5"),
    (["mu"], [0, "3"], [0.0], None, SpecError, "seed must be an integer, got '3'"),
    (["mu", "pca"], [0], [0.0], None, SpecError,
     "solver must be one of ('mu', 'anls', 'ortho'), got 'pca'"),
    (["mu", "ortho"], [0, 1], [0.0, -1.0], ORTHO, ValueError,
     "penalty must be finite and >= 0, got -1.0"),
    (["mu"], [0], [0.0, "0.5"], None, ValueError, "penalty must be a number, got '0.5'"),
], ids=["ortho-without-mode", "seed-1.5", "seed-str", "unknown-solver", "bad-lambda",
        "lambda-str"])
def test_sweep_raises_before_its_first_cell_runs(
        solver_calls, solvers, seeds, lambdas, options, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
        run_sweep(SPEC, solvers, seeds, lambdas, base_options=options)
    assert type(raised.value) is error
    assert solver_calls == []


def test_sweep_runs_a_repeated_value_once():
    grid = run_sweep(SPEC, ["ortho", "mu", "ortho"], [1, 0, 1], [0.5, 0.0, 0.5],
                     base_options=SolverOptions(ortho_mode="rows_of_C", max_iterations=20))
    assert [(r["solver"], r["seed"], r["lambda"]) for r in grid] == sorted(
        product(("mu", "ortho"), (0, 1), (0.0, 0.5)))


def test_sweep_lambda_is_the_checked_float():
    # the top-level lambda is the float the options hold, which ortho records
    grid = run_sweep(SPEC, ["mu", "ortho"], [0], [1, np.float32(0.5)],
                     base_options=SolverOptions(ortho_mode="rows_of_C", max_iterations=5))
    assert [(r["solver"], r["lambda"]) for r in grid] == [
        ("mu", 0.5), ("mu", 1.0), ("ortho", 0.5), ("ortho", 1.0)]
    assert all(type(r["lambda"]) is float for r in grid)
    assert [r["options"]["lambda"] for r in grid] == [0.0, 0.0, 0.5, 1.0]
    assert json.loads(json.dumps(grid)) == grid


def test_sweep_cell_matches_direct_run():
    cell = run_sweep(SPEC, ["mu"], [3], [0.0])[0]
    cell_spec = SyntheticSpec(kind=SPEC.kind, m=SPEC.m, n=SPEC.n, k=SPEC.k,
                              noise=SPEC.noise, seed=3)
    data, items, features = generate(cell_spec)
    direct = run_experiment(
        data, 2, solver="mu", options=SolverOptions(seed=3),
        item_labels=items, feature_labels=features,
    )
    assert cell["objective"] == direct["objective"]
    assert cell["item_labels_pred"] == direct["item_labels_pred"]


def test_sweep_input_validation():
    with pytest.raises(SpecError, match="seed"):
        run_sweep(SPEC, ["mu"], [], [0.0])
    with pytest.raises(SpecError, match="solver"):
        run_sweep(SPEC, [], [0], [0.0])
    with pytest.raises(SpecError, match=re.escape(
            "solver must be one of ('mu', 'anls', 'ortho'), got 'pca'")):
        run_sweep(SPEC, ["pca"], [0], [0.0])
    for lam in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=re.escape(
                f"penalty must be finite and >= 0, got {lam}")):
            run_sweep(SPEC, ["mu", "anls"], [0], [0.0, lam])


def test_summary_header_and_blank_none(monkeypatch):
    assert ",".join(SUMMARY_COLUMNS) == (
        "solver,seed,lambda,objective,kkt_b,kkt_c,jb2_norm,jc2_norm,"
        "ra_items,accuracy,nmi,seconds"
    )
    data, _, _ = generate(SPEC)
    report = run_experiment(data, 2, options=SolverOptions(seed=0))
    report["lambda"] = 0.0
    lines = summary_rows_to_csv([report]).strip().splitlines()
    assert lines[0] == ",".join(SUMMARY_COLUMNS)
    cells = lines[1].split(",")
    accuracy_col = SUMMARY_COLUMNS.index("accuracy")
    assert cells[accuracy_col] == ""  # unlabeled data leaves the field blank
