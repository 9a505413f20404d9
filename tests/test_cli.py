"""Driving the CLI through main(argv) plus one real subprocess check.

Exit-code policy under test: 0 success, 1 usage/spec, 2 I/O or parse,
3 domain violations in the data.

The subprocess check runs an installed ``nmf-cluster`` when one is on
PATH. On a checkout used through PYTHONPATH without installing, it reads
the ``nmf-cluster`` entry point from ``pyproject.toml`` and runs it in a
fresh interpreter, the way pip's generated wrapper does, with the
directory this test imported ``nmfcluster`` from on the child's
PYTHONPATH.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nmfcluster
from nmfcluster import cli
from nmfcluster.cli import main
from nmfcluster.data_io import SyntheticSpec, read_matrix_market, write_csv_matrix
from nmfcluster.solvers import SolverOptions


def _gen(tmp_path, seed=0, **over):
    args = {
        "kind": "block-diagonal",
        "m": "8",
        "n": "8",
        "k": "2",
        "noise": "0.1",
    }
    args.update({k: str(v) for k, v in over.items()})
    matrix = tmp_path / "a.mtx"
    labels = tmp_path / "y.txt"
    rc = main(
        [
            "gen",
            "--kind", args["kind"],
            "--m", args["m"],
            "--n", args["n"],
            "--k", args["k"],
            "--noise", args["noise"],
            "--seed", str(seed),
            "--out-matrix", str(matrix),
            "--out-labels", str(labels),
        ]
    )
    return rc, matrix, labels


def test_gen_writes_files_and_echoes_spec(tmp_path, capsys):
    rc, matrix, labels = _gen(tmp_path)
    assert rc == 0
    echoed = json.loads(capsys.readouterr().out)
    assert echoed["kind"] == "block-diagonal"
    assert echoed["seed"] == 0
    assert matrix.exists() and labels.exists()
    assert read_matrix_market(matrix).shape == (8, 8)


def test_gen_rerun_is_byte_identical(tmp_path):
    (tmp_path / "one").mkdir()
    (tmp_path / "two").mkdir()
    _, m1, _ = _gen(tmp_path / "one", seed=5)
    _, m2, _ = _gen(tmp_path / "two", seed=5)
    assert m1.read_bytes() == m2.read_bytes()


def test_gen_rejects_bad_rank(tmp_path, capsys):
    (tmp_path / "one").mkdir(exist_ok=True)
    rc, _, _ = _gen(tmp_path, k=100, n=10)
    assert rc == 1
    assert "k must be in" in capsys.readouterr().err


def test_gen_rejects_non_finite_overlap(tmp_path, capsys):
    for overlap in ("nan", "inf"):
        rc = main(["gen", "--kind", "block-diagonal", "--m", "8", "--n", "8",
                   "--k", "2", "--overlap", overlap,
                   "--out-matrix", str(tmp_path / "a.mtx"),
                   "--out-labels", str(tmp_path / "y.txt")])
        assert rc == 1
        assert "overlap must be finite" in capsys.readouterr().err
    assert not (tmp_path / "a.mtx").exists()


def test_gen_refusal_writes_nothing(tmp_path, capsys):
    matrix, labels = tmp_path / "a.mtx", tmp_path / "y.txt"
    rc = main(
        [
            "gen",
            "--kind", "mixture-docs",
            "--m", "12", "--n", "10", "--k", "2",
            "--out-matrix", str(matrix),
            "--out-labels", str(labels),
            "--out-feature-labels", str(tmp_path / "f.csv"),
        ]
    )
    assert rc == 1
    assert "has no separate feature labels" in capsys.readouterr().err
    assert not matrix.exists() and not labels.exists()


def test_gen_refuses_a_nonzero_m_for_a_graph_kind(tmp_path, capsys):
    matrix = tmp_path / "a.mtx"
    rc = main(["gen", "--kind", "planted-graph", "--n", "4", "--k", "2", "--m", "-3",
               "--out-matrix", str(matrix), "--out-labels", str(tmp_path / "y.txt")])
    assert rc == 1
    assert capsys.readouterr().err == "error: m must be 0 for planted-graph, got -3\n"
    assert not matrix.exists()


def test_gen_writes_block_diagonal_feature_labels(tmp_path, capsys):
    features = tmp_path / "f.txt"
    rc = main(["gen", "--kind", "block-diagonal", "--m", "7", "--n", "6", "--k", "3",
               "--out-matrix", str(tmp_path / "a.mtx"),
               "--out-labels", str(tmp_path / "y.txt"),
               "--out-feature-labels", str(features)])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["m"] == 7
    assert features.read_text() == "0\n0\n0\n1\n1\n2\n2\n"


@pytest.fixture
def dataset(tmp_path):
    subdir = tmp_path / "data"
    subdir.mkdir()
    rc, matrix, labels = _gen(subdir)
    assert rc == 0
    return matrix, labels


def test_factorize_report(dataset, tmp_path, capsys):
    matrix, labels = dataset
    out = tmp_path / "report.json"
    rc = main(
        [
            "factorize",
            "--input", str(matrix),
            "--k", "2",
            "--labels", str(labels),
            "--seed", "0",
            "--out", str(out),
        ]
    )
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["solver"] == "mu"
    assert report["converged"] is True
    assert report["accuracy"] == 1.0
    assert "trace" not in report

    # a second identical invocation reproduces the objective exactly
    out2 = tmp_path / "report2.json"
    main(["factorize", "--input", str(matrix), "--k", "2",
          "--labels", str(labels), "--seed", "0", "--out", str(out2)])
    again = json.loads(out2.read_text())
    assert again["objective"] == report["objective"]
    assert again["basis"] == report["basis"]


def test_factorize_trace_flag(dataset, tmp_path):
    matrix, _ = dataset
    out = tmp_path / "report.json"
    rc = main(["factorize", "--input", str(matrix), "--k", "2",
               "--trace", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["trace"]["iteration"][0] == 0


def test_factorize_ortho_trace_records_the_penalized_objective(dataset, tmp_path):
    matrix, _ = dataset
    out = tmp_path / "report.json"
    rc = main(["factorize", "--input", str(matrix), "--k", "2", "--solver", "ortho",
               "--ortho-mode", "both", "--lambda", "0.5", "--trace", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    trace = report["trace"]
    assert len(trace["penalized"]) == len(trace["objective"]) == report["iterations"] + 1
    assert all(p >= f for p, f in zip(trace["penalized"], trace["objective"]))


def test_factorize_non_converged_still_succeeds(dataset, tmp_path):
    matrix, _ = dataset
    out = tmp_path / "report.json"
    rc = main(["factorize", "--input", str(matrix), "--k", "2",
               "--max-iterations", "3", "--tolerance", "1e-15",
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["converged"] is False
    assert report["iterations"] == 3


def test_factorize_usage_errors(dataset, tmp_path, capsys):
    matrix, _ = dataset
    assert main(["factorize", "--input", str(matrix), "--k", "0"]) == 1
    assert "k must be in" in capsys.readouterr().err

    assert main(["factorize", "--input", str(matrix), "--k", "2",
                 "--solver", "ortho"]) == 1
    assert "--ortho-mode" in capsys.readouterr().err

    assert main(["factorize", "--input", str(matrix), "--k", "2",
                 "--ortho-mode", "rows_of_C"]) == 1
    assert "--solver ortho" in capsys.readouterr().err

    assert main(["factorize", "--input", str(matrix), "--k", "2",
                 "--lambda", "0.5"]) == 1
    assert capsys.readouterr().err == "error: --lambda requires --solver ortho\n"

    assert main(["factorize", "--input", str(matrix), "--k", "2", "--solver", "ortho",
                 "--ortho-mode", "rows_of_C", "--lambda", "nan"]) == 1
    assert "penalty must be finite" in capsys.readouterr().err


def test_factorize_missing_input(tmp_path, capsys):
    rc = main(["factorize", "--input", str(tmp_path / "absent.mtx"), "--k", "2"])
    assert rc == 2


def test_factorize_header_too_large_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "huge.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    f"{2 ** 62} {2 ** 62} 2\n1 1 1.0\n5 1 2.0\n")
    assert main(["factorize", "--input", str(path), "--k", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: {2 ** 62} x {2 ** 62} matrix does not fit: "
                          "array is too big"), err


def test_factorize_negative_data(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n-3,4\n")
    rc = main(["factorize", "--input", str(bad), "--k", "1"])
    assert rc == 3
    assert "(1, 0)" in capsys.readouterr().err


def test_evaluate_round_trip(dataset, tmp_path, capsys):
    matrix, labels = dataset
    report_path = tmp_path / "report.json"
    main(["factorize", "--input", str(matrix), "--k", "2",
          "--labels", str(labels), "--out", str(report_path)])
    report = json.loads(report_path.read_text())

    rc = main(["evaluate", "--report", str(report_path)])
    assert rc == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["objective"] == pytest.approx(report["objective"], abs=1e-10)
    assert metrics["accuracy"] == report["accuracy"]
    assert metrics["kkt_b"] == pytest.approx(report["kkt_b"], abs=1e-10)


def test_evaluate_report_of_a_csv_input(dataset, tmp_path, capsys):
    matrix, labels = dataset
    csv_path, report_path = tmp_path / "a.csv", tmp_path / "report.json"
    write_csv_matrix(csv_path, read_matrix_market(matrix))
    assert main(["factorize", "--input", str(csv_path), "--k", "2",
                 "--labels", str(labels), "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["input"] == {"path": str(csv_path), "format": "csv"}

    assert main(["evaluate", "--report", str(report_path)]) == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["objective"] == report["objective"]
    assert metrics["accuracy"] == report["accuracy"] == 1.0

    # the report is re-read from the CSV file, so a broken file is a parse error
    csv_path.write_text("1,2\n3\n")
    assert main(["evaluate", "--report", str(report_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {csv_path}")


def test_evaluate_without_labels_gives_nulls(dataset, tmp_path, capsys):
    matrix, _ = dataset
    report_path = tmp_path / "report.json"
    main(["factorize", "--input", str(matrix), "--k", "2",
          "--out", str(report_path)])
    rc = main(["evaluate", "--report", str(report_path)])
    assert rc == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["accuracy"] is None
    assert metrics["nmi"] is None


def test_evaluate_corrupted_report(tmp_path, capsys):
    bad = tmp_path / "report.json"
    bad.write_text("{this is not json")
    rc = main(["evaluate", "--report", str(bad)])
    assert rc == 2
    assert "JSON" in capsys.readouterr().err


@pytest.mark.parametrize("flag, name, text", [
    ("--input", "u.mtx", "%%MatrixMarket matrix array real general\n% caf\u00e9\n1 1\n1.0\n"),
    ("--input", "m.csv", "1,2\n3,4\u00e9\n"),
    ("--labels", "y.txt", "0\n\u00e9\n"),
    ("--report", "r.json", '{\n"note": "caf\u00e9"}'),
])
def test_non_ascii_input_is_a_parse_error_naming_the_file(
        dataset, tmp_path, capsys, flag, name, text):
    matrix, _ = dataset
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    if flag == "--report":
        argv = ["evaluate", "--report", str(path)]
    else:
        argv = ["factorize", "--input", str(matrix), "--k", "2", flag, str(path)]
    assert main(argv) == 2
    assert f"{path}: not ASCII text, byte 0xc3 on line 2" in capsys.readouterr().err


@pytest.mark.parametrize("flag, message", [
    ("--input", "no data rows"),
    ("--labels", "no labels"),
])
def test_factorize_blank_file_is_a_parse_error(dataset, tmp_path, capsys, flag, message):
    matrix, _ = dataset
    path = tmp_path / "blank.csv"
    path.write_text("\n  \n")
    argv = ["factorize", "--input", str(matrix), "--k", "2", flag, str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_parser_is_built_once_and_reused_without_leaking_state(dataset, tmp_path, capsys):
    matrix, labels = dataset
    cli._build_parser.cache_clear()
    first, second = tmp_path / "traced.json", tmp_path / "plain.json"
    assert main(["factorize", "--input", str(matrix), "--k", "2", "--labels",
                 str(labels), "--trace", "--out", str(first)]) == 0
    assert main(["factorize", "--input", str(matrix), "--k", "2",
                 "--out", str(second)]) == 0
    traced, plain = (json.loads(p.read_text()) for p in (first, second))
    assert "trace" in traced and "trace" not in plain
    assert traced["accuracy"] == 1.0 and plain["accuracy"] is None

    gen = ["gen", "--kind", "planted-graph", "--n", "6", "--k", "2", "--seed", "3",
           "--out-labels", str(tmp_path / "g.txt")]
    assert main(gen + ["--out-matrix", str(tmp_path / "g1.mtx")]) == 0
    assert main(["gen", "--kind", "planted-graph", "--n", "6"]) == 1
    assert main(gen + ["--out-matrix", str(tmp_path / "g2.mtx")]) == 0
    assert (tmp_path / "g1.mtx").read_bytes() == (tmp_path / "g2.mtx").read_bytes()
    assert "required: --k" in capsys.readouterr().err
    assert cli._build_parser.cache_info().misses == 1


def test_evaluate_malformed_report(dataset, tmp_path, capsys):
    matrix, _ = dataset
    report_path = tmp_path / "report.json"
    assert main(["factorize", "--input", str(matrix), "--k", "2",
                 "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    spec = {"kind": "block-diagonal", "m": 8, "n": 8, "k": 2}
    cases = {
        "a list": ([report], "must be a JSON object"),
        "no basis": ({k: v for k, v in report.items() if k != "basis"}, "'basis'"),
        "no coefficients": (
            {k: v for k, v in report.items() if k != "coefficients"}, "'coefficients'"),
        "fractional n": ({**report, "input": {"spec": {**spec, "n": 8.5}}},
                         "n must be an integer"),
        "unknown field": ({**report, "input": {"spec": {**spec, "size": 8}}},
                          "spec is malformed"),
        "input not an object": ({**report, "input": 5}, "neither a spec nor a path"),
        "path fd 0": ({**report, "input": {"path": 0}}, "path must be a string, got 0"),
        "path a list": ({**report, "input": {"path": ["a.mtx"]}},
                        re.escape("path must be a string, got ['a.mtx']")),
    }
    for name, (payload, message) in cases.items():
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert main(["evaluate", "--report", str(bad)]) == 1, name
        err = capsys.readouterr().err
        assert err.startswith("error: "), name
        assert re.search(message, err), (name, err)


def _ragged_basis_error(basis):
    # as_matrix's text for a ragged stored basis wraps NumPy's own message
    try:
        np.asarray(basis, dtype=float)
    except ValueError as exc:
        return f"basis is not a numeric array: {exc}"
    raise AssertionError("the basis is not ragged")


def test_evaluate_refuses_what_it_cannot_read(dataset, tmp_path, capsys):
    # each stored key evaluate reads is checked: the schema version, the
    # input format and the factors, under their own names
    matrix, _ = dataset
    report_path = tmp_path / "report.json"
    assert main(["factorize", "--input", str(matrix), "--k", "2",
                 "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    ragged = [report["basis"][0][:1], *report["basis"][1:]]
    negative = [[-2.0, *report["coefficients"][0][1:]], *report["coefficients"][1:]]
    cases = [
        ({**report, "schema_version": "99"}, 1, "report schema_version must be '2', got '99'"),
        ({k: v for k, v in report.items() if k != "schema_version"}, 1,
         "report has no 'schema_version'; cannot re-evaluate"),
        ({**report, "input": {"path": str(matrix), "format": "xml"}}, 1,
         "report input format must be 'csv' or 'mtx', got 'xml'"),
        ({**report, "input": {"path": str(matrix)}}, 1,
         "report input format must be 'csv' or 'mtx', got None"),
        ({**report, "basis": ragged}, 1, _ragged_basis_error(ragged)),
        ({**report, "coefficients": negative}, 3,
         "coefficients has negative entry -2 at (0, 0)"),
    ]
    bad = tmp_path / "bad.json"
    for payload, code, message in cases:
        bad.write_text(json.dumps(payload))
        assert main(["evaluate", "--report", str(bad)]) == code, message
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_evaluate_malformed_stored_labels(dataset, tmp_path, capsys):
    # stored labels must be one non-negative integer per item or feature
    matrix, _ = dataset
    report_path = tmp_path / "report.json"
    assert main(["factorize", "--input", str(matrix), "--k", "2",
                 "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    bad = tmp_path / "bad.json"
    for key in ("item_labels", "feature_labels"):
        for labels in ([-1] * 8, [0.5] * 8, [1.0] * 8, [True] * 8, [], [[0]] * 8,
                       [0, 1] * 3, [0, 1] * 5, "01010101", 3,
                       # integers that do not fit int64
                       [0, 1, 0, 1, 0, 2**63, 0, 1], [0, 1, 0, 1, 0, 10**30, 0, 1]):
            bad.write_text(json.dumps({**report, key: labels}))
            assert main(["evaluate", "--report", str(bad)]) == 1, (key, labels)
            assert capsys.readouterr() == (
                "", f"error: report's '{key}' must be a list of 8 non-negative integers\n")
    bad.write_text(json.dumps({**report, "item_labels": [0, 1, 2, 0, 1, 2, 0, 1]}))
    assert main(["evaluate", "--report", str(bad)]) == 0
    assert json.loads(capsys.readouterr().out)["accuracy"] is not None


def _mask_seconds(csv_text):
    lines = csv_text.strip().splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[-1] = "X"
        out.append(",".join(cells))
    return "\n".join(out)


def test_sweep_outputs(tmp_path, capsys):
    def run(out_dir):
        return main(
            [
                "sweep",
                "--kind", "block-diagonal",
                "--m", "8", "--n", "8", "--k", "2", "--noise", "0.1",
                "--solvers", "mu", "ortho",
                "--ortho-mode", "rows_of_C",
                "--seeds", "0..1",
                "--lambdas", "0", "0.5",
                "--out", str(out_dir),
            ]
        )

    assert run(tmp_path / "one") == 0
    capsys.readouterr()
    assert run(tmp_path / "two") == 0
    capsys.readouterr()

    names = sorted(p.name for p in (tmp_path / "one").iterdir())
    assert "summary.csv" in names
    assert "report_mu_seed0_lam0.json" in names
    assert "report_ortho_seed1_lam0.5.json" in names
    assert len(names) == 9  # 2 solvers x 2 seeds x 2 lambdas + summary

    s1 = (tmp_path / "one" / "summary.csv").read_text()
    s2 = (tmp_path / "two" / "summary.csv").read_text()
    assert s1.splitlines()[0] == (
        "solver,seed,lambda,objective,kkt_b,kkt_c,jb2_norm,jc2_norm,"
        "ra_items,accuracy,nmi,seconds"
    )
    assert _mask_seconds(s1) == _mask_seconds(s2)

    r1 = json.loads((tmp_path / "one" / "report_mu_seed0_lam0.json").read_text())
    r2 = json.loads((tmp_path / "two" / "report_mu_seed0_lam0.json").read_text())
    r1["seconds"] = r2["seconds"] = 0.0
    assert r1 == r2


def test_sweep_lambdas_that_round_alike_get_their_own_files(tmp_path, capsys):
    rc = main(
        [
            "sweep",
            "--kind", "block-diagonal",
            "--m", "8", "--n", "8", "--k", "2",
            "--solvers", "mu", "ortho",
            "--ortho-mode", "rows_of_C",
            "--seeds", "0",
            "--lambdas", "0.1", "0.1000001",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    names = {p.name for p in tmp_path.iterdir()}
    for solver in ("mu", "ortho"):
        assert f"report_{solver}_seed0_lam0.1.json" in names
        assert f"report_{solver}_seed0_lam0.1000001.json" in names
    ortho = json.loads((tmp_path / "report_ortho_seed0_lam0.1000001.json").read_text())
    assert ortho["lambda"] == 0.1000001


def test_sweep_runs_a_repeated_lambda_or_solver_once(tmp_path, capsys):
    rc = main(["sweep", "--kind", "block-diagonal", "--m", "8", "--n", "8", "--k", "2",
               "--solvers", "mu", "mu", "--seeds", "0", "--lambdas", "0", "0",
               "--out", str(tmp_path)])
    assert rc == 0
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "report_mu_seed0_lam0.json", "summary.csv"]
    assert len((tmp_path / "summary.csv").read_text().splitlines()) == 2


def test_sweep_empty_seed_range(tmp_path, capsys):
    rc = main(
        [
            "sweep",
            "--kind", "block-diagonal",
            "--m", "8", "--n", "8", "--k", "2",
            "--seeds", "5..3",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 1
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("seeds", ["a..b", "x", "1..", "1.5"])
def test_sweep_malformed_seeds(tmp_path, capsys, seeds):
    rc = main(["sweep", "--kind", "block-diagonal", "--m", "8", "--n", "8", "--k", "2",
               "--seeds", seeds, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: --seeds wants an integer or a..b range, got {seeds!r}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, message", [
    (["--solvers", "mu", "ortho"], "sweeping the ortho solver needs --ortho-mode"),
    (["--ortho-mode", "rows_of_C"], "--ortho-mode requires the ortho solver"),
    (["--lambdas", "-1"], "penalty must be finite and >= 0, got -1.0"),
    (["--lambdas", "0", "nan"], "penalty must be finite and >= 0, got nan"),
    (["--solvers", "anls", "--lambdas", "inf"], "penalty must be finite and >= 0, got inf"),
])
def test_sweep_ortho_flag_errors(tmp_path, capsys, flags, message):
    rc = main(["sweep", "--kind", "block-diagonal", "--m", "8", "--n", "8", "--k", "2",
               "--seeds", "0", *flags, "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_compare_merged_report(dataset, tmp_path):
    matrix, labels = dataset
    out = tmp_path / "cmp.json"
    rc = main(["compare", "--input", str(matrix), "--k", "2",
               "--labels", str(labels), "--restarts", "3", "--out", str(out)])
    assert rc == 0
    merged = json.loads(out.read_text())
    assert set(merged) >= {"nmf", "kmeans", "spectral"}
    assert merged["nmf"]["accuracy"] is not None
    assert merged["kmeans"]["accuracy"] is not None


def test_every_solver_and_spec_flag_reaches_its_field(dataset, tmp_path, capsys):
    # which SolverOptions and SyntheticSpec fields each subcommand takes from flags
    matrix, _ = dataset

    def options(report):
        given = dict(report["options"])
        penalty = given.pop("lambda")
        return SolverOptions(**given, penalty=penalty)

    solver_flags = ["--max-iterations", "7", "--tolerance", "0.001", "--window", "3",
                    "--restarts", "2", "--epsilon-guard", "1e-09"]
    solver = SolverOptions(max_iterations=7, tolerance=1e-3, window=3, restarts=2,
                           epsilon_guard=1e-9)
    spec_flags = ["--kind", "mixture-docs", "--m", "9", "--n", "7", "--k", "3",
                  "--noise", "0.2", "--overlap", "0.3"]
    spec = SyntheticSpec(kind="mixture-docs", m=9, n=7, k=3, noise=0.2, overlap=0.3)
    out = tmp_path / "out.json"

    assert main(["factorize", "--input", str(matrix), "--k", "2", "--solver", "ortho",
                 "--ortho-mode", "both", "--lambda", "0.5", "--seed", "4", *solver_flags,
                 "--out", str(out)]) == 0
    assert options(json.loads(out.read_text())) == replace(
        solver, seed=4, ortho_mode="both", penalty=0.5)

    assert main(["compare", "--input", str(matrix), "--k", "2", "--seed", "5",
                 *solver_flags, "--out", str(out)]) == 0
    assert options(json.loads(out.read_text())["nmf"]) == replace(solver, seed=5)

    capsys.readouterr()
    assert main(["gen", *spec_flags, "--seed", "6", "--out-matrix", str(tmp_path / "g.mtx"),
                 "--out-labels", str(tmp_path / "g.txt")]) == 0
    assert SyntheticSpec(**json.loads(capsys.readouterr().out)) == replace(spec, seed=6)

    assert main(["sweep", *spec_flags, "--solvers", "ortho", "--ortho-mode", "cols_of_B",
                 "--seeds", "2..3", "--lambdas", "0.25", *solver_flags,
                 "--out", str(tmp_path / "sweep")]) == 0
    for seed in (2, 3):
        report = json.loads(
            (tmp_path / "sweep" / f"report_ortho_seed{seed}_lam0.25.json").read_text())
        assert options(report) == replace(
            solver, seed=seed, ortho_mode="cols_of_B", penalty=0.25)
        assert SyntheticSpec(**report["input"]["spec"]) == replace(spec, seed=seed)


REPORT_KEYS = [
    "schema_version", "input", "solver", "options", "rank", "seed", "objective",
    "iterations", "converged", "seconds", "basis", "coefficients", "item_labels",
    "feature_labels",
]
EVALUATION_KEYS = [
    "kkt_b", "kkt_c", "jb2", "jb2_norm", "jc2", "jc2_norm", "item_labels_pred",
    "feature_labels_pred", "ra_items", "ra_features", "ra_items_oracle",
    "ra_features_oracle", "accuracy", "nmi", "feature_accuracy", "feature_nmi",
]


def test_report_layout(dataset, tmp_path):
    # the key order of every report section is part of the file format
    matrix, labels = dataset
    report_path, evaluation, comparison = (
        tmp_path / "report.json", tmp_path / "eval.json", tmp_path / "cmp.json")
    common = ["--input", str(matrix), "--k", "2", "--labels", str(labels)]
    assert main(["factorize", *common, "--out", str(report_path)]) == 0
    assert main(["evaluate", "--report", str(report_path), "--out", str(evaluation)]) == 0
    assert main(["compare", *common, "--out", str(comparison)]) == 0

    report = json.loads(report_path.read_text())
    assert list(report) == REPORT_KEYS + EVALUATION_KEYS
    assert list(report["options"]) == [
        "max_iterations", "tolerance", "window", "seed", "restarts",
        "epsilon_guard", "ortho_mode", "lambda",
    ]
    assert list(json.loads(evaluation.read_text())) == [
        "schema_version", "objective", *EVALUATION_KEYS]
    merged = json.loads(comparison.read_text())
    assert list(merged) == ["schema_version", "input", "rank", "seed", "nmf",
                            "kmeans", "spectral"]
    assert list(merged["nmf"]) == REPORT_KEYS + EVALUATION_KEYS
    scores = ["ra_items", "accuracy", "nmi", "seconds"]
    assert list(merged["kmeans"]) == ["labels", "inertia", *scores]
    assert list(merged["spectral"]) == ["labels", "operates_on", *scores]


def _console_script():
    """argv prefix and environment that run the ``nmf-cluster`` script."""
    installed = shutil.which("nmf-cluster")
    if installed:
        return [installed], None
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    module, attr = scripts["nmf-cluster"].split(":")
    code = (
        f"import sys; from {module} import {attr}; "
        f"sys.argv[0] = 'nmf-cluster'; sys.exit({attr}())"
    )
    env = dict(os.environ)
    src = str(Path(nmfcluster.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return [sys.executable, "-c", code], env


def test_console_script_smoke(tmp_path):
    command, env = _console_script()
    proc = subprocess.run(
        [
            *command, "gen",
            "--kind", "planted-graph",
            "--n", "6", "--k", "2",
            "--out-matrix", str(tmp_path / "g.mtx"),
            "--out-labels", str(tmp_path / "y.txt"),
        ],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["kind"] == "planted-graph"
    assert (tmp_path / "g.mtx").exists()


def test_import_leaves_scipy_optimize_unloaded():
    src = str(Path(nmfcluster.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, nmfcluster; print('scipy.optimize' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
