"""The nmf-cluster command line tool.

Subcommands: gen (synthetic datasets), factorize (one solver run with a
JSON report), evaluate (recompute metrics from a stored report), sweep
(a (solver, seed, lambda) grid with a summary CSV), and compare
(factorization against the k-means and spectral baselines).

Exit codes: 0 success (a non-converged solver run still succeeds and
reports converged=false), 1 usage or invalid specification, 2 I/O or
parse failure, 3 data outside the valid domain.
"""

import argparse
import functools
import json
import os
import sys
from dataclasses import fields

from .data_io import (
    KINDS,
    SyntheticSpec,
    _read_matrix_file,
    generate,
    read_labels,
    read_text,
    write_labels,
    write_matrix_market,
)
from .errors import ConvergenceError, DegenerateFactorError, DomainError, ParseError
from .experiment import (
    evaluate_report,
    run_compare,
    run_experiment,
    run_sweep,
    summary_rows_to_csv,
)
from .solvers import DIAGNOSTIC_STRIDE, ORTHO_MODES, SOLVERS, SolverOptions

__all__ = ["main"]


class _UsageError(ValueError):
    # exits 1 through main's ValueError clause, like an invalid specification
    pass


class _Parser(argparse.ArgumentParser):
    # route argparse's own failures through the exit-code policy
    def error(self, message):
        raise _UsageError(message)


def _emit(payload, out_path):
    text = json.dumps(payload, indent=2)
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _add_spec_flags(p):
    p.add_argument("--kind", required=True, choices=KINDS, help="dataset family")
    p.add_argument("--m", type=int, default=SyntheticSpec.m,
                   help="feature count (matrix kinds only)")
    p.add_argument("--n", type=int, required=True,
                   help="item count, or vertex count for graph kinds")
    p.add_argument("--k", type=int, required=True, help="planted cluster count")
    p.add_argument("--noise", type=float, default=SyntheticSpec.noise,
                   help="off-block / additive noise level in [0, 1)")
    p.add_argument("--overlap", type=float, default=SyntheticSpec.overlap,
                   help="non-dominant topic weight (mixture-docs)")


def _add_solver_flags(p, with_seed=True):
    p.add_argument("--max-iterations", type=int, default=SolverOptions.max_iterations)
    p.add_argument("--tolerance", type=float, default=SolverOptions.tolerance)
    p.add_argument("--window", type=int, default=SolverOptions.window)
    if with_seed:
        p.add_argument("--seed", type=int, default=SolverOptions.seed)
    p.add_argument("--restarts", type=int, default=SolverOptions.restarts)
    p.add_argument("--epsilon-guard", type=float, default=SolverOptions.epsilon_guard)


def _from_args(cls, args, **overrides):
    # a SolverOptions or SyntheticSpec from the flags whose dest names one of
    # its fields (a field with no flag keeps its default), then ``overrides``
    given = {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}
    return cls(**given, **overrides)


def _labels_from_args(args):
    # the planted item and feature labels named by --labels/--feature-labels
    return tuple(read_labels(path) if path else None
                 for path in (args.labels, args.feature_labels))


def _parse_seeds(text):
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            seeds = list(range(int(lo), int(hi) + 1))
        else:
            seeds = [int(text)]
    except ValueError:
        raise _UsageError(f"--seeds wants an integer or a..b range, got {text!r}") from None
    if not seeds:
        raise _UsageError(f"empty seed range {text!r}")
    return seeds


def cmd_gen(args):
    spec = _from_args(SyntheticSpec, args)
    matrix, items, features = generate(spec)
    if args.out_feature_labels and features is None:
        raise _UsageError(f"kind {spec.kind!r} has no separate feature labels")
    write_matrix_market(args.out_matrix, matrix)
    write_labels(args.out_labels, items)
    if args.out_feature_labels:
        write_labels(args.out_feature_labels, features)
    print(json.dumps(spec.as_dict(), indent=2))
    return 0


def _check_ortho_flags(args):
    if args.solver == "ortho":
        if args.ortho_mode == "none":
            raise _UsageError("--solver ortho needs --ortho-mode "
                              "rows_of_C, cols_of_B, or both")
    else:
        if args.ortho_mode != "none":
            raise _UsageError("--ortho-mode requires --solver ortho")
        if args.penalty != 0.0:
            raise _UsageError("--lambda requires --solver ortho")


def _run_on_input(run, args, **extra):
    # load --input and the label files, build the solver options, call
    # run_experiment or run_compare as ``run`` and emit its report
    data, source = _read_matrix_file(args.input)
    item_labels, feature_labels = _labels_from_args(args)
    report = run(
        data,
        args.k,
        options=_from_args(SolverOptions, args),
        item_labels=item_labels,
        feature_labels=feature_labels,
        source=source,
        **extra,
    )
    _emit(report, args.out)
    return 0


def cmd_factorize(args):
    _check_ortho_flags(args)
    return _run_on_input(run_experiment, args, solver=args.solver, include_trace=args.trace)


def cmd_evaluate(args):
    report = json.loads(read_text(args.report))
    item_labels, feature_labels = _labels_from_args(args)
    metrics = evaluate_report(
        report, item_labels=item_labels, feature_labels=feature_labels
    )
    _emit(metrics, args.out)
    return 0


def cmd_sweep(args):
    if "ortho" in args.solvers and args.ortho_mode == "none":
        raise _UsageError("sweeping the ortho solver needs --ortho-mode")
    if args.ortho_mode != "none" and "ortho" not in args.solvers:
        raise _UsageError("--ortho-mode requires the ortho solver")
    seeds = _parse_seeds(args.seeds)
    reports = run_sweep(
        _from_args(SyntheticSpec, args, seed=seeds[0]),
        solvers=args.solvers,
        seeds=seeds,
        lambdas=args.lambdas,
        base_options=_from_args(SolverOptions, args),
    )
    os.makedirs(args.out, exist_ok=True)
    for rep in reports:
        lam = rep["lambda"]
        tag = f"{lam:g}" if float(f"{lam:g}") == lam else repr(lam)  # one file each
        name = f"report_{rep['solver']}_seed{rep['seed']}_lam{tag}.json"
        _emit(rep, os.path.join(args.out, name))
    summary_path = os.path.join(args.out, "summary.csv")
    with open(summary_path, "w", encoding="ascii") as fh:
        fh.write(summary_rows_to_csv(reports))
    print(summary_path)
    return 0


def cmd_compare(args):
    return _run_on_input(run_compare, args)


@functools.cache  # built on the first main call, then reused
def _build_parser():
    parser = _Parser(
        prog="nmf-cluster",
        description="NMF-based clustering: solvers, metrics, and baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    _add_spec_flags(p)
    p.add_argument("--seed", type=int, default=SyntheticSpec.seed)
    p.add_argument("--out-matrix", default="matrix.mtx",
                   help="MatrixMarket output path")
    p.add_argument("--out-labels", default="labels.csv",
                   help="planted item/vertex label path")
    p.add_argument("--out-feature-labels", default=None,
                   help="planted feature label path (block-diagonal only)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("factorize", help="run one solver, write a report")
    p.add_argument("--input", required=True,
                   help="matrix file (.csv for CSV, MatrixMarket otherwise)")
    p.add_argument("--k", type=int, required=True, help="factorization rank")
    p.add_argument("--solver", default="mu", choices=SOLVERS)
    p.add_argument("--ortho-mode", default=SolverOptions.ortho_mode, choices=ORTHO_MODES)
    p.add_argument("--lambda", dest="penalty", type=float, default=SolverOptions.penalty,
                   help="orthogonality penalty weight")
    _add_solver_flags(p)
    p.add_argument("--labels", default=None, help="planted item labels")
    p.add_argument("--feature-labels", default=None)
    p.add_argument("--trace", action="store_true",
                   help="include the trace in the report: the objective at "
                        "every iteration, the KKT and Gram diagnostics every "
                        f"{DIAGNOSTIC_STRIDE} iterations and at the final point")
    p.add_argument("--out", default=None, help="report path (default: stdout)")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("evaluate", help="recompute metrics from a report")
    p.add_argument("--report", required=True)
    p.add_argument("--labels", default=None,
                   help="item labels (defaults to the ones in the report)")
    p.add_argument("--feature-labels", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="run a (solver, seed, lambda) grid")
    _add_spec_flags(p)
    p.add_argument("--solvers", nargs="+", default=["mu"], choices=SOLVERS)
    p.add_argument("--seeds", required=True,
                   help="a..b inclusive range (or a single integer)")
    p.add_argument("--lambdas", nargs="+", type=float, default=[SolverOptions.penalty])
    p.add_argument("--ortho-mode", default=SolverOptions.ortho_mode, choices=ORTHO_MODES)
    _add_solver_flags(p, with_seed=False)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare",
                       help="factorize vs k-means vs spectral on one input")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    _add_solver_flags(p)
    p.add_argument("--labels", default=None)
    p.add_argument("--feature-labels", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 2
    except (DomainError, DegenerateFactorError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
