"""Reproduce the reference figures and findings quoted in bench/README.md.

Run from the root of a checkout, one figure at a time:

    python3 bench/figures.py machine     # nproc, versions, OpenBLAS build and threads
    python3 bench/figures.py ac2         # AC-2's 20 instances: MU, ANLS and mu_step time
    python3 bench/figures.py oracle      # RA oracle at n=12, k=3; evaluate_factors per side
    python3 bench/figures.py jacobi      # jacobi_eigen against numpy.linalg.eigh at n=80
    python3 bench/figures.py workers     # a 48-cell mu/ortho grid on 1 and on 2 workers
    python3 bench/figures.py calls       # oracle and affinity calls in one report journey
    python3 bench/figures.py degenerate  # rank-2 data with a zero column at k=4
    python3 bench/figures.py kkt [seed] [count]  # AC-2's KKT bound on fresh instances
    python3 bench/figures.py import      # fresh-interpreter import of the package
"""

import contextlib
import ctypes
import io
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import run  # puts the checkout's src/ on the import path

run.import_package()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import nmfcluster  # noqa: E402
from nmfcluster import SolverOptions, SyntheticSpec  # noqa: E402
from nmfcluster import cli, experiment, solvers  # noqa: E402

import checks  # noqa: E402
from tracing import Tracer, span_table  # noqa: E402


def timed(fn, *args, **kwargs):
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - started, result


def machine():
    print(f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"NumPy {np.__version__}, SciPy {scipy.__version__}")
    libs = sorted({line.split()[-1] for line in open("/proc/self/maps", encoding="ascii")
                   if "openblas" in line and line.split()[-1].endswith(".so")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym, restype in (("scipy_openblas_get_config64_", ctypes.c_char_p),
                             ("scipy_openblas_get_num_threads64_", ctypes.c_int)):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = restype
                print(f"{os.path.basename(path)} {sym}: {fn()}")
    unset = [k for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "NMF_CLUSTER_THREADS")
             if k not in os.environ]
    print(f"not set: {', '.join(unset)}")


def ac2():
    # the instances and settings of tests/test_acceptance.py::test_ac2
    rng = np.random.default_rng(2)
    tracer = Tracer()
    tracer.install()
    mu_s = anls_s = 0.0
    try:
        for i in range(20):
            m, n, k = int(rng.integers(8, 25)), int(rng.integers(8, 25)), int(rng.integers(2, 5))
            a = rng.random((m, n))
            mu_s += timed(solvers.nmf_multiplicative, a, k, SolverOptions(
                seed=i, restarts=5, max_iterations=8000, tolerance=1e-12, window=10))[0]
            anls_s += timed(solvers.nmf_anls, a, k, SolverOptions(
                seed=i, max_iterations=150, tolerance=1e-12, window=5))[0]
    finally:
        tracer.uninstall()
    step = span_table(tracer.spans(), tracer.names())["solvers.mu_step"]
    print(f"20 AC-2 instances, traced: MU {mu_s:.1f} s, ANLS {anls_s:.1f} s, "
          f"mu_step {step['self_s']:.1f} s over {step['calls']} calls")


def oracle():
    spec = SyntheticSpec(kind="planted-graph", n=12, k=3, noise=0.1, seed=0)
    data, _, _ = nmfcluster.generate(spec)
    w = nmfcluster.item_affinity(data)
    seconds, _ = timed(nmfcluster.brute_force_ratio_assoc, w, 3)
    pair, _ = nmfcluster.nmf_multiplicative(data, 3, SolverOptions(seed=0))
    both, _ = timed(nmfcluster.evaluate_factors, data, pair.basis, pair.coefficients)
    print(f"brute_force_ratio_assoc n=12 k=3: {seconds:.2f} s; "
          f"evaluate_factors (oracle on both sides): {both:.2f} s")


def jacobi():
    spec = SyntheticSpec(kind="planted-graph", n=80, k=4, noise=0.1, seed=0)
    data, _, _ = nmfcluster.generate(spec)
    np.linalg.eigh(data)  # the first LAPACK call pays for its set-up
    jac, _ = timed(nmfcluster.jacobi_eigen, data)
    eigh, _ = timed(np.linalg.eigh, data)
    print(f"n=80: jacobi_eigen {jac * 1e3:.0f} ms, numpy.linalg.eigh {eigh * 1e3:.2f} ms")


def workers():
    spec = SyntheticSpec(kind="block-diagonal", m=60, n=60, k=3, noise=0.05, seed=0)
    times = {1: [], 2: []}
    for _ in range(4):
        for count in (1, 2):
            times[count].append(timed(
                nmfcluster.run_sweep, spec, ["mu", "ortho"], range(6), [0.0, 0.1, 1.0, 10.0],
                SolverOptions(ortho_mode="rows_of_C"), max_workers=count)[0])
    for count, values in times.items():
        print(f"48-cell grid, max_workers={count}: median {statistics.median(values):.2f} s "
              f"of {', '.join(f'{v:.2f}' for v in values)}")


def calls():
    counted = {}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counted[name] = counted.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    names = ("brute_force_ratio_assoc", "item_affinity")
    originals = {name: getattr(experiment, name) for name in names}
    for name, fn in originals.items():
        setattr(experiment, name, counting(name, fn))
    journey = {}
    try:
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp, \
                contextlib.redirect_stdout(io.StringIO()):
            mtx, labels = os.path.join(tmp, "g.mtx"), os.path.join(tmp, "g.csv")
            report = os.path.join(tmp, "r.json")
            cli.main(["gen", "--kind", "planted-graph", "--n", "10", "--k", "3",
                      "--noise", "0.1", "--out-matrix", mtx, "--out-labels", labels])
            cli.main(["factorize", "--input", mtx, "--k", "3", "--labels", labels,
                      "--out", report])
            cli.main(["evaluate", "--report", report, "--out", os.path.join(tmp, "e.json")])
            cli.main(["compare", "--input", mtx, "--k", "3", "--labels", labels,
                      "--out", os.path.join(tmp, "c.json")])
            journey = dict(counted)
            counted.clear()
            data = nmfcluster.generate(SyntheticSpec(
                kind="mixture-docs", m=12, n=10, k=3, noise=0.1, seed=0))[0]
            experiment.run_compare(data, 3)
    finally:
        for name, fn in originals.items():
            setattr(experiment, name, fn)
    print(f"factorize, evaluate, compare on a 10-vertex graph: {journey}")
    print(f"run_compare alone on a 12x10 mixture: {counted}")


def degenerate():
    rng = np.random.default_rng(0)
    data = rng.random((20, 2)) @ rng.random((2, 20))
    data[:, 7] = 0.0
    for solver in ("mu", "anls"):
        try:
            nmfcluster.run_experiment(data, 4, solver=solver)
            print(f"run_experiment {solver}: report")
        except nmfcluster.DegenerateFactorError as exc:
            print(f"run_experiment {solver}: DegenerateFactorError: {exc}")
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        path = os.path.join(tmp, "d.mtx")
        nmfcluster.write_matrix_market(path, data)
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["factorize", "--input", path, "--k", "4",
                             "--out", os.path.join(tmp, "r.json")])
    print(f"nmf-cluster factorize exit code: {code}")


def kkt(seed="1", count="20"):
    rng = np.random.default_rng(int(seed))
    for i in range(int(count)):
        m, n, k = int(rng.integers(8, 25)), int(rng.integers(8, 25)), int(rng.integers(2, 5))
        a = rng.random((m, n))
        bound = checks.kkt_bound(a)
        row = [f"{m:2d}x{n:2d} k={k}"]
        for name, fn, opts in (
                ("mu", nmfcluster.nmf_multiplicative,
                 dict(restarts=5, max_iterations=8000, tolerance=1e-12, window=10)),
                ("anls", nmfcluster.nmf_anls, dict(max_iterations=150, tolerance=1e-12, window=5))):
            pair, _ = fn(a, k, SolverOptions(seed=i, **opts))
            ratio = max(checks.kkt_norms(a, pair.basis, pair.coefficients)) / bound
            row.append(f"{name} {pair.iterations:5d} it, KKT/bound {ratio:6.3f}"
                       f"{'  OVER' if ratio > 1 else ''}")
        print("  ".join(row), flush=True)


def import_time():
    command = [sys.executable, "-c", f"import sys; sys.path.insert(0, {run.SRC!r}); "
               "import nmfcluster"]
    for label, code in (("import nmfcluster", command),
                        ("import scipy.optimize", [sys.executable, "-c", "import scipy.optimize"]),
                        ("import numpy", [sys.executable, "-c", "import numpy"])):
        values = [timed(subprocess.run, code, check=True)[0] for _ in range(5)]
        print(f"{label}: median {statistics.median(values):.2f} s of 5")


FIGURES = {"machine": machine, "ac2": ac2, "oracle": oracle, "jacobi": jacobi,
           "workers": workers, "calls": calls, "degenerate": degenerate, "kkt": kkt,
           "import": import_time}

if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[1] not in FIGURES:
        sys.exit(__doc__)
    FIGURES[sys.argv[1]](*sys.argv[2:])
