"""Multiplicative, ANLS, and penalized solvers.

Expected numbers for the empirical examples (the init scaling range, the
capacity ladder, the large-lambda orthogonality run) were measured once
with the seeds used here and then frozen.
"""

from dataclasses import replace

import numpy as np
import pytest

from nmfcluster.core import frobenius_objective, kkt_residual, normalize_factors
from nmfcluster.errors import DegenerateInputError, DomainError, RankError, ShapeError
from nmfcluster.metrics import assign_items, cluster_accuracy
from nmfcluster.solvers import (
    SolverOptions,
    init_factors,
    mu_step,
    nmf_anls,
    nmf_multiplicative,
    nmf_orthogonal,
    anls_basis_step,
    anls_coefficient_step,
    penalty_value,
    _anls_sweep,
    _mu_update,
    _run,
)

from oracles import offdiag_energy


# ---------------------------------------------------------------- options

def test_options_defaults():
    o = SolverOptions()
    assert o.max_iterations == 500
    assert o.tolerance == 1e-6
    assert o.window == 10
    assert o.restarts == 1
    assert o.ortho_mode == "none"
    assert o.effective_penalty == 0.0


def test_options_validation():
    for bad in (
        dict(max_iterations=0),
        dict(tolerance=0.0),
        dict(tolerance=-1.0),
        dict(window=0),
        dict(seed=-1),
        dict(restarts=0),
        dict(epsilon_guard=0.0),
        dict(ortho_mode="sideways"),
        dict(penalty=-0.1),
        dict(tolerance=float("inf")),
        dict(tolerance=float("nan")),
        dict(epsilon_guard=float("inf")),
        dict(epsilon_guard=float("nan")),
        dict(penalty=float("inf")),
        dict(penalty=float("nan")),
        dict(restarts=2.0),
        dict(max_iterations=10.5),
        dict(window=2.5),
        dict(seed=1.5),
        dict(restarts=True),
        dict(seed="1"),
    ):
        with pytest.raises(ValueError):
            SolverOptions(**bad)
    for name, lower in (("max_iterations", 1), ("window", 1), ("seed", 0), ("restarts", 1)):
        with pytest.raises(ValueError, match=f"^{name} must be >= {lower}, got {lower - 1}$"):
            SolverOptions(**{name: lower - 1})
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got 2.5$"):
            SolverOptions(**{name: 2.5})
    o = SolverOptions(restarts=np.int64(2), seed=np.uint8(3))
    assert (o.restarts, o.seed) == (2, 3)
    assert type(o.restarts) is int and type(o.seed) is int


def test_rank_must_be_an_integer():
    a = np.random.default_rng(3).random((5, 4))
    for solver in (nmf_multiplicative, nmf_anls):
        for k in (2.0, 2.5, True, "2"):
            with pytest.raises(RankError):
                solver(a, k, SolverOptions(max_iterations=5))
    pair, _ = nmf_multiplicative(a, np.int64(2), SolverOptions(max_iterations=5))
    assert type(pair.rank) is int and pair.rank == 2


def test_effective_penalty_zeroed_without_mode():
    o = SolverOptions(ortho_mode="none", penalty=5.0)
    assert o.effective_penalty == 0.0
    o = SolverOptions(ortho_mode="rows_of_C", penalty=5.0)
    assert o.effective_penalty == 5.0


# ----------------------------------------------------------- init_factors

def test_init_deterministic_and_positive():
    a = np.full((6, 4), 0.5)
    p1 = init_factors(6, 4, 2, a, seed=3)
    p2 = init_factors(6, 4, 2, a, seed=3)
    assert np.array_equal(p1.basis, p2.basis)
    assert np.array_equal(p1.coefficients, p2.coefficients)
    assert np.all(p1.basis > 0.0)
    assert np.all(p1.coefficients > 0.0)
    assert p1.iterations == 0 and not p1.converged


def test_init_zero_data_warns_and_zeroes():
    with pytest.warns(RuntimeWarning, match="all zeros"):
        pair = init_factors(3, 3, 2, np.zeros((3, 3)), seed=0)
    assert np.all(pair.basis == 0.0)
    assert np.all(pair.coefficients == 0.0)


def test_init_rank_and_shape_errors():
    a = np.ones((4, 3))
    with pytest.raises(RankError):
        init_factors(4, 3, 4, a, seed=0)
    with pytest.raises(RankError):
        init_factors(4, 3, 0, a, seed=0)
    for k in (2.0, True):
        with pytest.raises(RankError):
            init_factors(4, 3, k, a, seed=0)
    assert type(init_factors(4, 3, np.int64(2), a, seed=0).rank) is int
    with pytest.raises(ShapeError):
        init_factors(5, 3, 2, a, seed=0)


def test_init_scaling_keeps_product_on_scale():
    """mean(A)/mean(BC) stays in a fixed band.

    The sqrt(mean/K) scale gives E[mean(BC)] = mean(A)/4, and 100 trials
    with this rng measured the ratio in [2.90, 6.11] with median 4.10, so
    the assertion bands are those numbers with margin.
    """
    rng = np.random.default_rng(99)
    ratios = []
    for trial in range(100):
        m = int(rng.integers(5, 30))
        n = int(rng.integers(5, 30))
        k = int(rng.integers(2, 5))
        a = rng.random((m, n)) * rng.uniform(0.5, 3.0)
        pair = init_factors(m, n, k, a, seed=trial)
        ratios.append(a.mean() / (pair.basis @ pair.coefficients).mean())
    ratios = np.array(ratios)
    assert ratios.min() > 2.0
    assert ratios.max() < 8.0
    assert 3.0 < np.median(ratios) < 5.5


# ---------------------------------------------------------------- mu_step

def test_mu_step_fixed_point():
    rng = np.random.default_rng(2)
    b = rng.uniform(0.5, 1.5, (5, 2))
    c = rng.uniform(0.5, 1.5, (2, 6))
    a = b @ c
    nb, nc = mu_step(a, b, c)
    assert np.abs(nb - b).max() <= 1e-9 * np.abs(b).max()
    assert np.abs(nc - c).max() <= 1e-9 * np.abs(c).max()


def test_mu_step_monotone_on_random_instances():
    rng = np.random.default_rng(8)
    for trial in range(20):
        a = rng.random((5, 4))
        b = rng.random((5, 2)) + 0.01
        c = rng.random((2, 4)) + 0.01
        before = frobenius_objective(a, b, c)
        b, c = mu_step(a, b, c)
        after = frobenius_objective(a, b, c)
        assert after <= before + 1e-9 * (1.0 + before)


def test_mu_step_preserves_zeros():
    a = np.ones((3, 3))
    b = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
    c = np.full((2, 3), 0.5)
    nb, _ = mu_step(a, b, c)
    assert nb[0, 0] == 0.0
    assert nb[2, 1] == 0.0


def test_mu_step_validates_its_inputs():
    rng = np.random.default_rng(3)
    a = rng.random((4, 5))
    b = rng.random((4, 2))
    c = rng.random((2, 5))
    with pytest.raises(ShapeError):
        mu_step(a, b, c[:, :4])
    with pytest.raises(ShapeError):
        mu_step(a, b[:3], c)
    b[1, 0] = np.nan
    with pytest.raises(DomainError):
        mu_step(a, b, c)


def test_mu_step_penalized_matches_written_form():
    """One penalized step recomputed longhand, both penalty sides."""
    rng = np.random.default_rng(4)
    a = rng.random((4, 5))
    b0 = rng.random((4, 2)) + 0.1
    c0 = rng.random((2, 5)) + 0.1
    lam, eps = 0.7, 1e-12

    opts = SolverOptions(ortho_mode="rows_of_C", penalty=lam, epsilon_guard=eps)
    nb, nc = mu_step(a, b0, c0, opts)
    eb = b0 * (a @ c0.T) / (b0 @ (c0 @ c0.T) + eps)
    ec = c0 * (eb.T @ a + 2.0 * lam * c0) / (
        eb.T @ eb @ c0 + 2.0 * lam * (c0 @ c0.T @ c0) + eps
    )
    assert np.abs(nb - eb).max() < 1e-14
    assert np.abs(nc - ec).max() < 1e-14

    opts = SolverOptions(ortho_mode="cols_of_B", penalty=lam, epsilon_guard=eps)
    nb, nc = mu_step(a, b0, c0, opts)
    eb = b0 * (a @ c0.T + 2.0 * lam * b0) / (
        b0 @ (c0 @ c0.T) + 2.0 * lam * (b0 @ (b0.T @ b0)) + eps
    )
    ec = c0 * (eb.T @ a) / (eb.T @ eb @ c0 + eps)
    assert np.abs(nb - eb).max() < 1e-14
    assert np.abs(nc - ec).max() < 1e-14


# ------------------------------------------------------ nmf_multiplicative

def test_mu_recovers_planted_blocks():
    a = np.zeros((4, 4))
    a[:2, :2] = 1.0
    a[2:, 2:] = 1.0
    pair, _ = nmf_multiplicative(
        a, 2, SolverOptions(seed=0, restarts=5, max_iterations=2000, tolerance=1e-12)
    )
    assert pair.objective <= 1e-6
    _, nc = normalize_factors(pair.basis, pair.coefficients)
    assert cluster_accuracy(assign_items(nc), np.array([0, 0, 1, 1])) == 1.0


def test_mu_trace_monotone():
    rng = np.random.default_rng(12)
    a = rng.random((10, 8))
    _, trace = nmf_multiplicative(a, 3, SolverOptions(seed=1))
    j = trace.objective
    assert np.all(np.diff(j) <= 1e-9 * (1.0 + j[:-1]))


def test_mu_capacity_ladder():
    """K = min(M,N) reaches at least as low as every smaller K."""
    rng = np.random.default_rng(7)
    a = rng.uniform(0.2, 1.0, (6, 5))
    opts = dict(seed=11, restarts=3, max_iterations=20000, tolerance=1e-12)
    objs = {
        k: nmf_multiplicative(a, k, SolverOptions(**opts))[0].objective
        for k in range(1, 6)
    }
    for k in range(1, 5):
        assert objs[5] <= objs[k]


def test_mu_trace_consistent_with_final_pair():
    rng = np.random.default_rng(21)
    a = rng.random((7, 6))
    pair, trace = nmf_multiplicative(a, 2, SolverOptions(seed=2, max_iterations=50))
    assert len(trace) == pair.iterations + 1
    recomputed = frobenius_objective(a, pair.basis, pair.coefficients)
    assert trace.objective[-1] == pytest.approx(recomputed, rel=1e-12)
    assert pair.objective == pytest.approx(recomputed, rel=1e-12)
    kb, kc = kkt_residual(a, pair.basis, pair.coefficients)
    assert trace.kkt_basis[-1] == pytest.approx(kb, rel=1e-12, abs=1e-15)
    assert trace.kkt_coef[-1] == pytest.approx(kc, rel=1e-12, abs=1e-15)
    assert trace.basis_offdiag[-1] == pytest.approx(
        offdiag_energy(np.asarray(pair.basis), "columns"), rel=1e-10, abs=1e-12
    )
    assert trace.coef_offdiag[-1] == pytest.approx(
        offdiag_energy(np.asarray(pair.coefficients), "rows"), rel=1e-10, abs=1e-12
    )
    assert trace.penalized is None


@pytest.mark.parametrize("solver", [nmf_multiplicative, nmf_anls])
def test_trace_diagnostics_on_a_stride(solver):
    """KKT and Gram diagnostics every 10 iterations and at the final one."""
    a = np.random.default_rng(23).random((9, 7))
    pair, trace = solver(a, 3, SolverOptions(seed=4))
    assert pair.converged and pair.iterations > 20 and pair.iterations % 10 != 0
    expected = list(range(0, pair.iterations, 10)) + [pair.iterations]
    assert trace.diagnostic_iteration.tolist() == expected
    assert trace.iteration.tolist() == list(range(pair.iterations + 1))
    _, capped = solver(a, 3, SolverOptions(seed=4, max_iterations=20))
    assert capped.diagnostic_iteration.tolist() == [0, 10, 20]
    at_20 = expected.index(20)
    for name in ("kkt_basis", "kkt_coef", "basis_offdiag", "coef_offdiag"):
        assert getattr(trace, name)[at_20] == getattr(capped, name)[-1], name


@pytest.mark.parametrize("solver, opts", [
    (nmf_multiplicative, SolverOptions(seed=2, max_iterations=50)),
    (nmf_orthogonal, SolverOptions(seed=2, max_iterations=50, ortho_mode="both",
                                   penalty=0.3)),
    (nmf_anls, SolverOptions(seed=2, max_iterations=20)),
])
def test_pair_objective_is_last_traced_objective(solver, opts):
    rng = np.random.default_rng(22)
    a = rng.random((7, 6))
    pair, trace = solver(a, 2, opts)
    assert pair.objective == trace.objective[-1]
    # the trace squares B C - A, frobenius_objective A - B C: same bits
    assert pair.objective == frobenius_objective(a, pair.basis, pair.coefficients)


def test_mu_bit_deterministic():
    rng = np.random.default_rng(30)
    a = rng.random((8, 6))
    p1, t1 = nmf_multiplicative(a, 2, SolverOptions(seed=4, max_iterations=60))
    p2, t2 = nmf_multiplicative(a, 2, SolverOptions(seed=4, max_iterations=60))
    assert np.array_equal(p1.basis, p2.basis)
    assert np.array_equal(p1.coefficients, p2.coefficients)
    assert np.array_equal(t1.objective, t2.objective)


def test_mu_restarts_pick_best_objective():
    rng = np.random.default_rng(31)
    a = rng.random((9, 7))
    singles = [
        nmf_multiplicative(a, 3, SolverOptions(seed=s, max_iterations=80))[0].objective
        for s in (20, 21, 22)
    ]
    best, _ = nmf_multiplicative(
        a, 3, SolverOptions(seed=20, restarts=3, max_iterations=80)
    )
    assert best.objective == min(singles)


def test_mu_stops_by_cap_or_by_window():
    rng = np.random.default_rng(32)
    a = rng.random((6, 5))
    capped, trace = nmf_multiplicative(
        a, 2, SolverOptions(seed=0, max_iterations=3, tolerance=1e-15)
    )
    assert capped.iterations == 3
    assert not capped.converged
    settled, _ = nmf_multiplicative(
        a, 2, SolverOptions(seed=0, max_iterations=5000, tolerance=1e-3, window=5)
    )
    assert settled.converged
    assert settled.iterations < 5000


def test_mu_input_errors():
    with pytest.raises(DomainError):
        nmf_multiplicative(np.array([[1.0, -1.0]]), 1, SolverOptions())
    with pytest.raises(DegenerateInputError):
        nmf_multiplicative(np.zeros((3, 3)), 2, SolverOptions())
    with pytest.raises(RankError):
        nmf_multiplicative(np.ones((3, 3)), 4, SolverOptions())


# ---------------------------------------------------------------- nmf_anls

def test_anls_exact_rank_k():
    rng = np.random.default_rng(5)
    b0 = rng.uniform(0.2, 1.0, (6, 2))
    c0 = rng.uniform(0.2, 1.0, (2, 7))
    a = b0 @ c0
    for seed in (0, 1):
        pair, _ = nmf_anls(
            a, 2, SolverOptions(seed=seed, max_iterations=200, tolerance=1e-14, window=5)
        )
        assert pair.objective <= 1e-8


def test_anls_half_sweep_monotone():
    """Each block solve is a global block optimum, so the objective may
    not rise at either half-sweep beyond arithmetic slack."""
    rng = np.random.default_rng(6)
    for trial in range(20):
        m, n, k = int(rng.integers(3, 8)), int(rng.integers(3, 8)), int(rng.integers(1, 4))
        a = rng.random((m, n))
        pair = init_factors(m, n, k, a, seed=trial)
        b = np.asarray(pair.basis).copy()
        c = np.asarray(pair.coefficients).copy()
        for sweep in range(3):
            j0 = frobenius_objective(a, b, c)
            c = anls_coefficient_step(a, b)
            j1 = frobenius_objective(a, b, c)
            assert j1 <= j0 + 1e-12
            b = anls_basis_step(a, c)
            j2 = frobenius_objective(a, b, c)
            assert j2 <= j1 + 1e-12


def test_anls_single_column_reduces_to_nnls():
    from nmfcluster.solvers import NnlsProblem, nnls_solve

    rng = np.random.default_rng(3)
    a = rng.uniform(0.1, 1.0, (5, 1))
    pair, _ = nmf_anls(a, 1, SolverOptions(seed=2, max_iterations=50, tolerance=1e-12, window=5))
    c = nnls_solve(NnlsProblem(np.asarray(pair.basis), a[:, 0]))
    resid = a[:, 0] - np.asarray(pair.basis) @ c
    assert abs(pair.objective - 0.5 * float(resid @ resid)) <= 1e-12


def test_anls_bit_deterministic():
    rng = np.random.default_rng(40)
    a = rng.random((7, 5))
    p1, t1 = nmf_anls(a, 2, SolverOptions(seed=1, max_iterations=30))
    p2, t2 = nmf_anls(a, 2, SolverOptions(seed=1, max_iterations=30))
    assert np.array_equal(p1.basis, p2.basis)
    assert np.array_equal(t1.objective, t2.objective)


# ---------------------------------------------------------- nmf_orthogonal

def test_ortho_requires_a_mode():
    with pytest.raises(ValueError, match="ortho_mode"):
        nmf_orthogonal(np.ones((3, 3)), 2, SolverOptions(ortho_mode="none"))


@pytest.mark.parametrize("restarts", [1, 3])
@pytest.mark.parametrize("mode", ["rows_of_C", "cols_of_B", "both"])
def test_ortho_lambda_zero_reproduces_mu_exactly(mode, restarts):
    # at penalty 0 the penalty terms add exact zeros and the monitored
    # value is the objective plus 0.0, so ortho runs MU bit for bit, alone
    # on 2-D arrays and as a stack of restarts; the window rule stops seeds
    # 5 and 6 before the cap, and seed 7 runs to it
    a = np.random.default_rng(14).random((8, 7))
    options = SolverOptions(seed=5, max_iterations=40, tolerance=1e-2, window=5,
                            restarts=restarts)
    plain, t_plain = nmf_multiplicative(a, 3, options)
    pen, t_pen = nmf_orthogonal(a, 3, replace(options, ortho_mode=mode))
    assert plain.iterations < 40
    assert np.array_equal(plain.basis, pen.basis)
    assert np.array_equal(plain.coefficients, pen.coefficients)
    assert (plain.objective, plain.iterations, plain.converged) == (
        pen.objective, pen.iterations, pen.converged)
    for name in TRACE_FIELDS:
        if name != "penalized":
            assert np.array_equal(getattr(t_plain, name), getattr(t_pen, name)), name
    assert t_plain.penalized is None
    assert np.array_equal(t_pen.penalized, t_pen.objective)
    if restarts == 3:
        stops = [nmf_multiplicative(a, 3, replace(options, seed=seed, restarts=1))[0].iterations
                 for seed in (5, 6, 7)]
        assert stops == [39, 29, 40]


def test_ortho_penalized_trace_is_objective_plus_penalty():
    rng = np.random.default_rng(15)
    a = rng.random((6, 9))
    opts = SolverOptions(seed=3, max_iterations=30, ortho_mode="both", penalty=2.5)
    pair, trace = nmf_orthogonal(a, 2, opts)
    assert trace.penalized is not None
    expected = pair.objective + penalty_value(pair.basis, pair.coefficients, opts)
    assert trace.penalized[-1] == pytest.approx(expected, rel=1e-12)
    assert np.all(trace.penalized >= trace.objective - 1e-12)


def test_ortho_restarts_pick_lowest_penalized_value():
    rng = np.random.default_rng(42)
    a = rng.random((9, 7))
    opts = dict(max_iterations=60, ortho_mode="rows_of_C", penalty=0.5)
    singles = [nmf_orthogonal(a, 3, SolverOptions(seed=s, **opts)) for s in (10, 11, 12)]
    penalized = [float(trace.penalized[-1]) for _, trace in singles]
    raw = [pair.objective for pair, _ in singles]
    # on this instance the penalized and the raw objective pick different starts
    assert np.argmin(penalized) != np.argmin(raw)
    best, trace = nmf_orthogonal(a, 3, SolverOptions(seed=10, restarts=3, **opts))
    winner, _ = singles[int(np.argmin(penalized))]
    assert trace.penalized[-1] == min(penalized)
    assert np.array_equal(best.basis, winner.basis)
    assert np.array_equal(best.coefficients, winner.coefficients)


def test_ortho_penalty_reduces_row_gram_deviation():
    """Paired seeds on planted blocks: lambda=10 beats lambda=0 in median."""
    from nmfcluster.data_io import SyntheticSpec, gen_block_diagonal
    from nmfcluster.metrics import orthogonality_deviation

    def median_jc2(lam):
        vals = []
        for seed in range(10):
            spec = SyntheticSpec(kind="block-diagonal", n=20, k=2, m=20, noise=0.05, seed=seed)
            a, _, _ = gen_block_diagonal(spec)
            pair, _ = nmf_orthogonal(
                a, 2, SolverOptions(seed=seed, ortho_mode="rows_of_C", penalty=lam)
            )
            _, nc = normalize_factors(pair.basis, pair.coefficients)
            vals.append(orthogonality_deviation(nc, axis="rows")[1])
        return float(np.median(vals))

    assert median_jc2(10.0) <= median_jc2(0.0)


def test_ortho_both_large_lambda_near_orthogonal():
    """eye(4), K=2, lambda=1e3.

    The penalized update oscillates with period 2 at this lambda (the map
    is locally x -> 1/x), so the run needs an even window longer than the
    transient before the swing contracts.  Measured deviations land near
    5e-5; the asserted 0.2 is the frozen acceptance-style threshold.
    """
    pair, _ = nmf_orthogonal(
        np.eye(4),
        2,
        SolverOptions(
            seed=0, ortho_mode="both", penalty=1e3,
            max_iterations=20000, tolerance=1e-15, window=200,
        ),
    )
    b, c = np.asarray(pair.basis), np.asarray(pair.coefficients)
    assert np.linalg.norm(b.T @ b - np.eye(2)) <= 0.2
    assert np.linalg.norm(c @ c.T - np.eye(2)) <= 0.2


def test_all_iterates_nonnegative():
    rng = np.random.default_rng(50)
    a = rng.random((6, 6))
    b = np.asarray(init_factors(6, 6, 2, a, seed=0).basis).copy()
    c = np.asarray(init_factors(6, 6, 2, a, seed=1).coefficients).copy()
    opts = SolverOptions(ortho_mode="both", penalty=3.0)
    for it in range(25):
        b, c = mu_step(a, b, c, opts)
        assert np.all(b >= 0.0)
        assert np.all(c >= 0.0)


# --------------------------------------------------------- stacked restarts

TRACE_FIELDS = ("iteration", "objective", "kkt_basis", "kkt_coef", "basis_offdiag",
                "coef_offdiag", "penalized", "diagnostic_iteration")


def _assert_same_run(got, expected):
    (pair, trace), (want, want_trace) = got, expected
    assert np.array_equal(pair.basis, want.basis)
    assert np.array_equal(pair.coefficients, want.coefficients)
    assert (pair.objective, pair.iterations, pair.converged) == (
        want.objective, want.iterations, want.converged)
    for name in TRACE_FIELDS:
        value, wanted = getattr(trace, name), getattr(want_trace, name)
        assert (value is None) == (wanted is None), name
        if value is not None:
            assert np.array_equal(value, wanted), name


def _best_of_single_runs(solver, a, k, options):
    singles = [solver(a, k, replace(options, seed=options.seed + r, restarts=1))
               for r in range(options.restarts)]
    monitored = [(t.objective if t.penalized is None else t.penalized)[-1]
                 for _, t in singles]
    return singles, singles[monitored.index(min(monitored))]


@pytest.mark.parametrize("restarts", [2, 3, 4, 5])
@pytest.mark.parametrize("solver, mode, cap", [
    (nmf_multiplicative, "none", 400),
    (nmf_orthogonal, "rows_of_C", 400),
    (nmf_orthogonal, "cols_of_B", 400),
    (nmf_orthogonal, "both", 400),
    (nmf_anls, "none", 60),
])
def test_stacked_restarts_equal_the_best_single_run(solver, mode, cap, restarts):
    """``restarts=R`` is bit for bit the best of R one-restart runs."""
    a = np.random.default_rng(5).random((9, 7))
    opts = SolverOptions(seed=0, restarts=restarts, tolerance=1e-4, window=5,
                         max_iterations=cap, ortho_mode=mode,
                         penalty=0.2 if mode != "none" else 0.0)
    singles, best = _best_of_single_runs(solver, a, 3, opts)
    # on this instance every restart stops by the window rule at its own
    # iteration, so the stack shrinks one restart at a time down to one
    stops = [pair.iterations for pair, _ in singles]
    assert len(set(stops)) == restarts and max(stops) < cap
    _assert_same_run(solver(a, 3, opts), best)


def test_stacked_restarts_window_rule_firing_at_the_cap():
    # seed 3's window rule fires at iteration 245 and it wins; seed 2 is
    # still running there and stops by the cap
    a = np.random.default_rng(5).random((9, 7))
    opts = SolverOptions(seed=0, restarts=5, tolerance=1e-4, window=5, max_iterations=245)
    singles, best = _best_of_single_runs(nmf_multiplicative, a, 3, opts)
    assert [(p.iterations, p.converged) for p, _ in singles][2:4] == [(245, False), (245, True)]
    got = nmf_multiplicative(a, 3, opts)
    assert got[0].iterations == 245 and got[0].converged
    _assert_same_run(got, best)


@pytest.mark.parametrize("solver", [nmf_multiplicative, nmf_anls])
def test_only_the_ortho_solver_reads_the_ortho_options(solver):
    # options=None means SolverOptions(); ortho_mode and penalty change nothing
    a = np.random.default_rng(5).random((9, 7))
    plain = solver(a, 3, SolverOptions())
    _assert_same_run(solver(a, 3), plain)
    ortho = solver(a, 3, SolverOptions(ortho_mode="rows_of_C", penalty=1.0))
    assert ortho[1].penalized is None
    _assert_same_run(ortho, plain)


@pytest.mark.parametrize("solver, step, mode, cap_divisor", [
    (nmf_multiplicative, _mu_update, "none", 1),
    (nmf_orthogonal, _mu_update, "rows_of_C", 1),
    (nmf_orthogonal, _mu_update, "cols_of_B", 1),
    (nmf_orthogonal, _mu_update, "both", 1),
    (nmf_anls, _anls_sweep, "none", 8),
])
def test_stacked_problems_equal_each_problem_solved_alone(solver, step, mode, cap_divisor):
    # problems that share shape, k and ortho mode but differ in data, seed,
    # restarts, penalty (0 included), cap, window and tolerance
    rng = np.random.default_rng(8)
    problems = [(rng.random((9, 7)), 3, SolverOptions(
        seed=seed, restarts=restarts, max_iterations=cap // cap_divisor, window=window,
        tolerance=tolerance, ortho_mode=mode, penalty=0.0 if mode == "none" else penalty))
        for seed, restarts, cap, window, tolerance, penalty in [
            (0, 2, 400, 5, 1e-4, 0.0), (1, 1, 100, 5, 1e-4, 0.3),
            (2, 3, 400, 10, 1e-5, 2.0), (3, 1, 400, 3, 1e-3, 0.0)]]
    stacked = _run(problems, step)
    assert len(stacked) == len(problems)
    for result, (data, k, options) in zip(stacked, problems):
        _assert_same_run(result, solver(data, k, options))
    # one problem stops at its cap while the others run on
    assert any(pair.iterations == options.max_iterations
               for (pair, _), (_, _, options) in zip(stacked, problems))


@pytest.mark.parametrize("mode", ["rows_of_C", "both"])
def test_stacked_problems_at_the_sweep_size_equal_each_solved_alone(mode):
    # a sweep's cell shape, 60 x 60 at k = 3, where BLAS may pick other
    # kernels than at 9 x 7: eight problems, lambda 0 included, some ended
    # by their caps and some by the window rule
    rng = np.random.default_rng(9)
    problems = [(rng.random((60, 60)), 3, SolverOptions(
        seed=seed, max_iterations=cap, tolerance=1e-3, window=5, ortho_mode=mode,
        penalty=penalty))
        for seed, (penalty, cap) in enumerate(
            [(p, c) for p in (0.0, 0.1, 1.0, 10.0) for c in (25, 150)])]
    stacked = _run(problems, _mu_update)
    for result, (data, k, options) in zip(stacked, problems):
        _assert_same_run(result, nmf_orthogonal(data, k, options))
    stops = [(pair.iterations, options.max_iterations)
             for (pair, _), (_, _, options) in zip(stacked, problems)]
    assert any(it == cap for it, cap in stops) and any(it < cap for it, cap in stops)


def _gram_energy(gram):
    off = gram - np.diag(np.diag(gram))
    return float(np.vdot(off, off))


@pytest.mark.parametrize("solver, mode", [
    (nmf_multiplicative, "none"),
    (nmf_orthogonal, "cols_of_B"),
    (nmf_orthogonal, "both"),
])
def test_stacked_diagnostics_equal_those_of_the_returned_factors(solver, mode):
    # every restart runs to the cap, 60, which is on the diagnostic stride:
    # the last diagnostics come from the record batched over the stack
    a = np.random.default_rng(12).random((20, 30))
    opts = SolverOptions(seed=1, restarts=3, max_iterations=60, tolerance=1e-15,
                         ortho_mode=mode, penalty=0.0 if mode == "none" else 0.4)
    pair, trace = solver(a, 4, opts)
    assert pair.iterations == 60 and trace.diagnostic_iteration[-1] == 60
    basis, coef = np.asarray(pair.basis), np.asarray(pair.coefficients)
    assert (trace.kkt_basis[-1], trace.kkt_coef[-1]) == kkt_residual(a, basis, coef)
    assert trace.basis_offdiag[-1] == _gram_energy(basis.T @ basis)
    assert trace.coef_offdiag[-1] == _gram_energy(coef @ coef.T)
    if trace.penalized is not None:
        assert trace.penalized[-1] == pair.objective + penalty_value(basis, coef, opts)
