"""The active-set NNLS kernel against an exhaustive support-set oracle."""

import numpy as np
import pytest

from nmfcluster import solvers
from nmfcluster.errors import ConvergenceError, DomainError, ShapeError
from nmfcluster.solvers import NnlsProblem, nnls_solve

from oracles import nnls_enumerate


def kkt_holds(design, target, c, tol=1e-8):
    g = design.T @ (design @ c - target)
    return bool(np.all(g >= -tol) and np.all(np.abs(c * g) <= tol))


def test_identity_design():
    c = nnls_solve(NnlsProblem(np.eye(2), np.array([3.0, 4.0])))
    assert np.allclose(c, [3.0, 4.0])


def test_projection_onto_active_set():
    # unconstrained solution is [2/3, -1/3]; the active set drops the
    # second variable and the restricted solve gives 2/5
    design = np.array([[2.0, 1.0], [1.0, 2.0]])
    c = nnls_solve(NnlsProblem(design, np.array([1.0, 0.0])))
    assert np.allclose(c, [0.4, 0.0], atol=1e-12)


def test_identical_columns_satisfy_kkt():
    design = np.array([[1.0, 1.0], [2.0, 2.0]])
    target = np.array([1.0, 2.0])
    c = nnls_solve(NnlsProblem(design, target))
    assert np.all(c >= 0.0)
    assert kkt_holds(design, target, c)
    # any feasible split of the mass has the same objective
    resid = target - design @ c
    assert 0.5 * float(resid @ resid) == pytest.approx(0.0, abs=1e-16)


def test_zero_target_returns_zero():
    c = nnls_solve(NnlsProblem(np.eye(3), np.zeros(3)))
    assert np.array_equal(c, np.zeros(3))


def test_matches_enumeration_on_random_problems():
    """Objective parity with the exhaustive oracle, well beyond AC scale."""
    rng = np.random.default_rng(17)
    for trial in range(60):
        m = int(rng.integers(2, 10))
        k = int(rng.integers(1, 9))
        design = rng.uniform(0.0, 1.0, (m, k))
        target = rng.uniform(0.0, 1.0, m)
        c = nnls_solve(NnlsProblem(design, target))
        _, best_obj = nnls_enumerate(design, target)
        resid = target - design @ c
        got = 0.5 * float(resid @ resid)
        assert got <= best_obj + 1e-8
        assert np.all(c >= 0.0)
        assert kkt_holds(design, target, c)


def test_rank_deficient_design():
    rng = np.random.default_rng(5)
    base = rng.uniform(0.1, 1.0, (6, 2))
    design = np.column_stack([base, base[:, 0] + base[:, 1]])
    target = rng.uniform(0.0, 1.0, 6)
    c = nnls_solve(NnlsProblem(design, target))
    _, best_obj = nnls_enumerate(design, target)
    resid = target - design @ c
    assert 0.5 * float(resid @ resid) <= best_obj + 1e-8
    assert kkt_holds(design, target, c)


def test_two_argument_call_form():
    design = np.array([[2.0, 1.0], [1.0, 2.0]])
    a = nnls_solve(design, np.array([1.0, 0.0]))
    b = nnls_solve(NnlsProblem(design, np.array([1.0, 0.0])))
    assert np.array_equal(a, b)


def test_iteration_cap_raises_convergence_error_with_feasible_best(monkeypatch):
    def capped(design, target):
        raise RuntimeError("Maximum number of iterations reached.")

    monkeypatch.setattr(solvers, "nnls", capped)
    design = np.array([[2.0, 1.0, 0.5], [1.0, 2.0, 0.5]])
    with pytest.raises(ConvergenceError, match="iterations") as info:
        nnls_solve(design, np.array([1.0, 0.0]))
    best = info.value.best
    assert best.shape == (3,)
    assert np.all(best >= 0.0)


def test_problem_validation():
    with pytest.raises(ShapeError):
        NnlsProblem(np.eye(2), np.zeros(3))
    with pytest.raises(DomainError):
        NnlsProblem(np.eye(2), np.array([1.0, -1.0]))
    with pytest.raises(DomainError):
        NnlsProblem(np.array([[1.0, -0.5], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(DomainError):
        NnlsProblem(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.zeros(2))


def test_problem_arrays_frozen():
    p = NnlsProblem(np.eye(2), np.ones(2))
    assert not p.design.flags.writeable
    assert not p.target.flags.writeable
