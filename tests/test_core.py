"""Objective, gradients, KKT residual, normalization, and the containers."""

import re
from fractions import Fraction

import numpy as np
import pytest

from nmfcluster.baselines import KmeansOptions
from nmfcluster.core import (
    ConvergenceTrace,
    FactorPair,
    as_matrix,
    as_vector,
    frobenius_objective,
    gradient_basis,
    gradient_coefficients,
    kkt_residual,
    normalize_factors,
    require_nonnegative,
)
from nmfcluster.data_io import SyntheticSpec
from nmfcluster.errors import (
    DegenerateFactorError,
    DomainError,
    ShapeError,
    SpecError,
)
from nmfcluster.solvers import SolverOptions

from oracles import numeric_gradient


def test_objective_exact_factorization_is_zero():
    rng = np.random.default_rng(0)
    b = rng.random((5, 2))
    c = rng.random((2, 7))
    assert frobenius_objective(b @ c, b, c) == 0.0


def test_objective_single_entry():
    # residual is the single entry 2 - 1
    assert frobenius_objective([[2.0]], [[1.0]], [[1.0]]) == 0.5


def test_objective_identity_with_rank_one():
    a = [[1.0, 0.0], [0.0, 1.0]]
    b = [[1.0], [0.0]]
    c = [[1.0, 0.0]]
    assert frobenius_objective(a, b, c) == 0.5


def test_objective_shape_mismatch():
    with pytest.raises(ShapeError):
        frobenius_objective(np.ones((2, 2)), np.ones((3, 1)), np.ones((1, 2)))
    with pytest.raises(ShapeError):
        frobenius_objective(np.ones((2, 2)), np.ones((2, 2)), np.ones((1, 2)))


def test_gradients_zero_at_exact_factorization():
    rng = np.random.default_rng(1)
    b = rng.random((4, 3))
    c = rng.random((3, 5))
    a = b @ c
    assert np.allclose(gradient_basis(a, b, c), 0.0, atol=1e-12)
    assert np.allclose(gradient_coefficients(a, b, c), 0.0, atol=1e-12)


def test_gradient_basis_single_entry():
    # (BC - A) C^T = (0 - 1) * 1
    g = gradient_basis([[1.0]], [[0.0]], [[1.0]])
    assert g.shape == (1, 1)
    assert g[0, 0] == -1.0


def test_gradients_match_finite_differences():
    """Both analytic gradients against the central-difference oracle."""
    rng = np.random.default_rng(42)
    for trial in range(20):
        m, n, k = rng.integers(2, 7, size=3)
        a = rng.uniform(0.0, 2.0, (m, n))
        b = rng.uniform(0.0, 2.0, (m, k))
        c = rng.uniform(0.0, 2.0, (k, n))

        gb = numeric_gradient(lambda x: frobenius_objective(a, x, c), b)
        gc = numeric_gradient(lambda x: frobenius_objective(a, b, x), c)
        assert np.abs(gradient_basis(a, b, c) - gb).max() < 1e-6
        assert np.abs(gradient_coefficients(a, b, c) - gc).max() < 1e-6


def test_kkt_residual_positive_stationary_point():
    assert kkt_residual([[1.0]], [[1.0]], [[1.0]]) == (0.0, 0.0)


def test_kkt_residual_single_entry_case():
    # grad_B = (2-1)*1 = 1, min(2, 1) = 1; grad_C = 2*(2-1) = 2, min(1, 2) = 1
    kb, kc = kkt_residual([[1.0]], [[2.0]], [[1.0]])
    assert kb == 1.0
    assert kc == 1.0


def test_kkt_residual_zero_entry_with_positive_gradient():
    # the (0,1) basis entry is 0 and its gradient is positive, so it must
    # contribute nothing; only strictly misplaced mass shows up
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = np.array([[1.0, 0.0], [0.0, 1.0]])
    c = np.array([[1.0, 1.0], [1.0, 1.0]])
    gb = gradient_basis(a, b, c)
    assert gb[0, 1] > 0.0
    kb, kc = kkt_residual(a, b, c)
    contrib = np.minimum(b, gb)
    assert contrib[0, 1] == 0.0
    assert kb == pytest.approx(float(np.linalg.norm(contrib)))
    assert kc >= 0.0


def test_objective_invariant_under_diagonal_rescaling():
    rng = np.random.default_rng(9)
    for trial in range(10):
        b = rng.uniform(0.1, 2.0, (6, 3))
        c = rng.uniform(0.1, 2.0, (3, 4))
        a = rng.uniform(0.0, 2.0, (6, 4))
        d = rng.uniform(0.1, 10.0, 3)
        j0 = frobenius_objective(a, b, c)
        j1 = frobenius_objective(a, b / d, c * d[:, None])
        assert abs(j0 - j1) <= 1e-10 * (1.0 + j0)


def test_normalize_factors_single_column():
    nb, nc = normalize_factors([[3.0], [4.0]], [[2.0]])
    assert np.allclose(nb, [[0.6], [0.8]])
    assert np.allclose(nc, [[10.0]])


def test_normalize_factors_unit_columns_unchanged():
    b = np.eye(3)
    c = np.arange(12.0).reshape(3, 4) + 1.0
    nb, nc = normalize_factors(b, c)
    assert np.array_equal(nb, b)
    assert np.array_equal(nc, c)


def test_normalize_factors_preserves_product():
    rng = np.random.default_rng(3)
    for trial in range(10):
        b = rng.uniform(0.1, 3.0, (5, 2))
        c = rng.uniform(0.1, 3.0, (2, 6))
        nb, nc = normalize_factors(b, c)
        assert np.abs(nb @ nc - b @ c).max() < 1e-12
        assert np.allclose(np.linalg.norm(nb, axis=0), 1.0)


def test_normalize_factors_zero_column_named():
    b = np.array([[1.0, 0.0], [1.0, 0.0]])
    c = np.ones((2, 2))
    with pytest.raises(DegenerateFactorError, match="column 1"):
        normalize_factors(b, c)


def test_as_matrix_rejections():
    with pytest.raises(ShapeError):
        as_matrix([1.0, 2.0], "data")
    with pytest.raises(ShapeError):
        as_matrix(np.zeros((0, 3)), "data")
    with pytest.raises(ShapeError, match="^data is not a numeric array: could not convert"):
        as_matrix([["a", "b"]], "data")
    with pytest.raises(DomainError, match="data"):
        as_matrix([[1.0, np.nan]], "data")
    with pytest.raises(DomainError):
        as_matrix([[np.inf]], "data")


def test_as_matrix_returns_contiguous_float64():
    out = as_matrix(np.asfortranarray([[1, 2], [3, 4]]), "data")
    assert out.dtype == np.float64
    assert out.flags.c_contiguous


def test_as_vector_rejections():
    with pytest.raises(ShapeError):
        as_vector([[1.0]], "target")
    with pytest.raises(DomainError):
        as_vector([np.nan], "target")


def test_require_nonnegative_names_first_offender():
    a = np.array([[0.0, 1.0], [-3.0, 2.0]])
    with pytest.raises(DomainError, match=r"-3 at \(1, 0\)"):
        require_nonnegative(a, "data")


def test_factor_pair_validation():
    b = np.ones((3, 2))
    c = np.ones((2, 4))
    pair = FactorPair(b, c, rank=2, objective=1.5, iterations=10, converged=True)
    assert pair.shape == (3, 4)
    assert not pair.basis.flags.writeable
    with pytest.raises(ShapeError):
        FactorPair(b, c, rank=3, objective=1.5, iterations=10, converged=True)
    with pytest.raises(DomainError):
        FactorPair(b, c, rank=2, objective=-1.0, iterations=10, converged=True)
    with pytest.raises(DomainError):
        FactorPair(b, c, rank=2, objective=np.nan, iterations=1, converged=False)
    with pytest.raises(DomainError):
        FactorPair(-b, c, rank=2, objective=1.0, iterations=1, converged=False)
    # rank and iterations are integers, not integral floats
    with pytest.raises(DomainError, match="^rank must be an integer, got 2.0$"):
        FactorPair(b, c, rank=2.0, objective=1.0, iterations=1, converged=False)
    with pytest.raises(DomainError, match="^iterations must be an integer, got 2.5$"):
        FactorPair(b, c, rank=2, objective=1.0, iterations=2.5, converged=False)


def test_convergence_trace_validation():
    good = dict(
        iteration=[0, 1, 2],
        objective=[3.0, 2.0, 1.0],
        kkt_basis=[1.0, 0.5, 0.1],
        kkt_coef=[1.0, 0.5, 0.1],
        basis_offdiag=[0.3, 0.2, 0.1],
        coef_offdiag=[0.3, 0.2, 0.1],
    )
    trace = ConvergenceTrace(**good)
    assert len(trace) == 3
    assert trace.penalized is None

    with pytest.raises(ShapeError):
        ConvergenceTrace(**{**good, "iteration": [1, 2, 3]})
    with pytest.raises(ShapeError):
        ConvergenceTrace(**{**good, "iteration": [0, 2, 2]})
    with pytest.raises(ShapeError):
        ConvergenceTrace(**{**good, "objective": [3.0, 2.0]})
    with pytest.raises(DomainError):
        ConvergenceTrace(**{**good, "kkt_coef": [1.0, np.inf, 0.1]})

    assert trace.diagnostic_iteration.tolist() == [0, 1, 2]
    strided = dict(
        good,
        iteration=[0, 1, 2, 3],
        objective=[3.0, 2.0, 1.5, 1.0],
        diagnostic_iteration=[0, 2, 3],
    )
    trace = ConvergenceTrace(**strided)
    assert len(trace) == 4
    assert trace.diagnostic_iteration.tolist() == [0, 2, 3]
    with pytest.raises(ShapeError):
        ConvergenceTrace(**{**strided, "kkt_basis": [1.0, 0.5]})
    with pytest.raises(ShapeError):
        ConvergenceTrace(**{**strided, "diagnostic_iteration": [0, 1, 2]})
    with pytest.raises(ShapeError):
        ConvergenceTrace(**{**strided, "iteration": [0, 1, 3, 4],
                            "diagnostic_iteration": [0, 2, 4]})


# every real-valued field: its class, the other arguments it needs, its name,
# the error class it raises
REAL_FIELDS = [
    (SolverOptions, {}, "tolerance", ValueError),
    (SolverOptions, {}, "epsilon_guard", ValueError),
    (SolverOptions, {}, "penalty", ValueError),
    (SyntheticSpec, {"kind": "block-diagonal", "m": 4, "n": 4, "k": 2}, "noise", SpecError),
    (SyntheticSpec, {"kind": "block-diagonal", "m": 4, "n": 4, "k": 2}, "overlap", SpecError),
    (KmeansOptions, {"k": 2}, "tolerance", ValueError),
    (FactorPair, {"basis": np.ones((3, 2)), "coefficients": np.ones((2, 4)), "rank": 2,
                  "iterations": 1, "converged": True}, "objective", DomainError),
]
REAL_FIELD_IDS = [f"{cls.__name__}.{name}" for cls, _, name, _ in REAL_FIELDS]


@pytest.mark.parametrize("value", ["x", None, True, 1j], ids=["str", "None", "bool", "complex"])
@pytest.mark.parametrize("cls, given, name, error", REAL_FIELDS, ids=REAL_FIELD_IDS)
def test_real_field_must_be_a_number(cls, given, name, error, value):
    message = f"{name} must be a number, got {value!r}"
    with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
        cls(**given, **{name: value})
    assert type(raised.value) is error


@pytest.mark.parametrize("cls, given, name, error", REAL_FIELDS, ids=REAL_FIELD_IDS)
def test_real_field_is_stored_as_a_float(cls, given, name, error):
    # a NumPy float, a NumPy integer and a fraction inside the bound become floats
    for value in (np.float32(0.5), np.int64(0 if name == "noise" else 1), Fraction(1, 4)):
        stored = getattr(cls(**given, **{name: value}), name)
        assert type(stored) is float and stored == float(value)
    # past the largest float is not finite, and raises the type's error
    with pytest.raises(error, match=f"^{name} must be (finite|in)"):
        cls(**given, **{name: 10**400})
