"""Core quantities for the nonnegative factorization A ~ B C.

A is an m-by-n data matrix, B an m-by-k basis and C a k-by-n coefficient
matrix, all nonnegative.  The objective throughout the package is

    J(B, C) = 0.5 * ||A - B C||_F^2

and the gradients and first-order (KKT) residuals below are the building
blocks every solver and diagnostic shares.

Matrices are plain float64 ndarrays.  ``as_matrix`` and
``require_nonnegative`` are the validation choke points; public entry
points call them instead of trusting the caller.
"""

import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateFactorError, DomainError, RankError, ShapeError

__all__ = [
    "frobenius_objective",
    "gradient_basis",
    "gradient_coefficients",
    "kkt_residual",
    "normalize_factors",
    "FactorPair",
    "ConvergenceTrace",
]


def _as_int(value):
    # value as an int, or None for a bool or a value that is not integral
    try:
        return None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        return None


def _integer_fields(obj, bounds, error):
    # store each field of a frozen dataclass named in ``bounds`` as an int,
    # in order; raise ``error`` for a bool, a value that is not integral, or
    # one below its lower bound (None for no bound)
    for name, lower in bounds.items():
        value = _as_int(getattr(obj, name))
        if value is None:
            raise error(f"{name} must be an integer, got {getattr(obj, name)!r}")
        if lower is not None and value < lower:
            raise error(f"{name} must be >= {lower}, got {value}")
        object.__setattr__(obj, name, value)


# the test of each bound a real field may have, by its text
_REAL_BOUNDS = {
    "finite and > 0": lambda v: 0.0 < v < math.inf,
    "finite and >= 0": lambda v: 0.0 <= v < math.inf,
    "in [0, 1)": lambda v: 0.0 <= v < 1.0,
}


def _real_fields(obj, bounds, error):
    # store each field of a frozen dataclass named in ``bounds`` as a float,
    # in order; raise ``error`` for a bool, a value that is not a real
    # number, or one outside its bound (a text in _REAL_BOUNDS)
    for name, bound in bounds.items():
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise error(f"{name} must be a number, got {value!r}")
        try:
            real = float(value)
        except OverflowError:  # an integer or fraction past the largest float
            real = math.inf
        if not _REAL_BOUNDS[bound](real):
            raise error(f"{name} must be {bound}, got {value}")
        object.__setattr__(obj, name, real)


def _rank(k, m, n):
    # k as an int; RankError unless it is an integer in [1, min(m, n)]
    rank = _as_int(k)
    if rank is None:
        raise RankError(f"k must be an integer, got {k!r}")
    if not 1 <= rank <= min(m, n):
        raise RankError(f"k must be in [1, {min(m, n)}] for a {m}x{n} matrix, got {k}")
    return rank


def as_matrix(values, name="matrix"):
    """Coerce ``values`` to a C-contiguous 2-D float64 array.

    Raises ShapeError for anything that is not a nonempty 2-D array and
    DomainError if any entry is NaN or infinite.
    """
    try:
        a = np.ascontiguousarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"{name} is not a numeric array: {exc}") from None
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={a.ndim}")
    if a.shape[0] == 0 or a.shape[1] == 0:
        raise ShapeError(f"{name} must be nonempty, got shape {a.shape}")
    if not np.isfinite(a).all():
        i, j = np.argwhere(~np.isfinite(a))[0]
        raise DomainError(f"{name} has non-finite entry at ({i}, {j})")
    return a


def as_vector(values, name="vector"):
    """Coerce to a 1-D float64 array, rejecting NaN/Inf."""
    try:
        v = np.ascontiguousarray(values, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"{name} is not a numeric array: {exc}") from None
    if v.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got ndim={v.ndim}")
    if not np.isfinite(v).all():
        i = int(np.flatnonzero(~np.isfinite(v))[0])
        raise DomainError(f"{name} has non-finite entry at index {i}")
    return v


def require_nonnegative(a, name="matrix"):
    """Raise DomainError naming the first negative coordinate, if any."""
    if np.any(a < 0.0):
        i, j = np.argwhere(a < 0.0)[0]
        raise DomainError(f"{name} has negative entry {a[i, j]:g} at ({i}, {j})")
    return a


def _conforming(data, basis, coef):
    data = as_matrix(data, "data")
    basis = as_matrix(basis, "basis")
    coef = as_matrix(coef, "coefficients")
    m, n = data.shape
    if basis.shape[0] != m or coef.shape[1] != n or basis.shape[1] != coef.shape[0]:
        raise ShapeError(
            f"shapes do not conform: data {data.shape}, basis {basis.shape}, "
            f"coefficients {coef.shape}"
        )
    return data, basis, coef


def frobenius_objective(data, basis, coef):
    """Return J = 0.5 * ||data - basis @ coef||_F^2."""
    data, basis, coef = _conforming(data, basis, coef)
    residual = data - basis @ coef
    return 0.5 * float(np.vdot(residual, residual))


def gradient_basis(data, basis, coef):
    """Gradient of J with respect to the basis: (B C - A) C^T."""
    data, basis, coef = _conforming(data, basis, coef)
    return (basis @ coef - data) @ coef.T


def gradient_coefficients(data, basis, coef):
    """Gradient of J with respect to the coefficients: B^T (B C - A)."""
    data, basis, coef = _conforming(data, basis, coef)
    return basis.T @ (basis @ coef - data)


def kkt_residual(data, basis, coef):
    """Projected first-order residual of the nonnegativity-constrained problem.

    For a stationary pair the elementwise min(factor, gradient) vanishes:
    where a factor entry is positive the gradient must be zero, and where
    it sits at the bound the gradient must be nonnegative.  Returns the
    Frobenius norms of those projected gradients as a ``(for B, for C)``
    tuple; both are zero exactly at a KKT point.
    """
    data, basis, coef = _conforming(data, basis, coef)
    kkt_b, kkt_c = _kkt_norms(basis, coef, basis @ coef - data)
    return float(kkt_b), float(kkt_c)


def _kkt_norms(basis, coef, residual):
    # kkt_residual's norms given residual = basis @ coef - data, unvalidated;
    # arrays of each slice's norms for stacks
    gb = residual @ coef.mT
    gc = basis.mT @ residual
    return np.sqrt(_dots(np.minimum(basis, gb))), np.sqrt(_dots(np.minimum(coef, gc)))


def _dots(x):
    # np.vdot(x, x) of a matrix, or of each of a stack of them as an array:
    # a (1, p) @ (p, 1) product is one BLAS ddot per slice, the call and
    # the order of summation of vdot (and of np.linalg.norm)
    if x.ndim == 2:
        return float(np.vdot(x, x))
    flat = x.reshape(len(x), 1, -1)
    return (flat @ flat.mT).ravel()


def _diagonal(x):
    # a writable view of the diagonal of a square matrix, or of each of a
    # stack of them
    step = x.shape[-1] + 1
    return x.ravel()[::step] if x.ndim == 2 else x.reshape(len(x), -1)[:, ::step]


def _offdiag_energy(gram):
    # sum of the squared off-diagonal entries of a Gram matrix, or of each
    # of a stack of them
    off = gram.copy()
    _diagonal(off)[...] = 0.0
    return _dots(off)


def normalize_factors(basis, coef):
    """Rescale so every basis column has unit Euclidean norm.

    The inverse scale moves into the matching coefficient row, so the
    product ``basis @ coef`` is unchanged.  Raises DegenerateFactorError
    if some basis column is identically zero.
    """
    basis = as_matrix(basis, "basis")
    coef = as_matrix(coef, "coefficients")
    if basis.shape[1] != coef.shape[0]:
        raise ShapeError(
            f"basis {basis.shape} and coefficients {coef.shape} do not conform"
        )
    norms = np.linalg.norm(basis, axis=0)
    dead = np.flatnonzero(norms == 0.0)
    if dead.size:
        raise DegenerateFactorError(f"basis column {dead[0]} is all zeros")
    return basis / norms, coef * norms[:, None]


def _frozen(values, dtype=np.float64):
    # a read-only copy of ``values`` as a ``dtype`` array
    out = np.array(values, dtype=dtype, copy=True)
    out.flags.writeable = False
    return out


def _index(values, name):
    it = _frozen(values, np.int64)
    if it.ndim != 1 or it.size == 0:
        raise ShapeError(f"{name} must hold at least the initial record")
    if it[0] != 0 or np.any(np.diff(it) <= 0):
        raise ShapeError(f"{name} indices must increase strictly from 0")
    return it


@dataclass(frozen=True)
class FactorPair:
    """A factorization result: nonnegative basis and coefficients plus the
    bookkeeping a caller needs to judge it (final objective, iterations
    spent, whether the stopping rule fired).  Arrays are stored read-only.
    """

    basis: np.ndarray
    coefficients: np.ndarray
    rank: int
    objective: float
    iterations: int
    converged: bool

    def __post_init__(self):
        basis = as_matrix(self.basis, "basis")
        coef = as_matrix(self.coefficients, "coefficients")
        require_nonnegative(basis, "basis")
        require_nonnegative(coef, "coefficients")
        if basis.shape[1] != self.rank or coef.shape[0] != self.rank:
            raise ShapeError(
                f"rank {self.rank} inconsistent with basis {basis.shape} and "
                f"coefficients {coef.shape}"
            )
        _real_fields(self, {"objective": "finite and >= 0"}, DomainError)
        _integer_fields(self, {"rank": None, "iterations": 0}, DomainError)
        object.__setattr__(self, "basis", _frozen(basis))
        object.__setattr__(self, "coefficients", _frozen(coef))

    @property
    def shape(self):
        return self.basis.shape[0], self.coefficients.shape[1]


@dataclass(frozen=True)
class ConvergenceTrace:
    """Per-iteration history of a solver run.

    Index 0 is the initial point, before any update.  ``objective`` is the
    raw J; when a solver minimizes a penalized surrogate the surrogate's
    values appear in ``penalized`` (otherwise None).  Both are indexed by
    ``iteration``.  The diagnostics ``kkt_basis``, ``kkt_coef``,
    ``basis_offdiag`` and ``coef_offdiag`` are indexed by
    ``diagnostic_iteration``, a subset of ``iteration`` that holds its
    first and last entries; it defaults to ``iteration`` itself.
    ``basis_offdiag`` and ``coef_offdiag`` are the raw off-diagonal Gram
    energies: the sum of squared inner products between distinct basis
    columns and distinct coefficient rows, without normalization.
    """

    iteration: np.ndarray
    objective: np.ndarray
    kkt_basis: np.ndarray
    kkt_coef: np.ndarray
    basis_offdiag: np.ndarray
    coef_offdiag: np.ndarray
    penalized: np.ndarray | None = field(default=None)
    diagnostic_iteration: np.ndarray | None = field(default=None)

    def __post_init__(self):
        it = _index(self.iteration, "iteration")
        diag = it if self.diagnostic_iteration is None else _index(
            self.diagnostic_iteration, "diagnostic_iteration")
        if diag[-1] != it[-1] or not np.isin(diag, it).all():
            raise ShapeError("diagnostic_iteration must be a subset of iteration "
                             "ending at its last entry")
        series = {
            "objective": (self.objective, it),
            "kkt_basis": (self.kkt_basis, diag),
            "kkt_coef": (self.kkt_coef, diag),
            "basis_offdiag": (self.basis_offdiag, diag),
            "coef_offdiag": (self.coef_offdiag, diag),
        }
        if self.penalized is not None:
            series["penalized"] = (self.penalized, it)
        for name, (values, index) in series.items():
            v = np.asarray(values, dtype=np.float64)
            if v.shape != index.shape:
                raise ShapeError(f"trace field {name} has shape {v.shape}, "
                                 f"expected {index.shape}")
            if not np.isfinite(v).all():
                raise DomainError(f"trace field {name} has non-finite values")
            object.__setattr__(self, name, _frozen(v))
        object.__setattr__(self, "iteration", it)
        object.__setattr__(self, "diagnostic_iteration", diag)

    def __len__(self):
        return int(self.iteration.size)
