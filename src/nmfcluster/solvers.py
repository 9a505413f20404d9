"""Factorization solvers.

Three families, all minimizing J(B, C) = 0.5 * ||A - B C||_F^2 over
nonnegative factors:

* ``nmf_multiplicative``: classic multiplicative updates.
* ``nmf_orthogonal``: multiplicative updates on the penalized objective
  J + (lambda/2) * ||B^T B - I||_F^2 and/or (lambda/2) * ||C C^T - I||_F^2,
  selected by ``ortho_mode``.  Row-orthogonal C and column-orthogonal B are
  the two one-sided regimes; ``both`` penalizes both Gram matrices.
* ``nmf_anls``: alternating nonnegative least squares, each half-sweep
  solved exactly column by column by ``scipy.optimize.nnls``.

All three run through one restart-and-stop driver that takes the
per-iteration step as a function.  It solves a list of problems, each
restart a slice of one stacked iteration with its own trace and stopping
rule, with results equal to solving each restart alone: the trace record
computes each quantity once for the stack, with the one-slice record's
products and sums.  Every solver returns a (FactorPair, ConvergenceTrace)
pair and is deterministic given (data, rank, options) and the BLAS thread
count.
"""

import warnings
from dataclasses import dataclass, replace
from itertools import count, islice, repeat

import numpy as np

from .core import (
    ConvergenceTrace,
    FactorPair,
    as_matrix,
    as_vector,
    frobenius_objective,
    require_nonnegative,
    _conforming,
    _diagonal,
    _dots,
    _frozen,
    _integer_fields,
    _kkt_norms,
    _offdiag_energy,
    _rank,
    _real_fields,
)
from .errors import (
    ConvergenceError,
    DegenerateInputError,
    DomainError,
    ShapeError,
    SpecError,
)

__all__ = [
    "SolverOptions",
    "NnlsProblem",
    "init_factors",
    "mu_step",
    "penalty_value",
    "nmf_multiplicative",
    "nmf_orthogonal",
    "nnls_solve",
    "anls_coefficient_step",
    "anls_basis_step",
    "nmf_anls",
]

SOLVERS = ("mu", "anls", "ortho")

ORTHO_MODES = ("none", "rows_of_C", "cols_of_B", "both")

# iterations between two records of the KKT norms and Gram energies
DIAGNOSTIC_STRIDE = 10


@dataclass(frozen=True)
class SolverOptions:
    """Knobs shared by all solvers.

    ``tolerance`` and ``window`` define the stopping rule: stop once the
    relative decrease of the monitored objective over the last ``window``
    iterations falls below ``tolerance``.  ``penalty`` is the
    orthogonality weight (the lambda of the penalized objective; the name
    ``lambda`` is reserved in Python) and is ignored when
    ``ortho_mode == "none"``.  Only ``nmf_orthogonal`` reads ``ortho_mode``
    and ``penalty``, and it needs a mode other than none;
    ``nmf_multiplicative`` and ``nmf_anls`` run with ``ortho_mode="none"``
    and ``penalty=0.0`` whatever they are given, and a report records the
    options its solver ran with.  The counts are integers; ``tolerance``
    and ``epsilon_guard`` are finite reals > 0 and ``penalty`` one >= 0,
    stored as floats.  A bool or any other value raises ValueError.
    """

    max_iterations: int = 500
    tolerance: float = 1e-6
    window: int = 10
    seed: int = 0
    restarts: int = 1
    epsilon_guard: float = 1e-12
    ortho_mode: str = "none"
    penalty: float = 0.0

    def __post_init__(self):
        _integer_fields(self, {"max_iterations": 1, "window": 1, "seed": 0, "restarts": 1},
                        ValueError)
        _real_fields(self, {"tolerance": "finite and > 0", "epsilon_guard": "finite and > 0",
                            "penalty": "finite and >= 0"}, ValueError)
        if self.ortho_mode not in ORTHO_MODES:
            raise ValueError(
                f"ortho_mode must be one of {ORTHO_MODES}, got {self.ortho_mode!r}"
            )

    @property
    def effective_penalty(self):
        """The penalty weight actually applied (0 when ortho_mode is none)."""
        return 0.0 if self.ortho_mode == "none" else self.penalty


def _runs_with(solver, options):
    # the options ``solver`` (one of SOLVERS) runs with, None being the
    # defaults: mu and anls ignore the orthogonality penalty, so its mode is
    # none and its weight 0, and ortho needs a mode
    if solver not in SOLVERS:
        raise SpecError(f"solver must be one of {SOLVERS}, got {solver!r}")
    if options is None:
        options = SolverOptions()
    if solver != "ortho":
        return replace(options, ortho_mode="none", penalty=0.0)
    if options.ortho_mode == "none":
        raise ValueError("nmf_orthogonal requires ortho_mode in "
                         "{rows_of_C, cols_of_B, both}; use nmf_multiplicative "
                         "for the unpenalized problem")
    return options


def init_factors(m, n, k, data, seed):
    """Random nonnegative starting factors for an m-by-n data matrix.

    Entries are i.i.d. uniform draws scaled by sqrt(mean(data)/k), which
    puts mean(B @ C) on the same order as mean(data).  Draws use the
    half-open interval flipped to (0, 1] so every entry is strictly
    positive and no multiplicative update starts zero-locked.  An all-zero
    data matrix yields all-zero factors and a RuntimeWarning.
    """
    data = as_matrix(data, "data")
    require_nonnegative(data, "data")
    if data.shape != (m, n):
        raise ShapeError(f"data has shape {data.shape}, expected ({m}, {n})")
    k = _rank(k, m, n)
    rng = np.random.default_rng(seed)
    scale = float(np.sqrt(data.mean() / k))
    if scale == 0.0:
        warnings.warn(
            "data matrix is all zeros; initial factors are identically zero",
            RuntimeWarning,
            stacklevel=2,
        )
    basis = (1.0 - rng.random((m, k))) * scale
    coef = (1.0 - rng.random((k, n))) * scale
    return FactorPair(
        basis=basis,
        coefficients=coef,
        rank=k,
        objective=frobenius_objective(data, basis, coef),
        iterations=0,
        converged=False,
    )


def mu_step(data, basis, coef, options=None):
    """One multiplicative update of B then C.

    B' = B * (A C^T) / (B C C^T + eps), then
    C' = C * (B'^T A) / (B'^T B' C + eps).

    With an active ortho_mode the penalty gradient splits into the ratio:
    its negative part joins the numerator, its positive part the
    denominator (e.g. rows_of_C adds 2*lambda*C on top and
    2*lambda*C C^T C below).  Zeros stay zero; nonnegativity is preserved
    by construction.
    """
    if options is None:
        options = SolverOptions()
    data, basis, coef = _conforming(data, basis, coef)
    return _mu_update(data, basis, coef, options.effective_penalty, options)


def _mu_update(data, basis, coef, lam, options):
    # mu_step without validation, for the solvers' loop: 2-D arrays, or
    # stacks of slices with lam an (S, 1, 1) array of their penalties; a
    # zero penalty adds exact zeros, leaving the unpenalized iterates
    eps = options.epsilon_guard
    mode = options.ortho_mode

    numer = data @ coef.mT
    gram = coef @ coef.mT  # of the pre-update C, which the C-step penalty reads too
    denom = basis @ gram
    if mode in ("cols_of_B", "both"):
        numer = numer + 2.0 * lam * basis
        denom = denom + 2.0 * lam * (basis @ (basis.mT @ basis))
    basis = basis * numer / (denom + eps)

    numer = basis.mT @ data
    denom = (basis.mT @ basis) @ coef
    if mode in ("rows_of_C", "both"):
        numer = numer + 2.0 * lam * coef
        denom = denom + 2.0 * lam * (gram @ coef)
    coef = coef * numer / (denom + eps)
    return basis, coef


def penalty_value(basis, coef, options):
    """Current value of the orthogonality penalty terms.

    (lambda/2) * ||B^T B - I||_F^2 for cols_of_B, (lambda/2) *
    ||C C^T - I||_F^2 for rows_of_C, the sum of both for mode both,
    0.0 when the mode is none or lambda is 0.
    """
    lam = options.effective_penalty
    if lam == 0.0:
        return 0.0
    return 0.5 * lam * _gram_deviation(basis, coef, options.ortho_mode)


def _gram_deviation(basis, coef, mode):
    # ||B^T B - I||_F^2 and/or ||C C^T - I||_F^2, as ``mode`` selects, of
    # one factor pair or of each of a stack of them
    total = 0.0
    if mode in ("cols_of_B", "both"):
        g = basis.mT @ basis
        diagonal = _diagonal(g)
        diagonal -= 1.0  # G - I in place, G being fresh
        total = total + _dots(g)
    if mode in ("rows_of_C", "both"):
        g = coef @ coef.mT
        diagonal = _diagonal(g)
        diagonal -= 1.0
        total = total + _dots(g)
    return total


class _Restart:
    """One restart of ``_run``'s stacked iteration: its trace, its stopping
    rule and, once it has ended, its last iterate, which is its result.

    The objective (and the penalized value, kept when ortho_mode is not
    none) is recorded on every iteration, the KKT norms and Gram
    off-diagonal energies every DIAGNOSTIC_STRIDE iterations, and at the
    final one.  ``_run`` computes them for the whole stack, so that a
    slice only appends floats and tests its stopping rule.
    """

    def __init__(self, options):
        self.options = options
        # read on every iteration, so kept off the options object
        self.window = options.window
        self.tolerance = options.tolerance
        self.cap = options.max_iterations
        self.objective = []
        self.penalized = [] if options.ortho_mode != "none" else None
        # (iteration, KKT norm of B, of C, Gram off-diagonal energy of B, of C)
        self.diagnostics = []
        # the values the window rule and the choice of restart read
        self.monitored = self.objective if self.penalized is None else self.penalized

    def add(self, t, iterate, at=..., values=None):
        """Record iteration t, called at t = 0, 1, 2, ...; True once ended.

        ``iterate`` is the (basis, coef, residual) stack, ``at`` the slice's
        index in it and ``values`` its values from ``_stack_values``.  A
        slice iterating alone, on 2-D arrays (``at`` being ``...``),
        computes its own by np.vdot and ``penalty_value``.
        """
        if values is None:
            basis, coef, residual = iterate
            objective = 0.5 * float(np.vdot(residual, residual))
            penalized = None if self.penalized is None else (
                objective + penalty_value(basis, coef, self.options))
            diagnostics = (_diagnostics(basis, coef, residual)
                           if t % DIAGNOSTIC_STRIDE == 0 else None)
        else:
            objective, penalized, diagnostics = values
        self.objective.append(objective)
        if self.penalized is not None:
            self.penalized.append(penalized)
        if diagnostics is not None:
            self.diagnostics.append((t, *diagnostics))
        # monitored[0] is the initial point; one test needs window+1 entries
        fired = False
        if t >= self.window:
            prev = self.monitored[-1 - self.window]
            fired = prev <= 0.0 or (prev - self.monitored[-1]) / prev < self.tolerance
        # a window rule that fires at the cap still counts as converged; the
        # last iterate is copied, since a slice's views would pin its stack
        ended = fired or t == self.cap
        if ended:
            self.last = (t, *(x[at].copy() for x in iterate), fired)
        return ended

    def result(self, k):
        """The (FactorPair, ConvergenceTrace) of the last recorded iteration."""
        t, basis, coef, residual, converged = self.last
        if self.diagnostics[-1][0] != t:
            self.diagnostics.append((t, *_diagnostics(basis, coef, residual)))
        iteration, kkt_b, kkt_c, basis_off, coef_off = map(np.asarray, zip(*self.diagnostics))
        pair = FactorPair(
            basis=basis,
            coefficients=coef,
            rank=k,
            objective=self.objective[-1],
            iterations=t,
            converged=converged,
        )
        return pair, ConvergenceTrace(
            iteration=np.arange(t + 1),
            objective=np.asarray(self.objective),
            kkt_basis=kkt_b,
            kkt_coef=kkt_c,
            basis_offdiag=basis_off,
            coef_offdiag=coef_off,
            penalized=None if self.penalized is None else np.asarray(self.penalized),
            diagnostic_iteration=iteration,
        )


def _diagnostics(basis, coef, residual):
    # the KKT norms of B and C and their Gram off-diagonal energies, of one
    # slice or of each of a stack
    return (*_kkt_norms(basis, coef, residual),
            _offdiag_energy(basis.mT @ basis), _offdiag_energy(coef @ coef.mT))


def _stack_values(t, basis, coef, residual, penalty, mode):
    # every slice's (objective, penalized, diagnostics), each quantity by
    # one batched call whose products and sums are those of the 2-D record
    objective = 0.5 * _dots(residual)
    penalized = repeat(None)
    if mode != "none":
        # 0.0 at lambda = 0, as penalty_value returns, while the deviation is finite
        penalized = (objective + 0.5 * penalty.ravel() * _gram_deviation(basis, coef, mode)).tolist()
    diagnostics = repeat(None)
    if t % DIAGNOSTIC_STRIDE == 0:
        diagnostics = np.column_stack(_diagnostics(basis, coef, residual)).tolist()
    return zip(objective.tolist(), penalized, diagnostics)


def _validate_problem(data, k):
    data = as_matrix(data, "data")
    require_nonnegative(data, "data")
    if not np.any(data):
        raise DegenerateInputError("data matrix is all zeros; nothing to factorize")
    return data, _rank(k, *data.shape)


def _run(problems, step):
    """One (FactorPair, ConvergenceTrace) per ``(data, k, options)``
    problem, all restarts solved as one stacked iteration, equal to solving
    each alone.  The problems share the data shape, k, ``epsilon_guard``
    and ``ortho_mode``; ``step`` reads them from the first one's options.

    Restart r starts from seed ``options.seed + r``.  The running slices'
    data, factors and penalties are stacked as (S, m, n), (S, m, k),
    (S, k, n) and (S, 1, 1), and one ``step(data, basis, coef, penalty,
    options)`` updates them all.  ``_stack_values`` then computes each
    recorded quantity by one batched call.  Each slice is a ``_Restart``
    with its own trace and stopping rule, and leaves the stack once it has
    ended.  A last slice iterates on 2-D arrays and records itself with
    np.vdot and ``penalty_value``: for one slice a batched record costs
    more than it saves.  Per problem, the lowest final monitored value
    wins, the earliest restart on ties.
    """
    problems = [(*_validate_problem(data, k), options) for data, k, options in problems]
    slices = [(data, init_factors(*data.shape, k, data, options.seed + r), options)
              for data, k, options in problems for r in range(options.restarts)]
    data = np.stack([data for data, _, _ in slices])
    basis = np.stack([start.basis for _, start, _ in slices])
    coef = np.stack([start.coefficients for _, start, _ in slices])
    penalty = np.array([options.effective_penalty for *_, options in slices]).reshape(-1, 1, 1)
    restarts = running = [_Restart(options) for *_, options in slices]
    options = problems[0][2]
    for t in count():
        if len(running) == 1 and basis.ndim == 3:
            data, basis, coef, penalty = data[0], basis[0], coef[0], penalty[0]
        if t > 0:
            basis, coef = step(data, basis, coef, penalty, options)
        iterate = basis, coef, basis @ coef - data
        if basis.ndim == 2:
            if running[0].add(t, iterate):
                break
            continue
        values = _stack_values(t, *iterate, penalty, options.ortho_mode)
        keep = [i for i, (run, row) in enumerate(zip(running, values))
                if not run.add(t, iterate, i, row)]
        if not keep:
            break
        if len(keep) < len(running):
            running = [running[i] for i in keep]
            data, basis, coef, penalty = data[keep], basis[keep], coef[keep], penalty[keep]
    # a problem's restarts are consecutive; min keeps the earliest of equals
    restarts = iter(restarts)
    return [min(islice(restarts, options.restarts), key=lambda run: run.monitored[-1]).result(k)
            for _, k, options in problems]


def nmf_multiplicative(data, k, options=None):
    """Standard NMF by multiplicative updates.

    Runs ``options.restarts`` independent starts (seeds seed, seed+1, ...)
    as one stacked iteration, with results equal to running them one at a
    time, and keeps the run with the lowest final objective, ties going to
    the earliest restart.  The trace covers the winning run only, starting at
    the initial point (iteration 0).  ortho_mode and penalty are ignored
    here; use nmf_orthogonal for the penalized regimes.
    """
    return _run([(data, k, _runs_with("mu", options))], _mu_update)[0]


def nmf_orthogonal(data, k, options):
    """Penalized multiplicative updates for the orthogonal regimes.

    Requires ortho_mode in {rows_of_C, cols_of_B, both}.  The stopping
    rule and the restart selection both monitor the penalized objective
    (trace field ``penalized``); the trace and FactorPair keep the raw J
    alongside it.  With penalty=0 the arithmetic reduces exactly to
    nmf_multiplicative, iterate for iterate, while the penalty terms are
    finite: they add exact zeros, and the penalized value is J + 0.0.
    """
    return _run([(data, k, _runs_with("ortho", options))], _mu_update)[0]


@dataclass(frozen=True)
class NnlsProblem:
    """One nonnegative least squares instance: min 0.5*||target - design @ c||^2
    over c >= 0, with nonnegative design and target (data vectors here are
    always nonnegative)."""

    design: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        design = as_matrix(self.design, "design")
        target = as_vector(self.target, "target")
        require_nonnegative(design, "design")
        if target.shape[0] != design.shape[0]:
            raise ShapeError(
                f"target length {target.shape[0]} does not match design rows "
                f"{design.shape[0]}"
            )
        if np.any(target < 0.0):
            i = int(np.flatnonzero(target < 0.0)[0])
            raise DomainError(f"target has negative entry at index {i}")
        object.__setattr__(self, "design", _frozen(design))
        object.__setattr__(self, "target", _frozen(target))


def nnls(design, target):
    """``scipy.optimize.nnls``, imported on first call: it is slow to import."""
    from scipy.optimize import nnls as lawson_hanson
    return lawson_hanson(design, target)


def _nnls_kernel(design, target):
    """Lawson-Hanson active-set solve by ``scipy.optimize.nnls``.

    Its cap of 3k iterations for k unknowns raises ConvergenceError
    carrying the zero vector, which is feasible.
    """
    try:
        return nnls(design, target)[0]
    except RuntimeError as exc:
        raise ConvergenceError(
            f"NNLS did not terminate: {exc}", best=np.zeros(design.shape[1])
        ) from None


def nnls_solve(problem, target=None):
    """Solve one NNLS problem exactly.

    Accepts either an NnlsProblem or a (design, target) pair.  The result
    satisfies the KKT conditions: g = design^T (design @ c - target) has
    g_i >= -1e-8 everywhere and |c_i * g_i| <= 1e-8.  Raises
    ConvergenceError if the solver hits its iteration cap.
    """
    if target is not None:
        problem = NnlsProblem(problem, target)
    elif not isinstance(problem, NnlsProblem):
        raise ShapeError("nnls_solve expects an NnlsProblem or (design, target)")
    return _nnls_kernel(problem.design, problem.target)


def anls_coefficient_step(data, basis):
    """Exact C update: one NNLS solve per data column against the basis."""
    data = as_matrix(data, "data")
    basis = as_matrix(basis, "basis")
    if basis.shape[0] != data.shape[0]:
        raise ShapeError(
            f"basis rows {basis.shape[0]} do not match data rows {data.shape[0]}"
        )
    k = basis.shape[1]
    coef = np.empty((k, data.shape[1]))
    for j in range(data.shape[1]):
        coef[:, j] = _nnls_kernel(basis, data[:, j])
    return coef


def anls_basis_step(data, coef):
    """Exact B update: one NNLS solve per data row against C^T."""
    data = as_matrix(data, "data")
    coef = as_matrix(coef, "coefficients")
    if coef.shape[1] != data.shape[1]:
        raise ShapeError(
            f"coefficient columns {coef.shape[1]} do not match data columns "
            f"{data.shape[1]}"
        )
    k = coef.shape[0]
    design = np.ascontiguousarray(coef.T)
    basis = np.empty((data.shape[0], k))
    for i in range(data.shape[0]):
        basis[i, :] = _nnls_kernel(design, data[i, :])
    return basis


def _anls_sweep(data, basis, coef, *_):
    if basis.ndim == 3:
        # scipy's nnls does not batch, so a stack is swept slice by slice
        pairs = [_anls_sweep(*slice_) for slice_ in zip(data, basis, coef)]
        return np.stack([b for b, _ in pairs]), np.stack([c for _, c in pairs])
    coef = anls_coefficient_step(data, basis)
    return anls_basis_step(data, coef), coef


def nmf_anls(data, k, options=None):
    """NMF by alternating exact NNLS sweeps (C given B, then B given C).

    Each half-sweep is a global optimum of its block, so the objective is
    non-increasing per half-sweep up to arithmetic noise.  Restart and
    stopping semantics match nmf_multiplicative.
    """
    return _run([(data, k, _runs_with("anls", options))], _anls_sweep)[0]
