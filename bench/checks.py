"""Correctness checks on the outputs of nmfcluster, computed independently.

Every check recomputes its reference here, with plain NumPy and SciPy, or
tests a property the method must have.  None compares against a stored
output of an earlier run.  A failed check raises ``CheckFailed``.
"""

import numpy as np


class CheckFailed(AssertionError):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def objective(data, basis, coef):
    """0.5 * ||A - B C||_F^2."""
    residual = np.asarray(data) - np.asarray(basis) @ np.asarray(coef)
    return 0.5 * float(np.sum(residual * residual))


def kkt_norms(data, basis, coef):
    """Frobenius norms of min(B, grad_B J) and min(C, grad_C J)."""
    basis = np.asarray(basis)
    coef = np.asarray(coef)
    residual = basis @ coef - np.asarray(data)
    return (float(np.linalg.norm(np.minimum(basis, residual @ coef.T))),
            float(np.linalg.norm(np.minimum(coef, basis.T @ residual))))


def kkt_bound(data):
    """The KKT tolerance of acceptance test AC-2: 1e-3 * (1 + ||A||_F)."""
    return 1e-3 * (1.0 + float(np.linalg.norm(data)))


def check_objective(data, basis, coef, reported, what):
    own = objective(data, basis, coef)
    _require(abs(own - reported) <= 1e-10 * max(1.0, own),
             f"{what}: objective {reported!r} but 0.5*||A-BC||^2 = {own!r}")


def check_kkt(norm, bound, what):
    _require(norm <= bound, f"{what}: KKT norm {norm:.3e} above {bound:.3e}")


def check_monotone(values, what, rel=1e-9):
    values = np.asarray(values, dtype=float)
    rises = np.flatnonzero(values[1:] > values[:-1] * (1.0 + rel))
    _require(rises.size == 0,
             f"{what}: objective rises at iteration {rises[:1] + 1} "
             f"(by more than {rel:g} relative)")


def check_same_matrix(read_back, generated, what):
    _require(np.shape(read_back) == np.shape(generated)
             and np.array_equal(read_back, generated),
             f"{what}: what was read back differs from what was generated")


def check_reports_agree(first, second, keys, what, tol=1e-10):
    """Each key holds the same value in both reports: numbers within tol
    (relative above 1), lists and None exactly."""
    for key in keys:
        a, b = first[key], second[key]
        if isinstance(a, float) or isinstance(b, float):
            _require(a is not None and b is not None
                     and abs(a - b) <= tol * max(1.0, abs(a)),
                     f"{what}: {key} is {a!r} in one report, {b!r} in the other")
        else:
            _require(a == b, f"{what}: {key} differs between the reports")


def accuracy(pred, truth):
    """Matched accuracy from a confusion table and a maximum assignment."""
    # here, not at the top: set-up time is the package's imports alone
    from scipy.optimize import linear_sum_assignment

    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    rows, cols = int(pred.max()) + 1, int(truth.max()) + 1
    table = np.bincount(pred * cols + truth, minlength=rows * cols).reshape(rows, cols)
    r, c = linear_sum_assignment(table, maximize=True)
    return float(table[r, c].sum()) / pred.size


def check_accuracy(pred, truth, reported, what):
    own = accuracy(pred, truth)
    _require(reported is not None and abs(own - reported) <= 1e-12,
             f"{what}: accuracy {reported!r} but the matched confusion table gives {own!r}")


def ratio_association(weights, labels):
    """Sum over clusters of (within-cluster weight) / (cluster size)."""
    labels = np.asarray(labels)
    total = 0.0
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        total += float(weights[np.ix_(members, members)].sum()) / members.size
    return total


def spectral_bound(weights, k):
    """Sum of the positive parts of the k largest eigenvalues of W, an upper
    bound on the ratio association of any partition into at most k groups."""
    values = np.linalg.eigvalsh(weights)[::-1][:k]
    return float(np.maximum(values, 0.0).sum())


def check_oracle(oracle, weights, k, partitions, what):
    """The exact RA optimum is at least the RA of every given partition and
    at most the spectral bound."""
    bound = spectral_bound(weights, k)
    slack = 1e-9 * max(1.0, bound)
    _require(oracle is not None, f"{what}: no RA oracle value")
    for name, labels in partitions.items():
        ra = ratio_association(weights, labels)
        _require(oracle >= ra - slack,
                 f"{what}: RA oracle {oracle!r} below the RA {ra!r} of the {name} partition")
    _require(oracle <= bound + slack,
             f"{what}: RA oracle {oracle!r} above the spectral bound {bound!r}")


def check_ra(reported, weights, labels, k, what):
    """A reported RA equals our own and stays under the spectral bound."""
    own = ratio_association(weights, labels)
    bound = spectral_bound(weights, k)
    _require(abs(own - reported) <= 1e-9 * max(1.0, own),
             f"{what}: RA {reported!r} but the partition's RA is {own!r}")
    _require(own <= bound + 1e-9 * max(1.0, bound),
             f"{what}: RA {own!r} above the spectral bound {bound!r}")


def check_penalty_trend(jc2_by_lambda, what):
    """The median normalized row deviation of C does not rise with lambda."""
    lambdas = sorted(jc2_by_lambda)
    medians = [float(np.median(jc2_by_lambda[lam])) for lam in lambdas]
    for i in range(1, len(lambdas)):
        _require(medians[i] <= medians[i - 1] * (1.0 + 1e-9),
                 f"{what}: median jc2_norm rises from {medians[i - 1]!r} at "
                 f"lambda={lambdas[i - 1]:g} to {medians[i]!r} at lambda={lambdas[i]:g}")
