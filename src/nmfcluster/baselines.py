"""Comparison baselines: Lloyd k-means and a spectral method.

The spectral baseline is the classical relaxation of ratio association:
take the top-K eigenvectors of the affinity matrix itself (not a
Laplacian) and cluster the embedded rows with k-means.  The
eigendecomposition is LAPACK's symmetric solver through
``numpy.linalg.eigh``; everything here runs at desk scale.
"""

from dataclasses import dataclass

import numpy as np

from .affinity import _is_symmetric, weights_array
from .core import _integer_fields, _rank, _real_fields, as_matrix
from .errors import DomainError, RankError
from .metrics import Partition

__all__ = ["KmeansOptions", "kmeans", "jacobi_eigen", "spectral_ratio_assoc"]


@dataclass(frozen=True)
class KmeansOptions:
    """Settings of ``kmeans``.  The counts are integers and ``tolerance``, the
    center shift that ends a Lloyd run, is a finite real >= 0 stored as a
    float; a bool or any other value raises ValueError."""

    k: int
    max_iterations: int = 100
    seed: int = 0
    restarts: int = 10
    tolerance: float = 1e-8

    def __post_init__(self):
        _integer_fields(self, {"k": 1, "max_iterations": 1, "seed": 0, "restarts": 1},
                        ValueError)
        _real_fields(self, {"tolerance": "finite and >= 0"}, ValueError)


def _sq_dists(points, centers):
    # (n, k) matrix of squared Euclidean distances
    diff = points[:, None, :] - centers[None, :, :]
    return np.einsum("nkd,nkd->nk", diff, diff)


def _seed_plusplus(points, k, rng):
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(n))]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0.0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        centers[c] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[c]) ** 2, axis=1))
    return centers


def _lloyd(points, options, rng):
    """One seeded k-means run. Returns (labels, inertia, per-iteration inertia)."""
    n = points.shape[0]
    k = options.k
    centers = _seed_plusplus(points, k, rng)
    history = []
    for _ in range(options.max_iterations):
        d2 = _sq_dists(points, centers)
        labels = d2.argmin(axis=1)
        inertia = float(d2[np.arange(n), labels].sum())
        history.append(inertia)
        new_centers = centers.copy()
        for c in range(k):
            mask = labels == c
            if mask.any():
                new_centers[c] = points[mask].mean(axis=0)
            else:
                # re-seed an empty cluster to the point farthest from its center
                far = int(np.argmax(d2[np.arange(n), labels]))
                new_centers[c] = points[far]
        shift = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1).max()))
        centers = new_centers
        if shift <= options.tolerance:
            break
    d2 = _sq_dists(points, centers)
    labels = d2.argmin(axis=1)
    inertia = float(d2[np.arange(n), labels].sum())
    history.append(inertia)
    return labels, inertia, history


def kmeans(points, options):
    """Best-of-restarts Lloyd iteration with k-means++ seeding.

    ``points`` holds one point per row (any sign; spectral embeddings are
    welcome).  Restart r uses seed options.seed + r; the lowest final
    inertia wins, earliest restart on ties.  Returns (Partition, inertia).
    """
    points = as_matrix(points, "points")
    if points.shape[0] < options.k:
        raise RankError(
            f"k={options.k} exceeds the number of points {points.shape[0]}"
        )
    best = None
    for r in range(options.restarts):
        rng = np.random.default_rng(options.seed + r)
        labels, inertia, _ = _lloyd(points, options, rng)
        if best is None or inertia < best[1]:
            best = (labels, inertia)
    return Partition(best[0], options.k), best[1]


def jacobi_eigen(affinity):
    """Full eigendecomposition of a symmetric matrix.

    Returns (eigenvalues descending, eigenvector matrix with matching
    columns); equal eigenvalues keep the order ``numpy.linalg.eigh``
    gives them.  Input asymmetric beyond 1e-10 is rejected.  The name
    stays for existing callers; the solver is LAPACK's, not Jacobi
    rotations.
    """
    w = weights_array(affinity)
    if not _is_symmetric(w):
        asym = float(np.abs(w - w.T).max())
        raise DomainError(f"matrix is asymmetric by {asym:.3e}; symmetrize it first")
    values, vecs = np.linalg.eigh(w)
    order = np.argsort(-values, kind="stable")
    return values[order], vecs[:, order]


def spectral_ratio_assoc(affinity, k, seed=0):
    """Spectral baseline: k-means on the rows of the top-k eigenvectors of W."""
    w = weights_array(affinity)
    k = _rank(k, *w.shape)
    _, vecs = jacobi_eigen(w)
    embedding = vecs[:, :k]
    part, _ = kmeans(embedding, KmeansOptions(k=k, seed=seed))
    return part
