"""Affinity matrices: item/feature Gram affinities and graph symmetrization.

For data A the item affinity is A^T A and the feature affinity is A A^T;
both are computed with explicit upper-triangle mirroring so the result is
exactly symmetric despite floating-point non-associativity (the spectral
baseline's ``jacobi_eigen`` rejects asymmetric input, and ``eigh`` reads
one triangle only).  A directed graph's weight matrix V
becomes undirected as V + V^T, kept unscaled; ratio-association argmax
partitions are invariant under uniform positive scaling, so the factor of
two is harmless.
"""

from dataclasses import dataclass

import numpy as np

from .core import _frozen, as_matrix, require_nonnegative
from .errors import DomainError, ShapeError

__all__ = [
    "AffinityMatrix",
    "item_affinity",
    "feature_affinity",
    "symmetrize",
]

KINDS = ("item", "feature", "undirected", "symmetrized-directed")

# the largest |W - W^T| entry a matrix may have and still count as symmetric
_SYMMETRY_TOLERANCE = 1e-10


def _is_symmetric(m):
    return m.shape[0] == m.shape[1] and float(np.abs(m - m.T).max()) <= _SYMMETRY_TOLERANCE


@dataclass(frozen=True)
class AffinityMatrix:
    """A square, symmetric, nonnegative similarity matrix and its provenance."""

    matrix: np.ndarray
    kind: str

    def __post_init__(self):
        m = as_matrix(self.matrix, "affinity")
        require_nonnegative(m, "affinity")
        if m.shape[0] != m.shape[1]:
            raise ShapeError(f"affinity must be square, got shape {m.shape}")
        if self.kind not in KINDS:
            raise DomainError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not _is_symmetric(m):
            i, j = np.unravel_index(int(np.abs(m - m.T).argmax()), m.shape)
            raise DomainError(
                f"affinity is asymmetric at ({i}, {j}): "
                f"{m[i, j]!r} vs {m[j, i]!r}"
            )
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def n(self):
        return self.matrix.shape[0]


def weights_array(obj, name="affinity"):
    """Unwrap an AffinityMatrix, or validate a bare square weight array."""
    if isinstance(obj, AffinityMatrix):
        return obj.matrix
    w = as_matrix(obj, name)
    if w.shape[0] != w.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {w.shape}")
    return w


def _mirror(g):
    # keep the upper triangle (with diagonal), reflect it below
    upper = np.triu(g)
    return upper + np.triu(g, 1).T


def item_affinity(data):
    """A^T A as an exact-symmetric AffinityMatrix over the N items."""
    data = as_matrix(data, "data")
    require_nonnegative(data, "data")
    return AffinityMatrix(_mirror(data.T @ data), kind="item")


def feature_affinity(data):
    """A A^T as an exact-symmetric AffinityMatrix over the M features."""
    data = as_matrix(data, "data")
    require_nonnegative(data, "data")
    return AffinityMatrix(_mirror(data @ data.T), kind="feature")


def symmetrize(directed):
    """V + V^T for a square nonnegative weight matrix V.

    The sum is returned as-is (no halving); an already symmetric W simply
    doubles.  Exactly symmetric by construction.
    """
    v = as_matrix(directed, "directed weights")
    require_nonnegative(v, "directed weights")
    if v.shape[0] != v.shape[1]:
        raise ShapeError(f"directed weight matrix must be square, got {v.shape}")
    return AffinityMatrix(v + v.T, kind="symmetrized-directed")
