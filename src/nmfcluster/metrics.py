"""Cluster extraction from factors and partition-quality metrics.

Assignments follow the indicator reading of the factors: item n joins
argmax_k of column n of C, feature m joins argmax_k of row m of B, with
B's columns unit-normalized first (use core.normalize_factors) so the
coefficient rows are on a common scale.  Scoring covers ratio association
(with a brute-force oracle for desk-scale n), orthogonality deviation of
a factor's Gram matrix, matched accuracy, and NMI.

The oracle grows canonical labelings one element at a time.  Each prefix
carries per-cluster within weights and sizes, so placing an element
costs one prefix sum of its links per cluster, not a rescoring of the
whole labeling.  At most LABELING_BLOCK labelings are scored at once,
and among equal optima the lexicographically smallest labeling wins.
"""

from dataclasses import dataclass

import numpy as np

from .affinity import weights_array
from .core import _as_int, _frozen, _offdiag_energy, as_matrix, require_nonnegative
from .errors import DegenerateFactorError, DomainError, ShapeError, SizeLimitError

__all__ = [
    "Partition",
    "as_partition",
    "assign_items",
    "assign_features",
    "ratio_association",
    "brute_force_ratio_assoc",
    "orthogonality_deviation",
    "cluster_accuracy",
    "nmi",
]

BRUTE_FORCE_MAX_N = 12
MATCHING_MAX_K = 64
LABELING_BLOCK = 4096


def _cluster_count(n_clusters):
    # n_clusters as an int; DomainError unless it is an integer >= 1
    k = _as_int(n_clusters)
    if k is None or k < 1:
        raise DomainError(f"n_clusters must be an integer >= 1, got {n_clusters!r}")
    return k


@dataclass(frozen=True)
class Partition:
    """Hard cluster labels over n elements, values in [0, n_clusters)."""

    labels: np.ndarray
    n_clusters: int

    def __post_init__(self):
        arr = np.asarray(self.labels)
        if arr.ndim != 1 or arr.size == 0:
            raise ShapeError(f"labels must be a nonempty 1-D array, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            if not np.all(arr == np.floor(arr)):
                raise DomainError("labels must be integers")
        k = _cluster_count(self.n_clusters)
        # before the int64 cast, which would alter an infinite or huge label
        top = min(k, 2**63)
        outside = (arr < 0) | (arr >= top)
        if np.any(outside):
            bad = int(np.flatnonzero(outside)[0])
            raise DomainError(f"label {arr[bad]} at position {bad} outside [0, {top})")
        object.__setattr__(self, "labels", _frozen(arr, np.int64))
        object.__setattr__(self, "n_clusters", k)

    @property
    def n(self):
        return int(self.labels.size)

    @property
    def sizes(self):
        return np.bincount(self.labels, minlength=self.n_clusters)

    @property
    def empty_clusters(self):
        """Cluster ids with no members (they contribute nothing to RA)."""
        return tuple(int(c) for c in np.flatnonzero(self.sizes == 0))


def as_partition(labels, n_clusters=None):
    """Coerce a label array into a Partition; pass Partitions through.

    Without an explicit cluster count the labels are taken at face value
    and the count is max(labels) + 1.
    """
    if isinstance(labels, Partition):
        return labels
    arr = np.asarray(labels)
    if n_clusters is None:
        if arr.size == 0:
            raise ShapeError("labels must be a nonempty 1-D array, got shape (0,)")
        top = np.max(arr)
        # a label past int64 gets the largest count, and Partition names it
        n_clusters = int(top) + 1 if top < 2**63 else 2**63
    return Partition(arr, n_clusters)


def assign_items(coef, *, zero_to_first=False):
    """Partition the N items by per-column argmax of the K x N coefficients.

    Ties go to the lowest cluster index.  An all-zero column has no
    argmax to speak of; that raises DegenerateFactorError unless
    ``zero_to_first`` maps such items to cluster 0.
    """
    c = as_matrix(coef, "coefficients")
    require_nonnegative(c, "coefficients")
    if not zero_to_first:
        dead = np.flatnonzero(~c.any(axis=0))
        if dead.size:
            raise DegenerateFactorError(
                f"item {dead[0]} has an all-zero coefficient column; "
                "pass zero_to_first=True to map it to cluster 0"
            )
    return Partition(np.argmax(c, axis=0), c.shape[0])


def assign_features(basis, *, zero_to_first=False):
    """Partition the M features by per-row argmax of the M x K basis."""
    b = as_matrix(basis, "basis")
    require_nonnegative(b, "basis")
    if not zero_to_first:
        dead = np.flatnonzero(~b.any(axis=1))
        if dead.size:
            raise DegenerateFactorError(
                f"feature {dead[0]} has an all-zero basis row; "
                "pass zero_to_first=True to map it to cluster 0"
            )
    return Partition(np.argmax(b, axis=1), b.shape[1])


def ratio_association(affinity, partition):
    """RA = sum over nonempty clusters of (within-cluster weight)/(size).

    Equals tr(X W X^T) for the size-normalized indicator X whose row k is
    the indicator of cluster k divided by sqrt(|cluster k|).
    """
    w = weights_array(affinity)
    partition = as_partition(partition)
    if w.shape[0] != partition.n:
        raise ShapeError(
            f"affinity is {w.shape[0]}x{w.shape[0]} but partition has "
            f"{partition.n} elements"
        )
    total = 0.0
    for c in range(partition.n_clusters):
        idx = np.flatnonzero(partition.labels == c)
        if idx.size:
            total += float(w[np.ix_(idx, idx)].sum()) / idx.size
    return total


def brute_force_ratio_assoc(affinity, n_clusters):
    """Exact RA maximizer over all partitions into at most n_clusters groups.

    Enumerates canonical labelings (restricted growth strings) depth first
    as blocks of prefixes, so label permutations are visited once.  Each
    prefix carries its per-cluster within weight and size, and placing
    element d in cluster c adds w[d, d] plus the links w[d, j] + w[j, d]
    to the earlier members j of c, summed in element order.  The children
    of the last element are scored for a whole block at once, at most
    LABELING_BLOCK labelings; among maximizers the lexicographically
    smallest labeling wins.  Capped at n <= 12 elements.
    """
    w = weights_array(affinity)
    n = w.shape[0]
    if n > BRUTE_FORCE_MAX_N:
        raise SizeLimitError(
            f"brute force enumeration is capped at n <= {BRUTE_FORCE_MAX_N}, got {n}"
        )
    k = _cluster_count(n_clusters)

    width = min(k, n)  # no label of n elements exceeds n - 1
    # parents per block, so that no block grows more than LABELING_BLOCK children
    rows_per_block = LABELING_BLOCK // width
    clusters = np.arange(width)
    best_value, best_labels = -np.inf, None
    # a block: int8 labels of its prefixes, within weight and size per cluster
    stack = [(np.zeros((1, 0), np.int8), np.zeros((1, width)), np.zeros((1, width), np.int8))]
    while stack:
        labels, within, size = stack.pop()
        s, d = labels.shape
        # links of element d to each cluster of each prefix, in element order
        bins = (np.arange(s)[:, None] * width + labels).ravel()
        links = np.bincount(bins, np.tile(w[d, :d] + w[:d, d], s), minlength=s * width)
        added = w[d, d] + links.reshape(s, width)
        # the next label is at most one above the largest so far
        allowed = clusters <= np.count_nonzero(size, axis=1)[:, None]
        if d == n - 1:
            # (parent, label of d, cluster) for every child of the block
            child_within = np.repeat(within[:, None, :], width, axis=1)
            child_size = np.repeat(size[:, None, :], width, axis=1)
            child_within[:, clusters, clusters] += added
            child_size[:, clusters, clusters] += 1
            ratios = child_within / np.maximum(child_size, 1)
            value = np.add.accumulate(ratios, axis=2)[:, :, -1]  # in label order
            value[~allowed] = -np.inf
            top = np.unravel_index(np.argmax(value), value.shape)
            if value[top] > best_value:
                best_value = value[top]
                best_labels = np.append(labels[top[0]], np.int8(top[1]))
            continue
        parent, label = np.nonzero(allowed)
        grown = np.column_stack([labels[parent], label.astype(np.int8)])
        grown_within = within[parent]
        grown_size = size[parent]
        rows = np.arange(len(parent))
        grown_within[rows, label] += added[parent, label]
        grown_size[rows, label] += 1
        cuts = range(rows_per_block, len(grown), rows_per_block)
        stack.extend(reversed(list(zip(
            np.split(grown, cuts), np.split(grown_within, cuts), np.split(grown_size, cuts)
        ))))
    best = Partition(best_labels, k)
    # report the value through the same code path callers use for scoring
    return best, ratio_association(w, best)


def orthogonality_deviation(factor, axis="columns"):
    """Off-diagonal Gram energy of a factor, raw and normalized.

    Raw j2 is the sum of squared inner products over distinct pairs of
    columns (axis="columns") or rows (axis="rows"); it is zero exactly
    when the vectors are mutually orthogonal.  The normalized variant is
    the mean squared cosine over distinct pairs, a scale-free number in
    [0, 1]; it needs every vector nonzero and raises
    DegenerateFactorError naming the first zero vector otherwise.
    Returns (raw, normalized).
    """
    f = as_matrix(factor, "factor")
    require_nonnegative(f, "factor")
    if axis == "columns":
        gram = f.T @ f
    elif axis == "rows":
        gram = f @ f.T
    else:
        raise DomainError(f"axis must be 'columns' or 'rows', got {axis!r}")
    diag = np.diagonal(gram).copy()
    raw = _offdiag_energy(gram)
    p = gram.shape[0]
    if p == 1:
        return 0.0, 0.0
    dead = np.flatnonzero(diag == 0.0)
    if dead.size:
        raise DegenerateFactorError(
            f"{axis[:-1]} {dead[0]} of the factor is identically zero; "
            "normalized deviation is undefined"
        )
    cos2 = gram * gram / np.outer(diag, diag)
    normalized = float((cos2.sum() - p) / (p * (p - 1)))
    return raw, normalized


def _confusion(pred, truth):
    if pred.n != truth.n:
        raise ShapeError(
            f"partitions disagree on length: {pred.n} vs {truth.n}"
        )
    table = np.zeros((pred.n_clusters, truth.n_clusters))
    np.add.at(table, (pred.labels, truth.labels), 1.0)
    return table


def cluster_accuracy(pred, truth):
    """Fraction of elements explained by the best one-to-one cluster matching.

    Maximum-weight matching on the confusion table (Hungarian assignment),
    so the score is invariant to label permutations of either side and
    symmetric in its arguments.  1.0 means identical up to relabeling.
    """
    from scipy.optimize import linear_sum_assignment
    pred = as_partition(pred)
    truth = as_partition(truth)
    if pred.n_clusters > MATCHING_MAX_K or truth.n_clusters > MATCHING_MAX_K:
        raise SizeLimitError(
            f"matching is capped at {MATCHING_MAX_K} clusters, got "
            f"{pred.n_clusters} and {truth.n_clusters}"
        )
    table = _confusion(pred, truth)
    rows, cols = linear_sum_assignment(table, maximize=True)
    return float(table[rows, cols].sum()) / pred.n


def nmi(pred, truth):
    """Normalized mutual information with arithmetic-mean normalization.

    2*I(pred; truth) / (H(pred) + H(truth)), in [0, 1].  Two one-cluster
    partitions are identical, so the degenerate 0/0 case maps to 1.0;
    one trivial partition against a non-trivial one gives 0.
    """
    pred = as_partition(pred)
    truth = as_partition(truth)
    table = _confusion(pred, truth)
    n = pred.n
    joint = table / n
    pi = joint.sum(axis=1)
    pj = joint.sum(axis=0)
    nz = joint > 0.0
    outer = np.outer(pi, pj)
    info = float(np.sum(joint[nz] * np.log(joint[nz] / outer[nz])))
    hp = float(-np.sum(pi[pi > 0.0] * np.log(pi[pi > 0.0])))
    ht = float(-np.sum(pj[pj > 0.0] * np.log(pj[pj > 0.0])))
    if hp + ht == 0.0:
        return 1.0
    value = 2.0 * info / (hp + ht)
    # clamp arithmetic slop at the boundaries
    return float(min(1.0, max(0.0, value)))
