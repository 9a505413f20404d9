"""Partitions, assignments, ratio association, deviations, accuracy, NMI."""

import itertools
import re

import numpy as np
import pytest

from nmfcluster import metrics
from nmfcluster.core import normalize_factors
from nmfcluster.errors import (
    DegenerateFactorError,
    DomainError,
    ShapeError,
    SizeLimitError,
)
from nmfcluster.metrics import (
    Partition,
    as_partition,
    assign_features,
    assign_items,
    brute_force_ratio_assoc,
    cluster_accuracy,
    nmi,
    orthogonality_deviation,
    ratio_association,
)

from oracles import (
    accuracy_by_permutation,
    best_ra_by_enumeration,
    nmi_reference,
    offdiag_energy,
    ratio_assoc_indicator,
)


# ---------------------------------------------------------------- Partition

def test_partition_basics():
    p = Partition(np.array([0, 1, 0, 2]), 4)
    assert p.n == 4
    assert np.array_equal(p.sizes, [2, 1, 1, 0])
    assert p.empty_clusters == (3,)
    assert not p.labels.flags.writeable


def test_partition_accepts_integral_floats():
    p = Partition(np.array([0.0, 1.0]), 2)
    assert p.labels.dtype == np.int64


def test_partition_validation():
    with pytest.raises(ShapeError):
        Partition(np.array([]), 1)
    with pytest.raises(ShapeError):
        Partition(np.zeros((2, 2)), 2)
    with pytest.raises(DomainError):
        Partition(np.array([0.5]), 1)
    with pytest.raises(DomainError, match="position 1"):
        Partition(np.array([0, 2]), 2)
    with pytest.raises(DomainError):
        Partition(np.array([0]), 0)
    for count in (2.5, 2.0, True, np.float64(2.0), "2"):
        with pytest.raises(DomainError, match="n_clusters must be an integer"):
            Partition([0, 1, 0], count)
    p = Partition([0, 1, 0], np.int64(2))
    assert type(p.n_clusters) is int and p.n_clusters == 2


@pytest.mark.parametrize("make, message", [
    (lambda: Partition(np.array([0.0, np.inf]), 2), "label inf at position 1 outside [0, 2)"),
    (lambda: Partition(np.array([0.0, 5.0]), 3), "label 5.0 at position 1 outside [0, 3)"),
    (lambda: Partition(np.array([0, 2**70]), 2),
     f"label {2**70} at position 1 outside [0, 2)"),
    (lambda: as_partition([0, 2**70]), f"label {2**70} at position 1 outside [0, {2**63})"),
    (lambda: as_partition([0.0, -np.inf]), "label -inf at position 1 outside [0, 1)"),
    (lambda: as_partition([0.0, np.inf]), f"label inf at position 1 outside [0, {2**63})"),
    (lambda: as_partition([0.0, np.nan]), "labels must be integers"),
], ids=["inf", "float", "past-int64", "as-partition-past-int64", "as-partition-minus-inf",
        "as-partition-inf", "as-partition-nan"])
def test_partition_names_a_label_it_cannot_hold(make, message):
    # checked before the int64 cast, so no cast warning or OverflowError
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        make()


def test_as_partition_coercion():
    p = Partition(np.array([0, 1]), 2)
    assert as_partition(p) is p
    q = as_partition([0, 0, 3])
    assert q.n_clusters == 4
    r = as_partition([0, 1], n_clusters=5)
    assert r.n_clusters == 5


# -------------------------------------------------------------- assignment

def test_assign_items_examples():
    assert np.array_equal(
        assign_items(np.array([[0.9, 0.1], [0.1, 0.8]])).labels, [0, 1]
    )
    assert np.array_equal(assign_items(np.eye(3)).labels, [0, 1, 2])
    # tie goes to the lowest cluster index
    assert np.array_equal(assign_items(np.full((3, 1), 0.5)).labels, [0])


def test_assign_features_examples():
    assert np.array_equal(assign_features(np.eye(3)).labels, [0, 1, 2])
    assert np.array_equal(
        assign_features(np.array([[0.2, 0.7], [0.5, 0.1]])).labels, [1, 0]
    )
    assert np.array_equal(assign_features(np.array([[0.5, 0.5]])).labels, [0])


def test_assign_zero_column_raises_or_maps():
    c = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegenerateFactorError, match="item 1"):
        assign_items(c)
    part = assign_items(c, zero_to_first=True)
    assert np.array_equal(part.labels, [0, 0])
    b = c.T
    with pytest.raises(DegenerateFactorError, match="feature 1"):
        assign_features(b)


def test_assignment_invariant_under_diagonal_rescaling():
    """Rescaling (B, C) -> (BD, D^-1 C) must not move any item once the
    pair goes through normalize_factors first."""
    rng = np.random.default_rng(23)
    for trial in range(10):
        b = rng.uniform(0.1, 2.0, (6, 3))
        c = rng.uniform(0.1, 2.0, (3, 8))
        d = rng.uniform(0.1, 10.0, 3)
        _, nc0 = normalize_factors(b, c)
        _, nc1 = normalize_factors(b * d, c / d[:, None])
        assert np.array_equal(assign_items(nc0).labels, assign_items(nc1).labels)


# -------------------------------------------------------- ratio association

def test_ratio_association_single_cluster():
    assert ratio_association(np.ones((4, 4)), Partition(np.zeros(4, int), 1)) == 4.0


def test_ratio_association_block_example():
    w = np.zeros((4, 4))
    w[:2, :2] = 1.0
    w[2:, 2:] = 1.0
    assert ratio_association(w, Partition(np.array([0, 0, 1, 1]), 2)) == 4.0
    assert ratio_association(w, Partition(np.zeros(4, int), 1)) == 2.0


def test_ratio_association_skips_empty_clusters():
    w = np.ones((2, 2))
    assert ratio_association(w, Partition(np.array([0, 0]), 2)) == 2.0


def test_ratio_association_matches_indicator_form():
    rng = np.random.default_rng(24)
    for trial in range(20):
        n, k = 8, int(rng.integers(2, 4))
        half = rng.random((n, n))
        w = half + half.T
        labels = rng.integers(0, k, n)
        got = ratio_association(w, Partition(labels, k))
        want = ratio_assoc_indicator(w, labels, k)
        assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


def test_ratio_association_shape_mismatch():
    with pytest.raises(ShapeError):
        ratio_association(np.ones((3, 3)), Partition(np.array([0, 1]), 2))


# ---------------------------------------------------------------- brute force

def test_brute_force_block_case():
    w = np.zeros((4, 4))
    w[:2, :2] = 1.0
    w[2:, 2:] = 1.0
    part, value = brute_force_ratio_assoc(w, 2)
    assert value == 4.0
    assert np.array_equal(part.labels, [0, 0, 1, 1])


def test_brute_force_identity_balanced():
    part, value = brute_force_ratio_assoc(np.eye(5), 2)
    assert value == 2.0
    # lexicographically smallest maximizer puts only the last element apart
    assert np.array_equal(part.labels, [0, 0, 0, 0, 1])


def test_brute_force_all_ones_tie():
    # the 2-1 split ties the single cluster at RA = 3; lex-min wins
    part, value = brute_force_ratio_assoc(np.ones((3, 3)), 2)
    assert value == 3.0
    assert np.array_equal(part.labels, [0, 0, 0])


def test_brute_force_matches_full_enumeration():
    rng = np.random.default_rng(25)
    for trial in range(6):
        n = 6
        k = int(rng.integers(2, 4))
        half = rng.random((n, n))
        w = half + half.T
        part, value = brute_force_ratio_assoc(w, k)
        want = best_ra_by_enumeration(w, k)
        assert value == pytest.approx(want, rel=1e-12)
        assert ratio_association(w, part) == pytest.approx(value, rel=1e-12)


def test_brute_force_beats_random_partitions():
    rng = np.random.default_rng(26)
    half = rng.random((9, 9))
    w = half + half.T
    _, best = brute_force_ratio_assoc(w, 3)
    for trial in range(50):
        labels = rng.integers(0, 3, 9)
        assert ratio_association(w, Partition(labels, 3)) <= best + 1e-12


def _first_maximizer_in_lex_order(w, k):
    """The first canonical labeling, in lexicographic order, whose RA is
    largest, scoring each as the sum over clusters, in label order, of
    within-cluster weight / size."""
    n = w.shape[0]
    best_value, best_labels = -np.inf, None
    for labels in itertools.product(range(min(k, n)), repeat=n):
        if list(dict.fromkeys(labels)) != list(range(max(labels) + 1)):
            continue  # not canonical: labels must first appear as 0, 1, 2, ...
        value = 0.0
        for c in range(max(labels) + 1):
            idx = [i for i, label in enumerate(labels) if label == c]
            value += float(w[np.ix_(idx, idx)].sum()) / len(idx)
        if value > best_value:
            best_value, best_labels = value, labels
    return best_labels


def test_brute_force_returns_first_maximizer_on_exact_ties():
    # integer weights make every within-cluster sum exact, so tied
    # partitions tie exactly and only the lexicographic rule separates them
    rng = np.random.default_rng(27)
    for n, k in itertools.product(range(1, 9), range(1, 5)):
        half = np.triu(rng.integers(0, 3, (n, n)))
        w = (half + np.triu(half, 1).T).astype(float)
        part, value = brute_force_ratio_assoc(w, k)
        want = _first_maximizer_in_lex_order(w, k)
        assert tuple(part.labels) == want, (n, k, w)
        assert part.n_clusters == k
        assert value == ratio_association(w, part)
    # ties that span many blocks of labelings: every partition of ones() has
    # RA n, and on eye() every partition into k nonempty groups has RA k
    part, _ = brute_force_ratio_assoc(np.ones((11, 11)), 3)
    assert np.array_equal(part.labels, np.zeros(11))
    part, _ = brute_force_ratio_assoc(np.eye(10), 4)
    assert np.array_equal(part.labels, [0] * 7 + [1, 2, 3])


def test_brute_force_near_tie_goes_to_the_larger_value():
    # [0, 0, 1] beats the lexicographically smaller [0, 0, 0] by 1e-9 relative
    w = np.ones((3, 3))
    w[2, 2] += 4.5e-9
    assert ratio_association(w, [0, 0, 1]) > ratio_association(w, [0, 0, 0])
    part, value = brute_force_ratio_assoc(w, 2)
    assert np.array_equal(part.labels, [0, 0, 1])
    assert value == ratio_association(w, part)


def test_brute_force_more_clusters_than_elements():
    small, small_value = brute_force_ratio_assoc(np.ones((4, 4)), 4)
    large, large_value = brute_force_ratio_assoc(np.ones((4, 4)), 200)
    assert np.array_equal(large.labels, small.labels)
    assert np.array_equal(large.labels, [0, 0, 0, 0])
    assert large_value == small_value == 4.0
    assert large.n_clusters == 200


def test_brute_force_size_cap():
    with pytest.raises(SizeLimitError):
        brute_force_ratio_assoc(np.eye(13), 2)


def test_brute_force_cluster_count_must_be_a_positive_integer():
    for count in (2.0, 2.5, True, 0, -1, None):
        with pytest.raises(DomainError, match="n_clusters must be an integer"):
            brute_force_ratio_assoc(np.eye(4), count)
    part, value = brute_force_ratio_assoc(np.eye(4), np.int64(2))
    assert type(part.n_clusters) is int and part.n_clusters == 2
    assert value == 2.0


def test_brute_force_first_maximizer_on_non_symmetric_weights():
    # RA sums both triangles of a bare weight array, so an element's link
    # to a cluster is w[d, j] + w[j, d], not twice either one
    rng = np.random.default_rng(28)
    for n, k in itertools.product(range(1, 8), range(1, 5)):
        w = rng.integers(0, 4, (n, n)).astype(float)
        part, value = brute_force_ratio_assoc(w, k)
        assert tuple(part.labels) == _first_maximizer_in_lex_order(w, k), (n, k, w)
        assert value == ratio_association(w, part)


def test_brute_force_small_blocks_match_the_default(monkeypatch):
    # a tiny block size puts block and last-level boundaries everywhere
    rng = np.random.default_rng(29)
    cases = [(np.ones((8, 8)), 3), (np.eye(7), 4), (np.ones((5, 5)), 200)]
    for n in (2, 5, 7, 9):
        half = rng.random((n, n))
        cases.append((half + half.T, int(rng.integers(1, 5))))
        cases.append((rng.integers(0, 3, (n, n)).astype(float), 3))
    default = [brute_force_ratio_assoc(w, k) for w, k in cases]
    monkeypatch.setattr(metrics, "LABELING_BLOCK", 5)
    for (w, k), (want, want_value) in zip(cases, default):
        part, value = brute_force_ratio_assoc(w, k)
        assert np.array_equal(part.labels, want.labels), (k, w)
        assert value == want_value


# ------------------------------------------------------ orthogonality metric

def test_deviation_identity_and_ones():
    assert orthogonality_deviation(np.eye(3), axis="columns") == (0.0, 0.0)
    raw, norm = orthogonality_deviation(np.ones((2, 2)), axis="columns")
    assert raw == 8.0
    assert norm == 1.0


def test_deviation_single_vector_is_zero():
    assert orthogonality_deviation(np.ones((4, 1)), axis="columns") == (0.0, 0.0)
    assert orthogonality_deviation(np.ones((1, 4)), axis="rows") == (0.0, 0.0)


def test_deviation_matches_pairwise_loops():
    rng = np.random.default_rng(27)
    for axis in ("columns", "rows"):
        for trial in range(10):
            f = rng.uniform(0.0, 2.0, (5, 4))
            raw, _ = orthogonality_deviation(f, axis=axis)
            want = offdiag_energy(f, axis)
            assert abs(raw - want) <= 1e-10 * (1.0 + want)


def test_deviation_decomposition_identity():
    """|F^T F|^2 splits into the diagonal part plus the off-diagonal j2."""
    rng = np.random.default_rng(28)
    for trial in range(10):
        f = rng.uniform(0.0, 2.0, (6, 3))
        gram = f.T @ f
        total = float(np.sum(gram * gram))
        diag = float(np.sum(np.diagonal(gram) ** 2))
        raw, _ = orthogonality_deviation(f, axis="columns")
        assert abs(total - (diag + raw)) <= 1e-10 * total


def test_deviation_zero_vector_named():
    f = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DegenerateFactorError, match="column 1"):
        orthogonality_deviation(f, axis="columns")


def test_deviation_axis_validation():
    with pytest.raises(DomainError):
        orthogonality_deviation(np.eye(2), axis="diagonal")


# ------------------------------------------------------------ accuracy & NMI

def test_accuracy_examples():
    assert cluster_accuracy([0, 0, 1, 1], [1, 1, 0, 0]) == 1.0
    assert cluster_accuracy([0, 1, 0, 1], [0, 0, 1, 1]) == 0.5
    assert cluster_accuracy([0, 1, 2], [0, 1, 2]) == 1.0


def test_accuracy_symmetric_and_permutation_invariant():
    rng = np.random.default_rng(29)
    for trial in range(10):
        n, k = 12, 3
        pred = rng.integers(0, k, n)
        truth = rng.integers(0, k, n)
        acc = cluster_accuracy(Partition(pred, k), Partition(truth, k))
        assert acc == cluster_accuracy(Partition(truth, k), Partition(pred, k))
        perm = rng.permutation(k)
        assert acc == cluster_accuracy(Partition(perm[pred], k), Partition(truth, k))


def test_accuracy_matches_permutation_oracle():
    rng = np.random.default_rng(33)
    for trial in range(10):
        n, k = 10, int(rng.integers(2, 5))
        pred = rng.integers(0, k, n)
        truth = rng.integers(0, k, n)
        got = cluster_accuracy(Partition(pred, k), Partition(truth, k))
        assert got == pytest.approx(accuracy_by_permutation(pred, truth, k))


def test_accuracy_length_mismatch_and_cap():
    with pytest.raises(ShapeError):
        cluster_accuracy([0, 1], [0, 1, 0])
    big = Partition(np.arange(65), 65)
    with pytest.raises(SizeLimitError):
        cluster_accuracy(big, big)


def test_nmi_identical_is_one():
    assert nmi([0, 1, 2, 0], [2, 0, 1, 2]) == 1.0


def test_nmi_trivial_vs_balanced_is_zero():
    assert nmi([0, 0, 0, 0], [0, 0, 1, 1]) == 0.0


def test_nmi_both_trivial_is_one():
    assert nmi([0, 0, 0], [0, 0, 0]) == 1.0


def test_nmi_matches_reference():
    assert nmi([0, 1, 0, 1], [0, 0, 1, 1]) == pytest.approx(
        nmi_reference([0, 1, 0, 1], [0, 0, 1, 1])
    )
    rng = np.random.default_rng(34)
    for trial in range(15):
        n = int(rng.integers(4, 20))
        pred = rng.integers(0, 3, n)
        truth = rng.integers(0, 3, n)
        got = nmi(as_partition(pred, 3), as_partition(truth, 3))
        assert got == pytest.approx(nmi_reference(pred, truth), abs=1e-12)
        assert 0.0 <= got <= 1.0
