"""k-means, the Jacobi eigensolver, and the spectral RA baseline."""

import numpy as np
import pytest

from nmfcluster.affinity import AffinityMatrix
from nmfcluster.baselines import (
    KmeansOptions,
    jacobi_eigen,
    kmeans,
    spectral_ratio_assoc,
)
from nmfcluster.data_io import SyntheticSpec, gen_planted_graph
from nmfcluster.errors import DomainError, RankError
from nmfcluster.metrics import cluster_accuracy, ratio_association


def test_kmeans_options_validation():
    for name, lower in (("k", 1), ("max_iterations", 1), ("seed", 0), ("restarts", 1)):
        with pytest.raises(ValueError, match=f"^{name} must be >= {lower}, got {lower - 1}$"):
            KmeansOptions(**{"k": 2, name: lower - 1})
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got 2.5$"):
            KmeansOptions(**{"k": 2, name: 2.5})
    with pytest.raises(ValueError, match="tolerance"):
        KmeansOptions(k=1, tolerance=-1.0)
    with pytest.raises(ValueError, match="tolerance"):
        KmeansOptions(k=1, tolerance=float("nan"))
    with pytest.raises(ValueError, match="^tolerance must be finite and >= 0, got inf$"):
        KmeansOptions(k=1, tolerance=float("inf"))
    for field, value in (("k", 2.5), ("k", True), ("restarts", 2.0),
                         ("max_iterations", 3.5), ("seed", 1.5)):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            KmeansOptions(**{"k": 2, field: value})
    assert type(KmeansOptions(k=np.int64(2)).k) is int


def test_kmeans_separated_groups():
    rng = np.random.default_rng(40)
    a = rng.normal(0.0, 0.1, (20, 2))
    b = rng.normal(10.0, 0.1, (20, 2))
    points = np.vstack([a, b])
    truth = np.repeat([0, 1], 20)
    part, inertia = kmeans(points, KmeansOptions(k=2, seed=0))
    assert cluster_accuracy(part, truth) == 1.0
    assert inertia > 0.0


def test_kmeans_identical_points():
    points = np.ones((6, 3))
    part, inertia = kmeans(points, KmeansOptions(k=2, seed=0))
    assert inertia == 0.0
    assert part.n == 6


def test_kmeans_line_split():
    points = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
    part, inertia = kmeans(points, KmeansOptions(k=2, seed=0))
    assert cluster_accuracy(part, [0, 0, 0, 1, 1, 1]) == 1.0
    # centers 1 and 11, two unit deviations per group
    assert inertia == pytest.approx(4.0, abs=1e-12)


def test_kmeans_inertia_history_non_increasing():
    from nmfcluster.baselines import _lloyd

    rng = np.random.default_rng(41)
    points = rng.random((30, 4))
    for seed in range(5):
        _, _, history = _lloyd(points, KmeansOptions(k=3, seed=seed), np.random.default_rng(seed))
        diffs = np.diff(history)
        assert (diffs <= 1e-12).all()


def test_kmeans_deterministic():
    rng = np.random.default_rng(42)
    points = rng.random((25, 3))
    opts = KmeansOptions(k=4, seed=7)
    p1, i1 = kmeans(points, opts)
    p2, i2 = kmeans(points, opts)
    assert np.array_equal(p1.labels, p2.labels)
    assert i1 == i2


def test_kmeans_too_few_points():
    with pytest.raises(RankError, match="exceeds the number of points"):
        kmeans(np.ones((2, 2)), KmeansOptions(k=3))


# ---------------------------------------------------------------- jacobi

def test_jacobi_identity():
    values, vecs = jacobi_eigen(np.eye(4))
    assert np.array_equal(values, np.ones(4))
    assert np.array_equal(vecs, np.eye(4))


def test_jacobi_two_by_two():
    values, vecs = jacobi_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert values == pytest.approx([3.0, 1.0], abs=1e-10)
    # eigenvector of 3 is the normalized all-ones direction
    assert abs(vecs[0, 0]) == pytest.approx(np.sqrt(0.5), abs=1e-10)


def test_jacobi_reconstruction_and_orthogonality():
    rng = np.random.default_rng(43)
    for trial in range(5):
        half = rng.normal(size=(6, 6))
        w = half + half.T
        values, vecs = jacobi_eigen(w)
        recon = vecs @ np.diag(values) @ vecs.T
        assert np.linalg.norm(recon - w) <= 1e-8
        assert np.abs(vecs.T @ vecs - np.eye(6)).max() <= 1e-8
        assert values.sum() == pytest.approx(np.trace(w), rel=1e-8)
        assert (np.diff(values) <= 1e-12).all()
        assert values == pytest.approx(np.linalg.eigvalsh(w)[::-1], abs=1e-8)


def test_jacobi_zero_and_one_by_one():
    values, vecs = jacobi_eigen(np.zeros((3, 3)))
    assert np.array_equal(values, np.zeros(3))
    assert np.abs(vecs.T @ vecs - np.eye(3)).max() <= 1e-12
    values, vecs = jacobi_eigen(np.array([[2.5]]))
    assert np.array_equal(values, [2.5])
    assert np.array_equal(np.abs(vecs), [[1.0]])


def test_jacobi_repeated_eigenvalue():
    # eigenvalues 4, 1, 1: any orthonormal basis of the 1-eigenspace will do
    w = np.full((3, 3), 1.0) + np.eye(3)
    values, vecs = jacobi_eigen(w)
    assert values == pytest.approx([4.0, 1.0, 1.0], abs=1e-12)
    assert np.abs(vecs.T @ vecs - np.eye(3)).max() <= 1e-12
    assert np.abs(w @ vecs - vecs * values).max() <= 1e-12
    assert np.abs(vecs[:, 0]) == pytest.approx(np.full(3, 3 ** -0.5), abs=1e-12)


def test_jacobi_rejects_asymmetric():
    with pytest.raises(DomainError, match="asymmetric"):
        jacobi_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------- spectral

def test_spectral_two_clean_blocks():
    w = np.zeros((6, 6))
    w[:3, :3] = 1.0
    w[3:, 3:] = 1.0
    np.fill_diagonal(w, 0.0)
    part = spectral_ratio_assoc(AffinityMatrix(w, kind="undirected"), 2)
    assert cluster_accuracy(part, [0, 0, 0, 1, 1, 1]) == 1.0


def test_spectral_identity_affinity():
    part = spectral_ratio_assoc(np.eye(4), 2)
    assert ratio_association(np.eye(4), part) == pytest.approx(2.0)


def test_spectral_recovers_planted_partition():
    for seed in range(10):
        spec = SyntheticSpec(kind="planted-graph", n=40, k=2, noise=0.05, seed=seed)
        graph, truth = gen_planted_graph(spec)
        part = spectral_ratio_assoc(graph, 2, seed=0)
        assert cluster_accuracy(part, truth) >= 0.95


def test_spectral_deterministic():
    spec = SyntheticSpec(kind="planted-graph", n=20, k=3, noise=0.1, seed=3)
    graph, _ = gen_planted_graph(spec)
    p1 = spectral_ratio_assoc(graph, 3, seed=5)
    p2 = spectral_ratio_assoc(graph, 3, seed=5)
    assert np.array_equal(p1.labels, p2.labels)


def test_spectral_rank_checks():
    with pytest.raises(RankError):
        spectral_ratio_assoc(np.eye(3), 4)
    with pytest.raises(RankError):
        spectral_ratio_assoc(np.eye(3), 0)
    with pytest.raises(RankError, match="integer"):
        spectral_ratio_assoc(np.eye(3), 2.0)
