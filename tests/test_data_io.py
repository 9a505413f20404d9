"""File formats and synthetic generators.

scipy.io.mmread serves as the reference reader for the MatrixMarket
round-trip checks; the package reader never depends on it.
"""

import re

import numpy as np
import pytest
import scipy.io

from nmfcluster import data_io
from nmfcluster.data_io import (
    SyntheticSpec,
    gen_block_diagonal,
    gen_mixture_docs,
    gen_planted_graph,
    generate,
    read_csv_matrix,
    read_labels,
    read_matrix_market,
    write_csv_matrix,
    write_labels,
    write_matrix_market,
)
from nmfcluster.affinity import AffinityMatrix, symmetrize
from nmfcluster.errors import ParseError, SpecError
from nmfcluster.metrics import Partition, cluster_accuracy, assign_items
from nmfcluster.solvers import SolverOptions, nmf_anls, nmf_multiplicative


# ---------------------------------------------------------------- spec

def test_spec_validation():
    good = SyntheticSpec(kind="block-diagonal", m=4, n=4, k=2)
    assert good.as_dict()["kind"] == "block-diagonal"
    with pytest.raises(SpecError, match="kind"):
        SyntheticSpec(kind="banded", m=4, n=4, k=2)
    with pytest.raises(SpecError, match="k must be"):
        SyntheticSpec(kind="block-diagonal", m=4, n=4, k=5)
    with pytest.raises(SpecError, match="k must be"):
        SyntheticSpec(kind="planted-graph", n=4, k=5)
    with pytest.raises(SpecError, match="noise"):
        SyntheticSpec(kind="block-diagonal", m=4, n=4, k=2, noise=1.0)
    with pytest.raises(SpecError, match="overlap"):
        SyntheticSpec(kind="mixture-docs", m=4, n=4, k=2, overlap=1.0)
    for kind, name, lower in (("block-diagonal", "n", 1), ("mixture-docs", "m", 1),
                              ("planted-graph", "seed", 0), ("block-diagonal", "seed", 0)):
        params = {"kind": kind, "m": 4, "n": 4, "k": 1, name: lower - 1}
        with pytest.raises(SpecError, match=f"^{name} must be >= {lower}, got {lower - 1}$"):
            SyntheticSpec(**params)
        with pytest.raises(SpecError, match=f"^{name} must be an integer, got 2.5$"):
            SyntheticSpec(**{**params, name: 2.5})
    with pytest.raises(SpecError, match="^m must be >= 1, got 0$"):
        SyntheticSpec(kind="mixture-docs", n=4, k=2)
    # counts must be integers: no floats, not even integral ones, and no bools
    for field, value in (("n", 10.5), ("n", 10.0), ("k", True), ("m", 4.0),
                         ("seed", 1.5)):
        params = {"kind": "block-diagonal", "m": 10, "n": 10, "k": 2, field: value}
        with pytest.raises(SpecError, match=f"{field} must be an integer"):
            SyntheticSpec(**params)
    spec = SyntheticSpec(kind="block-diagonal", m=np.int64(4), n=np.int64(4), k=2)
    assert type(spec.m) is int and type(spec.n) is int
    # overlap must be finite even for the kinds that ignore it
    for overlap in (float("nan"), float("inf"), -0.1):
        with pytest.raises(SpecError, match="overlap"):
            SyntheticSpec(kind="block-diagonal", m=4, n=4, k=2, overlap=overlap)
    # graph kinds take m = 0: n is their vertex count
    SyntheticSpec(kind="directed-planted-graph", n=6, k=3)
    for kind in ("planted-graph", "directed-planted-graph"):
        for m in (-3, 6):
            with pytest.raises(SpecError, match=f"^m must be 0 for {kind}, got {m}$"):
                SyntheticSpec(kind=kind, n=6, k=3, m=m)


# ---------------------------------------------------------------- MM

def test_mm_reads_handwritten_coordinate(tmp_path):
    path = tmp_path / "eye.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "% identity\n"
        "\n"
        "2 2 2\n"
        "1 1 1.0\n"
        "2 2 1.0\n"
    )
    assert np.array_equal(read_matrix_market(path), np.eye(2))


def test_mm_round_trip_dense(tmp_path):
    rng = np.random.default_rng(50)
    a = rng.uniform(0.1, 1.0, (5, 7))
    path = tmp_path / "dense.mtx"
    write_matrix_market(path, a)
    assert path.read_text().splitlines()[0] == "%%MatrixMarket matrix array real general"
    back = read_matrix_market(path)
    assert np.abs(back - a).max() <= 1e-15
    assert np.allclose(scipy.io.mmread(path), a, atol=1e-15)


def test_mm_round_trip_sparse(tmp_path):
    a = np.zeros((6, 6))
    a[0, 3] = 1.25
    a[5, 1] = 0.5
    path = tmp_path / "sparse.mtx"
    write_matrix_market(path, a)
    assert path.read_text().splitlines()[0] == "%%MatrixMarket matrix coordinate real general"
    assert np.array_equal(read_matrix_market(path), a)
    assert np.array_equal(np.asarray(scipy.io.mmread(path).todense()), a)


def test_mm_parse_errors(tmp_path):
    bad_header = tmp_path / "h.mtx"
    bad_header.write_text("MatrixMarket matrix\n")
    with pytest.raises(ParseError, match=r"h\.mtx:1"):
        read_matrix_market(bad_header)

    complex_fmt = tmp_path / "c.mtx"
    complex_fmt.write_text("%%MatrixMarket matrix coordinate complex general\n2 2 0\n")
    with pytest.raises(ParseError, match="unsupported format"):
        read_matrix_market(complex_fmt)

    out_of_bounds = tmp_path / "b.mtx"
    out_of_bounds.write_text(
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 5.0\n"
    )
    with pytest.raises(ParseError, match=r"b\.mtx:3.*\(3, 1\) outside 1-based bounds \(2, 2\)"):
        read_matrix_market(out_of_bounds)

    wrong_count = tmp_path / "n.mtx"
    wrong_count.write_text(
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n"
    )
    with pytest.raises(ParseError, match="promises 2 entries, file has 1"):
        read_matrix_market(wrong_count)

    duplicate = tmp_path / "d.mtx"
    duplicate.write_text(
        "%%MatrixMarket matrix coordinate real general\n% note\n2 2 3\n"
        "1 2 1.0\n2 2 4.0\n1 2 2.0\n"
    )
    with pytest.raises(ParseError, match=r"d\.mtx:6: duplicate entry \(1, 2\), first given on line 4"):
        read_matrix_market(duplicate)

    non_numeric = tmp_path / "x.mtx"
    non_numeric.write_text(
        "%%MatrixMarket matrix array real general\n1 2\n1.0\nfoo\n"
    )
    with pytest.raises(ParseError, match=r"x\.mtx:4"):
        read_matrix_market(non_numeric)


COORD = "%%MatrixMarket matrix coordinate real general\n"
ARRAY = "%%MatrixMarket matrix array real general\n"


@pytest.mark.parametrize("text, message", [
    ("", "e.mtx:1: empty file"),
    (COORD + "% only a comment\n\n", "e.mtx: missing size line"),
    (COORD + "2 2\n", "e.mtx:2: size line needs 3 integers, got '2 2'"),
    (ARRAY + "% note\n2 2 4\n", "e.mtx:3: size line needs 2 integers, got '2 2 4'"),
    (COORD + "2 x 1\n1 1 1.0\n", "e.mtx:2: size line must be integers, got '2 x 1'"),
    (ARRAY + "2.0 2\n", "e.mtx:2: size line must be integers, got '2.0 2'"),
    (COORD + "0 2 1\n1 1 1.0\n", "e.mtx:2: non-positive dimensions in '0 2 1'"),
    (COORD + "2 2 -1\n", "e.mtx:2: non-positive dimensions in '2 2 -1'"),
    (ARRAY + "2 -3\n", "e.mtx:2: non-positive dimensions in '2 -3'"),
    (COORD + "2 2 2\n1 1 1.0\n2 2\n", "e.mtx:4: entry needs 'i j value', got '2 2'"),
    (COORD + "2 2 2\n1 1 1.0 7\n2 2 1.0\n",
     "e.mtx:3: entry needs 'i j value', got '1 1 1.0 7'"),
    (COORD + "2 2 1\n1.0 1 1.0\n", "e.mtx:3: indices must be integers, got '1.0 1 1.0'"),
    (COORD + "2 2 1\n1 1 one\n", "e.mtx:3: expected numeric values, got \\['one'\\]"),
    (ARRAY + "2 2\n1.0\n2.0\n3.0\n", "e.mtx: array layout needs 4 values, file has 3"),
    (ARRAY + "1 2\n1.0 2.0 3.0\n", "e.mtx: array layout needs 2 values, file has 3"),
    (ARRAY + "2 1\n1.0\n2.0 x\n", "e.mtx:4: expected numeric values, got \\['2.0', 'x'\\]"),
    (COORD + "2 2 2\n1 1 1.0\n\n", "e.mtx: header promises 2 entries, file has 1"),
    # the first faulty line in file order wins, whatever the kinds of fault
    (COORD + "2 2 3\n3 1 1.0\n1 1 1.0\nx 2 1.0\n",
     r"e.mtx:3: index \(3, 1\) outside 1-based bounds \(2, 2\)"),
    (COORD + "2 2 3\n1 1 1.0\n% note\n1 1 2.0\n2 2\n",
     r"e.mtx:5: duplicate entry \(1, 1\), first given on line 3"),
    (ARRAY + "2 1\n1.0 y\nx\n", "e.mtx:3: expected numeric values, got \\['1.0', 'y'\\]"),
])
def test_mm_every_parse_error(tmp_path, text, message):
    path = tmp_path / "e.mtx"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"/{message}$"):
        read_matrix_market(path)


def test_mm_written_bytes(tmp_path):
    # 17 significant digits, column-major values in the array layout; -0.0
    # counts as a zero when choosing the layout, and keeps its sign
    path = tmp_path / "golden.mtx"
    write_matrix_market(path, [[-0.0, 1 / 3], [5e-324, 1e300]])
    assert path.read_bytes() == (
        b"%%MatrixMarket matrix array real general\n2 2\n-0\n"
        b"4.9406564584124654e-324\n0.33333333333333331\n1.0000000000000001e+300\n"
    )
    sparse = np.zeros((3, 4))
    sparse[0, 2], sparse[2, 0], sparse[2, 3] = 2.5, 1 / 3, 1e-300
    write_matrix_market(path, sparse)
    assert path.read_bytes() == (
        b"%%MatrixMarket matrix coordinate real general\n3 4 3\n"
        b"1 3 2.5\n3 1 0.33333333333333331\n3 4 1e-300\n"
    )


def _loop_mm_text(a):
    # the writer value by value: the reference for the bytes written
    rows, cols = a.shape
    nnz = int(np.count_nonzero(a))
    if nnz / a.size < 0.5:
        lines = ["%%MatrixMarket matrix coordinate real general", f"{rows} {cols} {nnz}"]
        lines += [f"{i + 1} {j + 1} {a[i, j]:.17g}"
                  for i in range(rows) for j in range(cols) if a[i, j] != 0.0]
    else:
        lines = ["%%MatrixMarket matrix array real general", f"{rows} {cols}"]
        lines += [f"{a[i, j]:.17g}" for j in range(cols) for i in range(rows)]
    return "\n".join(lines) + "\n"


def test_mm_round_trip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(52)
    path = tmp_path / "r.mtx"
    layouts = set()
    for _ in range(200):
        shape = rng.integers(1, 31, size=2)
        scale = 10.0 ** rng.uniform(-300, 300)
        kept = rng.uniform(size=shape) < rng.uniform()
        a = np.where(kept, rng.uniform(size=shape) * scale, 0.0)
        write_matrix_market(path, a)
        text = path.read_text()
        assert text == _loop_mm_text(a)
        layouts.add(text.split(None, 3)[2])
        back = read_matrix_market(path)
        assert back.shape == a.shape and back.tobytes() == a.tobytes()
        theirs = scipy.io.mmread(path)
        theirs = theirs.toarray() if hasattr(theirs, "toarray") else theirs
        assert np.array_equal(theirs, a)
    assert layouts == {"array", "coordinate"}


def test_mm_reads_crlf_tabs_and_comments_in_either_layout(tmp_path):
    path = tmp_path / "crlf.mtx"
    path.write_bytes(
        b"%%MatrixMarket matrix coordinate real general\r\n% made by hand\r\n"
        b"\r\n2 3 2\r\n\t1 3\t0.5 \r\n  % between entries\r\n\r\n2 1 4\r\n"
    )
    assert np.array_equal(read_matrix_market(path), [[0, 0, 0.5], [4, 0, 0]])
    path.write_bytes(
        b"%%MatrixMarket matrix array real general\r\n2 2\r\n% c\r\n1 2\r\n\r\n"
        b"\t3\r\n4\r\n"
    )
    assert np.array_equal(read_matrix_market(path), [[1, 3], [2, 4]])


def test_mm_header_too_large_fails_before_reading_entries(tmp_path):
    # 2**62 squared wraps to 0 in int64: (1, 1) and (5, 1) would share the
    # duplicate key i * cols + j had the entries been read before allocating
    path = tmp_path / "huge.mtx"
    path.write_text(COORD + f"{2 ** 62} {2 ** 62} 2\n1 1 1.0\n5 1 2.0\n")
    with pytest.raises(ValueError, match="array is too big"):
        read_matrix_market(path)


def test_mm_header_too_large_is_a_parse_error_naming_the_size_line(tmp_path):
    path = tmp_path / "huge.mtx"
    path.write_text(COORD + f"% big\n{2 ** 62} {2 ** 61} 1\n1 1 1.0\n")
    with pytest.raises(ParseError, match=(
            rf"^{re.escape(str(path))}:3: {2 ** 62} x {2 ** 61} matrix does not fit: "
            "array is too big")):
        read_matrix_market(path)


def test_mm_patterns_need_no_python_3_11_syntax():
    # possessive quantifiers and atomic groups reached ``re`` in 3.11; the
    # package supports 3.10
    for pattern in (data_io._COMMENT_LINE, data_io._LINES_OF_THREE):
        assert not re.search(r"[*+?}]\+|\(\?>", pattern), pattern


@pytest.mark.parametrize("reader, name, text", [
    (read_matrix_market, "u.mtx",
     "%%MatrixMarket matrix array real general\n% caf\u00e9\n1 1\n1.0\n"),
    (read_csv_matrix, "m.csv", "1,2\n3,4\u00e9\n"),
    (read_labels, "y.txt", "0\n\u00e9\n"),
])
def test_non_ascii_byte_is_a_parse_error(tmp_path, reader, name, text):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ParseError, match=f"{name}: not ASCII text, byte 0xc3 on line 2$"):
        reader(path)


def test_mm_density_threshold(tmp_path):
    half = np.array([[1.0, 1.0], [0.0, 0.0]])  # density exactly 0.5 -> array
    path = tmp_path / "half.mtx"
    write_matrix_market(path, half)
    assert "array" in path.read_text().splitlines()[0]
    sparser = np.array([[1.0, 0.0], [0.0, 0.0]])
    write_matrix_market(path, sparser)
    assert "coordinate" in path.read_text().splitlines()[0]


def test_mm_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "comments.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n"
        "% generated by hand\n"
        "\n"
        "2 1\n"
        "  % another comment\n"
        "3.0\n"
        "\n"
        "4.0\n"
    )
    assert np.array_equal(read_matrix_market(path), [[3.0], [4.0]])


# ---------------------------------------------------------------- CSV

def test_csv_read_and_round_trip(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4\n")
    assert np.array_equal(read_csv_matrix(path), [[1.0, 2.0], [3.0, 4.0]])
    rng = np.random.default_rng(51)
    a = rng.uniform(0.0, 5.0, (4, 3))
    write_csv_matrix(path, a)
    assert np.abs(read_csv_matrix(path) - a).max() <= 1e-15


def test_csv_ragged_row(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(ParseError, match="ragged row 2"):
        read_csv_matrix(path)


def test_csv_non_numeric(tmp_path):
    path = tmp_path / "text.csv"
    path.write_text("1,foo\n")
    with pytest.raises(ParseError, match="row 1"):
        read_csv_matrix(path)


@pytest.mark.parametrize("reader, message", [
    (read_csv_matrix, "no data rows"),
    (read_labels, "no labels"),
])
def test_blank_file_is_a_parse_error(tmp_path, reader, message):
    path = tmp_path / "blank.txt"
    path.write_text("\n  \n")
    with pytest.raises(ParseError, match=f"blank.txt: {message}$"):
        reader(path)


# ---------------------------------------------------------------- labels

def test_labels_dense_reindexing(tmp_path):
    path = tmp_path / "y.txt"
    path.write_text("5\n5\n9\n")
    part = read_labels(path)
    assert np.array_equal(part.labels, [0, 0, 1])
    assert part.n_clusters == 2


def test_labels_round_trip(tmp_path):
    path = tmp_path / "y.txt"
    original = Partition(np.array([0, 2, 1, 2]), 3)
    write_labels(path, original)
    back = read_labels(path)
    assert np.array_equal(back.labels, [0, 1, 2, 1])
    assert cluster_accuracy(back, original) == 1.0


def test_labels_non_integer(tmp_path):
    path = tmp_path / "y.txt"
    path.write_text("1\ntwo\n")
    with pytest.raises(ParseError, match="line 2"):
        read_labels(path)


# ---------------------------------------------------------------- generators

def test_block_diagonal_structure():
    spec = SyntheticSpec(kind="block-diagonal", m=4, n=4, k=2, noise=0.0, seed=1)
    a, items, features = gen_block_diagonal(spec)
    assert np.array_equal(items.labels, [0, 0, 1, 1])
    assert np.array_equal(features.labels, [0, 0, 1, 1])
    assert np.array_equal(a[:2, 2:], np.zeros((2, 2)))
    assert np.array_equal(a[2:, :2], np.zeros((2, 2)))
    assert (a[:2, :2] >= 0.5).all() and (a[2:, 2:] <= 1.0).all()


def test_block_diagonal_split_sizes():
    spec = SyntheticSpec(kind="block-diagonal", m=5, n=5, k=2, seed=0)
    _, items, features = gen_block_diagonal(spec)
    assert np.array_equal(items.sizes, [3, 2])
    assert np.array_equal(features.sizes, [3, 2])


def test_block_diagonal_deterministic():
    spec = SyntheticSpec(kind="block-diagonal", m=8, n=7, k=3, noise=0.1, seed=4)
    a1, _, _ = gen_block_diagonal(spec)
    a2, _, _ = gen_block_diagonal(spec)
    assert np.array_equal(a1, a2)


def test_block_diagonal_exact_anls_fit_at_unit_blocks():
    """When every item block has size one the noiseless matrix factors
    exactly at rank K, so ANLS should drive the residual to rounding."""
    spec = SyntheticSpec(kind="block-diagonal", m=18, n=3, k=3, noise=0.0, seed=9)
    a, _, _ = gen_block_diagonal(spec)
    options = SolverOptions(seed=0, max_iterations=100, tolerance=1e-12, window=5)
    pair, _ = nmf_anls(a, 3, options)
    assert pair.objective <= 1e-6 * np.linalg.norm(a) ** 2


def test_block_diagonal_recovered_by_mu_at_generic_sizes():
    spec = SyntheticSpec(kind="block-diagonal", m=18, n=20, k=3, noise=0.0, seed=9)
    a, items, _ = gen_block_diagonal(spec)
    options = SolverOptions(seed=0, restarts=5, max_iterations=2000, tolerance=1e-10)
    pair, _ = nmf_multiplicative(a, 3, options)
    assert cluster_accuracy(assign_items(pair.coefficients), items) == 1.0


def test_mixture_docs_pure_columns():
    spec = SyntheticSpec(kind="mixture-docs", m=9, n=6, k=3, overlap=0.0, noise=0.0, seed=2)
    a, items = gen_mixture_docs(spec)
    assert (a.sum(axis=0) > 0.0).all()
    topics = {}
    for col, label in zip(a.T, items.labels):
        support = frozenset(np.nonzero(col)[0].tolist())
        topics.setdefault(label, support)
        # every column of a cluster lives on the same feature block
        assert topics[label] == support
    assert len(topics) == 3


def test_mixture_docs_deterministic():
    spec = SyntheticSpec(kind="mixture-docs", m=10, n=8, k=2, overlap=0.2, noise=0.1, seed=5)
    a1, _ = gen_mixture_docs(spec)
    a2, _ = gen_mixture_docs(spec)
    assert np.array_equal(a1, a2)


def _mixture_docs_by_loop(spec):
    # the generator written item by item, as the reference for its array form
    rng = np.random.default_rng(spec.seed)
    feature_labels = data_io._contiguous_labels(spec.m, spec.k)
    item_labels = data_io._contiguous_labels(spec.n, spec.k)
    topics = np.zeros((spec.m, spec.k))
    for block in range(spec.k):
        rows = feature_labels == block
        topics[rows, block] = rng.uniform(0.5, 1.0, size=int(rows.sum()))
    weights = np.zeros((spec.k, spec.n))
    for n in range(spec.n):
        if spec.k > 1:
            weights[:, n] = spec.overlap / (spec.k - 1)
        weights[item_labels[n], n] = 1.0 - spec.overlap
    a = topics @ weights
    if spec.noise > 0.0:
        a = a + spec.noise * rng.poisson(1.0, size=(spec.m, spec.n))
    return a


@pytest.mark.parametrize("m, n, k, overlap, noise, seed", [
    (10, 8, 2, 0.2, 0.1, 5),
    (9, 7, 3, 0.45, 0.0, 1),
    (12, 10, 4, 0.0, 0.3, 2),
    (5, 4, 1, 0.3, 0.2, 3),
])
def test_mixture_docs_equal_the_per_item_loop(m, n, k, overlap, noise, seed):
    spec = SyntheticSpec(kind="mixture-docs", m=m, n=n, k=k, overlap=overlap,
                         noise=noise, seed=seed)
    a, _ = gen_mixture_docs(spec)
    assert a.tobytes() == _mixture_docs_by_loop(spec).tobytes()


def test_mixture_docs_pipeline_recovery():
    spec = SyntheticSpec(kind="mixture-docs", m=15, n=12, k=3, overlap=0.0, noise=0.0, seed=4)
    a, items = gen_mixture_docs(spec)
    options = SolverOptions(seed=1, restarts=5, max_iterations=2000, tolerance=1e-10)
    pair, _ = nmf_multiplicative(a, 3, options)
    assert cluster_accuracy(assign_items(pair.coefficients), items) == 1.0


def test_planted_graph_clean_blocks():
    spec = SyntheticSpec(kind="planted-graph", n=6, k=2, noise=0.0, seed=3)
    graph, part = gen_planted_graph(spec)
    assert isinstance(graph, AffinityMatrix)
    w = graph.matrix
    assert np.array_equal(w, w.T)
    assert np.array_equal(np.diagonal(w), np.zeros(6))
    assert np.array_equal(part.labels, [0, 0, 0, 1, 1, 1])
    assert np.array_equal(w[:3, 3:], np.zeros((3, 3)))
    off = w[:3, :3][~np.eye(3, dtype=bool)]
    assert (off >= 0.5).all() and (off <= 1.0).all()


def test_directed_graph_returns_bare_asymmetric_array():
    spec = SyntheticSpec(kind="directed-planted-graph", n=8, k=2, noise=0.2, seed=6)
    raw, part = gen_planted_graph(spec)
    assert isinstance(raw, np.ndarray) and not isinstance(raw, AffinityMatrix)
    assert np.abs(raw - raw.T).max() > 0.0
    assert np.array_equal(np.diagonal(raw), np.zeros(8))
    sym = symmetrize(raw)
    assert np.array_equal(sym.matrix, sym.matrix.T)
    assert part.n_clusters == 2


def test_graph_deterministic():
    spec = SyntheticSpec(kind="planted-graph", n=10, k=2, noise=0.3, seed=8)
    g1, _ = gen_planted_graph(spec)
    g2, _ = gen_planted_graph(spec)
    assert np.array_equal(g1.matrix, g2.matrix)


def test_generate_dispatch():
    a, items, features = generate(SyntheticSpec(kind="block-diagonal", m=4, n=4, k=2))
    assert a.shape == (4, 4) and features is not None

    a, items, features = generate(SyntheticSpec(kind="mixture-docs", m=6, n=4, k=2))
    assert a.shape == (6, 4) and features is None

    a, items, features = generate(SyntheticSpec(kind="planted-graph", n=5, k=2))
    assert a.shape == (5, 5)
    assert features is items

    a, items, features = generate(
        SyntheticSpec(kind="directed-planted-graph", n=5, k=2, noise=0.1)
    )
    assert isinstance(a, np.ndarray) and a.shape == (5, 5)
