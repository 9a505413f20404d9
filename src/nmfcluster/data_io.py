"""File formats and synthetic dataset generators.

Formats kept deliberately small:

* MatrixMarket dense real matrices, ``coordinate`` (written when density
  < 0.5) or ``array`` (column-major values) layout, 1-based indices,
  ``%`` comment lines.  Values render with 17 significant digits so a
  write/read round trip reproduces every float64 exactly.  Both
  directions work on whole arrays: the reader splits the body once and
  converts all tokens in one ``np.array`` call (which accepts exactly
  what ``int``/``float`` accept), and the writer formats every value in
  one ``%`` operation, writing the same bytes as a value-by-value loop.
  Only when a whole-array check fails does a line-by-line scan run, to
  name the first faulty line.
* CSV matrices: comma-separated decimals, no header.
* Label files: one integer per line; on read the labels are re-indexed
  to a dense [0, K) range in order of first appearance.

Every reader takes ASCII text only; another byte is a ParseError that
names the file and the line.

Generators plant known cluster structure (block-diagonal matrices, topic
mixtures, undirected and directed partition graphs) and are
bit-deterministic per (spec, seed) via the PCG64 generator numpy names
``default_rng``.
"""

import re
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice

import numpy as np

from .affinity import AffinityMatrix
from .core import _integer_fields, _real_fields, as_matrix
from .errors import ParseError, SpecError
from .metrics import Partition

__all__ = [
    "SyntheticSpec",
    "read_matrix_market",
    "write_matrix_market",
    "read_csv_matrix",
    "write_csv_matrix",
    "read_labels",
    "write_labels",
    "gen_block_diagonal",
    "gen_mixture_docs",
    "gen_planted_graph",
    "generate",
]

KINDS = ("block-diagonal", "mixture-docs", "planted-graph", "directed-planted-graph")
GRAPH_KINDS = ("planted-graph", "directed-planted-graph")


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one synthetic dataset.

    ``m`` is the feature count and ``n`` the item count; graph kinds use
    ``n`` as the vertex count and take ``m = 0``.  ``overlap`` only matters
    for mixture-docs (weight of the non-dominant topics); ``noise`` is the
    off-block level for block/graph kinds and the additive noise scale
    for mixtures.  The counts are integers; ``noise`` is a real in [0, 1)
    and ``overlap`` a finite one >= 0 (< 1 for mixture-docs), stored as
    floats.  A bool or any other value raises SpecError.
    """

    kind: str
    n: int
    k: int
    m: int = 0
    noise: float = 0.0
    overlap: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SpecError(f"kind must be one of {KINDS}, got {self.kind!r}")
        graph = self.kind in GRAPH_KINDS
        _integer_fields(self, {"n": 1, "k": None, "m": None if graph else 1, "seed": 0},
                        SpecError)
        if graph:
            if self.m != 0:
                raise SpecError(f"m must be 0 for {self.kind}, got {self.m}")
            if not 1 <= self.k <= self.n:
                raise SpecError(
                    f"k must be in [1, {self.n}] for {self.kind}, got {self.k}"
                )
        else:
            if not 1 <= self.k <= min(self.m, self.n):
                raise SpecError(
                    f"k must be in [1, min(m, n)] = [1, {min(self.m, self.n)}], "
                    f"got {self.k}"
                )
        _real_fields(self, {"noise": "in [0, 1)", "overlap": "finite and >= 0"}, SpecError)
        if self.kind == "mixture-docs" and not self.overlap < 1.0:
            raise SpecError(
                f"overlap must be < 1 for mixture-docs (the dominant topic "
                f"keeps weight 1-overlap), got {self.overlap}"
            )

    def as_dict(self):
        return {
            "kind": self.kind,
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "noise": self.noise,
            "overlap": self.overlap,
            "seed": self.seed,
        }


# ---------------------------------------------------------------------------
# Text files

def read_text(path):
    """The text of an ASCII file; a byte outside ASCII is a ParseError."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        at = re.search(rb"[^\x00-\x7f]", data).start()
        lineno = len(data[:at + 1].splitlines())
        raise ParseError(
            f"{path}: not ASCII text, byte 0x{data[at]:02x} on line {lineno}"
        ) from None


# ---------------------------------------------------------------------------
# MatrixMarket

_MM_COORD = ("matrix", "coordinate", "real", "general")
_MM_ARRAY = ("matrix", "array", "real", "general")


def write_matrix_market(path, matrix):
    """Write a dense matrix, picking coordinate layout below 0.5 density."""
    a = as_matrix(matrix, "matrix")
    rows, cols = a.shape
    nnz = int(np.count_nonzero(a))
    if nnz / a.size < 0.5:
        i, j = np.nonzero(a)  # row-major, the order entries are written in
        fields = zip((i + 1).tolist(), (j + 1).tolist(), a[i, j].tolist())
        text = (f"%%MatrixMarket matrix coordinate real general\n{rows} {cols} {nnz}\n"
                + ("%d %d %.17g\n" * nnz) % tuple(chain.from_iterable(fields)))
    else:
        text = (f"%%MatrixMarket matrix array real general\n{rows} {cols}\n"
                + ("%.17g\n" * a.size) % tuple(a.T.ravel().tolist()))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


# On a body whose lines end in "\n" only: a comment line, and a body whose
# every line is blank or holds three tokens ([^\S\n] is a blank within a line).
# Each quantifier is followed by a class disjoint from its own, so a line
# matches one way only and a failed match backtracks in linear time.  No
# possessive quantifiers: ``re`` accepts them only from Python 3.11.  Plain
# strings, so that ``re`` compiles them on first use rather than at import.
_COMMENT_LINE = r"(?m)^[^\S\n]*%.*$"
_LINE_OF_THREE = r"[^\S\n]*(?:\S+[^\S\n]+\S+[^\S\n]+\S+[^\S\n]*)?"
_LINES_OF_THREE = rf"{_LINE_OF_THREE}(?:\n{_LINE_OF_THREE})*"


def read_matrix_market(path):
    """Read a real general MatrixMarket file (coordinate or array layout)."""
    lines = read_text(path).splitlines()
    if not lines:
        raise ParseError(f"{path}:1: empty file")
    header = lines[0].split()
    if len(header) != 5 or header[0] != "%%MatrixMarket":
        raise ParseError(f"{path}:1: malformed MatrixMarket header {lines[0]!r}")
    layout = tuple(tok.lower() for tok in header[1:])
    if layout not in (_MM_COORD, _MM_ARRAY):
        raise ParseError(
            f"{path}:1: unsupported format {' '.join(header[1:])!r}; only "
            "'matrix coordinate real general' and 'matrix array real general' "
            "are understood"
        )
    coordinate = layout == _MM_COORD

    for lineno, size_line in enumerate(islice(lines, 1, None), start=2):
        if size_line.strip() and not size_line.lstrip().startswith("%"):
            break
    else:
        raise ParseError(f"{path}: missing size line")
    parts = size_line.split()
    expected = 3 if coordinate else 2
    if len(parts) != expected:
        raise ParseError(
            f"{path}:{lineno}: size line needs {expected} integers, got {size_line!r}"
        )
    try:
        dims = [int(p) for p in parts]
    except ValueError:
        raise ParseError(f"{path}:{lineno}: size line must be integers, got {size_line!r}") from None
    if dims[0] < 1 or dims[1] < 1 or (coordinate and dims[2] < 0):
        raise ParseError(f"{path}:{lineno}: non-positive dimensions in {size_line!r}")
    rows, cols = dims[0], dims[1]
    # Allocated first, so that a header too large for memory fails here, and
    # the duplicate keys i * cols + j below stay under rows * cols.
    try:
        out = np.zeros((rows, cols))
    except (ValueError, MemoryError) as exc:
        raise ParseError(f"{path}:{lineno}: {rows} x {cols} matrix does not fit: {exc}") from None

    # The whole body at once: comment lines blanked, so the size line's
    # tokens come first.  Any failed check hands over to _raise_first_fault.
    body = "\n".join(islice(lines, 1, None))
    if "%" in body:
        body = re.sub(_COMMENT_LINE, "", body)
    tokens = body.split()
    raise_fault = partial(_raise_first_fault, path, lines, lineno, coordinate, dims)
    if not coordinate:
        try:
            values = np.array(tokens[2:], dtype=float)
        except ValueError:
            raise_fault()
        if values.size != rows * cols:
            raise ParseError(
                f"{path}: array layout needs {rows * cols} values, file has "
                f"{values.size}"
            )
        out.T[...] = values.reshape((cols, rows))
        return out

    nnz = dims[2]
    if len(tokens) != 3 * (nnz + 1) or not re.fullmatch(_LINES_OF_THREE, body):
        raise_fault()
    try:
        i = np.array(tokens[3::3], dtype=np.int64) - 1
        j = np.array(tokens[4::3], dtype=np.int64) - 1
        values = np.array(tokens[5::3], dtype=float)
    except (ValueError, OverflowError):
        raise_fault()
    inside = ((i >= 0) & (i < rows) & (j >= 0) & (j < cols)).all()
    if not inside or np.unique(i * cols + j).size != nnz:
        raise_fault()
    out[i, j] = values
    return out


def _raise_first_fault(path, lines, size_lineno, coordinate, dims):
    # The line-by-line reading, run only once a whole-array check of the
    # body after line ``size_lineno`` has failed: it raises the ParseError
    # of the first faulty line in file order.
    body = [
        (lineno, line)
        for lineno, line in enumerate(islice(lines, size_lineno, None), start=size_lineno + 1)
        if line.strip() and not line.lstrip().startswith("%")
    ]
    if coordinate and len(body) != dims[2]:
        raise ParseError(
            f"{path}: header promises {dims[2]} entries, file has {len(body)}"
        )
    rows, cols = dims[0], dims[1]
    seen = {}
    for lineno, line in body:
        parts = line.split()
        if not coordinate:
            _check_floats(parts, lineno, path)
            continue
        if len(parts) != 3:
            raise ParseError(f"{path}:{lineno}: entry needs 'i j value', got {line!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"{path}:{lineno}: indices must be integers, got {line!r}") from None
        _check_floats(parts[2:], lineno, path)
        if not 1 <= i <= rows or not 1 <= j <= cols:
            raise ParseError(
                f"{path}:{lineno}: index ({i}, {j}) outside 1-based bounds "
                f"({rows}, {cols})"
            )
        if (i, j) in seen:
            raise ParseError(
                f"{path}:{lineno}: duplicate entry ({i}, {j}), first given "
                f"on line {seen[i, j]}"
            )
        seen[i, j] = lineno
    raise AssertionError(f"{path}: a whole-array check failed on a body without faults")


def _check_floats(parts, lineno, path):
    try:
        for p in parts:
            float(p)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: expected numeric values, got {parts!r}") from None


# ---------------------------------------------------------------------------
# CSV matrices and label files

def _nonblank_lines(path, what):
    # (line number, stripped text) of each nonblank line, numbered over "\n";
    # a ParseError "no {what}" when there is none
    stripped = (line.strip() for line in read_text(path).split("\n"))
    lines = [(lineno, line) for lineno, line in enumerate(stripped, start=1) if line]
    if not lines:
        raise ParseError(f"{path}: no {what}")
    return lines


def read_csv_matrix(path):
    """Rectangular numeric CSV, no header row."""
    lines = _nonblank_lines(path, "data rows")
    width = len(lines[0][1].split(","))
    rows = []
    for ridx, line in lines:
        parts = line.split(",")
        if len(parts) != width:
            raise ParseError(
                f"{path}: ragged row {ridx}: expected {width} values, got "
                f"{len(parts)}"
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise ParseError(f"{path}: non-numeric value in row {ridx}") from None
    return np.asarray(rows)


def _read_matrix_file(source):
    # (matrix, input descriptor) of a path, whose suffix names its format
    # (.csv is CSV, any other MatrixMarket), or of a report's stored
    # descriptor {"path": ..., "format": "csv" | "mtx"}
    if isinstance(source, str):
        source = {"path": source, "format": "csv" if source.endswith(".csv") else "mtx"}
    path, fmt = source["path"], source.get("format")
    if not isinstance(path, str):
        raise SpecError(f"report input path must be a string, got {path!r}")
    if fmt == "csv":
        return read_csv_matrix(path), source
    if fmt == "mtx":
        return read_matrix_market(path), source
    raise SpecError(f"report input format must be 'csv' or 'mtx', got {fmt!r}")


def write_csv_matrix(path, matrix):
    a = as_matrix(matrix, "matrix")
    with open(path, "w", encoding="ascii") as fh:
        for row in a:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def read_labels(path):
    """One integer per line, re-indexed densely by first appearance."""
    raw = []
    for ridx, line in _nonblank_lines(path, "labels"):
        try:
            raw.append(int(line))
        except ValueError:
            raise ParseError(
                f"{path}: non-integer label {line!r} at line {ridx}"
            ) from None
    remap = {value: label for label, value in enumerate(dict.fromkeys(raw))}
    return Partition(np.asarray([remap[value] for value in raw]), len(remap))


def write_labels(path, partition):
    with open(path, "w", encoding="ascii") as fh:
        for value in partition.labels:
            fh.write(f"{int(value)}\n")


# ---------------------------------------------------------------------------
# Generators

def _split_sizes(total, k):
    # as equal as possible, earlier groups take the remainder
    base, rem = divmod(total, k)
    return [base + (1 if i < rem else 0) for i in range(k)]


def _contiguous_labels(total, k):
    return np.repeat(np.arange(k), _split_sizes(total, k))


def gen_block_diagonal(spec):
    """Planted co-clusters: K aligned feature/item blocks.

    In-block entries are uniform [0.5, 1], everything else uniform
    [0, noise].  Returns (matrix, item partition, feature partition).
    """
    if spec.kind != "block-diagonal":
        raise SpecError(f"expected kind block-diagonal, got {spec.kind!r}")
    rng = np.random.default_rng(spec.seed)
    feature_labels = _contiguous_labels(spec.m, spec.k)
    item_labels = _contiguous_labels(spec.n, spec.k)
    a = rng.uniform(0.0, spec.noise, size=(spec.m, spec.n))
    for block in range(spec.k):
        rows = feature_labels == block
        cols = item_labels == block
        a[np.ix_(rows, cols)] = rng.uniform(0.5, 1.0, size=(rows.sum(), cols.sum()))
    return a, Partition(item_labels, spec.k), Partition(feature_labels, spec.k)


def gen_mixture_docs(spec):
    """Topic mixtures: K topic vectors on disjoint feature blocks.

    Item n with planted topic z gets column (1-overlap)*t_z plus
    overlap/(K-1) of every other topic, then noise * a Poisson(1) draw
    per entry.  Returns (matrix, item partition).
    """
    if spec.kind != "mixture-docs":
        raise SpecError(f"expected kind mixture-docs, got {spec.kind!r}")
    rng = np.random.default_rng(spec.seed)
    feature_labels = _contiguous_labels(spec.m, spec.k)
    item_labels = _contiguous_labels(spec.n, spec.k)
    topics = np.zeros((spec.m, spec.k))
    for block in range(spec.k):
        rows = feature_labels == block
        topics[rows, block] = rng.uniform(0.5, 1.0, size=int(rows.sum()))
    weights = np.full((spec.k, spec.n), spec.overlap / (spec.k - 1) if spec.k > 1 else 0.0)
    weights[item_labels, np.arange(spec.n)] = 1.0 - spec.overlap
    a = topics @ weights
    if spec.noise > 0.0:
        a = a + spec.noise * rng.poisson(1.0, size=(spec.m, spec.n))
    return a, Partition(item_labels, spec.k)


def gen_planted_graph(spec):
    """Planted-partition graphs over n vertices.

    Within-cluster weights are uniform [0.5, 1], cross-cluster uniform
    [0, noise], diagonal zero.  The undirected kind draws each unordered
    pair once and returns an AffinityMatrix; the directed kind draws
    every ordered pair independently and returns the raw asymmetric
    ndarray (symmetrize it before spectral or NMF use).
    """
    if spec.kind not in GRAPH_KINDS:
        raise SpecError(f"expected a graph kind, got {spec.kind!r}")
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    labels = _contiguous_labels(n, spec.k)
    same = labels[:, None] == labels[None, :]
    inside = rng.uniform(0.5, 1.0, size=(n, n))
    outside = rng.uniform(0.0, spec.noise, size=(n, n))
    weights = np.where(same, inside, outside)
    np.fill_diagonal(weights, 0.0)
    part = Partition(labels, spec.k)
    if spec.kind == "planted-graph":
        w = np.triu(weights, 1)
        return AffinityMatrix(w + w.T, kind="undirected"), part
    return weights, part


def generate(spec):
    """Dispatch on spec.kind.

    Returns (matrix, item partition, feature partition or None); graph
    kinds put the vertex partition in the item slot and, being square,
    reuse it for the features too.
    """
    if spec.kind == "block-diagonal":
        return gen_block_diagonal(spec)
    if spec.kind == "mixture-docs":
        a, items = gen_mixture_docs(spec)
        return a, items, None
    graph, part = gen_planted_graph(spec)
    matrix = graph.matrix if isinstance(graph, AffinityMatrix) else graph
    return matrix, part, part
