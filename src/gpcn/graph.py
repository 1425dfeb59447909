"""Graph container, dataset I/O, adjacency normalization, and edit primitives.

Graphs are undirected, unweighted, stored as a deduplicated, sorted edge
list. The only adjacency is the propagation operator, the GCN convention
A_hat = D^{-1/2} (A + I) D^{-1/2} with degrees taken after adding
self-loops. ``normalize_adjacency`` builds it in CSR form straight from the
edge list: the entries (u, v), (v, u) and (i, i) sorted by the key r * n + c
give the indices and the row pointers, the degrees are the row counts, and
entry (r, c) is inv[r] * inv[c] with inv = 1 / sqrt(deg). That is exact, not
an approximation of the D (A + I) D product: the product forms each entry
as (inv[r] * 1.0) * inv[c], which is the same float, and each degree as a
sum of ones, which is the same integer.

``Graph.adj`` is the one graph constant every forward pass reads, A_hat,
formed on first use and kept for the life of the graph object. An edited
graph is a new object, so it forms its own A_hat and never reads its
source's. The first GCN layer is A_hat (X W^(1)), so no n x d aggregate
A_hat X is formed: an edge edit leaves X W^(1) as it was, and the graph it
makes costs its edges and its A_hat, O(n + |E|).

``load_dataset`` reads features.csv, the bulk of a dataset, with scipy's
Matrix Market reader when one numpy pass over the file's non-digit bytes
proves every value is in the plain decimal grammar on which that reader and
``float`` agree; any other file goes through ``float`` line by line, which
also names the line of a malformed value. The file is read through one
buffer of ``_FAST_BLOCK_BYTES``. Per block of whole lines in it, the reader
holds a byte mask of the block, the positions of its non-digit bytes (8
bytes each), one copy of the block as the Matrix Market input, and the
values parsed from it: about three blocks on top of the features.

The features of a loaded graph and of its largest component, the one array
of a dataset's size, are made in an anonymous memory map of their own
(``_mapped``), so a graph that is dropped gives that memory back to the OS.

``save_dataset`` writes each feature as its Python ``repr``, in blocks of
rows. scipy's Matrix Market writer gives each value's shortest round-trip
digits, the digits ``repr`` gives, as -d.dddE-x; one numpy pass over the
writer's non-digit bytes re-lays every token as ``repr`` does, positional for
decimal exponents in [-4, 15] and d.ddde-XX outside, and one gather joins
them with commas and line ends.

``generate_synthetic`` draws one uniform per node pair, in the row-major
order of ``np.triu_indices(n, 1)``, in pieces of ``_PAIR_BLOCK`` values; a
numpy Generator gives the same stream in pieces as in one call, so the
graph is the one a single draw over all n(n-1)/2 pairs gives, in O(n + |E|)
memory and not O(n^2).
"""

from __future__ import annotations

import io
import json
import mmap
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

SPLIT_TAGS = ("train", "val", "test", "none")


class DatasetError(ValueError):
    """Raised for malformed or inconsistent dataset directories."""


@dataclass(frozen=True)
class Graph:
    """Immutable node/edge/feature/label/split container.

    ``edges`` holds each undirected edge once as (u, v) with u < v, no
    self-loops. ``split`` holds one tag per node from SPLIT_TAGS. The node
    and feature counts are the shape of ``features``.
    """

    num_classes: int
    edges: np.ndarray          # (E, 2) int64, u < v
    features: np.ndarray       # (num_nodes, num_features) float64
    labels: np.ndarray         # (num_nodes,) int64
    split: np.ndarray          # (num_nodes,) unicode, one of SPLIT_TAGS

    @property
    def num_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def mask(self, tag: str) -> np.ndarray:
        return self.split == tag

    @cached_property
    def adj(self) -> sp.csr_matrix:
        """A_hat, formed on first use and shared by every seed and every
        attack victim that reads this graph."""
        return normalize_adjacency(self)


def _row_positions(csr: sp.csr_matrix,
                   rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entry count of each row of ``rows``, and the positions of their
    entries in ``csr.indices`` and ``csr.data``, row by row in stored
    order."""
    starts = csr.indptr[rows]
    lens = csr.indptr[rows + 1] - starts
    return lens, _ranges(starts, lens)


@dataclass(frozen=True)
class SyntheticSpec:
    """Stochastic-block-model generator parameters."""

    num_blocks: int
    nodes_per_block: int
    intra_block_edge_prob: float
    inter_block_edge_prob: float
    feature_dim: int
    feature_noise_std: float
    split_fractions: tuple[float, float, float] = (0.5, 0.25, 0.25)

    def __post_init__(self):
        if self.feature_dim < 1:
            raise ValueError(f"feature_dim must be >= 1, got "
                             f"{self.feature_dim}")
        for p in (self.intra_block_edge_prob, self.inter_block_edge_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"edge probability {p} outside [0, 1]")
        if not 0.0 <= self.feature_noise_std < np.inf:
            raise ValueError(f"feature_noise_std must be finite and >= 0, "
                             f"got {self.feature_noise_std}")
        if not all(0.0 <= f < np.inf for f in self.split_fractions):
            raise ValueError(f"split_fractions must be finite and "
                             f"nonnegative, got {self.split_fractions}")
        if sum(self.split_fractions) > 1.0 + 1e-12:
            raise ValueError("split fractions sum above 1")


@dataclass(frozen=True)
class EdgeEdit:
    """A single graph perturbation: edge add/remove or binary feature flip."""

    kind: str                      # "add" | "remove" | "feature_flip"
    u: int
    v: int                         # feature index for feature_flip

    def __post_init__(self):
        if self.kind not in ("add", "remove", "feature_flip"):
            raise ValueError(f"unknown edit kind {self.kind!r}")


def _mapped(rows: int, cols: int) -> np.ndarray:
    """A zeroed (rows, cols) float64 array in an anonymous memory map of its
    own, for the features that ``load_dataset``'s fast reader and
    ``largest_connected_component`` make: the one array of a dataset's size,
    which lives as long as its graph.

    Freeing the array unmaps it, so its memory goes back to the OS. From
    malloc, an array of Cora's 31 MB is put in glibc's heap once a freed
    mapped block of that size has raised glibc's mmap threshold (as the
    features of a generated graph do), and when freed it stays in the
    process: glibc gives back the top of its heap only when twice that
    threshold is free there. On the benchmark's cora_train workload (seed
    0, 2-core Xeon, glibc) peak RSS read 164 MB with this map and 205 MB
    with ``np.zeros`` in its place.
    """
    size = rows * cols
    data = mmap.mmap(-1, max(8 * size, 1), mmap.MAP_PRIVATE)
    return np.frombuffer(data, count=size).reshape(rows, cols)


def _canonical_edges(raw: np.ndarray) -> tuple[np.ndarray, int]:
    """Deduplicate and symmetrize an edge array; returns (edges, dropped self-loops)."""
    raw = np.asarray(raw, dtype=np.int64).reshape(-1, 2)
    self_loops = int(np.sum(raw[:, 0] == raw[:, 1]))
    raw = raw[raw[:, 0] != raw[:, 1]]
    lo = np.minimum(raw[:, 0], raw[:, 1])
    hi = np.maximum(raw[:, 0], raw[:, 1])
    edges = np.unique(np.stack([lo, hi], axis=1), axis=0)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    return edges, self_loops


def _all_finite(a: np.ndarray) -> bool:
    """Whether every value of ``a`` is finite, with no mask of a's size:
    min and max propagate NaN, and an infinity is one of the two."""
    if a.size == 0:
        return True
    return bool(np.isfinite(a.min()) and np.isfinite(a.max()))


def make_graph(num_nodes, features, labels, split, edges,
               num_classes) -> Graph:
    """Validate raw arrays and assemble a Graph (edges symmetrized, deduped)."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    split = np.asarray(split, dtype="U5")
    edges, dropped = _canonical_edges(np.asarray(edges))
    if dropped:
        warnings.warn(f"dropped {dropped} self-loop edge(s)")
    if features.ndim != 2 or features.shape[1] < 1:
        raise DatasetError(f"features must be a matrix of at least one "
                           f"column, got shape {features.shape}")
    if features.shape[0] != num_nodes:
        raise DatasetError(
            f"feature rows {features.shape[0]} != num_nodes {num_nodes}")
    if not _all_finite(features):
        raise DatasetError("features must be finite")
    if labels.shape[0] != num_nodes or split.shape[0] != num_nodes:
        raise DatasetError("labels/splits length mismatch against num_nodes")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise DatasetError("label out of range")
    bad = set(np.unique(split)) - set(SPLIT_TAGS)
    if bad:
        raise DatasetError(f"unknown split tag(s): {sorted(bad)}")
    if edges.size and (edges.min() < 0 or edges.max() >= num_nodes):
        raise DatasetError("edge endpoint out of range")
    return Graph(int(num_classes), edges, features, labels, split)


@dataclass(frozen=True)
class DatasetMeta:
    """The counts a dataset's meta.json declares."""

    num_nodes: int
    num_features: int
    num_classes: int

    @classmethod
    def read(cls, file: Path) -> "DatasetMeta":
        """Parse and check ``file``; DatasetError names the file and the
        key at fault."""
        try:
            meta = json.loads(file.read_text())
        except ValueError as exc:     # JSONDecodeError, UnicodeDecodeError
            raise DatasetError(f"{file}: not valid JSON: {exc}") from exc
        if not isinstance(meta, dict):
            raise DatasetError(f"{file}: expected a JSON object, got "
                               f"{type(meta).__name__}")
        counts = {}
        for key in ("num_nodes", "num_features", "num_classes"):
            if key not in meta:
                raise DatasetError(f"{file}: missing key {key!r}")
            value = meta[key]
            # JSON true and false load as bool, a subclass of int
            if type(value) is not int or value < 0:
                raise DatasetError(f"{file}: {key!r} must be a nonnegative "
                                   f"integer, got {value!r}")
            counts[key] = value
        if counts["num_features"] < 1:
            raise DatasetError(f"{file}: 'num_features' must be at least 1, "
                               f"got 0: a feature row is never empty")
        return cls(**counts)


def _parse_lines(file: Path, fn, expect=None) -> list:
    """``fn`` of every nonblank, stripped line of ``file``; DatasetError
    names the file and its fault: bytes that are not UTF-8, a line ``fn``
    rejects, or a row count other than ``expect``."""
    try:
        text = file.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetError(f"{file.name}: not UTF-8 text: {exc}") from None
    out = []
    for i, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(fn(line))
        except Exception as exc:
            raise DatasetError(
                f"{file.name}:{i}: malformed line: {exc}") from exc
    if expect is not None and len(out) != expect:
        raise DatasetError(
            f"{file.name}: {len(out)} rows, expected {expect} per meta.json")
    return out


def _parse_features(file: Path, num_nodes: int,
                    num_features: int) -> np.ndarray:
    """features.csv through ``float`` one value at a time: the reader of
    every file ``_read_features_fast`` declines, and its reference."""
    def row(line):
        values = [float(x) for x in line.split(",")]
        if len(values) != num_features:
            raise ValueError(f"{len(values)} values, expected {num_features} "
                             f"per meta.json")
        return values

    rows = _parse_lines(file, row, expect=num_nodes)
    return np.array(rows, dtype=np.float64).reshape(num_nodes, num_features)


# Bytes of features.csv that _read_features_fast checks and parses at a time.
# A block's working memory, about three blocks, stays in glibc's heap once
# freed, so the block is 4 MiB: 8 MiB loads Cora-sized features as fast
# (0.99 against 1.01 s) but kept 15 MB more in the process.
_FAST_BLOCK_BYTES = 1 << 22
_NL, _COMMA, _MINUS, _PLUS, _DOT, _E, _E_UPPER = b"\n,-+.eE"
_ZERO = np.uint8(ord("0"))


def _check_block(a: np.ndarray, num_features: int) -> np.ndarray | None:
    """The positions of the token ends (commas and line ends) in the bytes
    ``a`` when every line holds ``num_features`` comma-separated tokens
    matching -?([0-9]+(\\.[0-9]*)?|\\.[0-9]+)([eE][-+]?[0-9]+)? and ends in a
    newline; None otherwise.

    Only the non-digit bytes are looked at. Each one is checked against the
    non-digit byte before it (p1), the one before that (p2), and whether
    digits stand between them (run1 between p1 and itself, run2 between p2
    and p1). The block starts a line, so two line ends stand before it.

    Besides ``a``, this holds a byte mask of ``a`` while it finds the
    positions of the non-digit bytes (8 bytes each), the positions until
    the token ends are taken from them, and then a byte per non-digit byte
    for each term of the rule.
    """
    mask = a - _ZERO
    pos = np.flatnonzero(np.greater(mask, 9, out=mask.view(bool)))
    del mask
    # chars[2:] are the non-digit bytes, chars[1:-1] p1 and chars[:-2] p2
    chars = np.full(pos.size + 2, _NL, dtype=np.uint8)
    np.take(a, pos, out=chars[2:])
    # runs[1:] is run1 and runs[:-1] run2: a digit just before each byte;
    # the byte before position 0 is a[-1], the block's last line end
    runs = np.zeros(pos.size + 1, dtype=bool)
    pos -= 1
    np.less_equal(a[pos] - _ZERO, 9, out=runs[1:])
    pos += 1
    sep = (chars == _NL) | (chars == _COMMA)
    ends = pos[sep[2:]]
    del pos
    is_e = (chars == _E) | (chars == _E_UPPER)
    minus, dot = chars == _MINUS, chars == _DOT
    c, e = chars[2:], is_e[2:]
    end, after_end = sep[2:], sep[1:-1]
    after_e, after_dot = is_e[1:-1], dot[1:-1]
    run1, run2 = runs[1:], runs[:-1]
    # a leading sign, as against the sign of an exponent
    after_sign = minus[1:-1] & sep[:-2]
    ok = end & (run1 | (after_dot & run2))
    ok |= minus[2:] & ~run1 & (after_end | after_e)
    ok |= (c == _PLUS) & ~run1 & after_e
    ok |= dot[2:] & (after_end | after_sign)
    ok |= e & run1 & (after_end | after_sign)
    ok |= e & after_dot & (run1 | run2)
    if not ok.all():
        return None
    if ends.size % num_features:
        return None
    lines = c[end].reshape(-1, num_features)
    if not ((lines[:, :-1] == _COMMA).all() and (lines[:, -1] == _NL).all()):
        return None
    return ends


def _read_block(block: bytearray, size: int, out: np.ndarray) -> int | None:
    """Parse the whole lines ``block[:size]`` into the first rows of ``out``;
    their count, or None when ``_check_block`` rejects them or they are more
    than the rows of ``out``. The bytes are copied once, into the Matrix
    Market input, and every array made here is dropped on return."""
    # imported here, so that commands which load no dataset do not pay the
    # memory of scipy.io's dozens of modules
    from scipy.io import mmread

    a = np.frombuffer(block, dtype=np.uint8, count=size)
    ends = _check_block(a, out.shape[1])
    if ends is None or ends.size > out.size:
        return None
    lines = ends.size // out.shape[1]
    header = (b"%%%%MatrixMarket matrix array real general\n%d %d\n"
              % (out.shape[1], lines))
    mm = io.BytesIO()
    mm.write(header)
    mm.write(a)
    body = np.frombuffer(mm.getbuffer(), dtype=np.uint8, offset=len(header))
    body[ends] = _NL
    mm.seek(0)
    out[:lines] = mmread(mm).T
    flat = out[:lines].reshape(-1)
    zero = np.flatnonzero(flat == 0.0)
    first = np.where(zero > 0, ends[zero - 1] + 1, 0)
    flat[zero[a[first] == _MINUS]] = -0.0
    return lines


def _read_features_fast(file: Path, num_nodes: int,
                        num_features: int) -> np.ndarray | None:
    """features.csv parsed by scipy's Matrix Market reader, or None when a
    token, a line or the line count is outside what ``_check_block``
    proves; then ``_parse_features`` reads the file.

    The reader rounds correctly, as ``float`` does, but it takes the longest
    valid prefix of a token ('1.5.3' reads 1.5, '1_0' reads 1.0) and drops
    the sign of zero ('-0.0' and '-1e-400' read +0.0). The grammar check
    rules out the first; for the second, every zero whose token starts with
    '-' is set to -0.0.

    The file is read into one buffer of ``_FAST_BLOCK_BYTES``, kept for the
    whole file; the whole lines in it go to ``_read_block`` as an 'array
    real' body of num_features x lines values, which the reader reads in
    column-major order, with the commas made line ends. The line begun at
    the buffer's end moves to its front for the next read, and the buffer
    doubles when a line does not fit in it.
    """
    out = _mapped(num_nodes, num_features)
    row = 0
    block = bytearray(_FAST_BLOCK_BYTES)
    kept = 0                # bytes of the line at block's front
    with open(file, "rb") as fh:
        while got := fh.readinto(memoryview(block)[kept:]):
            size = kept + got
            cut = block.rfind(b"\n", 0, size) + 1
            if cut:
                lines = _read_block(block, cut, out[row:])
                if lines is None:
                    return None
                row += lines
                block[:size - cut] = block[cut:size]
            kept = size - cut
            if kept == len(block):
                block.extend(bytes(kept))
    if kept or row != num_nodes:
        return None
    return out


def load_dataset(path) -> Graph:
    """Load a dataset directory (meta.json, edges/features/labels/splits.csv)."""
    path = Path(path)
    for name in ("meta.json", "edges.csv", "features.csv", "labels.csv",
                 "splits.csv"):
        if not (path / name).is_file():
            raise DatasetError(f"missing file {path / name}")
    meta = DatasetMeta.read(path / "meta.json")
    n = meta.num_nodes

    def endpoints(line):
        ends = tuple(int(x) for x in line.split(","))
        if len(ends) != 2:
            raise ValueError("expected two endpoints")
        return ends

    edges = _parse_lines(path / "edges.csv", endpoints)
    features = _read_features_fast(path / "features.csv", n,
                                   meta.num_features)
    if features is None:
        features = _parse_features(path / "features.csv", n,
                                   meta.num_features)
    labels = _parse_lines(path / "labels.csv", int, expect=n)
    split = _parse_lines(path / "splits.csv", str, expect=n)
    return make_graph(n, features, labels, split,
                      np.asarray(edges, dtype=np.int64).reshape(-1, 2),
                      num_classes=meta.num_classes)


# Values of features.csv that _write_features formats and writes at a time,
# in whole rows: enough that mmwrite's cost per call (about 1 ms) is small,
# few enough that a block's working memory (about 9 MB on normal values, the
# gather's index taking 8 bytes per output byte) stays small, as it stays in
# glibc's heap once freed. 2^16 values took about 40 MB, past the 16 MiB
# trim threshold that _SAVE_HEAP_BYTES sets, so that the heap grew and
# shrank again in every block: 325k page faults per Cora-sized save, against
# 2k at 2^14.
_SAVE_BLOCK_VALUES = 1 << 14
# glibc gives back the free top of its heap once it passes twice the mmap
# threshold, and raises that threshold to the size of each mapped block it
# frees. _write_features first allocates and frees a block of this size,
# whose pages are never touched, so that a save block's working memory stays
# in the heap from one block to the next, whatever the process freed before.
# A fresh process that has freed no block of about 4 MB otherwise grows and
# trims the heap in every block: a Cora-sized save after generating the SBM
# took 318k page faults and 2.9 s, against 3k and 1.8 s. A whole fresh
# ``gpcn dataset gen`` of the Cora-sized SBM (2-core Xeon, five runs each)
# took 15.6k-16.5k minor faults and 2.0-2.5 s with this block, 330k-332k
# and 3.2-3.9 s without; peak RSS was 96 MB either way. A long-lived
# process that has freed larger blocks, as the benchmark's is, has its
# thresholds raised already and shows no change.
_SAVE_HEAP_BYTES = 8 << 20
# The decimal exponents of finite nonzero doubles, and those repr writes
# positionally.
_EXPONENTS = range(-324, 309)
_POSITIONAL = range(-4, 16)


def _pieces() -> list[bytes]:
    """The bytes repr writes around a value's digits. First a prefix per
    (sign, exponent e): the sign, then '0.' and -e-1 zeros for a positional
    e < 0. Then a suffix per code: per exponent, 'e-XX' outside the
    positional range and nothing inside it; after those, per count z, the z
    zeros and the '.0' that end an integer value. Each suffix comes once
    with a comma after it and once with a line end."""
    prefixes = [b"-" * sign
                + (b"0." + b"0" * (-e - 1) if e < 0 and e in _POSITIONAL
                   else b"")
                for sign in (0, 1) for e in _EXPONENTS]
    suffixes = ([b"" if e in _POSITIONAL else b"e%+03d" % e
                 for e in _EXPONENTS]
                + [b"0" * z + b".0" for z in range(len(_POSITIONAL))])
    return prefixes + [s + end for s in suffixes for end in (b",", b"\n")]


_PIECES = _pieces()
_PIECE_LEN = np.array([len(p) for p in _PIECES])
_PIECE_START = np.cumsum(_PIECE_LEN) - _PIECE_LEN
_PIECE_BYTES = np.frombuffer(b"".join(_PIECES), dtype=np.uint8)
_SUFFIX0 = 2 * len(_EXPONENTS)      # the piece index of the first suffix


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """starts[i] + arange(lens[i]) for each i in turn, concatenated."""
    ends = np.cumsum(lens)
    out = np.repeat(starts - ends + lens, lens)
    out += np.arange(out.size)
    return out


def _repr_layout(body: np.ndarray, rows: int,
                 num_features: int) -> np.ndarray:
    """The features.csv bytes of ``rows`` rows of features from ``body``,
    the bytes scipy's Matrix Market writer gives for them after its header:
    one value a line, each in shortest round-trip digits as -d.dddE-x.

    repr has the same digits and decimal exponent e, so only the layout
    changes. A value with e in [-4, 15] is written positionally: its first
    digit is moved onto the point, or the e digits after the point are moved
    before it, and the digits are wrapped in a prefix and a suffix from
    ``_pieces``; any other value keeps d.ddd and gets 'e-XX'. One gather of
    runs, prefix, digits, suffix for each value, lays out the file.
    """
    src = np.concatenate([body, _PIECE_BYTES])
    b = src[:body.size]
    pos = np.flatnonzero(b - np.uint8(ord("0")) > 9)
    c = b[pos]
    # each value's line end, and its first non-digit byte, as indices into pos
    last = np.flatnonzero(c == _NL)
    first = np.concatenate([[0], last[:-1] + 1])
    nl = pos[last]
    start = np.concatenate([[0], nl[:-1] + 1])
    # walk each value's non-digit bytes, in the order - . E - \n
    sign = c[first] == _MINUS
    i = first + sign
    dot = c[i] == _DOT
    i += dot
    end = pos[i]                   # the end of d.ddd: the E or the line end
    exp = c[i] == _E_UPPER
    i += exp
    neg = exp & (c[i] == _MINUS)
    i += neg
    digits = end - start - sign - dot
    exp_len = nl - end - 1 - neg
    point = start + sign + 1
    if not (nl.size == rows * num_features and (i == last).all()
            and np.where(dot, (pos[first + sign] == point) & (digits > 1),
                         digits == 1).all()
            and (~exp | ((exp_len >= 1) & (exp_len <= 3))).all()):
        raise RuntimeError("scipy.io.mmwrite wrote a value outside "
                           "-?[0-9](\\.[0-9]+)?(E-?[0-9]{1,3})?")
    tail = [b[nl - k].astype(np.intp) - ord("0") for k in (1, 2, 3)]
    x = tail[0] + 10 * tail[1] * (exp_len > 1) + 100 * tail[2] * (exp_len > 2)
    e = np.where(neg, -x, x) * exp

    positional = (e >= _POSITIONAL[0]) & (e <= _POSITIONAL[-1])
    zeros = e + 1 - digits         # the zeros an integer value needs
    # the point falls among the digits: the e digits after it move before it
    inner = positional & dot & (e >= 0) & (zeros < 0)
    shift = np.flatnonzero(inner & (e > 0))
    at = _ranges(point[shift], e[shift])
    b[at] = b[at + 1]
    b[point[shift] + e[shift]] = _DOT
    # any other positional value drops its point: the first digit moves onto it
    move = positional & dot & ~inner
    at = point[move]
    b[at] = b[at - 1]
    kept = start + sign + move

    prefix = sign * len(_EXPONENTS) + e - _EXPONENTS[0]
    suffix = _SUFFIX0 + 2 * np.where(positional & (zeros >= 0),
                                     len(_EXPONENTS) + zeros,
                                     e - _EXPONENTS[0])
    suffix[num_features - 1::num_features] += 1      # a line end ends a row
    starts = np.stack([b.size + _PIECE_START[prefix], kept,
                       b.size + _PIECE_START[suffix]], axis=1)
    lens = np.stack([_PIECE_LEN[prefix], end - kept, _PIECE_LEN[suffix]],
                    axis=1)
    return src[_ranges(starts.ravel(), lens.ravel())]


def _write_features(file: Path, features: np.ndarray) -> None:
    """features.csv: every value as its repr, comma-separated, one row a
    line, laid out by ``_repr_layout`` and written in blocks of rows."""
    # imported here, as in _read_block
    from scipy.io import mmwrite

    num_nodes, num_features = features.shape
    np.empty(_SAVE_HEAP_BYTES, dtype=np.uint8)     # freed at once, untouched
    with open(file, "wb") as fh:
        rows = max(1, _SAVE_BLOCK_VALUES // num_features)
        for lo in range(0, num_nodes, rows):
            block = features[lo:lo + rows]
            out = io.BytesIO()
            # an array body is column-major, so block.T's values come row by
            # row of the block; "general", or a square symmetric block would
            # be written as its lower triangle
            mmwrite(out, block.T, precision=None, symmetry="general")
            text = out.getvalue()
            size = b"\n%d %d\n" % block.T.shape     # the header's last line
            body = np.frombuffer(text, dtype=np.uint8,
                                 offset=text.index(size) + len(size))
            fh.write(_repr_layout(body, *block.shape))


def save_dataset(g: Graph, path, name: str = "graph") -> None:
    """Write a Graph back out in the dataset directory format.

    Raises DatasetError, before writing anything, on a graph without
    feature columns or with a non-finite feature: ``load_dataset`` refuses
    both.
    """
    features = np.asarray(g.features, dtype=np.float64)
    if g.num_features < 1:
        raise DatasetError("a dataset needs at least one feature column")
    if not _all_finite(features):
        r, c = np.argwhere(~np.isfinite(features))[0]
        raise DatasetError(f"feature row {r}, column {c} is "
                           f"{float(features[r, c])}; features must be "
                           f"finite")
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    meta = {"name": name, "num_nodes": g.num_nodes,
            "num_features": g.num_features, "num_classes": g.num_classes}
    (path / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n")
    (path / "edges.csv").write_text(
        "".join(f"{u},{v}\n" for u, v in g.edges))
    _write_features(path / "features.csv", features)
    (path / "labels.csv").write_text(
        "".join(f"{int(y)}\n" for y in g.labels))
    (path / "splits.csv").write_text("".join(f"{s}\n" for s in g.split))


def normalize_adjacency(g: Graph) -> sp.csr_matrix:
    """A_hat = D^{-1/2} (A + I) D^{-1/2} with self-loop degrees, as a CSR
    matrix with sorted indices, built from the sorted edge keys."""
    n = g.num_nodes
    u, v = g.edges[:, 0], g.edges[:, 1]
    keys = np.sort(np.concatenate([u * n + v, v * n + u,
                                   np.arange(n) * (n + 1)]))
    rows, cols = np.divmod(keys, n)
    deg = np.bincount(rows, minlength=n)
    inv = 1.0 / np.sqrt(deg)
    indptr = np.concatenate([[0], np.cumsum(deg)])
    # scipy stores the int64 index arrays as int32 while they fit
    return sp.csr_matrix((inv[rows] * inv[cols], cols, indptr), shape=(n, n))


def propagate(adj: sp.csr_matrix, m: np.ndarray) -> np.ndarray:
    """Sparse-dense product of the normalized adjacency with a node matrix."""
    m = np.asarray(m, dtype=np.float64)
    if m.shape[0] != adj.shape[0]:
        raise ValueError(
            f"matrix has {m.shape[0]} rows, adjacency expects {adj.shape[0]}")
    return adj @ m


# Node pairs whose edge uniforms _sbm_edges draws at a time: 0.5 MB of
# uniforms, whatever the node count, and index arrays over the pairs below
# the larger edge probability. Smaller pieces cost time in per-call
# overhead: 2^14 made 20,000-node generation a third slower.
_PAIR_BLOCK = 1 << 16


def _sbm_edges(rng: np.random.Generator, spec: SyntheticSpec,
               n: int) -> np.ndarray:
    """The SBM edges of ``n`` nodes in contiguous blocks of
    ``spec.nodes_per_block``: pair (u, v), u < v, is an edge when its uniform
    is below its block pair's probability. The pairs take their uniforms in
    row-major order, as ``np.triu_indices(n, 1)`` lists them, from
    ``rng.random`` calls of at most ``_PAIR_BLOCK`` values each; a Generator
    gives the same values in pieces as in one call.

    Per piece, only the pairs whose uniform is below the larger probability
    are placed: row u of such a pair is read off the row starts, and the
    pair is intra-block exactly when v < (u // npb + 1) * npb.
    """
    npb = spec.nodes_per_block
    p_in, p_out = spec.intra_block_edge_prob, spec.inter_block_edge_prob
    rows = np.arange(n, dtype=np.int64)
    # the index of pair (u, u + 1) in the row-major order
    row_start = rows * (n - 1) - rows * (rows - 1) // 2
    total = n * (n - 1) // 2
    pieces = [np.empty((0, 2), dtype=np.int64)]
    for lo in range(0, total, _PAIR_BLOCK):
        x = rng.random(min(_PAIR_BLOCK, total - lo))
        pair = np.flatnonzero(x < max(p_in, p_out))
        x = x[pair]
        pair += lo
        u = np.searchsorted(row_start, pair, side="right") - 1
        v = pair - row_start[u] + u + 1
        keep = x < np.where(v < (u // npb + 1) * npb, p_in, p_out)
        pieces.append(np.stack([u[keep], v[keep]], axis=1))
    return np.concatenate(pieces)


def generate_synthetic(spec: SyntheticSpec, seed: int) -> Graph:
    """Stochastic block model: label = block, features = one-hot(block) +
    noise, with block b holding nodes b * npb to (b + 1) * npb - 1.

    The edge uniforms come first in the random stream, one per node pair
    in row-major order, then the feature noise, then the split permutation.
    ``_sbm_edges`` draws the uniforms in pieces, so working memory is
    O(n + |E|), not one array per node pair."""
    if spec.num_blocks < 1 or spec.nodes_per_block < 1:
        raise ValueError("need at least one block and one node per block")
    rng = np.random.default_rng(seed)
    n = spec.num_blocks * spec.nodes_per_block
    blocks = np.repeat(np.arange(spec.num_blocks), spec.nodes_per_block)
    edges = _sbm_edges(rng, spec, n)

    # noise + one-hot block indicator (wrapped if feature_dim < num_blocks),
    # formed in the noise array; adding 0.0 first turns -0.0 into +0.0, as
    # the sum 0.0 + noise off the indicator does
    features = rng.normal(0.0, spec.feature_noise_std,
                          size=(n, spec.feature_dim))
    features += 0.0
    features[np.arange(n), blocks % spec.feature_dim] += 1.0

    frac_train, frac_val, frac_test = spec.split_fractions
    order = rng.permutation(n)
    n_train = int(round(frac_train * n))
    n_val = int(round(frac_val * n))
    n_test = min(int(round(frac_test * n)), n - n_train - n_val)
    split = np.full(n, "none", dtype="U5")
    split[order[:n_train]] = "train"
    split[order[n_train:n_train + n_val]] = "val"
    split[order[n_train + n_val:n_train + n_val + n_test]] = "test"

    return make_graph(n, features, blocks.astype(np.int64), split, edges,
                      num_classes=spec.num_blocks)


def largest_connected_component(g: Graph) -> Graph:
    """Induced subgraph on the largest component, node ids compacted.

    Size ties are broken by the lowest original node id contained in the
    component, which is seed-free and deterministic.
    """
    # self-loops join no components and leave scipy's labels as they are
    n_comp, comp = sp.csgraph.connected_components(normalize_adjacency(g),
                                                   directed=False)
    sizes = np.bincount(comp, minlength=n_comp)
    best = np.argmax(sizes)   # argmax returns first max; component ids are
    # ordered by their lowest member under scipy's labeling, matching the
    # lowest-original-id tie-break
    keep = comp == best
    old_ids = np.flatnonzero(keep)
    remap = -np.ones(g.num_nodes, dtype=np.int64)
    remap[old_ids] = np.arange(old_ids.shape[0])
    mask_e = keep[g.edges[:, 0]] & keep[g.edges[:, 1]]
    new_edges = remap[g.edges[mask_e]]
    features = _mapped(old_ids.size, g.num_features)
    # every index is in range; with mode "raise", take would fill a copy of
    # out and then copy it over
    np.take(g.features, old_ids, axis=0, out=features, mode="clip")
    return make_graph(old_ids.shape[0], features,
                      g.labels[old_ids], g.split[old_ids], new_edges,
                      num_classes=g.num_classes)


def apply_edits(g: Graph, edits) -> Graph:
    """Apply a sequence of EdgeEdit in order, returning a new Graph, which
    forms its own A_hat.

    An edge edit finds its pair among the sorted edges by a binary search on
    the keys u * n + v and inserts or deletes that one row; the first feature
    flip copies the features."""
    n = g.num_nodes
    edges, features = g.edges, g.features
    for e in edits:
        if e.kind == "feature_flip":
            node, fidx = e.u, e.v
            if not (0 <= node < n and 0 <= fidx < g.num_features):
                raise IndexError(f"feature_flip ({node},{fidx}) out of range")
            if features is g.features:
                features = features.copy()
            val = features[node, fidx]
            if val not in (0.0, 1.0):
                raise ValueError(
                    f"feature_flip requires a binary feature, got {val}")
            features[node, fidx] = 1.0 - val
            continue
        u, v = min(e.u, e.v), max(e.u, e.v)
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise IndexError(f"edge ({e.u},{e.v}) out of range")
        # edges are sorted (u, v) rows, so their keys u * n + v are sorted
        keys, key = edges[:, 0] * n + edges[:, 1], u * n + v
        i = np.searchsorted(keys, key)
        present = i < keys.size and keys[i] == key
        if e.kind == "add":
            if present:
                raise ValueError(f"edge ({u},{v}) already present")
            edges = np.insert(edges, i, (u, v), axis=0)
        else:
            if not present:
                raise ValueError(f"edge ({u},{v}) not present")
            edges = np.delete(edges, i, axis=0)
    # edits leave the labels, the splits and the finiteness of the features
    # as they were, and the edges sorted and unique, so the graph is built
    # without make_graph's validation and canonicalization
    return replace(g, edges=edges, features=features)
