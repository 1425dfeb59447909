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

Parsed features are cached, as Python's hash-checked .pyc files cache
compiled source: an entry ``<cache>/gpcn/<digest of features.csv>.f64``,
with ``<cache>`` ``$XDG_CACHE_HOME`` or ``~/.cache``, holds (n, d) and a
mark, 1, as three little-endian int64 and then the features as
little-endian float64, row by row. The digest is a tree digest
(``_TreeDigest``): the SHA-256 of the SHA-256 digests of the file's 1 MiB
pieces, in order, so that a load's ``_file_digest`` hashes the pieces on
two threads. An entry exists only for bytes that ``_write_features``
wrote: ``save_dataset`` stores the entry of the file it writes, from the
digest ``_write_features`` forms as it writes, and a load that parses
stores nothing. ``load_dataset`` hashes features.csv and reads a matching
entry straight into the ``_mapped`` features, skipping the parse: the
digest pins the bytes ``_write_features(F)``, F the entry's features, the
header pins meta.json's shape, and repr round-trips, so a hit gives the
parse's bits. Any other header does not fit: an entry of the two-int64
header or the mark 0 (a load's parse) of earlier versions is never served,
and a save of its file replaces it. At most ``_CACHE_ENTRIES`` entries are
kept, the least recently used going first. The cache is an optimization
only: any OS error, or a host whose floats are big-endian, leaves it out,
and a dataset directory holds the same five files either way.

``save_largest_component`` (``gpcn dataset lcc``) copies features.csv
lines instead of formatting values when it can prove the copy exact. It
takes the component, ``old_ids``, from meta.json and edges.csv, then reads
features.csv once: ``_copy_rows`` hashes every byte it reads and writes the
lines ``old_ids`` to a new file in the output directory. The proof is that
the digest names an entry that fits meta.json's shape: then the bytes read
are ``_write_features(F)``, F the entry's features, and a load of them
would give F. ``_write_features`` is row-local, each line the reprs of one
row alone, and the component takes whole rows in order (``np.take`` of
``old_ids``), so ``_write_features(F[old_ids])`` is the lines ``old_ids``
of those bytes: the copy. The bytes checked are the bytes copied, so a
file rewritten meanwhile cannot slip in. Any other digest proves nothing (a
parse reads '1.50' and '1E0', which ``_write_features`` never writes): the
copy is deleted and the dataset is loaded and its component formatted, as
by ``save_dataset``, with the same errors.

Every path puts features.csv in place the same way: its bytes go to a new
file in the dataset directory (``_new_features_file``), which is renamed
over features.csv. So a features.csv that is a symlink or a hard link is
replaced, not written through. A dataset file that cannot be read raises a
DatasetError naming it (``_reading``); a failed write raises as it is.

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

import contextlib
import hashlib
import io
import itertools
import json
import os
import struct
import sys
import tempfile
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


def _anonymous(size: int) -> np.ndarray:
    """A zeroed array of ``size`` bytes in an anonymous memory map of its
    own, which freeing the array unmaps. tracemalloc does not see it."""
    import mmap     # here, as commands that load no dataset map nothing

    data = mmap.mmap(-1, max(size, 1), mmap.MAP_PRIVATE)
    return np.frombuffer(data, dtype=np.uint8, count=size)


def _mapped(rows: int, cols: int) -> np.ndarray:
    """A zeroed (rows, cols) float64 array in an anonymous memory map of its
    own (``_anonymous``), for the features that ``load_dataset``'s fast
    reader and cache and ``largest_connected_component`` make: the one
    array of a dataset's size, which lives as long as its graph.

    Freeing the array unmaps it, so its memory goes back to the OS. From
    malloc, an array of Cora's 31 MB is put in glibc's heap once a freed
    mapped block of that size has raised glibc's mmap threshold (as the
    features of a generated graph do), and when freed it stays in the
    process: glibc gives back the top of its heap only when twice that
    threshold is free there. On the benchmark's cora_train workload (seed
    0, ``--seconds 8``, 2-core Xeon, glibc 2.36), with the features cache
    in place, peak RSS read 155 MB with this map and 205 MB with
    ``np.zeros`` in its place.
    """
    return _anonymous(8 * rows * cols).view(np.float64).reshape(rows, cols)


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


@contextlib.contextmanager
def _reading(file: Path):
    """An OSError of the block, which reads the dataset file ``file``,
    raised as a DatasetError naming it: a file that cannot be read is a
    data error, as a missing one is."""
    try:
        yield
    except OSError as exc:
        raise DatasetError(f"cannot read {file}: {exc.strerror or exc}") \
            from exc


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
        with _reading(file):
            text = file.read_text()
        try:
            meta = json.loads(text)
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
        with _reading(file):
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
    doubles when a line does not fit in it. A Cora-sized file (76 MB) loaded
    in 0.78 s at 101 MB peak RSS so, and in 2.0-2.3 s at 347 MB through
    ``_parse_features`` (shared 2-core Xeon).
    """
    out = _mapped(num_nodes, num_features)
    row = 0
    block = bytearray(_FAST_BLOCK_BYTES)
    kept = 0                # bytes of the line at block's front
    with _reading(file), open(file, "rb") as fh:
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


# Cache entries of parsed features kept at most; the one used least recently
# (by mtime: a hit, or a save that finds it, touches its entry) goes first.
_CACHE_ENTRIES = 8
# Bytes of a piece of the tree digest that names a cache entry (_TreeDigest).
_DIGEST_PIECE_BYTES = 1 << 20
# Threads that _file_digest hashes a file's pieces on. A Cora-sized
# features.csv (76 MB) hashed in 0.030 s on two against 0.058 s on one, on a
# 2-core Xeon.
_HASH_THREADS = 2
# Bytes of features.csv that _copy_rows reads, hashes and copies at a time,
# into each of its two buffers.
_HASH_BLOCK_BYTES = 1 << 20
# A cache entry's header: the features' (n, d), and a mark, 1. Earlier
# versions also stored entries marked 0, of a load's parse; they do not fit.
_ENTRY_HEADER = struct.Struct("<3q")


def _cache_dir() -> Path | None:
    """``$XDG_CACHE_HOME/gpcn``, or ``~/.cache/gpcn``; None on a big-endian
    host, whose float64 bytes are not an entry's, or when no home is
    known."""
    if sys.byteorder != "little":
        return None
    root = os.environ.get("XDG_CACHE_HOME")
    if not root or not os.path.isabs(root):     # relative is invalid in XDG
        try:
            root = Path.home() / ".cache"
        except (RuntimeError, OSError):
            return None
    return Path(root) / "gpcn"


class _TreeDigest:
    """The tree digest of the bytes fed to ``update``, in chunks of any
    sizes: the SHA-256 hex digest of the 32-byte SHA-256 digests of their
    consecutive ``_DIGEST_PIECE_BYTES`` pieces, in order, the last piece
    short or, for no bytes, no piece at all. Unlike a plain SHA-256, its
    pieces can be hashed on several threads (``_file_digest``)."""

    def __init__(self):
        self._pieces = hashlib.sha256()
        self._piece = hashlib.sha256()
        self._filled = 0

    def update(self, data) -> None:
        view = memoryview(data).cast("B")
        while view:
            room = _DIGEST_PIECE_BYTES - self._filled
            self._piece.update(view[:room])
            self._filled += min(room, len(view))
            view = view[room:]
            if self._filled == _DIGEST_PIECE_BYTES:
                self._pieces.update(self._piece.digest())
                self._piece, self._filled = hashlib.sha256(), 0

    def hexdigest(self) -> str:
        pieces = self._pieces.copy()
        if self._filled:
            pieces.update(self._piece.digest())
        return pieces.hexdigest()


def _read_at(fd: int, buf: np.ndarray, offset: int) -> int:
    """Fill ``buf`` with the bytes of open file ``fd`` from ``offset`` on,
    as far as the file goes; the count read."""
    got = 0
    while got < buf.size and (more := os.preadv(fd, [buf[got:]],
                                                offset + got)):
        got += more
    return got


def _file_digest(file: Path) -> str:
    """The tree digest (``_TreeDigest``) of ``file``'s bytes, its pieces
    hashed on ``_HASH_THREADS`` threads. Thread t reads pieces t, t +
    _HASH_THREADS, ... with ``preadv`` into an anonymous map of its own, up
    to its first short piece; the digest covers the pieces before the first
    short piece of any thread, and that piece. Every thread has ended when
    this returns."""
    from concurrent.futures import ThreadPoolExecutor

    def hash_pieces(fd: int, first: int) -> tuple[dict, int]:
        """The digests of this thread's pieces, by number, and the number
        of its first short one."""
        buf = _anonymous(_DIGEST_PIECE_BYTES)
        digests = {}
        for i in itertools.count(first, _HASH_THREADS):
            got = _read_at(fd, buf, i * _DIGEST_PIECE_BYTES)
            if got:
                digests[i] = hashlib.sha256(buf[:got]).digest()
            if got < buf.size:
                return digests, i

    with _reading(file), open(file, "rb", buffering=0) as fh, \
            ThreadPoolExecutor(_HASH_THREADS) as pool:
        found = list(pool.map(hash_pieces, [fh.fileno()] * _HASH_THREADS,
                              range(_HASH_THREADS)))
    digests = {i: d for part, _ in found for i, d in part.items()}
    last = min(short for _, short in found)
    return hashlib.sha256(b"".join(digests[i] for i in range(last + 1)
                                   if i in digests)).hexdigest()


def _entry_fits(fh, num_nodes: int, num_features: int) -> bool:
    """Whether the cache entry open as ``fh`` holds (num_nodes,
    num_features) features: its header is theirs, marked 1, and its size
    agrees."""
    header = _ENTRY_HEADER.pack(num_nodes, num_features, 1)
    return (fh.read(len(header)) == header
            and os.fstat(fh.fileno()).st_size
            == len(header) + 8 * num_nodes * num_features)


def _cached_features(entry: Path, num_nodes: int,
                     num_features: int) -> np.ndarray | None:
    """The features of the cache entry ``entry``, read into a ``_mapped``
    array; None when there is no entry of this shape. Not ``np.fromfile``:
    that would allocate through malloc, and glibc keeps such an array in
    its heap once freed (see ``_mapped``). A hit touches the entry, for the
    cap."""
    try:
        with open(entry, "rb") as fh:
            if not _entry_fits(fh, num_nodes, num_features):
                return None
            out = _mapped(num_nodes, num_features)
            raw = out.reshape(-1).view(np.uint8)
            if fh.readinto(raw) != raw.size:
                return None
    except OSError:
        return None
    with contextlib.suppress(OSError):
        os.utime(entry)
    return out


def _store_features(entry: Path, features: np.ndarray) -> None:
    """Keep ``features``, just written by ``_write_features``, as the cache
    entry ``entry``, unless one that fits is there already, which is then
    touched as a hit is, and evict past ``_CACHE_ENTRIES``. The entry is
    written to a temporary file and renamed into place, so a reader sees a
    whole entry or none. An OS error leaves the cache out."""
    cache = entry.parent
    num_nodes, num_features = features.shape
    try:
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        with contextlib.suppress(FileNotFoundError), open(entry, "rb") as fh:
            if _entry_fits(fh, num_nodes, num_features):
                os.utime(entry)
                return
        # named *.f64 too, so that the cap also clears a write cut short
        fd, tmp = tempfile.mkstemp(dir=cache, suffix=".f64")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(_ENTRY_HEADER.pack(num_nodes, num_features, 1))
                fh.write(np.ascontiguousarray(features, dtype="<f8")
                         .reshape(-1).view(np.uint8))
            os.replace(tmp, entry)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        entries = sorted(cache.glob("*.f64"),
                         key=lambda p: (p.stat().st_mtime_ns, p.name))
        for old in entries[:-_CACHE_ENTRIES]:
            old.unlink(missing_ok=True)
    except OSError:
        pass


def _load_features(file: Path, num_nodes: int,
                   num_features: int) -> np.ndarray:
    """features.csv from its cache entry, or else parsed, by
    ``_read_features_fast`` or failing that ``_parse_features``, which
    stores nothing: only a save stores an entry."""
    cache = _cache_dir()
    if cache is not None:
        hit = _cached_features(cache / f"{_file_digest(file)}.f64",
                               num_nodes, num_features)
        if hit is not None:
            return hit
    features = _read_features_fast(file, num_nodes, num_features)
    if features is None:
        features = _parse_features(file, num_nodes, num_features)
    return features


def _read_head(path: Path) -> tuple[DatasetMeta, np.ndarray]:
    """A dataset directory's meta.json, checked, and the (E, 2) int64 edges
    of its edges.csv, as written; DatasetError when one of the five files
    is missing, or names the fault of meta.json or of an edge line."""
    for name in ("meta.json", "edges.csv", "features.csv", "labels.csv",
                 "splits.csv"):
        with _reading(path / name):
            if not (path / name).is_file():
                raise DatasetError(f"missing file {path / name}")
    meta = DatasetMeta.read(path / "meta.json")

    def endpoints(line):
        ends = tuple(int(x) for x in line.split(","))
        if len(ends) != 2:
            raise ValueError("expected two endpoints")
        return ends

    edges = _parse_lines(path / "edges.csv", endpoints)
    return meta, np.asarray(edges, dtype=np.int64).reshape(-1, 2)


def _read_graph(path: Path, meta: DatasetMeta, edges: np.ndarray,
                features: np.ndarray) -> Graph:
    """The graph of a dataset directory whose ``_read_head`` and features
    are given: its labels and splits are read, and ``make_graph`` checks
    it all."""
    n = meta.num_nodes
    labels = _parse_lines(path / "labels.csv", int, expect=n)
    split = _parse_lines(path / "splits.csv", str, expect=n)
    return make_graph(n, features, labels, split, edges,
                      num_classes=meta.num_classes)


def load_dataset(path) -> Graph:
    """Load a dataset directory (meta.json, edges/features/labels/splits.csv)."""
    path = Path(path)
    meta, edges = _read_head(path)
    features = _load_features(path / "features.csv", meta.num_nodes,
                              meta.num_features)
    return _read_graph(path, meta, edges, features)


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
# The most bytes a value takes in features.csv: the longest repr of a float64,
# such as -2.2250738585072014e-308, and its comma or line end.
_REPR_BYTES = 25


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """starts[i] + arange(lens[i]) for each i in turn, concatenated."""
    ends = np.cumsum(lens)
    out = np.repeat(starts - ends + lens, lens)
    out += np.arange(out.size)
    return out


def _repr_layout(body: np.ndarray, rows: int, num_features: int,
                 out: np.ndarray) -> np.ndarray:
    """The features.csv bytes of ``rows`` rows of features from ``body``,
    the bytes scipy's Matrix Market writer gives for them after its header:
    one value a line, each in shortest round-trip digits as -d.dddE-x.
    They are laid out in the first bytes of ``out``, which must hold
    ``_REPR_BYTES`` per value, and returned as a view of them.

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
    at = _ranges(starts.ravel(), lens.ravel())
    # every index is in range; mode "raise" would gather into a copy first
    return np.take(src, at, out=out[:at.size], mode="clip")


def _write_features(file: Path, features: np.ndarray) -> str:
    """features.csv: every value as its repr, comma-separated, one row a
    line, laid out by ``_repr_layout`` and written in blocks of rows. The
    tree digest (``_TreeDigest``) of the bytes written.

    A helper thread hashes and writes each block, in order, while this
    thread lays out the next, which took about 0.05 s off a Cora-sized save
    (15 of 20 alternating pairs, shared 2-core Xeon). The next block goes
    into the other of two anonymous maps, so that the block in flight (at
    most one) takes no heap memory: in glibc's heap, it made a Cora-sized
    save keep about 0.5 MB more. An error of the helper's is raised here,
    and the helper has ended when this returns."""
    from concurrent.futures import ThreadPoolExecutor
    # imported here, as in _read_block
    from scipy.io import mmwrite

    num_nodes, num_features = features.shape
    np.empty(_SAVE_HEAP_BYTES, dtype=np.uint8)     # freed at once, untouched
    digest = _TreeDigest()
    with open(file, "wb") as fh, ThreadPoolExecutor(1) as pool:
        def put(text: np.ndarray) -> None:
            digest.update(text)
            fh.write(text)

        # the helper starts before mmwrite's threads start: those free glibc
        # arenas filled with mmwrite's buffers, and a helper started after
        # them takes one, so that they fill a new one, about 0.5 MB more
        pending = pool.submit(digest.update, b"")
        rows = max(1, _SAVE_BLOCK_VALUES // num_features)
        outs = itertools.cycle([_anonymous(_REPR_BYTES * rows * num_features)
                                for _ in range(2)])
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
            text = _repr_layout(body, *block.shape, next(outs))
            pending.result()
            pending = pool.submit(put, text)
        pending.result()
    return digest.hexdigest()


def _copy_rows(src: Path, dst: Path, rows: np.ndarray,
               num_rows: int) -> tuple[str, str]:
    """Write to ``dst`` the lines of ``src`` numbered ``rows`` (ascending,
    each below ``num_rows``), in order; the tree digests (``_TreeDigest``)
    of the bytes read from ``src`` and of the bytes written. The lines of a
    file of more than ``num_rows`` lines are not kept past it.

    ``src`` is read once, a block of ``_HASH_BLOCK_BYTES`` at a time into
    two anonymous maps in turn. In each block, the pieces of lines between
    its line ends are numbered; then one helper thread hashes the block and
    another writes each run of pieces of kept lines at once and hashes it,
    while this thread reads the next block into the other map: about 0.02
    s less per Cora-sized lcc (18 of 20 alternating pairs, shared 2-core
    Xeon). At most one block is in flight. An error of a helper's is raised
    here, and the helpers have ended when this returns.
    """
    from concurrent.futures import ThreadPoolExecutor

    keep = np.zeros(num_rows + 1, dtype=bool)     # + 1: a last, empty piece
    keep[rows] = True
    read, wrote = _TreeDigest(), _TreeDigest()
    blocks = [_anonymous(_HASH_BLOCK_BYTES) for _ in range(2)]
    line = 0                # the number of the line the block starts in
    with _reading(src):
        fin = open(src, "rb", buffering=0)
    with fin, open(dst, "wb") as fout, ThreadPoolExecutor(2) as pool:
        def put(block: np.ndarray, runs) -> None:
            for lo, hi in runs:
                wrote.update(block[lo:hi])
                fout.write(block[lo:hi])

        pending = []
        for block in itertools.cycle(blocks):
            with _reading(src):
                got = fin.readinto(block)
            if not got:
                break
            ends = np.flatnonzero(block[:got] == _NL) + 1
            starts = np.concatenate([[0], ends])
            stops = np.append(ends, got)
            # piece i of the block is part of line `line + i`; the changes
            # of keep over the pieces bound the runs of kept pieces
            runs = np.flatnonzero(np.diff(keep[line:line + ends.size + 1],
                                          prepend=False, append=False))
            line += ends.size
            for job in pending:
                job.result()
            pending = [pool.submit(read.update, block[:got]),
                       pool.submit(put, block,
                                   zip(starts[runs[::2]],
                                       stops[runs[1::2] - 1]))]
        for job in pending:
            job.result()
    return read.hexdigest(), wrote.hexdigest()


@contextlib.contextmanager
def _new_features_file(directory: Path):
    """A new, empty file in ``directory``, for features.csv's bytes, which
    ``_save_dataset`` renames into place; deleted on exit if it was not.
    Named by the process and a random part; "x" refuses one that exists."""
    tmp = directory / f".features.csv.{os.getpid()}-{os.urandom(6).hex()}"
    open(tmp, "xb").close()
    try:
        yield tmp
    finally:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)     # gone if renamed into place


def _save_dataset(g: Graph, path: Path, name: str, features_file: Path,
                  digest: str) -> None:
    """The files of ``save_dataset`` in ``path``, features.csv the file
    ``features_file`` there, renamed into place, with the cache entry of
    its tree digest ``digest``; it must hold ``_write_features``' bytes."""
    meta = {"name": name, "num_nodes": g.num_nodes,
            "num_features": g.num_features, "num_classes": g.num_classes}
    (path / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n")
    (path / "edges.csv").write_text(
        "".join(f"{u},{v}\n" for u, v in g.edges))
    # on POSIX, replaces a file, symlink or hard link of that name
    os.rename(features_file, path / "features.csv")
    cache = _cache_dir()
    if cache is not None:
        _store_features(cache / f"{digest}.f64", g.features)
    (path / "labels.csv").write_text(
        "".join(f"{int(y)}\n" for y in g.labels))
    (path / "splits.csv").write_text("".join(f"{s}\n" for s in g.split))


def save_dataset(g: Graph, path, name: str = "graph") -> None:
    """Write a Graph back out in the dataset directory format, and cache its
    features under the digest of the features.csv written: they are the
    bits that file loads to. features.csv is written to a new file and
    renamed into place, replacing what was there.

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
    with _new_features_file(path) as tmp:
        _save_dataset(g, path, name, tmp, _write_features(tmp, features))


def _copied_component(data_dir: Path, out_dir: Path, name: str,
                      meta: DatasetMeta, edges: np.ndarray) -> Graph | None:
    """``save_largest_component`` by a copy of the kept lines of the source
    features.csv, read once, which is renamed into place only when the
    source's digest names a cache entry that fits meta.json's shape; None,
    with nothing written, when it does not, an edge is out of range or
    ``out_dir`` or the new file cannot be made: the caller's load then
    raises its errors. Past the copy, the features are the entry's, as a
    load's would be, so the rest of the load raises here what it would."""
    num_nodes = meta.num_nodes
    cache = _cache_dir()
    if (cache is None or num_nodes == 0
            or (edges.size and (edges.min() < 0 or edges.max() >= num_nodes))):
        return None
    old_ids = _component_ids(num_nodes, _canonical_edges(edges)[0])
    made = []
    try:
        with contextlib.ExitStack() as stack:
            try:
                # the directories mkdir makes, innermost first
                made = list(itertools.takewhile(
                    lambda p: not p.exists(), (out_dir, *out_dir.parents)))
                out_dir.mkdir(parents=True, exist_ok=True)
                tmp = stack.enter_context(_new_features_file(out_dir))
            except OSError:
                return None
            read, wrote = _copy_rows(data_dir / "features.csv", tmp, old_ids,
                                     num_nodes)
            features = _cached_features(cache / f"{read}.f64", num_nodes,
                                        meta.num_features)
            if features is None:
                return None
            lcc = _induced(_read_graph(data_dir, meta, edges, features),
                           old_ids)
            del features    # the component's save needs only its own
            _save_dataset(lcc, out_dir, name, tmp, wrote)
            made = []       # saved: the directories stay
            return lcc
    finally:
        for d in made:
            with contextlib.suppress(OSError):
                d.rmdir()


def save_largest_component(data_dir, out_dir, name: str = "lcc") -> Graph:
    """``save_dataset(largest_connected_component(load_dataset(data_dir)),
    out_dir, name)``, the same bytes and the same errors, and the
    component.

    ``_copied_component`` copies the source's kept features.csv lines when
    the cache proves the copy exact; otherwise the dataset is loaded and
    the component formatted.
    """
    data_dir, out_dir = Path(data_dir), Path(out_dir)
    meta, edges = _read_head(data_dir)
    lcc = _copied_component(data_dir, out_dir, name, meta, edges)
    if lcc is None:
        features = _load_features(data_dir / "features.csv",
                                  meta.num_nodes, meta.num_features)
        lcc = largest_connected_component(
            _read_graph(data_dir, meta, edges, features))
        del features    # the component's save needs only its own features
        save_dataset(lcc, out_dir, name)
    return lcc


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
    return _induced(g, _component_ids(g.num_nodes, g.edges))


def _component_ids(num_nodes: int, edges: np.ndarray) -> np.ndarray:
    """The nodes of the largest connected component of the graph of
    ``num_nodes`` nodes and the edges ``edges``, ascending; of components
    of one size, the one holding the lowest node id.

    Each node points to a node of its component of lower id, or to itself
    when it is the root of its tree. A round points each root that an edge
    joins to a lower root at the lowest such root, then every node straight
    to its root. A tree that neither hooks nor is hooked onto in a round
    hooks in the next, so the trees of a component shrink by a constant
    factor every two rounds, and each component ends as one tree rooted at
    its lowest id. Not scipy.sparse.csgraph, whose import took 11 MB of
    resident memory (it imports scipy.sparse.linalg).
    """
    root = np.arange(num_nodes)
    u, v = edges[:, 0], edges[:, 1]
    while True:
        ru, rv = root[u], root[v]
        apart = ru != rv
        if not apart.any():
            break
        np.minimum.at(root, np.maximum(ru, rv)[apart],
                      np.minimum(ru, rv)[apart])
        while not np.array_equal(up := root[root], root):
            root = up
    # argmax takes the first largest count, which is at the lowest root
    return np.flatnonzero(root == np.argmax(np.bincount(root,
                                                        minlength=num_nodes)))


def _induced(g: Graph, old_ids: np.ndarray) -> Graph:
    """The subgraph of ``g`` on the nodes ``old_ids`` (ascending, each edge
    of ``g`` between two of them kept), node old_ids[i] becoming node i; its
    features in a ``_mapped`` array."""
    keep = np.zeros(g.num_nodes, dtype=bool)
    keep[old_ids] = True
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
