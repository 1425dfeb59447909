"""Graph container, adjacency normalization, SBM generation, edit
primitives, and the Graphs of dataset directories.

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

``load_dataset``, ``save_dataset`` and ``save_largest_component`` turn a
dataset directory into a Graph and back. The bytes of its files, the
features cache and the lcc copy are ``gpcn.dataset``'s, which reads and
writes plain arrays; here the arrays are checked and assembled as a Graph
(``make_graph``), and the component is taken.

``generate_synthetic`` draws one uniform per node pair, in the row-major
order of ``np.triu_indices(n, 1)``, in pieces of ``_PAIR_BLOCK`` values; a
numpy Generator gives the same stream in pieces as in one call, so the
graph is the one a single draw over all n(n-1)/2 pairs gives, in O(n + |E|)
memory and not O(n^2).
"""

from __future__ import annotations

import contextlib
import itertools
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from gpcn.dataset import (DatasetError, DatasetMeta, _cache_dir,
                          _cached_features, _copy_rows, _load_features,
                          _mapped, _may_hold, _new_features_file, _parse_lines,
                          _ranges, _read_head, _save_dataset,
                          _write_features)

SPLIT_TAGS = ("train", "val", "test", "none")


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
        _save_dataset(path, name, tmp, _write_features(tmp, features),
                      g.num_classes, g.edges, g.features, g.labels, g.split)


def _copied_component(data_dir: Path, out_dir: Path, name: str,
                      meta: DatasetMeta, edges: np.ndarray) -> Graph | None:
    """``save_largest_component`` by a copy of the kept lines of the source
    features.csv, read once, which is renamed into place only when the
    source's digest names a cache entry that fits meta.json's shape; None,
    with nothing written, when it does not, features.csv is too short for
    meta.json's counts (``_may_hold``, checked before the component is
    taken), an edge is out of range or ``out_dir`` or the new file cannot
    be made: the caller's load then raises its errors. Past the copy, the
    features are the entry's, as a load's would be, so the rest of the load
    raises here what it would."""
    num_nodes = meta.num_nodes
    cache = _cache_dir()
    if (cache is None or num_nodes == 0
            or not _may_hold(data_dir / "features.csv", num_nodes,
                             meta.num_features)
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
            _save_dataset(out_dir, name, tmp, wrote, lcc.num_classes,
                          lcc.edges, lcc.features, lcc.labels, lcc.split)
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
