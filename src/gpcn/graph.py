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

``prepare`` forms the graph constants every forward pass reads, A_hat and
the first-layer aggregate A_hat X, once per graph. ``PreparedGraph.with_edits``
derives a perturbed copy that re-forms only the rows of A_hat X an edit can
change.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace
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
    self-loops. ``split`` holds one tag per node from SPLIT_TAGS.
    """

    num_nodes: int
    num_features: int
    num_classes: int
    edges: np.ndarray          # (E, 2) int64, u < v
    features: np.ndarray       # (num_nodes, num_features) float64
    labels: np.ndarray         # (num_nodes,) int64
    split: np.ndarray          # (num_nodes,) unicode, one of SPLIT_TAGS

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def mask(self, tag: str) -> np.ndarray:
        return self.split == tag


@dataclass(frozen=True)
class PreparedGraph:
    """A graph with the normalized adjacency ``adj`` (A_hat) and the
    first-layer aggregate ``ax`` (A_hat X), formed once by ``prepare``.

    ``ax`` is read-only and no method writes into a shared array, so one
    prepared graph may serve every seed on every thread.
    """

    graph: Graph
    adj: sp.csr_matrix
    ax: np.ndarray

    def with_edits(self, edits) -> "PreparedGraph":
        """The prepared graph of ``apply_edits(self.graph, edits)``.

        A_hat is normalized again; A_hat X is a copy of this one with the
        rows an edit can change formed again. Those rows are the closed
        neighbourhoods, in the old graph and the new one, of every touched
        node: both endpoints of an edge edit (their degrees change, and with
        them every entry of A_hat in their neighbours' rows) and the node of
        a feature flip (its row of X enters its neighbours' rows). Every
        added or removed edge joins two touched nodes, so the union of those
        neighbourhoods is the same in both graphs and is read off the new
        one. Each row is summed alone in stored order, as the full product
        sums it, so the result is bit-identical to
        ``prepare(apply_edits(graph, edits))``.
        """
        edits = list(edits)
        graph = apply_edits(self.graph, edits)
        adj = normalize_adjacency(graph)
        touched = np.unique(np.array(
            [n for e in edits
             for n in ((e.u,) if e.kind == "feature_flip" else (e.u, e.v))],
            dtype=np.int64))
        # the pattern of A_hat is A + I, so its rows hold closed neighbourhoods
        rows = np.unique(adj[touched].indices)
        ax = self.ax.copy()
        ax[rows] = adj[rows] @ graph.features
        ax.flags.writeable = False
        return PreparedGraph(graph, adj, ax)


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
        for p in (self.intra_block_edge_prob, self.inter_block_edge_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"edge probability {p} outside [0, 1]")
        if any(f < 0 for f in self.split_fractions):
            raise ValueError("split fractions must be nonnegative")
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


def make_graph(num_nodes, features, labels, split, edges,
               num_classes=None) -> Graph:
    """Validate raw arrays and assemble a Graph (edges symmetrized, deduped)."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    split = np.asarray(split, dtype="U5")
    edges, dropped = _canonical_edges(np.asarray(edges))
    if dropped:
        warnings.warn(f"dropped {dropped} self-loop edge(s)")
    if features.shape[0] != num_nodes:
        raise DatasetError(
            f"feature rows {features.shape[0]} != num_nodes {num_nodes}")
    if not np.isfinite(features).all():
        raise DatasetError("features must be finite")
    if labels.shape[0] != num_nodes or split.shape[0] != num_nodes:
        raise DatasetError("labels/splits length mismatch against num_nodes")
    if num_classes is None:
        num_classes = int(labels.max()) + 1 if labels.size else 0
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise DatasetError("label out of range")
    bad = set(np.unique(split)) - set(SPLIT_TAGS)
    if bad:
        raise DatasetError(f"unknown split tag(s): {sorted(bad)}")
    if edges.size and (edges.min() < 0 or edges.max() >= num_nodes):
        raise DatasetError("edge endpoint out of range")
    return Graph(
        num_nodes=num_nodes,
        num_features=features.shape[1],
        num_classes=int(num_classes),
        edges=edges,
        features=features,
        labels=labels,
        split=split,
    )


def load_dataset(path) -> Graph:
    """Load a dataset directory (meta.json, edges/features/labels/splits.csv)."""
    path = Path(path)
    for name in ("meta.json", "edges.csv", "features.csv", "labels.csv",
                 "splits.csv"):
        if not (path / name).is_file():
            raise DatasetError(f"missing file {path / name}")
    meta = json.loads((path / "meta.json").read_text())
    n = int(meta["num_nodes"])

    def parse_lines(name, fn, expect=None):
        out = []
        for i, line in enumerate((path / name).read_text().splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(fn(line))
            except Exception as exc:
                raise DatasetError(f"{name}:{i}: malformed line: {exc}") from exc
        if expect is not None and len(out) != expect:
            raise DatasetError(
                f"{name}: {len(out)} rows, expected {expect} per meta.json")
        return out

    edges = parse_lines(
        "edges.csv", lambda s: tuple(int(x) for x in s.split(",")))
    for i, e in enumerate(edges, 1):
        if len(e) != 2:
            raise DatasetError(f"edges.csv:{i}: expected two endpoints")
    features = parse_lines(
        "features.csv",
        lambda s: [float(x) for x in s.split(",")], expect=n)
    labels = parse_lines("labels.csv", int, expect=n)
    split = parse_lines("splits.csv", str, expect=n)

    features = np.asarray(features, dtype=np.float64)
    if features.shape[1] != int(meta["num_features"]):
        raise DatasetError(
            f"features.csv: {features.shape[1]} columns, expected "
            f"{meta['num_features']} per meta.json")
    g = make_graph(n, features, labels, split,
                   np.asarray(edges, dtype=np.int64).reshape(-1, 2),
                   num_classes=int(meta["num_classes"]))
    return g


def save_dataset(g: Graph, path, name: str = "graph") -> None:
    """Write a Graph back out in the dataset directory format."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    meta = {"name": name, "num_nodes": g.num_nodes,
            "num_features": g.num_features, "num_classes": g.num_classes}
    (path / "meta.json").write_text(json.dumps(meta, sort_keys=True) + "\n")
    (path / "edges.csv").write_text(
        "".join(f"{u},{v}\n" for u, v in g.edges))
    (path / "features.csv").write_text(
        "".join(",".join(repr(float(x)) for x in row) + "\n"
                for row in g.features))
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


def prepare(g: Graph) -> PreparedGraph:
    """A_hat and A_hat X of ``g``, formed once for every pass over it."""
    adj = normalize_adjacency(g)
    ax = propagate(adj, g.features)
    ax.flags.writeable = False
    return PreparedGraph(g, adj, ax)


def propagate(adj: sp.csr_matrix, m: np.ndarray) -> np.ndarray:
    """Sparse-dense product of the normalized adjacency with a node matrix."""
    m = np.asarray(m, dtype=np.float64)
    if m.shape[0] != adj.shape[0]:
        raise ValueError(
            f"matrix has {m.shape[0]} rows, adjacency expects {adj.shape[0]}")
    return adj @ m


def generate_synthetic(spec: SyntheticSpec, seed: int) -> Graph:
    """Stochastic block model: label = block, features = one-hot(block) + noise."""
    if spec.num_blocks < 1 or spec.nodes_per_block < 1:
        raise ValueError("need at least one block and one node per block")
    rng = np.random.default_rng(seed)
    n = spec.num_blocks * spec.nodes_per_block
    blocks = np.repeat(np.arange(spec.num_blocks), spec.nodes_per_block)

    iu, iv = np.triu_indices(n, k=1)
    same = blocks[iu] == blocks[iv]
    prob = np.where(same, spec.intra_block_edge_prob,
                    spec.inter_block_edge_prob)
    keep = rng.random(prob.shape[0]) < prob
    edges = np.stack([iu[keep], iv[keep]], axis=1).astype(np.int64)

    # one-hot block indicator (wrapped if feature_dim < num_blocks) + noise
    features = np.zeros((n, spec.feature_dim))
    features[np.arange(n), blocks % spec.feature_dim] = 1.0
    features += rng.normal(0.0, spec.feature_noise_std, size=features.shape)

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
    return make_graph(old_ids.shape[0], g.features[old_ids],
                      g.labels[old_ids], g.split[old_ids], new_edges,
                      num_classes=g.num_classes)


def apply_edits(g: Graph, edits) -> Graph:
    """Apply a sequence of EdgeEdit in order, returning a new Graph."""
    n = g.num_nodes
    # edges are sorted (u, v) rows, so their keys u * n + v are sorted
    keys = g.edges[:, 0] * n + g.edges[:, 1]
    touched: dict[int, bool] = {}      # key -> whether the edge is present now
    features = g.features
    features_copied = False
    for e in edits:
        if e.kind == "feature_flip":
            node, fidx = e.u, e.v
            if not (0 <= node < n and 0 <= fidx < g.num_features):
                raise IndexError(f"feature_flip ({node},{fidx}) out of range")
            if not features_copied:
                features = features.copy()
                features_copied = True
            val = features[node, fidx]
            if val not in (0.0, 1.0):
                raise ValueError(
                    f"feature_flip requires a binary feature, got {val}")
            features[node, fidx] = 1.0 - val
            continue
        u, v = min(e.u, e.v), max(e.u, e.v)
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise IndexError(f"edge ({e.u},{e.v}) out of range")
        key = u * n + v
        present = touched.get(key)
        if present is None:
            i = np.searchsorted(keys, key)
            present = bool(i < keys.size and keys[i] == key)
        if e.kind == "add":
            if present:
                raise ValueError(f"edge ({u},{v}) already present")
        elif not present:
            raise ValueError(f"edge ({u},{v}) not present")
        touched[key] = e.kind == "add"
    if not touched:
        return replace(g, features=features)
    flips = np.fromiter(touched, dtype=np.int64, count=len(touched))
    now = np.fromiter(touched.values(), dtype=bool, count=len(touched))
    keys = np.union1d(keys[~np.isin(keys, flips[~now])], flips[now])
    edges = np.stack([keys // n, keys % n], axis=1)
    # edits leave the labels, the splits and the finiteness of the features
    # as they were, and the keys are sorted and unique, so the graph is built
    # without make_graph's validation and canonicalization
    return replace(g, edges=edges, features=features)
