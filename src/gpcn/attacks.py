"""Adversarial perturbation generation and robustness evaluation.

Covers random global edge insertion, greedy gradient-based targeted attacks
on structure and/or binary features (direct and indirect), evasion and
poisoning protocols, victim selection, and the per-budget robustness summary
with its holistic metric sum(q * p_q).

Both backends share the same feedforward composition, so attack gradients are
computed once against the plain forward pass. The gradient through the
normalized adjacency is linearized: normalization coefficients are frozen at
the current degrees while scoring moves, and the adjacency is normalized
again after every applied edit, in the rows and columns the edit changed.
A model's prediction on its training graph is the ``history.forward`` that
``bp.fit`` kept; a walk step and ``predict`` run weights on other graphs.

The gradient attack is local, as in Nettack (Zuegner et al. 2018). For a
K-layer GCN the victim's loss reads A_hat only through the rows in which some
layer's backprop signal is nonzero; the signal starts at the victim's row and
spreads one hop per layer, so those rows lie in the victim's (K-1)-hop ball.
The adjacency gradient is formed on those rows only (|rows| x n, with the
transpose giving the columns), and only pairs with an endpoint there are
scored: every other pair has zero gradient and cannot increase the loss.

Targeted attacks walk each victim in ``fga_attack``, which applies each
edit as soon as it is picked and keeps the edit and the logits of its step;
the sweep lives in ``AttackSpec.budgets``, the walk runs to its largest
budget, and ``evaluate_attack`` reads budget q from step q. The first GCN
layer is A_hat (X W^(1)), so an edge toggle leaves X W^(1) as it was: a
step after one patches A_hat in the toggled pair's rows and columns
(``apply_edits``) and forms one n x hidden product A_hat (X W^(1)) and the
hidden layers, with no n x d array and no dense product over the features.
X W^(1) is formed again only after a feature flip, which leaves A_hat as it
was. A step's margin reads the softmax of the victim's logits row alone:
softmax is row-wise, so that row is the one a softmax of all rows gives.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from gpcn.graph import (EdgeEdit, Graph, _row_positions, apply_edits,
                        propagate)
from gpcn.nn import ModelParams, relu_prime, softmax_rows
from gpcn.bp import ForwardCache, gcn_forward, predict
from gpcn.calibration import MarginRecord, classification_margins

ATTACK_KINDS = ("random_global", "fga_structure", "fga_feature", "fga_both",
                "fga_indirect")
# the targeted kinds that toggle edges, and those that flip features
_STRUCTURE_KINDS = ("fga_structure", "fga_both", "fga_indirect")
_FEATURE_KINDS = ("fga_feature", "fga_both")
# Feature values _is_binary checks at a time: two 64 KB boolean masks.
_BINARY_BLOCK_VALUES = 1 << 16
# victim strategy -> the splits it draws victims from
VICTIM_STRATEGIES = {"nettack_style": ("test",),
                     "random_1000": ("val", "test")}


@dataclass(frozen=True)
class AttackSpec:
    """One attack and its sweep. ``budgets`` holds the edit budgets of a
    targeted kind, integers from 0, or the edge rates of ``random_global``;
    ``evaluate_attack`` reports each of them, in order, and a targeted walk
    runs to the largest, ``budget``. Construction refuses an empty sweep
    and a value given twice, whose rows would be reported twice."""

    kind: str
    budgets: tuple
    mode: str = "evasion"              # or "poisoning"
    influencer_count: int = 5          # indirect attacks only
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if self.mode not in ("evasion", "poisoning"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.influencer_count < 1:
            raise ValueError("influencer_count must be >= 1")
        object.__setattr__(self, "budgets", tuple(self.budgets))
        if not self.budgets:
            raise ValueError("budget sweep is empty")
        seen = set()
        for q in self.budgets:
            if q in seen:
                raise ValueError(f"{q!r} appears twice in the budget grid")
            seen.add(q)
            if self.kind != "random_global" and not (
                    isinstance(q, (int, np.integer)) and q >= 0):
                raise ValueError(f"budget {q!r} is not an integer >= 0")

    @property
    def budget(self):
        """The largest value of the sweep: a targeted walk's length."""
        return max(self.budgets)


@dataclass(frozen=True)
class AttackStep:
    """Edit q of a targeted attack, and the logits of the graph after the
    first q edits under the attacked params."""

    edit: EdgeEdit
    logits: np.ndarray


@dataclass
class RobustnessReport:
    accuracy: dict                     # budget -> accuracy over victims
    holistic: float | None
    margins_before: list               # MarginRecord per victim
    margins_after: dict                # budget -> list of MarginRecord


def holistic_metric(accuracy: dict) -> float | None:
    """sum(q * p_q) over integer budgets; None when budgets are rates."""
    if not all(isinstance(q, (int, np.integer)) for q in accuracy):
        return None
    return float(sum(q * p for q, p in accuracy.items()))


def candidate_pool(graph: Graph, strategy: str) -> np.ndarray:
    """Mask of the nodes ``strategy`` draws its victims from; ValueError
    for an unknown strategy or an empty pool."""
    if strategy not in VICTIM_STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    splits = VICTIM_STRATEGIES[strategy]
    pool = np.isin(graph.split, splits)
    if not pool.any():
        raise ValueError(f"empty candidate pool: the dataset has no "
                         f"{' or '.join(splits)} nodes, which victim strategy "
                         f"{strategy!r} draws from")
    return pool


def select_victims(graph: Graph, probs: np.ndarray, strategy: str,
                   seed: int) -> np.ndarray:
    """The int64 ids of the victim nodes, drawn from the evaluation splits.

    "nettack_style": the 10 highest-margin test nodes, then the 10
    lowest-margin correctly classified test nodes not among them, then 20
    random test nodes from the rest, in that order. "random_1000": up to
    1000 nodes uniform without replacement from val and test, sorted.
    """
    rng = np.random.default_rng(seed)
    pool = candidate_pool(graph, strategy)
    if strategy == "random_1000":
        candidates = np.flatnonzero(pool)
        take = min(1000, candidates.size)
        return np.sort(rng.choice(candidates, size=take, replace=False))

    records = classification_margins(probs, graph.labels, pool)
    chosen = [r.node for r in sorted(records, key=lambda r: -r.margin)[:10]]
    correct_asc = [r.node for r in sorted(records, key=lambda r: r.margin)
                   if r.correct and r.node not in chosen]
    chosen += correct_asc[:10]
    remaining = np.array([r.node for r in records if r.node not in chosen])
    take = min(20, remaining.size)
    if take:
        chosen += rng.choice(remaining, size=take, replace=False).tolist()
    return np.array(chosen, dtype=np.int64)


def poison_edge_count(graph: Graph, ptb_rate: float) -> int:
    """floor(ptb_rate * |E|), the edges ``random_global_poison`` inserts;
    ValueError for a rate that is not a finite nonnegative number or asks
    for more edges than the graph has absent node pairs."""
    if not 0.0 <= ptb_rate < np.inf:
        raise ValueError(f"ptb_rate {ptb_rate} is not a finite nonnegative "
                         "fraction")
    k = int(ptb_rate * graph.num_edges)
    n = graph.num_nodes
    absent = n * (n - 1) // 2 - graph.num_edges
    if k > absent:
        raise ValueError(f"not enough absent node pairs: ptb_rate {ptb_rate} "
                         f"asks for {k} new edges, the graph has {absent}")
    return k


def check_attack(graph: Graph, spec: AttackSpec) -> None:
    """ValueError for a rate of the sweep in ``spec`` that
    ``poison_edge_count`` refuses on ``graph``, or a feature attack on
    features that are not all 0 or 1. What needs no graph, such as an empty
    sweep, the spec refused when it was built."""
    if spec.kind == "random_global":
        for rate in spec.budgets:
            poison_edge_count(graph, rate)
    if spec.kind in _FEATURE_KINDS and not _is_binary(graph.features):
        raise ValueError("feature attacks require binary features")


def _is_binary(x: np.ndarray) -> bool:
    """Whether every value of the matrix ``x`` equals 0 or 1, checked in
    blocks of rows of about ``_BINARY_BLOCK_VALUES`` values, so that no
    mask of x's size is formed."""
    rows = max(1, _BINARY_BLOCK_VALUES // x.shape[1])
    for lo in range(0, x.shape[0], rows):
        block = x[lo:lo + rows]
        ok = block == 0.0
        ok |= block == 1.0
        if not ok.all():
            return False
    return True


def random_global_poison(graph: Graph, ptb_rate: float, seed: int) -> Graph:
    """Insert floor(ptb_rate * |E|) uniformly random absent edges; ``graph``
    itself when that is none."""
    k = poison_edge_count(graph, ptb_rate)
    if k == 0:
        return graph
    n = graph.num_nodes
    rng = np.random.default_rng(seed)
    present = {(int(u), int(v)) for u, v in graph.edges}
    new_edges: list[tuple[int, int]] = []
    while len(new_edges) < k:
        u, v = rng.integers(0, n, size=2)
        if u == v:
            continue
        pair = (min(int(u), int(v)), max(int(u), int(v)))
        if pair in present:
            continue
        present.add(pair)
        new_edges.append(pair)
    # the drawn pairs are absent, in range and not loops, so the poisoned
    # edges are the old ones and the drawn ones, sorted by key u * n + v
    edges = np.concatenate([graph.edges, new_edges])
    keys = np.unique(edges[:, 0] * n + edges[:, 1])
    return replace(graph, edges=np.stack([keys // n, keys % n], axis=1))


def loss_gradient_wrt_inputs(params: ModelParams, graph: Graph,
                             cache: ForwardCache, target_node: int):
    """Gradient of the target node's cross-entropy w.r.t. the adjacency, on
    the rows the gradient can touch, with normalization coefficients frozen
    at the current degrees. ``cache`` is the forward pass of ``graph``.

    Returns ``(rows, grad, signal)``. ``rows`` is the sorted set of nodes
    whose backprop signal is nonzero at some layer, the victim's (K-1)-hop
    ball at most. ``grad`` (|rows| x n) holds rows ``rows`` of the symmetric
    n x n adjacency gradient, with zero on (u, u); every entry off those
    rows and columns is zero. ``signal`` is the loss gradient w.r.t. the
    first layer's pre-activation Z^(1), so the feature gradient is
    A_hat (signal W^(1)T).
    """
    adj = graph.adj
    probs = softmax_rows(cache.logits[target_node:target_node + 1])
    g = np.zeros_like(cache.logits)
    g[target_node] = probs[0]
    g[target_node, graph.labels[target_node]] -= 1.0
    signals = [g]                          # layers K .. 1
    for k in range(params.num_layers, 1, -1):
        g = propagate(adj, g @ params.weights[k - 1].T) \
            * relu_prime(cache.pre[k - 2])
        signals.append(g)
    rows = np.flatnonzero(np.any([s.any(axis=1) for s in signals], axis=0))

    # d loss / d A_hat = sum_k g^(k) (H^(k-1) W^(k))T, nonzero on ``rows``;
    # X W^(1) is the cache's
    products = [cache.xw] + [h @ w for h, w in zip(cache.act[1:],
                                                    params.weights[1:])]
    grad = sum(s[rows] @ p.T for s, p in zip(signals, reversed(products)))
    # symmetric pairs share one value: G[u, v] + G[v, u], where G[v, u] is
    # nonzero only for v in ``rows``
    grad[:, rows] += grad[:, rows].T
    # chain through the frozen normalization: d(norm_adj)_uv/dA_uv =
    # 1/sqrt(deg_u * deg_v) with self-loop degrees at current structure,
    # the row counts of A_hat
    deg = np.diff(adj.indptr).astype(np.float64)
    grad *= 1.0 / np.sqrt(deg[rows, None] * deg)
    grad[np.arange(rows.size), rows] = 0.0
    return rows, grad, g


def _gradient_band(n: int, rows: np.ndarray, grad: np.ndarray,
                   nodes: np.ndarray) -> np.ndarray:
    """Rows ``nodes`` of the symmetric n x n gradient held as ``grad`` on
    ``rows``: the transpose part for every node, the stored row for a node
    in ``rows``."""
    band = np.zeros((nodes.size, n))
    band[:, rows] = grad[:, nodes].T
    inside = np.isin(nodes, rows)
    band[inside] = grad[np.searchsorted(rows, nodes[inside])]
    return band


def _best_toggle(adj: sp.csr_matrix, rows: np.ndarray, grad: np.ndarray,
                 victim: int, allowed: np.ndarray | None):
    """Highest-scoring legal edge toggle among the pairs that touch ``rows``
    (every other pair has zero gradient), with ``adj`` the current A_hat.
    Ties go to the lexicographically smallest (min, max) pair. Returns
    (score, EdgeEdit)."""
    n = adj.shape[0]
    # the pattern of A_hat is A + I; its diagonal is never a legal toggle
    lens, at = _row_positions(adj, rows)
    present = np.zeros((rows.size, n), dtype=bool)
    present[np.repeat(np.arange(rows.size), lens), adj.indices[at]] = True
    # toggling from a to 1-a changes loss by roughly grad * (1 - 2a)
    scores = grad * (1.0 - 2.0 * present)
    scores[np.arange(rows.size), rows] = -np.inf          # no self-loops
    if allowed is not None:
        allow = np.zeros(n, dtype=bool)
        allow[allowed] = True
        legal = allow[rows, None] | allow
        legal[rows == victim] = False
        legal[:, victim] = False
        scores = np.where(legal, scores, -np.inf)
    best = scores.max()
    i, w = np.nonzero(scores == best)
    lo, hi = np.minimum(rows[i], w), np.maximum(rows[i], w)
    j = int(np.argmin(lo * n + hi))
    kind = "remove" if present[i[j], w[j]] else "add"
    return float(best), EdgeEdit(kind, int(lo[j]), int(hi[j]))


def _best_edit(params: ModelParams, graph: Graph, cache: ForwardCache,
               victim: int, spec: AttackSpec) -> EdgeEdit | None:
    """The legal edge toggle or feature flip of ``spec.kind`` with the
    largest loss-increasing score on ``graph``, whose forward pass is
    ``cache``; None when no legal move increases the victim's loss."""
    adj = graph.adj
    rows, grad, signal = loss_gradient_wrt_inputs(params, graph, cache,
                                                  victim)
    if rows.size == 0:
        return None         # zero gradient: no move increases the loss
    best_score = 0.0
    best_edit = None
    if spec.kind in _STRUCTURE_KINDS:
        allowed = None
        if spec.kind == "fga_indirect":
            # the victim's row of A_hat holds it and its neighbours
            neigh = adj.indices[adj.indptr[victim]:adj.indptr[victim + 1]]
            neigh = neigh[neigh != victim]
            if neigh.size == 0:
                return None
            strength = np.abs(_gradient_band(
                adj.shape[0], rows, grad, neigh)).sum(axis=1)
            order = np.argsort(-strength, kind="stable")
            allowed = neigh[order[:spec.influencer_count]]
        score, edit = _best_toggle(adj, rows, grad, victim, allowed)
        if score > best_score:
            best_score, best_edit = score, edit
    if spec.kind in _FEATURE_KINDS:
        x = graph.features
        grad_x = propagate(adj, signal @ params.weights[0].T)
        # grad_x * (1 - 2x), bit for bit, in one array of x's size
        fsc = x * -2.0
        fsc += 1.0
        fsc *= grad_x
        node, fidx = np.unravel_index(np.argmax(fsc), fsc.shape)
        if fsc[node, fidx] > best_score:
            best_edit = EdgeEdit("feature_flip", int(node), int(fidx))
    return best_edit


def fga_attack(params: ModelParams, graph: Graph, victim: int,
               spec: AttackSpec, cache: ForwardCache) -> list[AttackStep]:
    """Greedy gradient attack: per iteration, recompute gradients and apply
    the legal edge toggle / feature flip with the largest loss-increasing
    score. Indirect attacks only touch edges that avoid the victim and have
    an endpoint among the top-gradient influencer neighbors. ``cache`` is
    the forward pass of ``graph`` under ``params``. Returns one
    ``AttackStep`` per applied edit, at most ``spec.budget``, the largest
    budget of the spec's sweep: each edit is applied as soon as it is
    picked, and the next iteration starts from its step, on a graph of its
    own whose A_hat is its parent's, patched; ``graph`` is left as it was.
    Feature kinds take binary features, as ``check_attack`` checks."""
    if spec.kind not in _STRUCTURE_KINDS + _FEATURE_KINDS:
        raise ValueError(f"{spec.kind!r} is not a targeted attack kind")

    steps: list[AttackStep] = []
    for _ in range(spec.budget):
        edit = _best_edit(params, graph, cache, victim, spec)
        if edit is None:
            break
        graph = apply_edits(graph, [edit])
        # an edge toggle leaves X, and with it X W^(1), as it was
        xw = cache.xw if edit.kind != "feature_flip" else None
        cache = gcn_forward(graph, params, xw)
        steps.append(AttackStep(edit, cache.logits))
    return steps


def _victim_margin(logits: np.ndarray, labels: np.ndarray,
                   victim: int) -> MarginRecord:
    """The margin of node ``victim`` under ``softmax_rows(logits)``, from the
    softmax of its row alone, which is row ``victim`` of the softmax of all
    rows: softmax is row-wise."""
    rec = classification_margins(softmax_rows(logits[victim:victim + 1]),
                                 labels[victim:victim + 1], [True])[0]
    return replace(rec, node=victim)


def evaluate_attack(train, graph: Graph, trained, victims: np.ndarray,
                    spec: AttackSpec) -> RobustnessReport:
    """Run the evasion or poisoning protocol over the sweep
    ``spec.budgets``; the report holds each budget in the sweep's order.
    ``check_attack`` first refuses what the attack cannot take.

    ``train`` maps a Graph to the ``(params, history)`` that ``train_bp``
    and ``train_pc`` return, and ``trained`` is the pair it gave on the
    clean ``graph``: a model's prediction on the graph it was trained on is
    its ``history.forward``. Evasion predicts with ``params`` on the
    perturbed graphs; poisoning calls ``train`` on each. A budget that
    leaves the clean graph reads the clean prediction, and budgets that
    read the same step of a walk share its prediction: poisoning trains
    once per rate that adds edges, or per walk step that a budget reads.

    A targeted attack walks each victim once, from the clean forward pass
    to the largest budget, and budget q reads step q, or the last step, or
    the clean graph, if the attack stopped earlier: evasion the step's
    logits, poisoning a retrain on ``apply_edits`` of the first q edits.
    """
    check_attack(graph, spec)
    params, clean = trained[0], trained[1].forward
    vmask = np.zeros(graph.num_nodes, dtype=bool)
    vmask[victims] = True
    clean_probs = softmax_rows(clean.logits)
    margins_before = classification_margins(clean_probs, graph.labels, vmask)
    poisoning = spec.mode == "poisoning"

    margins_after: dict = {}
    if spec.kind == "random_global":
        for rate in spec.budgets:
            perturbed = random_global_poison(graph, rate, spec.seed)
            # a rate that adds no edge leaves the clean graph
            probs = clean_probs
            if perturbed is not graph:
                probs = (softmax_rows(train(perturbed)[1].forward.logits)
                         if poisoning else predict(perturbed, params))
            margins_after[rate] = classification_margins(probs, graph.labels,
                                                         vmask)
    else:
        margins_after = {q: [] for q in spec.budgets}
        # every victim's first step runs on the clean graph, so they share
        # its forward pass
        for victim in victims.tolist():
            steps = fga_attack(params, graph, victim, spec, clean)
            margin_at: dict = {}           # walk index -> victim's margin
            for q in margins_after:
                i = min(q, len(steps))
                if i not in margin_at:
                    if poisoning and i:
                        perturbed = apply_edits(
                            graph, [s.edit for s in steps[:i]])
                        logits = train(perturbed)[1].forward.logits
                    else:
                        logits = steps[i - 1].logits if i else clean.logits
                    margin_at[i] = _victim_margin(logits, graph.labels,
                                                  victim)
                margins_after[q].append(margin_at[i])
    accuracy = {q: float(np.mean([r.correct for r in recs]))
                for q, recs in margins_after.items()}

    return RobustnessReport(accuracy=accuracy,
                            holistic=holistic_metric(accuracy),
                            margins_before=margins_before,
                            margins_after=margins_after)
