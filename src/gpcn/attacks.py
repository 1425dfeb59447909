"""Adversarial perturbation generation and robustness evaluation.

Covers random global edge insertion, greedy gradient-based targeted attacks
on structure and/or binary features (direct and indirect), evasion and
poisoning protocols, victim selection, and the per-budget robustness summary
with its holistic metric sum(q * p_q).

Both backends share the same feedforward composition, so attack gradients are
computed once against the plain forward pass. The gradient through the
normalized adjacency is linearized: normalization coefficients are frozen at
the current degrees while scoring moves, and the adjacency is fully
re-normalized after every applied edit.

The gradient attack is local, as in Nettack (Zuegner et al. 2018). For a
K-layer GCN the victim's loss reads A_hat only through the rows in which some
layer's backprop signal is nonzero; the signal starts at the victim's row and
spreads one hop per layer, so those rows lie in the victim's (K-1)-hop ball.
The adjacency gradient is formed on those rows only (|rows| x n, with the
transpose giving the columns), and only pairs with an endpoint there are
scored: every other pair has zero gradient and cannot increase the loss.

Targeted attacks form perturbed graphs only in the walk of ``fga_attack``,
which applies each edit as soon as it is picked and keeps the graph and its
forward pass; ``evaluate_attack`` reads budget q from step q. Each step is
``PreparedGraph.with_edits`` of the one before, which normalizes A_hat again
but forms again only the rows of A_hat X an edit can change: the closed
neighbourhoods, in the old graph and in the new one, of every node an edit
touches. Those are both endpoints of an edge edit, whose degrees change
every entry of A_hat in their neighbours' rows, and the node of a feature
flip, whose row of X enters its neighbours' rows. The patch is exact, not
approximate: scipy's CSR product sums each row on its own, in stored index
order, so a row formed through A_hat[rows] @ X has the bits of the same row
of the full product. The dense product (A_hat X) W^(1) stays full-size,
because a row subset of a BLAS matrix product is not bit-identical to the
full one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from gpcn.graph import (EdgeEdit, Graph, PreparedGraph, apply_edits, prepare,
                        propagate)
from gpcn.nn import ModelParams, relu_prime, softmax_rows
from gpcn.bp import ForwardCache, gcn_forward, predict
from gpcn.calibration import classification_margins

ATTACK_KINDS = ("random_global", "fga_structure", "fga_feature", "fga_both",
                "fga_indirect")
# victim strategy -> the splits it draws victims from
VICTIM_STRATEGIES = {"nettack_style": ("test",),
                     "random_1000": ("val", "test")}


@dataclass(frozen=True)
class AttackSpec:
    kind: str
    mode: str = "evasion"              # or "poisoning"
    budget: int | None = None          # edit count for targeted attacks
    influencer_count: int = 5          # indirect attacks only
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if self.mode not in ("evasion", "poisoning"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.budget is not None and self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.influencer_count < 1:
            raise ValueError("influencer_count must be >= 1")


@dataclass(frozen=True)
class AttackStep:
    """Edit q of a targeted attack, the prepared graph after the first q
    edits, and that graph's forward pass under the attacked params."""

    edit: EdgeEdit
    graph: PreparedGraph
    cache: ForwardCache


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


def random_global_poison(graph: Graph, ptb_rate: float, seed: int) -> Graph:
    """Insert floor(ptb_rate * |E|) uniformly random absent edges."""
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
    return apply_edits(graph, [EdgeEdit("add", u, v) for u, v in new_edges])


def _layer_products(cache: ForwardCache,
                    params: ModelParams) -> list[np.ndarray]:
    """H^(k-1) W^(k) for k = 1..K: what the adjacency gradient of every
    victim on the graph of ``cache`` multiplies."""
    return [h @ w for h, w in zip(cache.act, params.weights)]


def loss_gradient_wrt_inputs(params: ModelParams, prepared: PreparedGraph,
                             cache: ForwardCache, target_node: int,
                             products: list[np.ndarray] | None = None):
    """Gradient of the target node's cross-entropy w.r.t. the adjacency, on
    the rows the gradient can touch, with normalization coefficients frozen
    at the current degrees. ``cache`` is the forward pass of ``prepared``;
    ``products``, its ``_layer_products``, is formed here unless the caller
    shares it between victims.

    Returns ``(rows, grad, signal)``. ``rows`` is the sorted set of nodes
    whose backprop signal is nonzero at some layer, the victim's (K-1)-hop
    ball at most. ``grad`` (|rows| x n) holds rows ``rows`` of the symmetric
    n x n adjacency gradient, with zero on (u, u); every entry off those
    rows and columns is zero. ``signal`` is the loss gradient w.r.t. the
    first layer's pre-activation Z^(1), so the feature gradient is
    A_hat (signal W^(1)T).
    """
    graph, adj = prepared.graph, prepared.adj
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

    # d loss / d A_hat = sum_k g^(k) (H^(k-1) W^(k))T, nonzero on ``rows``
    if products is None:
        products = _layer_products(cache, params)
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
    present = adj[rows].toarray() != 0
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


def fga_attack(params: ModelParams, prepared: PreparedGraph, victim: int,
               spec: AttackSpec, cache: ForwardCache,
               products: list[np.ndarray] | None = None) -> list[AttackStep]:
    """Greedy gradient attack: per iteration, recompute gradients and apply
    the legal edge toggle / feature flip with the largest loss-increasing
    score. Indirect attacks only touch edges that avoid the victim and have
    an endpoint among the top-gradient influencer neighbors. ``cache`` is
    the forward pass of ``prepared`` under ``params``, and ``products``, if
    given, its ``_layer_products``. Returns one ``AttackStep`` per applied
    edit, at most ``spec.budget``: each edit is applied as soon as it is
    picked, and the next iteration starts from its step."""
    if spec.budget is None:
        raise ValueError("targeted attack needs a budget")
    use_structure = spec.kind in ("fga_structure", "fga_both", "fga_indirect")
    use_features = spec.kind in ("fga_feature", "fga_both")
    if not (use_structure or use_features):
        raise ValueError(f"{spec.kind!r} is not a targeted attack kind")
    if use_features and not np.isin(prepared.graph.features,
                                    (0.0, 1.0)).all():
        raise ValueError("feature attacks require binary features")

    steps: list[AttackStep] = []
    for _ in range(spec.budget):
        adj = prepared.adj
        rows, grad, signal = loss_gradient_wrt_inputs(params, prepared, cache,
                                                      victim, products)
        if rows.size == 0:
            break           # zero gradient: no move increases the loss
        best_score = 0.0
        best_edit = None
        if use_structure:
            allowed = None
            if spec.kind == "fga_indirect":
                # the victim's row of A_hat holds it and its neighbours
                neigh = adj.indices[adj.indptr[victim]:adj.indptr[victim + 1]]
                neigh = neigh[neigh != victim]
                if neigh.size == 0:
                    break
                strength = np.abs(_gradient_band(
                    adj.shape[0], rows, grad, neigh)).sum(axis=1)
                order = np.argsort(-strength, kind="stable")
                allowed = neigh[order[:spec.influencer_count]]
            score, edit = _best_toggle(adj, rows, grad, victim, allowed)
            if score > best_score:
                best_score, best_edit = score, edit
        if use_features:
            x = prepared.graph.features
            grad_x = propagate(adj, signal @ params.weights[0].T)
            fsc = grad_x * (1.0 - 2.0 * x)
            node, fidx = np.unravel_index(np.argmax(fsc), fsc.shape)
            if fsc[node, fidx] > best_score:
                best_score = float(fsc[node, fidx])
                best_edit = EdgeEdit("feature_flip", int(node), int(fidx))
        if best_edit is None:
            break           # no loss-increasing legal move remains
        prepared = prepared.with_edits([best_edit])
        cache = gcn_forward(prepared, params)
        products = None
        steps.append(AttackStep(best_edit, prepared, cache))
    return steps


def evaluate_attack(trainer, prepared: PreparedGraph, params: ModelParams,
                    victims: np.ndarray, spec: AttackSpec,
                    budgets) -> RobustnessReport:
    """Run the evasion or poisoning protocol over a budget sweep.

    ``params`` are the weights ``trainer`` trained on the clean graph of
    ``prepared``. ``trainer`` must expose train(prepared) -> params;
    evasion predicts with ``params`` on the perturbed graphs, and poisoning
    retrains from scratch on each of them. A budget that leaves the clean
    graph reads the clean prediction under ``params``, and budgets that
    read the same step of a walk share its prediction: poisoning trains
    once per rate that adds edges, or per walk step that a budget reads.

    A targeted attack walks each victim once, to the largest budget, and
    budget q reads step q (evasion its forward pass, poisoning its graph),
    or the last step, or the clean graph, if the attack stopped earlier.
    Victims are walked one at a time: one victim's steps, each with its own
    copy of A_hat X, are held at once.
    """
    budgets = list(budgets)
    if not budgets:
        raise ValueError("budget sweep is empty")
    graph = prepared.graph
    vmask = np.zeros(graph.num_nodes, dtype=bool)
    vmask[victims] = True
    clean = gcn_forward(prepared, params)
    clean_probs = softmax_rows(clean.logits)
    margins_before = classification_margins(clean_probs, graph.labels, vmask)
    poisoning = spec.mode == "poisoning"

    margins_after: dict = {}
    if spec.kind == "random_global":
        for rate in budgets:
            # a rate that adds no edge leaves the clean graph
            probs = clean_probs
            if poison_edge_count(graph, rate):
                perturbed = prepare(random_global_poison(graph, rate,
                                                         spec.seed))
                rate_params = trainer.train(perturbed) if poisoning else params
                probs = predict(perturbed, rate_params)
            margins_after[rate] = classification_margins(probs, graph.labels,
                                                         vmask)
    else:
        margins_after = {q: [] for q in budgets}
        # every victim's first step runs on the clean graph, so they share
        # its forward pass and the products X W^(1), .. of its gradient
        products = _layer_products(clean, params)
        walk_spec = replace(spec, budget=max(budgets))
        for victim in victims.tolist():
            steps = fga_attack(params, prepared, victim, walk_spec, clean,
                               products)
            walk = [(prepared, clean)] + [(s.graph, s.cache) for s in steps]
            one = np.zeros(graph.num_nodes, dtype=bool)
            one[victim] = True
            margin_at: dict = {}           # walk index -> victim's margin
            for q in margins_after:
                i = min(q, len(steps))
                if i not in margin_at:
                    perturbed, cache = walk[i]
                    probs = (predict(perturbed, trainer.train(perturbed))
                             if poisoning and i else softmax_rows(cache.logits))
                    margin_at[i] = classification_margins(
                        probs, graph.labels, one)[0]
                margins_after[q].append(margin_at[i])
            del steps, walk, perturbed, cache     # freed before the next walk
    accuracy = {q: float(np.mean([r.correct for r in recs]))
                for q, recs in margins_after.items()}

    return RobustnessReport(accuracy=accuracy,
                            holistic=holistic_metric(accuracy),
                            margins_before=margins_before,
                            margins_after=margins_after)
