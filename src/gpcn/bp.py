"""Backpropagation baseline: K-layer GCN with a manual reverse pass, and the
full-batch Adam training loop with validation-based model selection that
both backends share."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from gpcn.graph import Graph, propagate
from gpcn.nn import (AdamState, ModelParams, adam_step, cross_entropy_masked,
                     init_params, relu, relu_prime, softmax_rows)


@dataclass
class ForwardCache:
    """The product X W^(1), aggregates A_hat H^(k-1), pre-activations Z^(k)
    and activations H^(k); H^(0) is the input X. The one place aggregates
    are formed: the reverse pass and the predictive-coding state read them
    from here.

    The first layer is Z^(1) = A_hat (X W^(1)), the order of Kipf and
    Welling's GCN, so it has no aggregate: agg[0] is None, and no n x d
    array A_hat X is formed. An edge edit leaves ``xw`` as it was.
    """

    xw: np.ndarray                 # X W^(1)
    agg: list[np.ndarray | None]   # None, A_hat H^(1) .. A_hat H^(K-1)
    pre: list[np.ndarray]          # Z^(1) .. Z^(K)
    act: list[np.ndarray]          # H^(0) .. H^(K); H^(K) = Z^(K) (linear out)

    @property
    def logits(self) -> np.ndarray:
        return self.act[-1]


@dataclass
class TrainConfig:
    epochs: int = 300
    weight_lr: float = 0.001
    seed: int = 0
    hidden_dims: tuple[int, ...] = (16,)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if any(d < 1 for d in self.hidden_dims):
            raise ValueError("hidden dims must be positive")
        if not 0.0 < self.weight_lr < np.inf:
            raise ValueError(f"weight_lr must be finite and positive, got "
                             f"{self.weight_lr}")


@dataclass
class TrainHistory:
    train_acc: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)
    test_acc: list[float] = field(default_factory=list)
    energy: list[float] = field(default_factory=list)  # PC backend only
    selected_epoch: int = 0
    forward: ForwardCache | None = None   # the selected epoch's eval pass


def gcn_forward(graph: Graph, params: ModelParams,
                xw: np.ndarray | None = None) -> ForwardCache:
    """Hidden layers ReLU(A_hat H W); output layer linear (logits). The
    first layer propagates X W^(1): ``xw`` if the caller holds it, as the
    attack walk does across edge edits, else formed here."""
    x = graph.features
    if xw is None:
        xw = x @ params.weights[0]
    agg, pre, act = [None], [], [x]
    K = params.num_layers
    for k, w in enumerate(params.weights, start=1):
        if k == 1:
            z = propagate(graph.adj, xw)
        else:
            agg.append(propagate(graph.adj, h))
            z = agg[-1] @ w
        pre.append(z)
        h = z if k == K else relu(z)
        act.append(h)
    return ForwardCache(xw=xw, agg=agg, pre=pre, act=act)


def gcn_backward(adj: sp.csr_matrix, cache: ForwardCache,
                 grad_logits: np.ndarray, params: ModelParams):
    """Reverse pass; returns per-layer weight gradients.

    A_hat is symmetric, so propagate serves as its own transpose: the
    first layer's gradient is X^T (A_hat g).
    """
    K = params.num_layers
    grads = [None] * K
    g = grad_logits
    for k in range(K, 1, -1):
        grads[k - 1] = cache.agg[k - 1].T @ g
        g = propagate(adj, g @ params.weights[k - 1].T)
        g = g * relu_prime(cache.pre[k - 2])
    grads[0] = cache.act[0].T @ propagate(adj, g)
    return grads


def fit(graph: Graph, config: TrainConfig, epoch):
    """Full-batch training loop shared by both backends, on ``graph``.

    ``epoch(cache, params, opt, train_mask)`` updates ``params`` in
    place through the Adam state ``opt`` and returns the settled energy
    (predictive coding) or None (backprop). ``cache``, read-only, is the GCN
    forward pass of the current weights: the previous epoch's eval pass,
    which is also the feedforward state of a predictive-coding network.
    Returns the snapshot with the best val accuracy, ties broken by lowest
    energy, then earliest epoch, together with the epoch history, whose
    ``forward`` is that snapshot's eval pass, not a copy: the model's
    prediction on ``graph``, which the later epochs read as ``cache``.

    The split rows are found once; an epoch's three accuracies, those of
    tests/conftest.py's ``accuracy``, read one argmax over its eval pass.
    """
    train_mask = graph.mask("train")
    splits = [np.flatnonzero(train_mask), np.flatnonzero(graph.mask("val")),
              np.flatnonzero(graph.mask("test"))]
    if not splits[0].size or not splits[1].size:
        raise ValueError("graph needs nonempty train and val splits")

    rng = np.random.default_rng(config.seed)
    dims = [graph.num_features, *config.hidden_dims, graph.num_classes]
    params = init_params(dims, rng)
    opt = AdamState.for_params(params, config.weight_lr)

    history = TrainHistory()
    best_key = None
    best_params = None
    cache = gcn_forward(graph, params)
    for i in range(config.epochs):
        energy = epoch(cache, params, opt, train_mask)
        if energy is not None:
            if not np.isfinite(energy):
                raise FloatingPointError(f"non-finite energy at epoch {i}")
            history.energy.append(energy)

        cache = gcn_forward(graph, params)
        correct = np.argmax(cache.logits, axis=1) == graph.labels
        train, val, test = (float(np.mean(correct[sel])) if sel.size
                            else float("nan") for sel in splits)
        history.train_acc.append(train)
        history.val_acc.append(val)
        history.test_acc.append(test)
        key = (val, 0.0 if energy is None else -energy)
        if best_key is None or key > best_key:
            best_key = key
            best_params = params.copy()
            history.selected_epoch = i
            history.forward = cache
    return best_params, history


def train_bp(graph: Graph, config: TrainConfig):
    """Backprop training through ``fit``: one cross-entropy gradient step
    per epoch, so selection is best val accuracy, then earliest epoch."""

    def epoch(cache, params, opt, train_mask):
        loss, grad = cross_entropy_masked(cache.logits, graph.labels,
                                          train_mask)
        if not np.isfinite(loss):
            # one Adam step per epoch, so opt.t counts the epochs done
            raise FloatingPointError(f"non-finite loss at epoch {opt.t}")
        adam_step(params, gcn_backward(graph.adj, cache, grad, params), opt)

    return fit(graph, config, epoch)


def predict(graph: Graph, params: ModelParams) -> np.ndarray:
    """Class probabilities: softmax of the forward-pass logits, for a graph
    ``params`` were not trained on (on that one, ``history.forward``'s)."""
    return softmax_rows(gcn_forward(graph, params).logits)
