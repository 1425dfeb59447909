"""Predictive-coding backend: layered value-node state, energy, inference
dynamics, and local weight updates.

Each layer k >= 1 holds value nodes h^(k), a prediction mu^(k) computed from
the layer below through the graph propagation operator, and an error
eps^(k) = h^(k) - mu^(k). The first layer predicts A_hat (X W^(1)), the GCN
forward pass's own pre-activation, so the inter_layer feedforward state has
exactly zero error and no n x d aggregate A_hat X is formed; the layers
above predict (A_hat relu(h^(k-1))) W^(k). The scalar energy is half the
squared error sum; inference moves unclamped value nodes down the energy
gradient while weights are fixed, and weight updates descend the same
energy with values fixed.

Two modes are supported. "inter_layer" predicts across consecutive layers
only. "intra_layer" additionally gives the neighborhood-aggregation stage its
own value nodes h_agg^(k), predicted by the aggregation of the layer below,
extending the energy with the aggregation errors. There A_hat X is layer 1's
aggregate by definition, n x d; ``train_pc`` forms it once per call.

Inference is one step for both modes, ``inference_step``; the modes differ
only in the moves it forms. The layer value nodes h^(k) move by
-eps^(k) + relu'(h^(k)) * A_hat up^(k+1), where the error that reaches h^(k)
from above, up^(k+1), is eps^(k+1) W^(k+1)^T in inter_layer mode and the
aggregation error eps_agg^(k+1) in intra_layer mode. In intra_layer mode the
aggregated-state nodes move too, by -eps_agg^(k) + eps^(k) W^(k)^T.

Inference never raises the energy. Each step computes these directions once
and tries the configured rate gamma; because the ReLU makes the energy only
piecewise quadratic, a full step that crosses a sign change can overshoot,
so a rise halves the rate along the same directions, and after MAX_HALVINGS
halvings the step moves nothing. A full-gamma step whose energy is
non-finite or more than double the current one raises FloatingPointError:
within one quadratic piece that means gamma * lambda_max > 1 + sqrt(2), past
the 2 / lambda stability bound, so the rate diverges rather than overshoots.

A training epoch recomputes only what each step changed. The energy is
carried through the loop as its terms, the squared sum of each error array
(``_energy_terms``): a step starts from the terms its caller holds, the
accepted trial's in end_of_T timing, and a weight update changes only the
predictions and their errors eps, so it sums those again and keeps the
eps_agg terms, which ``_energy`` adds in the same order. ``compute_energy``
stays a function of the state alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from gpcn.graph import Graph, propagate
from gpcn.nn import ModelParams, adam_step, relu, relu_prime
from gpcn.bp import ForwardCache, TrainConfig, fit

# Rate halvings an inference step tries before it takes a zero step.
MAX_HALVINGS = 40


@dataclass
class PCConfig(TrainConfig):
    inference_steps: int = 12
    value_update_rate: float = 0.1
    weight_update_timing: str = "end_of_T"   # or "every_step"
    mode: str = "inter_layer"                # or "intra_layer"

    def __post_init__(self):
        super().__post_init__()
        if self.inference_steps < 1:
            raise ValueError("inference_steps must be >= 1")
        if not 0.0 < self.value_update_rate < np.inf:
            raise ValueError(f"value_update_rate must be finite and "
                             f"positive, got {self.value_update_rate}")
        if self.weight_update_timing not in ("end_of_T", "every_step"):
            raise ValueError(f"bad timing {self.weight_update_timing!r}")
        if self.mode not in ("inter_layer", "intra_layer"):
            raise ValueError(f"bad mode {self.mode!r}")


@dataclass
class PCState:
    """Value nodes, aggregates, predictions, and errors of a K-layer network.

    h[0] is the clamped input X; h[1..K] are free unless clamped. agg[k-1]
    is the aggregate A_hat relu(h^(k-1)) that layer k's prediction reads,
    for k >= 2. agg[0] is A_hat X in intra_layer mode, where it predicts
    h_agg[0], and never changes; in inter_layer mode layer 1 predicts
    A_hat (X W^(1)) and agg[0] is None. When output_mask is set (training),
    those rows of h[K] are clamped to one-hot targets and only they count in
    the output layer: eps[-1] is stored with its unclamped rows zeroed, so
    every reader sees the errors of the energy.
    """

    h: list[np.ndarray]                # layers 0..K
    agg: list[np.ndarray | None]       # layers 1..K, shape (n, d_{k-1})
    mu: list[np.ndarray]               # layers 1..K
    eps: list[np.ndarray]              # layers 1..K
    mode: str = "inter_layer"
    output_mask: np.ndarray | None = None
    # intra_layer only: aggregated-state value nodes, predicted by agg, and
    # their errors, one per layer 1..K
    h_agg: list[np.ndarray] = field(default_factory=list)
    eps_agg: list[np.ndarray] = field(default_factory=list)

    @property
    def weight_inputs(self) -> list[np.ndarray]:
        """What each layer's weight multiplies: the input and the
        aggregates, or in intra_layer mode the aggregated-state value
        nodes."""
        if self.mode == "intra_layer":
            return self.h_agg
        return [self.h[0], *self.agg[1:]]


def _mask_output_eps(state: PCState) -> None:
    """Zero the unclamped output rows of eps[-1], which are not in F."""
    if state.output_mask is not None:
        state.eps[-1][~state.output_mask] = 0.0


def pc_predictions(adj: sp.csr_matrix, state: PCState,
                   params: ModelParams, keep_mu1: bool = False) -> None:
    """Recompute aggregates, predictions and errors in place from current
    values. agg[0] is kept: it reads only h[0], the clamped input."""
    for k in range(2, params.num_layers + 1):
        state.agg[k - 1] = propagate(adj, relu(state.h[k - 1]))
    _predict(adj, state, params, keep_mu1)
    state.eps_agg = [h - a for h, a in zip(state.h_agg, state.agg)]


def _predict(adj: sp.csr_matrix, state: PCState, params: ModelParams,
             keep_mu1: bool = False) -> None:
    """Recompute predictions and their errors eps in place from the
    current aggregates, which is all a weight update changes: the
    aggregation errors eps_agg read no weight. ``keep_mu1`` keeps mu[0] as
    well, which is exact while W^(1) and what it multiplies stay as they
    were: in inter_layer mode that is the input."""
    inter = state.mode == "inter_layer"
    for k, (x, w) in enumerate(zip(state.weight_inputs, params.weights),
                               start=1):
        if k > 1 or not keep_mu1:
            mu = x @ w
            # mu^(1) = A_hat (X W^(1)) in inter_layer mode
            state.mu[k - 1] = propagate(adj, mu) if k == 1 and inter else mu
        state.eps[k - 1] = state.h[k] - state.mu[k - 1]
    _mask_output_eps(state)


def pc_init_feedforward(cache: ForwardCache, params: ModelParams,
                        mode: str = "inter_layer",
                        ax: np.ndarray | None = None) -> PCState:
    """Fresh state with every value node set to its prediction, built from
    the GCN forward pass ``cache`` of ``params``.

    Only the value nodes are copies, h[1..K] and in intra_layer mode h_agg,
    since clamping writes into them; aggregates and predictions share the
    cache's arrays, which the state only ever replaces. In inter_layer mode
    every prediction is the cache's pre-activation, so the energy is exactly
    zero. intra_layer mode needs ``ax``, A_hat X, at which h_agg[0] starts:
    its mu^(1) = (A_hat X) W^(1) rounds apart from the cache's
    A_hat (X W^(1)), which h[1] holds, so eps^(1) is of rounding size.
    """
    state = PCState(h=[cache.act[0], *(z.copy() for z in cache.pre)],
                    agg=[ax, *cache.agg[1:]], mu=list(cache.pre),
                    eps=[np.zeros_like(z) for z in cache.pre], mode=mode)
    if mode == "intra_layer":
        if ax is None:
            raise ValueError("intra_layer mode needs A_hat X")
        state.h_agg = [a.copy() for a in state.agg]
        state.eps_agg = [np.zeros_like(a) for a in state.agg]
        state.mu[0] = ax @ params.weights[0]
        state.eps[0] = state.h[1] - state.mu[0]
    return state


def clamp_targets(state: PCState, labels: np.ndarray,
                  train_mask: np.ndarray) -> PCState:
    """Fix train-mask output rows to one-hot targets; other output rows stay
    free and are excluded from the energy."""
    train_mask = np.asarray(train_mask, dtype=bool)
    num_classes = state.h[-1].shape[1]
    onehot = np.zeros((train_mask.sum(), num_classes))
    onehot[np.arange(onehot.shape[0]), labels[train_mask]] = 1.0
    state.h[-1][train_mask] = onehot
    state.output_mask = train_mask
    state.eps[-1] = state.h[-1] - state.mu[-1]
    _mask_output_eps(state)
    return state


def _square_sums(arrays) -> list[float]:
    return [float((e * e).sum()) for e in arrays]


def _energy_terms(state: PCState) -> list[float]:
    """The squared sum of each error array of ``state``, eps then eps_agg:
    the terms of its energy, in the order ``_energy`` adds them."""
    return _square_sums([*state.eps, *state.eps_agg])


def _energy(terms: list[float]) -> float:
    """Half the sum of ``terms``, added in order (not ``sum``, which
    compensates its rounding from Python 3.12)."""
    total = 0.0
    for t in terms:
        total += t
    return 0.5 * total


def compute_energy(state: PCState) -> float:
    """F = half the squared error sum (unclamped output rows are stored as
    zero errors, so they do not count)."""
    return _energy(_energy_terms(state))


def inference_step(adj: sp.csr_matrix, state: PCState, params: ModelParams,
                   gamma: float, terms: list[float] | None = None
                   ) -> list[float]:
    """One guarded descent step on the energy over the free value nodes, in
    the state's mode; predictions and errors are recomputed afterwards.
    Returns the ``_energy_terms`` of the state it leaves. ``terms`` are
    those of the state it starts from, when the caller holds them, as
    ``train_pc`` does; else they are summed here.

    The free nodes are h[1..F], with F = K, or K - 1 while targets are
    clamped (the clamped output rows are fixed and the free ones are outside
    the energy), and in intra_layer mode every h_agg. Their directions
    -grad F are formed once; the step tries rate ``gamma`` along them and
    halves it while the energy rises, taking the zero step after
    MAX_HALVINGS halvings. Raises FloatingPointError when the full-``gamma``
    step makes the energy non-finite or more than doubles it, i.e. when
    ``gamma`` is past the stability bound.
    """
    K = params.num_layers
    F = K if state.output_mask is None else K - 1
    intra = state.mode == "intra_layer"
    # each direction in one new array: b - a is (-a) + b, bit for bit
    dh = []
    for k in range(1, F + 1):
        if k < K:
            up = (state.eps_agg[k] if intra
                  else state.eps[k] @ params.weights[k].T)
            d = relu_prime(state.h[k])
            d *= propagate(adj, up)
            d -= state.eps[k - 1]
        else:
            d = -state.eps[k - 1]
        dh.append(d)
    dagg = []
    for ea, e, w in zip(state.eps_agg, state.eps, params.weights):
        d = e @ w.T
        d -= ea
        dagg.append(d)

    if terms is None:
        terms = _energy_terms(state)
    before = _energy(terms)
    h0, agg0 = state.h[1:F + 1], state.h_agg
    rate = gamma
    for halvings in range(MAX_HALVINGS + 1):
        # each trial replaces the list entries, so h0 and agg0 stay intact
        state.h[1:F + 1] = [x + rate * d for x, d in zip(h0, dh)]
        state.h_agg = [x + rate * d for x, d in zip(agg0, dagg)]
        # mu^(1) = A_hat (X W^(1)) reads no free value in inter_layer mode
        pc_predictions(adj, state, params, keep_mu1=not intra)
        after_terms = _energy_terms(state)
        after = _energy(after_terms)
        diverged = not (np.isfinite(after) and after <= 2.0 * before)
        if halvings == 0 and diverged:
            raise FloatingPointError(
                f"inference diverges at rate {gamma!r}: energy "
                f"{before!r} -> {after!r} in one step")
        if after <= before:
            return after_terms
        rate *= 0.5
    state.h[1:F + 1], state.h_agg = h0, agg0
    pc_predictions(adj, state, params, keep_mu1=not intra)
    return _energy_terms(state)


def pc_weight_gradients(adj: sp.csr_matrix, state: PCState):
    """Energy gradients w.r.t. weights with values fixed (loss-style, so a
    descent step on them reduces the energy). In inter_layer mode
    mu^(1) = A_hat (X W^(1)) and A_hat is symmetric, so layer 1's gradient
    is X^T (A_hat (-eps^(1)))."""
    errors = [-e for e in state.eps]
    if state.mode == "inter_layer":
        errors[0] = propagate(adj, errors[0])
    return [x.T @ e for x, e in zip(state.weight_inputs, errors)]


def train_pc(graph: Graph, config: PCConfig):
    """Predictive-coding training through ``bp.fit``.

    Each epoch: feedforward init, clamp targets, T inference steps, weight
    update(s) through Adam, each followed by the predictions of the new
    weights (the values, and with them the aggregates and eps_agg, stay as
    they were). The epoch returns the settled training energy, so selection
    breaks val-accuracy ties by lowest energy; its terms are carried from
    step to step, and a weight update sums only the eps terms again.
    intra_layer mode forms A_hat X once, for every epoch.
    """
    adj = graph.adj
    ax = (propagate(adj, graph.features)
          if config.mode == "intra_layer" else None)
    every_step = config.weight_update_timing == "every_step"

    def update(state, params, opt, terms):
        adam_step(params, pc_weight_gradients(adj, state), opt)
        _predict(adj, state, params)
        return _square_sums(state.eps) + terms[len(state.eps):]

    def epoch(cache, params, opt, train_mask):
        state = pc_init_feedforward(cache, params, config.mode, ax)
        clamp_targets(state, graph.labels, train_mask)
        terms = _energy_terms(state)
        for _ in range(config.inference_steps):
            terms = inference_step(adj, state, params,
                                   config.value_update_rate, terms)
            if every_step:
                terms = update(state, params, opt, terms)
        if not every_step:
            terms = update(state, params, opt, terms)
        return _energy(terms)

    return fit(graph, config, epoch)
