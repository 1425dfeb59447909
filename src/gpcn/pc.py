"""Predictive-coding backend: layered value-node state, energy, inference
dynamics, and local weight updates.

Each layer k >= 1 holds value nodes h^(k), a prediction mu^(k) computed from
the layer below through the graph propagation operator, and an error
eps^(k) = h^(k) - mu^(k). The scalar energy is half the squared error sum;
inference moves unclamped value nodes down the energy gradient while weights
are fixed, and weight updates descend the same energy with values fixed.

Inference never raises the energy. Each step computes the descent direction
once and tries the configured rate gamma; because the ReLU makes the energy
only piecewise quadratic, a full step that crosses a sign change can
overshoot, so a rise halves the rate along the same direction, and after
MAX_HALVINGS halvings the step moves nothing. A full-gamma step whose energy
is non-finite or more than double the current one raises FloatingPointError:
within one quadratic piece that means gamma * lambda_max > 1 + sqrt(2), past
the 2 / lambda stability bound, so the rate diverges rather than overshoots.

Two modes are supported. "inter_layer" predicts across consecutive layers
only. "intra_layer" additionally gives the neighborhood-aggregation stage its
own value nodes h_agg^(k), predicted by the aggregation of the layer below,
extending the energy with the aggregation errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from gpcn.graph import Graph, NormalizedAdjacency, propagate
from gpcn.nn import ModelParams, adam_step, relu, relu_prime
from gpcn.bp import TrainConfig, fit

INFERENCE_STEP_GRID = (12, 32, 50, 100)
VALUE_RATE_GRID = (0.05, 0.1, 0.5, 1.0)
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
        if self.value_update_rate <= 0:
            raise ValueError("value_update_rate must be positive")
        if self.weight_update_timing not in ("end_of_T", "every_step"):
            raise ValueError(f"bad timing {self.weight_update_timing!r}")
        if self.mode not in ("inter_layer", "intra_layer"):
            raise ValueError(f"bad mode {self.mode!r}")


@dataclass
class PCState:
    """Value nodes, predictions, and errors of a K-layer network.

    h[0] is the clamped input; h[1..K] are free unless clamped. When
    output_mask is set (training), output-layer errors count only on masked
    rows and those rows of h[K] are clamped to one-hot targets.
    """

    h: list[np.ndarray]                # layers 0..K
    mu: list[np.ndarray]               # layers 1..K
    eps: list[np.ndarray]              # layers 1..K
    mode: str = "inter_layer"
    output_mask: np.ndarray | None = None
    t: int = 0
    # energy of the current errors, left by the last inference step and
    # cleared whenever the errors are recomputed or re-clamped elsewhere
    energy: float | None = None
    # intra_layer only: aggregated-state value nodes and their errors,
    # one per layer 1..K, shape (num_nodes, d_{k-1})
    h_agg: list[np.ndarray] = field(default_factory=list)
    mu_agg: list[np.ndarray] = field(default_factory=list)
    eps_agg: list[np.ndarray] = field(default_factory=list)

    @property
    def num_layers(self) -> int:
        return len(self.mu)


def _layer_input(state: PCState, k: int) -> np.ndarray:
    """Activation of layer k-1 as seen by layer k's prediction (raw input
    features at the first layer, ReLU above)."""
    below = state.h[k - 1]
    return below if k == 1 else relu(below)


def _masked_output_eps(state: PCState) -> np.ndarray:
    """Output-layer errors with unclamped rows zeroed during training."""
    eps_k = state.eps[-1]
    if state.output_mask is None:
        return eps_k
    out = np.zeros_like(eps_k)
    out[state.output_mask] = eps_k[state.output_mask]
    return out


def _effective_eps(state: PCState, k: int) -> np.ndarray:
    """eps of layer k as it appears in the energy (1-indexed layer)."""
    if k == state.num_layers:
        return _masked_output_eps(state)
    return state.eps[k - 1]


def pc_predictions(adj: NormalizedAdjacency, state: PCState,
                   params: ModelParams) -> None:
    """Recompute all predictions and errors in place from current values."""
    state.energy = None
    K = params.num_layers
    if state.mode == "intra_layer":
        for k in range(1, K + 1):
            state.mu_agg[k - 1] = propagate(adj, _layer_input(state, k))
            state.eps_agg[k - 1] = state.h_agg[k - 1] - state.mu_agg[k - 1]
            state.mu[k - 1] = state.h_agg[k - 1] @ params.weights[k - 1]
            state.eps[k - 1] = state.h[k] - state.mu[k - 1]
    else:
        for k in range(1, K + 1):
            state.mu[k - 1] = (propagate(adj, _layer_input(state, k))
                               @ params.weights[k - 1])
            state.eps[k - 1] = state.h[k] - state.mu[k - 1]


def pc_init_feedforward(adj: NormalizedAdjacency, x: np.ndarray,
                        params: ModelParams,
                        mode: str = "inter_layer") -> PCState:
    """Fresh state with every value node set to its prediction (zero energy)."""
    state = PCState(h=[np.asarray(x, dtype=np.float64)], mu=[], eps=[],
                    mode=mode)
    K = params.num_layers
    for k in range(1, K + 1):
        agg = propagate(adj, _layer_input(state, k))
        mu = agg @ params.weights[k - 1]
        if mode == "intra_layer":
            state.h_agg.append(agg.copy())
            state.mu_agg.append(agg)
            state.eps_agg.append(np.zeros_like(agg))
        state.h.append(mu.copy())
        state.mu.append(mu)
        state.eps.append(np.zeros_like(mu))
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
    state.energy = None
    return state


def compute_energy(state: PCState) -> float:
    """F = half the squared error sum, output layer masked during training."""
    total = 0.0
    for k, e in enumerate(state.eps, start=1):
        sq = e * e
        if k == state.num_layers and state.output_mask is not None:
            sq[~state.output_mask] = 0.0   # unclamped output rows do not count
        total += float(np.sum(sq))
    for e in state.eps_agg:
        total += float(np.sum(e * e))
    return 0.5 * total


def _free_layers(state: PCState) -> int:
    """Number of layers, from the first, whose value nodes h[k] inference
    moves. While targets are clamped the output layer has no move: its
    clamped rows are fixed, and its free rows are outside the energy."""
    K = state.num_layers
    return K if state.output_mask is None else K - 1


def _descend(adj: NormalizedAdjacency, state: PCState, params: ModelParams,
             gamma: float, moves) -> PCState:
    """Move value nodes along fixed directions without raising the energy.

    ``moves`` holds (values, index, direction) triples: ``values[index]``
    (an entry of ``state.h`` or ``state.h_agg``) moves to
    ``start + rate * direction``. The rate starts at ``gamma`` and halves
    while the energy rises; after MAX_HALVINGS halvings the step is zero.
    Every trial replaces the list entries, so the start arrays stay intact.
    """
    before = state.energy
    if before is None:
        before = compute_energy(state)
    start = [values[i] for values, i, _ in moves]
    rate = gamma
    for halvings in range(MAX_HALVINGS + 1):
        for (values, i, d), x in zip(moves, start):
            values[i] = x + rate * d
        pc_predictions(adj, state, params)
        after = compute_energy(state)
        diverged = not (np.isfinite(after) and after <= 2.0 * before)
        if halvings == 0 and diverged:
            raise FloatingPointError(
                f"inference diverges at rate {gamma!r}: energy "
                f"{before!r} -> {after!r} in one step")
        if after <= before:
            state.energy = after
            break
        rate *= 0.5
    else:
        for (values, i, _), x in zip(moves, start):
            values[i] = x
        pc_predictions(adj, state, params)
    state.t += 1
    return state


def inference_step(adj: NormalizedAdjacency, state: PCState,
                   params: ModelParams, gamma: float) -> PCState:
    """One guarded descent step on the energy over unclamped value nodes
    (inter-layer mode); predictions and errors are recomputed afterwards.

    The energy never rises: the step tries rate ``gamma`` along -grad F and
    halves it on a rise (see ``_descend``). Raises FloatingPointError when
    the full-``gamma`` step makes the energy non-finite or more than doubles
    it, i.e. when ``gamma`` is past the stability bound.
    """
    K = params.num_layers
    moves = []
    for k in range(1, _free_layers(state) + 1):
        d = -_effective_eps(state, k)
        if k < K:
            back = propagate(adj, _effective_eps(state, k + 1)
                             @ params.weights[k].T)
            d = d + relu_prime(state.h[k]) * back
        moves.append((state.h, k, d))
    return _descend(adj, state, params, gamma, moves)


def intra_layer_step(adj: NormalizedAdjacency, state: PCState,
                     params: ModelParams, gamma: float) -> PCState:
    """One guarded descent step on the extended energy, updating both the
    layer value nodes and the aggregated-state value nodes (intra-layer
    mode).

    Same guarantee as ``inference_step``: the energy never rises, the rate
    halves on a rise, and FloatingPointError is raised when the full-``gamma``
    step makes the energy non-finite or more than doubles it.
    """
    if state.mode != "intra_layer":
        raise ValueError("state is not in intra_layer mode")
    K = params.num_layers
    moves = []
    for k in range(1, K + 1):
        eps_k = _effective_eps(state, k)
        moves.append((state.h_agg, k - 1, -state.eps_agg[k - 1]
                      + eps_k @ params.weights[k - 1].T))
        if k > _free_layers(state):
            continue
        d = -eps_k
        if k < K:
            d = d + relu_prime(state.h[k]) * propagate(adj, state.eps_agg[k])
        moves.append((state.h, k, d))
    return _descend(adj, state, params, gamma, moves)


def pc_weight_gradients(adj: NormalizedAdjacency, state: PCState,
                        params: ModelParams):
    """Energy gradients w.r.t. weights with values fixed (loss-style, so a
    descent step on them reduces the energy)."""
    grads = []
    for k in range(1, state.num_layers + 1):
        eps_k = _effective_eps(state, k)
        if state.mode == "intra_layer":
            pre = state.h_agg[k - 1]
        else:
            pre = propagate(adj, _layer_input(state, k))
        grads.append(-pre.T @ eps_k)
    return grads


def train_pc(graph: Graph, config: PCConfig):
    """Predictive-coding training through ``bp.fit``.

    Each epoch: feedforward init, clamp targets, T inference steps, weight
    update(s) through Adam. The epoch returns the settled training energy,
    so selection breaks val-accuracy ties by lowest energy.
    """
    step = intra_layer_step if config.mode == "intra_layer" else inference_step

    def epoch(adj, params, opt, train_mask):
        state = pc_init_feedforward(adj, graph.features, params, config.mode)
        clamp_targets(state, graph.labels, train_mask)
        for _ in range(config.inference_steps):
            step(adj, state, params, config.value_update_rate)
            if config.weight_update_timing == "every_step":
                adam_step(params, pc_weight_gradients(adj, state, params), opt)
                pc_predictions(adj, state, params)
        if config.weight_update_timing == "end_of_T":
            adam_step(params, pc_weight_gradients(adj, state, params), opt)
            pc_predictions(adj, state, params)
        return compute_energy(state)

    return fit(graph, config, epoch)
