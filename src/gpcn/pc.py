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
import scipy.sparse as sp

from gpcn.graph import PreparedGraph, propagate
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
        if self.value_update_rate <= 0:
            raise ValueError("value_update_rate must be positive")
        if self.weight_update_timing not in ("end_of_T", "every_step"):
            raise ValueError(f"bad timing {self.weight_update_timing!r}")
        if self.mode not in ("inter_layer", "intra_layer"):
            raise ValueError(f"bad mode {self.mode!r}")


@dataclass
class PCState:
    """Value nodes, aggregates, predictions, and errors of a K-layer network.

    h[0] is the clamped input; h[1..K] are free unless clamped. agg[k-1] is
    the aggregate A_hat f(h^(k-1)) that layer k's prediction reads, with f
    the identity at the input and ReLU above; agg[0] never changes. When
    output_mask is set (training), those rows of h[K] are clamped to one-hot
    targets and only they count in the output layer: eps[-1] is stored with
    its unclamped rows zeroed, so every reader sees the errors of the energy.
    """

    h: list[np.ndarray]                # layers 0..K
    agg: list[np.ndarray]              # layers 1..K, shape (n, d_{k-1})
    mu: list[np.ndarray]               # layers 1..K
    eps: list[np.ndarray]              # layers 1..K
    mode: str = "inter_layer"
    output_mask: np.ndarray | None = None
    # energy of the current errors, left by the last inference step and
    # cleared whenever the errors are recomputed or re-clamped elsewhere
    energy: float | None = None
    # intra_layer only: aggregated-state value nodes, predicted by agg, and
    # their errors, one per layer 1..K
    h_agg: list[np.ndarray] = field(default_factory=list)
    eps_agg: list[np.ndarray] = field(default_factory=list)

    @property
    def num_layers(self) -> int:
        return len(self.mu)

    @property
    def weight_inputs(self) -> list[np.ndarray]:
        """What each layer's weight multiplies: the aggregates, or in
        intra_layer mode the aggregated-state value nodes."""
        return self.h_agg if self.mode == "intra_layer" else self.agg


def _mask_output_eps(state: PCState) -> None:
    """Zero the unclamped output rows of eps[-1], which are not in F."""
    if state.output_mask is not None:
        state.eps[-1][~state.output_mask] = 0.0


def pc_predictions(adj: sp.csr_matrix, state: PCState,
                   params: ModelParams) -> None:
    """Recompute aggregates, predictions and errors in place from current
    values. agg[0] is kept: h[0] is the clamped input and never moves."""
    state.energy = None
    for k in range(1, params.num_layers + 1):
        if k > 1:
            state.agg[k - 1] = propagate(adj, relu(state.h[k - 1]))
        state.mu[k - 1] = state.weight_inputs[k - 1] @ params.weights[k - 1]
        state.eps[k - 1] = state.h[k] - state.mu[k - 1]
    state.eps_agg = [h - a for h, a in zip(state.h_agg, state.agg)]
    _mask_output_eps(state)


def pc_init_feedforward(cache: ForwardCache,
                        mode: str = "inter_layer") -> PCState:
    """Fresh state with every value node set to its prediction (zero energy),
    built from the GCN forward pass ``cache`` of the current weights.

    Only the value nodes are copies, h[1..K] and in intra_layer mode h_agg,
    since clamping writes into them; aggregates and predictions share the
    cache's arrays, which the state only ever replaces.
    """
    state = PCState(h=[cache.act[0], *(z.copy() for z in cache.pre)],
                    agg=list(cache.agg), mu=list(cache.pre),
                    eps=[np.zeros_like(z) for z in cache.pre], mode=mode)
    if mode == "intra_layer":
        state.h_agg = [a.copy() for a in cache.agg]
        state.eps_agg = [np.zeros_like(a) for a in cache.agg]
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
    state.energy = None
    return state


def compute_energy(state: PCState) -> float:
    """F = half the squared error sum (unclamped output rows are stored as
    zero errors, so they do not count)."""
    total = 0.0
    for e in (*state.eps, *state.eps_agg):
        total += float(np.sum(e * e))
    return 0.5 * total


def _free_layers(state: PCState) -> int:
    """Number of layers, from the first, whose value nodes h[k] inference
    moves. While targets are clamped the output layer has no move: its
    clamped rows are fixed, and its free rows are outside the energy."""
    K = state.num_layers
    return K if state.output_mask is None else K - 1


def _descend(adj: sp.csr_matrix, state: PCState, params: ModelParams,
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
    return state


def inference_step(adj: sp.csr_matrix, state: PCState,
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
        d = -state.eps[k - 1]
        if k < K:
            back = propagate(adj, state.eps[k] @ params.weights[k].T)
            d = d + relu_prime(state.h[k]) * back
        moves.append((state.h, k, d))
    return _descend(adj, state, params, gamma, moves)


def intra_layer_step(adj: sp.csr_matrix, state: PCState,
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
        eps_k = state.eps[k - 1]
        moves.append((state.h_agg, k - 1, -state.eps_agg[k - 1]
                      + eps_k @ params.weights[k - 1].T))
        if k > _free_layers(state):
            continue
        d = -eps_k
        if k < K:
            d = d + relu_prime(state.h[k]) * propagate(adj, state.eps_agg[k])
        moves.append((state.h, k, d))
    return _descend(adj, state, params, gamma, moves)


def pc_weight_gradients(state: PCState):
    """Energy gradients w.r.t. weights with values fixed (loss-style, so a
    descent step on them reduces the energy)."""
    return [-x.T @ e for x, e in zip(state.weight_inputs, state.eps)]


def train_pc(prepared: PreparedGraph, config: PCConfig):
    """Predictive-coding training through ``bp.fit``.

    Each epoch: feedforward init, clamp targets, T inference steps, weight
    update(s) through Adam. The epoch returns the settled training energy,
    so selection breaks val-accuracy ties by lowest energy.
    """
    step = intra_layer_step if config.mode == "intra_layer" else inference_step

    def epoch(adj, cache, params, opt, train_mask):
        state = pc_init_feedforward(cache, config.mode)
        clamp_targets(state, prepared.graph.labels, train_mask)
        for _ in range(config.inference_steps):
            step(adj, state, params, config.value_update_rate)
            if config.weight_update_timing == "every_step":
                adam_step(params, pc_weight_gradients(state), opt)
                pc_predictions(adj, state, params)
        if config.weight_update_timing == "end_of_T":
            adam_step(params, pc_weight_gradients(state), opt)
            pc_predictions(adj, state, params)
        return compute_energy(state)

    return fit(prepared, config, epoch)
