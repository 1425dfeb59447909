"""Dense numerical kernels shared by both training backends.

Everything is float64 and deterministic given the rng seed. Matrices are
plain numpy arrays; ModelParams carries the per-layer weights of a K-layer
network without bias terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ModelParams:
    """Per-layer weight matrices W^(k), shape d_{k-1} x d_k, no biases."""

    weights: list[np.ndarray]

    def __post_init__(self):
        for k in range(1, len(self.weights)):
            prev, w = self.weights[k - 1].shape, self.weights[k].shape
            if w[0] != prev[1]:
                raise ValueError(f"weight {k} has shape {w}, expected "
                                 f"{prev[1]} rows after shape {prev}")

    @property
    def layer_dims(self) -> list[int]:
        """d_0, .., d_K: the input width, then each layer's output width."""
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "ModelParams":
        return ModelParams([w.copy() for w in self.weights])


def init_params(layer_dims, rng) -> ModelParams:
    """Glorot-uniform initialized ModelParams for the given dimension chain."""
    weights = [glorot_init(layer_dims[k], layer_dims[k + 1], rng)
               for k in range(len(layer_dims) - 1)]
    return ModelParams(weights)


def relu(m: np.ndarray) -> np.ndarray:
    return np.maximum(m, 0.0)


def relu_prime(m: np.ndarray) -> np.ndarray:
    # derivative at exactly 0 defined as 0
    return (m > 0.0).astype(np.float64)


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-shift for overflow safety."""
    shifted = m - m.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy_masked(logits, labels, mask):
    """Mean negative log-likelihood over masked rows.

    Returns (loss, grad_logits) where grad is (softmax - onehot)/|mask| on
    masked rows and zero elsewhere. Softmax is row-wise, so it is taken of
    the masked rows alone.
    """
    sel = np.flatnonzero(np.asarray(mask, dtype=bool))
    if sel.size == 0:
        raise ValueError("empty mask")
    probs = softmax_rows(logits[sel])
    onehot = np.arange(sel.size), labels[sel]
    loss = float(-np.log(np.maximum(probs[onehot], 1e-300)).mean())
    probs[onehot] -= 1.0
    probs /= sel.size
    grad = np.zeros_like(logits)
    grad[sel] = probs
    return loss, grad


def glorot_init(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    if rows < 1 or cols < 1:
        raise ValueError("dimensions must be positive")
    a = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-a, a, size=(rows, cols))


# Adam's decay rates and denominator offset, as Kingma and Ba (2015) give them
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam accumulators for a list of weight matrices."""

    lr: float
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: ModelParams, lr: float) -> "AdamState":
        return cls(lr=lr,
                   m=[np.zeros_like(w) for w in params.weights],
                   v=[np.zeros_like(w) for w in params.weights])


def adam_step(params: ModelParams, grads, state: AdamState) -> None:
    """One in-place Adam update with bias correction. The accumulators m
    and v are updated in place too, by the operations, in the order, of

        m = beta1 m + (1 - beta1) g,   v = beta2 v + (1 - beta2) g g,
        w -= lr m_hat / (sqrt(v_hat) + eps),

    so the bits are those of that formula."""
    if len(grads) != len(params.weights):
        raise ValueError("gradient count mismatch")
    for k, (w, g) in enumerate(zip(params.weights, grads)):
        if g.shape != w.shape:
            raise ValueError(f"gradient {k} shape {g.shape} != {w.shape}")
    state.t += 1
    for w, g, m, v in zip(params.weights, grads, state.m, state.v):
        m *= ADAM_BETA1
        m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        g2 = (1 - ADAM_BETA2) * g
        g2 *= g
        v += g2
        denom = np.divide(v, 1 - ADAM_BETA2 ** state.t, out=g2)  # v_hat
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        step = m / (1 - ADAM_BETA1 ** state.t)                    # m_hat
        step *= state.lr
        step /= denom
        w -= step
