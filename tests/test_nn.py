"""Dense kernels: activations, softmax, masked cross-entropy, Glorot, Adam."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpcn.nn import (ADAM_EPS, AdamState, ModelParams, adam_step,
                     cross_entropy_masked, glorot_init, init_params, relu,
                     relu_prime, softmax_rows)

from conftest import central_difference, relative_error


class TestRelu:
    def test_basic_values(self):
        assert np.array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])
        assert np.array_equal(relu_prime(np.array([-1.0, 0.0, 2.0])),
                              [0.0, 0.0, 1.0])

    def test_idempotent(self, rng):
        m = rng.normal(size=(4, 4))
        assert np.array_equal(relu(relu(m)), relu(m))

    def test_prime_matches_finite_differences_away_from_kink(self):
        x = np.array([[0.5, -0.5, 2.0]])
        fd = central_difference(lambda v: float(relu(v).sum()), x, step=1e-6)
        assert np.abs(fd - relu_prime(x)).max() <= 1e-8


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]])

    def test_max_shift_avoids_overflow(self):
        out = softmax_rows(np.array([[1000.0, 1000.0]]))
        assert np.allclose(out, [[0.5, 0.5]])
        assert np.isfinite(out).all()

    def test_closed_form(self):
        out = softmax_rows(np.log(np.array([[1.0, 3.0]])))
        assert np.allclose(out, [[0.25, 0.75]], atol=1e-15)

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 10_000), rows=st.integers(1, 6),
           cols=st.integers(1, 6))
    def test_rows_sum_to_one_entries_in_range(self, seed, rows, cols):
        m = np.random.default_rng(seed).normal(scale=10, size=(rows, cols))
        out = softmax_rows(m)
        assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-12
        assert (out >= 0).all() and (out <= 1).all()


class TestCrossEntropy:
    def test_peaked_logits_near_zero_loss(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        loss, _ = cross_entropy_masked(logits, np.array([0, 1]),
                                       np.array([True, True]))
        assert loss < 1e-10

    def test_uniform_logits_ln_k(self):
        logits = np.zeros((3, 5))
        loss, _ = cross_entropy_masked(logits, np.array([0, 1, 2]),
                                       np.ones(3, dtype=bool))
        assert abs(loss - np.log(5)) <= 1e-12

    def test_empty_mask(self):
        with pytest.raises(ValueError, match="empty mask"):
            cross_entropy_masked(np.zeros((2, 2)), np.array([0, 1]),
                                 np.zeros(2, dtype=bool))

    def test_grad_zero_off_mask(self, rng):
        logits = rng.normal(size=(4, 3))
        mask = np.array([True, False, True, False])
        _, grad = cross_entropy_masked(logits, np.array([0, 1, 2, 0]), mask)
        assert np.array_equal(grad[~mask], np.zeros((2, 3)))

    def test_grad_matches_finite_differences(self, rng):
        logits = rng.normal(size=(3, 4))
        labels = np.array([1, 3, 0])
        mask = np.array([True, True, False])

        def loss_of(m):
            return cross_entropy_masked(m, labels, mask)[0]

        _, grad = cross_entropy_masked(logits, labels, mask)
        fd = central_difference(loss_of, logits)
        assert relative_error(grad, fd) <= 1e-6


class TestGlorot:
    def test_deterministic(self):
        a = glorot_init(5, 3, np.random.default_rng(1))
        b = glorot_init(5, 3, np.random.default_rng(1))
        assert np.array_equal(a, b)

    def test_range_and_mean(self):
        w = glorot_init(100, 100, np.random.default_rng(0))
        bound = np.sqrt(6.0 / 200)
        assert np.abs(w).max() <= bound
        assert abs(w.mean()) < 0.01

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            glorot_init(0, 3, np.random.default_rng(0))


class TestModelParams:
    def test_dimension_chain_enforced(self):
        with pytest.raises(ValueError, match="shape"):
            ModelParams([np.zeros((2, 3)), np.zeros((4, 5))])

    def test_copy_is_deep(self, rng):
        p = init_params([2, 3, 2], rng)
        q = p.copy()
        q.weights[0][0, 0] += 1.0
        assert p.weights[0][0, 0] != q.weights[0][0, 0]

    def test_layer_dims_read_off_weights(self, rng):
        assert init_params([4, 3, 2], rng).layer_dims == [4, 3, 2]


class TestAdam:
    def test_zero_gradients_leave_params_unchanged(self, rng):
        p = init_params([2, 3], rng)
        before = p.weights[0].copy()
        state = AdamState.for_params(p, lr=0.01)
        adam_step(p, [np.zeros((2, 3))], state)
        assert np.array_equal(p.weights[0], before)
        assert state.t == 1

    def test_first_step_magnitude(self):
        # bias correction makes step 1 equal lr * g / (|g| + eps') ~ lr
        p = ModelParams([np.array([[0.0]])])
        state = AdamState.for_params(p, lr=0.05)
        g = 3.7
        adam_step(p, [np.array([[g]])], state)
        expect = 0.05 * g / (abs(g) + ADAM_EPS)
        assert abs(-p.weights[0][0, 0] - expect) <= 1e-12

    def test_determinism_with_cloned_state(self, rng):
        p1 = init_params([3, 2], np.random.default_rng(0))
        p2 = p1.copy()
        s1 = AdamState.for_params(p1, lr=0.01)
        grads = [rng.normal(size=(3, 2))]
        for _ in range(3):
            adam_step(p1, grads, s1)
        s2 = AdamState.for_params(p2, lr=0.01)
        for _ in range(3):
            adam_step(p2, grads, s2)
        assert np.array_equal(p1.weights[0], p2.weights[0])

    def test_shape_mismatch(self, rng):
        p = init_params([2, 2], rng)
        state = AdamState.for_params(p, lr=0.01)
        with pytest.raises(ValueError):
            adam_step(p, [np.zeros((3, 2))], state)
