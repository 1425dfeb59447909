"""Backprop baseline: forward/backward correctness, equivariance, training."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpcn.graph import make_graph
from gpcn.nn import ModelParams, adam_step, cross_entropy_masked, init_params
from gpcn.bp import (TrainConfig, accuracy, fit, gcn_backward, gcn_forward,
                     predict, train_bp)

from conftest import (central_difference, dense_adjacency, random_graph,
                      reference_aggregate_first, reference_gcn_backward,
                      relative_error)


def permute_graph(g, perm):
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.shape[0])
    return make_graph(g.num_nodes, g.features[inv], g.labels[inv],
                      g.split[inv], perm[g.edges], num_classes=g.num_classes)


class TestForward:
    def test_one_node_identity_chain(self):
        g = make_graph(1, [[1.0]], [0], ["train"], [], num_classes=1)
        params = ModelParams([np.array([[1.0]])])
        cache = gcn_forward(g, params)
        assert cache.logits[0, 0] == 1.0

    def test_two_node_path_hand_value(self, path_graph):
        params = ModelParams([np.array([[2.0]])])
        cache = gcn_forward(path_graph, params)
        # A_hat = [[.5,.5],[.5,.5]], X = [[1],[0]] -> 2 * [.5, .5]
        assert np.allclose(cache.logits, [[1.0], [1.0]], atol=1e-15)

    def test_hidden_layers_are_rectified_output_linear(self, rng):
        g = random_graph(rng, 6)
        params = init_params([3, 4, 2], rng)
        cache = gcn_forward(g, params)
        assert (cache.act[1] >= 0).all()
        assert np.array_equal(cache.act[2], cache.pre[1])

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 10_000))
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, 8)
        params = init_params([3, 4, 2], rng)
        perm = rng.permutation(8)
        out = gcn_forward(g, params).logits
        gp = permute_graph(g, perm)
        out_p = gcn_forward(gp, params).logits
        assert np.allclose(out_p[perm], out, rtol=0, atol=1e-12)


class TestBackward:
    def test_zero_grad_logits(self, rng):
        g = random_graph(rng, 5)
        params = init_params([3, 4, 2], rng)
        adj = g.adj
        cache = gcn_forward(g, params)
        grads = gcn_backward(adj, cache, np.zeros_like(cache.logits), params)
        assert all(np.array_equal(gr, np.zeros_like(gr)) for gr in grads)

    def test_one_layer_closed_form(self, path_graph):
        params = ModelParams([np.array([[1.0, -1.0]])])
        adj = path_graph.adj
        cache = gcn_forward(path_graph, params)
        labels = path_graph.labels
        mask = np.array([True, True])
        _, grad_logits = cross_entropy_masked(cache.logits, labels, mask)
        grads = gcn_backward(adj, cache, grad_logits, params)
        ax = dense_adjacency(adj) @ path_graph.features
        assert np.allclose(grads[0], ax.T @ grad_logits, atol=1e-15)

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 10))
    def test_matches_finite_differences(self, seed, n):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n, num_features=3, num_classes=2)
        params = init_params([3, 4, 2], rng)
        adj = g.adj
        mask = g.mask("train")

        cache = gcn_forward(g, params)
        _, grad_logits = cross_entropy_masked(cache.logits, g.labels, mask)
        grads = gcn_backward(adj, cache, grad_logits, params)

        for k in range(params.num_layers):
            def loss_of(w, k=k):
                trial = params.copy()
                trial.weights[k] = w
                out = gcn_forward(g, trial)
                return cross_entropy_masked(out.logits, g.labels, mask)[0]

            fd = central_difference(loss_of, params.weights[k])
            assert relative_error(grads[k], fd) <= 1e-4

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 10))
    def test_cached_aggregates_equal_repropagation_exactly(self, seed, n):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n, num_features=3, num_classes=2)
        params = init_params([3, 4, 5, 2], rng)
        adj = g.adj
        cache = gcn_forward(g, params)
        _, grad_logits = cross_entropy_masked(cache.logits, g.labels,
                                              g.mask("train"))
        grads = gcn_backward(adj, cache, grad_logits, params)
        expected = reference_gcn_backward(adj, cache, grad_logits, params)
        for a, b in zip(grads, expected):
            assert np.array_equal(a, b)

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 10),
           hidden=st.sampled_from([(4,), (4, 5)]))
    def test_matches_aggregate_first_order(self, seed, n, hidden):
        """A_hat (X W^(1)) and (A_hat X) W^(1) are one product in two
        orders: the logits and weight gradients agree to rounding."""
        rng = np.random.default_rng(seed)
        g = random_graph(rng, n, num_features=6, num_classes=3)
        params = init_params([6, *hidden, 3], rng)

        def grad_of(logits):
            return cross_entropy_masked(logits, g.labels, g.mask("train"))[1]

        cache = gcn_forward(g, params)
        grads = gcn_backward(g.adj, cache, grad_of(cache.logits), params)
        logits, want = reference_aggregate_first(g, params, grad_of)
        for got, ref in zip([cache.logits, *grads], [logits, *want]):
            assert np.allclose(got, ref, rtol=1e-12,
                               atol=1e-12 * np.abs(ref).max())


class TestTraining:
    def test_sbm_fixture_reaches_95(self, sbm_easy):
        params, history = train_bp(sbm_easy, TrainConfig(epochs=200, seed=0))
        assert history.test_acc[history.selected_epoch] >= 0.95

    def test_selection_no_worse_than_first_epoch(self, sbm_easy):
        params, history = train_bp(sbm_easy, TrainConfig(epochs=50, seed=1))
        assert history.val_acc[history.selected_epoch] >= history.val_acc[0]
        assert len(history.val_acc) == 50
        assert all(np.isfinite(w).all() for w in params.weights)

    def test_same_seed_identical_histories(self, sbm_easy):
        p1, h1 = train_bp(sbm_easy, TrainConfig(epochs=30, seed=3))
        p2, h2 = train_bp(sbm_easy, TrainConfig(epochs=30, seed=3))
        assert all(np.array_equal(a, b)
                   for a, b in zip(p1.weights, p2.weights))
        assert h1.val_acc == h2.val_acc

    def test_epoch_gets_forward_pass_of_current_weights(self, sbm_easy):
        seen = []

        def epoch(cache, params, opt, train_mask):
            fresh = gcn_forward(sbm_easy, params)
            seen.append(cache.agg[0] is None and all(
                np.array_equal(a, b) for a, b in
                zip([cache.xw] + cache.agg[1:] + cache.pre + cache.act,
                    [fresh.xw] + fresh.agg[1:] + fresh.pre + fresh.act)))
            _, grad = cross_entropy_masked(cache.logits, sbm_easy.labels,
                                           train_mask)
            adam_step(params,
                      gcn_backward(sbm_easy.adj, cache, grad, params), opt)

        fit(sbm_easy, TrainConfig(epochs=5, seed=0), epoch)
        assert seen == [True] * 5

    def test_empty_split_rejected(self, rng):
        g = random_graph(rng, 5)
        g = make_graph(5, g.features, g.labels, ["test"] * 5, g.edges,
                       num_classes=2)
        with pytest.raises(ValueError, match="split"):
            train_bp(g, TrainConfig(epochs=1))


class TestPredict:
    def test_rows_sum_to_one(self, rng):
        g = random_graph(rng, 6)
        params = init_params([3, 4, 2], rng)
        probs = predict(g, params)
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12

    def test_argmax_shift_invariant(self, rng):
        g = random_graph(rng, 6)
        params = init_params([3, 4, 2], rng)
        logits = gcn_forward(g, params).logits
        from gpcn.nn import softmax_rows
        assert np.array_equal(softmax_rows(logits).argmax(axis=1),
                              softmax_rows(logits + 5.0).argmax(axis=1))

    def test_sbm_fixture_labels_recovered(self, sbm_easy):
        params, _ = train_bp(sbm_easy, TrainConfig(epochs=200, seed=0))
        probs = predict(sbm_easy, params)
        assert accuracy(probs, sbm_easy.labels, sbm_easy.mask("test")) >= 0.95
