"""Predictive-coding backend: energy, inference dynamics, weight gradients,
training, and agreement with the shared feedforward composition."""

import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gpcn.pc
from gpcn.graph import make_graph, propagate
from gpcn.nn import AdamState, ModelParams, adam_step, init_params
from gpcn.bp import gcn_forward, predict
from gpcn.pc import (MAX_HALVINGS, PCConfig, PCState, clamp_targets,
                     compute_energy, inference_step, pc_init_feedforward,
                     pc_predictions, pc_weight_gradients, train_pc)

from conftest import (accuracy, feedforward_state, random_graph,
                      reference_effective_eps,
                      reference_energy, reference_inference_step,
                      reference_pc_predictions,
                      reference_pc_weight_gradients, relative_error)


def one_node_chain(target=2.0):
    """dims 1-1-1, unit weights, x = 1, clamped scalar target."""
    g = make_graph(1, [[1.0]], [0], ["train"], [], num_classes=1)
    params = ModelParams([np.array([[1.0]]), np.array([[1.0]])])
    adj = g.adj
    state = feedforward_state(g, params)
    state.h[-1][0, 0] = target
    state.output_mask = np.array([True])
    pc_predictions(adj, state, params)
    return adj, state, params


def clamped_random_state(seed, mode="inter_layer", n=5, dims=(3, 4, 2),
                         scatter=True, clamped=True, kinked=False):
    """Feedforward-initialized state, its train-mask targets clamped unless
    ``clamped`` is false; ``scatter`` additionally moves the free values off
    the feedforward manifold so errors are generic. ``kinked`` puts every
    hidden value at the ReLU kink and scales the output weight up, so that
    a move off the kink can raise the energy at every rate."""
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, num_features=dims[0], num_classes=dims[-1])
    params = init_params(list(dims), rng)
    if kinked:
        params.weights[-1] = 20.0 * params.weights[-1]
    adj = g.adj
    state = feedforward_state(g, params, mode)
    if clamped:
        clamp_targets(state, g.labels, g.mask("train"))
    if scatter:
        for k in range(1, len(dims)):
            noise = rng.normal(scale=0.3, size=state.h[k].shape)
            if k == len(dims) - 1 and clamped:
                noise[state.output_mask] = 0.0
            state.h[k] = state.h[k] + noise
        for k, h in enumerate(state.h_agg):
            state.h_agg[k] = h + rng.normal(scale=0.3, size=h.shape)
    if kinked:
        for k in range(1, len(dims) - 1):
            state.h[k] = np.zeros_like(state.h[k])
    pc_predictions(adj, state, params)
    return adj, state, params


def scaffold(state):
    """A state sharing ``state``'s input, aggregates, output mask and
    aggregated-state values; the caller sets the value nodes it probes, and
    pc_predictions forms the rest."""
    return PCState(h=list(state.h), agg=list(state.agg), mu=list(state.mu),
                   eps=list(state.eps), mode=state.mode,
                   output_mask=state.output_mask, h_agg=list(state.h_agg))


def energy_at(adj, state, params, h_free, agg_free=None):
    """Energy as a function of the free value nodes (for finite differences)."""
    trial = scaffold(state)
    K = len(params.weights)
    for k in range(1, K + 1):
        trial.h[k] = h_free[k - 1].copy()
    trial.h[K][state.output_mask] = state.h[K][state.output_mask]
    if agg_free is not None:
        for k in range(K):
            trial.h_agg[k] = agg_free[k].copy()
    pc_predictions(adj, trial, params)
    return compute_energy(trial)


def numeric_value_gradients(adj, state, params, step=1e-5):
    """Central differences of the energy w.r.t. every free value node."""
    K = len(params.weights)
    h0 = [state.h[k].copy() for k in range(1, K + 1)]
    agg0 = [h.copy() for h in state.h_agg] or None
    grads_h = [np.zeros_like(h) for h in h0]
    for k in range(K):
        for idx in np.ndindex(*h0[k].shape):
            if k == K - 1 and state.output_mask[idx[0]]:
                continue
            hp = [h.copy() for h in h0]
            hp[k][idx] += step
            hm = [h.copy() for h in h0]
            hm[k][idx] -= step
            grads_h[k][idx] = (energy_at(adj, state, params, hp, agg0)
                               - energy_at(adj, state, params, hm, agg0)) \
                / (2 * step)
    grads_agg = None
    if agg0 is not None:
        grads_agg = [np.zeros_like(h) for h in agg0]
        for k in range(K):
            for idx in np.ndindex(*agg0[k].shape):
                ap = [h.copy() for h in agg0]
                ap[k][idx] += step
                am = [h.copy() for h in agg0]
                am[k][idx] -= step
                grads_agg[k][idx] = (energy_at(adj, state, params, h0, ap)
                                     - energy_at(adj, state, params, h0, am))\
                    / (2 * step)
    return grads_h, grads_agg


class TestPredictionsAndInit:
    def test_feedforward_state_has_zero_errors_and_energy(self, rng):
        g = random_graph(rng, 6)
        params = init_params([3, 4, 2], rng)
        state = feedforward_state(g, params)
        for eps in state.eps:
            assert np.array_equal(eps, np.zeros_like(eps))
        assert compute_energy(state) == 0.0

    def test_one_node_chain_predictions(self):
        adj, state, params = one_node_chain()
        assert state.mu[0][0, 0] == 1.0
        assert state.mu[1][0, 0] == 1.0

    @pytest.mark.parametrize("mode", ["inter_layer", "intra_layer"])
    def test_feedforward_output_equals_bp_logits_exactly(self, rng, mode):
        # training evaluates and predict scores PC weights by gcn_forward
        g = random_graph(rng, 7)
        params = init_params([3, 5, 2], rng)
        adj = g.adj
        state = feedforward_state(g, params, mode)
        logits = gcn_forward(g, params).logits
        assert np.array_equal(state.h[-1], logits)

    def test_intra_init_reduces_to_inter_predictions(self, rng):
        g = random_graph(rng, 6)
        params = init_params([3, 4, 2], rng)
        adj = g.adj
        cache = gcn_forward(g, params)
        inter = pc_init_feedforward(cache, params, "inter_layer")
        intra = pc_init_feedforward(cache, params, "intra_layer",
                                    propagate(adj, g.features))
        for a, b in zip(inter.mu, intra.mu):
            assert np.allclose(a, b, atol=1e-15)
        for eps in intra.eps_agg:
            assert np.array_equal(eps, np.zeros_like(eps))


class TestClampAndEnergy:
    def test_clamped_row_error_is_onehot_minus_mu(self, rng):
        g = random_graph(rng, 6, num_classes=3)
        params = init_params([3, 4, 3], rng)
        adj = g.adj
        state = feedforward_state(g, params)
        mu_before = state.mu[-1].copy()
        clamp_targets(state, g.labels, g.mask("train"))
        row = np.flatnonzero(g.mask("train"))[0]
        onehot = np.zeros(3)
        onehot[g.labels[row]] = 1.0
        assert np.allclose(state.eps[-1][row], onehot - mu_before[row],
                           atol=1e-15)

    def test_unclamped_output_rows_do_not_count(self, rng):
        g = random_graph(rng, 6, num_classes=3)
        params = init_params([3, 4, 3], rng)
        adj = g.adj
        state = feedforward_state(g, params)
        clamp_targets(state, g.labels, g.mask("train"))
        base = compute_energy(state)
        free = ~state.output_mask
        state.h[-1][free] += 10.0
        pc_predictions(adj, state, params)
        assert compute_energy(state) == base

    def test_one_node_chain_energy(self):
        _, state, _ = one_node_chain()
        assert state.eps[-1][0, 0] == 1.0
        assert compute_energy(state) == 0.5

    def test_single_layer_example(self):
        g = make_graph(1, [[0.0, 0.0]], [0], ["none"], [], num_classes=1)
        params = ModelParams([np.zeros((2, 2))])
        state = feedforward_state(g, params)
        state.eps[0] = np.array([[1.0, -1.0]])
        assert compute_energy(state) == 1.0


class TestInferenceStep:
    def test_zero_error_state_is_fixed_point(self, rng):
        g = random_graph(rng, 5)
        params = init_params([3, 4, 2], rng)
        adj = g.adj
        state = feedforward_state(g, params)
        before = [h.copy() for h in state.h]
        inference_step(adj, state, params, 0.1)
        for a, b in zip(before, state.h):
            assert np.array_equal(a, b)

    def test_one_node_chain_half_step(self):
        adj, state, params = one_node_chain()
        inference_step(adj, state, params, 0.5)
        assert abs(state.h[1][0, 0] - 1.5) <= 1e-15
        assert abs(compute_energy(state) - 0.25) <= 1e-15

    def test_one_node_chain_converges_to_quadratic_minimum(self):
        adj, state, params = one_node_chain()
        for _ in range(200):
            inference_step(adj, state, params, 0.5)
        assert abs(state.h[1][0, 0] - 1.5) <= 1e-6

    def test_clamped_rows_never_move(self, rng):
        adj, state, params = clamped_random_state(0)
        clamped = state.h[-1][state.output_mask].copy()
        for _ in range(5):
            inference_step(adj, state, params, 0.1)
        assert np.array_equal(state.h[-1][state.output_mask], clamped)

    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(0, 10_000))
    def test_update_direction_matches_energy_gradient(self, seed):
        adj, state, params = clamped_random_state(seed)
        before = [state.h[k].copy() for k in range(1, 3)]
        gamma = 0.05
        numeric_h, _ = numeric_value_gradients(adj, state, params)
        inference_step(adj, state, params, gamma)
        for k in range(2):
            applied = state.h[k + 1] - before[k]
            assert relative_error(applied, -gamma * numeric_h[k]) <= 1e-4

    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(0, 10_000),
           gamma=st.sampled_from([0.05, 0.1]))
    def test_energy_descends_off_activation_kinks(self, seed, gamma):
        # A full step that carries a hidden unit across zero can overshoot
        # into the next quadratic piece; the guarded step halves its rate
        # instead, so no step may raise the energy, crossing or not.
        adj, state, params = clamped_random_state(seed, n=6, scatter=False)
        start = compute_energy(state)
        energy = start
        for _ in range(50):
            inference_step(adj, state, params, gamma)
            nxt = compute_energy(state)
            assert nxt <= energy + 1e-9
            energy = nxt
        assert energy <= start + 1e-9

    def test_rate_past_stability_bound_raises(self):
        # E(h1) = 0.25 + (h1 - 1.5)^2 on the chain has curvature 2, so rates
        # above 1 are unstable; from h1 = 1 a rate of 3 lands at h1 = 4 and
        # raises E from 0.5 to 6.5, more than double.
        adj, state, params = one_node_chain()
        with pytest.raises(FloatingPointError, match="diverges"):
            inference_step(adj, state, params, 3.0)

    def test_step_that_only_rises_moves_nothing(self):
        # At h1 = 0 the subgradient ignores the output error, but any move
        # up switches the unit on and E(h1) = 2.5 + h1 + h1^2 rises at
        # every rate, so every halving is rejected and the step is zero.
        adj, state, params = one_node_chain(target=-2.0)
        state.h[1][0, 0] = 0.0
        pc_predictions(adj, state, params)
        inference_step(adj, state, params, 0.5)
        assert state.h[1][0, 0] == 0.0
        assert compute_energy(state) == 2.5


class TestIntraLayerStep:
    @settings(deadline=None, max_examples=8)
    @given(seed=st.integers(0, 10_000))
    def test_update_direction_matches_extended_energy_gradient(self, seed):
        adj, state, params = clamped_random_state(seed, mode="intra_layer")
        before_h = [state.h[k].copy() for k in range(1, 3)]
        before_agg = [h.copy() for h in state.h_agg]
        gamma = 0.05
        numeric_h, numeric_agg = numeric_value_gradients(adj, state, params)
        inference_step(adj, state, params, gamma)
        for k in range(2):
            assert relative_error(state.h[k + 1] - before_h[k],
                                  -gamma * numeric_h[k]) <= 1e-4
            assert relative_error(state.h_agg[k] - before_agg[k],
                                  -gamma * numeric_agg[k]) <= 1e-4

    @settings(deadline=None, max_examples=8)
    @given(seed=st.integers(0, 10_000))
    def test_extended_energy_descends_off_activation_kinks(self, seed):
        adj, state, params = clamped_random_state(seed, mode="intra_layer",
                                                  scatter=False)
        start = compute_energy(state)
        energy = start
        for _ in range(50):
            inference_step(adj, state, params, 0.05)
            nxt = compute_energy(state)
            assert nxt <= energy + 1e-9
            energy = nxt
        assert energy <= start + 1e-9


class TestStepMatchesReference:
    # pinned: a zero step, a halved step in each mode, and a divergence
    @settings(deadline=None, max_examples=60)
    @example(seed=1, mode="inter_layer", clamped=True, hidden=(4,),
             gamma=0.05, kinked=True)
    @example(seed=2, mode="inter_layer", clamped=True, hidden=(4,),
             gamma=0.5, kinked=True)
    @example(seed=6, mode="intra_layer", clamped=True, hidden=(4, 3),
             gamma=0.5, kinked=False)
    @example(seed=0, mode="intra_layer", clamped=True, hidden=(4, 3),
             gamma=1.0, kinked=False)
    @given(seed=st.integers(0, 10_000),
           mode=st.sampled_from(["inter_layer", "intra_layer"]),
           clamped=st.booleans(),
           hidden=st.sampled_from([(), (4,), (4, 3)]),
           gamma=st.sampled_from([0.05, 0.5, 1.0, 3.0]),
           kinked=st.booleans())
    def test_bit_identical_to_per_mode_reference(self, seed, mode, clamped,
                                                 hidden, gamma, kinked):
        """The one step for both modes moves, predicts and raises exactly as
        the per-mode steps it replaces, halvings and zero steps included."""
        adj, state, params = clamped_random_state(
            seed, mode=mode, n=6, dims=(3, *hidden, 2), clamped=clamped,
            kinked=kinked)
        expected = copy.deepcopy(state)
        outcomes = []
        for step, target in ((inference_step, state),
                             (reference_inference_step, expected)):
            try:
                step(adj, target, params, gamma)
                outcomes.append(None)
            except FloatingPointError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        if outcomes[0] is not None:
            return
        for name in ("h", "h_agg", "agg", "mu", "eps", "eps_agg"):
            got, want = getattr(state, name), getattr(expected, name)
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), name


class TestZeroStep:
    @pytest.mark.parametrize("mode", ["inter_layer", "intra_layer"])
    def test_predictions_are_those_of_the_start_values(self, mode):
        """After MAX_HALVINGS rises the step moves nothing, and every
        prediction, mu^(1) included, is formed from the start values again,
        not left from the last trial."""
        adj, state, params = clamped_random_state(3, mode=mode,
                                                  dims=(3, 4, 2))
        expected = copy.deepcopy(state)
        # the step's energies: the start's, then one per trial
        energies = iter([1.0] + [1.5] * (MAX_HALVINGS + 1))
        with mock.patch("gpcn.pc._energy", lambda _: next(energies)):
            inference_step(adj, state, params, 0.5)
        for name in ("h", "h_agg", "agg", "mu", "eps", "eps_agg"):
            got, want = getattr(state, name), getattr(expected, name)
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), name


class TestWeightGradients:
    def test_zero_errors_zero_gradients(self, rng):
        g = random_graph(rng, 5)
        params = init_params([3, 4, 2], rng)
        adj = g.adj
        state = feedforward_state(g, params)
        for gr in pc_weight_gradients(adj, state):
            assert np.array_equal(gr, np.zeros_like(gr))

    def test_one_node_chain_output_gradient(self):
        adj, state, params = one_node_chain()
        grads = pc_weight_gradients(adj, state)
        # -f(h1) * eps2 with h1 = 1 and eps2 = 1
        assert grads[1][0, 0] == -1.0

    @settings(deadline=None, max_examples=8)
    @given(seed=st.integers(0, 10_000),
           mode=st.sampled_from(["inter_layer", "intra_layer"]))
    def test_matches_finite_differences(self, seed, mode):
        adj, state, params = clamped_random_state(seed, mode=mode)
        grads = pc_weight_gradients(adj, state)
        step = 1e-5
        for k in range(params.num_layers):
            fd = np.zeros_like(params.weights[k])
            for idx in np.ndindex(*fd.shape):
                for sign in (1, -1):
                    trial = params.copy()
                    trial.weights[k][idx] += sign * step
                    probe = scaffold(state)
                    for j in range(1, params.num_layers + 1):
                        probe.h[j] = state.h[j].copy()
                    for j, h in enumerate(state.h_agg):
                        probe.h_agg[j] = h.copy()
                    pc_predictions(adj, probe, trial)
                    fd[idx] += sign * compute_energy(probe) / (2 * step)
            assert relative_error(grads[k], fd) <= 1e-4


def assert_matches_reference(adj, state, params):
    """State and energy equal the recomputing oracle bit for bit."""
    agg, mu, eps, eps_agg = reference_pc_predictions(
        adj, params, state.h, state.h_agg, state.mode)
    K = params.num_layers
    assert all(np.array_equal(a, b) for a, b in zip(state.agg, agg))
    assert all(np.array_equal(a, b) for a, b in zip(state.mu, mu))
    assert all(np.array_equal(state.eps[k - 1],
                              reference_effective_eps(eps, state.output_mask,
                                                      k))
               for k in range(1, K + 1))
    assert len(state.eps_agg) == len(eps_agg)
    assert all(np.array_equal(a, b) for a, b in zip(state.eps_agg, eps_agg))
    energy = reference_energy(eps, eps_agg, state.output_mask)
    assert compute_energy(state) == energy


class TestCachedStateMatchesReference:
    @pytest.mark.parametrize("mode", ["inter_layer", "intra_layer"])
    @pytest.mark.parametrize("timing", ["end_of_T", "every_step"])
    def test_every_step_bit_identical(self, mode, timing):
        # three epochs of train_pc's loop on a net with two hidden layers:
        # after every guarded step and weight update, the state built from
        # the forward cache equals the one that re-forms every aggregate
        rng = np.random.default_rng(11)
        g = random_graph(rng, 12, num_features=5, num_classes=3)
        params = init_params([5, 4, 4, 3], rng)
        adj = g.adj
        opt = AdamState.for_params(params, 0.01)
        # train_pc's A_hat X, formed once for every epoch
        ax = propagate(adj, g.features) if mode == "intra_layer" else None

        def update():
            grads = pc_weight_gradients(adj, state)
            expected = reference_pc_weight_gradients(
                adj, params, state.h, state.h_agg, mode, state.output_mask)
            assert all(np.array_equal(a, b) for a, b in zip(grads, expected))
            adam_step(params, grads, opt)
            # as train_pc does: the values, and so the aggregates, are
            # those of the last inference trial
            gpcn.pc._predict(adj, state, params)
            assert_matches_reference(adj, state, params)

        for _ in range(3):
            cache = gcn_forward(g, params)
            state = pc_init_feedforward(cache, params, mode, ax)
            assert_matches_reference(adj, state, params)
            clamp_targets(state, g.labels, g.mask("train"))
            assert_matches_reference(adj, state, params)
            for _ in range(6):
                inference_step(adj, state, params, 0.5)
                assert_matches_reference(adj, state, params)
                if timing == "every_step":
                    update()
            if timing == "end_of_T":
                update()


class TestCarriedEnergy:
    @pytest.mark.parametrize("mode", ["inter_layer", "intra_layer"])
    @pytest.mark.parametrize("timing", ["end_of_T", "every_step"])
    def test_carried_terms_equal_fresh_sums(self, mode, timing):
        """``train_pc`` carries the energy's terms through its loop: the
        terms every inference step starts from (after the step before it,
        or after a weight update) and those it returns, and every epoch's
        energy, equal ``compute_energy``'s sums over the state, bit for
        bit."""
        rng = np.random.default_rng(5)
        g = random_graph(rng, 12, num_features=5, num_classes=3)
        step, init = gpcn.pc.inference_step, gpcn.pc.pc_init_feedforward
        states, steps = [], []

        def checking_step(adj, state, params, gamma, terms):
            assert terms == gpcn.pc._energy_terms(state)
            out = step(adj, state, params, gamma, terms)
            assert out == gpcn.pc._energy_terms(state)
            steps.append(out)
            return out

        def recording_init(*args):
            states.append(init(*args))
            return states[-1]

        config = PCConfig(epochs=4, seed=0, inference_steps=5,
                          hidden_dims=(4, 4), weight_lr=0.05,
                          value_update_rate=0.5, mode=mode,
                          weight_update_timing=timing)
        with mock.patch("gpcn.pc.inference_step", checking_step), \
                mock.patch("gpcn.pc.pc_init_feedforward", recording_init):
            _, history = train_pc(g, config)
        assert len(steps) == 20 and len(states) == 4
        assert history.energy == [compute_energy(s) for s in states]


class TestTraining:
    def test_sbm_fixture_reaches_95(self, sbm_easy):
        params, history = train_pc(sbm_easy, PCConfig(epochs=150, seed=0))
        assert history.test_acc[history.selected_epoch] >= 0.95

    def test_history_records_energy_per_epoch(self, sbm_easy):
        _, history = train_pc(sbm_easy, PCConfig(epochs=10, seed=0))
        assert len(history.energy) == 10
        assert all(e >= 0 for e in history.energy)

    def test_determinism(self, sbm_easy):
        _, h1 = train_pc(sbm_easy, PCConfig(epochs=8, seed=2))
        _, h2 = train_pc(sbm_easy, PCConfig(epochs=8, seed=2))
        assert h1.energy == h2.energy
        assert h1.val_acc == h2.val_acc

    def test_every_step_timing_trains(self, sbm_easy):
        cfg = PCConfig(epochs=30, seed=0, weight_update_timing="every_step")
        _, history = train_pc(sbm_easy, cfg)
        assert history.test_acc[history.selected_epoch] >= 0.95

    def test_intra_layer_mode_trains(self, sbm_easy):
        cfg = PCConfig(epochs=150, seed=0, mode="intra_layer")
        _, history = train_pc(sbm_easy, cfg)
        assert history.test_acc[history.selected_epoch] >= 0.9

    def test_config_validation(self):
        with pytest.raises(ValueError, match="epochs"):
            PCConfig(epochs=0)
        with pytest.raises(ValueError):
            PCConfig(inference_steps=0)
        with pytest.raises(ValueError):
            PCConfig(weight_update_timing="sometimes")
        with pytest.raises(ValueError):
            PCConfig(mode="sideways")


class TestPredict:
    def test_rows_sum_to_one(self, sbm_easy):
        params, _ = train_pc(sbm_easy, PCConfig(epochs=5, seed=0))
        probs = predict(sbm_easy, params)
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12

    def test_equals_bp_predict_exactly(self, sbm_easy):
        # the accuracies recorded for the selected epoch are those that
        # predict gives the returned snapshot
        cfg = PCConfig(epochs=10, seed=1, mode="intra_layer")
        params, history = train_pc(sbm_easy, cfg)
        probs = predict(sbm_easy, params)
        sel = history.selected_epoch
        for tag, recorded in (("train", history.train_acc),
                              ("val", history.val_acc),
                              ("test", history.test_acc)):
            assert accuracy(probs, sbm_easy.labels,
                            sbm_easy.mask(tag)) == recorded[sel]
