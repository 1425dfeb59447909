"""Attack generation and robustness protocols: victim selection, random
poisoning, gradient attacks, and the evasion/poisoning evaluation loop."""

import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gpcn.attacks
from gpcn.graph import (EdgeEdit, Graph, SyntheticSpec, apply_edits,
                        generate_synthetic, make_graph, normalize_adjacency)
from gpcn.nn import ModelParams, init_params, softmax_rows
from gpcn.bp import gcn_forward, predict
from gpcn.calibration import classification_margins
from gpcn.attacks import (AttackSpec, check_attack, evaluate_attack,
                          fga_attack, holistic_metric, random_global_poison,
                          select_victims)

from conftest import (adjacency, dense_adjacency, graphs_and_adj_equal,
                      graphs_equal, has_edge, local_gradients,
                      margin_shift_export, random_graph,
                      reference_evasion_margins,
                      reference_fga_attack,
                      reference_loss_gradient_wrt_inputs,
                      reference_prefix_graph, reference_random_global_poison)


class FixedParamsTrain:
    """A ``train`` stub for ``evaluate_attack``: returns preset params and
    records the graphs it is called on."""

    def __init__(self, params):
        self.params = params
        self.graphs = []

    @property
    def train_calls(self):
        return len(self.graphs)

    def __call__(self, graph):
        self.graphs.append(graph)
        return self.params


def trained_instance(seed, n=12):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n, num_features=4, num_classes=3, edge_prob=0.35)
    params = init_params([4, 5, 3], rng)
    return g, params


def attack(params, g, victim, spec):
    """The edit list of ``fga_attack`` from ``g``'s own forward pass."""
    return [step.edit for step in fga_attack(params, g, victim, spec,
                                             gcn_forward(g, params))]


def assert_restored(graph, before):
    """``graph`` and its A_hat hold the bits of its deep copy ``before``."""
    assert graphs_and_adj_equal(graph, before)


def assert_valid_graph(g: Graph):
    adj = normalize_adjacency(g)
    assert (adj != adj.T).nnz == 0
    assert np.all(g.edges[:, 0] < g.edges[:, 1])
    assert np.unique(g.edges, axis=0).shape[0] == g.num_edges


class TestSelectVictims:
    def test_nettack_style_exhausts_small_pool(self, rng):
        g = random_graph(rng, 40)
        # every node is a test node except the mandatory train/val rows
        probs = softmax_rows(rng.normal(size=(40, 2)))
        victims = select_victims(g, probs, "nettack_style", 0)
        test_count = int(g.mask("test").sum())
        assert victims.dtype == np.int64
        assert victims.size == min(40, test_count)
        assert np.unique(victims).size == victims.size

    def test_deterministic_given_seed(self, rng):
        g = random_graph(rng, 30)
        probs = softmax_rows(rng.normal(size=(30, 2)))
        a = select_victims(g, probs, "nettack_style", 5)
        b = select_victims(g, probs, "nettack_style", 5)
        assert np.array_equal(a, b)

    def test_high_margin_subset_dominates(self, rng):
        g = random_graph(rng, 60)
        probs = softmax_rows(rng.normal(size=(60, 2)))
        victims = select_victims(g, probs, "nettack_style", 1)
        recs = {r.node: r.margin for r in classification_margins(
            probs, g.labels, g.mask("test"))}
        high = set(victims[:10].tolist())
        assert len(high) == 10
        assert (min(recs[n] for n in high)
                >= max(m for n, m in recs.items() if n not in high) - 1e-12)

    def test_low_margin_block_follows_high(self, rng):
        """After the first ten come up to ten lowest-margin correctly
        classified test nodes outside them, in ascending margin."""
        g = random_graph(rng, 60)
        probs = softmax_rows(rng.normal(size=(60, 2)))
        victims = select_victims(g, probs, "nettack_style", 1).tolist()
        recs = {r.node: r for r in classification_margins(
            probs, g.labels, g.mask("test"))}
        rest = sorted((r for n, r in recs.items()
                       if r.correct and n not in victims[:10]),
                      key=lambda r: r.margin)
        low = [r.node for r in rest[:10]]
        assert victims[10:10 + len(low)] == low

    def test_random_1000_draws_from_val_and_test(self, rng):
        g = random_graph(rng, 25)
        probs = softmax_rows(rng.normal(size=(25, 2)))
        victims = select_victims(g, probs, "random_1000", 3)
        pool = g.mask("val") | g.mask("test")
        assert pool[victims].all()
        assert victims.size == int(pool.sum())   # fewer than 1000 available
        assert np.array_equal(victims, np.sort(victims))


class TestRandomGlobalPoison:
    def test_rate_zero_identity(self, rng):
        g = random_graph(rng, 10)
        assert random_global_poison(g, 0.0, 0) is g

    def test_edge_count_contract(self, rng):
        g = random_graph(rng, 20, edge_prob=0.2)
        before = {(int(u), int(v)) for u, v in g.edges}
        out = random_global_poison(g, 1.0, 0)
        after = {(int(u), int(v)) for u, v in out.edges}
        assert len(after) == 2 * len(before)
        assert before <= after
        assert_valid_graph(out)

    def test_deterministic(self, rng):
        g = random_graph(rng, 15)
        a = random_global_poison(g, 0.5, 4)
        b = random_global_poison(g, 0.5, 4)
        assert np.array_equal(a.edges, b.edges)

    def test_not_enough_absent_pairs(self):
        g = make_graph(3, np.zeros((3, 1)), [0] * 3, ["none"] * 3,
                       [[0, 1], [1, 2], [0, 2]], num_classes=1)
        with pytest.raises(ValueError, match="absent"):
            random_global_poison(g, 1.0, 0)

    @pytest.mark.parametrize("rate", [0.0, 0.25, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_edit_oracle(self, rate, seed):
        """The drawn pairs merged into the edge keys give the graph their
        one-at-a-time insertion gives, on the same random stream."""
        g = random_graph(np.random.default_rng(seed), 30, edge_prob=0.15)
        assert graphs_equal(random_global_poison(g, rate, seed),
                            reference_random_global_poison(g, rate, seed))


class TestLossGradient:
    def test_ignored_feature_has_zero_gradient(self, rng):
        g, params = trained_instance(0)
        params.weights[0][2, :] = 0.0     # model never reads feature 2
        _, _, grad_x = local_gradients(params, g, target_node=1)
        assert np.allclose(grad_x[:, 2], 0.0, atol=1e-15)

    def test_gradients_symmetric_and_zero_diagonal(self):
        g, params = trained_instance(1)
        _, grad_adj, _ = local_gradients(params, g, target_node=0)
        assert np.array_equal(grad_adj, grad_adj.T)
        assert np.array_equal(np.diag(grad_adj), np.zeros(g.num_nodes))

    def test_deterministic(self):
        g, params = trained_instance(2)
        a = local_gradients(params, g, 3)
        b = local_gradients(params, g, 3)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    @settings(deadline=None, max_examples=10)
    @given(seed=st.integers(0, 10_000))
    def test_matches_frozen_normalization_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, 5, num_features=3, num_classes=2)
        params = init_params([3, 4, 2], rng)
        victim = 2
        _, grad_adj, grad_x = local_gradients(params, g, victim)

        deg = np.asarray(adjacency(g).sum(axis=1)).ravel() + 1.0
        base = dense_adjacency(normalize_adjacency(g))
        label = g.labels[victim]

        def loss_with(norm_adj, x):
            h = np.asarray(x, dtype=np.float64)
            K = len(params.weights)
            for k, w in enumerate(params.weights, start=1):
                z = norm_adj @ h @ w
                h = z if k == K else np.maximum(z, 0.0)
            p = softmax_rows(h[victim:victim + 1])
            return float(-np.log(p[0, label]))

        step = 1e-5
        for u, v in [(0, 1), (1, 3), (2, 4)]:
            coeff = 1.0 / np.sqrt(deg[u] * deg[v])
            fd = 0.0
            for sign in (1, -1):
                m = base.copy()
                m[u, v] += sign * step * coeff
                m[v, u] += sign * step * coeff
                fd += sign * loss_with(m, g.features) / (2 * step)
            assert grad_adj[u, v] == pytest.approx(fd, rel=1e-3, abs=1e-9)

        fd_x = 0.0
        for sign in (1, -1):
            x = g.features.copy()
            x[3, 1] += sign * step
            fd_x += sign * loss_with(base, x) / (2 * step)
        assert grad_x[3, 1] == pytest.approx(fd_x, rel=1e-3, abs=1e-9)


class TestFgaAttack:
    def test_budget_contract_and_legality(self):
        g, params = trained_instance(3, n=15)
        spec = AttackSpec(kind="fga_structure", mode="evasion", budget=4)
        edits = attack(params, g, 0, spec)
        assert len(edits) <= 4
        current = g
        for e in edits:
            current = apply_edits(current, [e])   # raises if illegal
        assert_valid_graph(current)

    def test_zero_weight_model_yields_no_edits(self):
        g, params = trained_instance(4)
        zero = ModelParams([np.zeros_like(w) for w in params.weights])
        spec = AttackSpec(kind="fga_structure", mode="evasion", budget=3)
        assert attack(zero, g, 1, spec) == []

    def test_indirect_edits_avoid_victim(self):
        g, params = trained_instance(5, n=15)
        spec = AttackSpec(kind="fga_indirect", mode="evasion", budget=4,
                          influencer_count=3)
        for e in attack(params, g, 2, spec):
            assert 2 not in (e.u, e.v)

    def test_feature_attack_requires_binary_features(self):
        """The walk takes the features as they are: ``evaluate_attack``
        refuses non-binary ones through ``check_attack``, before any walk
        or retrain."""
        g, params = trained_instance(6)
        for kind in ("fga_feature", "fga_both"):
            train = FixedParamsTrain(params)
            spec = AttackSpec(kind=kind, mode="poisoning")
            with pytest.raises(ValueError,
                               match="feature attacks require binary"):
                evaluate_attack(train, g, params, np.arange(3), spec, [1])
            assert train.graphs == []

    def test_feature_attack_flips_binary_features(self, rng):
        g0 = random_graph(rng, 10, num_features=4, num_classes=2)
        g = make_graph(10, (g0.features > 0).astype(float), g0.labels,
                       g0.split, g0.edges, num_classes=2)
        params = init_params([4, 5, 2], rng)
        spec = AttackSpec(kind="fga_feature", mode="evasion", budget=3)
        edits = attack(params, g, 1, spec)
        assert all(e.kind == "feature_flip" for e in edits)

    def test_feature_scores_take_one_array(self):
        # Forming grad_x takes two n x d arrays (X-sized), and the scores
        # grad_x * (1 - 2x) one more besides grad_x; forming 1 - 2x apart
        # from 2x would take two more, three in all.
        g0 = generate_synthetic(SyntheticSpec(
            num_blocks=2, nodes_per_block=500, intra_block_edge_prob=0.01,
            inter_block_edge_prob=0.001, feature_dim=512,
            feature_noise_std=0.5), seed=0)
        g = make_graph(g0.num_nodes, (g0.features > 0.5).astype(float),
                       g0.labels, g0.split, g0.edges, num_classes=2)
        params = init_params([512, 16, 2], np.random.default_rng(0))
        cache = gcn_forward(g, params)
        spec = AttackSpec(kind="fga_feature", budget=1)
        tracemalloc.start()
        try:
            edit = gpcn.attacks._best_edit(params, g, cache, 0, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert edit is not None and edit.kind == "feature_flip"
        assert peak < 2.5 * g.features.nbytes

    def test_attack_raises_victim_loss(self):
        g, params = trained_instance(7, n=15)
        spec = AttackSpec(kind="fga_structure", mode="evasion", budget=2)
        victim = 0
        edits = attack(params, g, victim, spec)
        if not edits:
            pytest.skip("no loss-increasing move on this instance")

        def victim_loss(graph):
            probs = predict(graph, params)
            return -np.log(probs[victim, g.labels[victim]])

        assert victim_loss(apply_edits(g, edits)) > victim_loss(g)


GRAPH_SHAPES = ("random", "no_edges", "isolated_victim", "one_neighbour",
                "near_complete")
TARGETED_KINDS = ("fga_structure", "fga_feature", "fga_both", "fga_indirect")


def shaped_instance(seed, shape, n, hidden_layers, binary):
    """A random or degenerate graph around victim 0 and an untrained model
    with ``hidden_layers`` hidden layers."""
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    if shape == "near_complete":
        keep = rng.random(iu.size) < 0.9
    elif shape == "no_edges":
        keep = np.zeros(iu.size, dtype=bool)
    else:
        keep = rng.random(iu.size) < 0.35
    if shape in ("isolated_victim", "one_neighbour"):
        keep &= iu != 0
    if shape == "one_neighbour":
        keep |= (iu == 0) & (iv == 1)
    num_features = 4
    features = rng.normal(size=(n, num_features))
    if binary:
        features = (features > 0).astype(float)
    split = np.full(n, "test", dtype="U5")
    split[: n // 2] = "train"
    g = make_graph(n, features, rng.integers(0, 3, size=n), split,
                   np.stack([iu[keep], iv[keep]], axis=1), num_classes=3)
    params = init_params([num_features, *[5] * hidden_layers, 3], rng)
    return g, params


instances = st.builds(
    lambda seed, shape, n, hidden: (seed, shape, n, hidden),
    st.integers(0, 10_000), st.sampled_from(GRAPH_SHAPES), st.integers(2, 12),
    st.integers(0, 2))


def dense_score(params, graph, victim, edit):
    """Score of ``edit`` on the dense oracle gradient of ``graph``; 0 for
    no edit, the score a move must beat."""
    if edit is None:
        return 0.0
    grad_adj, grad_x = reference_loss_gradient_wrt_inputs(params, graph,
                                                          victim)
    if edit.kind == "feature_flip":
        x = graph.features[edit.u, edit.v]
        return grad_x[edit.u, edit.v] * (1.0 - 2.0 * x)
    return grad_adj[edit.u, edit.v] * (1.0 - 2.0 * has_edge(graph, edit.u,
                                                            edit.v))


def assert_same_edits(params, graph, victim, got, want):
    """Identical edit lists, except that they may part at a step where the
    dense oracle scores both choices equal up to rounding: a tie in exact
    arithmetic (say removing the edge to a node with one active feature
    against flipping that feature off, in a one-layer model), which
    rounding breaks one way in the dense product and maybe the other way
    in its row subset."""
    for step in range(max(len(got), len(want))):
        a = got[step] if step < len(got) else None
        b = want[step] if step < len(want) else None
        if a != b:
            assert dense_score(params, graph, victim, a) == pytest.approx(
                dense_score(params, graph, victim, b), rel=1e-12, abs=1e-15)
            return
        graph = apply_edits(graph, [a])


class TestLocalPathMatchesDense:
    """The local gradient and scoring against the dense n x n oracle kept
    in conftest."""

    @settings(deadline=None, max_examples=300)
    @given(instance=instances, kind=st.sampled_from(TARGETED_KINDS),
           budget=st.integers(1, 3), influencers=st.integers(1, 3))
    # one influencer of several: the ranking by gradient strength, which
    # reads both the stored rows and the transpose part, decides the edit
    @example(instance=(0, "random", 10, 1), kind="fga_indirect", budget=1,
             influencers=1)
    def test_identical_edit_lists(self, instance, kind, budget, influencers):
        seed, shape, n, hidden = instance
        g, params = shaped_instance(seed, shape, n, hidden,
                                    binary=kind in ("fga_feature", "fga_both"))
        spec = AttackSpec(kind=kind, budget=budget,
                          influencer_count=influencers)
        assert_same_edits(params, g, 0, attack(params, g, 0, spec),
                          reference_fga_attack(params, g, 0, spec))

    def test_tie_across_rows_goes_to_smallest_pair(self):
        """Victim 0 with neighbours 3 and 4, pendants 1 on 3 and 5 on 4,
        and twin features (x3 = x4, x1 = x5): the mirror 3 <-> 4, 1 <-> 5
        makes adding (3, 5) and adding (1, 4) tie exactly. The gradient
        holds (3, 5) in an earlier row than (1, 4), yet the smaller pair
        (1, 4) must win, as in the dense scan. Seed 2 is one where the
        tie holds the top score."""
        rng = np.random.default_rng(2)
        x = rng.normal(size=(8, 4))
        x[4], x[5] = x[3], x[1]
        split = np.array(["train"] * 4 + ["test"] * 4)
        g = make_graph(8, x, rng.integers(0, 3, size=8), split,
                       [[0, 3], [0, 4], [1, 3], [4, 5]], num_classes=3)
        params = init_params([4, 5, 3], rng)
        grad_adj, _ = reference_loss_gradient_wrt_inputs(params, g, 0)
        assert grad_adj[1, 4] == grad_adj[3, 5] == grad_adj.max()
        spec = AttackSpec(kind="fga_structure", budget=1)
        assert attack(params, g, 0, spec) == [EdgeEdit("add", 1, 4)]

    @settings(deadline=None, max_examples=100)
    @given(instance=instances)
    def test_gradient_rows_match_dense(self, instance):
        seed, shape, n, hidden = instance
        g, params = shaped_instance(seed, shape, n, hidden, binary=False)
        rows, local, grad_x = local_gradients(params, g, 0)
        dense, dense_x = reference_loss_gradient_wrt_inputs(params, g, 0)

        # a row subset of a matrix product may round differently from the
        # full product, so entries agree to rounding of the largest one
        scale = np.abs(dense).max()
        assert np.allclose(local[rows], dense[rows], rtol=1e-12,
                           atol=1e-12 * scale)
        off = np.ones(n, dtype=bool)
        off[rows] = False
        assert np.all(dense[np.ix_(off, off)] == 0.0)
        assert np.array_equal(grad_x, dense_x)
        # rows lie in the victim's (K-1)-hop ball
        reach = np.zeros(n, dtype=bool)
        reach[0] = True
        for _ in range(hidden):
            reach = reach | (adjacency(g) @ reach > 0)
        assert reach[rows].all()


class TestAttackWalk:
    """The logits of ``fga_attack``'s steps, and the budgets
    ``evaluate_attack`` reads from them, against every prefix rebuilt from
    scratch by the oracle in conftest; and the graph the walk starts from,
    with its A_hat, which every victim shares and which must come back bit
    for bit."""

    @settings(deadline=None, max_examples=60)
    @given(instance=instances, kind=st.sampled_from(TARGETED_KINDS),
           budget=st.integers(1, 3))
    def test_steps_match_rebuilt_prefixes(self, instance, kind, budget):
        seed, shape, n, hidden = instance
        g, params = shaped_instance(seed, shape, n, hidden,
                                    binary=kind in ("fga_feature", "fga_both"))
        clean = gcn_forward(g, params)
        before = copy.deepcopy(g)
        spec = AttackSpec(kind=kind, budget=budget, influencer_count=2)
        steps = fga_attack(params, g, 0, spec, clean)
        assert len(steps) <= budget
        edits = [step.edit for step in steps]
        for q, step in enumerate(steps, start=1):
            want = gcn_forward(reference_prefix_graph(g, edits, q), params)
            assert np.array_equal(step.logits.view(np.int64),
                                  want.logits.view(np.int64))
        assert_restored(g, before)

    # Budget 4 on the 8-node binary random instance: victim 2 takes all
    # four steps, and victim 7 stops early under both kinds.
    @pytest.mark.parametrize("kind", ["fga_structure", "fga_both"])
    @pytest.mark.parametrize("end", ["return", "early_stop", "exception"])
    def test_walk_restores_prepared_graph(self, kind, end, monkeypatch):
        g, params = shaped_instance(0, "random", 8, 1, binary=True)
        clean = gcn_forward(g, params)
        before = copy.deepcopy(g)
        spec = AttackSpec(kind=kind, budget=4)
        victim = 7 if end == "early_stop" else 2
        if end == "exception":
            calls = []

            def failing_forward(*args):
                calls.append(None)
                if len(calls) == 2:
                    raise FloatingPointError("step 2")
                return gcn_forward(*args)

            monkeypatch.setattr(gpcn.attacks, "gcn_forward", failing_forward)
            with pytest.raises(FloatingPointError, match="step 2"):
                fga_attack(params, g, victim, spec, clean)
            assert len(calls) == 2
        else:
            steps = fga_attack(params, g, victim, spec, clean)
            assert (0 < len(steps) < 4) == (end == "early_stop")
        assert_restored(g, before)

    def test_walk_copies_no_aggregate(self):
        # The walk's own arrays are O(n * hidden + |E|), whatever the
        # feature count; one n x d array, such as A_hat X, would take twice
        # the bound.
        g = generate_synthetic(SyntheticSpec(
            num_blocks=2, nodes_per_block=1000, intra_block_edge_prob=0.005,
            inter_block_edge_prob=0.0005, feature_dim=512,
            feature_noise_std=0.5), seed=0)
        params = init_params([512, 16, 2], np.random.default_rng(0))
        clean = gcn_forward(g, params)
        spec = AttackSpec(kind="fga_structure", budget=3)
        tracemalloc.start()
        try:
            steps = fga_attack(params, g, 0, spec, clean)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(steps) == 3
        assert peak < 0.5 * g.features.nbytes

    # Every node of the 8-node instance is a victim at budgets 1..4. In the
    # indirect case victim 0 is isolated, so it has no influencer and the
    # attack takes no step; in both cases other victims stop early too.
    @pytest.mark.parametrize("mode", ["evasion", "poisoning"])
    @pytest.mark.parametrize("kind, seed, shape", [
        ("fga_indirect", 1, "isolated_victim"),
        ("fga_structure", 0, "random")])
    def test_early_stop_reads_last_step(self, kind, seed, shape, mode):
        g, params = shaped_instance(seed, shape, 8, 1, binary=False)
        spec = AttackSpec(kind=kind, mode=mode, budget=4, influencer_count=1)
        budgets = [1, 2, 3, 4]
        train = FixedParamsTrain(params)
        report = evaluate_attack(train, g, params, np.arange(8), spec, budgets)

        per_victim = {v: attack(params, g, v, spec) for v in range(8)}
        lengths = [len(edits) for edits in per_victim.values()]
        assert any(0 < n < 4 for n in lengths)
        if kind == "fga_indirect":
            assert per_victim[0] == []
        assert report.margins_after == reference_evasion_margins(
            params, g, per_victim, budgets)
        if mode == "evasion":
            assert train.graphs == []
        else:
            # one retrain per new step of each walk: budgets past an early
            # stop read the last step, and step 0 is the clean graph
            steps = [sorted({min(q, len(per_victim[v])) for q in budgets}
                            - {0}) for v in range(8)]
            want = [reference_prefix_graph(g, per_victim[v], q)
                    for v in range(8) for q in steps[v]]
            assert len(want) == {"fga_indirect": 17, "fga_structure": 28}[kind]
            assert len(train.graphs) == len(want)
            assert all(map(graphs_and_adj_equal, train.graphs, want))


class TestHolisticMetric:
    def test_all_ones_is_fifteen(self):
        assert holistic_metric({q: 1.0 for q in range(1, 6)}) == 15.0

    def test_rate_budgets_give_none(self):
        assert holistic_metric({0.5: 1.0}) is None


class TestEvaluateAttack:
    def test_rate_zero_equals_clean_accuracy(self):
        g, params = trained_instance(8, n=14)
        train = FixedParamsTrain(params)
        probs = predict(g, params)
        victims = select_victims(g, probs, "random_1000", 0)
        spec = AttackSpec(kind="random_global", mode="evasion")
        report = evaluate_attack(train, g, params, victims, spec, [0])
        clean = np.mean([r.correct for r in report.margins_before])
        assert report.accuracy[0] == pytest.approx(clean)

    def test_evasion_trains_once_poisoning_retrains(self):
        # the clean model is trained once, by the caller that passes params
        g, params = trained_instance(9, n=14)
        probs = predict(g, params)
        victims = select_victims(g, probs, "random_1000", 0)

        ev = FixedParamsTrain(params)
        spec = AttackSpec(kind="random_global", mode="evasion")
        evaluate_attack(ev, g, params, victims, spec, [0.2, 0.5])
        assert ev.train_calls == 0

        po = FixedParamsTrain(params)
        spec = AttackSpec(kind="random_global", mode="poisoning")
        evaluate_attack(po, g, params, victims, spec, [0.2, 0.5])
        assert po.train_calls == 2    # one per rate

    def test_rate_adding_no_edge_is_not_retrained(self):
        """A rate of 0, or one too small to add an edge, leaves the clean
        graph, on which ``params`` were trained: poisoning reads their
        margins and trains only for the rate that adds edges."""
        g, params = trained_instance(9, n=14)
        victims = select_victims(g, predict(g, params), "random_1000", 0)
        train = FixedParamsTrain(params)
        spec = AttackSpec(kind="random_global", mode="poisoning")
        rates = [0.0, 0.5 / g.num_edges, 0.5]
        report = evaluate_attack(train, g, params, victims, spec, rates)
        assert train.train_calls == 1
        assert report.margins_after[0.0] == report.margins_before
        assert report.margins_after[rates[1]] == report.margins_before

    @pytest.mark.parametrize("mode", ["evasion", "poisoning"])
    @pytest.mark.parametrize("kind", ["fga_structure", "fga_both",
                                      "fga_indirect"])
    def test_margins_match_rebuild_and_predict(self, kind, mode):
        """Every victim's margin at every budget equals the margin predicted
        on its perturbed graph rebuilt from scratch."""
        g0, params = trained_instance(15, n=16)
        g = make_graph(g0.num_nodes, (g0.features > 0).astype(float),
                       g0.labels, g0.split, g0.edges,
                       num_classes=g0.num_classes)
        train = FixedParamsTrain(params)
        victims = select_victims(g, predict(g, params), "random_1000", 0)
        spec = AttackSpec(kind=kind, mode=mode, budget=3, influencer_count=2)
        report = evaluate_attack(train, g, params, victims, spec, [1, 2, 3])
        per_victim = {int(v): attack(params, g, int(v), spec)
                      for v in victims}
        assert any(len(e) > 1 for e in per_victim.values())
        want = reference_evasion_margins(params, g, per_victim, [1, 2, 3])
        assert report.margins_after == want

    def test_holistic_equals_recomputation(self):
        g, params = trained_instance(10, n=14)
        train = FixedParamsTrain(params)
        probs = predict(g, params)
        victims = select_victims(g, probs, "random_1000", 0)
        spec = AttackSpec(kind="fga_structure", mode="evasion")
        report = evaluate_attack(train, g, params, victims, spec, [1, 2, 3])
        recomputed = sum(q * report.accuracy[q] for q in [1, 2, 3])
        assert report.holistic == recomputed

    def test_zero_weight_model_accuracy_unchanged(self):
        g, params = trained_instance(11, n=14)
        zero = ModelParams([np.zeros_like(w) for w in params.weights])
        train = FixedParamsTrain(zero)
        probs = predict(g, zero)
        victims = select_victims(g, probs, "random_1000", 0)
        vmask = np.isin(np.arange(g.num_nodes), victims)
        clean = np.mean([r.correct for r in classification_margins(
            probs, g.labels, vmask)])
        for kind, budgets in (("random_global", [0.5]),
                              ("fga_structure", [1, 2])):
            spec = AttackSpec(kind=kind, mode="evasion")
            report = evaluate_attack(train, g, zero, victims, spec, budgets)
            for q in budgets:
                assert report.accuracy[q] == pytest.approx(clean)

    def test_empty_budget_sweep_rejected(self):
        g, params = trained_instance(12)
        train = FixedParamsTrain(params)
        victims = select_victims(g, predict(g, params), "random_1000", 0)
        spec = AttackSpec(kind="random_global", mode="evasion")
        with pytest.raises(ValueError, match="empty"):
            evaluate_attack(train, g, params, victims, spec, [])


class TestCheckAttack:
    """What an attack may take, checked once per call and before any walk:
    a nonempty sweep, rates that ``poison_edge_count`` admits, and binary
    features for the feature kinds."""

    @pytest.mark.parametrize("kind, budgets, named", [
        ("random_global", [], "budget sweep is empty"),
        ("fga_structure", [], "budget sweep is empty"),
        ("random_global", [0.1, -0.5], "not a finite nonnegative"),
        ("random_global", [float("nan")], "not a finite nonnegative"),
        ("random_global", [1e6], "not enough absent node pairs"),
        ("fga_feature", [1], "feature attacks require binary"),
        ("fga_both", [1, 2], "feature attacks require binary"),
    ])
    def test_refuses(self, kind, budgets, named):
        g, _ = shaped_instance(0, "random", 8, 1, binary=False)
        with pytest.raises(ValueError, match=named):
            check_attack(g, AttackSpec(kind=kind), budgets)

    @pytest.mark.parametrize("kind, budgets, binary", [
        ("random_global", [0.0, 0.5], False),
        ("fga_structure", [1], False),
        ("fga_indirect", [1, 2], False),
        ("fga_feature", [1], True),
        ("fga_both", [3], True),
    ])
    def test_admits(self, kind, budgets, binary):
        g, _ = shaped_instance(0, "random", 8, 1, binary=binary)
        check_attack(g, AttackSpec(kind=kind), budgets)

    def test_features_scanned_once_per_call(self, monkeypatch):
        """Eight victims walked to budget 3 scan the n x d features once,
        in ``evaluate_attack``'s ``check_attack``, not once per walk."""
        g, params = shaped_instance(0, "random", 8, 1, binary=True)
        scans = []
        isin = np.isin

        def counting_isin(element, *args, **kwargs):
            if element is g.features:
                scans.append(None)
            return isin(element, *args, **kwargs)

        monkeypatch.setattr(np, "isin", counting_isin)
        spec = AttackSpec(kind="fga_both", mode="evasion")
        report = evaluate_attack(FixedParamsTrain(params), g, params,
                                 np.arange(8), spec, [1, 2, 3])
        assert len(report.margins_after[3]) == 8
        assert len(scans) == 1


class TestMarginShiftExport:
    def test_clean_vs_clean(self):
        g, params = trained_instance(13)
        probs = predict(g, params)
        recs = classification_margins(probs, g.labels, g.mask("test"))
        rows = margin_shift_export(recs, recs, {"model": "gcn", "budget": 0})
        assert len(rows) == len(recs)
        assert all(r["margin_before"] == r["margin_after"] for r in rows)

    def test_mismatched_victims_rejected(self):
        g, params = trained_instance(14)
        probs = predict(g, params)
        recs = classification_margins(probs, g.labels, g.mask("test"))
        with pytest.raises(ValueError, match="match"):
            margin_shift_export(recs, recs[:-1], {})
