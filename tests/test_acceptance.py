"""Acceptance gate: one test per criterion, each emitting a pass/fail line.

The citation-network experiments are stood in for by stochastic-block-model
fixtures sized so both backends train in minutes; the trend assertions
(accuracy parity, calibration ordering, energy/robustness orderings) are the
acceptance subjects, not the absolute citation-dataset values.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

from gpcn.graph import (EdgeEdit, SyntheticSpec, apply_edits,
                        generate_synthetic, make_graph, normalize_adjacency,
                        prepare)
from gpcn.nn import ModelParams, cross_entropy_masked, init_params
from gpcn.bp import TrainConfig, gcn_backward, gcn_forward, predict, train_bp
from gpcn.pc import (PCConfig, clamp_targets, compute_energy, inference_step,
                     pc_init_feedforward, pc_predictions, pc_weight_gradients,
                     train_pc)
from gpcn.calibration import (classification_margins,
                              expected_calibration_error)
from gpcn.attacks import AttackSpec, evaluate_attack, select_victims
from gpcn.harness import ExperimentConfig, Trainer
from gpcn.cli import main as cli_main

import conftest
from conftest import (adjacency, central_difference, dense_adjacency,
                      graphs_equal, has_edge, inverse_edit, random_graph,
                      relative_error)
from test_calibration import oracle_ece_mce_hist, random_probs
from test_pc import (clamped_random_state, numeric_value_gradients,
                     one_node_chain, scaffold)

SEEDS = range(5)

EASY_SPEC = SyntheticSpec(2, 50, 0.2, 0.01, 12, 0.1, (0.2, 0.2, 0.6))
CALIBRATION_SPEC = SyntheticSpec(4, 75, 0.06, 0.03, 12, 1.5, (0.1, 0.2, 0.7))
ENERGY_SPEC = SyntheticSpec(2, 150, 0.10, 0.02, 12, 0.5, (0.1, 0.2, 0.7))
ATTACK_SPEC = SyntheticSpec(2, 75, 0.12, 0.02, 12, 0.6, (0.1, 0.2, 0.7))


def verdict(num, title, ok, detail):
    line = f"[criterion {num}] {title}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def test_criterion_1_gradient_correctness():
    start = time.time()
    worst_value = worst_weight = worst_bp = 0.0
    for i in range(20):
        mode = "inter_layer" if i % 2 == 0 else "intra_layer"
        n = 3 + i % 6                                   # 3..8 nodes
        adj, state, params = clamped_random_state(1000 + i, mode=mode, n=n)

        numeric_h, numeric_agg = numeric_value_gradients(adj, state, params)
        gamma = 0.05
        before_h = [state.h[k].copy() for k in range(1, 3)]
        before_agg = [h.copy() for h in state.h_agg]
        inference_step(adj, state, params, gamma)
        for k in range(2):
            err = relative_error(state.h[k + 1] - before_h[k],
                                 -gamma * numeric_h[k])
            worst_value = max(worst_value, err)
        if numeric_agg is not None:
            for k in range(2):
                err = relative_error(state.h_agg[k] - before_agg[k],
                                     -gamma * numeric_agg[k])
                worst_value = max(worst_value, err)

        # weight gradients of the energy, values held fixed
        adj2, state2, params2 = clamped_random_state(1000 + i, mode=mode, n=n)
        grads = pc_weight_gradients(state2)
        for k in range(params2.num_layers):
            def energy_of(w, k=k):
                trial = params2.copy()
                trial.weights[k] = w
                probe = scaffold(state2)
                for j in range(1, 3):
                    probe.h[j] = state2.h[j].copy()
                for j, h in enumerate(state2.h_agg):
                    probe.h_agg[j] = h.copy()
                pc_predictions(adj2, probe, trial)
                return compute_energy(probe)

            fd = central_difference(energy_of, params2.weights[k])
            worst_weight = max(worst_weight,
                               relative_error(grads[k], fd))

        # BP backward against the masked cross-entropy
        rng = np.random.default_rng(2000 + i)
        g = random_graph(rng, n, num_features=3, num_classes=2)
        bp_params = init_params([3, 4, 2], rng)
        prepared = prepare(g)
        adj3 = prepared.adj
        mask = g.mask("train")
        cache = gcn_forward(prepared, bp_params)
        _, grad_logits = cross_entropy_masked(cache.logits, g.labels, mask)
        bp_grads = gcn_backward(adj3, cache, grad_logits, bp_params)
        for k in range(bp_params.num_layers):
            def loss_of(w, k=k):
                trial = bp_params.copy()
                trial.weights[k] = w
                out = gcn_forward(prepared, trial)
                return cross_entropy_masked(out.logits, g.labels, mask)[0]

            fd = central_difference(loss_of, bp_params.weights[k])
            worst_bp = max(worst_bp, relative_error(bp_grads[k], fd))

    elapsed = time.time() - start
    ok = worst_value <= 1e-4 and worst_weight <= 1e-4 and worst_bp <= 1e-4 \
        and elapsed < 10.0
    verdict(1, "gradient correctness",
            ok, f"value {worst_value:.2e}, weight {worst_weight:.2e}, "
                f"bp {worst_bp:.2e}, {elapsed:.1f}s")


def test_criterion_2_energy_descent():
    worst_rise = -np.inf
    rises = 0
    rises_at_kinks = 0
    for i in range(10):
        mode = "inter_layer" if i % 2 == 0 else "intra_layer"
        gamma = 0.05 if i % 4 < 2 else 0.1
        adj, state, params = clamped_random_state(3000 + i, mode=mode,
                                                  n=4 + i % 5, scatter=False)
        energy = compute_energy(state)
        for _ in range(50):
            signs = [h > 0 for h in state.h[1:-1]]
            inference_step(adj, state, params, gamma)
            nxt = compute_energy(state)
            worst_rise = max(worst_rise, nxt - energy)
            if nxt > energy + 1e-9:
                rises += 1
                if any(not np.array_equal(s, h > 0)
                       for s, h in zip(signs, state.h[1:-1])):
                    rises_at_kinks += 1
            energy = nxt

    adj, state, params = one_node_chain()
    for _ in range(200):
        inference_step(adj, state, params, 0.5)
    gap = abs(state.h[1][0, 0] - 1.5)
    ok = worst_rise <= 1e-9 and gap <= 1e-6
    verdict(2, "energy descent", ok,
            f"max per-step rise {worst_rise:.2e} "
            f"({rises} rises, {rises_at_kinks} at relu sign crossings), "
            f"chain gap {gap:.2e}")


def test_criterion_3_accuracy_parity():
    start = time.time()
    prepared = prepare(generate_synthetic(EASY_SPEC, 42))
    gcn, gpcn = [], []
    for seed in SEEDS:
        _, h = train_bp(prepared, TrainConfig(epochs=300, seed=seed))
        gcn.append(h.test_acc[h.selected_epoch])
        _, h = train_pc(prepared, PCConfig(epochs=300, seed=seed))
        gpcn.append(h.test_acc[h.selected_epoch])
    m_gcn, m_gpcn = float(np.mean(gcn)), float(np.mean(gpcn))
    elapsed = time.time() - start
    ok = m_gcn >= 0.95 and m_gpcn >= 0.95 and abs(m_gcn - m_gpcn) <= 0.02 \
        and elapsed < 900
    verdict(3, "accuracy parity (SBM stand-in)", ok,
            f"gcn {m_gcn:.4f}, gpcn {m_gpcn:.4f}, {elapsed:.0f}s")


def test_criterion_4_calibration_ordering():
    graph = generate_synthetic(CALIBRATION_SPEC, 42)
    prepared = prepare(graph)
    test_mask = graph.mask("test")
    gcn_ece, gpcn_ece = [], []
    for seed in SEEDS:
        params, _ = train_bp(prepared, TrainConfig(epochs=300,
                                                   weight_lr=0.001, seed=seed))
        probs = predict(prepared, params)
        gcn_ece.append(expected_calibration_error(probs, graph.labels,
                                                  test_mask).ece)
        params, _ = train_pc(prepared, PCConfig(epochs=300, weight_lr=0.001,
                                                seed=seed))
        probs = predict(prepared, params)
        gpcn_ece.append(expected_calibration_error(probs, graph.labels,
                                                   test_mask).ece)
    m_gcn, m_gpcn = float(np.mean(gcn_ece)), float(np.mean(gpcn_ece))

    # oracle equivalence on random 100-sample sets
    oracle_ok = True
    for seed in range(5):
        rng = np.random.default_rng(seed)
        probs = random_probs(rng, 100, 4)
        labels = rng.integers(0, 4, 100)
        rep = expected_calibration_error(probs, labels,
                                         np.ones(100, dtype=bool))
        ece, mce, hist = oracle_ece_mce_hist(probs, labels, 10)
        oracle_ok &= (abs(rep.ece - ece) < 1e-14 and abs(rep.mce - mce) < 1e-14
                      and np.array_equal(rep.bins.count, hist))

    # constructed perfectly calibrated sample: conf 0.8, accuracy 0.8
    probs = np.tile([0.8, 0.2], (10, 1))
    labels = np.array([0] * 8 + [1] * 2)
    perfect = expected_calibration_error(probs, labels,
                                         np.ones(10, dtype=bool)).ece

    ok = m_gpcn < m_gcn and oracle_ok and perfect <= 1e-12
    verdict(4, "calibration ordering", ok,
            f"gcn ece {m_gcn:.4f}, gpcn ece {m_gpcn:.4f}, "
            f"oracle {'ok' if oracle_ok else 'mismatch'}, perfect {perfect}")


def test_criterion_5_energy_calibration_correlation(tmp_path):
    cfg = ExperimentConfig(
        synthetic={"num_blocks": 2, "nodes_per_block": 150,
                   "intra_block_edge_prob": 0.10,
                   "inter_block_edge_prob": 0.02, "feature_dim": 12,
                   "feature_noise_std": 0.5,
                   "split_fractions": [0.1, 0.2, 0.7], "seed": 42},
        model="gpcn", epochs=40,
        pc={"weight_update_timing": "every_step", "value_update_rate": 0.1},
        seeds=tuple(SEEDS))
    from gpcn.harness import cmd_energy_study
    cmd_energy_study(cfg, [12, 36], tmp_path)
    import csv
    with open(tmp_path / "study.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    energy = np.array([float(r["final_energy"]) for r in rows])
    ece = np.array([float(r["ece"]) for r in rows])
    t_col = np.array([int(r["T"]) for r in rows])
    mean12 = energy[t_col == 12].mean()
    mean36 = energy[t_col == 36].mean()
    rho = float(spearmanr(energy, ece).statistic)
    ok = mean36 <= mean12 and rho > 0
    verdict(5, "energy-calibration correlation", ok,
            f"energy T12 {mean12:.3f} vs T36 {mean36:.3f}, spearman {rho:.3f}")


def _attack_sweep(graph, kind, mode, budgets, make_trainer):
    prepared = prepare(graph)
    per_seed = []
    for seed in SEEDS:
        trainer = make_trainer(seed)
        params = trainer.train(prepared)
        victims = select_victims(graph, predict(prepared, params),
                                 "random_1000", seed)
        spec = AttackSpec(kind=kind, mode=mode, seed=seed)
        per_seed.append(evaluate_attack(trainer, prepared, params, victims,
                                        spec, budgets))
    means = np.array([[r.accuracy[q] for q in budgets] for r in per_seed])
    return means.mean(axis=0), per_seed


def test_criterion_6_random_poisoning():
    graph = generate_synthetic(ATTACK_SPEC, 42)
    rates = [0, 0.2, 0.4, 0.6, 0.8, 1.0]
    gcn, _ = _attack_sweep(
        graph, "random_global", "poisoning", rates,
        lambda s: Trainer(train_bp, TrainConfig(epochs=150, seed=s)))
    gpcn, _ = _attack_sweep(
        graph, "random_global", "poisoning", rates,
        lambda s: Trainer(train_pc, PCConfig(epochs=150, seed=s)))
    monotone = all(b <= a + 0.01 for a, b in zip(gcn, gcn[1:])) \
        and all(b <= a + 0.01 for a, b in zip(gpcn, gpcn[1:]))
    ordered = gpcn[-1] >= gcn[-1]
    verdict(6, "random poisoning trend", monotone and ordered,
            f"gcn {np.round(gcn, 3).tolist()}, "
            f"gpcn {np.round(gpcn, 3).tolist()}")


def test_criterion_7_fga_evasion():
    graph = generate_synthetic(ATTACK_SPEC, 42)
    budgets = [1, 2, 3, 4, 5]
    gcn, gcn_reports = _attack_sweep(
        graph, "fga_structure", "evasion", budgets,
        lambda s: Trainer(train_bp, TrainConfig(epochs=150, seed=s)))
    gpcn, gpcn_reports = _attack_sweep(
        graph, "fga_structure", "evasion", budgets,
        lambda s: Trainer(train_pc, PCConfig(epochs=150, seed=s)))
    holistic_exact = all(
        r.holistic == sum(q * r.accuracy[q] for q in budgets)
        for r in gcn_reports + gpcn_reports)
    ok = gpcn[0] >= gcn[0] and holistic_exact
    verdict(7, "gradient-attack evasion trend", ok,
            f"budget-1 gcn {gcn[0]:.3f} vs gpcn {gpcn[0]:.3f}, "
            f"holistic {'exact' if holistic_exact else 'mismatch'}")


def test_criterion_8_cli_determinism(tmp_path):
    spec = {"num_blocks": 2, "nodes_per_block": 25,
            "intra_block_edge_prob": 0.2, "inter_block_edge_prob": 0.02,
            "feature_dim": 6, "feature_noise_std": 0.3,
            "split_fractions": [0.2, 0.2, 0.6]}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"synthetic": {**spec, "seed": 1},
                               "model": "gpcn", "epochs": 12,
                               "seeds": [0, 1],
                               "pc": {"inference_steps": 6}}))
    invocations = [
        ["train", "--config", str(cfg), "--out", None],
        ["attack", "--config", str(cfg), "--kind", "fga_structure",
         "--mode", "evasion", "--budget", "2", "--out", None],
        ["energy-study", "--config", str(cfg), "--t-grid", "6,12",
         "--out", None],
    ]
    identical = True
    for i, argv in enumerate(invocations):
        outs = []
        for rep in ("a", "b"):
            out = tmp_path / f"run{i}{rep}"
            argv[-1] = str(out)
            assert cli_main(list(argv)) == 0
            outs.append({p.name: p.read_bytes()
                         for p in sorted(Path(out).iterdir())})
        identical &= outs[0] == outs[1]
    verdict(8, "byte-identical reruns", identical,
            "train, attack, energy-study each repeated")


def test_criterion_9_structural_invariants():
    checks = []
    # normalization vs dense oracle on <= 20 nodes
    for seed in range(10):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, 2 + seed * 2 if seed else 1)
        dense = dense_adjacency(normalize_adjacency(g))
        a = adjacency(g).toarray() + np.eye(g.num_nodes)
        d = a.sum(axis=1)
        oracle = a / np.sqrt(np.outer(d, d))
        checks.append(np.abs(dense - oracle).max() <= 1e-12)

    # edit round-trips
    rng = np.random.default_rng(99)
    g = random_graph(rng, 8, edge_prob=0.4)
    edits = [EdgeEdit("add" if not has_edge(g, 0, 7) else "remove", 0, 7),
             EdgeEdit("add" if not has_edge(g, 1, 6) else "remove", 1, 6)]
    perturbed = apply_edits(g, edits)
    restored = apply_edits(perturbed,
                           [inverse_edit(e) for e in reversed(edits)])
    checks.append(graphs_equal(restored, g))

    # permutation equivariance, both forward passes
    g = random_graph(rng, 9)
    params = init_params([3, 4, 2], rng)
    perm = rng.permutation(9)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(9)
    gp = make_graph(9, g.features[inv], g.labels[inv], g.split[inv],
                    perm[g.edges], num_classes=2)
    out = gcn_forward(prepare(g), params).logits
    out_p = gcn_forward(prepare(gp), params).logits
    checks.append(np.allclose(out_p[perm], out, rtol=0, atol=1e-12))
    pc = pc_init_feedforward(
        gcn_forward(prepare(g), params)).h[-1]
    pc_p = pc_init_feedforward(
        gcn_forward(prepare(gp), params)).h[-1]
    checks.append(np.allclose(pc_p[perm], pc, rtol=0, atol=1e-12))

    # margin sign characterizes correctness
    probs = random_probs(np.random.default_rng(5), 60, 4)
    labels = np.random.default_rng(6).integers(0, 4, 60)
    for rec in classification_margins(probs, labels,
                                      np.ones(60, dtype=bool)):
        if rec.margin > 0:
            checks.append(rec.correct)
        elif rec.margin < 0:
            checks.append(not rec.correct)

    ok = all(checks)
    verdict(9, "structural invariants", ok, f"{len(checks)} checks")
