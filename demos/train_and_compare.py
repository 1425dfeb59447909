"""Train the two classifiers on the same synthetic graph and compare.

A two-block stochastic block model gives a planted community structure
that both models should recover almost perfectly. The backprop model
trains by gradient descent on cross-entropy; the predictive-coding
model instead relaxes its value nodes toward an energy minimum and
updates weights from the residual errors. Both end up at the same
place on an easy graph, which is the point: the energy-based learner
is a drop-in replacement, not a different classifier.
"""

import numpy as np

from gpcn.graph import SyntheticSpec, generate_synthetic
from gpcn.bp import TrainConfig, train_bp
from gpcn.pc import PCConfig, train_pc

SPEC = SyntheticSpec(num_blocks=2, nodes_per_block=50,
                     intra_block_edge_prob=0.2, inter_block_edge_prob=0.01,
                     feature_dim=12, feature_noise_std=0.1,
                     split_fractions=(0.2, 0.2, 0.6))


def main():
    graph = generate_synthetic(SPEC, seed=42)
    print(f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges, "
          f"{graph.num_classes} classes")

    gcn_acc, gpcn_acc = [], []
    for seed in range(5):
        _, hist = train_bp(graph, TrainConfig(epochs=300, seed=seed))
        gcn_acc.append(hist.test_acc[hist.selected_epoch])
        _, hist = train_pc(graph, PCConfig(epochs=300, seed=seed))
        gpcn_acc.append(hist.test_acc[hist.selected_epoch])
        print(f"seed {seed}: gcn {gcn_acc[-1]:.4f}  gpcn {gpcn_acc[-1]:.4f}")

    print(f"\nmean test accuracy over 5 seeds: "
          f"gcn {np.mean(gcn_acc):.4f} +- {np.std(gcn_acc):.4f}, "
          f"gpcn {np.mean(gpcn_acc):.4f} +- {np.std(gpcn_acc):.4f}")


if __name__ == "__main__":
    main()
