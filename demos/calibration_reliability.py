"""Compare how well each model's confidence matches its accuracy.

Accuracy alone hides a failure mode: a model can be right 70% of the
time while claiming 99% confidence. Expected calibration error (ECE)
measures that gap by binning test nodes by confidence and comparing
each bin's mean confidence against its hit rate. On a noisy four-block
graph the energy-based model comes out consistently better calibrated
than the backprop baseline at the same learning rate, and the
reliability table below shows where the gap lives.
"""

import numpy as np

from gpcn.graph import SyntheticSpec, generate_synthetic
from gpcn.nn import softmax_rows
from gpcn.bp import TrainConfig, train_bp
from gpcn.pc import PCConfig, train_pc
from gpcn.calibration import expected_calibration_error

SPEC = SyntheticSpec(num_blocks=4, nodes_per_block=75,
                     intra_block_edge_prob=0.06, inter_block_edge_prob=0.03,
                     feature_dim=12, feature_noise_std=1.5,
                     split_fractions=(0.1, 0.2, 0.7))


def reliability_table(report):
    rows = []
    for b in np.flatnonzero(report.bins.count):
        rows.append(f"  ({report.bins.lo[b]:.1f}, {report.bins.hi[b]:.1f}] "
                    f"n={report.bins.count[b]:3d}  "
                    f"conf={report.bins.mean_conf[b]:.3f}  "
                    f"acc={report.bins.mean_acc[b]:.3f}")
    return "\n".join(rows)


def main():
    graph = generate_synthetic(SPEC, seed=42)
    mask = graph.mask("test")

    for name, trainer, config in [
        ("gcn", train_bp, TrainConfig(epochs=300, weight_lr=0.001, seed=0)),
        ("gpcn", train_pc, PCConfig(epochs=300, weight_lr=0.001, seed=0)),
    ]:
        _, history = trainer(graph, config)
        probs = softmax_rows(history.forward.logits)
        report = expected_calibration_error(probs, graph.labels, mask)
        print(f"{name}: ece={report.ece:.4f}  mce={report.mce:.4f}")
        print(reliability_table(report))
        print()


if __name__ == "__main__":
    main()
