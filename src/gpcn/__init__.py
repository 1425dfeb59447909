"""Graph convolutional classifiers trained by backpropagation or predictive
coding, plus calibration and adversarial-robustness evaluation tooling."""

from gpcn.graph import (
    EdgeEdit,
    Graph,
    SyntheticSpec,
    apply_edits,
    generate_synthetic,
    largest_connected_component,
    load_dataset,
    normalize_adjacency,
    propagate,
    save_dataset,
)
from gpcn.nn import AdamState, ModelParams, adam_step, glorot_init
from gpcn.bp import TrainConfig, TrainHistory, gcn_forward, predict, train_bp
from gpcn.pc import PCConfig, PCState, train_pc
from gpcn.calibration import (
    CalibrationReport,
    classification_margins,
    confidences_and_predictions,
    expected_calibration_error,
)
from gpcn.attacks import (
    AttackSpec,
    AttackStep,
    RobustnessReport,
    evaluate_attack,
    fga_attack,
    random_global_poison,
    select_victims,
)

__all__ = [
    "AdamState",
    "AttackSpec",
    "AttackStep",
    "CalibrationReport",
    "EdgeEdit",
    "Graph",
    "ModelParams",
    "PCConfig",
    "PCState",
    "RobustnessReport",
    "SyntheticSpec",
    "TrainConfig",
    "TrainHistory",
    "adam_step",
    "apply_edits",
    "classification_margins",
    "confidences_and_predictions",
    "evaluate_attack",
    "expected_calibration_error",
    "fga_attack",
    "gcn_forward",
    "generate_synthetic",
    "glorot_init",
    "largest_connected_component",
    "load_dataset",
    "normalize_adjacency",
    "predict",
    "propagate",
    "random_global_poison",
    "save_dataset",
    "select_victims",
    "train_bp",
    "train_pc",
]
