"""Graph convolutional classifiers trained by backpropagation or predictive
coding, plus calibration and adversarial-robustness evaluation tooling."""
