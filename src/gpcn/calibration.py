"""Confidence-quality metrics: ECE, MCE, reliability bins (whose counts are
the confidence histogram), and classification margins.

Binning uses B equal-width half-open intervals (lo, hi] over (0, 1], so a
confidence c lands in bin ceil(c * B) - 1 and 1.0 stays in range. MCE is the
maximum gap over nonempty bins only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ReliabilityBins:
    lo: np.ndarray            # (B,)
    hi: np.ndarray            # (B,)
    count: np.ndarray         # (B,) int
    mean_conf: np.ndarray     # (B,) nan for empty bins
    mean_acc: np.ndarray      # (B,) nan for empty bins


@dataclass
class CalibrationReport:
    ece: float
    mce: float
    bins: ReliabilityBins


@dataclass
class MarginRecord:
    node: int
    margin: float
    correct: bool


def confidences_and_predictions(probs: np.ndarray):
    """Row max as confidence, argmax as prediction (tie -> lowest index)."""
    probs = np.asarray(probs, dtype=np.float64)
    if not np.isfinite(probs).all():
        raise ValueError("probabilities must be finite")
    sums = probs.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-6):
        raise ValueError("probability rows must sum to 1")
    return probs.max(axis=1), probs.argmax(axis=1)


def _bin_index(conf: np.ndarray, num_bins: int) -> np.ndarray:
    # (lo, hi] convention: c lands in ceil(c*B) - 1
    idx = np.ceil(conf * num_bins).astype(np.int64) - 1
    return np.clip(idx, 0, num_bins - 1)


def expected_calibration_error(probs, labels, mask,
                               num_bins: int = 10) -> CalibrationReport:
    """Binned ECE/MCE with reliability statistics over the masked nodes."""
    if num_bins < 1:
        raise ValueError("need at least one bin")
    mask = np.asarray(mask, dtype=bool)
    sel = np.flatnonzero(mask)
    if sel.size == 0:
        raise ValueError("empty mask")
    conf, pred = confidences_and_predictions(np.asarray(probs)[sel])
    hit = (pred == np.asarray(labels)[sel]).astype(np.float64)
    idx = _bin_index(conf, num_bins)

    count = np.bincount(idx, minlength=num_bins)
    conf_sum = np.bincount(idx, weights=conf, minlength=num_bins)
    acc_sum = np.bincount(idx, weights=hit, minlength=num_bins)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_conf = np.where(count > 0, conf_sum / np.maximum(count, 1),
                             np.nan)
        mean_acc = np.where(count > 0, acc_sum / np.maximum(count, 1), np.nan)

    nonempty = count > 0
    gaps = np.abs(mean_acc[nonempty] - mean_conf[nonempty])
    ece = float(np.sum(count[nonempty] / sel.size * gaps))
    mce = float(gaps.max()) if gaps.size else 0.0
    edges = np.linspace(0.0, 1.0, num_bins + 1)
    bins = ReliabilityBins(lo=edges[:-1], hi=edges[1:], count=count,
                           mean_conf=mean_conf, mean_acc=mean_acc)
    return CalibrationReport(ece=ece, mce=mce, bins=bins)


def classification_margins(probs, labels, mask) -> list[MarginRecord]:
    """True-class probability minus the best other class, per masked node."""
    mask = np.asarray(mask, dtype=bool)
    sel = np.flatnonzero(mask)
    if sel.size == 0:
        raise ValueError("empty mask")
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] < 2:
        raise ValueError("margins need at least 2 classes")
    rows = probs[sel]
    true = np.asarray(labels)[sel]
    picked = np.arange(sel.size), true
    others = rows.copy()
    others[picked] = -np.inf
    margins = rows[picked] - others.max(axis=1)
    correct = rows.argmax(axis=1) == true
    return [MarginRecord(node=int(node), margin=float(m), correct=bool(c))
            for node, m, c in zip(sel, margins, correct)]

