"""Calibration metrics against brute-force oracles and hand-computed cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpcn.calibration import (classification_margins,
                              confidences_and_predictions,
                              expected_calibration_error)


def random_probs(rng, n, k):
    raw = rng.random((n, k)) + 1e-3
    return raw / raw.sum(axis=1, keepdims=True)


def oracle_ece_mce_hist(probs, labels, num_bins):
    """Per-sample grouping oracle: walk every sample into its bin directly."""
    conf = probs.max(axis=1)
    pred = probs.argmax(axis=1)
    groups = {}
    for c, p, y in zip(conf, pred, labels):
        b = int(np.ceil(c * num_bins)) - 1
        b = min(max(b, 0), num_bins - 1)
        groups.setdefault(b, []).append((c, p == y))
    ece = 0.0
    mce = 0.0
    hist = np.zeros(num_bins, dtype=int)
    for b, rows in groups.items():
        hist[b] = len(rows)
        gap = abs(np.mean([hit for _, hit in rows])
                  - np.mean([c for c, _ in rows]))
        ece += len(rows) / probs.shape[0] * gap
        mce = max(mce, gap)
    return ece, mce, hist


class TestConfidences:
    def test_basic(self):
        conf, pred = confidences_and_predictions([[0.7, 0.2, 0.1]])
        assert conf[0] == 0.7 and pred[0] == 0

    def test_tie_goes_to_lowest_index(self):
        conf, pred = confidences_and_predictions([[0.5, 0.5]])
        assert conf[0] == 0.5 and pred[0] == 0

    def test_one_hot(self):
        conf, pred = confidences_and_predictions([[0.0, 0.0, 1.0]])
        assert conf[0] == 1.0 and pred[0] == 2

    def test_rejects_non_probability_rows(self):
        with pytest.raises(ValueError, match="sum to 1"):
            confidences_and_predictions([[0.9, 0.3]])

    def test_rejects_non_finite_rows(self):
        # a NaN row passes the row-sum check, so ECE would be nan
        probs = np.array([[np.nan, np.nan], [0.5, 0.5]])
        with pytest.raises(ValueError, match="finite"):
            expected_calibration_error(probs, [0, 1], np.ones(2, dtype=bool))


class TestECE:
    def test_perfectly_calibrated_sample_is_zero(self):
        # 10 samples at confidence 0.8, exactly 8 correct: gap 0 in its bin
        probs = np.tile([0.8, 0.2], (10, 1))
        labels = np.array([0] * 8 + [1] * 2)
        report = expected_calibration_error(probs, labels,
                                            np.ones(10, dtype=bool))
        assert report.ece <= 1e-12
        assert report.mce <= 1e-12

    def test_single_bin_hand_value(self):
        probs = np.array([[1.0, 0.0], [1.0, 0.0]])
        labels = np.array([0, 1])
        report = expected_calibration_error(probs, labels,
                                            np.ones(2, dtype=bool), num_bins=1)
        assert report.ece == 0.5
        assert report.mce == 0.5

    def test_confidence_one_lands_in_top_bin(self):
        probs = np.array([[1.0, 0.0]])
        report = expected_calibration_error(probs, np.array([0]),
                                            np.ones(1, dtype=bool))
        assert report.bins.count[-1] == 1

    def test_mask_restricts_samples(self, rng):
        probs = random_probs(rng, 10, 3)
        labels = rng.integers(0, 3, 10)
        mask = np.zeros(10, dtype=bool)
        mask[:4] = True
        report = expected_calibration_error(probs, labels, mask)
        assert report.bins.count.sum() == 4

    def test_empty_mask(self):
        with pytest.raises(ValueError, match="empty mask"):
            expected_calibration_error(np.array([[1.0]]), np.array([0]),
                                       np.array([False]))

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 100),
           k=st.integers(2, 5), bins=st.integers(1, 15))
    def test_matches_brute_force_oracle_exactly(self, seed, n, k, bins):
        rng = np.random.default_rng(seed)
        probs = random_probs(rng, n, k)
        labels = rng.integers(0, k, n)
        report = expected_calibration_error(probs, labels,
                                            np.ones(n, dtype=bool), bins)
        ece, mce, hist = oracle_ece_mce_hist(probs, labels, bins)
        assert report.ece == pytest.approx(ece, abs=1e-14)
        assert report.mce == pytest.approx(mce, abs=1e-14)
        assert np.array_equal(report.bins.count, hist)

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 60))
    def test_bounds_and_bin_partition(self, seed, n):
        rng = np.random.default_rng(seed)
        probs = random_probs(rng, n, 4)
        labels = rng.integers(0, 4, n)
        report = expected_calibration_error(probs, labels,
                                            np.ones(n, dtype=bool))
        assert 0.0 <= report.ece <= report.mce <= 1.0
        assert report.bins.count.sum() == n
        for b in np.flatnonzero(report.bins.count):
            assert report.bins.lo[b] < report.bins.mean_conf[b] \
                <= report.bins.hi[b] + 1e-12


class TestMargins:
    def test_hand_values(self):
        probs = np.array([[0.7, 0.2, 0.1], [0.7, 0.2, 0.1], [0.5, 0.5, 0.0]])
        labels = np.array([0, 1, 0])
        recs = classification_margins(probs, labels, np.ones(3, dtype=bool))
        assert recs[0].margin == pytest.approx(0.5)
        assert recs[1].margin == pytest.approx(-0.5)
        assert recs[2].margin == 0.0

    def test_one_class_rejected(self):
        with pytest.raises(ValueError, match="2 classes"):
            classification_margins(np.ones((3, 1)), np.zeros(3, dtype=int),
                                   np.ones(3, dtype=bool))

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 40),
           k=st.integers(2, 6))
    def test_matches_per_node_oracle_exactly(self, seed, n, k):
        rng = np.random.default_rng(seed)
        probs = random_probs(rng, n, k)
        labels = rng.integers(0, k, n)
        mask = rng.random(n) < 0.7
        mask[0] = True
        recs = classification_margins(probs, labels, mask)
        assert [r.node for r in recs] == np.flatnonzero(mask).tolist()
        for rec in recs:
            row, true = probs[rec.node], labels[rec.node]
            assert rec.margin == row[true] - np.delete(row, true).max()
            assert rec.correct == (row.argmax() == true)

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 40))
    def test_sign_characterizes_correctness(self, seed, n):
        rng = np.random.default_rng(seed)
        probs = random_probs(rng, n, 4)
        labels = rng.integers(0, 4, n)
        for rec in classification_margins(probs, labels,
                                          np.ones(n, dtype=bool)):
            assert -1.0 <= rec.margin <= 1.0
            if rec.margin > 0:
                assert rec.correct
            if rec.margin < 0:
                assert not rec.correct


class TestHistogram:
    def test_uniform_rows_single_spike(self):
        probs = np.tile([0.25, 0.25, 0.25, 0.25], (7, 1))
        hist = expected_calibration_error(probs, np.zeros(7, dtype=int),
                                          np.ones(7, dtype=bool)).bins.count
        assert hist[2] == 7           # 0.25 falls in (0.2, 0.3]
        assert hist.sum() == 7

    def test_counts_sum_to_masked_nodes(self, rng):
        probs = random_probs(rng, 20, 3)
        labels = rng.integers(0, 3, 20)
        mask = np.zeros(20, dtype=bool)
        mask[::2] = True
        report = expected_calibration_error(probs, labels, mask)
        assert report.bins.count.sum() == 10
