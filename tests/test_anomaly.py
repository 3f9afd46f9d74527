import math

import numpy as np
import pytest

from mrprior import (
    ApplicabilityError,
    MrSpec,
    anomaly_diversity,
    apply_mr,
    knn_outliers,
    numeric_view,
)

from conftest import make_dataset, random_dataset


def oracle_kth_nn_scores(matrix, k):
    """Brute-force double loop: per-pair distances, per-row sort, kth pick."""
    n = len(matrix)
    scores = []
    for i in range(n):
        dists = sorted(
            float(np.sqrt(np.sum((matrix[i] - matrix[j]) ** 2)))
            for j in range(n)
            if j != i
        )
        scores.append(dists[k - 1])
    return scores


def oracle_flags(scores, contamination):
    n = len(scores)
    n_flag = min(int(math.floor(contamination * n + 0.5)), n - 1)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    return sorted(order[:n_flag])


class TestKnnOutliers:
    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(8, 60))
            dim = int(rng.integers(1, 5))
            d = make_dataset(
                {f"x{j}": list(rng.normal(0, 3, n)) for j in range(dim)}
            )
            view = numeric_view(d)
            k = int(rng.integers(1, min(6, n)))
            report = knn_outliers(view, k=k, contamination=0.1)
            expected = oracle_kth_nn_scores(view.matrix, k)
            assert np.array_equal(report.scores, np.array(expected))
            assert list(report.indices) == oracle_flags(expected, 0.1)

    def test_far_point_on_grid(self):
        # ten collinear points plus one far outlier; contamination 0.1 of 11
        # rows flags exactly one instance
        d = make_dataset({"x": [float(i) for i in range(10)] + [100.0]})
        report = knn_outliers(numeric_view(d), k=3, contamination=0.1)
        assert report.indices == (10,)

    def test_tie_break_prefers_low_index(self):
        d = make_dataset({"x": [1.0] * 8, "y": [2.0] * 8})
        report = knn_outliers(numeric_view(d, standardize=False), k=2, contamination=0.3)
        # all scores are 0; round-half-up(0.3 * 8) = 2 lowest-index rows win
        assert report.indices == (0, 1)
        assert all(s == 0.0 for s in report.scores)

    def test_flag_count_rounding(self):
        d = make_dataset({"x": [float(i) for i in range(10)]})
        view = numeric_view(d)
        assert len(knn_outliers(view, k=2, contamination=0.05).indices) == 1  # 0.5 up
        assert len(knn_outliers(view, k=2, contamination=0.24).indices) == 2
        assert len(knn_outliers(view, k=2, contamination=0.95).indices) == 9  # capped n-1

    def test_flagged_scores_dominate(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            d = make_dataset({"x": list(rng.normal(0, 1, 30))})
            report = knn_outliers(numeric_view(d), k=4, contamination=0.2)
            flagged = set(report.indices)
            if not flagged:
                continue
            floor = min(report.scores[i] for i in flagged)
            assert all(report.scores[i] <= floor for i in range(30) if i not in flagged)

    def test_scores_own_their_data(self):
        # a view into the sorted distance matrix would keep all n x n of it alive
        d = make_dataset({"x": [float(i) for i in range(12)]})
        report = knn_outliers(numeric_view(d), k=3, contamination=0.1)
        assert report.scores.flags.owndata
        assert report.scores.base is None

    def test_needs_more_rows_than_k(self):
        d = make_dataset({"x": [1.0, 2.0, 3.0]})
        with pytest.raises(ApplicabilityError):
            knn_outliers(numeric_view(d), k=3, contamination=0.1)

    def test_rejects_bad_contamination(self):
        d = make_dataset({"x": [1.0, 2.0, 3.0]})
        with pytest.raises(ApplicabilityError):
            knn_outliers(numeric_view(d), k=1, contamination=0.0)


class TestAnomalyDiversity:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(23)
        d = random_dataset(rng, n_rows=40)
        raw, diag = anomaly_diversity(d, d, k=3, contamination=0.1)
        assert raw == 0.0
        # every flagged outlier has an identical twin on the other side
        assert diag["surviving_source"] == 0
        assert diag["surviving_followup"] == 0

    def test_symmetry(self):
        rng = np.random.default_rng(24)
        d = random_dataset(rng, n_rows=40)
        f = apply_mr(MrSpec("M", "d", "duplicate_instances", {"fraction": 0.4}, seed=5), d)
        assert (
            anomaly_diversity(d, f, k=3, contamination=0.1)[0]
            == anomaly_diversity(f, d, k=3, contamination=0.1)[0]
        )

    def test_count_difference_semantics(self):
        # the score is the difference of flag counts, which only row counts move
        rng = np.random.default_rng(25)
        d = random_dataset(rng, n_rows=60)
        f = apply_mr(MrSpec("M", "r", "remove_instances", {"fraction": 0.5}, seed=6), d)
        raw, _ = anomaly_diversity(d, f, k=3, contamination=0.1)
        flags_s = len(knn_outliers(numeric_view(d), 3, 0.1).indices)
        flags_f = len(knn_outliers(numeric_view(f), 3, 0.1).indices)
        assert raw == abs(flags_s - flags_f)

    def test_matching_needs_same_features(self):
        d = make_dataset({"x": [float(i) for i in range(9)] + [50.0]})
        f = apply_mr(
            MrSpec("M", "u", "add_uninformative_attribute", {"value": "1"}), d
        )
        raw, diag = anomaly_diversity(d, f, k=2, contamination=0.1)
        # feature sets differ, so no identical pairs can be claimed
        assert diag["identical_pairs"] == []
        assert raw == 0.0

    def test_planted_outlier_always_flagged(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            base = list(rng.normal(0, 1, 20))
            d = make_dataset({"x": base + [10.0]})  # ten sigma from the core
            report = knn_outliers(numeric_view(d), k=5, contamination=0.05)
            assert report.indices == (20,)
