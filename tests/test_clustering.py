"""Tests for the k-means cluster-shape metric."""

from functools import reduce
from operator import add

import numpy as np
import pytest

from mrprior.dataset import numeric_view
from mrprior.errors import ApplicabilityError, InputError
from mrprior.metrics.clustering import kmeans_summary

from conftest import make_dataset, random_dataset


def two_blob_dataset():
    """Five tight points near (0,0) and five near (10,10)."""
    xs = [0.0, 0.5, 0.0, 0.4, 0.2, 10.0, 10.5, 10.0, 10.4, 10.2]
    ys = [0.0, 0.0, 0.5, 0.4, 0.1, 10.0, 10.0, 10.5, 10.4, 10.1]
    return make_dataset({"x": xs, "y": ys})


def optimal_two_partition_objective(points):
    """Exhaustive minimum k-means objective over every 2-way split."""
    n = len(points)
    best = np.inf
    for mask_bits in range(1, 2**n - 1):
        mask = np.array([(mask_bits >> i) & 1 for i in range(n)], dtype=bool)
        total = 0.0
        for side in (mask, ~mask):
            group = points[side]
            centroid = group.mean(axis=0)
            total += float(((group - centroid) ** 2).sum())
        best = min(best, total)
    return best


class TestKmeansSummary:
    def test_two_blob_fixture_recovers_split(self):
        view = numeric_view(two_blob_dataset(), standardize=False)
        summary = kmeans_summary(view, k=2, seed=0)
        assert sorted(summary.sizes) == [5, 5]
        oracle = optimal_two_partition_objective(view.matrix)
        assert abs(summary.objective_trace[-1] - oracle) <= 1e-9

    def test_two_blob_split_stable_across_seeds(self):
        view = numeric_view(two_blob_dataset(), standardize=False)
        oracle = optimal_two_partition_objective(view.matrix)
        for seed in range(10):
            summary = kmeans_summary(view, k=2, seed=seed)
            assert sorted(summary.sizes) == [5, 5]
            assert abs(summary.objective_trace[-1] - oracle) <= 1e-9

    def test_objective_non_increasing_on_seeded_runs(self):
        rng = np.random.default_rng(7)
        for run in range(100):
            ds = random_dataset(rng, name=f"run{run}")
            while not ds.numeric_indices():
                ds = random_dataset(rng, name=f"run{run}")
            view = numeric_view(ds)
            k = min(3, view.n_rows)
            summary = kmeans_summary(view, k=k, seed=run)
            trace = summary.objective_trace
            assert len(trace) == summary.n_iters
            for earlier, later in zip(trace, trace[1:]):
                assert later <= earlier

    def test_same_seed_same_summary(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, n_rows=40, name="det")
        view = numeric_view(ds)
        first = kmeans_summary(view, k=3, seed=11)
        second = kmeans_summary(view, k=3, seed=11)
        assert np.array_equal(first.centroids, second.centroids)
        assert first.sizes == second.sizes
        assert first.between_total == second.between_total
        assert first.within_avg == second.within_avg
        assert first.objective_trace == second.objective_trace

    def test_single_cluster(self):
        view = numeric_view(two_blob_dataset(), standardize=False)
        summary = kmeans_summary(view, k=1, seed=0)
        assert summary.sizes == (10,)
        assert summary.between_total == 0.0
        assert summary.size_total == 10
        centroid = summary.centroids[0]
        expected = float(
            np.sqrt(((view.matrix - centroid) ** 2).sum(axis=1)).mean()
        )
        assert summary.within_avg == pytest.approx(expected, rel=1e-12)

    def test_all_identical_points(self):
        ds = make_dataset({"a": [2.0] * 6, "b": [-1.0] * 6})
        summary = kmeans_summary(numeric_view(ds, standardize=False), k=3, seed=0)
        assert summary.size_total == 6
        assert sum(summary.sizes) == 6
        assert summary.between_total == 0.0
        assert summary.within_avg == 0.0
        assert all(value == 0.0 for value in summary.objective_trace)

    def test_duplicate_locations_terminate(self):
        # only two distinct rows but k=3: one cluster must stay empty
        ds = make_dataset({"a": [0.0] * 5 + [9.0] * 5})
        summary = kmeans_summary(numeric_view(ds, standardize=False), k=3, seed=5)
        assert sum(summary.sizes) == 10
        assert summary.n_iters <= 100

    def test_rejects_bad_parameters(self):
        view = numeric_view(two_blob_dataset(), standardize=False)
        with pytest.raises(InputError):
            kmeans_summary(view, k=0)
        with pytest.raises(ApplicabilityError):
            kmeans_summary(view, k=11)
        with pytest.raises(InputError):
            kmeans_summary(view, k=2, max_iters=0)


def test_between_total_adds_left_to_right():
    # sum() compensates from Python 3.12 on; on these 15 centroid pairs that
    # moves the total's last bit, so the total must not come from it
    rng = np.random.default_rng(2)
    summary = kmeans_summary(numeric_view(random_dataset(rng, n_rows=60)), k=6, seed=2)
    c = summary.centroids
    dists = [float(np.sqrt(((c[i] - c[j]) ** 2).sum())) for i in range(6) for j in range(i + 1, 6)]
    assert summary.between_total == reduce(add, dists, 0.0)
