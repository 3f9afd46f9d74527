import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mrprior
from mrprior import (
    ApplicabilityError,
    InputError,
    MrSpec,
    anomaly_diversity,
    apply_mr,
    knn_outliers,
    numeric_view,
)
from mrprior.metrics import anomaly
from mrprior.metrics.anomaly import AnomalySummary, OutlierReport, compare_outliers

from conftest import make_dataset, random_dataset


def oracle_kth_nn_scores(matrix, k):
    """Brute-force double loop: per-pair distances, per-row sort, kth pick."""
    n = len(matrix)
    scores = []
    with np.errstate(all="ignore"):   # squares of huge cells overflow to inf
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
        with pytest.raises(InputError):
            knn_outliers(numeric_view(d), k=1, contamination=0.0)


def blocked_cases():
    """(view, k, contamination) cases for the row-block kernel."""
    rng = np.random.default_rng(27)
    cases = []
    for n, dim in ((23, 3), (37, 9), (41, 12)):   # d >= 9: 8-accumulator sums
        columns = {f"x{j}": list(rng.normal(0, 3, n)) for j in range(dim)}
        for j in range(dim):   # rows 5 and 6 duplicate row 0: zero distances
            columns[f"x{j}"][5] = columns[f"x{j}"][6] = columns[f"x{j}"][0]
        cases.append((numeric_view(make_dataset(columns)), 3, 0.1))
    # equally spaced points on a diagonal in 9 dimensions: every interior
    # point ties, so the flag boundary falls inside a tie
    line = [float(i) for i in range(20)]
    view = numeric_view(make_dataset({f"x{j}": line for j in range(9)}), standardize=False)
    cases.append((view, 2, 0.15))
    return cases


class TestBlockedKernel:
    @pytest.mark.parametrize("budget", [1, 50, 997, 2**19])
    def test_blocks_match_oracle(self, monkeypatch, budget):
        # budget 1 gives one row per block; 50 and 997 leave a partial last block
        monkeypatch.setattr(anomaly, "BLOCK_ELEMENTS", budget)
        for view, k, contamination in blocked_cases():
            report = knn_outliers(view, k=k, contamination=contamination)
            expected = oracle_kth_nn_scores(view.matrix, k)
            assert np.array_equal(report.scores, np.array(expected))
            assert list(report.indices) == oracle_flags(expected, contamination)

    def test_flag_boundary_tie_is_covered(self):
        view, k, contamination = blocked_cases()[-1]
        report = knn_outliers(view, k=k, contamination=contamination)
        assert report.indices == (0, 1, 19)
        assert report.scores[1] == report.scores[2]

    def test_memory_is_bounded(self):
        # the whole 20000 x 20000 x 8 difference tensor would be 25.6 GB; a
        # block of approximate distances is 1 MB
        rng = np.random.default_rng(28)
        view = SimpleNamespace(matrix=rng.normal(0, 1, (20000, 8)), n_rows=20000)
        tracemalloc.start()
        try:
            knn_outliers(view, k=5, contamination=0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_filter_adds_no_warnings(self):
        # squares of 1e200 overflow: the filter's norms and products do so
        # silently, and the exact step warns once, as the whole-matrix
        # expression does
        rng = np.random.default_rng(30)
        matrix = rng.normal(0, 1, (30, 3)) * np.array([1e200, 1.0, 1e-200])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = knn_outliers(SimpleNamespace(matrix=matrix, n_rows=30), k=3, contamination=0.1)
        assert [str(w.message) for w in caught] == ["overflow encountered in square"]
        assert np.array_equal(report.scores, oracle_kth_nn_scores(matrix, 3))

    def test_blas_thread_count_does_not_change_output(self, tmp_path):
        rng = np.random.default_rng(31)
        rows = ["a,b,c,d"] + [",".join(f"{v:.6g}" for v in rng.normal(0, 1, 4)) for _ in range(600)]
        (tmp_path / "data.csv").write_text("\n".join(rows) + "\n")
        (tmp_path / "catalog.txt").write_text(
            "MR1 ident identity\n"
            "MR2 shuffle permute_instances seed=1\n"
            "MR3 dup duplicate_instances fraction=0.3 seed=2\n"
            "MR4 shift affine_numeric columns=a shift=3\n"
        )
        src = str(Path(mrprior.__file__).resolve().parent.parent)
        argv = [sys.executable, "-m", "mrprior.cli", "prioritize", "--dataset", "data.csv",
                "--catalog", "catalog.txt", "--metric", "anomaly", "--out", "rank.json",
                "--diagnostics", "diag.json"]
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=threads,
                       OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            subprocess.run(argv, cwd=tmp_path, env=env, check=True, timeout=120)
            outputs.append([(tmp_path / name).read_bytes() for name in ("rank.json", "diag.json")])
        assert outputs[0] == outputs[1]

    def test_cli_import_leaves_thread_pool_out(self):
        src = str(Path(mrprior.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, mrprior.cli; print('concurrent.futures' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.strip() == "False"


def adversarial_matrix(kind, seed, n, d):
    rng = np.random.default_rng(seed)
    if kind == "scaled":
        # unstandardized columns from 1e-300 to 1e300, often near where a
        # square overflows (1.3e154 squares to just below the largest double)
        # or is subnormal (1e-155, 1e-160); half the time one scale for every
        # column
        scales = rng.choice([1.0, 1e-300, 1e-160, 1e-155, 1.3e154, 1e153, 1e300,
                             *10.0 ** rng.integers(-300, 301, 2)], d)
        if rng.random() < 0.5:
            scales[:] = scales[0]
        return rng.uniform(-1, 1, (n, d)) * scales
    if kind == "near-duplicates":
        # rows a few ULPs apart around 1e6: the approximate distances are
        # all rounding error, so the filter's bound decides every candidate
        return 1e6 + rng.integers(-4, 5, (n, d)) * np.spacing(1e6)
    # an integer lattice: tied distances; at 1e-158 and below its squares are
    # subnormal, where rounding errors are absolute rather than relative
    return rng.integers(-2, 3, (n, d)) * rng.choice([1.0, *10.0 ** rng.integers(-165, -157, 1)])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(["scaled", "near-duplicates", "lattice"]),
    seed=st.integers(0, 2**32 - 1),
    # d crosses numpy's 8-wide pairwise-sum unroll at 8 and 16
    d=st.integers(1, 30),
    k=st.integers(1, 8),
    extra_rows=st.integers(0, 30),
    budget=st.sampled_from([1, 50, 997, anomaly.BLOCK_ELEMENTS]),
    contamination=st.sampled_from([0.05, 0.1, 0.3]),
)
def test_filter_and_refine_is_bit_exact(kind, seed, d, k, extra_rows, budget, contamination):
    matrix = adversarial_matrix(kind, seed, k + 1 + extra_rows, d)
    view = SimpleNamespace(matrix=matrix, n_rows=len(matrix))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(anomaly, "BLOCK_ELEMENTS", budget)
            report = knn_outliers(view, k=k, contamination=contamination)
    expected = oracle_kth_nn_scores(matrix, k)
    assert np.array_equal(report.scores, np.array(expected))
    assert list(report.indices) == oracle_flags(expected, contamination)
    # the warnings are those of the whole-matrix expression, and no others
    with warnings.catch_warnings(record=True) as whole:
        warnings.simplefilter("always")
        ((matrix[:, None, :] - matrix[None, :, :]) ** 2).sum(axis=-1)
    assert {str(w.message) for w in caught} == {str(w.message) for w in whole}


def loop_matches(source, followup):
    """The linear-scan matching compare_outliers used before its dict lookup."""
    matches = []
    if source.feature_names == followup.feature_names:
        free = list(followup.report.indices)
        for i in source.report.indices:
            j = next((j for j in free if np.array_equal(source.raw[i], followup.raw[j])), None)
            if j is not None:
                matches.append([i, j])
                free.remove(j)
    return matches


def outlier_summary(raw, flagged, names=("a", "b")):
    report = OutlierReport(tuple(flagged), np.zeros(len(raw)), 2, 0.1)
    return AnomalySummary(report, names, np.array(raw, dtype=float))


class TestOutlierMatching:
    def test_matches_linear_scan(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            # few distinct values: many duplicated outlier rows, and -0.0
            # wherever a 0.0 is drawn on the follow-up side
            raw_s = rng.integers(-1, 2, (int(rng.integers(2, 30)), 2)).astype(float)
            raw_f = rng.integers(-1, 2, (int(rng.integers(2, 30)), 2)).astype(float)
            raw_f[raw_f == 0.0] = -0.0
            flag_s = sorted(rng.choice(len(raw_s), int(rng.integers(0, len(raw_s))), replace=False))
            flag_f = sorted(rng.choice(len(raw_f), int(rng.integers(0, len(raw_f))), replace=False))
            s, f = outlier_summary(raw_s, flag_s), outlier_summary(raw_f, flag_f)
            expected = loop_matches(s, f)
            _, diag = compare_outliers(s, f)
            assert diag["identical_pairs"] == expected
            assert diag["surviving_source"] == len(flag_s) - len(expected)

    def test_signed_zero_and_duplicates(self):
        s = outlier_summary([[0.0, 1.0], [0.0, 1.0], [2.0, 2.0]], [0, 1, 2])
        f = outlier_summary([[2.0, 2.0], [-0.0, 1.0], [5.0, 5.0], [0.0, 1.0]], [0, 1, 2, 3])
        _, diag = compare_outliers(s, f)
        assert diag["identical_pairs"] == [[0, 1], [1, 3], [2, 0]] == loop_matches(s, f)

    def test_different_features_never_match(self):
        s = outlier_summary([[1.0, 1.0]], [0])
        f = outlier_summary([[1.0, 1.0]], [0], names=("a", "c"))
        assert compare_outliers(s, f)[1]["identical_pairs"] == loop_matches(s, f) == []


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

    def test_summary_imputes_once(self, monkeypatch):
        views = []

        def counting(dataset, standardize=True):
            views.append(standardize)
            return numeric_view(dataset, standardize)

        monkeypatch.setattr(anomaly, "numeric_view", counting)
        rng = np.random.default_rng(27)
        d = random_dataset(rng, n_rows=40, missing=0.1)
        names = [a.name for i, a in enumerate(d.attributes) if i in d.numeric_indices()]
        unscaled = numeric_view(d, standardize=False).matrix[:, np.argsort(names)]
        summary = anomaly.anomaly_summary(d, k=3, contamination=0.1)
        assert views == [True]
        # the matched vectors are the imputed, unstandardized rows, bit for bit
        assert summary.feature_names == tuple(sorted(names))
        assert summary.raw.tobytes() == unscaled.tobytes()

    def test_planted_outlier_always_flagged(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            base = list(rng.normal(0, 1, 20))
            d = make_dataset({"x": base + [10.0]})  # ten sigma from the core
            report = knn_outliers(numeric_view(d), k=5, contamination=0.05)
            assert report.indices == (20,)


def flag_count(n, contamination):
    """f(n): the rows flagged among n, min(round_half_up(c n), n - 1)."""
    return min(int(math.floor(contamination * n + 0.5)), n - 1)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_source=st.integers(4, 40),
    n_followup=st.integers(4, 40),
    shared=st.floats(0.0, 1.0),
    k=st.integers(1, 3),
    # eighths put c n on a half for some n, where rounding half up matters
    contamination=st.sampled_from([0.125, 0.375, 0.625, 0.875]) | st.floats(0.01, 0.99),
    standardize=st.booleans(),
)
def test_raw_score_is_the_flag_count_difference(
    seed, n_source, n_followup, shared, k, contamination, standardize
):
    """Identical pairs leave both sides, so they cancel: the raw score is
    |f(n_source) - f(n_followup)|, whatever the rows hold."""
    rng = np.random.default_rng(seed)
    # few distinct values, and source rows copied into the follow-up, so that
    # flagged rows often pair up across the sides
    source = rng.integers(-2, 3, (n_source, 2)).astype(float)
    followup = rng.integers(-2, 3, (n_followup, 2)).astype(float)
    copied = int(shared * min(n_source, n_followup))
    followup[:copied] = source[rng.permutation(n_source)[:copied]]
    raw, diag = anomaly_diversity(
        make_dataset({"a": list(source[:, 0]), "b": list(source[:, 1])}),
        make_dataset({"a": list(followup[:, 0]), "b": list(followup[:, 1])}),
        k=k, contamination=contamination, standardize=standardize,
    )
    matched = len(diag["identical_pairs"])
    assert diag["surviving_source"] == flag_count(n_source, contamination) - matched
    assert diag["surviving_followup"] == flag_count(n_followup, contamination) - matched
    assert raw == abs(flag_count(n_source, contamination) - flag_count(n_followup, contamination))
