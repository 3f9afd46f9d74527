"""Acceptance suite: one test per shipped guarantee, C01 through C14.

Each test prints a single [PASS]/[FAIL] line naming the guarantee and the
measured result (visible with ``pytest -s``; `pytest -v` shows the same
verdict through the per-test outcome).
"""

import itertools
import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from mrprior.catalog import MrPair, MrSpec, apply_mr
from mrprior.cli import main
from mrprior.dataset import Attribute, numeric_view, save_csv
from mrprior.errors import ApplicabilityError
from mrprior.evaluation import (
    CoverageMatrix,
    KillMatrix,
    apfd,
    avg_time_to_fault,
    coverage_greedy,
    detection_curve,
    first_kill_positions,
    permutation_test,
    random_baseline,
    synth_kill_matrix,
)
from mrprior.metrics import MetricParams, score_catalog, score_pair
from mrprior.metrics.anomaly import knn_outliers
from mrprior.metrics.clustering import kmeans_summary
from mrprior.metrics.distribution import distribution_diversity
from mrprior.metrics.rules import cn2_induce
from mrprior.prioritizer import normalize, rank

from conftest import from_rows, make_dataset, random_dataset

ALL_METRICS = ("rule", "anomaly", "clustering", "distribution")


@contextmanager
def criterion(label):
    measured = {}
    try:
        yield measured
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    detail = measured.get("detail", "")
    print(f"[PASS] {label}" + (f" — {detail}" if detail else ""))


def scores_from(raws):
    from mrprior.metrics import DiversityScore

    return [
        DiversityScore(mr_id=f"MR{i}", metric="rule", raw=float(r), catalog_index=i)
        for i, r in enumerate(raws)
    ]


def valid_dataset(rng, name, min_rows=5):
    """Random dataset usable by all four metrics."""
    while True:
        ds = random_dataset(rng, name=name)
        if ds.n_rows >= min_rows and ds.numeric_indices():
            return ds


def params_for(ds):
    return MetricParams(knn_k=min(5, ds.n_rows - 1), kmeans_k=min(3, ds.n_rows))


# ---------------------------------------------------------------------------
# C01 .. C04: normalization and distribution metric
# ---------------------------------------------------------------------------

def test_c01_normalization_suite():
    with criterion("C01 normalization: bounds, endpoints, degenerate flag") as m:
        rng = np.random.default_rng(0)
        start = time.perf_counter()
        for trial in range(1000):
            size = int(rng.integers(2, 12))
            if trial % 10 == 9:
                raws = np.full(size, float(rng.normal()))
            else:
                raws = rng.normal(scale=40.0, size=size)
            out = normalize(scores_from(raws))
            values = [s.normalized for s in out]
            assert all(0.0 <= v <= 1.0 for v in values)
            if raws.max() == raws.min():
                assert values == [0.0] * size
                assert all(s.diagnostics["degenerate_normalization"] for s in out)
            else:
                assert values[int(raws.argmin())] == 0.0
                assert values[int(raws.argmax())] == 1.0
                assert not any(
                    s.diagnostics["degenerate_normalization"] for s in out
                )
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        m["detail"] = f"1000 vectors in {elapsed:.2f}s"


def _fifty_datasets():
    rng = np.random.default_rng(101)
    return [valid_dataset(rng, f"acc{i}") for i in range(50)]


def test_c02_identity_pairs_score_zero():
    with criterion("C02 identity pairs: all four metrics raw = 0") as m:
        start = time.perf_counter()
        datasets = _fifty_datasets()
        for ds in datasets:
            mr = MrSpec("ID", "ident", "identity", {}, None)
            pair = MrPair(mr, ds, apply_mr(mr, ds))
            for metric in ALL_METRICS:
                score = score_pair(pair, metric, params_for(ds))
                assert score.raw == 0.0, (ds.name, metric, score.raw)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        m["detail"] = f"50 datasets x 4 metrics in {elapsed:.1f}s"


def test_c03_swap_symmetry():
    with criterion("C03 swapping source and follow-up: raw unchanged") as m:
        datasets = _fifty_datasets()
        for i, ds in enumerate(datasets):
            if i % 2 == 0:
                mr = MrSpec("S", "shuffle", "permute_instances", {}, seed=i)
            else:
                mr = MrSpec("S", "scale", "affine_numeric", {"scale": 1.7}, None)
            followup = apply_mr(mr, ds)
            forward_pair = MrPair(mr, ds, followup)
            backward_pair = MrPair(mr, followup, ds)
            for metric in ALL_METRICS:
                params = params_for(ds)
                forward = score_pair(forward_pair, metric, params)
                backward = score_pair(backward_pair, metric, params)
                assert forward.raw == backward.raw, (ds.name, metric)
        m["detail"] = "50 dataset pairs x 4 metrics, exact"


def test_c04_distribution_shift_invariance_and_scale_case():
    with criterion("C04 distribution: shift raw = 0; (1,2,3) x2 = 4.8165") as m:
        rng = np.random.default_rng(7)
        base = valid_dataset(rng, "shift-base", min_rows=10)
        for trial in range(20):
            b = float(rng.uniform(-50.0, 50.0))
            mr = MrSpec("SH", "shift", "affine_numeric", {"shift": b}, None)
            raw, _ = distribution_diversity(base, apply_mr(mr, base))
            assert raw <= 1e-9, (b, raw)
        scale_source = make_dataset({"x": [1.0, 2.0, 3.0]})
        mr = MrSpec("SC", "scale", "affine_numeric", {"scale": 2.0}, None)
        raw, _ = distribution_diversity(scale_source, apply_mr(mr, scale_source))
        assert abs(raw - 4.8165) <= 1e-3
        expected = 2.0 + 3.0 * (2.0 / 3.0) + math.sqrt(2.0 / 3.0)
        assert raw == pytest.approx(expected, abs=1e-12)
        m["detail"] = f"20 shifts exact-zero; scale case raw={raw:.6f}"


# ---------------------------------------------------------------------------
# C05 .. C07: anomaly, clustering, rules
# ---------------------------------------------------------------------------

def oracle_kth_nn(matrix, k):
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


def test_c05_knn_oracle_and_planted_outlier():
    with criterion("C05 kth-NN scores exact vs brute force; 10-sigma outlier") as m:
        rng = np.random.default_rng(55)
        for trial in range(100):
            ds = valid_dataset(rng, f"knn{trial}", min_rows=7)
            view = numeric_view(ds)
            k = min(5, view.n_rows - 1)
            report = knn_outliers(view, k=k, contamination=0.05)
            assert np.array_equal(report.scores, np.array(oracle_kth_nn(view.matrix, k)))
        found = 0
        for seed in range(20):
            cluster_rng = np.random.default_rng(seed)
            points = cluster_rng.normal(size=(60, 2))
            points = np.vstack([points, [10.0, 10.0]])
            ds = make_dataset({"x": points[:, 0].tolist(), "y": points[:, 1].tolist()})
            report = knn_outliers(numeric_view(ds, standardize=False), k=5,
                                  contamination=0.05)
            found += int(60 in report.indices)
        assert found == 20
        m["detail"] = "100 datasets exact; planted outlier 20/20"


def test_c06_kmeans_objective_and_two_blob_optimum():
    with criterion("C06 k-means: objective non-increasing; two-blob optimum") as m:
        rng = np.random.default_rng(66)
        for run in range(100):
            ds = valid_dataset(rng, f"km{run}")
            view = numeric_view(ds)
            summary = kmeans_summary(view, k=min(3, view.n_rows), seed=run)
            trace = summary.objective_trace
            assert all(b <= a for a, b in zip(trace, trace[1:]))
        xs = [0.0, 0.5, 0.0, 0.4, 0.2, 10.0, 10.5, 10.0, 10.4, 10.2]
        ys = [0.0, 0.0, 0.5, 0.4, 0.1, 10.0, 10.0, 10.5, 10.4, 10.1]
        view = numeric_view(make_dataset({"x": xs, "y": ys}), standardize=False)
        summary = kmeans_summary(view, k=2, seed=0)
        assert sorted(summary.sizes) == [5, 5]
        best = np.inf
        points = view.matrix
        for bits in range(1, 2**10 - 1):
            mask = np.array([(bits >> i) & 1 for i in range(10)], dtype=bool)
            total = 0.0
            for side in (mask, ~mask):
                group = points[side]
                total += float(((group - group.mean(axis=0)) ** 2).sum())
            best = min(best, total)
        assert abs(summary.objective_trace[-1] - best) <= 1e-9
        m["detail"] = f"100 traces monotone; blob objective {summary.objective_trace[-1]:.6f}"


def test_c07_cn2_fixture_and_termination():
    with criterion("C07 CN2: separable fixture 2 rules at 11/12; noise terminates") as m:
        f = [round(0.1 * i, 1) for i in range(10)] + [
            round(9.1 + 0.1 * i, 1) for i in range(10)
        ]
        labels = ["a"] * 10 + ["b"] * 10
        separable = make_dataset({"f": f, "cls": labels}, class_name="cls")
        ruleset = cn2_induce(separable)
        assert len(ruleset.rules) == 2
        assert all(r.accuracy == 11.0 / 12.0 for r in ruleset.rules)
        assert all(r.coverage >= 2 for r in ruleset.rules)
        noise = make_dataset(
            {"f": [float(i) for i in range(40)], "cls": ["a", "b"] * 20},
            class_name="cls",
        )
        noisy_rules = cn2_induce(noise)
        assert all(r.coverage >= 2 for r in noisy_rules.rules)
        m["detail"] = f"2 rules at Laplace {11 / 12:.4f}; noise gave {len(noisy_rules.rules)} rules"


# ---------------------------------------------------------------------------
# C08 .. C12: evaluation harness
# ---------------------------------------------------------------------------

def oracle_positions(order, km):
    row = {mr: i for i, mr in enumerate(km.mr_ids)}
    out = {}
    for j, mutant in enumerate(km.mutant_ids):
        out[mutant] = None
        for position, mr in enumerate(order, start=1):
            if km.kills[row[mr], j]:
                out[mutant] = position
                break
    return out


def test_c08_apfd_oracle_and_closed_forms():
    with criterion("C08 APFD: brute-force oracle exact; closed forms") as m:
        rng = np.random.default_rng(88)
        checked = 0
        while checked < 200:
            n = int(rng.integers(2, 13))
            mut = int(rng.integers(1, 13))
            km = synth_kill_matrix(n, mut, kill_prob=0.4, seed=int(rng.integers(1 << 30)))
            if not km.killable_mask.any():
                continue
            order = [km.mr_ids[i] for i in rng.permutation(n)]
            positions = [
                p for p in oracle_positions(order, km).values() if p is not None
            ]
            expected = 1.0 - sum(positions) / (n * len(positions)) + 1.0 / (2 * n)
            assert apfd(order, km) == expected
            checked += 1
        all_first = KillMatrix(
            tuple(f"MR{i}" for i in range(10)), ("m1", "m2", "m3"),
            np.array([[1, 1, 1]] + [[0, 0, 0]] * 9, dtype=bool), np.ones(10),
        )
        assert apfd(list(all_first.mr_ids), all_first) == 1.0 - 1.0 / 10 + 1.0 / 20
        all_last = KillMatrix(
            tuple(f"MR{i}" for i in range(10)), ("m1", "m2", "m3"),
            np.array([[0, 0, 0]] * 9 + [[1, 1, 1]], dtype=bool), np.ones(10),
        )
        assert apfd(list(all_last.mr_ids), all_last) == 1.0 / 20
        m["detail"] = "200 matrices exact; 0.95 and 1/(2n) closed forms"


def test_c09_time_to_fault_oracle():
    with criterion("C09 time-to-fault: fixture 20/25; brute-force oracle exact") as m:
        km = KillMatrix(
            ("MR1", "MR2"), ("m1", "m2"),
            np.array([[1, 0], [0, 1]], dtype=bool),
            np.array([10.0, 20.0]),
        )
        assert avg_time_to_fault(["MR1", "MR2"], km) == 20.0
        assert avg_time_to_fault(["MR2", "MR1"], km) == 25.0
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 200:
            n = int(rng.integers(2, 13))
            mut = int(rng.integers(1, 13))
            km = synth_kill_matrix(
                n, mut, kill_prob=0.4, times=(0.1, 4.0), seed=int(rng.integers(1 << 30))
            )
            if not km.killable_mask.any():
                continue
            order = [km.mr_ids[i] for i in rng.permutation(n)]
            row = {mr: i for i, mr in enumerate(km.mr_ids)}
            running = list(
                itertools.accumulate(float(km.exec_time[row[mr]]) for mr in order)
            )
            spent = [
                running[p - 1]
                for p in oracle_positions(order, km).values()
                if p is not None
            ]
            assert avg_time_to_fault(order, km) == float(np.mean(spent))
            checked += 1
        m["detail"] = "fixture exact; 200 matrices exact"


def test_c10_random_baseline_expectation():
    with criterion("C10 random baseline: exhaustive = analytic; seeded near it") as m:
        km = KillMatrix(
            ("MR1", "MR2", "MR3", "MR4"),
            ("m1", "m2", "m3", "m4"),
            np.array(
                [[1, 1, 0, 1], [0, 1, 1, 1], [0, 0, 1, 1], [0, 0, 1, 1]], dtype=bool
            ),
            np.ones(4),
        )
        report = random_baseline(km, exhaustive=True)
        assert report.runs == 24
        n = 4
        killers = [int(c) for c in km.kills.sum(axis=0)]
        for prefix, got in enumerate(report.curve, start=1):
            expected = (
                100
                * sum(
                    1 - Fraction(math.comb(n - k, prefix), math.comb(n, prefix))
                    for k in killers
                )
                / len(killers)
            )
            assert got == float(expected)
        two = KillMatrix(
            ("MR1", "MR2"), ("m1", "m2"),
            np.array([[1, 1], [1, 0]], dtype=bool), np.ones(2),
        )
        seeded = random_baseline(two, runs=100, seed=0)
        again = random_baseline(two, runs=100, seed=0)
        assert seeded.to_dict() == again.to_dict()
        assert abs(seeded.curve[0] - 75.0) <= 10.0
        m["detail"] = f"24 perms exact; seeded point {seeded.curve[0]:.1f} vs 75"


def test_c11_coverage_greedy():
    with criterion("C11 coverage greedy: worked fixture; step optimality") as m:
        cov = CoverageMatrix(
            ("A", "B", "C"), ("e1", "e2", "e3", "e4"),
            np.array([[1, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]], dtype=bool),
        )
        assert coverage_greedy(cov) == ("A", "B", "C")
        rng = np.random.default_rng(111)
        for trial in range(100):
            n = int(rng.integers(1, 11))
            e = int(rng.integers(1, 21))
            covers = rng.random((n, e)) < 0.3
            matrix = CoverageMatrix(
                tuple(f"MR{i}" for i in range(n)),
                tuple(f"e{j}" for j in range(e)),
                covers,
            )
            order = coverage_greedy(matrix)
            index = {mr: i for i, mr in enumerate(matrix.mr_ids)}
            uncovered = np.ones(e, dtype=bool)
            remaining = set(range(n))
            for mr in order:
                gain = int((covers[index[mr]] & uncovered).sum())
                best = max(int((covers[i] & uncovered).sum()) for i in remaining)
                if gain == 0:
                    break
                assert gain == best
                remaining.discard(index[mr])
                uncovered &= ~covers[index[mr]]
        m["detail"] = "fixture (A,B,C); 100 matrices step-optimal"


def test_c12_permutation_test_exact():
    with criterion("C12 permutation test: exact enumeration; p = 1/1024 case") as m:
        rng = np.random.default_rng(122)
        for trial in range(10):
            n = int(rng.integers(3, 13))
            diffs = (rng.integers(-8, 9, size=n) * 0.25).tolist()
            zeros = [0.0] * n
            for alternative in ("greater", "two-sided"):
                got = permutation_test(diffs, zeros, alternative=alternative)
                observed = sum(diffs) / n
                extreme = 0
                for signs in itertools.product((1.0, -1.0), repeat=n):
                    stat = sum(s * d for s, d in zip(signs, diffs)) / n
                    if alternative == "greater":
                        extreme += stat >= observed
                    else:
                        extreme += abs(stat) >= abs(observed)
                assert abs(got - extreme / 2**n) <= 1e-12
        b = [0.3] * 10
        a = [x + 1.0 for x in b]
        assert permutation_test(a, b, alternative="greater") == 1.0 / 1024
        m["detail"] = "10 cases vs full enumeration; shifted case 1/1024"


# ---------------------------------------------------------------------------
# C13 .. C14: end-to-end
# ---------------------------------------------------------------------------

def striped_subject(n_rows, name):
    """Ten nominal groups with numeric stripes and a purity ladder."""
    per_group = n_rows // 10
    flips = [0, 1, 2, 3, 4, 5, 6, 0, 1, 2]
    rows = []
    for r in range(per_group * 10):
        i, j = divmod(r, per_group)
        base = "b" if i >= 7 else "a"
        label = ("a" if base == "b" else "b") if j < flips[i] else base
        rows.append(
            (
                f"g{i}",
                float(i) + (j % 5) / 10.0,
                float((i * 7) % 10) + (j % 3) / 10.0,
                label,
            )
        )
    attrs = (
        Attribute("g", tuple(f"g{i}" for i in range(10))),
        Attribute("x"),
        Attribute("y"),
        Attribute("cls", ("a", "b")),
    )
    return from_rows(name, attrs, rows, class_index=3)


PIPELINE_CATALOG = """\
MR01 ident identity
MR02 shuffle permute_instances seed=1
MR03 swapcols permute_attributes seed=2
MR04 scale2 affine_numeric columns=x scale=2
MR05 shift7 affine_numeric columns=y shift=7
MR06 constcol add_uninformative_attribute value=1.0
MR07 dup40 duplicate_instances fraction=0.4 seed=3
MR08 thin30 remove_instances fraction=0.3 seed=4
MR09 swaplab relabel_classes map=a:b,b:a
MR10 noise120 add_data_points count=120 seed=5
MR11 noise240 add_data_points count=240 seed=6
"""


def test_c13_pipeline_determinism_and_runtime(tmp_path):
    with criterion("C13 pipeline: byte-identical reruns; < 60 s end to end") as m:
        start = time.perf_counter()
        dataset_path = str(tmp_path / "subject.csv")
        save_csv(striped_subject(500, "subject500"), dataset_path)
        catalog_path = tmp_path / "catalog.txt"
        catalog_path.write_text(PIPELINE_CATALOG)

        ranking = tmp_path / "ranking.json"
        prioritize = [
            "prioritize",
            "--dataset", dataset_path,
            "--class-column", "cls",
            "--catalog", str(catalog_path),
            "--metric", "distribution",
            "--seed", "0",
            "--out", str(ranking),
        ]
        assert main(prioritize) == 0
        ranking_bytes = ranking.read_bytes()
        assert main(prioritize) == 0
        assert ranking.read_bytes() == ranking_bytes

        kills = tmp_path / "kills.csv"
        times = tmp_path / "times.csv"
        synth = [
            "synth",
            "--mrs", "11",
            "--mutants", "40",
            "--kill-prob", "0.3",
            "--times", "0.5:2.0",
            "--seed", "9",
            "--out-kills", str(kills),
            "--out-times", str(times),
        ]
        assert main(synth) == 0
        kills_bytes = kills.read_bytes()
        assert main(synth) == 0
        assert kills.read_bytes() == kills_bytes

        report = tmp_path / "report.json"
        evaluate = [
            "evaluate",
            "--ranking", str(ranking),
            "--kills", str(kills),
            "--times", str(times),
            "--out", str(report),
        ]
        assert main(evaluate) == 0
        report_bytes = report.read_bytes()
        assert main(evaluate) == 0
        assert report.read_bytes() == report_bytes

        baseline = tmp_path / "baseline.json"
        baseline_argv = [
            "baseline", "random",
            "--kills", str(kills),
            "--times", str(times),
            "--runs", "100",
            "--seed", "0",
            "--out", str(baseline),
        ]
        assert main(baseline_argv) == 0
        baseline_bytes = baseline.read_bytes()
        assert main(baseline_argv) == 0
        assert baseline.read_bytes() == baseline_bytes

        coverage = tmp_path / "coverage.csv"
        lines = ["mr_id," + ",".join(f"e{j}" for j in range(12))]
        for i in range(11):
            lines.append(
                f"MR{i + 1:02d}," + ",".join("1" if j <= i else "0" for j in range(12))
            )
        coverage.write_text("\n".join(lines) + "\n")
        greedy_out = tmp_path / "greedy.json"
        assert main(
            ["baseline", "coverage", "--coverage", str(coverage),
             "--out", str(greedy_out)]
        ) == 0

        compare_out = tmp_path / "compare.json"
        assert main(
            [
                "compare",
                "--treatment", str(report),
                "--baseline", str(baseline),
                "--out", str(compare_out),
            ]
        ) == 0
        payload = json.loads(compare_out.read_text())
        assert len(payload["sizes"]) == 11

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        m["detail"] = f"full pipeline in {elapsed:.1f}s"


def test_c14_diversity_orderings_beat_random():
    with criterion("C14 each metric's ordering beats the random baseline") as m:
        source = striped_subject(150, "subject150")
        counts = [60, 120, 180, 240, 300, 360, 420, 480, 540, 600]
        mrs = [MrSpec("MR00", "ident", "identity", {}, None)]
        for k, count in enumerate(counts, start=1):
            mrs.append(
                MrSpec(
                    f"MR{k:02d}", f"noise{count}", "add_data_points",
                    {"count": count}, seed=100 + k,
                )
            )
        pairs = [MrPair(mr, source, apply_mr(mr, source)) for mr in mrs]
        params = MetricParams()

        orderings = {}
        for metric in ALL_METRICS:
            ranking = rank(normalize(score_catalog(pairs, metric, params)))
            orderings[metric] = list(ranking.ordering())

        ids = tuple(mr.id for mr in mrs)
        probs = np.array([0.05] + [0.1 + 0.8 * c / 600 for c in counts])
        metric_apfds = {metric: [] for metric in ALL_METRICS}
        random_apfds = []
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            kills = rng.random((11, 40)) < probs[:, None]
            km = KillMatrix(
                ids, tuple(f"m{j}" for j in range(40)), kills, np.ones(11)
            )
            for metric, order in orderings.items():
                metric_apfds[metric].append(apfd(order, km))
            random_apfds.append(random_baseline(km, runs=100, seed=seed).apfd)

        random_mean = float(np.mean(random_apfds))
        details = []
        for metric in ALL_METRICS:
            mean = float(np.mean(metric_apfds[metric]))
            p = permutation_test(
                metric_apfds[metric], random_apfds, alternative="greater"
            )
            assert mean >= random_mean, (metric, mean, random_mean)
            assert p < 0.05, (metric, p)
            details.append(f"{metric} {mean:.3f} (p={p:.2g})")
        m["detail"] = f"random {random_mean:.3f}; " + ", ".join(details)
