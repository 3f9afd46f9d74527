"""Tests for the kill-matrix evaluation harness."""

import dataclasses
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from mrprior import evaluation
from mrprior.errors import ApplicabilityError, InputError, InvariantError
from mrprior.evaluation import (
    CoverageMatrix,
    EffectiveSize,
    KillMatrix,
    apfd,
    avg_time_to_fault,
    coverage_greedy,
    detection_curve,
    effective_set_size,
    evaluate_ordering,
    first_kill_positions,
    load_coverage_matrix,
    load_kill_matrix,
    load_times,
    permutation_test,
    random_baseline,
    relative_improvement,
    report_from_dict,
    save_kill_matrix,
    synth_kill_matrix,
)


def km_from(kill_rows, times, mr_ids=None, mutant_ids=None):
    kills = np.array(kill_rows, dtype=bool)
    n, m = kills.shape
    return KillMatrix(
        mr_ids=tuple(mr_ids or (f"MR{i + 1}" for i in range(n))),
        mutant_ids=tuple(mutant_ids or (f"m{j + 1}" for j in range(m))),
        kills=kills,
        exec_time=np.array(times, dtype=float),
    )


def identity_2x2():
    return km_from([[1, 0], [0, 1]], [10.0, 20.0])


# --- independent oracles -----------------------------------------------------

def oracle_positions(order, km):
    """Re-derive first-killer positions with plain scans."""
    row = {mr: i for i, mr in enumerate(km.mr_ids)}
    out = {}
    for j, mutant in enumerate(km.mutant_ids):
        out[mutant] = None
        for position, mr in enumerate(order, start=1):
            if km.kills[row[mr], j]:
                out[mutant] = position
                break
    return out


def oracle_apfd(order, km):
    positions = [p for p in oracle_positions(order, km).values() if p is not None]
    n = len(km.mr_ids)
    m = len(positions)
    return 1.0 - sum(positions) / (n * m) + 1.0 / (2 * n)


def oracle_avg_time(order, km):
    row = {mr: i for i, mr in enumerate(km.mr_ids)}
    running = list(itertools.accumulate(float(km.exec_time[row[mr]]) for mr in order))
    spent = []
    for mutant, position in oracle_positions(order, km).items():
        if position is not None:
            spent.append(running[position - 1])
    return float(np.mean(spent))


def expected_random_curve(km):
    """Exact expectation of the random-ordering curve, per prefix size.

    A mutant with k killers among n MRs is missed by a random prefix of m
    MRs with probability C(n-k, m)/C(n, m).
    """
    n = len(km.mr_ids)
    killers = [int(c) for c in km.kills.sum(axis=0) if c > 0]
    points = []
    for m in range(1, n + 1):
        hit = sum(
            1 - Fraction(math.comb(n - k, m), math.comb(n, m)) for k in killers
        )
        points.append(100 * hit / len(killers))
    return points


def exact_sign_flip_p(diffs, alternative):
    n = len(diffs)
    observed = sum(diffs) / n
    extreme = 0
    for signs in itertools.product((1.0, -1.0), repeat=n):
        stat = sum(s * d for s, d in zip(signs, diffs)) / n
        if alternative == "greater":
            extreme += stat >= observed
        else:
            extreme += abs(stat) >= abs(observed)
    return extreme / 2**n


def oracle_permutation_test(a, b, alternative="greater", iterations=10000, seed=0):
    """The single-pair sign-flip test as it was before pairs shared one null."""
    left = np.asarray(a, dtype=float)
    right = np.asarray(b, dtype=float)
    diffs = left - right
    n = diffs.size
    observed = float(np.ones(n) @ diffs / n)

    def count_extreme(stats):
        if alternative == "greater":
            return int((stats >= observed).sum())
        return int((np.abs(stats) >= abs(observed)).sum())

    if n <= 20:
        total = 1 << n
        extreme = 0
        bit_positions = np.arange(n, dtype=np.uint64)
        chunk = 1 << 16
        for start in range(0, total, chunk):
            ids = np.arange(start, min(start + chunk, total), dtype=np.uint64)
            signs = 1.0 - 2.0 * ((ids[:, None] >> bit_positions) & 1)
            stats = signs @ diffs / n
            if start == 0:
                observed = float(stats[0])
            extreme += count_extreme(stats)
        return extreme / total
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=(iterations, n)) * 2.0 - 1.0
    extreme = count_extreme(signs @ diffs / n)
    return (extreme + 1) / (iterations + 1)


def oracle_one_pass(perm, km):
    """One ordering (MR indices) evaluated as before orderings ran as blocks:
    cumulative kills per prefix and argmax first kills.  Returns curve points,
    detection matrix, APFD and time to fault."""
    n = len(km.mr_ids)
    killed = np.cumsum(km.kills[list(perm)].astype(int), axis=0) > 0
    first = np.where(killed[-1], killed.argmax(axis=0) + 1, 0)
    detection = killed.astype(float)
    killable = km.killable_mask
    n_killable = int(killable.sum())
    curve = tuple(float(100.0 * k / n_killable) for k in detection[:, killable].sum(axis=1))
    found = first[first > 0]
    apfd_value = 1.0 - int(found.sum()) / (n * found.size) + 1.0 / (2 * n)
    time = float(np.mean(np.cumsum(km.exec_time[list(perm)])[found - 1]))
    return curve, detection, apfd_value, time


def oracle_mean(perms, km):
    """Average oracle_one_pass over orderings as the report does: the curve
    summed in run order, APFD and time to fault by np.mean over the runs."""
    curve_sum = np.zeros(len(km.mr_ids))
    detection_sum = np.zeros(km.kills.shape)
    apfds = []
    times = []
    for perm in perms:
        curve, detection, apfd_value, time = oracle_one_pass(perm, km)
        curve_sum += np.array(curve)
        detection_sum += detection
        apfds.append(apfd_value)
        times.append(time)
    return (
        tuple(float(p) for p in curve_sum / len(perms)),
        detection_sum / len(perms),
        float(np.mean(apfds)),
        float(np.mean(times)),
    )


def oracle_random_baseline(km, runs, seed):
    """Evaluate each seed + r ordering on its own and average as the report does."""
    n = len(km.mr_ids)
    return oracle_mean([np.random.default_rng(seed + r).permutation(n) for r in range(runs)], km)


# --- loaders -----------------------------------------------------------------

class TestLoaders:
    def test_save_load_round_trip(self, tmp_path):
        km = synth_kill_matrix(6, 9, kill_prob=0.4, times=(0.5, 3.0), seed=7)
        kills_path = str(tmp_path / "kills.csv")
        times_path = str(tmp_path / "times.csv")
        save_kill_matrix(km, kills_path, times_path)
        loaded = load_kill_matrix(kills_path, times_path)
        assert loaded.mr_ids == km.mr_ids
        assert loaded.mutant_ids == km.mutant_ids
        assert np.array_equal(loaded.kills, km.kills)
        assert np.array_equal(loaded.exec_time, km.exec_time)

    def test_comment_lines_are_skipped(self, tmp_path):
        km = identity_2x2()
        kills_path = str(tmp_path / "k.csv")
        times_path = str(tmp_path / "t.csv")
        save_kill_matrix(km, kills_path, times_path, comment="# generated by hand")
        loaded = load_kill_matrix(kills_path, times_path)
        assert np.array_equal(loaded.kills, km.kills)

    def test_worked_example(self, tmp_path):
        kills_path = tmp_path / "k.csv"
        times_path = tmp_path / "t.csv"
        kills_path.write_text("mr_id,m1,m2\nMR1,1,0\nMR2,0,1\n")
        times_path.write_text("mr_id,exec_seconds\nMR1,10\nMR2,20\n")
        km = load_kill_matrix(str(kills_path), str(times_path))
        assert km.unkillable_ids == ()
        assert list(km.exec_time) == [10.0, 20.0]

    def test_all_zero_column_flagged_unkillable(self):
        km = km_from([[1, 0], [1, 0]], [1.0, 1.0])
        assert km.unkillable_ids == ("m2",)

    def test_missing_time_is_named(self, tmp_path):
        kills_path = tmp_path / "k.csv"
        times_path = tmp_path / "t.csv"
        kills_path.write_text("mr_id,m1\nMR1,1\nMR2,1\n")
        times_path.write_text("mr_id,exec_seconds\nMR1,10\n")
        with pytest.raises(InputError, match="MR2"):
            load_kill_matrix(str(kills_path), str(times_path))

    def test_unknown_time_id_rejected(self, tmp_path):
        kills_path = tmp_path / "k.csv"
        times_path = tmp_path / "t.csv"
        kills_path.write_text("mr_id,m1\nMR1,1\n")
        times_path.write_text("mr_id,exec_seconds\nMR1,10\nMRx,5\n")
        with pytest.raises(InputError, match="MRx"):
            load_kill_matrix(str(kills_path), str(times_path))

    def test_cell_and_shape_errors_name_lines(self, tmp_path):
        bad_cell = tmp_path / "bad.csv"
        bad_cell.write_text("mr_id,m1\nMR1,2\n")
        with pytest.raises(InputError, match="line 2"):
            load_kill_matrix(str(bad_cell), str(bad_cell))
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("mr_id,m1,m2\nMR1,1\n")
        with pytest.raises(InputError, match="line 2"):
            load_coverage_matrix(str(ragged))

    def test_header_and_empty_errors(self, tmp_path):
        bad_header = tmp_path / "h.csv"
        bad_header.write_text("id,m1\nMR1,1\n")
        with pytest.raises(InputError, match="mr_id"):
            load_coverage_matrix(str(bad_header))
        empty = tmp_path / "e.csv"
        empty.write_text("")
        with pytest.raises(InputError, match="empty"):
            load_coverage_matrix(str(empty))
        with pytest.raises(InputError):
            load_times(str(tmp_path / "missing.csv"))

    def test_times_validation(self, tmp_path):
        dup = tmp_path / "dup.csv"
        dup.write_text("mr_id,exec_seconds\nMR1,1\nMR1,2\n")
        with pytest.raises(InputError, match="duplicate"):
            load_times(str(dup))
        negative = tmp_path / "neg.csv"
        negative.write_text("mr_id,exec_seconds\nMR1,-3\n")
        with pytest.raises(InputError, match=">= 0"):
            load_times(str(negative))
        word = tmp_path / "word.csv"
        word.write_text("mr_id,exec_seconds\nMR1,fast\n")
        with pytest.raises(InputError, match="number"):
            load_times(str(word))


class TestMatrixValidation:
    def test_kill_matrix_rejects_bad_shapes(self):
        with pytest.raises(InputError):
            KillMatrix(("A",), ("m1", "m2"), np.zeros((1, 1), dtype=bool), np.ones(1))
        with pytest.raises(InputError):
            KillMatrix(("A", "A"), ("m1",), np.zeros((2, 1), dtype=bool), np.ones(2))
        with pytest.raises(InputError):
            KillMatrix(("A",), ("m1",), np.zeros((1, 1), dtype=bool), np.array([-1.0]))

    def test_coverage_matrix_rejects_bad_shapes(self):
        with pytest.raises(InputError):
            CoverageMatrix(("A",), (), np.zeros((1, 0), dtype=bool))
        with pytest.raises(InputError):
            CoverageMatrix(("A",), ("e1", "e1"), np.zeros((1, 2), dtype=bool))

    @pytest.mark.parametrize(
        "mr_ids, column_ids, shape, message",
        [
            (("A", "A"), ("c1",), (2, 1), "duplicate MR ids in {matrix}"),
            (("A",), ("c1", "c1"), (1, 2), "duplicate {column} ids in {matrix}"),
            ((), ("c1",), (0, 1), "{matrix} needs at least one MR and one {column}"),
            (("A",), (), (1, 0), "{matrix} needs at least one MR and one {column}"),
            (("A",), ("c1",), (2, 1), "{matrix} shape does not match its id lists"),
        ],
    )
    def test_both_matrices_word_their_id_errors(self, mr_ids, column_ids, shape, message):
        cells = np.zeros(shape, dtype=bool)
        with pytest.raises(InputError) as kill:
            KillMatrix(mr_ids, column_ids, cells, np.ones(len(mr_ids)))
        with pytest.raises(InputError) as cover:
            CoverageMatrix(mr_ids, column_ids, cells)
        assert str(kill.value) == message.format(matrix="kill matrix", column="mutant")
        assert str(cover.value) == message.format(matrix="coverage matrix", column="element")


# --- curves and scalar measures ---------------------------------------------

class TestDetectionCurve:
    def test_identity_matrix_example(self):
        curve = detection_curve(["MR1", "MR2"], identity_2x2())
        assert curve == (50.0, 100.0)

    def test_first_mr_kills_everything(self):
        km = km_from([[1, 1], [0, 0]], [1.0, 1.0])
        assert detection_curve(["MR1", "MR2"], km) == (100.0, 100.0)

    def test_three_mr_worked_example(self):
        km = km_from(
            [[1, 0], [1, 0], [0, 1]], [1.0, 1.0, 1.0],
            mr_ids=("MR1", "MR2", "MR3"),
        )
        curve = detection_curve(["MR2", "MR1", "MR3"], km)
        assert curve == (50.0, 50.0, 100.0)

    def test_unkillable_mutants_leave_denominator(self):
        km = km_from([[1, 0, 0], [0, 1, 0]], [1.0, 1.0])
        curve = detection_curve(["MR1", "MR2"], km)
        assert curve == (50.0, 100.0)
        assert km.unkillable_ids == ("m3",)

    def test_no_killable_mutants_curve_is_flat(self):
        km = km_from([[0], [0]], [1.0, 1.0])
        assert detection_curve(["MR1", "MR2"], km) == (100.0, 100.0)

    def test_final_point_is_100_without_unkillables(self):
        rng = np.random.default_rng(2)
        for trial in range(50):
            km = synth_kill_matrix(
                int(rng.integers(2, 9)), int(rng.integers(1, 9)),
                kill_prob=0.5, seed=trial,
            )
            if km.unkillable_ids:
                continue
            order = [km.mr_ids[i] for i in rng.permutation(len(km.mr_ids))]
            points = detection_curve(order, km)
            assert points[-1] == 100.0
            assert all(b >= a for a, b in zip(points, points[1:]))

    def test_rejects_non_permutations(self):
        km = identity_2x2()
        with pytest.raises(InputError):
            detection_curve(["MR1"], km)
        with pytest.raises(InputError):
            detection_curve(["MR1", "MR1"], km)
        with pytest.raises(InputError):
            detection_curve(["MR1", "MRx"], km)

    def test_curve_type_guards(self):
        report = evaluate_ordering(["MR1", "MR2"], identity_2x2())
        with pytest.raises(InvariantError, match="non-decreasing"):
            dataclasses.replace(report, curve=(60.0, 50.0))
        with pytest.raises(InvariantError, match="at least one point"):
            dataclasses.replace(report, curve=(), detection=np.zeros((0, 2)))


class TestApfd:
    def test_all_first_closed_form(self):
        rows = [[1, 1, 1]] + [[0, 0, 0]] * 9
        km = km_from(rows, [1.0] * 10)
        order = list(km.mr_ids)
        assert apfd(order, km) == 1.0 - 1.0 / 10 + 1.0 / 20

    def test_all_last_closed_form(self):
        rows = [[0, 0, 0]] * 9 + [[1, 1, 1]]
        km = km_from(rows, [1.0] * 10)
        order = list(km.mr_ids)
        assert apfd(order, km) == 1.0 / 20

    def test_position_example(self):
        # n=5, positions (1, 3): 1 - 4/10 + 1/10 = 0.70
        rows = [[1, 0], [0, 0], [0, 1], [0, 0], [0, 0]]
        km = km_from(rows, [1.0] * 5)
        assert apfd(list(km.mr_ids), km) == pytest.approx(0.70, abs=1e-12)

    def test_matches_bruteforce_oracle_exactly(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 200:
            n = int(rng.integers(2, 13))
            m = int(rng.integers(1, 13))
            km = synth_kill_matrix(n, m, kill_prob=0.4, seed=int(rng.integers(1 << 30)))
            if not km.killable_mask.any():
                continue
            order = [km.mr_ids[i] for i in rng.permutation(n)]
            assert apfd(order, km) == oracle_apfd(order, km)
            assert first_kill_positions(order, km) == oracle_positions(order, km)
            checked += 1

    def test_bounds(self):
        rng = np.random.default_rng(13)
        for trial in range(50):
            km = synth_kill_matrix(6, 8, kill_prob=0.5, seed=trial)
            if not km.killable_mask.any():
                continue
            order = [km.mr_ids[i] for i in rng.permutation(6)]
            value = apfd(order, km)
            # extremes as the formula itself computes them: all-last, all-first
            assert 1.0 / 12 <= value <= 1.0 - 1.0 / 6 + 1.0 / 12

    def test_undefined_without_killable_mutants(self):
        km = km_from([[0], [0]], [1.0, 1.0])
        with pytest.raises(ApplicabilityError):
            apfd(["MR1", "MR2"], km)


class TestAvgTimeToFault:
    def test_worked_orders(self):
        km = identity_2x2()
        assert avg_time_to_fault(["MR1", "MR2"], km) == 20.0
        assert avg_time_to_fault(["MR2", "MR1"], km) == 25.0

    def test_single_mr(self):
        km = km_from([[1]], [7.0])
        assert avg_time_to_fault(["MR1"], km) == 7.0

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 200:
            n = int(rng.integers(2, 13))
            m = int(rng.integers(1, 13))
            km = synth_kill_matrix(
                n, m, kill_prob=0.4, times=(0.1, 5.0), seed=int(rng.integers(1 << 30))
            )
            if not km.killable_mask.any():
                continue
            order = [km.mr_ids[i] for i in rng.permutation(n)]
            assert avg_time_to_fault(order, km) == oracle_avg_time(order, km)
            checked += 1

    def test_killer_first_beats_reverse(self):
        rng = np.random.default_rng(19)
        for trial in range(20):
            kills = rng.random((5, 6)) < 0.3
            kills[0] = True  # one MR kills everything
            km = km_from(kills, rng.uniform(0.5, 2.0, size=5))
            forward = avg_time_to_fault(list(km.mr_ids), km)
            backward = avg_time_to_fault(list(reversed(km.mr_ids)), km)
            assert forward <= backward

    def test_undefined_without_killable_mutants(self):
        km = km_from([[0]], [1.0])
        with pytest.raises(ApplicabilityError):
            avg_time_to_fault(["MR1"], km)


class TestEffectiveSetSize:
    def test_worked_examples(self):
        assert effective_set_size((50.0, 100.0), 5.0) == 2
        assert effective_set_size((90.0, 92.0, 93.0), 5.0) == 1
        assert effective_set_size(
            (40.0, 80.0, 81.0, 81.5), 2.5
        ) == 2

    def test_fallback_to_full_size(self):
        curve = (10.0, 40.0, 70.0, 100.0)
        assert effective_set_size(curve, 5.0) == 4

    def test_single_point_curve(self):
        assert effective_set_size((100.0,), 5.0) == 1

    def test_threshold_must_be_positive(self):
        with pytest.raises(InputError):
            effective_set_size((50.0, 100.0), 0.0)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_threshold_must_be_finite(self, threshold):
        with pytest.raises(InputError, match="must be finite"):
            effective_set_size((50.0, 100.0), threshold)

    def test_size_always_in_range(self):
        rng = np.random.default_rng(23)
        for trial in range(50):
            n = int(rng.integers(1, 12))
            curve = tuple(sorted(rng.uniform(0, 100, size=n)))
            for threshold in (5.0, 2.5):
                assert 1 <= effective_set_size(curve, threshold) <= n


class TestEvalReport:
    def test_single_report_fields(self):
        km = identity_2x2()
        report = evaluate_ordering(["MR2", "MR1"], km)
        assert report.kind == "single"
        assert report.ordering == ("MR2", "MR1")
        assert report.curve == (50.0, 100.0)
        assert report.effective_sizes == (EffectiveSize(5.0, 2), EffectiveSize(2.5, 2))
        assert report.first_positions == {"m1": 2, "m2": 1}
        assert report.unkillable == ()

    def test_round_trip_through_dict(self):
        km = synth_kill_matrix(5, 7, kill_prob=0.5, times=(0.2, 2.0), seed=3)
        report = evaluate_ordering(list(km.mr_ids), km)
        data = json.loads(json.dumps(report.to_dict()))
        back = report_from_dict(data)
        assert back.curve == report.curve
        assert back.apfd == report.apfd
        assert back.effective_sizes == report.effective_sizes
        assert np.array_equal(back.detection, report.detection)

    def test_malformed_reports_rejected(self):
        km = identity_2x2()
        report = evaluate_ordering(["MR1", "MR2"], km)
        broken = report.to_dict()
        broken["curve"] = [100.0, 50.0]
        with pytest.raises(InputError):
            report_from_dict(broken)
        missing = report.to_dict()
        del missing["apfd"]
        with pytest.raises(InputError):
            report_from_dict(missing)


    @pytest.mark.parametrize("field", ["curve", "detection", "apfd", "avg_time_to_fault"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, field, value):
        km = synth_kill_matrix(4, 6, kill_prob=0.5, seed=1)
        data = json.loads(json.dumps(evaluate_ordering(list(km.mr_ids), km).to_dict()))
        if field == "curve":
            data["curve"][0] = value
        elif field == "detection":
            data["detection"][0][0] = value
        else:
            data[field] = value
        with pytest.raises(InputError, match="malformed evaluation report: .* must be finite"):
            report_from_dict(data)

    def test_detection_shape_must_match_curve_and_mutants(self):
        km = synth_kill_matrix(4, 6, kill_prob=0.5, seed=1)
        report = evaluate_ordering(list(km.mr_ids), km).to_dict()
        short_rows = dict(report, detection=report["detection"][:2])
        with pytest.raises(InputError, match="detection has shape"):
            report_from_dict(short_rows)
        short_cols = dict(report, detection=[row[:-1] for row in report["detection"]])
        with pytest.raises(InputError, match="detection has shape"):
            report_from_dict(short_cols)


def reference_layout(report):
    """The report layout that EvalReport.to_dict once wrote out by hand."""
    return {
        "kind": report.kind,
        "ordering": list(report.ordering) if report.ordering is not None else None,
        "curve": list(report.curve),
        "apfd": report.apfd,
        "effective_sizes": [
            {"threshold": e.threshold, "size": e.size} for e in report.effective_sizes
        ],
        "avg_time_to_fault": report.avg_time_to_fault,
        "mutant_ids": list(report.mutant_ids),
        "unkillable": list(report.unkillable),
        "detection": [[float(v) for v in row] for row in report.detection],
        "first_positions": report.first_positions,
        "runs": report.runs,
        "seed": report.seed,
    }


class TestReportExport:
    def matrices(self):
        with_unkillable = km_from([[1, 0, 0, 1], [0, 1, 0, 1], [1, 1, 0, 0]], [0.5, 2.0, 1.0])
        all_killable = synth_kill_matrix(5, 12, kill_prob=0.6, times=(0.1, 3.0), seed=4)
        assert with_unkillable.unkillable_ids and not all_killable.unkillable_ids
        return [with_unkillable, all_killable]

    @pytest.mark.parametrize("mode", ["single", "seeded", "exhaustive"])
    def test_to_dict_keeps_the_reference_layout(self, mode):
        for km in self.matrices():
            if mode == "single":
                report = evaluate_ordering(list(reversed(km.mr_ids)), km, (5.0, 2.5, 1.0))
            else:
                report = random_baseline(km, runs=30, seed=7, exhaustive=mode == "exhaustive")
            exported = report.to_dict()
            assert exported == reference_layout(report)
            # the same Python types, so the JSON text is the same too
            assert json.dumps(exported, sort_keys=True) == json.dumps(
                reference_layout(report), sort_keys=True
            )
            assert report_from_dict(json.loads(json.dumps(exported))).to_dict() == exported


# --- baselines ---------------------------------------------------------------

class TestRandomBaseline:
    def exhaustive_km(self):
        # killer counts 1..4 across four mutants
        kills = [
            [1, 1, 0, 1],
            [0, 1, 1, 1],
            [0, 0, 1, 1],
            [0, 0, 1, 1],
        ]
        return km_from(kills, [1.0] * 4)

    def test_exhaustive_matches_analytic_curve_exactly(self):
        km = self.exhaustive_km()
        report = random_baseline(km, exhaustive=True)
        assert report.runs == 24
        expected = expected_random_curve(km)
        for got, want in zip(report.curve, expected):
            assert got == float(want)

    def test_exhaustive_matches_permutation_means(self):
        km = self.exhaustive_km()
        report = random_baseline(km, exhaustive=True)
        apfds = []
        times = []
        for perm in itertools.permutations(km.mr_ids):
            apfds.append(apfd(list(perm), km))
            times.append(avg_time_to_fault(list(perm), km))
        assert report.apfd == float(np.mean(apfds))
        assert report.avg_time_to_fault == float(np.mean(times))

    def test_seeded_mode_is_deterministic(self):
        km = synth_kill_matrix(6, 10, kill_prob=0.4, seed=5)
        first = random_baseline(km, runs=20, seed=9)
        second = random_baseline(km, runs=20, seed=9)
        assert first.to_dict() == second.to_dict()
        third = random_baseline(km, runs=20, seed=10)
        assert third.to_dict() != first.to_dict()

    def test_single_run_equals_that_ordering(self):
        km = synth_kill_matrix(7, 9, kill_prob=0.5, seed=2)
        baseline = random_baseline(km, runs=1, seed=31)
        drawn = [km.mr_ids[i] for i in np.random.default_rng(31).permutation(7)]
        single = evaluate_ordering(drawn, km)
        assert baseline.curve == single.curve
        assert baseline.apfd == single.apfd
        assert baseline.avg_time_to_fault == single.avg_time_to_fault

    def test_order_invariant_matrix(self):
        km = km_from(np.ones((4, 3)), [1.0] * 4)
        report = random_baseline(km, runs=10, seed=0)
        assert report.curve == (100.0, 100.0, 100.0, 100.0)
        assert report.apfd == 1.0 - 1.0 / 4 + 1.0 / 8

    def test_two_mr_expectation_within_ten_points(self):
        # expectation at prefix 1 is 75: (100 + 50) / 2
        km = km_from([[1, 1], [1, 0]], [1.0, 1.0])
        report = random_baseline(km, runs=100, seed=0)
        assert abs(report.curve[0] - 75.0) <= 10.0
        assert report.curve[1] == 100.0

    def test_kind_and_metadata(self):
        km = identity_2x2()
        report = random_baseline(km, runs=4, seed=1)
        assert report.kind == "averaged"
        assert report.ordering is None
        assert report.runs == 4
        assert report.seed == 1

    def test_input_guards(self):
        km = identity_2x2()
        with pytest.raises(InputError):
            random_baseline(km, runs=0)
        big = synth_kill_matrix(9, 3, kill_prob=1.0, seed=0)
        with pytest.raises(InputError):
            random_baseline(big, exhaustive=True)
        dead = km_from([[0], [0]], [1.0, 1.0])
        with pytest.raises(ApplicabilityError):
            random_baseline(dead, runs=5)


class TestRandomBaselineBlocks:
    """Run blocks must reproduce the one-run-at-a-time loop bit for bit."""

    def matrices(self):
        # unkillable mutants, uneven kill rates, zero and uneven times
        rng = np.random.default_rng(53)
        sparse = rng.random((12, 40)) < 0.15
        sparse[:, [3, 17, 39]] = False
        times = rng.uniform(0.0, 3.0, size=12)
        times[[0, 5]] = 0.0
        dense = synth_kill_matrix(7, 25, kill_prob=[0.9, 0.1, 0.5, 0.0, 0.3, 0.7, 0.2],
                                  times=(0.1, 9.0), seed=8)
        # fewer killing pairs than MRs: blocks are sized by the MR count
        scarce = np.zeros((30, 6), dtype=bool)
        scarce[[2, 9, 9, 21], [0, 1, 4, 4]] = True
        return [
            km_from(sparse, times),
            km_from(sparse, [0.0] * 12),
            dense,
            km_from(scarce, rng.uniform(0.0, 2.0, size=30)),
        ]

    @pytest.mark.parametrize("runs_per_block", [None, 4])
    def test_bits_match_loop_oracle(self, monkeypatch, runs_per_block):
        for km in self.matrices():
            width = max(int(km.kills.sum()), len(km.mr_ids))
            if runs_per_block is not None:
                monkeypatch.setattr(evaluation, "RUN_BLOCK_ELEMENTS", width * runs_per_block)
            block = max(1, evaluation.RUN_BLOCK_ELEMENTS // width)
            for runs in sorted({1, max(1, block - 1), block, block + 1, 1000}):
                report = random_baseline(km, runs=runs, seed=17)
                curve, detection, apfd_mean, time_mean = oracle_random_baseline(km, runs, 17)
                assert report.curve == curve, (runs, block)
                assert np.array_equal(report.detection, detection), (runs, block)
                assert report.apfd == apfd_mean, (runs, block)
                assert report.avg_time_to_fault == time_mean, (runs, block)
                assert report.runs == runs

    def test_block_width_counts_mrs(self, monkeypatch):
        km = self.matrices()[3]
        assert int(km.kills.sum()) < len(km.mr_ids)
        sizes = []
        real = evaluation._first_kills

        def recording(perms, groups):
            sizes.append(len(perms))
            return real(perms, groups)

        monkeypatch.setattr(evaluation, "RUN_BLOCK_ELEMENTS", len(km.mr_ids) * 4)
        monkeypatch.setattr(evaluation, "_first_kills", recording)
        random_baseline(km, runs=10, seed=3)
        assert sizes == [4, 4, 2]

    def test_single_ordering_matches_oracle(self):
        rng = np.random.default_rng(61)
        for km in self.matrices():
            for _ in range(20):
                perm = rng.permutation(len(km.mr_ids))
                order = [km.mr_ids[i] for i in perm]
                report = evaluate_ordering(order, km)
                curve, detection, apfd_value, time = oracle_one_pass(perm, km)
                assert report.curve == curve
                assert report.detection.dtype == detection.dtype
                assert np.array_equal(report.detection, detection)
                assert report.apfd == apfd_value == apfd(order, km)
                assert report.avg_time_to_fault == time == avg_time_to_fault(order, km)
                assert report.first_positions == oracle_positions(order, km)
                assert detection_curve(order, km) == report.curve

    def test_exhaustive_matches_loop_over_permutations(self, monkeypatch):
        km = self.matrices()[2]
        monkeypatch.setattr(evaluation, "RUN_BLOCK_ELEMENTS", int(km.kills.sum()) * 7)
        report = random_baseline(km, exhaustive=True)
        curve, detection, apfd_mean, time_mean = oracle_mean(list(itertools.permutations(range(7))), km)
        assert report.runs == 5040
        assert report.curve == curve
        assert np.array_equal(report.detection, detection)
        assert report.apfd == apfd_mean
        assert report.avg_time_to_fault == time_mean


class TestCoverageGreedy:
    def test_worked_fixture(self):
        cov = CoverageMatrix(
            mr_ids=("A", "B", "C"),
            element_ids=("e1", "e2", "e3", "e4"),
            covers=np.array(
                [[1, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]], dtype=bool
            ),
        )
        assert coverage_greedy(cov) == ("A", "B", "C")

    def test_total_cover_first_then_leftovers(self):
        cov = CoverageMatrix(
            mr_ids=("A", "B", "C"),
            element_ids=("e1", "e2"),
            covers=np.array([[0, 1], [1, 1], [1, 0]], dtype=bool),
        )
        # B covers everything; leftovers A and C tie on total, catalog order
        assert coverage_greedy(cov) == ("B", "A", "C")

    def test_identical_coverage_keeps_catalog_order(self):
        cov = CoverageMatrix(
            mr_ids=("A", "B"),
            element_ids=("e1",),
            covers=np.array([[1], [1]], dtype=bool),
        )
        assert coverage_greedy(cov) == ("A", "B")

    def test_stalled_leftovers_sorted_by_total_coverage(self):
        cov = CoverageMatrix(
            mr_ids=("A", "B", "C", "D"),
            element_ids=("e1", "e2", "e3", "e4"),
            covers=np.array(
                [
                    [1, 1, 0, 0],
                    [1, 1, 1, 0],
                    [0, 0, 0, 0],
                    [1, 0, 0, 0],
                ],
                dtype=bool,
            ),
        )
        # after B then nothing new: leftovers A (2), D (1), C (0)
        assert coverage_greedy(cov) == ("B", "A", "D", "C")

    def test_greedy_step_optimality(self):
        rng = np.random.default_rng(29)
        for trial in range(100):
            n = int(rng.integers(1, 11))
            e = int(rng.integers(1, 21))
            covers = rng.random((n, e)) < 0.3
            cov = CoverageMatrix(
                tuple(f"MR{i}" for i in range(n)),
                tuple(f"e{j}" for j in range(e)),
                covers,
            )
            order = coverage_greedy(cov)
            index = {mr: i for i, mr in enumerate(cov.mr_ids)}
            uncovered = np.ones(e, dtype=bool)
            for mr in order:
                gain = int((covers[index[mr]] & uncovered).sum())
                best = max(
                    int((covers[index[other]] & uncovered).sum())
                    for other in order
                    if index[other] not in
                    [index[m] for m in order[: order.index(mr)]]
                )
                if gain == 0:
                    break
                assert gain == best
                uncovered &= ~covers[index[mr]]

    def test_greedy_prefix_close_to_optimal(self):
        rng = np.random.default_rng(31)
        for trial in range(20):
            n, e = 6, 10
            covers = rng.random((n, e)) < 0.35
            cov = CoverageMatrix(
                tuple(f"MR{i}" for i in range(n)),
                tuple(f"e{j}" for j in range(e)),
                covers,
            )
            coverable = covers.any(axis=0)
            if not coverable.any():
                continue
            order = coverage_greedy(cov)
            index = {mr: i for i, mr in enumerate(cov.mr_ids)}
            uncovered = coverable.copy()
            greedy_len = 0
            for mr in order:
                if not uncovered.any():
                    break
                greedy_len += 1
                uncovered &= ~covers[index[mr]]
            optimal = None
            for size in range(1, n + 1):
                for subset in itertools.combinations(range(n), size):
                    union = covers[list(subset)].any(axis=0)
                    if np.array_equal(union & coverable, coverable):
                        optimal = size
                        break
                if optimal is not None:
                    break
            bound = optimal * (1.0 + math.log(int(coverable.sum())))
            assert greedy_len <= max(optimal, math.floor(bound))


# --- significance ------------------------------------------------------------

class TestPermutationTest:
    def test_equal_samples_give_p_one(self):
        a = [0.6, 0.7, 0.8, 0.9]
        assert permutation_test(a, list(a)) == 1.0

    def test_unit_shift_ten_pairs(self):
        b = [0.5] * 10
        a = [x + 1.0 for x in b]
        assert permutation_test(a, b, alternative="greater") == 1.0 / 1024

    def test_exact_mode_matches_enumeration(self):
        rng = np.random.default_rng(37)
        for trial in range(8):
            n = int(rng.integers(3, 13))
            # dyadic differences keep every partial sum exact
            diffs = rng.integers(-8, 9, size=n) * 0.25
            a = diffs.tolist()
            b = [0.0] * n
            for alternative in ("greater", "two-sided"):
                got = permutation_test(a, b, alternative=alternative)
                want = exact_sign_flip_p(diffs.tolist(), alternative)
                assert abs(got - want) <= 1e-12

    def test_two_sided_is_symmetric(self):
        rng = np.random.default_rng(41)
        a = (rng.integers(-4, 5, size=8) * 0.5).tolist()
        b = (rng.integers(-4, 5, size=8) * 0.5).tolist()
        assert permutation_test(a, b, alternative="two-sided") == permutation_test(
            b, a, alternative="two-sided"
        )

    def test_monte_carlo_mode(self):
        rng = np.random.default_rng(43)
        n = 25  # beyond the exact-enumeration limit
        b = rng.normal(size=n).tolist()
        a = [x + 0.4 for x in b]
        p1 = permutation_test(a, b, iterations=2000, seed=7)
        p2 = permutation_test(a, b, iterations=2000, seed=7)
        assert p1 == p2
        assert 1.0 / 2001 <= p1 <= 1.0
        with pytest.raises(InputError):
            permutation_test(a, b, iterations=0)

    def test_input_validation(self):
        with pytest.raises(InputError):
            permutation_test([1.0], [1.0, 2.0])
        with pytest.raises(InputError):
            permutation_test([], [])
        with pytest.raises(InputError):
            permutation_test([1.0], [1.0], alternative="less")


class TestSharedNull:
    """Column-batched p-values must equal the single-pair test bit for bit."""

    def columns(self, n, count, seed):
        # detection-like fractions: many ties, some exact zeros
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 101, size=(count, n)) / 100.0
        treat = np.clip(base + rng.integers(-10, 25, size=(count, n)) / 100.0, 0.0, 1.0)
        treat[0] = base[0]
        # n x count, one pair per column, as compare passes detection matrices
        return treat.T, base.T

    @pytest.mark.parametrize("n", [21, 40, 500])
    @pytest.mark.parametrize("iterations", [1, 7, 10000])
    def test_monte_carlo_bits_match_single_pair(self, n, iterations):
        for seed in (0, 7, 2023):
            treat, base = self.columns(n, 3, seed + n)
            for alternative in ("greater", "two-sided"):
                got = permutation_test(treat, base, alternative, iterations, seed)
                want = [
                    oracle_permutation_test(a, b, alternative, iterations, seed)
                    for a, b in zip(treat.T, base.T)
                ]
                assert got == want
                assert got[0] == 1.0

    @pytest.mark.parametrize("n", [1, 5, 17, 20])
    def test_exact_bits_match_single_pair(self, n):
        treat, base = self.columns(n, 4, n)
        for alternative in ("greater", "two-sided"):
            got = permutation_test(treat, base, alternative, iterations=0)
            want = [oracle_permutation_test(a, b, alternative) for a, b in zip(treat.T, base.T)]
            assert got == want

    def test_single_pair_is_the_one_column_case(self):
        treat, base = self.columns(30, 2, 5)
        for a, b in zip(treat.T, base.T):
            alone = permutation_test(a, b, iterations=500, seed=3)
            assert isinstance(alone, float)
            assert alone == permutation_test(a[:, None], b[:, None], iterations=500, seed=3)[0]

    def test_input_validation(self):
        assert permutation_test(np.zeros((3, 0)), np.zeros((3, 0))) == []
        with pytest.raises(InputError):
            permutation_test([[1.0, 2.0]], [[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(InputError):
            permutation_test([[1.0, 2.0], [1.0]], [[1.0, 2.0], [1.0]])
        with pytest.raises(InputError):
            permutation_test(np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))
        with pytest.raises(InputError):
            permutation_test(np.zeros((0, 2)), np.zeros((0, 2)))
        with pytest.raises(InputError):
            permutation_test([[1.0]], [[1.0]], alternative="less")
        with pytest.raises(InputError):
            permutation_test([[0.5]] * 21, [[0.0]] * 21, iterations=0)


class TestRelativeImprovement:
    def test_identical_curves_are_flat_zero(self):
        curve = (50.0, 100.0)
        assert relative_improvement(curve, curve) == [0.0, 0.0]

    def test_worked_example(self):
        treatment = (65.0, 100.0)
        baseline = (50.0, 100.0)
        assert relative_improvement(treatment, baseline) == [30.0, 0.0]

    def test_zero_baseline_marked_undefined(self):
        treatment = (10.0, 50.0)
        baseline = (0.0, 50.0)
        assert relative_improvement(treatment, baseline) == [None, 0.0]

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            relative_improvement(
                (50.0,), (50.0, 100.0)
            )


class TestSynthKillMatrix:
    def test_deterministic_per_seed(self):
        a = synth_kill_matrix(5, 8, kill_prob=0.3, times=(0.5, 2.0), seed=11)
        b = synth_kill_matrix(5, 8, kill_prob=0.3, times=(0.5, 2.0), seed=11)
        assert np.array_equal(a.kills, b.kills)
        assert np.array_equal(a.exec_time, b.exec_time)
        c = synth_kill_matrix(5, 8, kill_prob=0.3, times=(0.5, 2.0), seed=12)
        assert not np.array_equal(a.kills, c.kills) or not np.array_equal(
            a.exec_time, c.exec_time
        )

    def test_probability_extremes(self):
        certain = synth_kill_matrix(3, 4, kill_prob=1.0, seed=0)
        assert certain.kills.all()
        hopeless = synth_kill_matrix(3, 4, kill_prob=0.0, seed=0)
        assert not hopeless.kills.any()
        assert hopeless.unkillable_ids == ("m1", "m2", "m3", "m4")

    def test_per_mr_profiles(self):
        km = synth_kill_matrix(
            3, 50, kill_prob=[0.0, 1.0, 0.0], times=[1.0, 2.0, 3.0], seed=4
        )
        assert not km.kills[0].any()
        assert km.kills[1].all()
        assert list(km.exec_time) == [1.0, 2.0, 3.0]

    def test_id_padding(self):
        km = synth_kill_matrix(10, 1, seed=0)
        assert km.mr_ids[0] == "MR01"
        assert km.mr_ids[-1] == "MR10"

    def test_validation(self):
        with pytest.raises(InputError):
            synth_kill_matrix(0, 5)
        with pytest.raises(InputError):
            synth_kill_matrix(2, 2, kill_prob=[0.5])
        with pytest.raises(InputError):
            synth_kill_matrix(2, 2, kill_prob=1.5)
        with pytest.raises(InputError, match="must lie in"):
            synth_kill_matrix(2, 2, kill_prob=[0.5, math.nan])
        for low, high in ((0.0, math.inf), (math.nan, 1.0), (-math.inf, 1.0)):
            with pytest.raises(InputError, match="time range must be finite"):
                synth_kill_matrix(2, 2, times=(low, high))
        with pytest.raises(InputError):
            synth_kill_matrix(2, 2, times=(3.0, 1.0))
        with pytest.raises(InputError):
            synth_kill_matrix(2, 2, times=[-1.0, 1.0])
