import math
from functools import reduce
from operator import add

import numpy as np
import pytest

from mrprior import ApplicabilityError, MrSpec, apply_mr, dist_summary, distribution_diversity

from conftest import make_dataset, random_dataset

# hand-derived statistics for the column (1, 2, 3):
#   mean 2, m2 = 2/3, m3 = 0, m4 = 2/3
#   range 2, variance 2/3, stddev sqrt(2/3), skewness 0, kurtosis 1.5 - 3
COL123_VARIANCE = 2.0 / 3.0
COL123_STDDEV = math.sqrt(2.0 / 3.0)          # 0.816496580927726
COL123_KURTOSIS = -1.5
# scaling by 2 doubles range and stddev and quadruples variance, so the
# totals differ by 2 + 3 * (2/3) + sqrt(2/3) = 4.816496580927726
SCALE2_DIVERSITY = 2.0 + 3.0 * COL123_VARIANCE + COL123_STDDEV


class TestDistSummary:
    def test_frozen_values_for_1_2_3(self):
        summary = dist_summary(make_dataset({"x": [1, 2, 3]}))
        (stats,) = summary.attributes
        assert stats.range == 2.0
        assert abs(stats.variance - COL123_VARIANCE) < 1e-12
        assert abs(stats.stddev - COL123_STDDEV) < 1e-12
        assert stats.skewness == 0.0
        assert abs(stats.kurtosis - COL123_KURTOSIS) < 1e-12
        assert not stats.shape_flagged

    def test_population_denominator(self):
        # np.var default (ddof=0) is the population variance
        rng = np.random.default_rng(8)
        values = list(rng.normal(0, 2, 25))
        summary = dist_summary(make_dataset({"x": values}))
        assert abs(summary.attributes[0].variance - np.var(values)) < 1e-12

    def test_moment_formulas_match_direct_computation(self):
        rng = np.random.default_rng(9)
        values = rng.uniform(-4, 9, 30)
        summary = dist_summary(make_dataset({"x": list(values)}))
        m = values.mean()
        m2 = ((values - m) ** 2).mean()
        m3 = ((values - m) ** 3).mean()
        m4 = ((values - m) ** 4).mean()
        assert abs(summary.attributes[0].skewness - m3 / m2**1.5) < 1e-12
        assert abs(summary.attributes[0].kurtosis - (m4 / m2**2 - 3)) < 1e-12

    def test_stddev_is_sqrt_variance(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            d = random_dataset(rng)
            for stats in dist_summary(d).attributes:
                assert abs(stats.stddev - math.sqrt(stats.variance)) < 1e-9

    def test_zero_variance_flagged(self):
        summary = dist_summary(make_dataset({"x": [5, 5, 5, 5]}))
        (stats,) = summary.attributes
        assert stats.shape_flagged
        assert stats.skewness == 0.0 and stats.kurtosis == 0.0
        assert stats.variance == 0.0 and stats.range == 0.0

    def test_short_column_flagged(self):
        summary = dist_summary(make_dataset({"x": [1, 4]}))
        (stats,) = summary.attributes
        assert stats.shape_flagged
        assert stats.skewness == 0.0 and stats.kurtosis == 0.0
        assert stats.range == 3.0

    def test_missing_cells_excluded(self):
        with_missing = dist_summary(make_dataset({"x": [1, None, 2, 3, None]}))
        without = dist_summary(make_dataset({"x": [1, 2, 3]}))
        assert with_missing.attributes[0].count == 3
        assert with_missing.spread_total == without.spread_total
        assert with_missing.shape_total == without.shape_total

    def test_ignores_nominal_and_class(self):
        d = make_dataset({"x": [1, 2, 3], "c": ["a", "b", "a"], "y": [9, 9, 9]},
                         class_name="y")
        summary = dist_summary(d)
        assert [s.name for s in summary.attributes] == ["x"]

    def test_requires_numeric_attributes(self):
        with pytest.raises(ApplicabilityError):
            dist_summary(make_dataset({"c": ["a", "b"]}))


class TestDistributionDiversity:
    def test_scale_by_two_frozen_value(self):
        d = make_dataset({"x": [1, 2, 3]})
        f = apply_mr(MrSpec("M", "s", "affine_numeric", {"scale": 2.0}), d)
        raw, _ = distribution_diversity(d, f)
        assert abs(raw - SCALE2_DIVERSITY) < 1e-9

    def test_shift_invariance(self):
        rng = np.random.default_rng(12)
        d = make_dataset({"x": list(rng.normal(3, 2, 50)), "y": list(rng.uniform(0, 5, 50))})
        for _ in range(10):
            shift = float(rng.uniform(-100, 100))
            f = apply_mr(
                MrSpec("M", "s", "affine_numeric", {"scale": 1.0, "shift": shift}), d
            )
            raw, _ = distribution_diversity(d, f)
            assert raw <= 1e-9


def test_totals_add_left_to_right_in_name_order():
    # sum() compensates from Python 3.12 on; on this table that moves the last
    # bits of both totals, so the totals must not come from it
    rng = np.random.default_rng(2)
    columns = {"a": [0.0, 1e8] * 4}
    for j in range(8):
        columns[f"s{j}"] = [round(float(v), 3) for v in rng.random(8)]
    summary = dist_summary(make_dataset(columns))
    by_name = sorted(summary.attributes, key=lambda s: s.name)
    shape = [s.skewness + s.kurtosis for s in by_name]
    spread = [s.range + s.variance + s.stddev for s in by_name]
    assert summary.shape_total == reduce(add, shape, 0.0)
    assert summary.spread_total == reduce(add, spread, 0.0)
