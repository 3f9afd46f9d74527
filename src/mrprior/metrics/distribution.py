"""Distribution-shape diversity: moment and spread statistics per attribute.

All moments are population moments (denominator n).  Skewness is
m3 / m2^1.5 and kurtosis is excess kurtosis m4 / m2^2 - 3.  Attributes with
fewer than three observed values or zero variance contribute 0 to both shape
terms and are flagged; a column whose cells are all equal has zero variance
exactly.  A dataset whose statistics or totals overflow float64 is not
applicable.

A follow-up attribute whose sorted observed cells hold the same bits as
those of the same-named source attribute takes the source's statistics, as
a follow-up takes the source's ``clustering`` or ``anomaly`` kernel result:
statistics depend only on the sorted cells, so after a row shuffle, a
relabel or an MR that leaves the attribute alone nothing is computed for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..dataset import Dataset, same_bits
from ..errors import ApplicabilityError
from ..records import Record
from . import MetricParams, _diversity


@dataclass(frozen=True)
class AttributeStats(Record):
    name: str
    count: int
    range: float
    variance: float
    stddev: float
    skewness: float
    kurtosis: float
    shape_flagged: bool


@dataclass(frozen=True)
class DistributionSummary(Record):
    attributes: tuple[AttributeStats, ...]
    shape_total: float    # sum over attributes of skewness + kurtosis
    spread_total: float   # sum over attributes of range + variance + stddev
    # each attribute's observed cells, sorted
    cells: tuple[np.ndarray, ...] = field(
        default=(), repr=False, compare=False, metadata={"export": False})

    @property
    def total(self) -> float:
        return self.shape_total + self.spread_total


def _column_stats(name: str, values: np.ndarray) -> AttributeStats:
    # summing in sorted order keeps the statistics bit-identical under any
    # row permutation of the dataset
    values = np.sort(values)
    n = values.size
    # an empty or constant column; the rounded mean of a constant one may
    # differ from its cells, so its variance is not computed
    if n == 0 or values[0] == values[-1]:
        return AttributeStats(name, n, 0.0, 0.0, 0.0, 0.0, 0.0, True)
    mean = float(np.mean(values))
    centered = values - mean
    m2 = float(np.mean(centered**2))
    spread_range = float(np.max(values) - np.min(values))
    stddev = float(np.sqrt(m2))
    if n < 3 or m2 == 0.0:
        return AttributeStats(name, n, spread_range, m2, stddev, 0.0, 0.0, True)
    m3 = float(np.mean(centered**3))
    m4 = float(np.mean(centered**4))
    try:
        skewness = m3 / m2**1.5
        kurtosis = m4 / m2**2 - 3.0
    except OverflowError:   # a float's power raises where numpy's gives inf
        skewness = kurtosis = math.inf
    return AttributeStats(name, n, spread_range, m2, stddev, skewness, kurtosis, False)


def dist_summary(
    dataset: Dataset, source: DistributionSummary | None = None
) -> DistributionSummary:
    """Per-attribute statistics over the observed (non-missing) numeric cells.

    An attribute whose sorted cells are bit-equal to those of the same-named
    attribute of *source* takes that attribute's statistics.
    """
    indices = dataset.numeric_indices()
    if not indices:
        raise ApplicabilityError(
            f"dataset {dataset.name!r}: distribution metric needs numeric attributes"
        )
    known = {} if source is None else {
        s.name: (s, cells) for s, cells in zip(source.attributes, source.cells)}
    stats, cells = [], []
    with np.errstate(over="ignore", invalid="ignore"):   # an overflow is raised below
        for i in indices:
            column, name = dataset.columns[i], dataset.attributes[i].name
            observed = np.sort(column[~np.isnan(column)])
            match = known.get(name)
            if match is not None and same_bits(observed, match[1]):
                stats.append(match[0])
            else:
                stats.append(_column_stats(name, observed))
            cells.append(observed)
    # adding in attribute-name order (numeric_indices') keeps the totals
    # bit-identical when the columns are permuted, and adding left to right
    # (sum() compensates from Python 3.12 on) keeps them so on every Python
    shape_total = spread_total = 0.0
    for s in stats:
        shape_total += s.skewness + s.kurtosis
        spread_total += s.range + s.variance + s.stddev
        # a statistic that is inf or NaN leaves its totals so
        if not (math.isfinite(shape_total) and math.isfinite(spread_total)):
            raise ApplicabilityError(
                f"dataset {dataset.name!r}: attribute {s.name!r} has statistics "
                "that overflow float64 (rescale it)"
            )
    return DistributionSummary(tuple(stats), shape_total, spread_total, tuple(cells))


def summarize(
    dataset: Dataset, params: MetricParams | None = None, source=None
) -> DistributionSummary:
    """One side of the ``distribution`` metric, which has no parameters.

    *source*, a source side's summary, lends its statistics to each
    attribute whose sorted cells are bit-equal to its own.
    """
    return dist_summary(dataset, source)


def distribution_diversity(source: Dataset, followup: Dataset) -> tuple[float, dict]:
    return _diversity("distribution", source, followup, None)
