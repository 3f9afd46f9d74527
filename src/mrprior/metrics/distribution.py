"""Distribution-shape diversity: moment and spread statistics per attribute.

All moments are population moments (denominator n).  Skewness is
m3 / m2^1.5 and kurtosis is excess kurtosis m4 / m2^2 - 3.  Attributes with
fewer than three observed values or zero variance contribute 0 to both shape
terms and are flagged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dataset import Dataset
from ..errors import ApplicabilityError


@dataclass(frozen=True)
class AttributeStats:
    name: str
    count: int
    range: float
    variance: float
    stddev: float
    skewness: float
    kurtosis: float
    shape_flagged: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "count": self.count,
            "range": self.range,
            "variance": self.variance,
            "stddev": self.stddev,
            "skewness": self.skewness,
            "kurtosis": self.kurtosis,
            "shape_flagged": self.shape_flagged,
        }


@dataclass(frozen=True)
class DistributionSummary:
    attributes: tuple[AttributeStats, ...]
    shape_total: float    # sum over attributes of skewness + kurtosis
    spread_total: float   # sum over attributes of range + variance + stddev

    def to_dict(self) -> dict:
        return {
            "attributes": [a.to_dict() for a in self.attributes],
            "shape_total": self.shape_total,
            "spread_total": self.spread_total,
        }


def _column_stats(name: str, values: np.ndarray) -> AttributeStats:
    # summing in sorted order keeps the statistics bit-identical under any
    # row permutation of the dataset
    values = np.sort(values)
    n = values.size
    if n == 0:
        return AttributeStats(name, 0, 0.0, 0.0, 0.0, 0.0, 0.0, True)
    mean = float(np.mean(values))
    centered = values - mean
    m2 = float(np.mean(centered**2))
    spread_range = float(np.max(values) - np.min(values))
    stddev = float(np.sqrt(m2))
    if n < 3 or m2 == 0.0:
        return AttributeStats(name, n, spread_range, m2, stddev, 0.0, 0.0, True)
    m3 = float(np.mean(centered**3))
    m4 = float(np.mean(centered**4))
    skewness = m3 / m2**1.5
    kurtosis = m4 / m2**2 - 3.0
    return AttributeStats(name, n, spread_range, m2, stddev, skewness, kurtosis, False)


def dist_summary(dataset: Dataset) -> DistributionSummary:
    """Per-attribute statistics over the observed (non-missing) numeric cells."""
    indices = dataset.numeric_indices()
    if not indices:
        raise ApplicabilityError(
            f"dataset {dataset.name!r}: distribution metric needs numeric attributes"
        )
    stats = []
    for i in indices:
        column = dataset.columns[i]
        stats.append(_column_stats(dataset.attributes[i].name, column[~np.isnan(column)]))
    # summing in attribute-name order keeps the totals bit-identical when
    # the columns are permuted
    by_name = sorted(stats, key=lambda s: s.name)
    shape_total = float(sum(s.skewness + s.kurtosis for s in by_name))
    spread_total = float(sum(s.range + s.variance + s.stddev for s in by_name))
    return DistributionSummary(tuple(stats), shape_total, spread_total)


def compare_distributions(
    source: DistributionSummary, followup: DistributionSummary
) -> tuple[float, dict]:
    """Absolute difference of (shape_total + spread_total) between the sides."""
    total_s = source.shape_total + source.spread_total
    total_f = followup.shape_total + followup.spread_total
    raw = abs(total_s - total_f)
    diagnostics = {
        "source": source.to_dict(),
        "followup": followup.to_dict(),
        "source_total": total_s,
        "followup_total": total_f,
    }
    return raw, diagnostics


def distribution_diversity(source: Dataset, followup: Dataset) -> tuple[float, dict]:
    return compare_distributions(dist_summary(source), dist_summary(followup))
