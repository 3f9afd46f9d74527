"""Outlier-count diversity via kth-nearest-neighbour distance scoring.

Each instance is scored by its Euclidean distance to its kth nearest
neighbour (itself excluded); the round-half-up(contamination * rows)
highest-scoring instances are flagged, ties resolved toward lower row
indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..catalog import round_half_up
from ..dataset import Dataset, NumericView, numeric_view
from ..errors import ApplicabilityError, InvariantError


@dataclass(frozen=True)
class OutlierReport:
    indices: tuple[int, ...]   # flagged rows, ascending
    scores: np.ndarray         # kth-NN distance per row
    k: int
    contamination: float

    def to_dict(self) -> dict:
        return {
            "indices": list(self.indices),
            "scores": [float(s) for s in self.scores],
            "k": self.k,
            "contamination": self.contamination,
        }


def knn_outliers(view: NumericView, k: int = 5, contamination: float = 0.05) -> OutlierReport:
    if k < 1:
        raise ApplicabilityError(f"k must be >= 1, got {k}")
    if not 0 < contamination < 1:
        raise ApplicabilityError(f"contamination must be in (0, 1), got {contamination}")
    n = view.n_rows
    if n <= k:
        raise ApplicabilityError(f"need more than k={k} rows, got {n}")

    x = view.matrix
    deltas = x[:, None, :] - x[None, :, :]
    distances = np.sqrt((deltas**2).sum(axis=-1))
    np.fill_diagonal(distances, np.inf)
    # an owned copy: a view would keep the whole sorted n x n matrix alive
    scores = np.sort(distances, axis=1)[:, k - 1].copy()

    n_flag = min(round_half_up(contamination * n), n - 1)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    flagged = tuple(sorted(order[:n_flag]))

    if n_flag and np.delete(scores, flagged).max() > scores[list(flagged)].min():
        raise InvariantError("an unflagged row outscores a flagged one")

    return OutlierReport(flagged, scores, k, contamination)


@dataclass(frozen=True)
class AnomalySummary:
    report: OutlierReport
    feature_names: tuple[str, ...]   # numeric attribute names, sorted
    raw: np.ndarray                  # imputed, unstandardized rows; columns in feature_names order


def anomaly_summary(
    dataset: Dataset, k: int = 5, contamination: float = 0.05, standardize: bool = True
) -> AnomalySummary:
    report = knn_outliers(
        numeric_view(dataset, standardize=standardize), k=k, contamination=contamination
    )
    raw = numeric_view(dataset, standardize=False)
    order = np.argsort(np.array(raw.feature_names))
    return AnomalySummary(report, tuple(sorted(raw.feature_names)), raw.matrix[:, order])


def compare_outliers(source: AnomalySummary, followup: AnomalySummary) -> tuple[float, dict]:
    """Absolute difference of surviving outlier counts between the sides.

    Outliers whose raw (unstandardized, imputed) feature vectors are exactly
    identical across the two sides are discarded pairwise before counting:
    each source outlier, in index order, takes the lowest-index unmatched
    identical follow-up outlier.  Vectors are aligned by attribute name and
    never matched when the two sides expose different numeric attributes.
    """
    report_s, report_f = source.report, followup.report
    matches: list[tuple[int, int]] = []
    if source.feature_names == followup.feature_names:
        free = list(report_f.indices)
        for i in report_s.indices:
            j = next((j for j in free if np.array_equal(source.raw[i], followup.raw[j])), None)
            if j is not None:
                matches.append((i, j))
                free.remove(j)

    surviving_s = len(report_s.indices) - len(matches)
    surviving_f = len(report_f.indices) - len(matches)
    raw = float(abs(surviving_s - surviving_f))
    diagnostics = {
        "source": report_s.to_dict(),
        "followup": report_f.to_dict(),
        "identical_pairs": [[int(a), int(b)] for a, b in matches],
        "surviving_source": surviving_s,
        "surviving_followup": surviving_f,
    }
    return raw, diagnostics


def anomaly_diversity(
    source: Dataset,
    followup: Dataset,
    k: int = 5,
    contamination: float = 0.05,
    standardize: bool = True,
) -> tuple[float, dict]:
    return compare_outliers(
        anomaly_summary(source, k, contamination, standardize),
        anomaly_summary(followup, k, contamination, standardize),
    )
