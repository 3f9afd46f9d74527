"""Outlier-count diversity via kth-nearest-neighbour distance scoring.

Each instance is scored by its Euclidean distance to its kth nearest
neighbour (itself excluded); the round-half-up(contamination * rows)
highest-scoring instances are flagged, ties resolved toward lower row
indices.

Distances are computed in row blocks of a fixed element budget, one worker
thread per usable CPU, so memory is O(n * d) rather than O(n^2 * d).  Each
pairwise squared distance uses the same expression and reduction axis as a
whole-matrix computation, so scores do not depend on the block size or the
number of workers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..catalog import round_half_up
from ..dataset import Dataset, NumericView, numeric_view
from ..errors import ApplicabilityError, InputError, InvariantError
from ..records import Record

# float64 elements in one block's rows x n x d difference tensor (4 MB)
BLOCK_ELEMENTS = 2**19


@dataclass(frozen=True)
class OutlierReport(Record):
    indices: tuple[int, ...]   # flagged rows, ascending
    scores: np.ndarray         # kth-NN distance per row
    k: int
    contamination: float


def knn_outliers(view: NumericView, k: int = 5, contamination: float = 0.05) -> OutlierReport:
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if not 0 < contamination < 1:
        raise InputError(f"contamination must be in (0, 1), got {contamination}")
    n = view.n_rows
    if n <= k:
        raise ApplicabilityError(f"need more than k={k} rows, got {n}")

    x = view.matrix
    rows = max(1, BLOCK_ELEMENTS // (n * x.shape[1]))
    kth_squared = np.empty(n)

    def block(a: int) -> None:
        b = min(a + rows, n)
        squared = ((x[a:b, None, :] - x[None, :, :]) ** 2).sum(axis=-1)
        squared[np.arange(b - a), np.arange(a, b)] = np.inf
        squared.partition(k - 1, axis=1)
        kth_squared[a:b] = squared[:, k - 1]

    # imported here: concurrent.futures pulls in logging, which every CLI
    # call would otherwise pay for at start-up
    from concurrent.futures import ThreadPoolExecutor

    starts = range(0, n, rows)
    with ThreadPoolExecutor(max_workers=min(_usable_cpus(), len(starts))) as pool:
        # list() reads every result, so an exception in a block is re-raised
        list(pool.map(block, starts))
    # sqrt is correctly rounded and monotone: the root of the kth smallest
    # squared distance is the kth smallest distance
    scores = np.sqrt(kth_squared)

    n_flag = min(round_half_up(contamination * n), n - 1)
    order = np.lexsort((np.arange(n), -scores))   # score descending, then index
    flagged = tuple(np.sort(order[:n_flag]).tolist())

    if n_flag and np.delete(scores, flagged).max() > scores[list(flagged)].min():
        raise InvariantError("an unflagged row outscores a flagged one")

    return OutlierReport(flagged, scores, k, contamination)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # not every platform has sched_getaffinity
        return os.cpu_count() or 1


@dataclass(frozen=True)
class AnomalySummary:
    report: OutlierReport
    feature_names: tuple[str, ...]   # numeric attribute names, sorted
    raw: np.ndarray                  # imputed, unstandardized rows; columns in feature_names order


def anomaly_summary(
    dataset: Dataset, k: int = 5, contamination: float = 0.05, standardize: bool = True
) -> AnomalySummary:
    view = numeric_view(dataset, standardize=standardize)
    report = knn_outliers(view, k=k, contamination=contamination)
    order = np.argsort(np.array(view.feature_names))
    return AnomalySummary(report, tuple(sorted(view.feature_names)), view.raw[:, order])


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
        # raw vector -> free follow-up outliers, highest index first, so that
        # pop() takes the lowest.  Cells are finite, and -0.0 and 0.0 hash and
        # compare equal, so dict lookup matches exactly what np.array_equal does.
        free: dict[tuple[float, ...], list[int]] = {}
        for j in reversed(report_f.indices):
            free.setdefault(tuple(followup.raw[j].tolist()), []).append(j)
        for i in report_s.indices:
            candidates = free.get(tuple(source.raw[i].tolist()))
            if candidates:
                matches.append((i, candidates.pop()))

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
