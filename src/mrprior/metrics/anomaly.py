"""Outlier-count diversity via kth-nearest-neighbour distance scoring.

Each instance is scored by its Euclidean distance to its kth nearest
neighbour (itself excluded); of n rows, the f(n) = min(round_half_up(c * n),
n - 1) highest-scoring are flagged at contamination c, ties resolved toward
lower row indices.  Identical flagged vectors pair up and leave both sides,
so the raw score is |f(n_source) - f(n_followup)|, whatever the rows hold;
the kNN scores and the matching reach only the diagnostics.  Without them,
``summarize`` runs no kNN unless a squared distance could overflow.

Scores are found by filter and refine, in blocks of rows.  A BLAS product
gives every squared distance of a block approximately, as
``|x_i|^2 + |x_j|^2 - 2 x_i.x_j``.  That form and the exact one differ by
at most (4d + 8) u (|x_i|^2 + max_j |x_j|^2) to first order (u = 2^-53;
derived in ``knn_outliers``).  With E twice that bound, plus a term for
underflow, a row's kth neighbour lies among the columns whose
approximation is within 2E of the row's kth smallest one; the filter keeps
those, usually about k columns per row.
The candidates are then scored exactly, with the same expression and
reduction axis as a whole-matrix computation, so every score is bit-equal
to the brute-force result and does not depend on the block size or on how
BLAS orders its sums.  Memory is O(n * d) plus a few arrays of one block's
size (1 MB): 20,000 rows x 8 columns peak at about 3 MB traced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..catalog import round_half_up
from ..dataset import Dataset, NumericView, numeric_view, same_bits
from ..errors import ApplicabilityError, InputError, InvariantError
from ..records import Record
from . import MetricParams, _diversity

# float64 elements in one block's rows x n approximate distances (1 MB)
BLOCK_ELEMENTS = 2**17

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_SMALLEST_NORMAL = np.finfo(np.float64).tiny


def _flag_count(n: int, k: int, contamination: float) -> int:
    """f(n), the rows flagged among *n*, once *k* and *contamination* are checked."""
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if not 0 < contamination < 1:
        raise InputError(f"contamination must be in (0, 1), got {contamination}")
    if n <= k:
        raise ApplicabilityError(f"need more than k={k} rows, got {n}")
    return min(round_half_up(contamination * n), n - 1)


def _norms(x: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Each row's squared norm, the largest, and whether 8 times the largest
    is finite: the kernel's condition for no squared distance to overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = (x * x).sum(axis=1)
        top = norms.max()
        return norms, top, bool(np.isfinite(8 * top))


@dataclass(frozen=True, eq=False)
class OutlierReport(Record):
    indices: tuple[int, ...]   # flagged rows, ascending
    scores: np.ndarray         # kth-NN distance per row
    k: int
    contamination: float


def knn_outliers(
    view: NumericView,
    k: int = MetricParams.knn_k,
    contamination: float = MetricParams.contamination,
) -> OutlierReport:
    n = view.n_rows
    _flag_count(n, k, contamination)   # checks the parameters
    x = view.matrix
    d = x.shape[1]
    rows = max(1, BLOCK_ELEMENTS // n)
    kth_squared = np.empty(n)

    # Filter: if |approx - exact| <= E_i for every column of row i, then the
    # k columns with the smallest approximations have exact values at most
    # kth_i + E_i, so every column that can hold the kth smallest exact value
    # has approx <= kth_i + 2 E_i.  Bounding E_i, with u the unit roundoff,
    # N the true squared norms and t = |x_i - x_j|^2 <= 2 (N_i + N_j)
    # (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1):
    # - each norm s is a d-term sum of squares: |s - N| <= d u N;
    # - the BLAS dot product g, summed in any order, with or without FMA:
    #   |g - x_i.x_j| <= d u (N_i + N_j) / 2;
    # - forming s_i + s_j - 2g rounds twice on values below 2 (N_i + N_j);
    #   so |approx - t| <= (2d + 4) u (N_i + N_j), to first order;
    # - the exact expression rounds each difference and square, then sums d
    #   terms: |exact - t| <= (d + 2) u t <= (2d + 4) u (N_i + N_j).
    # E_i takes twice the sum, 8 (d + 2) u (s_i + max s), which covers the
    # second-order terms and the rounding of the limit itself.  Underflow
    # adds at most one smallest normal per operation, flush-to-zero
    # included, and a pair takes fewer than 16 (d + 2) operations.  While
    # 8 max s is finite no approximate or exact squared distance overflows;
    # otherwise E_i is infinite and every column is a candidate.
    norms, top, bounded = _norms(x)
    slack = 8 * (d + 2) * _UNIT_ROUNDOFF if bounded else np.inf
    floor = 16 * (d + 2) * _SMALLEST_NORMAL

    for a in range(0, n, rows):
        b = min(a + rows, n)
        diagonal = (np.arange(b - a), np.arange(a, b))
        with np.errstate(over="ignore", invalid="ignore"):
            approx = x[a:b] @ x.T
            approx *= -2
            approx += norms
            approx += norms[a:b, None]
            approx[diagonal] = np.inf
            kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
            limit = kth + 2 * (slack * (norms[a:b] + top) + floor)   # kth + 2 E
            # NaN compares false, so a NaN approximation or limit keeps its column
            near = ~(approx > limit[:, None])
        near[diagonal] = False

        # row-major, so i ascends; flat indices are several times faster
        # to find than np.nonzero's pair of index arrays
        i, j = np.divmod(np.flatnonzero(near), n)
        exact = ((x[a + i] - x[j]) ** 2).sum(axis=-1)
        counts = np.bincount(i, minlength=b - a)
        if counts.min() < k:
            raise InvariantError(f"fewer than k={k} kth-NN candidates in a row")
        # each row's candidates in ascending distance, then its kth one
        order = np.lexsort((exact, i))
        kth_squared[a:b] = exact[order[np.cumsum(counts) - counts + (k - 1)]]

    # sqrt is correctly rounded and monotone: the root of the kth smallest
    # squared distance is the kth smallest distance
    return _flag(np.sqrt(kth_squared), k, contamination)


def _flag(scores: np.ndarray, k: int, contamination: float) -> OutlierReport:
    """The report that flags the f(n) highest of the rows' kth-NN *scores*."""
    n = len(scores)
    n_flag = _flag_count(n, k, contamination)
    order = np.lexsort((np.arange(n), -scores))   # score descending, then index
    flagged = tuple(np.sort(order[:n_flag]).tolist())

    if n_flag and np.delete(scores, flagged).max() > scores[list(flagged)].min():
        raise InvariantError("an unflagged row outscores a flagged one")

    return OutlierReport(flagged, scores, k, contamination)


@dataclass(frozen=True, eq=False)
class AnomalySummary:
    total: int                       # the flagged rows' count, f(n)
    report: OutlierReport | None     # None when no kNN ran: diagnostics were not wanted
    feature_names: tuple[str, ...]   # numeric attribute names, in name order (numeric_view's)
    raw: np.ndarray                  # imputed, unstandardized rows; columns in feature_names order
    # the view's rows in canonical order and its row at each place (empty: matches no view)
    rows: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    order: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))

    def to_dict(self) -> dict:
        return self.report.to_dict()


def summarize(dataset: Dataset, params: MetricParams | None = None, source=None, *,
              diagnostics: bool = True) -> AnomalySummary:
    """One side of the ``anomaly`` metric: kth-NN outliers of its numeric view.

    Without *diagnostics*, the summary is the flagged count f(n) alone, and
    no kNN runs, as long as 8 times the largest squared row norm is finite:
    the kernel's own condition for no squared distance to overflow.

    *source* is a summary made with the same *params*.  When its rows, in
    ``dataset.canonical_order``, are bit-equal to this view's, each row takes
    the score at its place in that order: a score depends only on the rows.

    A kth-NN score that overflows float64 (unstandardized cells near 1e154
    or beyond) makes the dataset not applicable; the kernel's own overflow
    warnings are silenced, as that check reports them.
    """
    params = params or MetricParams()
    view = numeric_view(dataset, standardize=params.standardize)
    n_flag = _flag_count(view.n_rows, params.knn_k, params.contamination)
    if not diagnostics and _norms(view.matrix)[2]:
        return AnomalySummary(n_flag, None, view.feature_names, view.raw)
    order, rows = view.sorted_rows
    with np.errstate(all="ignore"):
        if source is not None and same_bits(rows, source.rows):
            scores = np.empty(view.n_rows)
            scores[order] = source.report.scores[source.order]
            report = _flag(scores, params.knn_k, params.contamination)
        else:
            report = knn_outliers(view, k=params.knn_k, contamination=params.contamination)
    if not np.isfinite(report.scores).all():
        raise ApplicabilityError(
            f"dataset {dataset.name!r}: kth-NN distances overflow float64 "
            "(standardize the features or rescale them)"
        )
    return AnomalySummary(n_flag, report, view.feature_names, view.raw, rows, order)


def compare_fields(source: AnomalySummary, followup: AnomalySummary) -> dict:
    """The diagnostics fields of the ``anomaly`` compare: identical outliers
    matched across the sides, and each side's outliers once those are
    discarded.  A match leaves both sides, so the raw score is still
    |f(n_source) - f(n_followup)|.

    Outliers whose raw (unstandardized, imputed) feature vectors are exactly
    identical across the two sides are discarded pairwise: each source
    outlier, in index order, takes the lowest-index unmatched identical
    follow-up outlier.  Vectors are aligned by attribute name and never
    matched when the two sides expose different numeric attributes.
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

    return {
        "identical_pairs": [[int(a), int(b)] for a, b in matches],
        "surviving_source": len(report_s.indices) - len(matches),
        "surviving_followup": len(report_f.indices) - len(matches),
    }


def anomaly_diversity(source: Dataset, followup: Dataset, params: MetricParams | None = None):
    return _diversity("anomaly", source, followup, params)
