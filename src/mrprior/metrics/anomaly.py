"""Outlier-count diversity via kth-nearest-neighbour distance scoring.

Each instance is scored by its Euclidean distance to its kth nearest
neighbour (itself excluded); of n rows, the f(n) = min(round_half_up(c * n),
n - 1) highest-scoring are flagged at contamination c, ties resolved toward
lower row indices.  Identical flagged vectors pair up and leave both sides,
so the raw score is |f(n_source) - f(n_followup)|, whatever the rows hold;
the kNN scores and the matching reach only the diagnostics.

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

from dataclasses import dataclass

import numpy as np

from ..catalog import round_half_up
from ..dataset import Dataset, NumericView, numeric_view
from ..errors import ApplicabilityError, InputError, InvariantError
from ..records import Record

# float64 elements in one block's rows x n approximate distances (1 MB)
BLOCK_ELEMENTS = 2**17

_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_SMALLEST_NORMAL = np.finfo(np.float64).tiny


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
    with np.errstate(over="ignore", invalid="ignore"):
        norms = (x * x).sum(axis=1)
        top = norms.max()
        slack = 8 * (d + 2) * _UNIT_ROUNDOFF if np.isfinite(8 * top) else np.inf
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
    scores = np.sqrt(kth_squared)

    n_flag = min(round_half_up(contamination * n), n - 1)
    order = np.lexsort((np.arange(n), -scores))   # score descending, then index
    flagged = tuple(np.sort(order[:n_flag]).tolist())

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
