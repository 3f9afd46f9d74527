"""Cluster-shape diversity via seeded k-means.

Rows are put in ``dataset.canonical_order`` (``np.lexsort``'s) before
seeding, so the run is a pure function of the multiset of rows: neither row
nor attribute order can change it (``numeric_view`` gives the columns in
name order), and a follow-up whose sorted rows are bit-equal to the
source's takes the source's summary.  Seeding is k-means++; Lloyd
iterations run to an assignment fixpoint or ``max_iters``.  A cluster left
empty by an update takes the point farthest from its own centroid.

Each squared distance adds its d squares left to right, for all points and
centroids at once, in place, in one reused buffer; each centroid is the mean
of each of its columns taken alone.  Neither order depends on d, so a
constant column, whose squares are all 0, changes no bit of the summary.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..dataset import Dataset, NumericView, numeric_view, same_bits
from ..errors import ApplicabilityError, InputError, InvariantError
from ..records import Record
from . import MetricParams, _diversity


@dataclass(frozen=True, eq=False)
class ClusterSummary(Record):
    k: int
    centroids: np.ndarray
    sizes: tuple[int, ...]
    between_total: float        # sum of pairwise centroid distances
    size_total: int             # sum of cluster sizes (= rows)
    within_avg: float           # mean distance from a point to its centroid
    n_iters: int
    # sum of squared distances, per assignment
    objective_trace: tuple[float, ...] = field(metadata={"export": False})
    points: np.ndarray = field(   # the rows, sorted; the empty default matches no view
        default_factory=lambda: np.empty((0, 0)), repr=False, metadata={"export": False})

    @property
    def total(self) -> float:
        return self.between_total + self.size_total + self.within_avg


def _sum_rows(a: np.ndarray) -> None:
    """Sum ``a`` over axis 1 into ``a[:, 0]``, in place, left to right."""
    for i in range(1, a.shape[1]):
        a[:, 0] += a[:, i]


def _sq_distances(cols: np.ndarray, centroids: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Squared distances, (n points, k centroids), as a view into ``buf``.

    ``cols`` holds the points column by column (d, n), ``buf`` is a (>= k, d,
    n) scratch array.  Each difference is squared and the d squares of a pair
    are added left to right.
    """
    out = buf[: len(centroids)]
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(cols[None], centroids[:, :, None], out=out)
        np.multiply(out, out, out=out)
        _sum_rows(out)
    return out[:, 0].T


def _nearest(d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each point's nearest centroid and its squared distance to it, from the
    (n, k) distances ``_sq_distances`` gives: the first of equal distances
    wins, as in ``d2.argmin(axis=1)``.

    No distance is NaN when k > 1, which ``argmin`` would take for the
    least: a NaN centroid needs a sum of cells that overflows to both
    infinities, and cells that far apart overflow the k-means++ seeding's
    squared distances first.
    """
    rows = d2.T   # one contiguous row per centroid
    assignment = np.zeros(len(d2), dtype=np.intp)
    nearest = rows[0].copy()
    for c in range(1, len(rows)):
        closer = rows[c] < nearest
        np.copyto(assignment, c, where=closer)
        np.copyto(nearest, rows[c], where=closer)
    return assignment, nearest


def _seed_centroids(
    points: np.ndarray, k: int, rng: np.random.Generator, cols: np.ndarray, buf: np.ndarray
) -> np.ndarray:
    """Standard k-means++ D^2 sampling over the (already sorted) rows."""
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.full(n, np.inf)    # squared distance to the nearest chosen point
    while len(chosen) < k:
        np.minimum(d2, _sq_distances(cols, points[chosen[-1:]], buf)[:, 0], out=d2)
        total = d2.sum()
        if not np.isfinite(total):
            raise ApplicabilityError(
                "k-means++ seeding: squared distances overflow float64 "
                "(standardize the features or rescale them)"
            )
        if total == 0.0:
            chosen.append(int(rng.integers(n)))
            continue
        chosen.append(int(rng.choice(n, p=d2 / total)))
    return points[chosen].copy()


def kmeans_summary(
    view: NumericView,
    k: int = MetricParams.kmeans_k,
    seed: int = MetricParams.seed,
    max_iters: int = MetricParams.kmeans_max_iters,
) -> ClusterSummary:
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if max_iters < 1:
        raise InputError(f"max_iters must be >= 1, got {max_iters}")
    n = view.n_rows
    if n < k:
        raise ApplicabilityError(f"need at least k={k} rows, got {n}")

    points = view.sorted_rows[1]
    cols = np.ascontiguousarray(points.T)
    buf = np.empty((k, *cols.shape))
    rng = np.random.default_rng(seed)
    centroids = _seed_centroids(points, k, rng, cols, buf)

    assignment = None
    trace: list[float] = []
    iters = 0
    for _ in range(max_iters):
        iters += 1
        new_assignment, nearest = _nearest(_sq_distances(cols, centroids, buf))
        trace.append(float(nearest.sum()))
        if assignment is not None and np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment

        used = np.zeros(n, dtype=bool)
        for c in range(k):
            members = assignment == c
            if members.any():
                # the members' (d, m) columns, contiguous, as cols[:, members] makes them
                centroids[c] = np.compress(members, cols, axis=1).mean(axis=1)
        for c in range(k):
            if (assignment == c).any():
                continue
            # farthest point from its own centroid takes over the empty slot
            dist_own = np.sqrt(_sq_distances(cols, centroids, buf)[np.arange(n), assignment])
            dist_own[used] = -np.inf
            far = int(dist_own.argmax())
            centroids[c] = points[far]
            used[far] = True

    assignment, nearest = _nearest(_sq_distances(cols, centroids, buf))
    sizes = np.bincount(assignment, minlength=k)
    if int(sizes.sum()) != n:
        raise InvariantError("cluster sizes do not add up to the row count")

    # distances between centroid pairs, added left to right in a loop: sum()
    # compensates from Python 3.12 on
    i, j = np.triu_indices(k, 1)
    with np.errstate(over="ignore"):   # an overflow is raised below
        squares = (centroids[i] - centroids[j]) ** 2
        _sum_rows(squares)
    between_total = 0.0
    for distance in np.sqrt(squares[:, 0]).tolist():
        between_total += distance
    within_avg = float(np.sqrt(nearest).mean())
    # k = 1 draws no seed, and a Lloyd step can leave the seeding's range:
    # an overflowed squared distance shows up in one of the two totals
    if not (np.isfinite(between_total) and np.isfinite(within_avg)):
        raise ApplicabilityError(
            "k-means: squared distances overflow float64 "
            "(standardize the features or rescale them)"
        )
    return ClusterSummary(
        k=k,
        centroids=centroids,
        sizes=tuple(int(s) for s in sizes),
        between_total=between_total,
        size_total=n,
        within_avg=within_avg,
        n_iters=iters,
        objective_trace=tuple(trace),
        points=points,
    )


def summarize(dataset: Dataset, params: MetricParams | None = None, source=None) -> ClusterSummary:
    """One side of the ``clustering`` metric: k-means on its numeric view.

    *source*, a summary made with the same *params*, is returned when its
    sorted rows are bit-equal to this view's.  Unstandardized cells near the
    float64 limit overflow k-means' sums and means; the kernel's own checks
    report that, so numpy's warnings are silenced.
    """
    params = params or MetricParams()
    view = numeric_view(dataset, params.standardize)
    if source is not None and same_bits(view.sorted_rows[1], source.points):
        return source
    with np.errstate(all="ignore"):
        return kmeans_summary(view, params.kmeans_k, params.seed, params.kmeans_max_iters)


def clustering_diversity(source: Dataset, followup: Dataset, params: MetricParams | None = None):
    return _diversity("clustering", source, followup, params)
