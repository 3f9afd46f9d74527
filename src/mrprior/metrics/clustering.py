"""Cluster-shape diversity via seeded k-means.

Rows are sorted lexicographically before seeding so the run is a pure
function of the multiset of row contents: permuting the input rows cannot
change the outcome.  Seeding is k-means++; Lloyd iterations run to an
assignment fixpoint or ``max_iters``.  A cluster left empty by an update is
re-seeded to the point farthest from its currently assigned centroid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..dataset import Dataset, NumericView, numeric_view
from ..errors import ApplicabilityError, InputError, InvariantError
from ..records import Record


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


def _sq_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    deltas = points[:, None, :] - centroids[None, :, :]
    return (deltas**2).sum(axis=-1)


def _seed_centroids(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Standard k-means++ D^2 sampling over the (already sorted) rows."""
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    while len(chosen) < k:
        d2 = _sq_distances(points, points[chosen]).min(axis=1)
        total = d2.sum()
        if total == 0.0:
            chosen.append(int(rng.integers(n)))
            continue
        chosen.append(int(rng.choice(n, p=d2 / total)))
    return points[chosen].copy()


def kmeans_summary(
    view: NumericView, k: int = 3, seed: int = 0, max_iters: int = 100
) -> ClusterSummary:
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if max_iters < 1:
        raise InputError(f"max_iters must be >= 1, got {max_iters}")
    n = view.n_rows
    if n < k:
        raise ApplicabilityError(f"need at least k={k} rows, got {n}")

    # canonical order: lexicographic by feature 0, then 1, ...
    points = view.matrix[np.lexsort(view.matrix.T[::-1])]
    rng = np.random.default_rng(seed)
    centroids = _seed_centroids(points, k, rng)

    assignment = None
    trace: list[float] = []
    iters = 0
    for _ in range(max_iters):
        iters += 1
        d2 = _sq_distances(points, centroids)
        new_assignment = d2.argmin(axis=1)
        trace.append(float(d2[np.arange(n), new_assignment].sum()))
        if assignment is not None and np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment

        used = np.zeros(n, dtype=bool)
        for c in range(k):
            members = assignment == c
            if members.any():
                centroids[c] = points[members].mean(axis=0)
        for c in range(k):
            if (assignment == c).any():
                continue
            # farthest point from its own centroid takes over the empty slot
            dist_own = np.sqrt(_sq_distances(points, centroids)[np.arange(n), assignment])
            dist_own[used] = -np.inf
            far = int(dist_own.argmax())
            centroids[c] = points[far]
            used[far] = True

    d2 = _sq_distances(points, centroids)
    assignment = d2.argmin(axis=1)
    sizes = np.bincount(assignment, minlength=k)
    if int(sizes.sum()) != n:
        raise InvariantError("cluster sizes do not add up to the row count")

    pair_dists = [
        float(np.sqrt(((centroids[i] - centroids[j]) ** 2).sum()))
        for i in range(k)
        for j in range(i + 1, k)
    ]
    within = np.sqrt(d2[np.arange(n), assignment])
    return ClusterSummary(
        k=k,
        centroids=centroids,
        sizes=tuple(int(s) for s in sizes),
        between_total=float(sum(pair_dists)),
        size_total=n,
        within_avg=float(within.mean()),
        n_iters=iters,
        objective_trace=tuple(trace),
    )


def compare_clusters(source: ClusterSummary, followup: ClusterSummary) -> tuple[float, dict]:
    """Absolute difference of (between_total + size_total + within_avg)."""
    total_s = source.between_total + source.size_total + source.within_avg
    total_f = followup.between_total + followup.size_total + followup.within_avg
    raw = abs(total_s - total_f)
    diagnostics = {
        "source": source.to_dict(),
        "followup": followup.to_dict(),
        "source_total": total_s,
        "followup_total": total_f,
    }
    return raw, diagnostics


def clustering_diversity(
    source: Dataset,
    followup: Dataset,
    k: int = 3,
    seed: int = 0,
    max_iters: int = 100,
    standardize: bool = True,
) -> tuple[float, dict]:
    return compare_clusters(
        kmeans_summary(numeric_view(source, standardize), k, seed, max_iters),
        kmeans_summary(numeric_view(followup, standardize), k, seed, max_iters),
    )
