"""k-means against the whole-array formulas it replaced, bit for bit.

``oracle_kmeans_summary`` is the k-means summary computed the plain way:
every distance call materializes (n, k, d) differences and adds each pair's
d squares in a Python loop, left to right; each centroid is the mean of each
column taken alone; and rows are put in order with one ``np.lexsort`` over
every column.  The kernel must reproduce it exactly, so nothing here is
compared with a tolerance.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mrprior.dataset import NumericView, canonical_order
from mrprior.errors import ApplicabilityError
from mrprior.metrics.clustering import (
    ClusterSummary,
    _sq_distances,
    kmeans_summary,
)

# widths at and around those where numpy's own sum over a row would change
# how it groups the terms (8 and 128), which the kernel must not follow
DIMS = list(range(1, 21)) + [127, 128, 129, 136]


def oracle_sum_squares(deltas):
    """The squares of *deltas* added over the last axis, left to right."""
    squares = deltas**2
    total = squares[..., 0].copy()
    for j in range(1, squares.shape[-1]):
        total += squares[..., j]
    return total


def oracle_sq_distances(points, centroids):
    return oracle_sum_squares(points[:, None, :] - centroids[None, :, :])


def oracle_seed_centroids(points, k, rng):
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    while len(chosen) < k:
        d2 = oracle_sq_distances(points, points[chosen]).min(axis=1)
        total = d2.sum()
        if total == 0.0:
            chosen.append(int(rng.integers(n)))
            continue
        chosen.append(int(rng.choice(n, p=d2 / total)))
    return points[chosen].copy()


def oracle_kmeans_summary(view, k=3, seed=0, max_iters=100):
    n = view.n_rows
    if n < k:
        raise ApplicabilityError(f"need at least k={k} rows, got {n}")

    points = view.matrix[np.lexsort(view.matrix.T[::-1])]
    rng = np.random.default_rng(seed)
    centroids = oracle_seed_centroids(points, k, rng)

    assignment = None
    trace = []
    iters = 0
    for _ in range(max_iters):
        iters += 1
        d2 = oracle_sq_distances(points, centroids)
        new_assignment = d2.argmin(axis=1)
        trace.append(float(d2[np.arange(n), new_assignment].sum()))
        if assignment is not None and np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment

        used = np.zeros(n, dtype=bool)
        for c in range(k):
            members = assignment == c
            if members.any():
                centroids[c] = [points[members, j].mean() for j in range(points.shape[1])]
        for c in range(k):
            if (assignment == c).any():
                continue
            dist_own = np.sqrt(oracle_sq_distances(points, centroids)[np.arange(n), assignment])
            dist_own[used] = -np.inf
            far = int(dist_own.argmax())
            centroids[c] = points[far]
            used[far] = True

    d2 = oracle_sq_distances(points, centroids)
    assignment = d2.argmin(axis=1)
    sizes = np.bincount(assignment, minlength=k)
    pair_dists = [
        float(np.sqrt(oracle_sum_squares(centroids[i] - centroids[j])))
        for i in range(k)
        for j in range(i + 1, k)
    ]
    between_total = 0.0
    for dist in pair_dists:   # not sum(): from Python 3.12 it compensates
        between_total += dist
    within = np.sqrt(d2[np.arange(n), assignment])
    return ClusterSummary(
        k=k,
        centroids=centroids,
        sizes=tuple(int(s) for s in sizes),
        between_total=between_total,
        size_total=n,
        within_avg=float(within.mean()),
        n_iters=iters,
        objective_trace=tuple(trace),
    )


def as_view(matrix):
    matrix = np.asarray(matrix, dtype=float)
    return NumericView(
        matrix=matrix,
        raw=matrix,
        feature_names=tuple(f"f{j}" for j in range(matrix.shape[1])),
        constant_mask=np.zeros(matrix.shape[1], dtype=bool),
    )


def fingerprint(summary):
    return (
        summary.k,
        summary.centroids.shape,
        summary.centroids.tobytes(),
        summary.sizes,
        summary.size_total,
        summary.between_total.hex(),
        summary.within_avg.hex(),
        summary.n_iters,
        tuple(value.hex() for value in summary.objective_trace),
    )


@st.composite
def matrices(draw, dims=DIMS, max_rows=40):
    """A seeded matrix with the features that decide the row order and the
    distances: ties in column 0, repeated rows, signed zeros, constant
    columns and mixed magnitudes."""
    d = draw(st.sampled_from(dims))
    n = draw(st.integers(1, max_rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 4, size=d)
    if draw(st.booleans()):   # few distinct values in column 0
        m[:, 0] = rng.integers(-2, 3, size=n) * 0.5
    if draw(st.booleans()):   # whole rows repeated
        m[rng.integers(0, n, size=n // 2)] = m[rng.integers(0, n, size=n // 2)]
    if draw(st.booleans()):   # zeros of both signs
        m[rng.random((n, d)) < 0.15] = 0.0
        m[rng.random((n, d)) < 0.15] = -0.0
    if draw(st.booleans()):   # constant columns
        m[:, rng.random(d) < 0.3] = rng.normal()
    return m


def assert_same_summary(matrix, k, seed, max_iters=100):
    view = as_view(matrix)
    try:
        expected = oracle_kmeans_summary(view, k, seed, max_iters)
    except ApplicabilityError:
        with pytest.raises(ApplicabilityError):
            kmeans_summary(view, k, seed, max_iters)
        return
    assert fingerprint(kmeans_summary(view, k, seed, max_iters)) == fingerprint(expected)


@settings(max_examples=300, deadline=None)
@given(
    matrix=matrices(),
    k=st.integers(1, 6),
    seed=st.integers(0, 1000),
    max_iters=st.sampled_from([1, 2, 100]),
)
# two distinct rows and k=3: a cluster empties and is re-seeded
@example(matrix=np.array([[0.0]] * 5 + [[9.0]] * 5), k=3, seed=5, max_iters=100)
@example(matrix=np.array([[0.0, 1.0]] * 5 + [[9.0, -0.0]] * 5), k=3, seed=5, max_iters=100)
def test_summary_equals_oracle(matrix, k, seed, max_iters):
    assert_same_summary(matrix, k, seed, max_iters)


@settings(max_examples=200, deadline=None)
@given(matrix=matrices(dims=DIMS + [1000], max_rows=30), k=st.integers(1, 6), data=st.data())
def test_distances_equal_oracle(matrix, k, data):
    centroids = matrix[data.draw(st.lists(st.integers(0, len(matrix) - 1), min_size=k, max_size=k))]
    centroids = centroids + data.draw(st.sampled_from([0.0, 0.25, -1e-9]))
    cols = np.ascontiguousarray(matrix.T)
    got = _sq_distances(cols, centroids, np.empty((k, *cols.shape)))
    assert got.tobytes() == np.ascontiguousarray(oracle_sq_distances(matrix, centroids)).tobytes()


# sort keys that tie or sit at the ends: zeros of both signs, the infinities
# and NaN; tables of only these keys, 0 rows included
SORT_KEYS = [-np.inf, -1.5, -0.0, 0.0, 1.5, np.inf, np.nan]
KEY_TABLES = arrays(np.float64, st.tuples(st.integers(0, 30), st.integers(1, 4)),
                    elements=st.sampled_from(SORT_KEYS))


@settings(max_examples=600, deadline=None)
@given(matrix=st.one_of(matrices(dims=list(range(1, 10)) + [40]), KEY_TABLES), data=st.data())
def test_row_order_equals_lexsort(matrix, data):
    # NaN and the infinities sort as numpy sorts them: NaN after +inf, all
    # NaNs tied with each other
    special = data.draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
    if special is not None:
        mask = np.random.default_rng(len(matrix)).random(matrix.shape) < 0.3
        matrix[mask] = special
    expected = np.lexsort(matrix.T[::-1])
    assert np.array_equal(canonical_order(matrix), expected)

