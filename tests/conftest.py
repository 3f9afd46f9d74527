"""Shared dataset builders for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from mrprior import Attribute, Dataset


def pytest_addoption(parser):
    parser.addoption(
        "--rewrite-golden", action="store_true",
        help="overwrite tests/golden/*/expected/ with the outputs of the golden runs",
    )


def make_dataset(columns, class_name=None, name="fixture"):
    """Build a dataset from {name: list-of-cells} column specs.

    Cells that are ints/floats make a numeric attribute; strings make a
    nominal attribute with first-appearance value order.  None cells are
    missing.
    """
    attributes = []
    arrays = []
    for col_name, cells in columns.items():
        observed = [c for c in cells if c is not None]
        if not observed or all(isinstance(c, (int, float)) for c in observed):
            attributes.append(Attribute(col_name))
            arrays.append([math.nan if c is None else float(c) for c in cells])
        else:
            values = tuple(dict.fromkeys(observed))
            attributes.append(Attribute(col_name, values))
            arrays.append([-1 if c is None else values.index(c) for c in cells])
    class_index = None
    if class_name is not None:
        class_index = [a.name for a in attributes].index(class_name)
    return Dataset(name, tuple(attributes), tuple(arrays), class_index)


def from_rows(name, attributes, rows, class_index=None):
    """Build a dataset from row tuples of float, str or None (missing) cells."""
    columns = []
    for j, attr in enumerate(attributes):
        cells = [row[j] for row in rows]
        if attr.is_numeric:
            columns.append([math.nan if c is None else c for c in cells])
        else:
            columns.append([-1 if c is None else attr.values.index(c) for c in cells])
    return Dataset(name, tuple(attributes), tuple(columns), class_index)


def rows(dataset):
    """Cells of *dataset* row by row: float, str or None (missing)."""
    cells = []
    for attr, column in zip(dataset.attributes, dataset.columns):
        if attr.is_numeric:
            cells.append([None if math.isnan(v) else v for v in column.tolist()])
        else:
            cells.append([None if c < 0 else attr.values[c] for c in column.tolist()])
    return tuple(zip(*cells))


def flag_count(n, contamination):
    """f(n): the rows flagged among n, min(round_half_up(c n), n - 1)."""
    return min(int(math.floor(contamination * n + 0.5)), n - 1)


def random_dataset(rng: np.random.Generator, n_rows=None, n_attrs=None, missing=0.0,
                   name="random"):
    """Random mixed-kind dataset with a nominal class attribute."""
    if n_rows is None:
        n_rows = int(rng.integers(5, 201))
    if n_attrs is None:
        n_attrs = int(rng.integers(2, 11))
    columns = {}
    for j in range(n_attrs):
        if rng.random() < 0.7:
            center = float(rng.uniform(-50, 50))
            spread = float(rng.uniform(0.5, 20))
            cells = list(rng.normal(center, spread, size=n_rows))
        else:
            values = [f"v{j}_{i}" for i in range(int(rng.integers(2, 5)))]
            cells = [values[int(rng.integers(len(values)))] for _ in range(n_rows)]
        if missing > 0:
            cells = [
                None if rng.random() < missing else c
                for c in cells
            ]
            if all(c is None for c in cells):
                cells[0] = 0.0
        columns[f"a{j}"] = cells
    labels = [f"c{i}" for i in range(int(rng.integers(2, 5)))]
    columns["cls"] = [labels[int(rng.integers(len(labels)))] for _ in range(n_rows)]
    return make_dataset(columns, class_name="cls", name=name)


@pytest.fixture
def iris_like():
    """Small numeric dataset with a nominal class, two separated groups."""
    rng = np.random.default_rng(7)
    low = rng.normal(0.0, 0.5, size=(10, 2))
    high = rng.normal(8.0, 0.5, size=(10, 2))
    columns = {
        "x": list(low[:, 0]) + list(high[:, 0]),
        "y": list(low[:, 1]) + list(high[:, 1]),
        "cls": ["a"] * 10 + ["b"] * 10,
    }
    return make_dataset(columns, class_name="cls", name="iris_like")
