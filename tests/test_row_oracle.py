"""The columnar dataset layer against the row-tuple code it replaced.

The oracle below is the earlier implementation: a dataset as tuples of
row tuples (float, str or None cells), the catalog transforms written over
those rows, and per-consumer column extraction.  Over derandomized mixed
datasets, with missing cells, missing class labels and all-missing numeric
columns, every transform, ``numeric_view``, ``dist_summary`` and
``cn2_induce`` must give the same results as the oracle.  Two changes are
deliberate, and the oracle makes them too: CN2's mean imputation now sums
in sorted order like ``numeric_view``, and ``numeric_indices`` now orders
the numeric attributes by name, so ``numeric_view`` and ``dist_summary``
list them in name order.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mrprior.catalog import (
    MrSpec,
    _parse_int_list,
    _parse_map,
    _rng,
    apply_mr,
    round_half_up,
)
from mrprior.dataset import Attribute, load_arff, load_csv, numeric_view, save_arff, save_csv
from mrprior.errors import ApplicabilityError, InputError
from mrprior.metrics import rules
from mrprior.metrics.distribution import _column_stats, dist_summary

from conftest import from_rows, rows

COMMON = dict(deadline=None, derandomize=True, database=None)


# ---------------------------------------------------------------------------
# oracle: row-tuple datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RowDataset:
    name: str
    attributes: tuple[Attribute, ...]
    rows: tuple[tuple, ...]
    class_index: int | None = None

    def __post_init__(self) -> None:
        for r, row in enumerate(self.rows):
            for c, cell in enumerate(row):
                attr = self.attributes[c]
                if cell is None:
                    continue
                if attr.is_numeric:
                    if not isinstance(cell, float) or not math.isfinite(cell):
                        raise InputError(
                            f"dataset {self.name!r}: row {r}, column {attr.name!r}: "
                            f"expected a finite number, got {cell!r}"
                        )
                elif cell not in attr.values:
                    raise InputError(f"row {r}: {cell!r} not in value-set")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def column(self, index: int) -> tuple:
        return tuple(row[index] for row in self.rows)

    def non_class_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.attributes)) if i != self.class_index)

    def numeric_indices(self) -> tuple[int, ...]:
        numeric = [i for i in self.non_class_indices() if self.attributes[i].is_numeric]
        return tuple(sorted(numeric, key=lambda i: self.attributes[i].name))

    def replace(self, **changes) -> "RowDataset":
        fields = {"name": self.name, "attributes": self.attributes, "rows": self.rows,
                  "class_index": self.class_index}
        fields.update(changes)
        return RowDataset(**fields)


def _safe_float(text: str) -> float | None:
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _require_class(mr: MrSpec, source: RowDataset) -> int:
    if source.class_index is None:
        raise ApplicabilityError(f"MR {mr.id}: dataset has no class attribute")
    return source.class_index


def _t_identity(mr: MrSpec, source: RowDataset) -> RowDataset:
    return source


def _t_permute_attributes(mr: MrSpec, source: RowDataset) -> RowDataset:
    positions = list(source.non_class_indices())
    if "perm" in mr.params:
        perm = _parse_int_list(mr.params["perm"], "perm")
        if sorted(perm) != list(range(len(positions))):
            raise ApplicabilityError(
                f"MR {mr.id}: perm must be a permutation of 0..{len(positions) - 1}"
            )
    else:
        perm = list(_rng(mr).permutation(len(positions)))
    # new non-class slot i receives the attribute at old non-class slot perm[i]
    source_order = list(range(len(source.attributes)))
    reordered = source_order.copy()
    for i, j in enumerate(perm):
        reordered[positions[i]] = positions[j]
    attributes = tuple(source.attributes[k] for k in reordered)
    rows = tuple(tuple(row[k] for k in reordered) for row in source.rows)
    return RowDataset(source.name, attributes, rows, source.class_index)


def _t_permute_instances(mr: MrSpec, source: RowDataset) -> RowDataset:
    order = _rng(mr).permutation(source.n_rows)
    rows = tuple(source.rows[i] for i in order)
    return source.replace(rows=rows)


def _t_affine_numeric(mr: MrSpec, source: RowDataset) -> RowDataset:
    scale = float(mr.params.get("scale", 1.0))
    shift = float(mr.params.get("shift", 0.0))
    numeric = source.numeric_indices()
    if "columns" in mr.params:
        targets = []
        names = [a.name for a in source.attributes]
        for token in str(mr.params["columns"]).split(","):
            token = token.strip()
            idx = int(token) if re.fullmatch("-?[0-9]+", token) else None
            if idx is None:
                if token not in names:
                    raise ApplicabilityError(f"MR {mr.id}: no attribute named {token!r}")
                idx = names.index(token)
            if idx not in numeric:
                raise ApplicabilityError(
                    f"MR {mr.id}: attribute {names[idx] if 0 <= idx < len(names) else idx!r} "
                    f"is not a numeric non-class attribute"
                )
            targets.append(idx)
    else:
        targets = list(numeric)
    if not targets:
        raise ApplicabilityError(f"MR {mr.id}: no numeric attributes to transform")
    target_set = set(targets)
    rows = tuple(
        tuple(
            cell if cell is None or j not in target_set else scale * cell + shift
            for j, cell in enumerate(row)
        )
        for row in source.rows
    )
    return source.replace(rows=rows)


def _fresh_attribute_name(source: RowDataset, base: str) -> str:
    names = {a.name for a in source.attributes}
    if base not in names:
        return base
    k = 2
    while f"{base}{k}" in names:
        k += 1
    return f"{base}{k}"


def _typed_constant(value: str):
    number = _safe_float(value)
    return number if number is not None else value


def _insert_attribute(source: RowDataset, attr: Attribute, cells: list) -> RowDataset:
    # keep the class in its final position when it is last; otherwise append
    if source.class_index is not None:
        pos = source.class_index
        class_index = source.class_index + 1
    else:
        pos = len(source.attributes)
        class_index = None
    attributes = source.attributes[:pos] + (attr,) + source.attributes[pos:]
    rows = tuple(
        row[:pos] + (cells[i],) + row[pos:] for i, row in enumerate(source.rows)
    )
    return RowDataset(source.name, attributes, rows, class_index)


def _t_add_uninformative(mr: MrSpec, source: RowDataset) -> RowDataset:
    value = _typed_constant(str(mr.params["value"]))
    name = _fresh_attribute_name(source, str(mr.params.get("name", "uninformative")))
    if isinstance(value, float):
        attr = Attribute(name)
    else:
        attr = Attribute(name, (value,))
    return _insert_attribute(source, attr, [value] * source.n_rows)


def _t_add_informative(mr: MrSpec, source: RowDataset) -> RowDataset:
    class_index = _require_class(mr, source)
    class_attr = source.attributes[class_index]
    if class_attr.values is None:
        raise ApplicabilityError(f"MR {mr.id}: class attribute is not nominal")
    mapping = _parse_map(mr.params["map"])
    unmapped = [v for v in class_attr.values if v not in mapping]
    if unmapped:
        raise ApplicabilityError(
            f"MR {mr.id}: map lacks entries for class values {unmapped}"
        )
    name = _fresh_attribute_name(source, str(mr.params.get("name", "informative")))
    outputs = [mapping[v] for v in class_attr.values]
    numeric = all(_safe_float(v) is not None for v in outputs)
    cells = []
    for row in source.rows:
        label = row[class_index]
        if label is None:
            cells.append(None)
        else:
            cells.append(_safe_float(mapping[label]) if numeric else mapping[label])
    if numeric:
        attr = Attribute(name)
    else:
        distinct: list[str] = []
        for v in outputs:
            if v not in distinct:
                distinct.append(v)
        attr = Attribute(name, tuple(distinct))
    return _insert_attribute(source, attr, cells)


def _t_duplicate_instances(mr: MrSpec, source: RowDataset) -> RowDataset:
    if source.n_rows == 0:
        raise ApplicabilityError(f"MR {mr.id}: cannot duplicate rows of an empty dataset")
    count = round_half_up(float(mr.params["fraction"]) * source.n_rows)
    count = min(count, source.n_rows)
    chosen = _rng(mr).choice(source.n_rows, size=count, replace=False)
    rows = source.rows + tuple(source.rows[i] for i in chosen)
    return source.replace(rows=rows)


def _t_remove_instances(mr: MrSpec, source: RowDataset) -> RowDataset:
    if source.n_rows == 0:
        raise ApplicabilityError(f"MR {mr.id}: cannot remove rows from an empty dataset")
    count = round_half_up(float(mr.params["fraction"]) * source.n_rows)
    count = min(count, source.n_rows)
    drop = set(_rng(mr).choice(source.n_rows, size=count, replace=False).tolist())
    rows = tuple(row for i, row in enumerate(source.rows) if i not in drop)
    return source.replace(rows=rows)


def _t_remove_class(mr: MrSpec, source: RowDataset) -> RowDataset:
    class_index = _require_class(mr, source)
    class_attr = source.attributes[class_index]
    if class_attr.values is None:
        raise ApplicabilityError(f"MR {mr.id}: class attribute is not nominal")
    label = str(mr.params["label"])
    if label not in class_attr.values:
        raise ApplicabilityError(f"MR {mr.id}: class value {label!r} does not exist")
    if len(class_attr.values) == 1:
        raise ApplicabilityError(f"MR {mr.id}: cannot remove the only class value")
    values = tuple(v for v in class_attr.values if v != label)
    attributes = list(source.attributes)
    attributes[class_index] = Attribute(class_attr.name, values)
    rows = tuple(row for row in source.rows if row[class_index] != label)
    return RowDataset(source.name, tuple(attributes), rows, class_index)


def _t_relabel_classes(mr: MrSpec, source: RowDataset) -> RowDataset:
    class_index = _require_class(mr, source)
    class_attr = source.attributes[class_index]
    if class_attr.values is None:
        raise ApplicabilityError(f"MR {mr.id}: class attribute is not nominal")
    mapping = _parse_map(mr.params["map"])
    if set(mapping) != set(class_attr.values) or set(mapping.values()) != set(class_attr.values):
        raise ApplicabilityError(
            f"MR {mr.id}: map must be a permutation of the class value-set"
        )
    rows = tuple(
        tuple(
            mapping[cell] if j == class_index and cell is not None else cell
            for j, cell in enumerate(row)
        )
        for row in source.rows
    )
    return source.replace(rows=rows)


def _t_add_data_points(mr: MrSpec, source: RowDataset) -> RowDataset:
    if source.n_rows == 0:
        raise ApplicabilityError(f"MR {mr.id}: cannot synthesize rows for an empty dataset")
    count = int(mr.params["count"])
    rng = _rng(mr)
    ranges = []
    for j, attr in enumerate(source.attributes):
        if attr.is_numeric:
            observed = [v for v in source.column(j) if v is not None]
            if not observed:
                raise ApplicabilityError(
                    f"MR {mr.id}: attribute {attr.name!r} has no observed values to sample from"
                )
            ranges.append((min(observed), max(observed)))
        else:
            ranges.append(None)
    new_rows = []
    for _ in range(count):
        row = []
        for j, attr in enumerate(source.attributes):
            if attr.is_numeric:
                lo, hi = ranges[j]
                row.append(float(rng.uniform(lo, hi)))
            else:
                row.append(attr.values[int(rng.integers(len(attr.values)))])
        new_rows.append(tuple(row))
    return source.replace(rows=source.rows + tuple(new_rows))


ORACLE_HANDLERS = {
    "identity": _t_identity,
    "permute_attributes": _t_permute_attributes,
    "permute_instances": _t_permute_instances,
    "affine_numeric": _t_affine_numeric,
    "add_uninformative_attribute": _t_add_uninformative,
    "add_informative_attribute": _t_add_informative,
    "duplicate_instances": _t_duplicate_instances,
    "remove_instances": _t_remove_instances,
    "remove_class": _t_remove_class,
    "relabel_classes": _t_relabel_classes,
    "add_data_points": _t_add_data_points,
}


def oracle_apply(mr: MrSpec, source: RowDataset) -> RowDataset:
    followup = ORACLE_HANDLERS[mr.transform](mr, source)
    return followup.replace(name=f"{source.name}#{mr.id}")


def _ordered_mean(values) -> float:
    return float(np.mean(np.sort(np.array(values, dtype=float))))


def oracle_numeric_view(dataset: RowDataset, standardize: bool):
    indices = dataset.numeric_indices()
    if not indices:
        raise ApplicabilityError(f"dataset {dataset.name!r}: no numeric non-class attributes")
    if dataset.n_rows == 0:
        raise ApplicabilityError(f"dataset {dataset.name!r}: no rows")
    columns, means, stds = [], [], []
    for i in indices:
        attr = dataset.attributes[i]
        raw = dataset.column(i)
        observed = np.array([v for v in raw if v is not None], dtype=float)
        if observed.size == 0:
            raise ApplicabilityError(
                f"dataset {dataset.name!r}: attribute {attr.name!r} has no observed values"
            )
        mean = _ordered_mean(observed)
        std = math.sqrt(_ordered_mean((observed - mean) ** 2))
        columns.append(np.array([mean if v is None else v for v in raw], dtype=float))
        means.append(mean)
        stds.append(std)
    matrix = np.column_stack(columns)
    means_arr, stds_arr = np.array(means), np.array(stds)
    constant = stds_arr == 0.0
    if standardize:
        scaled = matrix.copy()
        live = ~constant
        scaled[:, live] = (matrix[:, live] - means_arr[live]) / stds_arr[live]
        matrix = scaled
    names = tuple(dataset.attributes[i].name for i in indices)
    return matrix, names, means_arr, stds_arr, constant


def oracle_dist_summary(dataset: RowDataset) -> dict:
    indices = dataset.numeric_indices()
    if not indices:
        raise ApplicabilityError(
            f"dataset {dataset.name!r}: distribution metric needs numeric attributes"
        )
    stats = []
    for i in indices:
        observed = np.array([v for v in dataset.column(i) if v is not None], dtype=float)
        stats.append(_column_stats(dataset.attributes[i].name, observed))
    by_name = sorted(stats, key=lambda s: s.name)
    return {
        "attributes": [s.to_dict() for s in stats],
        "shape_total": float(sum(s.skewness + s.kurtosis for s in by_name)),
        "spread_total": float(sum(s.range + s.variance + s.stddev for s in by_name)),
    }


def oracle_impute_columns(dataset) -> list[np.ndarray]:
    """CN2's imputation over row cells: sorted-order mean, first-mode code."""
    columns = []
    for j, attr in enumerate(dataset.attributes):
        raw = tuple(row[j] for row in dataset.rows)
        observed = [v for v in raw if v is not None]
        if attr.is_numeric:
            mean = _ordered_mean(observed) if observed else 0.0
            columns.append(np.array([mean if v is None else v for v in raw], dtype=float))
        else:
            codes = {v: i for i, v in enumerate(attr.values)}
            counts = np.bincount([codes[v] for v in observed], minlength=len(attr.values))
            mode = int(counts.argmax())
            columns.append(np.array([mode if v is None else codes[v] for v in raw], dtype=int))
    return columns


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

CELLS = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
)
CLASSES = ("p", "q", "r")


def _cells(draw, values, n_rows):
    if draw(st.integers(0, 4)) == 0:
        return [None] * n_rows
    return draw(st.lists(st.one_of(st.none(), values), min_size=n_rows, max_size=n_rows))


@st.composite
def row_datasets(draw):
    """0-12 rows: 1-3 numeric attributes, 0-2 nominal ones, usually a nominal class.

    Any cell may be missing, class labels included, and a whole column may
    be; value-sets may declare values no row uses.
    """
    n_rows = draw(st.integers(0, 12))
    attributes, columns = [], []
    for j in range(draw(st.integers(1, 3))):
        attributes.append(Attribute(f"x{j}"))
        columns.append(_cells(draw, CELLS, n_rows))
    for j in range(draw(st.integers(0, 2))):
        values = ("a", "b", "c")[: draw(st.integers(1, 3))]
        attributes.append(Attribute(f"n{j}", values))
        columns.append(_cells(draw, st.sampled_from(values), n_rows))
    class_index = None
    if draw(st.integers(0, 4)) > 0:
        class_index = draw(st.integers(0, len(attributes)))
        attributes.insert(class_index, Attribute("cls", CLASSES))
        labels = st.one_of(st.sampled_from(CLASSES), st.none())
        columns.insert(class_index, draw(st.lists(labels, min_size=n_rows, max_size=n_rows)))
    return RowDataset("ds", tuple(attributes), tuple(zip(*columns)), class_index)


@st.composite
def catalogs(draw, source: RowDataset):
    """One MR per transform, with parameters that sometimes do not apply."""
    seed = draw(st.integers(0, 2**16))
    n_free = len(source.non_class_indices())
    numeric = [source.attributes[i].name for i in source.numeric_indices()]
    names = [a.name for a in source.attributes]
    perm = draw(st.one_of(st.permutations(range(n_free)), st.just([0] * max(n_free, 2))))
    affine = {"scale": draw(st.sampled_from([2.0, -0.5, 1e-3])),
              "shift": draw(st.sampled_from([0.0, 7.5]))}
    if draw(st.booleans()):
        affine["columns"] = ",".join(draw(st.lists(st.sampled_from(numeric + names),
                                                   min_size=1, max_size=2)))
    fraction = draw(st.sampled_from([0.1, 0.5, 1.0]))
    relabel = draw(st.sampled_from(["p:q,q:r,r:p", "p:p,q:q,r:r", "p:q,q:p"]))
    informative = draw(st.sampled_from(["p:1,q:2,r:3.5", "p:a,q:b,r:a", "p:1,q:b,r:c",
                                        "p:1,q:2"]))
    return [
        MrSpec("MR01", "ident", "identity"),
        MrSpec("MR02", "perm", "permute_attributes", {"perm": ",".join(map(str, perm))})
        if draw(st.booleans()) else MrSpec("MR02", "perm", "permute_attributes", seed=seed),
        MrSpec("MR03", "shuffle", "permute_instances", seed=seed),
        MrSpec("MR04", "affine", "affine_numeric", affine),
        MrSpec("MR05", "const", "add_uninformative_attribute",
               {"value": draw(st.sampled_from(["1.0", "x", "7", "inf"])),
                "name": draw(st.sampled_from(["x0", "u"]))}),
        MrSpec("MR06", "info", "add_informative_attribute", {"map": informative}),
        MrSpec("MR07", "dup", "duplicate_instances", {"fraction": fraction}, seed=seed),
        MrSpec("MR08", "drop", "remove_instances", {"fraction": fraction}, seed=seed),
        MrSpec("MR09", "rmclass", "remove_class",
               {"label": draw(st.sampled_from(["p", "r", "z"]))}),
        MrSpec("MR10", "relabel", "relabel_classes", {"map": relabel}),
        MrSpec("MR11", "points", "add_data_points", {"count": draw(st.integers(1, 4))},
               seed=seed),
    ]


def outcome(fn):
    try:
        return fn()
    except (ApplicabilityError, InputError) as exc:
        return ("error", type(exc).__name__, str(exc))


def as_rows(dataset) -> RowDataset:
    return RowDataset(dataset.name, dataset.attributes, rows(dataset), dataset.class_index)


def columnar(dataset: RowDataset):
    return from_rows(dataset.name, dataset.attributes, dataset.rows, dataset.class_index)


def view_parts(view) -> tuple:
    return (view.matrix.tobytes(), view.matrix.shape, view.feature_names,
            view.constant_mask.tobytes())


def oracle_view_parts(parts) -> tuple:
    matrix, names, _, _, constant = parts
    return (matrix.tobytes(), matrix.shape, names, constant.tobytes())


def assert_consumers_match(dataset, oracle: RowDataset) -> None:
    for standardize in (True, False):
        new = outcome(lambda: view_parts(numeric_view(dataset, standardize)))
        old = outcome(lambda: oracle_view_parts(oracle_numeric_view(oracle, standardize)))
        assert new == old
    assert outcome(lambda: dist_summary(dataset).to_dict()) == outcome(
        lambda: oracle_dist_summary(oracle))
    for new, old in zip(rules._impute_columns(dataset), oracle_impute_columns(oracle)):
        assert new.dtype.kind == old.dtype.kind
        assert new.tobytes() == old.astype(new.dtype).tobytes()
    induced = outcome(lambda: rules.cn2_induce(dataset).to_dict())
    with mock.patch.object(rules, "_impute_columns", lambda d: oracle_impute_columns(as_rows(d))):
        assert induced == outcome(lambda: rules.cn2_induce(dataset).to_dict())


@settings(max_examples=60, **COMMON)
@given(data=st.data())
def test_transforms_and_consumers_match_row_oracle(data):
    oracle_source = data.draw(row_datasets())
    source = columnar(oracle_source)
    assert rows(source) == oracle_source.rows
    assert_consumers_match(source, oracle_source)
    for mr in data.draw(catalogs(oracle_source)):
        new = outcome(lambda: apply_mr(mr, source))
        old = outcome(lambda: oracle_apply(mr, oracle_source))
        if isinstance(old, tuple):
            assert new == old, mr
            continue
        assert (new.name, new.attributes, rows(new), new.class_index) == (
            old.name, old.attributes, old.rows, old.class_index), mr
        assert_consumers_match(new, old)


@settings(max_examples=40, **COMMON)
@given(oracle=row_datasets())
def test_csv_and_arff_round_trip(oracle, tmp_path_factory):
    dataset = columnar(oracle)
    work = tmp_path_factory.mktemp("roundtrip")
    save_arff(dataset, str(work / "d.arff"))
    back = load_arff(str(work / "d.arff"), class_column=dataset.class_index)
    assert (back.name, back.attributes, rows(back), back.class_index) == (
        dataset.name, dataset.attributes, rows(dataset), dataset.class_index)
    save_csv(dataset, str(work / "d.csv"))
    back = load_csv(str(work / "d.csv"), class_column=dataset.class_index)
    assert rows(back) == rows(dataset)
    assert [a.name for a in back.attributes] == [a.name for a in dataset.attributes]
