"""Tabular dataset model plus CSV/ARFF readers and writers.

A dataset holds one read-only numpy array per attribute: float64 for a
numeric attribute (NaN marks a missing cell) and int64 codes into the
value-set for a nominal one (-1 marks a missing cell).  Datasets are
immutable after construction and validated once, a whole column at a time.
Writers and tests read cells row by row through ``Dataset.rows``.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ApplicabilityError, InputError

MISSING_TOKENS = ("", "?")


def parse_number(text: str) -> float | None:
    """Return the finite float value of *text*, or None when it is not one."""
    try:
        value = float(text)
    except ValueError:
        return None
    if not math.isfinite(value):
        return None
    return value


@dataclass(frozen=True)
class Attribute:
    """One column: numeric when ``values`` is None, nominal otherwise.

    Nominal value-sets keep their declaration order and must be non-empty
    and duplicate-free.
    """

    name: str
    values: tuple[str, ...] | None = None

    @property
    def is_numeric(self) -> bool:
        return self.values is None

    def __post_init__(self) -> None:
        if not self.name:
            raise InputError("attribute name must be non-empty")
        if self.values is not None:
            if len(self.values) == 0:
                raise InputError(f"attribute {self.name!r}: empty nominal value-set")
            if len(set(self.values)) != len(self.values):
                raise InputError(f"attribute {self.name!r}: duplicate nominal values")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Named attributes, one read-only column array per attribute.

    Numeric columns are float64 with NaN for a missing cell; nominal columns
    are int64 codes into ``attr.values`` with -1 for a missing cell.  The
    columns are copied on construction, so later changes to the arrays
    passed in do not reach the dataset.
    """

    name: str
    attributes: tuple[Attribute, ...]
    columns: tuple[np.ndarray, ...]
    class_index: int | None = None

    def __post_init__(self) -> None:
        n_attrs = len(self.attributes)
        if n_attrs == 0:
            raise InputError(f"dataset {self.name!r}: needs at least one attribute")
        names = [a.name for a in self.attributes]
        if len(set(names)) != n_attrs:
            raise InputError(f"dataset {self.name!r}: duplicate attribute names")
        if self.class_index is not None and not 0 <= self.class_index < n_attrs:
            raise InputError(f"dataset {self.name!r}: class_index {self.class_index} out of range")
        if len(self.columns) != n_attrs:
            raise InputError(
                f"dataset {self.name!r}: {len(self.columns)} columns, expected {n_attrs}"
            )
        columns = []
        for attr, column in zip(self.attributes, self.columns):
            array = np.array(column, dtype=np.float64 if attr.is_numeric else np.int64)
            array.flags.writeable = False
            columns.append(array)
        object.__setattr__(self, "columns", tuple(columns))
        lengths = sorted({len(c) for c in columns})
        if len(lengths) > 1:
            raise InputError(f"dataset {self.name!r}: columns have unequal lengths {lengths}")
        bad = np.column_stack([
            np.isinf(column) if attr.is_numeric else (column < -1) | (column >= len(attr.values))
            for attr, column in zip(self.attributes, columns)
        ])
        if bad.any():
            # argmax of the C-ordered mask is the first bad cell in row order
            r, j = divmod(int(bad.argmax()), n_attrs)
            attr, cell = self.attributes[j], columns[j][r]
            if attr.is_numeric:
                problem = f"expected a finite number, got {float(cell)!r}"
            else:
                problem = f"code {int(cell)} not in declared value-set"
            raise InputError(
                f"dataset {self.name!r}: row {r}, column {attr.name!r}: {problem}"
            )

    @property
    def n_rows(self) -> int:
        return len(self.columns[0])

    @property
    def rows(self) -> tuple[tuple, ...]:
        """Cells row by row: ``float``, ``str`` or None (missing)."""
        cells = []
        for attr, column in zip(self.attributes, self.columns):
            if attr.is_numeric:
                cells.append([None if math.isnan(v) else v for v in column.tolist()])
            else:
                cells.append([None if c < 0 else attr.values[c] for c in column.tolist()])
        return tuple(zip(*cells))

    @property
    def class_attribute(self) -> Attribute | None:
        if self.class_index is None:
            return None
        return self.attributes[self.class_index]

    def non_class_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.attributes)) if i != self.class_index)

    def numeric_indices(self) -> tuple[int, ...]:
        """Indices of numeric non-class attributes, in attribute order."""
        return tuple(
            i for i in self.non_class_indices() if self.attributes[i].is_numeric
        )

    def replace(self, **changes) -> "Dataset":
        fields = {
            "name": self.name,
            "attributes": self.attributes,
            "columns": self.columns,
            "class_index": self.class_index,
        }
        fields.update(changes)
        return Dataset(**fields)

    def take(self, rows: np.ndarray) -> "Dataset":
        """The dataset made of the rows at the indices *rows*, in that order."""
        return self.replace(columns=tuple(c[rows] for c in self.columns))


def _resolve_column(dataset_name: str, names: Sequence[str], selector: str | int) -> int:
    if isinstance(selector, int):
        if not 0 <= selector < len(names):
            raise InputError(f"{dataset_name}: class column index {selector} out of range")
        return selector
    try:
        return names.index(selector)
    except ValueError:
        raise InputError(f"{dataset_name}: no column named {selector!r}") from None


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def load_csv(
    path: str,
    header: bool = True,
    class_column: str | int | None = None,
    name: str | None = None,
) -> Dataset:
    """Load a comma-separated file.

    Empty cells and ``?`` are missing.  A column is numeric iff every
    non-missing cell parses as a finite number; otherwise it is nominal with
    the observed values (first-appearance order) as its value-set.  Without a
    header row, columns are named ``c0``, ``c1``, ...
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            records = list(csv.reader(fh))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    records = [r for r in records if r]
    if not records:
        raise InputError(f"{path}: empty file")

    if header:
        names = [cell.strip() for cell in records[0]]
        if len(set(names)) != len(names):
            raise InputError(f"{path}: duplicate column names in header")
        body = records[1:]
    else:
        names = [f"c{i}" for i in range(len(records[0]))]
        body = records

    n_cols = len(names)
    for lineno, record in enumerate(body, start=2 if header else 1):
        if len(record) != n_cols:
            raise InputError(
                f"{path}: line {lineno}: expected {n_cols} fields, got {len(record)}"
            )

    attributes = []
    columns = []
    for col_name, raw in zip(names, list(zip(*body)) or [()] * n_cols):
        texts = [None if (t := cell.strip()) in MISSING_TOKENS else t for cell in raw]
        numbers = _numeric_column(texts)
        if numbers is not None:
            # an all-missing column is numeric too: there is nothing to enumerate
            attributes.append(Attribute(col_name))
            columns.append(numbers)
        else:
            value_set = tuple(dict.fromkeys(t for t in texts if t is not None))
            codes = {v: i for i, v in enumerate(value_set)}
            attributes.append(Attribute(col_name, value_set))
            columns.append([-1 if t is None else codes[t] for t in texts])

    class_index = None
    if class_column is not None:
        class_index = _resolve_column(path, names, class_column)

    ds_name = name if name is not None else path
    return Dataset(ds_name, tuple(attributes), tuple(columns), class_index)


def _numeric_column(texts: list[str | None]) -> list[float] | None:
    """Finite values of *texts* (NaN for None), or None at the first non-number."""
    numbers = []
    for text in texts:
        value = math.nan if text is None else parse_number(text)
        if value is None:
            return None
        numbers.append(value)
    return numbers


def save_csv(dataset: Dataset, path: str) -> None:
    """Write the dataset with a header row; missing cells become ``?``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([a.name for a in dataset.attributes])
        for row in dataset.rows:
            writer.writerow(["?" if c is None else _format_cell(c) for c in row])


def _format_cell(cell) -> str:
    if isinstance(cell, float):
        return repr(cell)
    return str(cell)


# ---------------------------------------------------------------------------
# ARFF (frozen subset: numeric and nominal attributes, dense data, ? missing)
# ---------------------------------------------------------------------------

_ARFF_NAME = r"(?:'[^']*'|\"[^\"]*\"|[^\s{},]+)"
_ATTR_RE = re.compile(rf"^({_ARFF_NAME})\s+(.+)$", re.DOTALL)


def _unquote(token: str) -> str:
    token = token.strip()
    if len(token) >= 2 and token[0] == token[-1] and token[0] in ("'", '"'):
        return token[1:-1]
    return token


def _split_csv_line(line: str) -> list[str]:
    return next(csv.reader([line], skipinitialspace=True))


def load_arff(
    path: str,
    class_column: str | int | None = "last",
) -> Dataset:
    """Load an ARFF file restricted to numeric and ``{v1,...}`` attributes.

    ``%`` comment lines are skipped and keywords are case-insensitive.
    String, date and relational attribute types, and sparse ``{...}`` data
    rows, are rejected with the offending line number.  By default the last
    attribute becomes the class; pass ``class_column=None`` for no class or a
    name/index to override.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc

    relation = None
    attributes: list[Attribute] = []
    rows: list[list] = []
    in_data = False

    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        lowered = line.lower()

        if not in_data:
            if lowered.startswith("@relation"):
                if relation is not None:
                    raise InputError(f"{path}: line {lineno}: duplicate @relation")
                relation = _unquote(line[len("@relation"):].strip()) or path
            elif lowered.startswith("@attribute"):
                attributes.append(_parse_arff_attribute(path, lineno, line))
            elif lowered.startswith("@data"):
                if not attributes:
                    raise InputError(f"{path}: line {lineno}: @data before any @attribute")
                in_data = True
            else:
                raise InputError(f"{path}: line {lineno}: unrecognized declaration {line!r}")
            continue

        if line.startswith("{"):
            raise InputError(f"{path}: line {lineno}: sparse data rows are not supported")
        rows.append(_parse_arff_row(path, lineno, line, attributes))

    if not in_data:
        raise InputError(f"{path}: missing @data section")

    names = [a.name for a in attributes]
    if class_column == "last":
        class_index: int | None = len(attributes) - 1
    elif class_column is None:
        class_index = None
    else:
        class_index = _resolve_column(path, names, class_column)

    ds_name = relation if relation else path
    columns = tuple(zip(*rows)) or ((),) * len(attributes)
    return Dataset(ds_name, tuple(attributes), columns, class_index)


def _parse_arff_attribute(path: str, lineno: int, line: str) -> Attribute:
    rest = line[len("@attribute"):].strip()
    match = _ATTR_RE.match(rest)
    if match is None:
        raise InputError(f"{path}: line {lineno}: malformed @attribute")
    attr_name = _unquote(match.group(1))
    type_spec = match.group(2).strip()

    if type_spec.lower() == "numeric":
        return Attribute(attr_name)
    if type_spec.startswith("{") and type_spec.endswith("}"):
        inner = type_spec[1:-1]
        values = [_unquote(v) for v in _split_csv_line(inner)]
        values = [v for v in values if v != ""]
        if not values:
            raise InputError(f"{path}: line {lineno}: empty nominal value-set")
        if len(set(values)) != len(values):
            raise InputError(f"{path}: line {lineno}: duplicate nominal values")
        return Attribute(attr_name, tuple(values))
    raise InputError(
        f"{path}: line {lineno}: unsupported attribute type {type_spec!r} "
        f"(only 'numeric' and nominal value-sets are accepted)"
    )


def _parse_arff_row(path: str, lineno: int, line: str, attributes: list[Attribute]) -> list:
    """Column cells of one data line: floats (NaN missing) or codes (-1 missing)."""
    fields = [_unquote(f) for f in _split_csv_line(line)]
    if len(fields) != len(attributes):
        raise InputError(
            f"{path}: line {lineno}: expected {len(attributes)} values, got {len(fields)}"
        )
    typed = []
    for attr, token in zip(attributes, fields):
        if token == "?":
            typed.append(math.nan if attr.is_numeric else -1)
        elif attr.is_numeric:
            value = parse_number(token)
            if value is None:
                raise InputError(
                    f"{path}: line {lineno}: attribute {attr.name!r} expects a number, "
                    f"got {token!r}"
                )
            typed.append(value)
        else:
            if token not in attr.values:
                raise InputError(
                    f"{path}: line {lineno}: value {token!r} not in value-set of "
                    f"attribute {attr.name!r}"
                )
            typed.append(attr.values.index(token))
    return typed


def _arff_quote(name: str) -> str:
    if re.search(r"[\s{},%']", name) or name == "":
        return "'" + name.replace("'", "\\'") + "'"
    return name


def save_arff(dataset: Dataset, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"@relation {_arff_quote(dataset.name)}\n\n")
        for attr in dataset.attributes:
            if attr.is_numeric:
                fh.write(f"@attribute {_arff_quote(attr.name)} numeric\n")
            else:
                inner = ",".join(_arff_quote(v) for v in attr.values)
                fh.write(f"@attribute {_arff_quote(attr.name)} {{{inner}}}\n")
        fh.write("\n@data\n")
        for row in dataset.rows:
            fh.write(",".join("?" if c is None else _arff_quote(_format_cell(c)) for c in row))
            fh.write("\n")


# ---------------------------------------------------------------------------
# Numeric feature view
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NumericView:
    """Imputed (and optionally standardized) numeric non-class feature matrix."""

    matrix: np.ndarray
    feature_names: tuple[str, ...]
    standardized: bool
    means: np.ndarray
    stds: np.ndarray
    constant_mask: np.ndarray = field(repr=False)

    @property
    def n_rows(self) -> int:
        return int(self.matrix.shape[0])


def _ordered_stat(values: np.ndarray, reducer) -> float:
    # summing in sorted order keeps column statistics bit-identical under any
    # row permutation of the dataset
    return float(reducer(np.sort(values)))


def mean_imputed(column: np.ndarray) -> tuple[np.ndarray, float, float] | None:
    """A numeric column with its missing cells set to the mean of the others.

    Returns (filled column, mean, population standard deviation) of the
    observed cells, or None when no cell is observed.
    """
    missing = np.isnan(column)
    observed = column[~missing]
    if observed.size == 0:
        return None
    mean = _ordered_stat(observed, np.mean)
    std = math.sqrt(_ordered_stat((observed - mean) ** 2, np.mean))
    return np.where(missing, mean, column), mean, std


def numeric_view(dataset: Dataset, standardize: bool = True) -> NumericView:
    """Column-mean-imputed matrix of the numeric non-class attributes.

    Standardization divides by the population standard deviation; constant
    columns are kept unscaled and flagged in ``constant_mask``.
    """
    indices = dataset.numeric_indices()
    if not indices:
        raise ApplicabilityError(f"dataset {dataset.name!r}: no numeric non-class attributes")
    if dataset.n_rows == 0:
        raise ApplicabilityError(f"dataset {dataset.name!r}: no rows")

    columns = []
    means = []
    stds = []
    for i in indices:
        imputed = mean_imputed(dataset.columns[i])
        if imputed is None:
            raise ApplicabilityError(
                f"dataset {dataset.name!r}: attribute {dataset.attributes[i].name!r} "
                f"has no observed values"
            )
        filled, mean, std = imputed
        columns.append(filled)
        means.append(mean)
        stds.append(std)

    matrix = np.column_stack(columns)
    means_arr = np.array(means)
    stds_arr = np.array(stds)
    constant = stds_arr == 0.0

    if standardize:
        scaled = matrix.copy()
        live = ~constant
        scaled[:, live] = (matrix[:, live] - means_arr[live]) / stds_arr[live]
        matrix = scaled

    return NumericView(
        matrix=matrix,
        feature_names=tuple(dataset.attributes[i].name for i in indices),
        standardized=standardize,
        means=means_arr,
        stds=stds_arr,
        constant_mask=constant,
    )
