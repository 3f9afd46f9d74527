"""Tabular dataset model plus CSV/ARFF readers and writers.

A dataset holds one read-only numpy array per attribute: float64 for a
numeric attribute (NaN marks a missing cell) and int64 codes into the
value-set for a nominal one (-1 marks a missing cell).  Datasets are
immutable after construction and validated once, a whole column at a time.
Readers build the columns and writers format them: a column's cells are
the ``repr`` of a float, the value text of a nominal code, or ``?`` when
missing.  Every input file is read through ``inputs.input_lines``: as
UTF-8, with a leading byte-order mark skipped.  A CSV input's header record
comes from ``inputs.csv_records``; the lines after it are split by numpy's C
reader a run at a time while no ``"`` can quote a field, and by
``csv_records`` wherever the C reader rejects a run, and from the first
``"`` on, so that the records are csv.reader's and so is every error (see
``_csv_blocks``).

The CSV and ARFF readers stream their rows into one column builder,
``BLOCK_ROWS`` lines or records at a time.  A column fills a float64
buffer while its cells parse as numbers, or dictionary-encodes them into an
int64 buffer of codes, and numpy takes the finished buffers without a copy.
So ``load_csv`` holds its columns plus one block of lines, never every cell
as a string, and infers kinds by the rules it always had (see its
docstring).  A CSV column that has parsed as numbers and meets a non-number
in a later block turns nominal; its earlier texts come back from a second
read of the file, by path, for that column alone.  An input that cannot be
read twice, such as a pipe, keeps each numeric column's texts (one string
per block) instead.
"""

from __future__ import annotations

import csv
import math
import os
import re
from array import array
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ApplicabilityError, InputError
from .inputs import csv_records, input_lines

MISSING_TOKENS = ("", "?")
BLOCK_ROWS = 1024   # lines or records a reader parses at a time, like anomaly.BLOCK_ELEMENTS


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
    are int64 codes into ``attr.values`` with -1 for a missing cell.  A
    column passed in as a read-only array that views no writeable memory,
    such as a reader's or a transform's (see ``read_only``), is shared;
    any other array is copied.  Either way, later changes to the arrays
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
        columns = [
            _owned_array(column, np.float64 if attr.is_numeric else np.int64)
            for attr, column in zip(self.attributes, self.columns)
        ]
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
    def class_attribute(self) -> Attribute | None:
        if self.class_index is None:
            return None
        return self.attributes[self.class_index]

    def non_class_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.attributes)) if i != self.class_index)

    def numeric_indices(self) -> tuple[int, ...]:
        """Indices of numeric non-class attributes, sorted by attribute name."""
        numeric = [i for i in self.non_class_indices() if self.attributes[i].is_numeric]
        return tuple(sorted(numeric, key=lambda i: self.attributes[i].name))

    def take(self, rows: np.ndarray) -> "Dataset":
        """The dataset made of the rows at the indices *rows*, in that order."""
        return replace(self, columns=tuple(read_only(c[rows]) for c in self.columns))


def read_only(column: np.ndarray) -> np.ndarray:
    """Mark a new *column* read-only, so that a Dataset shares it instead of copying it."""
    column.flags.writeable = False
    return column


def _owned_array(column, dtype) -> np.ndarray:
    """*column* as a read-only *dtype* array that no other array can write to.

    An array made here (from a list, or by a dtype conversion) is kept, and
    so is one that is read-only and views only read-only memory; any other
    array is copied.
    """
    result = np.asarray(column, dtype=dtype)
    if result is column or result.base is not None:
        base = result
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        if not (base is None or isinstance(base, memoryview) and base.readonly):
            result = result.copy()
    return read_only(result)


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

class _Column:
    """One column, built a block of cell texts at a time.

    A numeric column fills ``numbers`` (NaN for a missing token); a nominal
    one fills ``codes``, looked up in ``index``, which maps each value to
    its code (declared or first-appearance order) and each missing token
    to -1.
    """

    def __init__(self, missing: tuple[str, ...], numeric: bool, values: Sequence[str] = ()):
        self.missing = missing
        self.numbers = array("d") if numeric else None
        self.codes = None if numeric else array("q")
        self.index = {v: i for i, v in enumerate(values)} | dict.fromkeys(missing, -1)

    @property
    def values(self) -> tuple[str, ...]:
        return tuple(v for v, code in self.index.items() if code >= 0)

    def add_numbers(self, texts: Sequence[str]) -> bool:
        """Append *texts* as numbers; append nothing and return False if one is no number."""
        values = _parse_numbers(texts, self.missing)
        if values is None:
            return False
        self.numbers.extend(values)
        return True

    def add_codes(self, texts: Sequence[str], grow: bool = True) -> bool:
        """Append the codes of *texts*, a new value taking the next code when
        the value-set may *grow*; otherwise append nothing and return False
        if a text is outside it."""
        index = self.index
        if grow:
            # codes count the values, which follow the missing tokens in index
            offset = len(self.missing)
            codes = [index.setdefault(t, len(index) - offset) for t in texts]
        else:
            codes = [index.get(t, -2) for t in texts]
            if -2 in codes:
                return False
        self.codes.extend(codes)
        return True

    def to_nominal(self, earlier: Iterable[Sequence[str]]) -> None:
        """Turn a numeric column nominal, given its texts so far, block by block."""
        self.numbers, self.codes = None, array("q")
        for texts in earlier:
            self.add_codes(texts)

    def finish(self) -> np.ndarray:
        """The column as a read-only array over its buffer, which is not copied."""
        if self.codes is None:
            return np.frombuffer(memoryview(self.numbers).toreadonly(), np.float64)
        return np.frombuffer(memoryview(self.codes).toreadonly(), np.int64)


def _parse_numbers(texts: Sequence[str], missing: tuple[str, ...]) -> array | None:
    """*texts* as float64, NaN for a missing token, or None if a text is no finite number."""
    try:
        values = array("d", map(float, texts))
    except ValueError:
        pass
    else:
        if np.isfinite(np.frombuffer(values)).all():
            return values
    # a missing, non-finite or non-numeric cell: parse cell by cell
    values = array("d")
    for text in texts:
        value = math.nan if text in missing else parse_number(text)
        if value is None:
            return None
        values.append(value)
    return values


def load_csv(
    path: str,
    header: bool = True,
    class_column: str | int | None = None,
) -> Dataset:
    """Load a comma-separated file.

    Empty cells and ``?`` are missing.  The class column, once it has a
    label, is nominal; any other column is numeric iff every non-missing
    cell parses as a finite number.  A nominal column has the observed values
    (first-appearance order) as its value-set.  Without a header row,
    columns are named ``c0``, ``c1``, ...

    The file is parsed ``BLOCK_ROWS`` lines at a time into typed columns,
    so the load holds the columns and one block of lines (see
    ``_csv_blocks``).  A column that turns nominal after its first block
    reads its earlier texts again from *path*; an input that is no regular
    file, such as a pipe, cannot be read twice and keeps its numeric
    columns' texts while it streams.
    """
    lines = input_lines(path)
    records = csv_records(path, lines)
    first_line, first = next(records, (0, None))
    if first is None:
        raise InputError(f"{path}: empty file")
    n_cols = len(first)
    names = [cell.strip() for cell in first] if header else [f"c{i}" for i in range(n_cols)]
    class_index = class_error = None
    if class_column is not None:
        try:
            class_index = _resolve_column(path, names, class_column)
        except InputError as exc:
            class_error = exc
    columns = [_Column(MISSING_TOKENS, numeric=j != class_index) for j in range(n_cols)]
    # kept[j]: column j's texts while it is numeric, one string per block
    kept = None if os.path.isfile(path) else [[] for _ in range(n_cols)]
    # floats[j]: column j is numeric and has met no missing token, and the
    # file can be read twice, so its next block may come parsed as float64
    floats = [kept is None and column.codes is None for column in columns]

    def add_block(fields: Sequence[Sequence[str] | np.ndarray]) -> None:
        for j, (column, cells) in enumerate(zip(columns, fields)):
            if isinstance(cells, np.ndarray):   # float64, finite: see _csv_blocks
                column.numbers.frombytes(cells.tobytes())
                continue
            texts = list(map(str.strip, cells))
            if column.codes is None:
                if column.add_numbers(texts):
                    if kept is not None:
                        kept[j].append("\n".join(texts))
                    elif any(token in texts for token in column.missing):
                        floats[j] = False
                    continue
                floats[j] = False
                if kept is None:
                    column.to_nominal(_reread_texts(path, header, j, column.numbers))
                else:
                    # a stripped text that parsed as a number holds no newline
                    column.to_nominal(joined.split("\n") for joined in kept[j])
                    kept[j] = []
            column.add_codes(texts)

    if any("\n" in cell or "\r" in cell for cell in first):
        # a quoted line break: the first record spans lines, and csv.reader goes on
        blocks = _record_blocks(records)
    else:
        blocks = _csv_blocks(path, lines, first_line + 1, floats)
    if not header:
        blocks = chain([([(first_line, first)], None)], blocks)
    # the errors wait until the stream is drained: an unreadable line anywhere wins
    try:
        if header:
            if "" in names:
                raise InputError(
                    f"{path}: line {first_line}: column {names.index('') + 1} has an empty name"
                )
            if len(set(names)) != len(names):
                raise InputError(f"{path}: duplicate column names in header")
        for block, fields in blocks:
            if block is not None:
                for line, record in block:
                    if len(record) != n_cols:
                        raise InputError(
                            f"{path}: line {line}: expected {n_cols} fields, got {len(record)}"
                        )
                fields = list(zip(*(record for _, record in block)))
            add_block(fields)
    except InputError:
        for _ in blocks:
            pass
        raise
    if class_error is not None:
        raise class_error

    attributes = []
    for name, column in zip(names, columns):
        values = column.values
        if column.codes is not None and not values:
            # a class column without a label is numeric: there is nothing to enumerate
            column.numbers, column.codes = array("d", [math.nan]) * len(column.codes), None
        attributes.append(Attribute(name, values if column.codes is not None else None))
    return Dataset(path, tuple(attributes), tuple(c.finish() for c in columns), class_index)


def _record_blocks(records: Iterator[tuple[int, list[str]]]) -> Iterator[tuple]:
    """*records*, ``BLOCK_ROWS`` at a time, as blocks of ``_csv_blocks``."""
    while block := list(islice(records, BLOCK_ROWS)):
        yield block, None


def _csv_blocks(path: str, lines: Iterator[str], line: int, floats: list[bool]) -> Iterator[tuple]:
    """The records of the CSV *lines*, which start at file line *line*,
    ``BLOCK_ROWS`` lines at a time.

    A block is (records, None), the (line, record) pairs of ``csv_records``,
    their field counts unchecked, or (None, fields): one finite float64 array
    or one list of cell texts per column, from ``_c_fields``.  A run of lines
    goes to csv.reader when it holds a NUL or a line over the csv field
    limit, or when the C reader rejects it, so that every error keeps its
    text and line; from the first ``"`` on, as a quoted field may span
    lines, so does the rest of the file.
    """
    limit = csv.field_size_limit()
    while run := list(islice(lines, BLOCK_ROWS)):
        text = "".join(run)
        if '"' in text:
            yield from _record_blocks(csv_records(path, chain(run, lines), line))
            return
        rows = len(run) - sum(map(run.count, ("\n", "\r\n", "\r")))   # the non-blank lines
        fields = None
        if rows and "\0" not in text and max(map(len, run)) <= limit:
            fields = _c_fields(run, rows, floats)
        if fields is not None:
            yield None, fields
        elif rows:
            yield from _record_blocks(csv_records(path, run, line))
        line += len(run)


def _c_fields(run: list[str], rows: int, floats: list[bool]) -> list | None:
    """The fields of a quote-free *run* of lines, *rows* of them non-blank, as
    numpy's C reader splits them, or None if it rejects them.

    Without quotes, the C reader and csv.reader split a line at every comma.
    A column that *floats* allows gets a float64 array if every such column's
    cells are finite numbers: numpy refuses the texts that ``float()`` reads
    only after rewriting them (``1_0``, ``١``), so the array holds the bits
    of ``float()`` of each stripped text.  Otherwise every column gets its
    cell texts.
    """
    attempts = [[np.float64 if f else object for f in floats]]
    if any(floats):
        attempts.append([object] * len(floats))
    for kinds in attempts:
        dtype = np.dtype([(f"f{j}", kind) for j, kind in enumerate(kinds)])
        try:
            table = np.loadtxt(run, dtype, delimiter=",", comments=None, quotechar=None, ndmin=1)
        except ValueError:
            continue
        if len(table) != rows:   # what csv.reader reads as a record, numpy did not
            continue
        fields = [table[name] if kind is np.float64 else table[name].tolist()
                  for name, kind in zip(dtype.names, kinds)]
        if all(np.isfinite(f).all() for f, kind in zip(fields, kinds) if kind is np.float64):
            return fields
    return None


def _reread_texts(path: str, header: bool, j: int, numbers: array) -> Iterator[list[str]]:
    """Column *j*'s texts of the rows *numbers* holds, from a second read of
    *path*, a block at a time.

    Texts that no longer parse to *numbers* mean that the file changed
    between the reads, which raises InputError.
    """
    records = csv_records(path)
    if header:
        next(records, None)
    for start in range(0, len(numbers), BLOCK_ROWS):
        block = islice(records, min(BLOCK_ROWS, len(numbers) - start))
        texts = [record[j].strip() for _, record in block if j < len(record)]
        values = _parse_numbers(texts, MISSING_TOKENS)
        if values is None or values.tobytes() != numbers[start:start + BLOCK_ROWS].tobytes():
            raise InputError(f"{path}: changed while it was read")
        yield texts


def _column_texts(dataset: Dataset) -> Iterator[list[str]]:
    """Each column's cells as written: ``repr`` of a float, the value text of
    a nominal code, or ``?`` for a missing cell."""
    for attr, column in zip(dataset.attributes, dataset.columns):
        if attr.is_numeric:
            yield ["?" if math.isnan(v) else repr(v) for v in column.tolist()]
        else:
            yield ["?" if c < 0 else attr.values[c] for c in column.tolist()]


def save_csv(dataset: Dataset, path: str) -> None:
    """Write the dataset with a header row; missing cells become ``?``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([a.name for a in dataset.attributes])
        writer.writerows(zip(*_column_texts(dataset)))


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


def _split_csv_line(path: str, lineno: int, line: str) -> list[str]:
    try:
        return next(csv.reader([line], skipinitialspace=True))
    except csv.Error as exc:
        raise InputError(f"{path}: line {lineno}: {exc}") from None


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
    lines = enumerate(input_lines(path), start=1)
    try:
        relation, attributes, columns = _read_arff(path, lines)
    except InputError:
        for _ in lines:   # an unreadable line later in the file is the error to report
            pass
        raise

    names = [a.name for a in attributes]
    if class_column == "last":
        class_index: int | None = len(attributes) - 1
    elif class_column is None:
        class_index = None
    else:
        class_index = _resolve_column(path, names, class_column)

    ds_name = relation if relation else path
    return Dataset(ds_name, tuple(attributes), tuple(c.finish() for c in columns), class_index)


def _read_arff(
    path: str, lines: Iterator[tuple[int, str]]
) -> tuple[str | None, list[Attribute], list[_Column]]:
    """The relation name, attributes and filled columns of numbered ARFF lines."""
    relation = None
    attributes: list[Attribute] = []
    for lineno, raw in lines:
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        lowered = line.lower()
        if lowered.startswith("@relation"):
            if relation is not None:
                raise InputError(f"{path}: line {lineno}: duplicate @relation")
            relation = _unquote(line[len("@relation"):].strip()) or path
        elif lowered.startswith("@attribute"):
            attributes.append(_parse_arff_attribute(path, lineno, line))
        elif lowered.startswith("@data"):
            if not attributes:
                raise InputError(f"{path}: line {lineno}: @data before any @attribute")
            break
        else:
            raise InputError(f"{path}: line {lineno}: unrecognized declaration {line!r}")
    else:
        raise InputError(f"{path}: missing @data section")

    columns = [_Column(("?",), a.is_numeric, a.values or ()) for a in attributes]
    block: list[tuple[int, list[str]]] = []   # (line number, fields) of each data line
    for lineno, raw in lines:
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        try:
            if line.startswith("{"):
                raise InputError(f"{path}: line {lineno}: sparse data rows are not supported")
            fields = [_unquote(f) for f in _split_csv_line(path, lineno, line)]
            if len(fields) != len(attributes):
                raise InputError(
                    f"{path}: line {lineno}: expected {len(attributes)} values, got {len(fields)}"
                )
        except InputError:
            _add_arff_block(path, attributes, columns, block)   # an earlier bad cell comes first
            raise
        block.append((lineno, fields))
        if len(block) >= BLOCK_ROWS:
            _add_arff_block(path, attributes, columns, block)
            block = []
    _add_arff_block(path, attributes, columns, block)
    return relation, attributes, columns


def _add_arff_block(
    path: str, attributes: list[Attribute], columns: list[_Column],
    block: list[tuple[int, list[str]]],
) -> None:
    """Append ARFF data lines to their columns; the first cell, in file order,
    that its attribute's declared type rejects raises InputError."""
    rejected = []   # (row in block, attribute index) of each column's first rejected cell
    cells = zip(*(fields for _, fields in block))
    for j, (attr, column, texts) in enumerate(zip(attributes, columns, cells)):
        if attr.is_numeric and not column.add_numbers(texts):
            row = next(i for i, t in enumerate(texts)
                       if t not in column.missing and parse_number(t) is None)
            rejected.append((row, j))
        elif not attr.is_numeric and not column.add_codes(texts, grow=False):
            rejected.append((next(i for i, t in enumerate(texts) if t not in column.index), j))
    if not rejected:
        return
    row, j = min(rejected)
    lineno, token, attr = block[row][0], block[row][1][j], attributes[j]
    if attr.is_numeric:
        raise InputError(
            f"{path}: line {lineno}: attribute {attr.name!r} expects a number, got {token!r}"
        )
    raise InputError(
        f"{path}: line {lineno}: value {token!r} not in value-set of attribute {attr.name!r}"
    )


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
        values = [_unquote(v) for v in _split_csv_line(path, lineno, inner)]
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
        for row in zip(*_column_texts(dataset)):
            fh.write(",".join(map(_arff_quote, row)) + "\n")


# ---------------------------------------------------------------------------
# Numeric feature view
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class NumericView:
    """Imputed (and optionally standardized) numeric non-class feature matrix."""

    matrix: np.ndarray
    raw: np.ndarray = field(repr=False)   # the imputed matrix before standardization
    feature_names: tuple[str, ...]
    constant_mask: np.ndarray = field(repr=False)

    @property
    def n_rows(self) -> int:
        return int(self.matrix.shape[0])

    @cached_property
    def sorted_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``canonical_order`` of the matrix's rows, and the rows in that order."""
        order = canonical_order(self.matrix)
        return order, self.matrix[order]


def canonical_order(matrix: np.ndarray) -> np.ndarray:
    """The permutation ``np.lexsort(matrix.T[::-1])``: by column 0, then 1, ...

    A stable sort of column 0 places every row whose first value is unique;
    only the runs of tied first values (NaN ties NaN, as in numpy's sort) are
    lexsorted on the remaining columns, keyed first by their run so that each
    run stays where it is.
    """
    order = np.argsort(matrix[:, 0], kind="stable")
    first = matrix[order, 0]
    nan = np.isnan(first)
    tied = (first[1:] == first[:-1]) | (nan[1:] & nan[:-1])
    if not tied.any():
        return order
    run = np.cumsum(np.concatenate(([True], ~tied)))
    in_run = np.zeros(len(order), dtype=bool)
    in_run[1:] = tied
    in_run[:-1] |= tied
    at = np.flatnonzero(in_run)
    rows = order[at]
    order[at] = rows[np.lexsort((*matrix[rows, :0:-1].T, run[at]))]
    return order


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two float64 arrays hold the same bits: -0.0 is not 0.0 here."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


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
    low = observed.min()
    if low == observed.max():
        # a constant column is its own mean exactly, whatever a sum of its
        # cells rounds to; + 0.0 makes a mix of -0.0 and 0.0 a mean of 0.0
        mean = float(low) + 0.0
        return np.where(missing, mean, column), mean, 0.0
    # a sum of cells near 1e308, or the squares of cells near 1e200, overflow
    # to inf, and +inf and -inf partial sums make NaN; numeric_view rejects
    # such a spread when it standardizes, and the metrics reject what the
    # filled cells lead to
    with np.errstate(over="ignore", invalid="ignore"):
        mean = _ordered_stat(observed, np.mean)
        std = math.sqrt(_ordered_stat((observed - mean) ** 2, np.mean))
    return np.where(missing, mean, column), mean, std


def numeric_view(dataset: Dataset, standardize: bool = True) -> NumericView:
    """Column-mean-imputed matrix of the numeric non-class attributes, in name order.

    Standardization divides by the population standard deviation; constant
    columns are kept unscaled and flagged in ``constant_mask``.  A column
    whose standard deviation overflows cannot be standardized and raises
    ApplicabilityError.
    """
    indices = dataset.numeric_indices()
    if not indices:
        raise ApplicabilityError(f"dataset {dataset.name!r}: no numeric non-class attributes")
    if dataset.n_rows == 0:
        raise ApplicabilityError(f"dataset {dataset.name!r}: no rows")

    raw = np.empty((dataset.n_rows, len(indices)))
    means = np.empty(len(indices))
    stds = np.empty(len(indices))
    for j, i in enumerate(indices):
        imputed = mean_imputed(dataset.columns[i])
        if imputed is None:
            raise ApplicabilityError(
                f"dataset {dataset.name!r}: attribute {dataset.attributes[i].name!r} "
                f"has no observed values"
            )
        raw[:, j], means[j], stds[j] = imputed
        if standardize and not math.isfinite(stds[j]):
            raise ApplicabilityError(
                f"dataset {dataset.name!r}: attribute {dataset.attributes[i].name!r} "
                f"has a standard deviation that overflows float64 (rescale it)"
            )
    constant = stds == 0.0

    matrix = raw
    if standardize:
        # constant columns are shifted by 0 and divided by 1, which leaves them exact
        matrix = raw - np.where(constant, 0.0, means)
        matrix /= np.where(constant, 1.0, stds)

    return NumericView(
        matrix=matrix,
        raw=raw,
        feature_names=tuple(dataset.attributes[i].name for i in indices),
        constant_mask=constant,
    )
