"""The block-streaming CSV reader against the whole-file reader it replaced.

``oracle_load_csv`` is ``load_csv`` as it was before it streamed: it lists
every record as strings, then transposes, strips and parses them cell by
cell.  ``load_csv`` must give the same attributes, value-sets, column bytes
and class index, or raise the same InputError text, for every CSV.  The
tests set ``BLOCK_ROWS`` to 2 or 3, so that columns turn nominal across a
block boundary, and read some files through a FIFO, which cannot be read a
second time.

``load_csv`` splits the runs of lines that hold no ``"`` with numpy's C
reader; the last tests check that it splits them as csv.reader does and
that every number it parses has the bits ``float()`` gives.
"""

from __future__ import annotations

import csv
import math
import os
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mrprior import dataset
from mrprior.dataset import (
    MISSING_TOKENS,
    Attribute,
    Dataset,
    _resolve_column,
    csv_records,
    load_csv,
    parse_number,
)
from mrprior.errors import InputError

COMMON = dict(deadline=None, derandomize=True, database=None)


def oracle_load_csv(path, header=True, class_column=None):
    records: list[list[str]] = []
    ragged = None
    first = 1
    for line, record in csv_records(path):
        if not records:
            first = line
        elif ragged is None and len(record) != len(records[0]):
            ragged = (line, len(record))
        records.append(record)
    if not records:
        raise InputError(f"{path}: empty file")

    if header:
        names = [cell.strip() for cell in records[0]]
        if "" in names:
            raise InputError(f"{path}: line {first}: column {names.index('') + 1} has an empty name")
        if len(set(names)) != len(names):
            raise InputError(f"{path}: duplicate column names in header")
        body = records[1:]
    else:
        names = [f"c{i}" for i in range(len(records[0]))]
        body = records

    n_cols = len(names)
    if ragged is not None:
        raise InputError(f"{path}: line {ragged[0]}: expected {n_cols} fields, got {ragged[1]}")

    class_index = None if class_column is None else _resolve_column(path, names, class_column)
    attributes = []
    columns = []
    for j, (col_name, raw) in enumerate(zip(names, list(zip(*body)) or [()] * n_cols)):
        texts = [None if (t := cell.strip()) in MISSING_TOKENS else t for cell in raw]
        numbers = None if j == class_index and any(texts) else oracle_numeric_column(texts)
        if numbers is not None:
            attributes.append(Attribute(col_name))
            columns.append(numbers)
        else:
            value_set = tuple(dict.fromkeys(t for t in texts if t is not None))
            codes = {v: i for i, v in enumerate(value_set)}
            attributes.append(Attribute(col_name, value_set))
            columns.append([-1 if t is None else codes[t] for t in texts])
    return Dataset(path, tuple(attributes), tuple(columns), class_index)


def oracle_numeric_column(texts):
    numbers = []
    for text in texts:
        value = math.nan if text is None else parse_number(text)
        if value is None:
            return None
        numbers.append(value)
    return numbers


# with tokens that numpy's C reader and float() might read apart: float()
# takes "_", Unicode digits and whitespace, which numpy refuses or skips
NUMBERS = ["1", "1.0", "-2.5", " 1.5 ", "1_0", "1e3", "-0", "0.1", "+7", "3", '"4.25"',
           "١٢", "\x1c1", "\xa01.5", "1.5 ", "+.5", "5.", "1E+3"]
MISSING = ["", "?", " ? ", "  "]
NOT_NUMBERS = ["nan", "inf", "-inf", "1e999", "a", " b ", "1 2", "x,y", 'q"t', "two\nlines",
               "0x10"]


@st.composite
def column_cells(draw, n_rows):
    kind = draw(st.sampled_from(["numbers", "late", "mixed", "missing"]))
    numbers = st.sampled_from(NUMBERS + MISSING)
    anything = st.sampled_from(NUMBERS + MISSING + NOT_NUMBERS)
    if kind == "numbers":
        return draw(st.lists(numbers, min_size=n_rows, max_size=n_rows))
    if kind == "missing":
        return draw(st.lists(st.sampled_from(MISSING), min_size=n_rows, max_size=n_rows))
    if kind == "mixed":
        return draw(st.lists(anything, min_size=n_rows, max_size=n_rows))
    # numbers, then a non-number, then anything: the column turns nominal late
    k = draw(st.integers(0, max(n_rows - 1, 0)))
    cells = draw(st.lists(numbers, min_size=k, max_size=k))
    if n_rows:
        cells.append(draw(st.sampled_from(NOT_NUMBERS)))
        cells += draw(st.lists(anything, min_size=n_rows - k - 1, max_size=n_rows - k - 1))
    return cells


def _field(cell):
    if cell.startswith('"') or not any(c in cell for c in ',"\n'):
        return cell
    return '"' + cell.replace('"', '""') + '"'


@st.composite
def csv_files(draw):
    """(bytes of a CSV file, header, class_column)."""
    n_cols = draw(st.integers(1, 4))
    n_rows = draw(st.integers(0, 9))
    header = draw(st.booleans())
    columns = [draw(column_cells(n_rows)) for _ in range(n_cols)]
    rows = [list(r) for r in zip(*columns)] if n_rows else []
    names = [f"a{j}" for j in range(n_cols)]
    flaw = draw(st.sampled_from(["none"] * 6 + ["empty name", "duplicate name", "ragged"]))
    if flaw == "empty name":
        names[draw(st.integers(0, n_cols - 1))] = " "
    elif flaw == "duplicate name" and n_cols > 1:
        names[-1] = names[0]
    elif flaw == "ragged" and rows:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if draw(st.booleans()) or len(row) == 1:
            row.append("9")
        else:
            row.pop()
    lines = ([",".join(names)] if header else []) + [",".join(map(_field, r)) for r in rows]
    for _ in range(draw(st.integers(0, 2))):   # blank lines
        lines.insert(draw(st.integers(0, len(lines))), "")
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + (newline if draw(st.booleans()) else "")
    data = (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + text.encode("utf-8")
    class_column = draw(st.sampled_from(
        [None, None, f"a{n_cols - 1}", "a0", 0, n_cols - 1, n_cols, "nope"]))
    if not header and isinstance(class_column, str) and class_column != "nope":
        class_column = "c" + class_column[1:]
    return data, header, class_column


def outcome(path, name, loader, **kwargs):
    """What *loader* makes of *path*, with *path* written as *name*."""
    try:
        d = loader(path, **kwargs)
    except InputError as exc:
        return str(exc).replace(path, name)
    columns = [(c.dtype.str, c.tobytes()) for c in d.columns]
    return d.name.replace(path, name), d.attributes, d.class_index, columns


def read_fifo(fifo, data, **kwargs):
    """load_csv of *data* written into the FIFO *fifo* by one writer thread."""
    def write():
        try:
            with open(fifo, "wb") as fh:
                fh.write(data)
        except BrokenPipeError:   # the reader stopped at an unreadable line
            pass

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        return outcome(fifo, "data.csv", load_csv, **kwargs)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


@settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture], **COMMON)
@given(case=csv_files(), block_rows=st.sampled_from([2, 3]), via_fifo=st.booleans(),
       corrupt=st.sampled_from([None] * 5 + [0.3, 0.9]))
def test_load_csv_matches_the_whole_file_oracle(tmp_path, case, block_rows, via_fifo, corrupt):
    data, header, class_column = case
    if corrupt is not None:   # a byte that is not UTF-8, early or late in the file
        at = int(corrupt * len(data))
        data = data[:at] + b"\xff" + data[at:]
    path = str(tmp_path / "data.csv")
    with open(path, "wb") as fh:
        fh.write(data)
    kwargs = dict(header=header, class_column=class_column)
    expected = outcome(path, "data.csv", oracle_load_csv, **kwargs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "BLOCK_ROWS", block_rows)
        if via_fifo and corrupt is None:
            fifo = str(tmp_path / "fifo")
            if not os.path.exists(fifo):
                os.mkfifo(fifo)
            got = read_fifo(fifo, data, **kwargs)
        else:
            got = outcome(path, "data.csv", load_csv, **kwargs)
    assert got == expected


@pytest.mark.parametrize("text", [
    "x,cls\n1,a\n1.0,b\n2,a\n 1 ,b\n1_0,a\nlate,b\n",
    "x\n1\n?\n\n3\nnan\n",
    "x,y\n1,2\n3,4\n5,6\n7,8\n9,z\n",
])
def test_a_column_turning_nominal_late_reads_by_path_and_by_fifo(tmp_path, monkeypatch, text):
    monkeypatch.setattr(dataset, "BLOCK_ROWS", 2)
    path = str(tmp_path / "data.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    fifo = str(tmp_path / "fifo")
    os.mkfifo(fifo)
    expected = outcome(path, "data.csv", oracle_load_csv)
    assert outcome(path, "data.csv", load_csv) == expected
    assert read_fifo(fifo, text.encode("utf-8")) == expected
    assert any(a.values is not None for a in expected[1])


def test_a_file_changed_between_reads_is_an_error(tmp_path, monkeypatch):
    # the second read of a column that turned nominal finds other numbers
    monkeypatch.setattr(dataset, "BLOCK_ROWS", 2)
    path = tmp_path / "data.csv"
    path.write_text("x\n1\n2\n3\nlate\n")
    reads = []

    def records(p, *lines):   # the first read passes its lines, the second reads the file
        reads.append(p)
        if len(reads) == 2:
            path.write_text("x\n1\n5\n3\nlate\n")
        return csv_records(p, *lines)

    monkeypatch.setattr(dataset, "csv_records", records)
    with pytest.raises(InputError) as exc:
        load_csv(str(path))
    assert str(exc.value) == f"{path}: changed while it was read"


def loaded_alike(tmp_path, text, **kwargs):
    """load_csv's outcome for *text*, once asserted equal to the oracle's."""
    path = str(tmp_path / "data.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    got = outcome(path, "data.csv", load_csv, **kwargs)
    assert got == outcome(path, "data.csv", oracle_load_csv, **kwargs)
    return got


@pytest.mark.parametrize("text", ["x,y\n1,a\0b\n2,c\n", "x\n1\n2\0\n3\n", "x\n1\n\0\n"])
def test_a_nul_cell_is_read_as_csv_reader_reads_it(tmp_path, monkeypatch, text):
    # csv.reader refuses a NUL before Python 3.11 and keeps it as text since
    monkeypatch.setattr(dataset, "BLOCK_ROWS", 2)
    loaded_alike(tmp_path, text)


@pytest.mark.parametrize("text, error", [
    ("x,y\n" + "1,2\n" * 5 + "3,%s\n" % ("4" * 20), True),
    ("x,y\n" + "1,2\n" * 5 + "3,4\n" + "5,6,7\n" + "7,%s\n" % ("8" * 20), True),
    ("x\n" + "?" * 20 + "\n1\n", True),
    ("a0,a1,a2,a3,a4\n" + "1.25,2.5,3.75,4.0,5.5\n" * 5, False),
], ids=["late", "after-a-ragged-line", "first-run", "long-line-short-fields"])
def test_a_field_over_the_csv_limit_is_the_error(tmp_path, monkeypatch, text, error):
    # a line longer than the limit goes to csv.reader, which judges its fields
    monkeypatch.setattr(dataset, "BLOCK_ROWS", 3)
    limit = csv.field_size_limit(16)
    try:
        got = loaded_alike(tmp_path, text)
    finally:
        csv.field_size_limit(limit)
    if error:
        assert got == "cannot read data.csv: field larger than field limit (16)"
    else:
        assert all(a.is_numeric for a in got[1])


# pieces of number-like tokens: digits, signs, exponents, Unicode digits and
# Unicode whitespace, the words numpy and float() read as non-finite
TOKEN_PIECES = ["0", "1", "7", "9", ".", "e", "E", "+", "-", "_", "x", "١", "٣", "０",
                " ", "\t", "\xa0", "\x1c", "\x85", "\u3000", "\x0b", "\x0c",
                "inf", "nan", "infinity", "1e308", "1e309", "5e-324", "0x"]
TOKENS = st.one_of(
    st.lists(st.sampled_from(TOKEN_PIECES), min_size=1, max_size=6).map("".join),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)


@settings(max_examples=2000, **COMMON)
@given(token=TOKENS)
def test_a_number_the_c_reader_takes_has_the_bits_float_gives(token):
    fields = dataset._c_fields([token + "\n"], 1, [True])
    (record,) = csv.reader([token + "\n"])
    if isinstance(fields[0], np.ndarray):
        value = parse_number(token.strip())
        assert value is not None
        assert fields[0].tobytes() == np.float64(value).tobytes()
    else:   # as text, the cell is csv.reader's
        assert fields == [record]


@st.composite
def quote_free_runs(draw):
    """(lines of a quote-free CSV run, which columns may parse as float64)."""
    n_cols = draw(st.integers(1, 4))
    cell = st.one_of(st.sampled_from(NUMBERS + MISSING + NOT_NUMBERS),
                     TOKENS).filter(lambda t: not any(c in t for c in ',"\n'))
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["record"] * 4 + ["blank", "spaces", "ragged"]))
        if kind == "blank":
            text = ""
        elif kind == "spaces":
            text = draw(st.sampled_from([" ", "  ", "\t", "\xa0"]))
        else:
            width = n_cols + (draw(st.sampled_from([-1, 1])) if kind == "ragged" else 0)
            text = ",".join(draw(cell) for _ in range(max(width, 1)))
        lines.append(text + draw(st.sampled_from(["\n", "\r\n", "\r"])))
    if draw(st.booleans()):   # the file's last line may end without a line end
        lines[-1] = lines[-1].rstrip("\r\n") or "9"
    return lines, draw(st.lists(st.booleans(), min_size=n_cols, max_size=n_cols))


@settings(max_examples=1500, **COMMON)
@given(case=quote_free_runs())
def test_the_c_reader_splits_a_quote_free_run_as_csv_reader_does(case):
    run, floats = case
    records = [record for record in csv.reader(run) if record]
    rows = len(run) - sum(map(run.count, ("\n", "\r\n", "\r")))
    assert rows == len(records)
    if not rows:   # the reader leaves a run of blank lines alone
        return
    fields = dataset._c_fields(run, rows, floats)
    if fields is None:
        return
    assert len(fields) == len(floats) and all(len(r) == len(floats) for r in records)
    for j, cells in enumerate(fields):
        texts = [record[j] for record in records]
        if isinstance(cells, np.ndarray):
            assert floats[j]
            numbers = [parse_number(t.strip()) for t in texts]
            assert None not in numbers and cells.tobytes() == np.array(numbers).tobytes()
        else:
            assert cells == texts
