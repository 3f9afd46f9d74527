"""The two readers every input file goes through, and how a column is named.

``input_lines`` opens a file as UTF-8 and skips a leading byte-order mark;
``csv_records`` reads a CSV file's records through it; ``index_or_name``
reads a token that selects a column by index or by name.  They need only the
standard library, so a subcommand that reads a JSON or CSV file loads this
module and not the dataset layer.
"""

from __future__ import annotations

import csv
from typing import Iterable, Iterator

from .errors import InputError


def input_lines(path: str, what: str = "") -> Iterator[str]:
    """The lines of a UTF-8 text file, line endings kept, a leading BOM dropped.

    The one place an input file is opened.  A file that cannot be opened or
    decoded raises ``InputError("cannot read {what}{path}: ...")``.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            yield from fh
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what}{path}: {exc}") from exc


def csv_records(
    path: str, lines: Iterable[str] | None = None, start: int = 1
) -> Iterator[tuple[int, list[str]]]:
    """The non-blank records of a CSV file, each with the file line it starts on.

    *lines*, when given, are read in place of the file: its lines from line
    *start* on.  A file that cannot be read (see ``input_lines``) or parsed
    as CSV raises InputError.
    """
    reader = csv.reader(input_lines(path) if lines is None else lines)
    first = start   # the file line the next record starts on
    try:
        for record in reader:
            if record:   # a blank line is no record
                yield first, record
            first = start + reader.line_num
    except csv.Error as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def index_or_name(token: str) -> int | str:
    """*token* as a column index if it is an optional ``-`` and ASCII digits,
    else as a column name."""
    digits = token.removeprefix("-")
    return int(token) if digits.isascii() and digits.isdigit() else token
