"""One export rule for result records: a record exports its dataclass fields.

``Record.to_dict`` turns a dataclass into plain JSON data.  Nested records
become dicts; tuples, lists and arrays become lists.  A field is left out
only when it is declared ``field(metadata={"export": False})``.
"""

from __future__ import annotations

from dataclasses import fields


class Record:
    """Mixin for dataclasses whose ``to_dict`` is their exported fields."""

    def to_dict(self) -> dict:
        return {
            f.name: _plain(getattr(self, f.name))
            for f in fields(self)
            if f.metadata.get("export", True)
        }


def _plain(value):
    # imported here, so that importing a record type loads no numpy
    import numpy as np

    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value
