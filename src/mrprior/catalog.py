"""Metamorphic relation catalog: transform specs, application, file format.

A catalog file is line-oriented.  Blank lines and ``#`` comments are
ignored; every other line declares one MR and is split with shell-style
quoting:

    <id> <name> <transform> [key=value ...]

Example::

    MR1 "Scale numerics"    affine_numeric scale=2 shift=0
    MR2 "Shuffle rows"      permute_instances seed=7
    MR3 "Drop class spam"   remove_class label=spam

Randomized transforms require a ``seed`` parameter; applying an MR is then a
pure function of (transform, params, seed, source dataset).
"""

from __future__ import annotations

import copy
import math
import numbers
import shlex
from array import array
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Iterable, Iterator

import numpy as np

from .dataset import Attribute, Dataset, parse_number, read_only
from .errors import ApplicabilityError, InputError
from .inputs import index_or_name, input_lines

# marker for pairs whose follow-up came from a file instead of a transform
EXTERNAL = "external"


@dataclass(frozen=True)
class MrSpec:
    """One MR; every check that needs no dataset is made here, once."""

    id: str
    name: str
    transform: str
    params: dict = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise InputError("MR id must be non-empty")
        if self.transform == EXTERNAL:
            return
        _, needs_seed, required = _lookup(self.transform)
        # text values, a catalog line's or a caller's, take their parameter's type
        object.__setattr__(self, "params", {k: _typed(k, v) for k, v in self.params.items()})
        if self.seed is not None:
            object.__setattr__(self, "seed", _typed("seed", self.seed))
        transform, params, seed = self.transform, self.params, self.seed
        if needs_seed and seed is None:
            raise InputError(f"transform {transform!r} is randomized and needs seed=")
        if seed is not None and seed < 0:
            raise InputError(f"seed must be >= 0, got {seed}")
        if required and not any(key in params for key in required):
            raise InputError(f"{transform} needs " + " or ".join(f"{k}=" for k in required))
        # range and format checks; the handlers rely on them
        if transform == "permute_attributes":
            if "perm" in params:
                _parse_int_list(params["perm"], "perm")
            elif seed is None:
                raise InputError("permute_attributes needs either perm= or seed=")
        elif transform == "affine_numeric" and params.get("scale", 1.0) == 0:
            raise InputError("affine_numeric scale must be nonzero")
        elif "fraction" in required and not 0 < params["fraction"] <= 1:
            raise InputError(f"{transform} fraction must be in (0, 1], got {params['fraction']}")
        elif "map" in required:
            _parse_map(params["map"])
        elif "count" in required and params["count"] < 1:
            raise InputError(f"{transform} count must be >= 1, got {params['count']}")


@dataclass(frozen=True)
class MrPair:
    """Source/follow-up dataset pair for one MR."""

    mr: MrSpec
    source: Dataset
    followup: Dataset


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


# ---------------------------------------------------------------------------
# catalog file
# ---------------------------------------------------------------------------

_INT_PARAMS = {"seed", "count"}
_FLOAT_PARAMS = {"scale", "shift", "fraction"}


def _typed(key: str, value):
    """*value* as parameter *key*'s type, parsed when it is text.

    ``count`` and ``seed`` take an integer, and ``scale``, ``shift`` and
    ``fraction`` a finite number; a bool is neither.  Other keys keep their
    value.
    """
    if key in _INT_PARAMS:
        if isinstance(value, str):
            try:
                return int(value)
            except ValueError:
                pass
        elif isinstance(value, numbers.Integral) and not isinstance(value, bool):
            return int(value)
        raise InputError(f"parameter {key!r} expects an integer, got {value!r}")
    if key in _FLOAT_PARAMS:
        number = parse_number(value) if isinstance(value, str) else value
        finite = isinstance(number, numbers.Real) and math.isfinite(number)
        if isinstance(number, bool) or not finite:
            raise InputError(f"parameter {key!r} expects a number, got {value!r}")
        return number
    return value


def _parse_params(tokens: list[str]) -> dict:
    """``key=value`` tokens as a dict of texts; ``MrSpec`` types them."""
    params: dict = {}
    for token in tokens:
        if "=" not in token:
            raise InputError(f"expected key=value, got {token!r}")
        key, _, value = token.partition("=")
        key = key.strip()
        if not key:
            raise InputError(f"empty parameter name in {token!r}")
        if key in params:
            raise InputError(f"duplicate parameter {key!r}")
        params[key] = value
    return params


def load_catalog(path: str) -> list[MrSpec]:
    """Parse a catalog file into MR specs, preserving declaration order."""
    lines = list(input_lines(path))
    specs: list[MrSpec] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            tokens = shlex.split(stripped, comments=True)
            if len(tokens) < 3:
                raise InputError("expected '<id> <name> <transform> [key=value ...]'")
            mr_id, mr_name, transform = tokens[0], tokens[1], tokens[2]
            if mr_id in seen:
                raise InputError(f"duplicate MR id {mr_id!r}")
            seen.add(mr_id)
            # an unknown name is a line's first error, before its parameters
            _lookup(transform)
            params = _parse_params(tokens[3:])
            seed = params.pop("seed", None)
            specs.append(MrSpec(mr_id, mr_name, transform, params, seed))
        except (InputError, ValueError) as exc:
            raise InputError(f"{path}: line {lineno}: {exc}") from None
    if not specs:
        raise InputError(f"{path}: catalog declares no MRs")
    return specs


def _parse_int_list(text: str, key: str) -> list[int]:
    try:
        return [int(part) for part in str(text).split(",")]
    except ValueError:
        raise InputError(f"parameter {key!r} expects comma-separated integers") from None


def _parse_map(text: str) -> dict[str, str]:
    mapping: dict[str, str] = {}
    for part in str(text).split(","):
        if ":" not in part:
            raise InputError(f"map entry {part!r} must look like old:new")
        old, _, new = part.partition(":")
        if old in mapping:
            raise InputError(f"map repeats key {old!r}")
        mapping[old] = new
    return mapping


# ---------------------------------------------------------------------------
# transform application
# ---------------------------------------------------------------------------

def apply_mr(mr: MrSpec, source: Dataset) -> Dataset:
    """Build the follow-up dataset for *mr*; deterministic given the seed."""
    if mr.transform == EXTERNAL:
        raise ApplicabilityError(f"MR {mr.id}: external follow-ups cannot be recomputed")
    handler = TRANSFORMS[mr.transform][0]
    # the handler's dataset is already validated: a shallow copy takes the
    # name without a second validation, and a source returned as is stays as is
    followup = copy.copy(handler(mr, source))
    object.__setattr__(followup, "name", f"{source.name}#{mr.id}")
    return followup


def _rng(mr: MrSpec) -> np.random.Generator:
    return np.random.default_rng(mr.seed)


def _nominal_class(mr: MrSpec, source: Dataset) -> int:
    if source.class_index is None:
        raise ApplicabilityError(f"MR {mr.id}: dataset has no class attribute")
    if source.attributes[source.class_index].values is None:
        raise ApplicabilityError(f"MR {mr.id}: class attribute is not nominal")
    return source.class_index


def _t_identity(mr: MrSpec, source: Dataset) -> Dataset:
    return source


def _t_permute_attributes(mr: MrSpec, source: Dataset) -> Dataset:
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
    columns = tuple(source.columns[k] for k in reordered)
    return Dataset(source.name, attributes, columns, source.class_index)


def _t_permute_instances(mr: MrSpec, source: Dataset) -> Dataset:
    return source.take(_rng(mr).permutation(source.n_rows))


def _t_affine_numeric(mr: MrSpec, source: Dataset) -> Dataset:
    scale = float(mr.params.get("scale", 1.0))
    shift = float(mr.params.get("shift", 0.0))
    numeric = source.numeric_indices()
    if "columns" in mr.params:
        targets = []
        names = [a.name for a in source.attributes]
        for token in str(mr.params["columns"]).split(","):
            idx = index_or_name(token.strip())
            if isinstance(idx, str):
                if idx not in names:
                    raise ApplicabilityError(f"MR {mr.id}: no attribute named {idx!r}")
                idx = names.index(idx)
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
    columns = list(source.columns)
    # an overflow to inf is reported by the Dataset check, with its row
    with np.errstate(over="ignore"):
        for j in set(targets):
            columns[j] = read_only(scale * columns[j] + shift)
    return replace(source, columns=tuple(columns))


def _fresh_attribute_name(source: Dataset, base: str) -> str:
    names = {a.name for a in source.attributes}
    if base not in names:
        return base
    k = 2
    while f"{base}{k}" in names:
        k += 1
    return f"{base}{k}"


def _insert_attribute(source: Dataset, attr: Attribute, column) -> Dataset:
    # keep the class in its final position when it is last; otherwise append
    if source.class_index is not None:
        pos = source.class_index
        class_index = source.class_index + 1
    else:
        pos = len(source.attributes)
        class_index = None
    attributes = source.attributes[:pos] + (attr,) + source.attributes[pos:]
    columns = source.columns[:pos] + (read_only(column),) + source.columns[pos:]
    return Dataset(source.name, attributes, columns, class_index)


def _t_add_uninformative(mr: MrSpec, source: Dataset) -> Dataset:
    value = str(mr.params["value"])
    name = _fresh_attribute_name(source, str(mr.params.get("name", "uninformative")))
    number = parse_number(value)
    if number is None:
        return _insert_attribute(source, Attribute(name, (value,)), np.zeros(source.n_rows, int))
    return _insert_attribute(source, Attribute(name), np.full(source.n_rows, number))


def _t_add_informative(mr: MrSpec, source: Dataset) -> Dataset:
    class_index = _nominal_class(mr, source)
    class_attr = source.attributes[class_index]
    mapping = _parse_map(mr.params["map"])
    unmapped = [v for v in class_attr.values if v not in mapping]
    if unmapped:
        raise ApplicabilityError(
            f"MR {mr.id}: map lacks entries for class values {unmapped}"
        )
    name = _fresh_attribute_name(source, str(mr.params.get("name", "informative")))
    outputs = [mapping[v] for v in class_attr.values]
    numbers = [parse_number(v) for v in outputs]
    if None not in numbers:
        # a trailing NaN is what a missing label (code -1) picks
        attr = Attribute(name)
        lookup = np.array(numbers + [math.nan])
    else:
        distinct = tuple(dict.fromkeys(outputs))
        attr = Attribute(name, distinct)
        lookup = np.array([distinct.index(v) for v in outputs] + [-1])
    return _insert_attribute(source, attr, lookup[source.columns[class_index]])


def _draw_rows(mr: MrSpec, source: Dataset, action: str) -> np.ndarray:
    """The seeded draw of round_half_up(fraction * n) distinct rows."""
    if source.n_rows == 0:
        raise ApplicabilityError(f"MR {mr.id}: cannot {action} an empty dataset")
    count = min(round_half_up(float(mr.params["fraction"]) * source.n_rows), source.n_rows)
    return _rng(mr).choice(source.n_rows, size=count, replace=False)


def _t_duplicate_instances(mr: MrSpec, source: Dataset) -> Dataset:
    chosen = _draw_rows(mr, source, "duplicate rows of")
    return source.take(np.concatenate([np.arange(source.n_rows), chosen]))


def _t_remove_instances(mr: MrSpec, source: Dataset) -> Dataset:
    keep = np.ones(source.n_rows, dtype=bool)
    keep[_draw_rows(mr, source, "remove rows from")] = False
    return source.take(np.flatnonzero(keep))


def _t_remove_class(mr: MrSpec, source: Dataset) -> Dataset:
    class_index = _nominal_class(mr, source)
    class_attr = source.attributes[class_index]
    label = str(mr.params["label"])
    if label not in class_attr.values:
        raise ApplicabilityError(f"MR {mr.id}: class value {label!r} does not exist")
    if len(class_attr.values) == 1:
        raise ApplicabilityError(f"MR {mr.id}: cannot remove the only class value")
    values = tuple(v for v in class_attr.values if v != label)
    attributes = list(source.attributes)
    attributes[class_index] = Attribute(class_attr.name, values)
    removed = class_attr.values.index(label)
    kept = np.flatnonzero(source.columns[class_index] != removed)
    columns = [read_only(c[kept]) for c in source.columns]
    codes = columns[class_index]
    columns[class_index] = read_only(codes - (codes > removed))
    return Dataset(source.name, tuple(attributes), tuple(columns), class_index)


def _t_relabel_classes(mr: MrSpec, source: Dataset) -> Dataset:
    class_index = _nominal_class(mr, source)
    class_attr = source.attributes[class_index]
    mapping = _parse_map(mr.params["map"])
    if set(mapping) != set(class_attr.values) or set(mapping.values()) != set(class_attr.values):
        raise ApplicabilityError(
            f"MR {mr.id}: map must be a permutation of the class value-set"
        )
    # a trailing -1 is what a missing label (code -1) picks
    lookup = np.array([class_attr.values.index(mapping[v]) for v in class_attr.values] + [-1])
    columns = list(source.columns)
    columns[class_index] = read_only(lookup[columns[class_index]])
    return replace(source, columns=tuple(columns))


def _t_add_data_points(mr: MrSpec, source: Dataset) -> Dataset:
    if source.n_rows == 0:
        raise ApplicabilityError(f"MR {mr.id}: cannot synthesize rows for an empty dataset")
    count = int(mr.params["count"])
    rng = _rng(mr)
    # one array per attribute, 8 bytes a cell, and the draw that fills it
    draws = []
    for attr, column in zip(source.attributes, source.columns):
        if attr.is_numeric:
            observed = column[~np.isnan(column)]
            if observed.size == 0:
                raise ApplicabilityError(
                    f"MR {mr.id}: attribute {attr.name!r} has no observed values to sample from"
                )
            low, high = observed.min(), observed.max()
            # the uniform draw needs a finite high - low
            if not math.isfinite(float(high) - float(low)):
                raise ApplicabilityError(
                    f"MR {mr.id}: attribute {attr.name!r} spans {float(low)!r} to "
                    f"{float(high)!r}, a range too wide to sample from"
                )
            draws.append((array("d"), partial(rng.uniform, low, high)))
        else:
            draws.append((array("q"), partial(rng.integers, len(attr.values))))
    # draws stay row by row, attribute by attribute, so a seed keeps its rows
    steps = [(drawn.append, draw) for drawn, draw in draws]
    for _ in range(count):
        for append, draw in steps:
            append(draw())
    columns = tuple(
        read_only(np.concatenate([c, np.frombuffer(drawn, c.dtype)]))
        for c, (drawn, _) in zip(source.columns, draws)
    )
    return replace(source, columns=columns)


# transform name -> (handler, needs seed=, required parameters: any one of them)
TRANSFORMS = {
    "identity": (_t_identity, False, ()),
    "permute_attributes": (_t_permute_attributes, False, ()),  # perm= or else seed=
    "permute_instances": (_t_permute_instances, True, ()),
    "affine_numeric": (_t_affine_numeric, False, ("scale", "shift")),
    "add_uninformative_attribute": (_t_add_uninformative, False, ("value",)),
    "add_informative_attribute": (_t_add_informative, False, ("map",)),
    "duplicate_instances": (_t_duplicate_instances, True, ("fraction",)),
    "remove_instances": (_t_remove_instances, True, ("fraction",)),
    "remove_class": (_t_remove_class, False, ("label",)),
    "relabel_classes": (_t_relabel_classes, False, ("map",)),
    "add_data_points": (_t_add_data_points, True, ("count",)),
}


def _lookup(transform: str) -> tuple:
    if transform not in TRANSFORMS:
        raise InputError(f"unknown transform {transform!r}")
    return TRANSFORMS[transform]


def build_pairs(catalog: Iterable[MrSpec], source: Dataset) -> Iterator[MrPair]:
    """Yield each MR's pair with *source*, applying the MR when it is drawn.

    Every MR is applied and the failures are reported together, when the
    loop ends; no pair is yielded after the first failure, so a consumer
    never scores a catalog that cannot be applied in full.
    """
    failures: list[str] = []
    for mr in catalog:
        try:
            followup = apply_mr(mr, source)
        except (InputError, ApplicabilityError) as exc:
            failures.append(f"{mr.id}: {exc}")
            continue
        if not failures:
            yield MrPair(mr, source, followup)
        del followup  # hold no follow-up while the next MR is applied
    if failures:
        raise ApplicabilityError(
            "catalog could not be applied:\n  " + "\n  ".join(failures)
        )


def pair_from_files(mr_id: str, name: str, source: Dataset, followup: Dataset) -> MrPair:
    """Pair a source with a follow-up loaded from disk (not recomputable)."""
    return MrPair(MrSpec(mr_id, name, EXTERNAL), source, followup)
