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

import math
import shlex
from dataclasses import dataclass, field

import numpy as np

from .dataset import Attribute, Dataset, parse_number
from .errors import ApplicabilityError, InputError

# transform name -> requires a seed
TRANSFORMS = {
    "identity": False,
    "permute_attributes": False,  # seed required only when perm= is absent
    "permute_instances": True,
    "affine_numeric": False,
    "add_uninformative_attribute": False,
    "add_informative_attribute": False,
    "duplicate_instances": True,
    "remove_instances": True,
    "remove_class": False,
    "relabel_classes": False,
    "add_data_points": True,
}

# marker for pairs whose follow-up came from a file instead of a transform
EXTERNAL = "external"


@dataclass(frozen=True)
class MrSpec:
    id: str
    name: str
    transform: str
    params: dict = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise InputError("MR id must be non-empty")
        if self.transform not in TRANSFORMS and self.transform != EXTERNAL:
            raise InputError(f"MR {self.id}: unknown transform {self.transform!r}")


@dataclass(frozen=True)
class MrPair:
    """Source/follow-up dataset pair for one MR.

    ``recomputable`` is False when the follow-up was supplied as a file, in
    which case nothing ties it to the transform named in ``mr``.
    """

    mr: MrSpec
    source: Dataset
    followup: Dataset
    recomputable: bool = True


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


# ---------------------------------------------------------------------------
# catalog file
# ---------------------------------------------------------------------------

_INT_PARAMS = {"seed", "count"}
_FLOAT_PARAMS = {"scale", "shift", "fraction"}


def _parse_params(path: str, lineno: int, tokens: list[str]) -> dict:
    params: dict = {}
    for token in tokens:
        if "=" not in token:
            raise InputError(f"{path}: line {lineno}: expected key=value, got {token!r}")
        key, _, value = token.partition("=")
        key = key.strip()
        if not key:
            raise InputError(f"{path}: line {lineno}: empty parameter name in {token!r}")
        if key in params:
            raise InputError(f"{path}: line {lineno}: duplicate parameter {key!r}")
        if key in _INT_PARAMS:
            try:
                params[key] = int(value)
            except ValueError:
                raise InputError(
                    f"{path}: line {lineno}: parameter {key!r} expects an integer, "
                    f"got {value!r}"
                ) from None
        elif key in _FLOAT_PARAMS:
            number = parse_number(value)
            if number is None:
                raise InputError(
                    f"{path}: line {lineno}: parameter {key!r} expects a number, got {value!r}"
                )
            params[key] = number
        else:
            params[key] = value
    return params


def load_catalog(path: str) -> list[MrSpec]:
    """Parse a catalog file into MR specs, preserving declaration order."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc

    specs: list[MrSpec] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            tokens = shlex.split(stripped, comments=True)
        except ValueError as exc:
            raise InputError(f"{path}: line {lineno}: {exc}") from exc
        if not tokens:
            continue
        if len(tokens) < 3:
            raise InputError(
                f"{path}: line {lineno}: expected '<id> <name> <transform> [key=value ...]'"
            )
        mr_id, mr_name, transform = tokens[0], tokens[1], tokens[2]
        if mr_id in seen:
            raise InputError(f"{path}: line {lineno}: duplicate MR id {mr_id!r}")
        seen.add(mr_id)
        if transform not in TRANSFORMS:
            raise InputError(f"{path}: line {lineno}: unknown transform {transform!r}")
        params = _parse_params(path, lineno, tokens[3:])
        seed = params.pop("seed", None)
        try:
            _validate_static(transform, params, seed)
        except InputError as exc:
            raise InputError(f"{path}: line {lineno}: {exc}") from None
        specs.append(MrSpec(mr_id, mr_name, transform, params, seed))
    if not specs:
        raise InputError(f"{path}: catalog declares no MRs")
    return specs


def _validate_static(transform: str, params: dict, seed: int | None) -> None:
    """Checks that do not need the dataset: types, ranges, seed presence."""
    if TRANSFORMS[transform] and seed is None:
        raise InputError(f"transform {transform!r} is randomized and needs seed=")
    if transform == "permute_attributes":
        if "perm" not in params and seed is None:
            raise InputError("permute_attributes needs either perm= or seed=")
        if "perm" in params:
            _parse_int_list(params["perm"], "perm")
    elif transform == "affine_numeric":
        if "scale" not in params and "shift" not in params:
            raise InputError("affine_numeric needs scale= or shift=")
        if params.get("scale", 1.0) == 0:
            raise InputError("affine_numeric scale must be nonzero")
    elif transform in ("duplicate_instances", "remove_instances"):
        fraction = params.get("fraction")
        if fraction is None:
            raise InputError(f"{transform} needs fraction=")
        if not 0 < fraction <= 1:
            raise InputError(f"{transform} fraction must be in (0, 1], got {fraction}")
    elif transform == "remove_class":
        if "label" not in params:
            raise InputError("remove_class needs label=")
    elif transform == "relabel_classes":
        if "map" not in params:
            raise InputError("relabel_classes needs map=")
        _parse_map(params["map"])
    elif transform == "add_informative_attribute":
        if "map" not in params:
            raise InputError("add_informative_attribute needs map=")
        _parse_map(params["map"])
    elif transform == "add_uninformative_attribute":
        if "value" not in params:
            raise InputError("add_uninformative_attribute needs value=")
    elif transform == "add_data_points":
        count = params.get("count")
        if count is None:
            raise InputError("add_data_points needs count=")
        if count < 1:
            raise InputError(f"add_data_points count must be >= 1, got {count}")


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
    if not mapping:
        raise InputError("map must not be empty")
    return mapping


# ---------------------------------------------------------------------------
# transform application
# ---------------------------------------------------------------------------

def apply_mr(mr: MrSpec, source: Dataset) -> Dataset:
    """Build the follow-up dataset for *mr*; deterministic given the seed."""
    if mr.transform == EXTERNAL:
        raise ApplicabilityError(f"MR {mr.id}: external follow-ups cannot be recomputed")
    _validate_static(mr.transform, mr.params, mr.seed)
    handler = _HANDLERS[mr.transform]
    followup = handler(mr, source)
    return followup.replace(name=f"{source.name}#{mr.id}")


def _rng(mr: MrSpec) -> np.random.Generator:
    if mr.seed is None:
        raise InputError(f"MR {mr.id}: transform {mr.transform!r} needs a seed")
    return np.random.default_rng(mr.seed)


def _require_class(mr: MrSpec, source: Dataset) -> int:
    if source.class_index is None:
        raise ApplicabilityError(f"MR {mr.id}: dataset has no class attribute")
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
            token = token.strip()
            idx = int(token) if token.lstrip("-").isdigit() else None
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
    columns = list(source.columns)
    # an overflow to inf is reported by the Dataset check, with its row
    with np.errstate(over="ignore"):
        for j in set(targets):
            columns[j] = scale * columns[j] + shift
    return source.replace(columns=tuple(columns))


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
    columns = source.columns[:pos] + (column,) + source.columns[pos:]
    return Dataset(source.name, attributes, columns, class_index)


def _t_add_uninformative(mr: MrSpec, source: Dataset) -> Dataset:
    value = str(mr.params["value"])
    name = _fresh_attribute_name(source, str(mr.params.get("name", "uninformative")))
    number = parse_number(value)
    if number is None:
        return _insert_attribute(source, Attribute(name, (value,)), np.zeros(source.n_rows, int))
    return _insert_attribute(source, Attribute(name), np.full(source.n_rows, number))


def _t_add_informative(mr: MrSpec, source: Dataset) -> Dataset:
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


def _t_duplicate_instances(mr: MrSpec, source: Dataset) -> Dataset:
    if source.n_rows == 0:
        raise ApplicabilityError(f"MR {mr.id}: cannot duplicate rows of an empty dataset")
    count = round_half_up(float(mr.params["fraction"]) * source.n_rows)
    count = min(count, source.n_rows)
    chosen = _rng(mr).choice(source.n_rows, size=count, replace=False)
    return source.take(np.concatenate([np.arange(source.n_rows), chosen]))


def _t_remove_instances(mr: MrSpec, source: Dataset) -> Dataset:
    if source.n_rows == 0:
        raise ApplicabilityError(f"MR {mr.id}: cannot remove rows from an empty dataset")
    count = round_half_up(float(mr.params["fraction"]) * source.n_rows)
    count = min(count, source.n_rows)
    keep = np.ones(source.n_rows, dtype=bool)
    keep[_rng(mr).choice(source.n_rows, size=count, replace=False)] = False
    return source.take(np.flatnonzero(keep))


def _t_remove_class(mr: MrSpec, source: Dataset) -> Dataset:
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
    removed = class_attr.values.index(label)
    kept = np.flatnonzero(source.columns[class_index] != removed)
    columns = [c[kept] for c in source.columns]
    codes = columns[class_index]
    columns[class_index] = codes - (codes > removed)
    return Dataset(source.name, tuple(attributes), tuple(columns), class_index)


def _t_relabel_classes(mr: MrSpec, source: Dataset) -> Dataset:
    class_index = _require_class(mr, source)
    class_attr = source.attributes[class_index]
    if class_attr.values is None:
        raise ApplicabilityError(f"MR {mr.id}: class attribute is not nominal")
    mapping = _parse_map(mr.params["map"])
    if set(mapping) != set(class_attr.values) or set(mapping.values()) != set(class_attr.values):
        raise ApplicabilityError(
            f"MR {mr.id}: map must be a permutation of the class value-set"
        )
    # a trailing -1 is what a missing label (code -1) picks
    lookup = np.array([class_attr.values.index(mapping[v]) for v in class_attr.values] + [-1])
    columns = list(source.columns)
    columns[class_index] = lookup[columns[class_index]]
    return source.replace(columns=tuple(columns))


def _t_add_data_points(mr: MrSpec, source: Dataset) -> Dataset:
    if source.n_rows == 0:
        raise ApplicabilityError(f"MR {mr.id}: cannot synthesize rows for an empty dataset")
    count = int(mr.params["count"])
    rng = _rng(mr)
    ranges = []
    for attr, column in zip(source.attributes, source.columns):
        if attr.is_numeric:
            observed = column[~np.isnan(column)]
            if observed.size == 0:
                raise ApplicabilityError(
                    f"MR {mr.id}: attribute {attr.name!r} has no observed values to sample from"
                )
            ranges.append((observed.min(), observed.max()))
        else:
            ranges.append(None)
    # draws stay row by row, attribute by attribute, so a seed keeps its rows
    new_rows = [
        [rng.uniform(*ranges[j]) if attr.is_numeric else rng.integers(len(attr.values))
         for j, attr in enumerate(source.attributes)]
        for _ in range(count)
    ]
    columns = tuple(np.concatenate([c, a]) for c, a in zip(source.columns, zip(*new_rows)))
    return source.replace(columns=columns)


_HANDLERS = {
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


def build_pairs(catalog: list[MrSpec], source: Dataset) -> list[MrPair]:
    """Apply every MR to *source*; failures are collected and reported together."""
    pairs: list[MrPair] = []
    failures: list[str] = []
    for mr in catalog:
        try:
            pairs.append(MrPair(mr, source, apply_mr(mr, source)))
        except (InputError, ApplicabilityError) as exc:
            failures.append(f"{mr.id}: {exc}")
    if failures:
        raise ApplicabilityError(
            "catalog could not be applied:\n  " + "\n  ".join(failures)
        )
    return pairs


def pair_from_files(mr_id: str, name: str, source: Dataset, followup: Dataset) -> MrPair:
    """Pair a source with a follow-up loaded from disk (not recomputable)."""
    mr = MrSpec(mr_id, name, EXTERNAL)
    return MrPair(mr, source, followup, recomputable=False)
