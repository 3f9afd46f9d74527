"""Rule-count diversity via CN2 sequential covering.

Numeric attributes are discretized per dataset with equal-width cuts
(``bins`` intervals) and contribute threshold selectors; nominal attributes
contribute equality selectors.  Rule quality is Laplace accuracy
(correct + 1) / (covered + |classes|).  Ties prefer fewer conditions and
then the earlier attribute order.  Induction removes the rows a rule covers
and stops when fewer than ``min_covered`` rows remain or no candidate beats
the Laplace accuracy of predicting the default class on the remaining rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..dataset import Dataset, mean_imputed
from ..errors import ApplicabilityError, InputError
from ..records import Record

OP_EQ = "="
OP_LE = "<="
OP_GT = ">"
_OP_RANK = {OP_EQ: 0, OP_LE: 1, OP_GT: 2}


@dataclass(frozen=True)
class Condition(Record):
    attribute: str
    operator: str
    value: str | float


@dataclass(frozen=True)
class Rule(Record):
    conditions: tuple[Condition, ...]
    predicted_class: str
    coverage: int          # rows covered at induction time
    accuracy: float        # Laplace accuracy at induction time

    def identity(self) -> tuple:
        """Syntactic identity: condition set plus predicted class."""
        return (
            frozenset((c.attribute, c.operator, c.value) for c in self.conditions),
            self.predicted_class,
        )


@dataclass(frozen=True)
class RuleSet(Record):
    rules: tuple[Rule, ...]
    default_class: str


@dataclass(frozen=True)
class Cn2Params:
    beam_width: int = 5
    min_covered: int = 2
    max_conditions: int = 3
    bins: int = 4

    def __post_init__(self) -> None:
        if self.beam_width < 1 or self.min_covered < 1 or self.max_conditions < 1:
            raise InputError("CN2 parameters must all be >= 1")
        if self.bins < 2:
            raise InputError(f"bins must be >= 2, got {self.bins}")


@dataclass(frozen=True)
class _Selector:
    attr_index: int
    attribute: str
    operator: str
    value: str | float
    value_rank: float
    mask: np.ndarray = field(repr=False, compare=False)

    @property
    def key(self) -> tuple:
        return (self.attr_index, _OP_RANK[self.operator], self.value_rank)


def _impute_columns(dataset: Dataset) -> list[np.ndarray]:
    """Columns as arrays; numeric cells imputed by ``mean_imputed``, nominal by mode.

    Nominal columns come back as value-set index codes.  A column with no
    observed values falls back to 0.0 (numeric) or the first declared value
    (nominal); such columns produce no selectors anyway.
    """
    columns: list[np.ndarray] = []
    for attr, column in zip(dataset.attributes, dataset.columns):
        if attr.is_numeric:
            imputed = mean_imputed(column)
            columns.append(np.zeros(column.size) if imputed is None else imputed[0])
        else:
            observed = column[column >= 0]
            counts = np.bincount(observed, minlength=len(attr.values))
            columns.append(np.where(column < 0, counts.argmax(), column))
    return columns


def _build_selectors(dataset: Dataset, columns: list[np.ndarray], bins: int) -> list[_Selector]:
    selectors: list[_Selector] = []
    for j in dataset.non_class_indices():
        attr = dataset.attributes[j]
        col = columns[j]
        if attr.is_numeric:
            lo, hi = float(col.min()), float(col.max())
            if hi <= lo:
                continue
            for step in range(1, bins):
                cut = lo + (hi - lo) * step / bins
                selectors.append(
                    _Selector(j, attr.name, OP_LE, cut, cut, col <= cut)
                )
                selectors.append(
                    _Selector(j, attr.name, OP_GT, cut, cut, col > cut)
                )
        else:
            for rank, value in enumerate(attr.values):
                selectors.append(
                    _Selector(j, attr.name, OP_EQ, value, float(rank), col == rank)
                )
    return selectors


def _laplace(counts: np.ndarray, covered: int, n_classes: int) -> tuple[float, int]:
    best = int(counts.argmax())
    return (float(counts[best]) + 1.0) / (covered + n_classes), best


def _best_rule(
    selectors: list[_Selector],
    remaining: np.ndarray,
    class_codes: np.ndarray,
    n_classes: int,
    params: Cn2Params,
):
    """Beam search for the highest-Laplace rule over the remaining rows.

    Returns (laplace, key, selector-set, mask, covered, predicted) or None.
    """
    best = None

    def consider(candidate):
        nonlocal best
        if best is None or candidate[:3] < best[:3]:
            best = candidate

    beam: list[tuple] = []
    seen: set[frozenset] = set()
    for depth in range(params.max_conditions):
        if depth == 0:
            expansions = [((), None)]
        else:
            expansions = [(entry[3], entry[4]) for entry in beam]
        level: list[tuple] = []
        for sel_set, base_mask in expansions:
            used_slots = {(s.attr_index, s.operator) for s in sel_set}
            for sel in selectors:
                if (sel.attr_index, sel.operator) in used_slots:
                    continue
                new_set = sel_set + (sel,)
                fingerprint = frozenset(s.key for s in new_set)
                if fingerprint in seen:
                    continue
                seen.add(fingerprint)
                mask = (base_mask & sel.mask) if base_mask is not None else (remaining & sel.mask)
                covered = int(mask.sum())
                if covered < params.min_covered:
                    continue
                counts = np.bincount(class_codes[mask], minlength=n_classes)
                laplace, predicted = _laplace(counts, covered, n_classes)
                key = tuple(sorted(s.key for s in new_set))
                entry = (-laplace, len(new_set), key, new_set, mask, covered, predicted)
                level.append(entry)
                consider(entry)
        if not level:
            break
        level.sort(key=lambda e: (e[0], e[1], e[2]))
        beam = level[: params.beam_width]

    if best is None:
        return None
    neg_laplace, _, key, sel_set, mask, covered, predicted = best
    return -neg_laplace, key, sel_set, mask, covered, predicted


def cn2_induce(dataset: Dataset, params: Cn2Params | None = None) -> RuleSet:
    params = params or Cn2Params()
    class_attr = dataset.class_attribute
    if class_attr is None:
        raise ApplicabilityError(
            f"dataset {dataset.name!r}: rule induction needs a class attribute"
        )
    if class_attr.values is None:
        raise ApplicabilityError(
            f"dataset {dataset.name!r}: rule induction needs a nominal class"
        )
    if dataset.n_rows == 0:
        raise ApplicabilityError(f"dataset {dataset.name!r}: no rows")

    columns = _impute_columns(dataset)
    class_codes = columns[dataset.class_index]
    n_classes = len(class_attr.values)
    default_code = int(np.bincount(class_codes, minlength=n_classes).argmax())
    selectors = _build_selectors(dataset, columns, params.bins)

    rules: list[Rule] = []
    remaining = np.ones(dataset.n_rows, dtype=bool)
    while int(remaining.sum()) >= params.min_covered:
        found = _best_rule(selectors, remaining, class_codes, n_classes, params)
        if found is None:
            break
        laplace, _, sel_set, mask, covered, predicted = found
        n_remaining = int(remaining.sum())
        default_count = int((class_codes[remaining] == default_code).sum())
        default_laplace = (default_count + 1.0) / (n_remaining + n_classes)
        if laplace <= default_laplace:
            break
        conditions = tuple(
            Condition(s.attribute, s.operator, s.value)
            for s in sorted(sel_set, key=lambda s: s.key)
        )
        rules.append(
            Rule(conditions, class_attr.values[predicted], covered, laplace)
        )
        remaining &= ~mask

    return RuleSet(tuple(rules), class_attr.values[default_code])


def compare_rules(source: RuleSet, followup: RuleSet) -> tuple[float, dict]:
    """Absolute difference of rule counts after discarding shared rules."""
    ids_s = {r.identity() for r in source.rules}
    ids_f = {r.identity() for r in followup.rules}
    shared = ids_s & ids_f
    surviving_s = [r for r in source.rules if r.identity() not in shared]
    surviving_f = [r for r in followup.rules if r.identity() not in shared]
    raw = float(abs(len(surviving_s) - len(surviving_f)))
    diagnostics = {
        "source": source.to_dict(),
        "followup": followup.to_dict(),
        "shared_rules": len(shared),
        "surviving_source": len(surviving_s),
        "surviving_followup": len(surviving_f),
    }
    return raw, diagnostics


def rule_diversity(
    source: Dataset, followup: Dataset, params: Cn2Params | None = None
) -> tuple[float, dict]:
    return compare_rules(cn2_induce(source, params), cn2_induce(followup, params))
