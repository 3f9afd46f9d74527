"""Rule-count diversity via CN2 sequential covering.

Numeric attributes are discretized per dataset with equal-width cuts
(``bins`` intervals) and contribute threshold selectors; nominal attributes
contribute equality selectors.  Rule quality is Laplace accuracy
(correct + 1) / (covered + |classes|).  Ties prefer fewer conditions and
then the earlier attribute order.  Induction removes the rows a rule covers
and stops when fewer than ``min_covered`` rows remain or no candidate beats
the Laplace accuracy of predicting the default class on the remaining rows.
Masks over rows are packed bitsets, so each beam level scores all of its
candidates with one AND and one popcount.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..dataset import Dataset, mean_imputed
from ..errors import ApplicabilityError, InputError
from ..records import Record
from . import MetricParams, _diversity

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

    @property
    def total(self) -> int:
        return len(self.rules)


@dataclass(frozen=True)
class _Selector:
    attr_index: int
    attribute: str
    operator: str
    value: str | float
    value_rank: float

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


def _pack(masks: np.ndarray) -> np.ndarray:
    """Bool masks over rows as bitsets of uint64 words along the last axis.

    The bits past the last row are 0, so ANDs and counts need no trimming.
    """
    n_rows = masks.shape[-1]
    packed = np.zeros(masks.shape[:-1] + (-(-n_rows // 64) * 8,), dtype=np.uint8)
    packed[..., : -(-n_rows // 8)] = np.packbits(masks, axis=-1)
    return packed.view(np.uint64)


def _count(bits: np.ndarray) -> np.ndarray:
    """Rows in each bitset of the last axis."""
    return np.bitwise_count(bits).sum(axis=-1, dtype=np.int64)


def _build_selectors(
    dataset: Dataset, columns: list[np.ndarray], bins: int
) -> tuple[list[_Selector], np.ndarray]:
    """Selectors in attribute order, one per key, and their packed masks.

    The equal-width cuts of a column that spans a few ULPs can round to the
    same value; a repeated cut would repeat a key and its mask, so it is
    dropped.  A column whose imputed mean or cuts overflow float64 is not
    applicable.
    """
    selectors: list[_Selector] = []
    masks: list[np.ndarray] = []
    for j in dataset.non_class_indices():
        attr = dataset.attributes[j]
        col = columns[j]
        if attr.is_numeric:
            lo, hi = float(col.min()), float(col.max())
            cuts = dict.fromkeys(lo + (hi - lo) * step / bins for step in range(1, bins))
            # NaN or inf in the column (an imputed mean) reaches lo or hi
            if not all(map(math.isfinite, (lo, hi, *cuts))):
                raise ApplicabilityError(
                    f"dataset {dataset.name!r}: attribute {attr.name!r} has an imputed "
                    "mean or CN2 cuts that overflow float64 (rescale it)"
                )
            if hi <= lo:
                continue
            for cut in cuts:
                selectors.append(_Selector(j, attr.name, OP_LE, cut, cut))
                masks.append(col <= cut)
                selectors.append(_Selector(j, attr.name, OP_GT, cut, cut))
                masks.append(col > cut)
        else:
            for rank, value in enumerate(attr.values):
                selectors.append(_Selector(j, attr.name, OP_EQ, value, float(rank)))
                masks.append(col == rank)
    return selectors, _pack(np.array(masks, dtype=bool).reshape(len(masks), dataset.n_rows))


def _best_rule(
    keys: list[tuple],
    slots: np.ndarray,
    selector_bits: np.ndarray,
    class_bits: np.ndarray,
    remaining: np.ndarray,
    params: MetricParams,
):
    """Beam search for the highest-Laplace rule over the remaining rows.

    ``slots`` numbers each selector's (attribute, operator) pair; a rule
    uses each pair at most once.  Candidates rank by (-Laplace, conditions,
    sorted selector keys), and a selector set reached from two beam parents
    is one candidate.  Returns (laplace, selector indices, packed mask,
    covered, predicted) or None.
    """
    n_classes = class_bits.shape[0]
    best = None
    # (sorted keys, selector indices, bits, selectors whose slot is free)
    beam: list[tuple] = [((), (), remaining, np.ones(len(keys), dtype=bool))]
    for depth in range(params.max_conditions):
        parent, sel = np.nonzero(np.array([free for *_, free in beam]))
        # one AND per level: each (parent, free selector) pair with each class
        hits = (np.array([bits for _, _, bits, _ in beam])[:, None, :] & class_bits)[parent]
        hits &= selector_bits[sel][:, None, :]
        counts = _count(hits)
        covered = counts.sum(axis=1)
        laplace = (counts.max(axis=1) + 1.0) / (covered + n_classes)
        eligible = np.flatnonzero(covered >= params.min_covered)
        if eligible.size == 0:
            break
        # Walk whole tie groups in descending Laplace, deduplicating, until
        # beam_width distinct sets are in hand; no later group can enter
        # the beam.  The cutoff must count distinct sets, not candidates.
        order = eligible[np.argsort(-laplace[eligible])]
        ends = (np.flatnonzero(np.diff(laplace[order])) + 1).tolist() + [order.size]
        order, parent, sel = order.tolist(), parent.tolist(), sel.tolist()
        level: dict[tuple, int] = {}
        start = 0
        for end in ends:
            for i in order[start:end]:
                level.setdefault(tuple(sorted(beam[parent[i]][0] + (keys[sel[i]],))), i)
            if len(level) >= params.beam_width:
                break
            start = end
        ranked = sorted((-float(laplace[i]), key, i) for key, i in level.items())
        next_beam = []
        for _, key, i in ranked[: params.beam_width]:
            _, chosen, bits, free = beam[parent[i]]
            s = sel[i]
            next_beam.append(
                (key, chosen + (s,), bits & selector_bits[s], free & (slots != slots[s]))
            )
        beam = next_beam
        # a longer rule must beat the best so far outright: ties prefer
        # fewer conditions
        neg_laplace, _, i = ranked[0]
        if best is None or -neg_laplace > best[0]:
            _, chosen, bits, _ = beam[0]
            best = (-neg_laplace, chosen, bits, int(covered[i]), int(counts[i].argmax()))
    return best


def cn2_induce(dataset: Dataset, params: MetricParams | None = None) -> RuleSet:
    params = params or MetricParams()
    if params.beam_width < 1 or params.min_covered < 1 or params.max_conditions < 1:
        raise InputError("CN2 parameters must all be >= 1")
    if params.bins < 2:
        raise InputError(f"bins must be >= 2, got {params.bins}")
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
    selectors, selector_bits = _build_selectors(dataset, columns, params.bins)
    keys = [s.key for s in selectors]
    slots = np.array([attr * len(_OP_RANK) + op for attr, op, _ in keys], dtype=np.int64)
    class_bits = _pack(class_codes == np.arange(n_classes)[:, None])

    rules: list[Rule] = []
    remaining = _pack(np.ones(dataset.n_rows, dtype=bool))
    while (n_remaining := int(_count(remaining))) >= params.min_covered:
        found = _best_rule(keys, slots, selector_bits, class_bits, remaining, params)
        if found is None:
            break
        laplace, chosen, bits, covered, predicted = found
        default_count = int(_count(remaining & class_bits[default_code]))
        default_laplace = (default_count + 1.0) / (n_remaining + n_classes)
        if laplace <= default_laplace:
            break
        conditions = tuple(
            Condition(s.attribute, s.operator, s.value)
            for s in sorted((selectors[k] for k in chosen), key=lambda s: s.key)
        )
        rules.append(
            Rule(conditions, class_attr.values[predicted], covered, laplace)
        )
        remaining &= ~bits

    return RuleSet(tuple(rules), class_attr.values[default_code])


def summarize(dataset: Dataset, params: MetricParams | None = None, source=None) -> RuleSet:
    """One side of the ``rule`` metric: its CN2 rule set; *source* goes unused."""
    return cn2_induce(dataset, params)


def compare_fields(source: RuleSet, followup: RuleSet) -> dict:
    """The diagnostics fields of the ``rule`` compare: the rules shared
    verbatim, and each side's rules once those are discarded.  Shared rules
    leave both sides, so the raw score is still |R_s - R_f|."""
    ids_s = {r.identity() for r in source.rules}
    ids_f = {r.identity() for r in followup.rules}
    shared = ids_s & ids_f
    return {
        "shared_rules": len(shared),
        "surviving_source": sum(r.identity() not in shared for r in source.rules),
        "surviving_followup": sum(r.identity() not in shared for r in followup.rules),
    }


def rule_diversity(source: Dataset, followup: Dataset, params: MetricParams | None = None):
    return _diversity("rule", source, followup, params)
