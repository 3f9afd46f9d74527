"""CN2 on packed bitsets against a dense-mask reference.

``oracle_cn2_induce`` is the beam search written the direct way: one dense
bool mask per selector and per candidate, each candidate scored on its own,
fingerprints deduplicated through one ``seen`` set, and the numeric cuts
taken as computed, duplicates included.  ``cn2_induce`` must return the
same ``RuleSet`` for every dataset and every CN2 setting of ``MetricParams``,
Laplace floats included.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mrprior.dataset import Attribute, Dataset
from mrprior.metrics import MetricParams
from mrprior.metrics.rules import (
    _OP_RANK,
    OP_EQ,
    OP_GT,
    OP_LE,
    Condition,
    Rule,
    RuleSet,
    _build_selectors,
    _impute_columns,
    cn2_induce,
)

from conftest import make_dataset

COMMON = dict(deadline=None, derandomize=True, database=None)


@dataclass(frozen=True)
class OracleSelector:
    attr_index: int
    attribute: str
    operator: str
    value: str | float
    value_rank: float
    mask: np.ndarray = field(repr=False, compare=False)

    @property
    def key(self) -> tuple:
        return (self.attr_index, _OP_RANK[self.operator], self.value_rank)


def oracle_selectors(dataset, columns, bins):
    selectors = []
    for j in dataset.non_class_indices():
        attr = dataset.attributes[j]
        col = columns[j]
        if attr.is_numeric:
            lo, hi = float(col.min()), float(col.max())
            if hi <= lo:
                continue
            for step in range(1, bins):
                cut = lo + (hi - lo) * step / bins
                selectors.append(OracleSelector(j, attr.name, OP_LE, cut, cut, col <= cut))
                selectors.append(OracleSelector(j, attr.name, OP_GT, cut, cut, col > cut))
        else:
            for rank, value in enumerate(attr.values):
                selectors.append(
                    OracleSelector(j, attr.name, OP_EQ, value, float(rank), col == rank)
                )
    return selectors


def oracle_best_rule(selectors, remaining, class_codes, n_classes, params):
    best = None

    def consider(candidate):
        nonlocal best
        if best is None or candidate[:3] < best[:3]:
            best = candidate

    beam = []
    seen = set()
    for depth in range(params.max_conditions):
        if depth == 0:
            expansions = [((), None)]
        else:
            expansions = [(entry[3], entry[4]) for entry in beam]
        level = []
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
                mask = (base_mask if base_mask is not None else remaining) & sel.mask
                covered = int(mask.sum())
                if covered < params.min_covered:
                    continue
                counts = np.bincount(class_codes[mask], minlength=n_classes)
                predicted = int(counts.argmax())
                laplace = (float(counts[predicted]) + 1.0) / (covered + n_classes)
                key = tuple(sorted(s.key for s in new_set))
                entry = (-laplace, len(new_set), key, new_set, mask, covered, predicted)
                level.append(entry)
                consider(entry)
        if not level:
            break
        level.sort(key=lambda e: (e[0], e[1], e[2]))
        beam = level[: params.beam_width]
    return best


def oracle_cn2_induce(dataset, params):
    class_attr = dataset.class_attribute
    columns = _impute_columns(dataset)
    class_codes = columns[dataset.class_index]
    n_classes = len(class_attr.values)
    default_code = int(np.bincount(class_codes, minlength=n_classes).argmax())
    selectors = oracle_selectors(dataset, columns, params.bins)
    rules = []
    remaining = np.ones(dataset.n_rows, dtype=bool)
    while int(remaining.sum()) >= params.min_covered:
        best = oracle_best_rule(selectors, remaining, class_codes, n_classes, params)
        if best is None:
            break
        neg_laplace, _, _, sel_set, mask, covered, predicted = best
        laplace = -neg_laplace
        n_remaining = int(remaining.sum())
        default_count = int((class_codes[remaining] == default_code).sum())
        if laplace <= (default_count + 1.0) / (n_remaining + n_classes):
            break
        conditions = tuple(
            Condition(s.attribute, s.operator, s.value)
            for s in sorted(sel_set, key=lambda s: s.key)
        )
        rules.append(Rule(conditions, class_attr.values[predicted], covered, laplace))
        remaining &= ~mask
    return RuleSet(tuple(rules), class_attr.values[default_code])


@st.composite
def cn2_datasets(draw):
    """1-300 rows of mixed columns and a 2- or 3-valued class.

    Hypothesis picks the shape; a seeded generator fills the cells.  Small
    integer cells and few nominal values make Laplace ties common;
    near-constant columns span a few ULPs, so that their cuts coincide.
    """
    n_rows = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    missing = draw(st.sampled_from([0.0, 0.1, 0.4]))
    attributes, columns = [], []
    for j, kind in enumerate(draw(st.lists(
        st.sampled_from(["small", "wide", "near_constant", "nominal"]), min_size=1, max_size=4,
    ))):
        if kind == "nominal":
            values = ("u", "v", "w")[: int(rng.integers(1, 4))]
            cells = rng.integers(0, len(values), n_rows)
            cells[rng.random(n_rows) < missing] = -1
            attributes.append(Attribute(f"n{j}", values))
        else:
            if kind == "small":
                cells = rng.integers(-2, 3, n_rows).astype(float)
            elif kind == "wide":
                cells = rng.normal(0.0, 50.0, n_rows)
            else:
                base = float(rng.uniform(-10, 10))
                cells = base + rng.integers(0, 4, n_rows) * np.spacing(base)
            cells[rng.random(n_rows) < missing] = np.nan
            attributes.append(Attribute(f"x{j}"))
        columns.append(cells)
    labels = ("p", "q", "r")[: draw(st.integers(2, 3))]
    codes = rng.integers(0, len(labels), n_rows)
    codes[rng.random(n_rows) < missing / 4] = -1
    attributes.append(Attribute("cls", labels))
    columns.append(codes)
    return Dataset("cn2", tuple(attributes), tuple(columns), len(attributes) - 1)


CN2_PARAMS = st.builds(
    MetricParams,
    beam_width=st.integers(1, 8),
    min_covered=st.integers(1, 5),
    max_conditions=st.integers(1, 4),
    bins=st.integers(2, 6),
)


@settings(max_examples=150, **COMMON)
@given(dataset=cn2_datasets(), params=CN2_PARAMS)
def test_rule_sets_match_dense_oracle(dataset, params):
    assert cn2_induce(dataset, params) == oracle_cn2_induce(dataset, params)


def test_matches_oracle_on_random_tables():
    rng = np.random.default_rng(9)
    for run in range(8):
        params = MetricParams(beam_width=int(rng.integers(1, 9)), bins=int(rng.integers(2, 7)))
        n_rows = 400 + 37 * run
        columns = {f"x{j}": list(rng.normal(0, 1 + j, n_rows)) for j in range(4)}
        columns["g"] = [("s", "t", "u")[int(k)] for k in rng.integers(0, 3, n_rows)]
        columns["cls"] = [("a", "b", "c")[int(k)] for k in rng.integers(0, 3, n_rows)]
        dataset = make_dataset(columns, class_name="cls")
        assert cn2_induce(dataset, params) == oracle_cn2_induce(dataset, params)


def test_coinciding_cuts_give_one_selector_each():
    # the cuts of [1, 1 + ulp] into 4 bins round to 1.0, 1.0 and 1 + ulp
    dataset = make_dataset(
        {"f": [1.0, 1.0 + np.spacing(1.0)], "cls": ["a", "b"]}, class_name="cls"
    )
    columns = _impute_columns(dataset)
    assert len(oracle_selectors(dataset, columns, 4)) == 6
    selectors = _build_selectors(dataset, columns, 4)[0]
    assert [(s.operator, s.value) for s in selectors] == [
        (OP_LE, 1.0), (OP_GT, 1.0), (OP_LE, 1.0 + np.spacing(1.0)), (OP_GT, 1.0 + np.spacing(1.0)),
    ]
