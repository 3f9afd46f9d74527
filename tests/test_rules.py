"""Tests for CN2 induction and the rule-count metric."""

import numpy as np
import pytest

from mrprior.catalog import MrSpec, apply_mr
from mrprior.dataset import Attribute
from mrprior.errors import ApplicabilityError, InputError
from mrprior.metrics import MetricParams
from mrprior.metrics.rules import (
    OP_EQ,
    OP_LE,
    _impute_columns,
    cn2_induce,
    rule_diversity,
)

from conftest import from_rows, make_dataset, random_dataset, rows

LAPLACE_10_OF_10 = 11.0 / 12.0


def classify(dataset, ruleset):
    """First-match predictions per row, defaulting when no rule fires."""
    columns = _impute_columns(dataset)
    names = [a.name for a in dataset.attributes]
    nominal_codes = {
        a.name: {v: i for i, v in enumerate(a.values)}
        for a in dataset.attributes
        if not a.is_numeric
    }
    predictions = []
    for r in range(dataset.n_rows):
        label = ruleset.default_class
        for rule in ruleset.rules:
            hit = True
            for cond in rule.conditions:
                cell = columns[names.index(cond.attribute)][r]
                if cond.operator == OP_EQ:
                    hit = cell == nominal_codes[cond.attribute][cond.value]
                elif cond.operator == OP_LE:
                    hit = cell <= cond.value
                else:
                    hit = cell > cond.value
                if not hit:
                    break
            if hit:
                label = rule.predicted_class
                break
        predictions.append(label)
    return predictions


def separable_dataset():
    """20 rows split 10/10 by a single numeric attribute, zero overlap.

    Equal-width cuts over [0, 10] land at 2.5, 5.0 and 7.5, so the first
    cut alone separates the classes perfectly.
    """
    f = [round(0.1 * i, 1) for i in range(10)] + [round(9.1 + 0.1 * i, 1) for i in range(10)]
    labels = ["a"] * 10 + ["b"] * 10
    return make_dataset({"f": f, "cls": labels}, class_name="cls")


def noise_dataset():
    """Class labels alternate independently of the lone attribute."""
    f = [float(i) for i in range(40)]
    labels = ["a", "b"] * 20
    return make_dataset({"f": f, "cls": labels}, class_name="cls")


class TestCn2Induce:
    def test_separable_fixture_yields_two_rules(self):
        ruleset = cn2_induce(separable_dataset())
        assert len(ruleset.rules) == 2
        for rule in ruleset.rules:
            assert rule.accuracy == LAPLACE_10_OF_10
            assert rule.coverage == 10

    def test_separable_fixture_rule_shapes(self):
        ruleset = cn2_induce(separable_dataset())
        first, second = ruleset.rules
        assert [c.to_dict() for c in first.conditions] == [
            {"attribute": "f", "operator": "<=", "value": 2.5}
        ]
        assert first.predicted_class == "a"
        assert [c.to_dict() for c in second.conditions] == [
            {"attribute": "f", "operator": ">", "value": 2.5}
        ]
        assert second.predicted_class == "b"
        assert ruleset.default_class == "a"

    def test_constant_nominal_attribute_changes_nothing(self):
        ds = separable_dataset()
        f = [row[0] for row in rows(ds)]
        labels = [row[1] for row in rows(ds)]
        extended = make_dataset(
            {"f": f, "g": ["u"] * 20, "cls": labels}, class_name="cls"
        )
        ruleset = cn2_induce(extended)
        assert len(ruleset.rules) == 2
        assert all(r.accuracy == LAPLACE_10_OF_10 for r in ruleset.rules)

    def test_single_class_dataset_needs_no_rules(self):
        ds = make_dataset(
            {"f": [1.0, 2.0, 3.0, 4.0], "cls": ["only"] * 4}, class_name="cls"
        )
        ruleset = cn2_induce(ds)
        assert ruleset.rules == ()
        assert ruleset.default_class == "only"

    def test_noise_fixture_terminates(self):
        ruleset = cn2_induce(noise_dataset())
        assert len(ruleset.rules) <= 20
        for rule in ruleset.rules:
            assert rule.coverage >= 2
            assert 0.0 < rule.accuracy <= 1.0

    def test_coverage_floor_holds_on_random_datasets(self):
        rng = np.random.default_rng(41)
        params = MetricParams()
        for run in range(20):
            ds = random_dataset(rng, missing=0.1, name=f"cn2-{run}")
            ruleset = cn2_induce(ds, params)
            for rule in ruleset.rules:
                assert rule.coverage >= params.min_covered
                assert len(rule.conditions) <= params.max_conditions

    def test_rejects_missing_or_numeric_class(self):
        no_class = make_dataset({"f": [1.0, 2.0]})
        with pytest.raises(ApplicabilityError):
            cn2_induce(no_class)
        numeric_class = make_dataset(
            {"f": [1.0, 2.0], "y": [0.0, 1.0]}, class_name="y"
        )
        with pytest.raises(ApplicabilityError):
            cn2_induce(numeric_class)

    def test_rejects_empty_dataset(self):
        empty = from_rows(
            "empty", (Attribute("f"), Attribute("cls", ("a", "b"))), (), class_index=1
        )
        with pytest.raises(ApplicabilityError):
            cn2_induce(empty)

    def test_parameter_validation(self):
        ds = separable_dataset()
        with pytest.raises(InputError):
            cn2_induce(ds, MetricParams(beam_width=0))
        with pytest.raises(InputError):
            cn2_induce(ds, MetricParams(min_covered=0))
        with pytest.raises(InputError):
            cn2_induce(ds, MetricParams(bins=1))


class TestClassify:
    def test_separable_fixture_classified_perfectly(self):
        ds = separable_dataset()
        ruleset = cn2_induce(ds)
        truth = [row[1] for row in rows(ds)]
        assert classify(ds, ruleset) == truth

    def test_default_class_fills_gaps(self):
        ds = separable_dataset()
        ruleset = cn2_induce(ds)
        # rows the induced cuts never cover still get a prediction
        probe = make_dataset(
            {"f": [5.0, 6.0], "cls": ["b", "b"]}, class_name="cls"
        )
        predictions = classify(probe, ruleset)
        assert len(predictions) == 2
        assert all(p in ("a", "b") for p in predictions)


class TestRuleDiversity:
    def test_relabelled_classes_score_zero_without_sharing(self):
        # unequal class sizes keep the majority-class tie-break out of play,
        # so relabelling swaps predictions without changing the rule count
        f = [round(0.1 * i, 1) for i in range(12)] + [
            round(9.3 + 0.1 * i, 1) for i in range(8)
        ]
        labels = ["a"] * 12 + ["b"] * 8
        ds = make_dataset({"f": f, "cls": labels}, class_name="cls")
        mr = MrSpec(
            id="swap", name="swap", transform="relabel_classes",
            params={"map": "a:b,b:a"}, seed=None,
        )
        followup = apply_mr(mr, ds)
        raw, diag = rule_diversity(ds, followup)
        assert raw == 0.0
        assert diag["shared_rules"] == 0
        assert diag["surviving_source"] == 2
        assert diag["surviving_followup"] == 2

    def test_count_difference_semantics(self):
        two_rules = separable_dataset()
        no_rules = make_dataset(
            {"f": [float(i) for i in range(20)], "cls": ["a"] * 20},
            class_name="cls",
        )
        raw, diag = rule_diversity(two_rules, no_rules)
        assert raw == 2.0
        assert diag["shared_rules"] == 0
