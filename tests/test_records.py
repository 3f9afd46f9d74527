"""The export rule shared by every result record: a record exports its fields."""

from dataclasses import dataclass, field

import numpy as np

from mrprior.catalog import MrSpec, build_pairs
from mrprior.dataset import numeric_view
from mrprior.evaluation import EffectiveSize, EvalReport, evaluate_ordering, synth_kill_matrix
from mrprior.metrics import (
    AttributeStats,
    ClusterSummary,
    Condition,
    DistributionSummary,
    DiversityScore,
    OutlierReport,
    Rule,
    RuleSet,
    cn2_induce,
    dist_summary,
    kmeans_summary,
    knn_outliers,
    score_catalog,
)
from mrprior.prioritizer import RankEntry, Ranking, normalize, rank
from mrprior.records import Record

from conftest import make_dataset


@dataclass(frozen=True)
class Leaf(Record):
    name: str
    values: np.ndarray


@dataclass(frozen=True)
class Tree(Record):
    leaves: tuple[Leaf, ...]
    extra: dict
    hidden: int = field(default=0, metadata={"export": False})


def test_nested_records_become_plain_json_data():
    tree = Tree(
        (Leaf("a", np.array([1.5, 2.0])), Leaf("b", np.array([[1, 2], [3, 4]]))),
        {"pairs": [(1, 2)], "leaf": Leaf("c", np.array([]))},
        hidden=7,
    )
    assert tree.to_dict() == {
        "leaves": [{"name": "a", "values": [1.5, 2.0]},
                   {"name": "b", "values": [[1, 2], [3, 4]]}],
        "extra": {"pairs": [[1, 2]], "leaf": {"name": "c", "values": []}},
    }
    # array elements come back as Python numbers, so json needs no hook
    assert type(tree.to_dict()["leaves"][1]["values"][0][0]) is int


def test_export_copies_containers():
    extra = {"list": [1, 2]}
    exported = Tree((), extra).to_dict()
    exported["extra"]["list"].append(3)
    assert extra == {"list": [1, 2]}


def _dataset():
    return make_dataset(
        {
            "x": [0.1, 0.4, 0.2, 5.0, 5.3, 5.1, 0.3, 5.2, 9.0, 0.0],
            "y": [1.0, 1.2, 0.9, 4.0, 4.4, 4.1, 1.1, 3.9, 0.0, 1.3],
            "cls": ["a", "a", "a", "b", "b", "b", "a", "b", "b", "a"],
        },
        class_name="cls",
        name="records",
    )


def _records():
    """One instance of each of the twelve record classes, from the real code paths."""
    dataset = _dataset()
    ruleset = cn2_induce(dataset)
    view = numeric_view(dataset)
    distribution = dist_summary(dataset)
    catalog = [MrSpec("MR1", "ident", "identity"),
               MrSpec("MR2", "scale", "affine_numeric", {"scale": 2.0})]
    scores = normalize(score_catalog(build_pairs(catalog, dataset), "distribution"))
    ranking = rank(scores)
    km = synth_kill_matrix(4, 6, kill_prob=0.5, seed=1)
    report = evaluate_ordering(list(km.mr_ids), km)
    return {
        Condition: ruleset.rules[0].conditions[0],
        Rule: ruleset.rules[0],
        RuleSet: ruleset,
        OutlierReport: knn_outliers(view, k=2, contamination=0.2),
        ClusterSummary: kmeans_summary(view, k=2),
        AttributeStats: distribution.attributes[0],
        DistributionSummary: distribution,
        DiversityScore: scores[1],
        RankEntry: ranking.entries[0],
        Ranking: ranking,
        EffectiveSize: report.effective_sizes[0],
        EvalReport: report,
    }


EXPORTED_KEYS = {
    Condition: {"attribute", "operator", "value"},
    Rule: {"conditions", "predicted_class", "coverage", "accuracy"},
    RuleSet: {"rules", "default_class"},
    OutlierReport: {"indices", "scores", "k", "contamination"},
    ClusterSummary: {"k", "centroids", "sizes", "between_total", "size_total", "within_avg",
                     "n_iters"},
    AttributeStats: {"name", "count", "range", "variance", "stddev", "skewness", "kurtosis",
                     "shape_flagged"},
    DistributionSummary: {"attributes", "shape_total", "spread_total"},
    DiversityScore: {"mr_id", "metric", "raw", "normalized", "diagnostics"},
    RankEntry: {"mr_id", "raw", "normalized", "rank"},
    Ranking: {"metric", "entries", "tie_note"},
    EffectiveSize: {"threshold", "size"},
    EvalReport: {"kind", "ordering", "curve", "apfd", "effective_sizes", "avg_time_to_fault",
                 "mutant_ids", "unkillable", "detection", "first_positions", "runs", "seed"},
}


def test_each_record_exports_its_pinned_keys():
    records = _records()
    assert set(records) == set(EXPORTED_KEYS)
    for cls, record in records.items():
        assert type(record) is cls
        assert set(record.to_dict()) == EXPORTED_KEYS[cls], cls.__name__


def test_internal_fields_are_not_exported():
    records = _records()
    summary, score = records[ClusterSummary], records[DiversityScore]
    assert summary.objective_trace and "objective_trace" not in summary.to_dict()
    assert score.catalog_index == 1 and "catalog_index" not in score.to_dict()


def test_every_record_uses_record_to_dict():
    assert EvalReport in EXPORTED_KEYS
    for cls in EXPORTED_KEYS:
        assert cls.to_dict is Record.to_dict, cls.__name__
