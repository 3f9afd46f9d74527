"""A follow-up whose sorted numeric view is bit-equal to the source's reuses
the source's kNN scores or k-means summary, and a follow-up attribute whose
sorted cells are bit-equal to the same-named source attribute's reuses its
distribution statistics; the outputs must not change.

``anomaly.summarize``, ``clustering.summarize`` and
``distribution.summarize`` take the source summary as their third argument.
Each test here compares that path with a recompute (the same call without
the source summary), bit for bit, and counts which follow-ups (or, for
``distribution``, which attributes) still run the kernel.  A run without
diagnostics runs the kNN only on a side whose squared distances could
overflow.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrprior import MetricParams, MrSpec, apply_mr, build_pairs, score_catalog
from mrprior.cli import main
from mrprior.metrics import anomaly, clustering, distribution

from conftest import make_dataset

# follow-ups whose standardized numeric rows are the source's in some order
# (scale 2 only where no column is constant, as a constant column is not rescaled)
SAME_ROWS = {
    "identity": MrSpec("I", "ident", "identity"),
    "shuffle": MrSpec("S", "shuffle", "permute_instances", seed=5),
    "relabel": MrSpec("R", "relabel", "relabel_classes", {"map": "p:q,q:r,r:p"}),
    "scale": MrSpec("X", "scale", "affine_numeric", {"scale": "2"}),
}


def table(seed, n_rows, n_numeric, ties, missing):
    """Numeric columns named out of name order, a nominal attribute and a class."""
    rng = np.random.default_rng(seed)
    names = [f"n{j}" for j in range(n_numeric)][::-1]
    columns = {}
    for name in names:
        values = rng.integers(-3, 4, n_rows) if ties else rng.normal(0.0, 5.0, n_rows)
        cells = [None if rng.random() < missing else float(v) for v in values]
        cells[0] = 1.0   # every column has an observed cell
        columns[name] = cells
    columns["nom"] = [["u", "v"][i] for i in rng.integers(0, 2, n_rows)]
    columns["cls"] = [["p", "q", "r"][i % 3] for i in rng.permutation(n_rows)]
    return make_dataset(columns, class_name="cls")


def anomaly_bits(summary):
    report = summary.report
    return (report.indices, report.scores.tobytes(), json.dumps(summary.to_dict()),
            summary.raw.tobytes())


def clustering_bits(summary):
    # json.dumps tells -0.0 from 0.0, which == does not
    return json.dumps(summary.to_dict()), summary.centroids.tobytes()


def distribution_bits(summary):
    return json.dumps(summary.to_dict()), [cells.tobytes() for cells in summary.cells]


def score_bits(score):
    return score.mr_id, score.raw, json.dumps(score.diagnostics)


def counting(monkeypatch, module, name):
    calls = []
    kernel = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(6, 40),
    n_numeric=st.integers(2, 4),
    ties=st.booleans(),
    missing=st.sampled_from([0.0, 0.1]),
    standardize=st.booleans(),
    knn_k=st.integers(1, 3),
    kmeans_k=st.integers(1, 3),
)
def test_reuse_equals_recompute(seed, n_rows, n_numeric, ties, missing, standardize, knn_k,
                                kmeans_k):
    source = table(seed, n_rows, n_numeric, ties, missing)
    params = MetricParams(knn_k=knn_k, contamination=0.125, kmeans_k=kmeans_k, seed=seed % 7,
                          standardize=standardize)
    # a real permutation of the non-class attributes: reversed, so never the identity
    perm = ",".join(map(str, reversed(range(n_numeric + 1))))
    mrs = {**SAME_ROWS, "permute": MrSpec("P", "perm", "permute_attributes", {"perm": perm})}
    summary = {module: module.summarize(source, params)
               for module in (anomaly, clustering, distribution)}
    for kind, mr in mrs.items():
        followup = apply_mr(mr, source)
        # the reuse path, then the kernel on its own
        reused = anomaly.summarize(followup, params, summary[anomaly])
        assert anomaly_bits(reused) == anomaly_bits(anomaly.summarize(followup, params)), kind
        reused = clustering.summarize(followup, params, summary[clustering])
        fresh = clustering.summarize(followup, params)
        assert clustering_bits(reused) == clustering_bits(fresh), kind
        if kind != "scale":   # a constant column is left unscaled, so scale 2 may differ
            assert reused is summary[clustering], kind
            assert anomaly.same_bits(anomaly.summarize(followup, params).rows,
                                     summary[anomaly].rows), kind
        stats = distribution.summarize(followup, params, summary[distribution])
        fresh = distribution.summarize(followup, params)
        assert distribution_bits(stats) == distribution_bits(fresh), kind
        if kind != "scale":   # each attribute takes the source's statistics
            assert stats.attributes == summary[distribution].attributes, kind


@pytest.mark.parametrize("standardize, kernel_calls", [(True, 3), (False, 4)])
def test_which_followups_run_the_kernel(monkeypatch, standardize, kernel_calls):
    rng = np.random.default_rng(31)
    source = make_dataset({
        "b": list(rng.normal(0.0, 1.0, 60)), "a": list(rng.normal(5.0, 2.0, 60)),
        "c": list(rng.normal(-3.0, 0.5, 60)), "cls": ["p", "q", "r"] * 20,
    }, class_name="cls")
    catalog = [
        MrSpec("M1", "ident", "identity"),
        MrSpec("M2", "shuffle", "permute_instances", seed=2),
        MrSpec("M3", "relabel", "relabel_classes", {"map": "p:q,q:r,r:p"}),
        MrSpec("M4", "scale", "affine_numeric", {"scale": "2"}),
        MrSpec("M5", "shift", "affine_numeric", {"shift": "7"}),
        MrSpec("M6", "add", "add_data_points", {"count": "5"}, seed=3),
    ]
    params = MetricParams(standardize=standardize)
    for module, kernel in ((anomaly, "knn_outliers"), (clustering, "kmeans_summary")):
        metric = module.__name__.rsplit(".", 1)[1]
        calls = counting(monkeypatch, module, kernel)
        scores = score_catalog(build_pairs(catalog, source), metric, params)
        # the source, the shift and the added points; unstandardized, scale 2 too
        assert len(calls) == kernel_calls, metric
        with monkeypatch.context() as patch:
            patch.setattr(module, "same_bits", lambda a, b: False)
            recomputed = score_catalog(build_pairs(catalog, source), metric, params)
        assert len(calls) == kernel_calls + 7, metric
        assert list(map(score_bits, scores)) == list(map(score_bits, recomputed)), metric


def test_which_attributes_distribution_recomputes(monkeypatch):
    rng = np.random.default_rng(41)
    source = make_dataset({
        "b": list(rng.normal(0.0, 1.0, 60)), "a": list(rng.normal(5.0, 2.0, 60)),
        "c": list(rng.normal(-3.0, 0.5, 60)), "cls": ["p", "q", "r"] * 20,
    }, class_name="cls")
    catalog = [
        MrSpec("M1", "ident", "identity"),
        MrSpec("M2", "shuffle", "permute_instances", seed=2),
        MrSpec("M3", "relabel", "relabel_classes", {"map": "p:q,q:r,r:p"}),
        MrSpec("M4", "perm", "permute_attributes", {"perm": "2,0,1"}),
        MrSpec("M5", "shift a", "affine_numeric", {"shift": "7", "columns": "a"}),
        MrSpec("M6", "scale", "affine_numeric", {"scale": "2"}),
        MrSpec("M7", "constant", "add_uninformative_attribute", {"value": "1"}),
        MrSpec("M8", "add", "add_data_points", {"count": "5"}, seed=3),
    ]
    calls = counting(monkeypatch, distribution, "_column_stats")
    scores = score_catalog(build_pairs(catalog, source), "distribution")
    # the source's 3; a for the shift, all 3 for the scale and the added
    # points, and the new attribute alone for the constant
    assert len(calls) == 3 + 1 + 3 + 1 + 3
    with monkeypatch.context() as patch:
        patch.setattr(distribution, "same_bits", lambda a, b: False)
        recomputed = score_catalog(build_pairs(catalog, source), "distribution")
    assert len(calls) == 11 + 3 + 3 * 7 + 4   # M7 has four attributes
    assert list(map(score_bits, scores)) == list(map(score_bits, recomputed))
    assert [s.raw for s in scores][:4] == [0.0] * 4


@pytest.mark.parametrize("standardize", [True, False])
@pytest.mark.parametrize("change", ["negative zero", "one ulp"])
def test_a_changed_bit_runs_the_kernel(monkeypatch, standardize, change):
    rng = np.random.default_rng(37)
    # z is constant 0.0, which standardizing leaves as it is, so -0.0 stays
    columns = {"x": list(rng.normal(0.0, 1.0, 30)), "y": list(rng.normal(2.0, 3.0, 30)),
               "z": [0.0] * 30, "cls": ["p", "q"] * 15}
    source = make_dataset(columns, class_name="cls")
    if change == "negative zero":
        columns["z"] = [0.0] * 29 + [-0.0]
    else:
        columns["x"] = columns["x"][:-1] + [math.nextafter(columns["x"][-1], math.inf)]
    followup = make_dataset(columns, class_name="cls")
    params = MetricParams(standardize=standardize)
    # distribution recomputes the one attribute of the changed cell
    for module, kernel, bits in ((anomaly, "knn_outliers", anomaly_bits),
                                 (clustering, "kmeans_summary", clustering_bits),
                                 (distribution, "_column_stats", distribution_bits)):
        summary = module.summarize(source, params)
        calls = counting(monkeypatch, module, kernel)
        reused = module.summarize(followup, params, summary)
        assert len(calls) == 1, kernel
        assert bits(reused) == bits(module.summarize(followup, params)), kernel


@pytest.mark.parametrize("standardize, plain_calls, diagnostics_calls", [(True, 0, 2),
                                                                          (False, 3, 3)])
def test_a_run_without_diagnostics_runs_no_knn_unless_the_norm_bound_overflows(
        tmp_path, monkeypatch, standardize, plain_calls, diagnostics_calls):
    # unstandardized, 1e154 squared is 1e308 and 8 x 1e308 overflows, so
    # every side runs the kNN, whose distances stay finite; standardized, none
    monkeypatch.chdir(tmp_path)
    cells = ["1e154", *map(str, range(11))]
    (tmp_path / "d.csv").write_text(
        "x,cls\n" + "".join(f"{x},c{i % 2}\n" for i, x in enumerate(cells)))
    # follow-ups that keep the 1e154 row and change the others; standardized,
    # the shift's rows are the source's, so with diagnostics it reuses them
    (tmp_path / "cat.txt").write_text("MR1 shift affine_numeric shift=1\n"
                                      "MR2 points add_data_points count=2 seed=1\n")
    argv = ["prioritize", "--dataset", "d.csv", "--class-column", "cls", "--catalog", "cat.txt",
            "--metric", "anomaly", *([] if standardize else ["--no-standardize"])]
    calls = counting(monkeypatch, anomaly, "knn_outliers")
    assert main([*argv, "--out", "plain.json"]) == 0
    assert len(calls) == plain_calls
    assert main([*argv, "--out", "diag.json", "--diagnostics", "d.json"]) == 0
    assert len(calls) == plain_calls + diagnostics_calls
    rankings = [json.loads((tmp_path / f).read_text())["ranking"]
                for f in ("plain.json", "diag.json")]
    assert rankings[0] == rankings[1]
