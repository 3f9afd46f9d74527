"""Property tests over small random mixed datasets.

* MRs that change nothing a metric can see (identity, a row shuffle) score
  exactly 0.0 under every metric.  A permutation of the attributes scores
  exactly 0.0, with equal source and follow-up summaries, under the three
  metrics that read the numeric features in name order (``rule`` depends on
  attribute order: CN2 breaks ties by it).
* ``score_catalog``, which summarizes each source once and shares it, gives
  the same raw scores and diagnostics as scoring each pair on its own, and
  the same for a generator of pairs as for their list.
* Every metric's summary, every score and the ranking export plain JSON
  data: ``to_dict()`` needs no ``default=`` hook and survives a JSON round
  trip unchanged.
"""

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mrprior.catalog import MrPair, MrSpec, apply_mr, build_pairs
from mrprior.errors import ApplicabilityError
from mrprior.dataset import numeric_view
from mrprior.metrics import METRICS, anomaly, score_catalog, score_pair
from mrprior.metrics.clustering import kmeans_summary
from mrprior.metrics.distribution import dist_summary
from mrprior.metrics.rules import cn2_induce
from mrprior.prioritizer import normalize, rank

from conftest import make_dataset

# derandomized, so that every run checks the same examples
COMMON = dict(deadline=None, derandomize=True, database=None)

# repeated small integers make ties and duplicate rows; wide floats make
# sums whose value depends on the order they are added in
CELLS = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
)


def _column(draw, cells, n_rows):
    """The first cell is always observed, so the column's kind is known."""
    rest = st.lists(st.one_of(st.none(), cells), min_size=n_rows - 1, max_size=n_rows - 1)
    return [draw(cells)] + draw(rest)


@st.composite
def mixed_datasets(draw):
    """6-24 rows: 1-3 numeric attributes, 0-2 nominal ones, a nominal class.

    Non-class cells may be missing.
    """
    n_rows = draw(st.integers(6, 24))
    columns = {}
    for j in range(draw(st.integers(1, 3))):
        columns[f"x{j}"] = _column(draw, CELLS, n_rows)
    for j in range(draw(st.integers(0, 2))):
        columns[f"n{j}"] = _column(draw, st.sampled_from(["a", "b", "c"]), n_rows)
    labels = st.sampled_from(["p", "q", "r"])
    columns["cls"] = draw(st.lists(labels, min_size=n_rows, max_size=n_rows))
    return make_dataset(columns, class_name="cls", name="prop")


def _same(a, b) -> bool:
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@settings(max_examples=40, **COMMON)
@given(source=mixed_datasets(), seed=st.integers(0, 2**16))
def test_identity_and_row_shuffle_score_exactly_zero(source, seed):
    catalog = [
        MrSpec("MR1", "ident", "identity"),
        MrSpec("MR2", "shuffle", "permute_instances", seed=seed),
    ]
    pairs = list(build_pairs(catalog, source))
    for metric in METRICS:
        for score in score_catalog(pairs, metric):
            assert score.raw == 0.0, (metric, score.mr_id, score.raw)


@settings(max_examples=40, **COMMON)
@given(source=mixed_datasets(), seed=st.integers(0, 2**16))
def test_attribute_permutation_scores_exactly_zero(source, seed):
    pairs = list(build_pairs([MrSpec("MR1", "perm", "permute_attributes", seed=seed)], source))
    # a seed may draw the identity permutation (seed=1 on three attributes does)
    assume([a.name for a in pairs[0].followup.attributes] != [a.name for a in source.attributes])
    for metric in ("distribution", "anomaly", "clustering"):
        [score] = score_catalog(pairs, metric)
        assert score.raw == 0.0, (metric, score.raw)
        assert score.diagnostics["source"] == score.diagnostics["followup"], metric


@settings(max_examples=15, **COMMON)
@given(source=mixed_datasets(), seed=st.integers(0, 2**16))
def test_score_catalog_matches_pairwise_scoring(source, seed):
    catalog = [
        MrSpec("MR1", "ident", "identity"),
        MrSpec("MR2", "shuffle", "permute_instances", seed=seed),
        MrSpec("MR3", "scale", "affine_numeric", {"scale": 2.0}),
        MrSpec("MR4", "points", "add_data_points", {"count": 3}, seed=seed),
        MrSpec("MR5", "dup", "duplicate_instances", {"fraction": 0.3}, seed=seed),
    ]
    # a second source object, interleaved with the first, so that pairs
    # must find their own source's summary
    other = apply_mr(catalog[1], source)
    pairs = []
    for a, b in zip(build_pairs(catalog, source), build_pairs(catalog, other)):
        pairs += [a, MrPair(MrSpec(b.mr.id + "b", b.mr.name, b.mr.transform, b.mr.params,
                                   b.mr.seed), b.source, b.followup)]
    for metric in METRICS:
        scores = score_catalog(pairs, metric)
        assert [s.catalog_index for s in scores] == list(range(len(pairs)))
        for pair, score in zip(pairs, scores):
            alone = score_pair(pair, metric)
            assert (score.mr_id, score.raw) == (alone.mr_id, alone.raw)
            assert _same(score.diagnostics, alone.diagnostics)


@settings(max_examples=15, **COMMON)
@given(source=mixed_datasets(), seed=st.integers(0, 2**16))
def test_score_catalog_scores_a_stream_as_its_list(source, seed):
    catalog = [
        MrSpec("MR1", "ident", "identity"),
        MrSpec("MR2", "shuffle", "permute_instances", seed=seed),
        MrSpec("MR3", "points", "add_data_points", {"count": 3}, seed=seed),
        MrSpec("MR4", "dup", "duplicate_instances", {"fraction": 0.3}, seed=seed),
    ]
    for metric in METRICS:
        listed = score_catalog(list(build_pairs(catalog, source)), metric)
        streamed = score_catalog(build_pairs(catalog, source), metric)
        assert [(s.mr_id, s.raw, s.catalog_index) for s in streamed] == [
            (s.mr_id, s.raw, s.catalog_index) for s in listed
        ]
        for a, b in zip(streamed, listed):
            assert _same(a.diagnostics, b.diagnostics)


def _round_trips(exported) -> bool:
    return json.loads(json.dumps(exported)) == exported


@settings(max_examples=30, **COMMON)
@given(source=mixed_datasets(), seed=st.integers(0, 2**16))
def test_exports_are_plain_json(source, seed):
    summaries = [
        cn2_induce(source),
        anomaly.summarize(source).report,
        kmeans_summary(numeric_view(source), seed=seed),
        dist_summary(source),
    ]
    for summary in summaries:
        assert _round_trips(summary.to_dict()), type(summary).__name__
    catalog = [
        MrSpec("MR1", "ident", "identity"),
        MrSpec("MR2", "points", "add_data_points", {"count": 3}, seed=seed),
        MrSpec("MR3", "dup", "duplicate_instances", {"fraction": 0.3}, seed=seed),
    ]
    pairs = list(build_pairs(catalog, source))
    for metric in METRICS:
        scores = normalize(score_catalog(pairs, metric))
        for score in scores:
            assert _round_trips(score.to_dict()), (metric, score.mr_id)
        assert _round_trips(rank(scores).to_dict()), metric


def test_failing_source_fails_every_pair():
    # no class attribute: the rule metric cannot summarize the source
    source = make_dataset({"x": [float(i) for i in range(8)]})
    catalog = [MrSpec("MR1", "ident", "identity"), MrSpec("MR2", "scale", "affine_numeric",
                                                           {"scale": 2.0})]
    with pytest.raises(ApplicabilityError) as info:
        score_catalog(build_pairs(catalog, source), "rule")
    lines = str(info.value).splitlines()
    assert lines[0] == "metric 'rule' not applicable to every MR:"
    assert [line.split(":")[0].strip() for line in lines[1:]] == ["MR1", "MR2"]
    assert lines[1].split(":", 1)[1] == lines[2].split(":", 1)[1]
