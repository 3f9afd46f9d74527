"""Property tests over generated tables: small mixed ones and wide ones.

* ``INVARIANT``, what each metric cannot see: an MR scores exactly 0.0
  under each metric of its row, so it is never ranked by float noise.
* Laws of every metric and MR: the raw score is symmetric, equals the
  difference of the compare's fields, is |f(n_source) - f(n_followup)|
  under ``anomaly``, and is the same when no diagnostics are wanted; the
  identity shares every rule and flagged outlier.
* A constant column, missing cells included, is exactly constant: the
  standardized view keeps its value and ``distribution`` flags it.
* ``score_catalog``, which summarizes each source once and shares it, gives
  the same raw scores and diagnostics as scoring each pair on its own, and
  the same for a generator of pairs as for their list.
* Every metric's summary, every score and the ranking export plain JSON
  data: ``to_dict()`` needs no ``default=`` hook and survives a JSON round
  trip unchanged.
"""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mrprior.catalog import MrPair, MrSpec, apply_mr, build_pairs
from mrprior.errors import ApplicabilityError
from mrprior.dataset import numeric_view, same_bits
from mrprior.metrics import METRICS, MetricParams, anomaly, score_catalog, score_pair
from mrprior.metrics.clustering import kmeans_summary
from mrprior.metrics.distribution import dist_summary
from mrprior.metrics.rules import cn2_induce
from mrprior.prioritizer import normalize, rank

from conftest import flag_count, make_dataset, random_dataset

# derandomized, so that every run checks the same examples
COMMON = dict(deadline=None, derandomize=True, database=None)

# repeated small integers make ties and duplicate rows; wide floats make
# sums whose value depends on the order they are added in
CELLS = st.one_of(
    st.integers(-3, 3).map(float),
    st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
)

# values for a constant column: copies of a non-dyadic value such as 0.1
# add up to a rounded sum, so their computed mean need not be the value
CONSTANTS = st.one_of(
    st.sampled_from([0.1, 0.7, -2.3, 1 / 3]),
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


@st.composite
def wide_datasets(draw):
    """``random_dataset``: 6-200 rows, 1-10 attributes, at least one numeric."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    source = random_dataset(rng, n_rows=draw(st.integers(6, 200)),
                            n_attrs=draw(st.integers(1, 10)),
                            missing=draw(st.sampled_from([0.0, 0.1])), name="wide")
    assume(source.numeric_indices())
    return source


def standardized(pair, params) -> bool:
    return params.standardize


NOT_RULE = ("anomaly", "clustering", "distribution")

# What each metric cannot see.  An MR, as a catalog line, maps to the metrics
# under which it must score exactly 0.0, under default parameters with and
# without standardization; a metric's condition, if any, names the pairs and
# parameters for which its cell holds.  {seed} and {value} are drawn;
# {rotation} maps each class value to the next, {codes} maps each to its
# index.  Cells left out are sensitivities (README, "What it computes").
INVARIANT = {
    "identity": dict.fromkeys(METRICS),
    "permute_instances seed={seed}": dict.fromkeys(METRICS),
    "permute_attributes seed={seed}": dict.fromkeys(NOT_RULE),
    "affine_numeric scale=2": {"rule": None, "anomaly": None, "clustering": standardized},
    "affine_numeric scale=0.5": {"rule": None, "anomaly": None, "clustering": standardized},
    "add_uninformative_attribute value=1": dict.fromkeys(METRICS),
    "add_uninformative_attribute value={value}": dict.fromkeys(METRICS),
    "add_uninformative_attribute value=u": dict.fromkeys(NOT_RULE),
    "relabel_classes map={rotation}": dict.fromkeys(NOT_RULE),
    "add_informative_attribute map={codes}": {"anomaly": None},
}
INVARIANT_CELLS = [(spec, metric) for spec, metrics in INVARIANT.items() for metric in metrics]

# MRs whose two summaries, not only their totals, export alike in each cell
SAME_SUMMARY = {"identity", "permute_attributes seed={seed}"}

# the table's MRs and MRs that change rows or values (remove_class can leave
# too few rows for the kNN)
LAW_CATALOG = (*INVARIANT, "affine_numeric shift=7", "duplicate_instances fraction=0.3 seed={seed}",
               "remove_instances fraction=0.2 seed={seed}", "add_data_points count=3 seed={seed}")

PARAMS = (MetricParams(), MetricParams(standardize=False))
SEEDS = st.integers(0, 2**16)


def _mr(spec: str, source, seed: int, value: float = 0.1) -> MrSpec:
    """The MR of catalog line *spec*, its placeholders filled in for *source*."""
    values = source.attributes[source.class_index].values
    transform, *tokens = spec.format(
        seed=seed,
        value=value,
        rotation=",".join(f"{a}:{b}" for a, b in zip(values, values[1:] + values[:1])),
        codes=",".join(f"{v}:{i}" for i, v in enumerate(values)),
    ).split()
    params = dict(token.split("=") for token in tokens)
    mr_seed = params.pop("seed", None)
    return MrSpec(spec, transform, transform, params, mr_seed)


def _check_cell(spec, metric, source, seed, value=0.1):
    [pair] = build_pairs([_mr(spec, source, seed, value)], source)
    if pair.mr.transform == "permute_attributes":
        # a seed may draw the identity permutation (seed=1 on three attributes does)
        assume(pair.followup.attributes != source.attributes)
    holds = INVARIANT[spec][metric]
    for params in PARAMS:
        if holds is None or holds(pair, params):
            [score] = score_catalog([pair], metric, params)
            assert score.raw == 0.0, (params, score.raw)
            if spec in SAME_SUMMARY:
                assert score.diagnostics["source"] == score.diagnostics["followup"], params


@pytest.mark.parametrize("spec, metric", INVARIANT_CELLS)
@settings(max_examples=8, **COMMON)
@given(source=mixed_datasets(), seed=SEEDS, value=CONSTANTS)
def test_invariant_cell_on_narrow_tables(spec, metric, source, seed, value):
    _check_cell(spec, metric, source, seed, value)


@pytest.mark.parametrize("spec, metric", INVARIANT_CELLS)
@settings(max_examples=8, **COMMON)
@given(source=wide_datasets(), seed=SEEDS, value=CONSTANTS)
def test_invariant_cell_on_wide_tables(spec, metric, source, seed, value):
    _check_cell(spec, metric, source, seed, value)


@pytest.mark.parametrize("table_seed", [18, 260, 285])
def test_constant_column_changes_no_bit_of_kmeans(table_seed):
    # tables whose follow-up has 2 numeric columns (18, 285) or 8 (260): numpy's
    # own sums group a distance's or a mean's terms anew at those widths
    source = random_dataset(np.random.default_rng(table_seed), name="wide")
    _check_cell("add_uninformative_attribute value=1", "clustering", source, 0)


@settings(max_examples=60, **COMMON)
@given(value=CONSTANTS | st.floats(allow_nan=False, allow_infinity=False), data=st.data())
def test_a_constant_column_with_missing_cells_stays_constant(value, data):
    missing = data.draw(st.lists(st.booleans(), min_size=2, max_size=40)
                        .filter(lambda m: any(m) and not all(m)))
    n_rows = len(missing)
    source = make_dataset({"c": [None if m else value for m in missing],
                           "x": [float(i) for i in range(n_rows)]})
    view = numeric_view(source, standardize=True)
    assert view.constant_mask.tolist() == [True, False]
    # observed cells keep their bits, a missing one takes value + 0.0
    expected = np.where(missing, value + 0.0, value)
    assert same_bits(view.raw[:, 0], expected) and same_bits(view.matrix[:, 0], expected)
    stats = dist_summary(source).attributes[0]
    assert stats.shape_flagged and (stats.range, stats.variance, stats.stddev) == (0.0,) * 3


def _check_laws(metric, source, seed, standardize):
    """Symmetry, the compare's fields, the anomaly count and the raw scores
    without diagnostics, on every MR."""
    # the thinned follow-up must keep more than knn_k=5 rows
    assume(source.n_rows >= 7)
    params = MetricParams(standardize=standardize)
    pairs = list(build_pairs([_mr(spec, source, seed) for spec in LAW_CATALOG], source))
    swapped = [MrPair(pair.mr, pair.followup, pair.source) for pair in pairs]
    scores = score_catalog(pairs, metric, params)
    plain = score_catalog(pairs, metric, params, diagnostics=False)
    assert [(s.mr_id, s.raw, s.diagnostics) for s in plain] == [
        (s.mr_id, s.raw, {}) for s in scores]
    for pair, score, back in zip(pairs, scores, score_catalog(swapped, metric, params)):
        diag = score.diagnostics
        assert score.raw == back.raw, pair.mr.id
        if metric in ("rule", "anomaly"):
            assert score.raw == abs(diag["surviving_source"] - diag["surviving_followup"])
        else:
            assert score.raw == abs(diag["source_total"] - diag["followup_total"])
        if metric == "anomaly":
            flags = [flag_count(d.n_rows, params.contamination)
                     for d in (pair.source, pair.followup)]
            assert [len(diag[side]["indices"]) for side in ("source", "followup")] == flags
            assert score.raw == abs(flags[0] - flags[1])
        if pair.mr.transform == "identity" and metric in ("rule", "anomaly"):
            # every rule and every flagged outlier is shared with its twin
            assert diag["surviving_source"] == diag["surviving_followup"] == 0
            if metric == "rule":
                assert diag["shared_rules"] == len(diag["source"]["rules"])


@pytest.mark.parametrize("metric", METRICS)
@settings(max_examples=8, **COMMON)
@given(source=mixed_datasets(), seed=SEEDS, standardize=st.booleans())
def test_laws_on_narrow_tables(metric, source, seed, standardize):
    _check_laws(metric, source, seed, standardize)


@pytest.mark.parametrize("metric", METRICS)
@settings(max_examples=4, **COMMON)
@given(source=wide_datasets(), seed=SEEDS, standardize=st.booleans())
def test_laws_on_wide_tables(metric, source, seed, standardize):
    _check_laws(metric, source, seed, standardize)


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


@pytest.mark.parametrize("catalog", [[], [MrSpec("MR1", "ident", "identity")]])
def test_metrics_messages(catalog):
    """An unknown metric ends the run with one message, once its pairs are drawn."""
    pairs = build_pairs(catalog, make_dataset({"x": [1.0, 2.0]}))
    with pytest.raises(ApplicabilityError) as info:
        score_catalog(pairs, "nope")
    assert str(info.value) == (
        "unknown metric 'nope'; choose one of ('rule', 'anomaly', 'clustering', 'distribution')")
    assert next(pairs, None) is None
