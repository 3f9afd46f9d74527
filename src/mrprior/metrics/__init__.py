"""Data-diversity metrics over source/follow-up dataset pairs.

Four metrics, each reducing a pair to a non-negative raw score:

* ``rule``          absolute difference of CN2 rule counts (shared rules dropped)
* ``anomaly``       absolute difference of kth-NN outlier counts (identical
                    outlier vectors discarded pairwise)
* ``clustering``    absolute difference of k-means shape totals
* ``distribution``  absolute difference of moment/spread totals

``score_catalog`` is the one scoring path.  It summarizes each side with the
metric module's ``summarize`` and compares the summaries with the one
compare, ``compare_totals`` of their ``total``: the rule count, the flagged
count, the k-means total or the distribution total.  Shared rules and
matched outliers leave both sides alike, so they do not change the raw.  A
follow-up's ``summarize`` gets the source summary: ``anomaly`` and
``clustering`` reuse its kernel result when the two numeric views, rows in
``dataset.canonical_order``, are bit-equal, and ``distribution`` reuses an
attribute's statistics when its sorted cells are bit-equal to the
same-named source attribute's.  The diagnostics, built only
when they are wanted, hold each side's export, as ``"source"`` and
``"followup"``, and the compare's fields: those of the module's
``compare_fields`` (``rule``'s and ``anomaly``'s), or else the two totals.
``anomaly``'s ``summarize`` alone is told whether they are wanted.
``score_pair`` and the ``*_diversity`` helpers score one pair through it.

``MetricParams`` is the one object that carries the metrics' parameters;
each kernel's defaults read its fields.  The kernels and their record types
come from their own modules (``mrprior.metrics.rules``, ...) or from
``mrprior``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from importlib import import_module
from typing import TYPE_CHECKING, Iterable

from ..errors import ApplicabilityError, MrPriorError
from ..records import Record

if TYPE_CHECKING:
    from ..catalog import MrPair


@dataclass(frozen=True)
class MetricParams:
    """Knobs for all four metrics; defaults follow the shipped configuration."""

    beam_width: int = 5
    min_covered: int = 2
    max_conditions: int = 3
    bins: int = 4
    knn_k: int = 5
    contamination: float = 0.05
    kmeans_k: int = 3
    kmeans_max_iters: int = 100
    seed: int = 0
    standardize: bool = True


@dataclass(frozen=True)
class DiversityScore(Record):
    mr_id: str
    metric: str
    raw: float
    normalized: float | None = None
    catalog_index: int = field(default=0, metadata={"export": False})
    diagnostics: dict = field(default_factory=dict, compare=False)


# metric -> its module.  Only the chosen module is imported.  Its
# ``summarize`` looks the kernel up by name on each call, for the span tracer.
_TABLE = {
    "rule": "rules",
    "anomaly": "anomaly",
    "clustering": "clustering",
    "distribution": "distribution",
}
METRICS = tuple(_TABLE)


def compare_totals(total_s: float, total_f: float) -> tuple[float, dict]:
    """The raw score, the absolute difference of the two sides' totals, and its fields."""
    return float(abs(total_s - total_f)), {"source_total": total_s, "followup_total": total_f}


def score_pair(pair: MrPair, metric: str, params: MetricParams | None = None) -> DiversityScore:
    """``score_catalog`` on the one pair: a failure raises its "not applicable" message."""
    return score_catalog([pair], metric, params)[0]


def _diversity(metric: str, source, followup, params: MetricParams | None) -> tuple[float, dict]:
    """``score_pair`` on *source* and *followup*: its raw score and diagnostics."""
    from ..catalog import pair_from_files
    score = score_pair(pair_from_files("pair", "pair", source, followup), metric, params)
    return score.raw, score.diagnostics


def score_catalog(
    pairs: Iterable[MrPair], metric: str, params: MetricParams | None = None, *,
    diagnostics: bool = True,
) -> list[DiversityScore]:
    """Score every pair, in order; all-or-nothing on failures.

    *pairs* may be any iterable, a generator included.  Each pair is drawn,
    scored and dropped before the next is drawn, so a caller that streams
    its follow-ups holds one at a time.  A run of pairs with the same source
    shares that source's summary, which each follow-up's ``summarize`` gets.

    An error that ends the run (a bad metric parameter) is raised after the
    rest of the pairs are drawn, so that an error of their producer (an MR
    that cannot be applied, a bad follow-up file) still comes first.

    Without *diagnostics*, each score's diagnostics stay empty and each side
    is summarized only as far as its ``total`` needs: ``anomaly`` then runs
    no kNN unless its squared distances could overflow.
    """
    params = params or MetricParams()
    pairs = iter(pairs)
    source = summary = exported = None  # the last source summarized, its summary and export
    scores: list[DiversityScore] = []
    failures: list[str] = []
    try:
        if metric not in _TABLE:
            raise ApplicabilityError(f"unknown metric {metric!r}; choose one of {METRICS}")
        module = import_module(f"{__name__}.{_TABLE[metric]}")
        summarize = module.summarize
        if metric == "anomaly":   # the one summary that runs less without diagnostics
            summarize = partial(summarize, diagnostics=diagnostics)
        compare_fields = getattr(module, "compare_fields", None)
        for pair in pairs:
            index = len(scores) + len(failures)
            try:
                # a source that fails is tried again, and fails alike, for each pair
                if pair.source is not source:
                    summary = summarize(pair.source, params)
                    source = pair.source
                    exported = summary.to_dict() if diagnostics else None
                followup = summarize(pair.followup, params, summary)
                raw, own = compare_totals(summary.total, followup.total)
                record = {}
                if diagnostics:
                    if compare_fields is not None:
                        own = compare_fields(summary, followup)
                    record = {"source": exported, "followup": followup.to_dict(), **own}
            except ApplicabilityError as exc:
                failures.append(f"{pair.mr.id}: {exc}")
            else:
                scores.append(DiversityScore(
                    pair.mr.id, metric, raw, catalog_index=index, diagnostics=record
                ))
            pair = followup = None  # draw the next pair holding no follow-up
    except MrPriorError:
        for _ in pairs:
            pass
        raise
    if not scores and not failures:
        raise ApplicabilityError("no MR pairs to score")
    if failures:
        raise ApplicabilityError(
            f"metric {metric!r} not applicable to every MR:\n  " + "\n  ".join(failures)
        )
    return scores


__all__ = ["METRICS", "MetricParams", "DiversityScore", "score_pair", "score_catalog"]
