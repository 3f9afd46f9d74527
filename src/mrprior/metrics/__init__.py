"""Data-diversity metrics over source/follow-up dataset pairs.

Four metrics, each reducing a pair to a non-negative raw score.  Every
metric has the same two steps: summarize one dataset, then compare the
source summary with the follow-up summary.

* ``rule``          absolute difference of CN2 rule counts (shared rules dropped)
* ``anomaly``       absolute difference of kth-NN outlier counts (identical
                    outlier vectors discarded pairwise)
* ``clustering``    absolute difference of k-means shape totals
* ``distribution``  absolute difference of moment/spread totals

``MetricParams`` is the one object that carries the metrics' parameters;
each kernel's defaults read its fields.  The kernels and their record types
come from their own modules (``mrprior.metrics.rules``, ...) or from
``mrprior``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


# metric -> (its module, the module's compare(summary_s, summary_f)).  Only
# the chosen metric's module is imported.  Each module's
# ``summarize(dataset, params)`` looks its kernel up by name on each call, so
# code that rebinds those module names (the benchmark's span tracer) sees
# every call.
_TABLE = {
    "rule": ("rules", "compare_rules"),
    "anomaly": ("anomaly", "compare_outliers"),
    "clustering": ("clustering", "compare_clusters"),
    "distribution": ("distribution", "compare_distributions"),
}
METRICS = tuple(_TABLE)


def score_pair(pair: MrPair, metric: str, params: MetricParams | None = None) -> DiversityScore:
    """``score_catalog`` on the one pair: a failure raises its "not applicable" message."""
    return score_catalog([pair], metric, params)[0]


def score_catalog(
    pairs: Iterable[MrPair], metric: str, params: MetricParams | None = None
) -> list[DiversityScore]:
    """Score every pair, in order; all-or-nothing on failures.

    *pairs* may be any iterable, a generator included.  Each pair is drawn,
    scored and dropped before the next is drawn, so a caller that streams
    its follow-ups holds one at a time.  A run of pairs with the same source
    shares that source's summary.

    An error that ends the run (a bad metric parameter) is raised after the
    rest of the pairs are drawn, so that an error of their producer (an MR
    that cannot be applied, a bad follow-up file) still comes first.
    """
    params = params or MetricParams()
    pairs = iter(pairs)
    source = summary = None  # the last source summarized, and its summary
    scores: list[DiversityScore] = []
    failures: list[str] = []
    try:
        if metric not in _TABLE:
            raise ApplicabilityError(f"unknown metric {metric!r}; choose one of {METRICS}")
        module_name, compare_name = _TABLE[metric]
        module = import_module(f"{__name__}.{module_name}")
        summarize, compare = module.summarize, getattr(module, compare_name)
        for pair in pairs:
            index = len(scores) + len(failures)
            try:
                # a source that fails is tried again, and fails alike, for each pair
                if pair.source is not source:
                    summary, source = summarize(pair.source, params), pair.source
                raw, diagnostics = compare(summary, summarize(pair.followup, params))
            except ApplicabilityError as exc:
                failures.append(f"{pair.mr.id}: {exc}")
            else:
                scores.append(DiversityScore(
                    pair.mr.id, metric, raw, catalog_index=index, diagnostics=diagnostics
                ))
            del pair  # draw the next pair holding no follow-up
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
