"""Turn raw diversity scores into a normalized, deterministically ordered ranking."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ApplicabilityError, InputError
from .metrics import DiversityScore
from .records import Record


@dataclass(frozen=True)
class RankEntry(Record):
    mr_id: str
    raw: float
    normalized: float
    rank: int


@dataclass(frozen=True)
class Ranking(Record):
    metric: str
    entries: tuple[RankEntry, ...]
    tie_note: bool   # set when every raw value was identical (degenerate span)

    def ordering(self) -> tuple[str, ...]:
        return tuple(e.mr_id for e in self.entries)


def _check_scores(scores: list[DiversityScore]) -> None:
    if not scores:
        raise ApplicabilityError("cannot work with an empty score list")
    metrics = {s.metric for s in scores}
    if len(metrics) != 1:
        raise InputError(f"scores mix metrics {sorted(metrics)}; normalize one metric at a time")
    ids = [s.mr_id for s in scores]
    if len(set(ids)) != len(ids):
        raise InputError("duplicate MR ids in score list")


def normalize(scores: list[DiversityScore]) -> list[DiversityScore]:
    """Min-max normalize raw values onto [0, 1].

    A degenerate span (every raw value equal) maps everything to 0.0 and
    marks each score's diagnostics with ``degenerate_normalization``.
    """
    _check_scores(scores)
    raws = [s.raw for s in scores]
    lo, hi = min(raws), max(raws)
    degenerate = hi == lo
    out = []
    for s in scores:
        value = 0.0 if degenerate else (s.raw - lo) / (hi - lo)
        diagnostics = dict(s.diagnostics)
        diagnostics["degenerate_normalization"] = degenerate
        out.append(replace(s, normalized=value, diagnostics=diagnostics))
    return out


def rank(scores: list[DiversityScore]) -> Ranking:
    """Order by normalized desc, then raw desc, then catalog position.

    Input order is irrelevant: the catalog position recorded on each score is
    the only tie-break authority.
    """
    _check_scores(scores)
    for s in scores:
        if s.normalized is None:
            raise InputError(f"score for {s.mr_id} has no normalized value; run normalize first")
    ordered = sorted(scores, key=lambda s: (-s.normalized, -s.raw, s.catalog_index))
    entries = tuple(
        RankEntry(s.mr_id, s.raw, s.normalized, position)
        for position, s in enumerate(ordered, start=1)
    )
    raws = [s.raw for s in scores]
    return Ranking(scores[0].metric, entries, tie_note=max(raws) == min(raws))


def top_n(ranking: Ranking, n: int) -> tuple[str, ...]:
    if not 1 <= n <= len(ranking.entries):
        raise InputError(
            f"n must be between 1 and {len(ranking.entries)}, got {n}"
        )
    return ranking.ordering()[:n]
