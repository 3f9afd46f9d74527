"""Output checks for each benchmark CLI call.

Every check takes the call's parsed JSON output and returns a list of
problems; an empty list means the output passed.  A call counts as failed
when it exits non-zero or any check reports a problem.  The checks test
structure and oracles computed from the benchmark's own inputs; they never
pin a score the program may legitimately change.
"""

from __future__ import annotations

import json
import math


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def check_ranking(data: dict, ids: list[str], identity: str | None) -> list[str]:
    """Ranking is a permutation of *ids* with ranks 1..n, normalized scores in
    [0, 1], and the identity MR scoring raw 0.0 (C02)."""
    try:
        entries = list(data["ranking"]["entries"])
    except (KeyError, TypeError):
        return ["output has no ranking.entries"]
    problems = []
    got = [e.get("mr_id") if isinstance(e, dict) else None for e in entries]
    if sorted(map(str, got)) != sorted(ids) or len(got) != len(ids):
        problems.append(f"ranking ids {got} are not a permutation of {sorted(ids)}")
    ranks = [e.get("rank") if isinstance(e, dict) else None for e in entries]
    if ranks != list(range(1, len(entries) + 1)):
        problems.append(f"ranks {ranks} are not 1..{len(entries)} in order")
    for entry in entries:
        if not isinstance(entry, dict):
            continue
        norm = entry.get("normalized")
        if not _number(norm) or not 0.0 <= norm <= 1.0:
            problems.append(f"{entry.get('mr_id')}: normalized score {norm!r} outside [0, 1]")
        if identity is not None and entry.get("mr_id") == identity and entry.get("raw") != 0.0:
            problems.append(f"identity MR {identity} scores raw {entry.get('raw')!r}, not 0.0")
    return problems


def read_ordering(path: str) -> list[str]:
    """The ordering an ``evaluate`` call was given: a ranking or an order file."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if "ranking" in data:
        entries = sorted(data["ranking"]["entries"], key=lambda e: e["rank"])
        return [e["mr_id"] for e in entries]
    return list(data["ordering"])


def evaluation_oracle(ordering: list[str], kill_matrix) -> tuple[dict, float]:
    """Brute-force first-kill positions (1-based, None when never killed) and APFD."""
    mr_ids, mutant_ids, kills = kill_matrix[0], kill_matrix[1], kill_matrix[2]
    row = {m: i for i, m in enumerate(mr_ids)}
    first: dict[str, int | None] = {}
    for j, mutant in enumerate(mutant_ids):
        first[mutant] = None
        for position, mr in enumerate(ordering, start=1):
            if kills[row[mr]][j]:
                first[mutant] = position
                break
    found = [p for p in first.values() if p is not None]
    n, m = len(ordering), len(found)
    return first, 1.0 - sum(found) / (n * m) + 1.0 / (2 * n)


def check_evaluate(data: dict, ordering: list[str], kill_matrix) -> list[str]:
    """APFD and first-kill positions equal the brute-force oracle."""
    try:
        report = data["report"]
        apfd, positions = report["apfd"], report["first_positions"]
    except (KeyError, TypeError):
        return ["output has no report.apfd / report.first_positions"]
    if sorted(ordering) != sorted(kill_matrix[0]):
        return ["the evaluated ordering is not a permutation of the kill matrix's MR ids"]
    first, expected_apfd = evaluation_oracle(ordering, kill_matrix)
    problems = []
    if positions != first:
        problems.append("first-kill positions differ from the brute-force oracle")
    if not _number(apfd) or not math.isclose(apfd, expected_apfd, rel_tol=1e-12, abs_tol=1e-12):
        problems.append(f"APFD {apfd!r} differs from the oracle {expected_apfd!r}")
    return problems


def check_baseline(data: dict, runs: int) -> list[str]:
    """The random baseline reports the requested number of runs."""
    try:
        got = data["report"]["runs"]
    except (KeyError, TypeError):
        return ["output has no report.runs"]
    return [] if got == runs else [f"baseline reports {got!r} runs, {runs} requested"]


def check_compare(data: dict, sizes: int) -> list[str]:
    """One row per MR-set size, each p-value in (0, 1]."""
    try:
        rows = list(data["sizes"])
        values = [row["p_value"] for row in rows]
    except (KeyError, TypeError):
        return ["output has no sizes[].p_value"]
    problems = []
    if len(rows) != sizes:
        problems.append(f"compare reports {len(rows)} sizes, expected {sizes}")
    bad = [p for p in values if not _number(p) or not 0.0 < p <= 1.0]
    if bad:
        problems.append(f"p-values outside (0, 1]: {bad[:5]}")
    return problems


def check_output(call, output: bytes, kill_matrix) -> list[str]:
    """Run the checks that apply to *call* (a ``workloads.Call``) on its output bytes."""
    try:
        data = json.loads(output)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    if call.label.startswith("prioritize_"):
        return check_ranking(data, call.expect["ids"], call.expect["identity"])
    if call.label == "evaluate":
        try:
            ordering = read_ordering(call.expect["order_file"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"cannot read the ordering that was evaluated: {exc!r}"]
        return check_evaluate(data, ordering, kill_matrix)
    if call.label == "baseline_random":
        return check_baseline(data, call.expect["runs"])
    if call.label == "compare":
        return check_compare(data, call.expect["sizes"])
    return [f"no check for call {call.label!r}"]


def check_repeat(first: bytes, again: bytes) -> list[str]:
    """A repeated argv writes byte-identical output (C13)."""
    return [] if first == again else ["output differs from an earlier run of the same argv"]
