"""Kill-matrix evaluation: detection curves, APFD, baselines, significance.

A kill matrix records which MRs expose which mutants, plus per-MR execution
times.  Orderings are judged by their fault-detection curve (a tuple: the
percentage of killable mutants exposed by the first m MRs), APFD, effective
MR-set size and average time to first detection.  Baselines: averaged random
orderings and a coverage-greedy ordering.  A paired sign-flip permutation
test compares treatments.

One function builds every ``EvalReport``: a single ordering is a block of
one run, a random baseline many blocks.  Reports export through ``Record``
and check themselves, so computed and loaded reports pass the same checks.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ApplicabilityError, InputError, InvariantError
from .inputs import csv_records
from .records import Record

DEFAULT_THRESHOLDS = (5.0, 2.5)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def _check_ids(mr_ids, column_ids, cells: np.ndarray, matrix: str, column: str) -> None:
    """Unique, non-empty MR and column ids that match the cell array's shape."""
    if len(set(mr_ids)) != len(mr_ids):
        raise InputError(f"duplicate MR ids in {matrix}")
    if len(set(column_ids)) != len(column_ids):
        raise InputError(f"duplicate {column} ids in {matrix}")
    if not mr_ids or not column_ids:
        raise InputError(f"{matrix} needs at least one MR and one {column}")
    if cells.shape != (len(mr_ids), len(column_ids)):
        raise InputError(f"{matrix} shape does not match its id lists")


@dataclass(frozen=True, eq=False)
class KillMatrix:
    mr_ids: tuple[str, ...]
    mutant_ids: tuple[str, ...]
    kills: np.ndarray       # bool, MRs x mutants
    exec_time: np.ndarray   # seconds per MR

    def __post_init__(self) -> None:
        _check_ids(self.mr_ids, self.mutant_ids, self.kills, "kill matrix", "mutant")
        if self.exec_time.shape != (len(self.mr_ids),):
            raise InputError("execution time vector does not match the MR list")
        if np.any(self.exec_time < 0) or not np.all(np.isfinite(self.exec_time)):
            raise InputError("execution times must be finite and non-negative")
        # a Python sum overflows to inf without numpy's warning
        if not math.isfinite(sum(self.exec_time.tolist())):
            raise InputError("execution times must have a finite sum")

    @property
    def killable_mask(self) -> np.ndarray:
        return self.kills.any(axis=0)

    @property
    def unkillable_ids(self) -> tuple[str, ...]:
        return tuple(m for m, killable in zip(self.mutant_ids, self.killable_mask) if not killable)


@dataclass(frozen=True, eq=False)
class CoverageMatrix:
    mr_ids: tuple[str, ...]
    element_ids: tuple[str, ...]
    covers: np.ndarray      # bool, MRs x elements

    def __post_init__(self) -> None:
        _check_ids(self.mr_ids, self.element_ids, self.covers, "coverage matrix", "element")


def _read_csv_records(path: str) -> list[tuple[int, list[str]]]:
    """CSV records with the file line each starts on; ``#`` comment records skipped."""
    return [(n, r) for n, r in csv_records(path) if not r[0].lstrip().startswith("#")]


def _read_binary_matrix(path: str, what: str) -> tuple[tuple[str, ...], tuple[str, ...], np.ndarray]:
    records = _read_csv_records(path)
    if not records:
        raise InputError(f"{path}: empty file")
    header = [c.strip() for c in records[0][1]]
    if not header or header[0] != "mr_id":
        raise InputError(f"{path}: first header cell must be 'mr_id'")
    column_ids = tuple(header[1:])
    if not column_ids:
        raise InputError(f"{path}: no {what} columns")
    row_ids: list[str] = []
    cells: list[list[bool]] = []
    for lineno, record in records[1:]:
        if len(record) != len(header):
            raise InputError(
                f"{path}: line {lineno}: expected {len(header)} fields, got {len(record)}"
            )
        row_ids.append(record[0].strip())
        row = []
        for value in record[1:]:
            token = value.strip()
            if token not in ("0", "1"):
                raise InputError(f"{path}: line {lineno}: cells must be 0 or 1, got {token!r}")
            row.append(token == "1")
        cells.append(row)
    if not row_ids:
        raise InputError(f"{path}: no MR rows")
    return tuple(row_ids), column_ids, np.array(cells, dtype=bool)


def load_times(path: str) -> dict[str, float]:
    records = _read_csv_records(path)
    if not records or [c.strip() for c in records[0][1]] != ["mr_id", "exec_seconds"]:
        raise InputError(f"{path}: header must be 'mr_id,exec_seconds'")
    times: dict[str, float] = {}
    for lineno, record in records[1:]:
        if len(record) != 2:
            raise InputError(f"{path}: line {lineno}: expected 2 fields")
        mr_id = record[0].strip()
        if mr_id in times:
            raise InputError(f"{path}: line {lineno}: duplicate MR id {mr_id!r}")
        try:
            seconds = float(record[1])
        except ValueError:
            raise InputError(
                f"{path}: line {lineno}: exec_seconds must be a number, got {record[1]!r}"
            ) from None
        if not math.isfinite(seconds) or seconds < 0:
            raise InputError(f"{path}: line {lineno}: exec_seconds must be >= 0")
        times[mr_id] = seconds
    return times


def load_kill_matrix(kills_path: str, times_path: str) -> KillMatrix:
    mr_ids, mutant_ids, kills = _read_binary_matrix(kills_path, "mutant")
    times = load_times(times_path)
    unknown = sorted(set(times) - set(mr_ids))
    if unknown:
        raise InputError(f"{times_path}: unknown MR ids {unknown}")
    missing = [m for m in mr_ids if m not in times]
    if missing:
        raise InputError(f"{times_path}: missing execution times for {missing}")
    exec_time = np.array([times[m] for m in mr_ids], dtype=float)
    return KillMatrix(mr_ids, mutant_ids, kills, exec_time)


def load_coverage_matrix(path: str) -> CoverageMatrix:
    mr_ids, element_ids, covers = _read_binary_matrix(path, "element")
    return CoverageMatrix(mr_ids, element_ids, covers)


def save_kill_matrix(
    km: KillMatrix, kills_path: str, times_path: str, comment: str | None = None
) -> None:
    with open(kills_path, "w", newline="", encoding="utf-8") as fh:
        if comment:
            fh.write(comment + "\n")
        writer = csv.writer(fh)
        writer.writerow(["mr_id", *km.mutant_ids])
        for i, mr_id in enumerate(km.mr_ids):
            writer.writerow([mr_id, *("1" if v else "0" for v in km.kills[i])])
    with open(times_path, "w", newline="", encoding="utf-8") as fh:
        if comment:
            fh.write(comment + "\n")
        writer = csv.writer(fh)
        writer.writerow(["mr_id", "exec_seconds"])
        for mr_id, seconds in zip(km.mr_ids, km.exec_time):
            writer.writerow([mr_id, repr(float(seconds))])


# ---------------------------------------------------------------------------
# ordering evaluation
# ---------------------------------------------------------------------------

def _check_order(order: Sequence[str], km: KillMatrix) -> np.ndarray:
    """*order* as a one-run block: a 1 x MRs array of MR indices."""
    if len(order) != len(km.mr_ids) or set(order) != set(km.mr_ids):
        raise InputError("ordering is not a permutation of the kill matrix's MR ids")
    index = {m: i for i, m in enumerate(km.mr_ids)}
    return np.array([[index[m] for m in order]])


# An ordering is evaluated as a block of runs: one row of MR indices per run.
# A single ordering is the one-run block; random baselines evaluate many.

def _kill_groups(km: KillMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Killing (MR, mutant) pairs grouped by killable mutant, in mutant order:
    the MR of each pair, and where each mutant's group starts."""
    mutant, killer = np.nonzero(km.kills[:, km.killable_mask].T)
    return killer, np.flatnonzero(np.diff(mutant, prepend=-1))


def _first_kills(perms: np.ndarray, groups: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Runs x killable mutants: 0-based position of each mutant's first killer,
    the earliest position of its killers in the run's order."""
    killer, starts = groups
    position = np.argsort(perms, axis=1)    # runs x MRs: where each MR runs
    return np.minimum.reduceat(position[:, killer], starts, axis=1)


def _row_counts(values: np.ndarray, width: int) -> np.ndarray:
    """counts[i, v]: occurrences of v in row i of *values* (ints in [0, width))."""
    rows = values.shape[0]
    flat = (np.arange(rows)[:, None] * width + values).ravel()
    return np.bincount(flat, minlength=rows * width).reshape(rows, width)


def _run_curves(first: np.ndarray, n: int) -> np.ndarray:
    """Runs x n: percentage of killable mutants exposed by each prefix.

    With no killable mutants the curve is flat 100: every prefix kills all of
    an empty set.
    """
    n_killable = first.shape[1]
    if n_killable == 0:
        return np.full((len(first), n), 100.0)
    return 100.0 * np.cumsum(_row_counts(first, n), axis=1) / n_killable


def _run_apfds(first: np.ndarray, n: int) -> list[float]:
    found = first.shape[1]
    if not found:
        raise ApplicabilityError("APFD is undefined: no killable mutants")
    return [1.0 - int(s) / (n * found) + 1.0 / (2 * n) for s in first.sum(axis=1) + found]


def _check_averageable(km: KillMatrix, count: int, what: str) -> None:
    """A time to fault is at most the total time, so a mean of *count* of
    them is finite, rounding included, when twice the total times *count* is."""
    total = sum(km.exec_time.tolist())
    if not math.isfinite(2 * total * count):
        raise InputError(
            f"execution times total {total:g} s, too large to average over {count} {what}"
        )


def _run_times(perms: np.ndarray, first: np.ndarray, km: KillMatrix) -> list[float]:
    if not first.shape[1]:
        raise ApplicabilityError("time to fault is undefined: no killable mutants")
    _check_averageable(km, first.shape[1], "killable mutants")
    cumulative = np.cumsum(km.exec_time[perms], axis=1)
    return [float(np.mean(t)) for t in np.take_along_axis(cumulative, first, axis=1)]


def _one_pass(order: Sequence[str], km: KillMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Check *order* once; return it as a one-run block and its first kills."""
    perm = _check_order(order, km)
    return perm, _first_kills(perm, _kill_groups(km))


def _positions(first: np.ndarray, km: KillMatrix) -> dict[str, int | None]:
    positions = np.zeros(len(km.mutant_ids), dtype=int)
    positions[km.killable_mask] = first[0] + 1
    return {m: int(p) if p else None for m, p in zip(km.mutant_ids, positions)}


def first_kill_positions(order: Sequence[str], km: KillMatrix) -> dict[str, int | None]:
    """1-based position of the first killer per mutant, None when never killed."""
    return _positions(_one_pass(order, km)[1], km)


def detection_curve(order: Sequence[str], km: KillMatrix) -> tuple[float, ...]:
    """Percentage of killable mutants exposed by each ordering prefix.

    With no killable mutants the curve is flat 100.
    """
    return tuple(_run_curves(_one_pass(order, km)[1], len(km.mr_ids))[0].tolist())


def apfd(order: Sequence[str], km: KillMatrix) -> float:
    """Average percentage of faults detected, over killable mutants only."""
    return _run_apfds(_one_pass(order, km)[1], len(km.mr_ids))[0]


def avg_time_to_fault(order: Sequence[str], km: KillMatrix) -> float:
    """Mean, over killable mutants, of the execution time spent up to and
    including the first MR that kills each one."""
    return _run_times(*_one_pass(order, km), km)[0]


def effective_set_size(curve: Sequence[float], threshold: float) -> int:
    """Smallest m whose next step adds less than *threshold* percentage points.

    Falls back to the full set size when every step is at least the threshold.
    """
    if not math.isfinite(threshold):
        raise InputError(f"threshold must be finite, got {threshold}")
    if threshold <= 0:
        raise InputError(f"threshold must be positive, got {threshold}")
    for m in range(1, len(curve)):
        if curve[m] - curve[m - 1] < threshold:
            return m
    return len(curve)


@dataclass(frozen=True)
class EffectiveSize(Record):
    threshold: float
    size: int


@dataclass(frozen=True, eq=False)
class EvalReport(Record):
    kind: str                               # "single" or "averaged"
    ordering: tuple[str, ...] | None
    curve: tuple[float, ...]                # percentage of killable mutants after m MRs
    apfd: float
    effective_sizes: tuple[EffectiveSize, ...]
    avg_time_to_fault: float
    mutant_ids: tuple[str, ...]
    unkillable: tuple[str, ...]
    detection: np.ndarray                   # sizes x mutants, fraction killed
    first_positions: dict[str, int | None] | None = None
    runs: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if not self.curve:
            raise InvariantError("a detection curve needs at least one point")
        expected = (len(self.curve), len(self.mutant_ids))
        if self.detection.shape != expected:
            raise InvariantError(
                f"detection has shape {self.detection.shape}, "
                f"expected {expected} (curve points x mutants)"
            )
        # every comparison with NaN is false, so the order check alone passes it
        scalars = [*self.curve, self.apfd, self.avg_time_to_fault]
        if not (np.isfinite(scalars).all() and np.isfinite(self.detection).all()):
            raise InvariantError("curve, detection, apfd and time to fault must be finite")
        if any(b < a for a, b in zip(self.curve, self.curve[1:])):
            raise InvariantError("detection curve must be non-decreasing")


def report_from_dict(data: dict) -> EvalReport:
    try:
        return EvalReport(
            kind=data["kind"],
            ordering=tuple(data["ordering"]) if data["ordering"] is not None else None,
            curve=tuple(float(p) for p in data["curve"]),
            apfd=float(data["apfd"]),
            effective_sizes=tuple(
                EffectiveSize(float(e["threshold"]), int(e["size"]))
                for e in data["effective_sizes"]
            ),
            avg_time_to_fault=float(data["avg_time_to_fault"]),
            mutant_ids=tuple(data["mutant_ids"]),
            unkillable=tuple(data["unkillable"]),
            detection=np.array(data["detection"], dtype=float),
            first_positions=data.get("first_positions"),
            runs=data.get("runs"),
            seed=data.get("seed"),
        )
    except (KeyError, TypeError, ValueError, InvariantError) as exc:
        raise InputError(f"malformed evaluation report: {exc}") from exc


# blocks of runs are evaluated together; a block's per-run arrays (runs x MRs,
# runs x killing MR-mutant pairs) hold at most this many elements each, or one
# run when a single run is wider.  permutation_test draws its sign rows in
# blocks of the same size.
RUN_BLOCK_ELEMENTS = 2**15


def _report(
    km: KillMatrix, orders, count: int, thresholds: Sequence[float], kind: str, **identity
) -> EvalReport:
    """Evaluate *count* orderings (rows of MR indices) in blocks of runs.

    Detection is built from integer counts, the curve is summed run by run
    in run order, and APFD and time to fault are averaged over per-run
    values, so every bit of the report is that of evaluating the runs one at
    a time, whatever the block size.  *identity* holds the report's
    ordering, or its runs and seed.
    """
    n = len(km.mr_ids)
    groups = _kill_groups(km)
    block = max(1, RUN_BLOCK_ELEMENTS // max(groups[0].size, n))
    curve_sum = np.zeros(n)
    # killable mutants x positions: runs whose first kill comes at that position
    first_counts = np.zeros((groups[1].size, n), dtype=np.int64)
    apfd_values: list[float] = []
    time_values: list[float] = []
    for _ in range(0, count, block):
        perms = np.array(list(itertools.islice(orders, block)))
        first = _first_kills(perms, groups)
        first_counts += _row_counts(first.T, n)
        for curve in _run_curves(first, n):
            curve_sum += curve
        apfd_values += _run_apfds(first, n)
        time_values += _run_times(perms, first, km)

    _check_averageable(km, count, "runs")
    detection = np.zeros(km.kills.shape)
    detection[:, km.killable_mask] = np.cumsum(first_counts, axis=1).T / count
    mean_curve = tuple((curve_sum / count).tolist())
    return EvalReport(
        kind=kind,
        curve=mean_curve,
        apfd=float(np.mean(apfd_values)),
        effective_sizes=tuple(
            EffectiveSize(float(t), effective_set_size(mean_curve, t)) for t in thresholds
        ),
        avg_time_to_fault=float(np.mean(time_values)),
        mutant_ids=km.mutant_ids,
        unkillable=km.unkillable_ids,
        detection=detection,
        # a single ordering is the one block, so *first* is its run
        first_positions=_positions(first, km) if kind == "single" else None,
        **identity,
    )


def evaluate_ordering(
    order: Sequence[str],
    km: KillMatrix,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
) -> EvalReport:
    block = _check_order(order, km)
    return _report(km, iter(block), 1, thresholds, "single", ordering=tuple(order))


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def random_baseline(
    km: KillMatrix,
    runs: int = 100,
    seed: int = 0,
    thresholds: Sequence[float] = DEFAULT_THRESHOLDS,
    exhaustive: bool = False,
) -> EvalReport:
    """Average evaluation over uniformly random MR orderings.

    Run r draws its permutation from a generator seeded with seed + r, so
    any prefix of the runs is reproducible in isolation.  With
    ``exhaustive=True`` every permutation is enumerated once instead (the
    exact expectation; feasible only for small catalogs).  The runs are
    evaluated in blocks, with the kernel a single ordering uses.
    """
    if not km.killable_mask.any():
        raise ApplicabilityError("baseline is undefined: no killable mutants")
    n = len(km.mr_ids)
    if exhaustive:
        if n > 8:
            raise InputError("exhaustive enumeration is limited to 8 MRs")
        orders = itertools.permutations(range(n))
        count = math.factorial(n)
    else:
        if runs < 1:
            raise InputError(f"runs must be >= 1, got {runs}")
        orders = (np.random.default_rng(seed + r).permutation(n) for r in range(runs))
        count = runs
    return _report(km, orders, count, thresholds, "averaged", ordering=None, runs=count,
                   seed=None if exhaustive else seed)


def coverage_greedy(cov: CoverageMatrix) -> tuple[str, ...]:
    """Order MRs by maximal residual element coverage.

    Ties prefer the earlier catalog position.  Once no MR adds coverage, the
    leftovers are appended by descending total coverage, catalog order again
    breaking ties.
    """
    n = len(cov.mr_ids)
    uncovered = np.ones(len(cov.element_ids), dtype=bool)
    chosen: list[int] = []
    available = list(range(n))
    while available:
        gains = [int((cov.covers[i] & uncovered).sum()) for i in available]
        best_gain = max(gains)
        if best_gain == 0:
            break
        pick = available[gains.index(best_gain)]
        chosen.append(pick)
        available.remove(pick)
        uncovered &= ~cov.covers[pick]
    totals = cov.covers.sum(axis=1)
    available.sort(key=lambda i: (-int(totals[i]), i))
    return tuple(cov.mr_ids[i] for i in chosen + available)


# ---------------------------------------------------------------------------
# paired sign-flip permutation test
# ---------------------------------------------------------------------------

ALTERNATIVES = ("greater", "two-sided")
EXACT_LIMIT = 20


def permutation_test(
    a: Sequence[float] | Sequence[Sequence[float]],
    b: Sequence[float] | Sequence[Sequence[float]],
    alternative: str = "greater",
    iterations: int = 10000,
    seed: int = 0,
) -> float | list[float]:
    """P-value for the mean paired difference of *a* over *b*.

    All 2^n sign assignments are enumerated when n <= 20; otherwise the null
    distribution is sampled ``iterations`` times with the given seed (with
    the +1 correction so the estimate can never be zero).

    Observations run along the first axis.  Two-dimensional *a* and *b*
    (n x k) hold k pairs of samples, one per column, and give a list of k
    p-values.  The pairs share one null: the sign matrix is drawn (or, in
    exact mode, each chunk of it is built) once and applied to every
    column's differences with its own matrix-vector product, so each p-value
    is bit-identical to testing its column alone.
    """
    if alternative not in ALTERNATIVES:
        raise InputError(f"alternative must be one of {ALTERNATIVES}, got {alternative!r}")
    try:
        left = np.asarray(a, dtype=float)
        right = np.asarray(b, dtype=float)
    except ValueError as exc:
        raise InputError(f"paired samples must be numeric arrays: {exc}") from None
    if left.shape != right.shape or left.ndim not in (1, 2) or not len(left):
        raise InputError("paired samples must be equal-shape non-empty vectors or n x k matrices")
    difference = left - right
    n = len(difference)
    # each column gets its own contiguous vector, as a lone pair would
    diffs = [difference] if difference.ndim == 1 else [c.copy() for c in difference.T]

    def count_extreme(stats: np.ndarray, observed: float) -> int:
        if alternative == "greater":
            return int((stats >= observed).sum())
        return int((np.abs(stats) >= abs(observed)).sum())

    if n <= EXACT_LIMIT:
        total = 1 << n
        observed = [0.0] * len(diffs)
        extreme = [0] * len(diffs)
        bit_positions = np.arange(n, dtype=np.uint64)
        chunk = 1 << 16
        for start in range(0, total, chunk):
            ids = np.arange(start, min(start + chunk, total), dtype=np.uint64)
            signs = 1.0 - 2.0 * ((ids[:, None] >> bit_positions) & 1)
            for i, d in enumerate(diffs):
                stats = signs @ d / n
                if start == 0:
                    # sign id 0 is the identity assignment; reading the observed
                    # statistic off the same matrix product guarantees it ties
                    # itself bit-for-bit, so the exact p-value is at least 1/2^n
                    observed[i] = float(stats[0])
                extreme[i] += count_extreme(stats, observed[i])
        p_values = [e / total for e in extreme]
    else:
        if iterations < 1:
            raise InputError(f"iterations must be >= 1, got {iterations}")
        try:
            signs = np.empty((iterations, n))
        except (MemoryError, ValueError):
            raise InputError(
                f"{iterations} iterations x {n} mutants need a sign matrix of "
                f"{iterations * n * 8} bytes, more than can be allocated"
            ) from None
        rng = np.random.default_rng(seed)
        # the sign rows are drawn in blocks straight into the float matrix, so
        # no integer copy of it is held; PCG64 keeps its spare 32-bit half in
        # the generator, so the stream does not depend on where blocks split
        rows = max(1, RUN_BLOCK_ELEMENTS // n)
        for start in range(0, iterations, rows):
            block = signs[start:start + rows]
            np.multiply(rng.integers(0, 2, size=block.shape), 2.0, out=block)
            block -= 1.0
        # one GEMV per column over the whole matrix: a GEMM over all columns,
        # or a GEMV over blocks of sign rows, can change the last bits
        p_values = [
            (count_extreme(signs @ d / n, float(np.ones(n) @ d / n)) + 1) / (iterations + 1)
            for d in diffs
        ]
    return p_values[0] if difference.ndim == 1 else p_values


def relative_improvement(
    treatment: Sequence[float], baseline: Sequence[float]
) -> list[float | None]:
    """Per-prefix percentage improvement of treatment over baseline.

    None marks prefixes where the baseline sits at zero and the ratio is
    undefined.
    """
    if len(treatment) != len(baseline):
        raise InputError("curves must have the same number of points")
    out: list[float | None] = []
    for t, b in zip(treatment, baseline):
        out.append(None if b == 0 else 100.0 * (t - b) / b)
    return out


# ---------------------------------------------------------------------------
# synthetic fixtures
# ---------------------------------------------------------------------------

def synth_kill_matrix(
    n_mrs: int,
    n_mutants: int,
    kill_prob: float | Sequence[float] = 0.3,
    times: float | Sequence[float] | tuple[float, float] = 1.0,
    seed: int = 0,
) -> KillMatrix:
    """Random kill matrix; kill probabilities and times may vary per MR.

    ``times`` accepts a constant, a per-MR sequence, or a (low, high) pair
    sampled uniformly per MR.
    """
    if n_mrs < 1 or n_mutants < 1:
        raise InputError("need at least one MR and one mutant")
    probs = np.full(n_mrs, kill_prob, dtype=float) if np.isscalar(kill_prob) else np.asarray(
        kill_prob, dtype=float
    )
    if probs.shape != (n_mrs,):
        raise InputError(f"kill_prob must be scalar or length {n_mrs}")
    if not np.all((probs >= 0) & (probs <= 1)):
        raise InputError("kill probabilities must lie in [0, 1]")

    rng = np.random.default_rng(seed)
    if np.isscalar(times):
        exec_time = np.full(n_mrs, float(times))
    elif isinstance(times, tuple) and len(times) == 2:
        low, high = float(times[0]), float(times[1])
        if not (math.isfinite(low) and math.isfinite(high)):
            raise InputError(f"time range must be finite, got {low}:{high}")
        if low > high:
            raise InputError("time range must satisfy low <= high")
        exec_time = rng.uniform(low, high, size=n_mrs)
    else:
        exec_time = np.asarray(times, dtype=float)
        if exec_time.shape != (n_mrs,):
            raise InputError(f"times must be scalar, a (low, high) pair or length {n_mrs}")
    if np.any(exec_time < 0):
        raise InputError("execution times must be non-negative")

    kills = rng.random((n_mrs, n_mutants)) < probs[:, None]
    width = len(str(n_mrs))
    mr_ids = tuple(f"MR{i + 1:0{width}d}" for i in range(n_mrs))
    mutant_ids = tuple(f"m{j + 1}" for j in range(n_mutants))
    return KillMatrix(mr_ids, mutant_ids, kills, exec_time)
