#!/usr/bin/env python3
"""End-to-end benchmark of the mrprior CLI.

    python3 benchmarks/run.py --workload paper-500 --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the workload's CLI calls as child processes
(``python -m mrprior.cli ...``), one at a time in a closed loop with one
client, in whole rounds for as close to ``--seconds`` seconds as the
round length allows, and at least one round.  Each child's
wall time and peak RSS (``os.wait4`` rusage) are recorded and every output
is checked.  ``--trace 1`` runs the same round three times in process: untraced to
warm up, traced with spans around mrprior's public functions, and
untraced again; it reports per-layer numbers from the traced round and the
tracing overhead as traced minus untraced wall time per call.

A readable report goes to standard output first; the last line is one JSON
object with the keys correct, attempted, failed and metrics.  Generated
inputs live under ``.bench_work/`` and are removed at exit; the full report
(and, traced, every span) is kept in ``.bench_work/reports/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5     # before the first round; one more per round
HARD_CAP_S = 140.0      # start no round that would end past this
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "prioritize_s": "s",
    "prioritize_peak_rss_mb": "MB",
    "evaluation_s": "s",
    "eval_peak_rss_mb": "MB",
}

PER_LAYER = {
    "dataset.load_csv.s": "s",
    "dataset.load_csv.rows": "count",
    "dataset.Dataset.s": "s",
    "dataset.numeric_view.s": "s",
    "catalog.apply_mr.s": "s",
    "catalog.apply_mr.rows_out": "count",
    "metrics.score_catalog.self_s": "s",
    "metrics.summarize.s": "s",
    "metrics.summaries": "count",
    "metrics.distinct_summarized": "count",
    "metrics.summary_reuse_ratio": "ratio",
    "metrics.scores": "count",
    "metrics.near_zero_raw_scores": "count",
    "rules.cn2_induce.calls": "count",
    "rules.rules_induced": "count",
    "anomaly.knn_outliers.calls": "count",
    "anomaly.knn_outliers.peak_mb": "MB",
    "anomaly.knn_outliers.computed_mb": "MB",
    "anomaly.flagged": "count",
    "anomaly.identical_pairs": "count",
    "clustering.kmeans_summary.calls": "count",
    "clustering.lloyd_iters": "count",
    "clustering.hit_max_iters": "count",
    "distribution.dist_summary.calls": "count",
    "prioritizer.normalize.s": "s",
    "prioritizer.rank.s": "s",
    "evaluation.load_kill_matrix.s": "s",
    "evaluation.evaluate_ordering.s": "s",
    "evaluation.random_baseline.s": "s",
    "evaluation.random_baseline.orderings": "count",
    "evaluation.first_kill_positions.calls": "count",
    "evaluation.permutation_test.s": "s",
    "evaluation.permutation_test.sign_samples": "count",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_per_call_s": "s",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(args: list[str], env: dict, log_path: Path) -> tuple[float, float, int]:
    """Run ``python <args>``; return (wall seconds, peak RSS in MB, exit code)."""
    fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable, [sys.executable, *args], env,
            file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1), (os.POSIX_SPAWN_DUP2, fd, 2)],
        )
    finally:
        os.close(fd)
    killer = threading.Timer(CHILD_TIMEOUT_S, _kill, (pid,))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        _kill(pid)
        os.waitpid(pid, 0)
        raise
    finally:
        killer.cancel()
        killer.join()
    wall = time.perf_counter() - start
    return wall, usage.ru_maxrss * 1024 / 1e6, os.waitstatus_to_exitcode(status)


def _tail(path: Path) -> str:
    return path.read_text(encoding="utf-8", errors="replace").strip()[-400:]


class Run:
    """Checks and counts for one benchmark run."""

    def __init__(self, workload, checks) -> None:
        self.workload = workload
        self.checks = checks
        self.attempted = 0
        self.failures: list[str] = []
        self.outputs: dict[tuple, bytes] = {}

    def judge(self, call, exit_code: int, detail: str = "") -> None:
        """Check a call's exit code and output; remember the output of each argv."""
        self.attempted += 1
        if exit_code != 0:
            problems = [f"exit code {exit_code}: {detail}"]
        else:
            try:
                output = Path(call.out).read_bytes()
            except OSError as exc:
                output, problems = b"", [f"cannot read output: {exc}"]
            else:
                problems = self.checks.check_output(call, output, self.workload.kill_matrix)
            key = tuple(call.argv)
            if key in self.outputs:
                problems += self.checks.check_repeat(self.outputs[key], output)
            else:
                self.outputs[key] = output
        if problems:
            self.failures.append(f"{call.label}: " + "; ".join(problems))


# ---------------------------------------------------------------------------
# untraced: child processes, wall time and peak RSS
# ---------------------------------------------------------------------------

def timed_run(workload, checks, seconds: float, work: Path, deadline: float) -> tuple[Run, dict]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    log = work / "child.log"
    run = Run(workload, checks)

    # one untimed import first, so bytecode caches exist as for any user
    import_args = ["-c", "import mrprior.cli"]
    setup: list[float] = []

    def sample_setup() -> bool:
        wall, _, code = run_child(import_args, env, log)
        setup.append(wall)
        if code != 0:
            run.failures.append(f"import mrprior.cli failed: {_tail(log)}")
        return code == 0

    if not all(sample_setup() for _ in range(SETUP_SAMPLES + 1)):
        return run, {}
    del setup[0]

    calls: dict[str, list] = {call.label: [] for call in workload.calls}
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if not sample_setup():   # one more set-up sample per round, spread over the run
            break
        for call in workload.calls:
            wall, rss, code = run_child(["-m", "mrprior.cli", *call.argv], env, log)
            run.judge(call, code, _tail(log) if code else "")
            calls[call.label].append((wall, rss))
        now = time.perf_counter()
        round_s = now - round_start
        # one more round only if the run then ends nearer to --seconds
        if run.failures or now - start + round_s / 2 >= seconds:
            break
        if now + round_s > deadline:
            break
    return run, {"setup": setup, "calls": calls}


def summarize_timed(samples: dict) -> tuple[dict, list[dict]]:
    """End-to-end metrics and a per-call table.

    A call's time is the median of its wall times in the run.  A shared
    2-core machine switches between a fast state and one about 1.5x slower;
    the fastest sample depends on whether a run happens to catch the fast
    state, while the median follows the share of the run spent in each.  The
    table keeps every call's minimum, mean and maximum beside it.
    """
    calls = samples["calls"]
    prioritize = [label for label in calls if label.startswith("prioritize_")]
    evaluation = [label for label in calls if label not in prioritize]
    median = statistics.median

    def median_wall(labels: list[str]) -> float:
        return sum(median(wall for wall, _ in calls[label]) for label in labels)

    def peak_rss(labels: list[str]) -> float:
        return max(median(rss for _, rss in calls[label]) for label in labels)

    metrics = {
        "setup_s": median(samples["setup"]),
        "prioritize_s": median_wall(prioritize),
        "prioritize_peak_rss_mb": peak_rss(prioritize),
        "evaluation_s": median_wall(evaluation),
        "eval_peak_rss_mb": peak_rss(evaluation),
    }
    table = []
    for label, runs in calls.items():
        walls = [wall for wall, _ in runs]
        table.append({"call": f"{label}_s", "n": len(walls), "min_s": min(walls),
                      "mean_s": statistics.fmean(walls), "median_s": median(walls),
                      "max_s": max(walls), "peak_rss_mb": max(rss for _, rss in runs)})
    return metrics, table


# ---------------------------------------------------------------------------
# traced: in process, spans around mrprior's public functions
# ---------------------------------------------------------------------------

def _in_process(main, argv: list[str]) -> tuple[float, int, str]:
    start = time.perf_counter()
    try:
        code, detail = main(argv), ""
    except SystemExit as exc:
        code, detail = (exc.code if isinstance(exc.code, int) else 2), "SystemExit"
    except Exception:   # one failed call is counted; the run goes on
        code, detail = 4, traceback.format_exc(limit=3)
    return time.perf_counter() - start, code, detail


def traced_run(workload, checks, spans) -> tuple[Run, dict]:
    sys.path.insert(0, str(SRC))
    import mrprior.cli

    run = Run(workload, checks)

    def one_round(tracer=None) -> list[float]:
        walls = []
        for call in workload.calls:
            if tracer is not None:
                tracer.begin_call()
            wall, code, detail = _in_process(mrprior.cli.main, call.argv)
            run.judge(call, code, detail)
            walls.append(wall)
        return walls

    # a first untraced round takes the first-use costs, so the traced round
    # and the untraced round it is compared with both run warm
    one_round()
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = one_round(tracer)
    finally:
        tracer.uninstall()
    untraced = one_round()

    layers = tracer.aggregate()
    counters = dict(tracer.counters)
    per_layer = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if span in layers and field in ("s", "self_s", "calls"):
            per_layer[name] = layers[span][field]
        else:
            per_layer[name] = counters.get(name, 0)
    per_layer["metrics.summarize.s"] = sum(
        layers.get(span, {}).get("s", 0.0) for span in spans.SUMMARIZERS
    )
    summaries = counters.get("metrics.summaries", 0)
    per_layer["metrics.summary_reuse_ratio"] = (
        counters.get("metrics.distinct_summarized", 0) / summaries if summaries else 0.0
    )
    per_layer["trace.spans"] = len(tracer.spans)
    per_layer["trace.overhead_per_call_s"] = (sum(traced) - sum(untraced)) / len(traced)
    detail = {
        "untraced_s": untraced,
        "traced_s": traced,
        "layers": layers,
        "counters": counters,
        "raw_scores": tracer.scores,
        "spans": tracer.span_dicts(),
    }
    return run, {"per_layer": per_layer, "trace": detail}


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def environment(args, numpy) -> dict:
    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def print_report(env: dict, run: Run, table: list[dict], metrics: dict, units: dict) -> None:
    print(f"mrprior benchmark: workload {env['workload']}, seed {env['seed']}, "
          f"trace {env['trace']}, closed loop with one client")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()
                                      if k not in ("workload", "seed", "trace")))
    for row in table:
        print(f"  {row['call']:<28} n={row['n']:<3} min {row['min_s']:.4f} s  "
              f"mean {row['mean_s']:.4f} s  median {row['median_s']:.4f} s  "
              f"max {row['max_s']:.4f} s  peak RSS {row['peak_rss_mb']:.1f} MB")
    failed = len(run.failures)
    print(f"failed_ops_ratio = {failed}/{run.attempted} calls")
    for failure in run.failures:
        print(f"  FAILED {failure}")
    for name, value in metrics.items():
        print(f"  {name} = {value} {units[name]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mrprior" / "cli.py").is_file():
        print(f"error: no mrprior sources under {SRC}", file=sys.stderr)
        return 2
    # children, and the traced in-process run, use at most nproc threads
    for var in THREAD_VARS:
        os.environ[var] = str(nproc())
    import numpy

    sys.path.insert(0, str(HERE))
    import checks
    import spans
    import workloads

    started = time.perf_counter()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK_ROOT / f"{tag}-{os.getpid()}"
    try:
        try:
            workload = workloads.build(args.workload, args.seed, str(work))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.trace:
            run, result = traced_run(workload, checks, spans)
            metrics, units, table = result["per_layer"], PER_LAYER, []
        else:
            run, samples = timed_run(workload, checks, args.seconds, work,
                                     started + HARD_CAP_S)
            metrics, table = summarize_timed(samples) if run.attempted else ({}, [])
            units, result = END_TO_END, {"samples": samples, "calls": table}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args, numpy)
    print_report(env, run, table, metrics, units)
    reports = WORK_ROOT / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    with open(reports / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "failures": run.failures, "metrics": metrics,
                   **result}, fh, indent=1)

    correct = not run.failures and set(metrics) == set(units)
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": len(run.failures) if run.attempted else 1,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
