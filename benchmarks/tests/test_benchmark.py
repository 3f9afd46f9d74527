"""Self-tests of the benchmark at smoke size.

Run with ``python3 -m pytest -q benchmarks/tests``.  They test structure
only: metric names and units, span nesting, self times, and that every
output check rejects a corrupted output.  No test pins a value the program
may legitimately change.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(trace: int) -> dict:
    proc = _bench("--workload", "smoke", "--seed", "5", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(trace, key):
    result = _result(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_spans_nest_inside_parents_and_self_times_are_not_negative():
    _result(1)
    report = json.loads((ROOT / ".bench_work/reports/smoke-seed5-trace1.json").read_text())
    trace = report["trace"]
    by_id = {s["id"]: s for s in trace["spans"]}
    assert by_id
    for span in by_id.values():
        assert span["start"] <= span["end"]
        if span["parent"] is None:
            assert span["name"] == "cli.main"
            continue
        parent = by_id[span["parent"]]
        assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
        assert parent["call"] == span["call"]
    for name, layer in trace["layers"].items():
        assert layer["self_s"] >= -1e-9, name
        assert layer["self_s"] <= layer["s"] + 1e-9, name
    # every layer the workload exercises shows up as spans
    for name in ("dataset.load_csv", "catalog.apply_mr", "dataset.numeric_view",
                 "metrics.score_catalog", "rules.cn2_induce", "anomaly.knn_outliers",
                 "clustering.kmeans_summary", "distribution.dist_summary",
                 "prioritizer.normalize", "prioritizer.rank", "evaluation.random_baseline",
                 "evaluation.permutation_test", "evaluation.evaluate_ordering"):
        assert trace["layers"][name]["calls"] >= 1, name


def test_tracer_uninstall_restores_every_original():
    import mrprior.cli
    import mrprior.dataset
    import mrprior.metrics.anomaly

    before = (mrprior.cli.main, mrprior.cli.score_catalog, mrprior.metrics.anomaly.numeric_view,
              mrprior.dataset.Dataset.__dict__["__post_init__"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert mrprior.metrics.anomaly.numeric_view is not before[2]
        assert mrprior.cli.score_catalog is not before[1]
    finally:
        tracer.uninstall()
    after = (mrprior.cli.main, mrprior.cli.score_catalog, mrprior.metrics.anomaly.numeric_view,
             mrprior.dataset.Dataset.__dict__["__post_init__"])
    assert after == before


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "paper-500", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# each check passes real outputs and rejects corrupted ones
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def smoke_outputs(tmp_path_factory):
    """Real outputs of every smoke call, made in process."""
    import mrprior.cli

    workload = workloads.build("smoke", 11, str(tmp_path_factory.mktemp("smoke")))
    outputs = {}
    for call in workload.calls:
        assert mrprior.cli.main(call.argv) == 0, call.label
        outputs[call.label] = (call, Path(call.out).read_bytes())
    return workload, outputs


def _corrupt(output: bytes, mutate) -> bytes:
    data = copy.deepcopy(json.loads(output))
    mutate(data)
    return json.dumps(data).encode()


def _entries(data):
    return data["ranking"]["entries"]


def _identity(data):
    return next(e for e in _entries(data) if e["mr_id"] == workloads.IDENTITY_ID)


def _killed(data):
    positions = data["report"]["first_positions"]
    return next(m for m, p in positions.items() if p is not None)


RANKING_CORRUPTIONS = {
    "entry dropped": lambda d: _entries(d).pop(),
    "id duplicated": lambda d: _entries(d)[1].update(mr_id=_entries(d)[0]["mr_id"]),
    "ranks out of order": lambda d: _entries(d)[0].update(rank=2),
    "normalized above 1": lambda d: _entries(d)[0].update(normalized=1.5),
    "normalized missing": lambda d: _entries(d)[0].update(normalized=None),
    "identity not zero": lambda d: _identity(d).update(raw=1e-15),
}

EVALUATION_CORRUPTIONS = {
    "evaluate": {
        "apfd off": lambda d: d["report"].update(apfd=d["report"]["apfd"] + 1e-6),
        "first kill moved": lambda d: d["report"]["first_positions"].update(
            {_killed(d): d["report"]["first_positions"][_killed(d)] + 1}),
        "no report": lambda d: d.pop("report"),
    },
    "baseline_random": {
        "runs off": lambda d: d["report"].update(runs=d["report"]["runs"] - 1),
    },
    "compare": {
        "p-value zero": lambda d: d["sizes"][0].update(p_value=0.0),
        "p-value above 1": lambda d: d["sizes"][-1].update(p_value=1.5),
        "size dropped": lambda d: d["sizes"].pop(),
    },
}


def test_real_outputs_pass_every_check(smoke_outputs):
    workload, outputs = smoke_outputs
    for label, (call, output) in outputs.items():
        assert checks.check_output(call, output, workload.kill_matrix) == [], label


@pytest.mark.parametrize("metric", ["rule", "anomaly", "distribution", "clustering"])
@pytest.mark.parametrize("corruption", sorted(RANKING_CORRUPTIONS))
def test_ranking_check_rejects_corrupted_output(smoke_outputs, metric, corruption):
    workload, outputs = smoke_outputs
    call, output = outputs[f"prioritize_{metric}"]
    bad = _corrupt(output, RANKING_CORRUPTIONS[corruption])
    assert checks.check_output(call, bad, workload.kill_matrix)


@pytest.mark.parametrize("label, corruption", [
    (label, name) for label, table in EVALUATION_CORRUPTIONS.items() for name in table
])
def test_evaluation_checks_reject_corrupted_output(smoke_outputs, label, corruption):
    workload, outputs = smoke_outputs
    call, output = outputs[label]
    bad = _corrupt(output, EVALUATION_CORRUPTIONS[label][corruption])
    assert checks.check_output(call, bad, workload.kill_matrix)


def test_non_json_output_is_rejected(smoke_outputs):
    workload, outputs = smoke_outputs
    call, _ = outputs["compare"]
    assert checks.check_output(call, b"{truncated", workload.kill_matrix)


def test_repeat_check_rejects_changed_bytes(smoke_outputs):
    _, outputs = smoke_outputs
    _, output = outputs["prioritize_rule"]
    assert checks.check_repeat(output, output) == []
    assert checks.check_repeat(output, output.replace(b"\n", b" ", 1))
