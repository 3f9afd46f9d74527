"""Import boundaries: each subcommand loads only the modules it runs.

Every check that counts modules runs in a fresh interpreter, since this
test process has imported the whole package already.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mrprior

SRC = str(Path(mrprior.__file__).resolve().parent.parent)
GOLDEN = Path(__file__).parent / "golden"
KERNELS = {"rule": "rules", "anomaly": "anomaly", "clustering": "clustering",
           "distribution": "distribution"}
KERNEL_MODULES = {f"mrprior.metrics.{module}" for module in KERNELS.values()}
# what only prioritize runs
PRIORITIZE_ONLY = {"mrprior.catalog", "mrprior.dataset", "mrprior.prioritizer", *KERNEL_MODULES}
KILLS = ["--kills", "kills.csv", "--times", "times.csv"]
# what only a --followup-dir run loads: its worker pool
POOL = {"multiprocessing", "concurrent.futures"}


def loaded_modules(cwd, argv=None) -> set[str]:
    """numpy, the worker pool's modules and the mrprior modules loaded by
    ``import mrprior.cli`` and, given *argv*, one ``main(argv)`` call that
    must succeed."""
    lines = ["import json, sys, mrprior.cli"]
    if argv is not None:
        lines.append(f"assert mrprior.cli.main({argv!r}) == 0")
    lines.append("print(json.dumps([m for m in sys.modules if m.startswith('mrprior')"
                 f" or m in {['numpy', *sorted(POOL)]!r}]))")
    code = "\n".join(lines)
    out = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout))


@pytest.fixture
def evaluation_inputs(tmp_path):
    shutil.copytree(GOLDEN / "evaluation", tmp_path, dirs_exist_ok=True)
    return tmp_path


def test_cli_import_loads_no_numpy_and_no_command_module(tmp_path):
    modules = loaded_modules(tmp_path)
    assert "numpy" not in modules
    assert not modules & {*PRIORITIZE_ONLY, "mrprior.evaluation", *POOL}, modules


@pytest.mark.parametrize("argv", [
    ["evaluate", "--order", "order.json", *KILLS, "--out", "o.json"],
    ["evaluate", "--ranking", "ranking.json", *KILLS, "--out", "o.json"],
    ["baseline", "random", *KILLS, "--runs", "5", "--out", "o.json"],
    ["baseline", "coverage", "--coverage", "coverage.csv", "--out", "o.json"],
    ["compare", "--treatment", "expected/evaluate_ranking.json",
     "--baseline", "expected/baseline_exhaustive.json", "--out", "o.json"],
    ["synth", "--mrs", "3", "--mutants", "5", "--out-kills", "k.csv", "--out-times", "t.csv"],
], ids=["evaluate-order", "evaluate-ranking", "baseline-random", "baseline-coverage", "compare",
        "synth"])
def test_evaluation_side_loads_no_dataset_catalog_or_metric(evaluation_inputs, argv):
    modules = loaded_modules(evaluation_inputs, argv)
    assert not modules & {*PRIORITIZE_ONLY, *POOL}, modules


@pytest.mark.parametrize("metric", sorted(KERNELS))
def test_prioritize_loads_only_its_metric(tmp_path, metric):
    shutil.copytree(GOLDEN / "clustering", tmp_path, dirs_exist_ok=True)
    modules = loaded_modules(tmp_path, [
        "prioritize", "--dataset", "data.csv", "--class-column", "cls",
        "--catalog", "catalog.txt", "--metric", metric, "--out", "r.json"])
    assert modules & KERNEL_MODULES == {f"mrprior.metrics.{KERNELS[metric]}"}
    assert not modules & {"mrprior.evaluation", *POOL}, modules


def test_only_a_followup_dir_run_loads_the_worker_pool(tmp_path):
    shutil.copytree(GOLDEN / "clustering", tmp_path, dirs_exist_ok=True)
    modules = loaded_modules(tmp_path, [
        "prioritize", "--dataset", "data.csv", "--class-column", "cls",
        "--followup-dir", "followups", "--metric", "clustering", "--out", "r.json"])
    assert modules >= POOL


def test_every_public_name_resolves():
    names = [name for name in mrprior.__all__ if name != "__version__"]
    assert all(getattr(mrprior, name) is not None for name in names)
    namespace = {}
    exec("from mrprior import *", namespace)
    assert set(mrprior.__all__) <= set(namespace)
    assert set(mrprior.__all__) <= set(dir(mrprior))
    with pytest.raises(AttributeError):
        mrprior.no_such_name  # noqa: B018


def test_package_names_follow_their_module(monkeypatch):
    # a name resolved through the package is read from its module each time,
    # so a rebinding there (a tracer's or a test's) is seen and then undone
    from mrprior import metrics
    from mrprior.metrics import rules

    original = rules.cn2_induce
    assert mrprior.cn2_induce is original
    with monkeypatch.context() as patch:
        patch.setattr(rules, "cn2_induce", lambda *args: None)
        assert mrprior.cn2_induce is rules.cn2_induce
        assert mrprior.cn2_induce is not original
    assert mrprior.cn2_induce is original
    assert "cn2_induce" not in vars(mrprior)
    # the package's table is the only one: metrics re-exports no kernel
    assert not hasattr(metrics, "cn2_induce")
