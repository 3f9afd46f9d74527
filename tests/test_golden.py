"""Golden outputs: CLI output files compared byte for byte with committed ones.

The inputs live in ``tests/golden/<case>/`` beside an ``expected/``
directory.  The output header echoes the command-line paths, so each run
copies the inputs into a temporary directory and names them relatively.

A change that means to change outputs rewrites the expected files from the
same runs, in order (``compare`` reads reports that earlier runs write)::

    python -m pytest tests/test_golden.py --rewrite-golden

and ``git diff tests/golden`` is then its list of changed outputs.
"""

import os
import shutil
from pathlib import Path

import pytest

from mrprior.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def matches_golden(request):
    """``check(output, expected)``: the output's bytes equal the expected
    file's, which ``--rewrite-golden`` first overwrites with the output."""
    rewrite = request.config.getoption("--rewrite-golden")

    def check(output: Path, expected: Path) -> None:
        if rewrite:
            shutil.copyfile(output, expected)
        assert output.read_bytes() == expected.read_bytes(), expected.name

    return check


# clustering: 36 rows x 10 numeric columns (column 0 takes 5 values, a
# constant column, signed zeros, a row repeated three times) and a class.
# Every metric ranks its catalog; k-means also ranks its follow-up files.
# mixed: an ARFF source of 40 rows with missing cells, a nominal attribute
# and a class labelled 1, 2 and 3; its catalog starts with a byte-order mark
# and applies the transforms the first case does not.  Every metric ranks
# the catalog and the follow-up files, one of which has its columns in
# another order.
CATALOG = ["--catalog", "catalog.txt"]
FILES = ["--followup-dir", "followups"]
DATASETS = {
    "clustering": ["--dataset", "data.csv", "--class-column", "cls"],
    "mixed": ["--dataset", "data.arff", "--class-column", "class"],
}
# case -> run -> (metric, MR source); run names are unique across cases
RUNS = {
    "clustering": {
        "catalog": ("clustering", CATALOG),
        "followups": ("clustering", FILES),
        "rule": ("rule", CATALOG),
        "anomaly": ("anomaly", CATALOG),
        "distribution": ("distribution", CATALOG),
        "top_n": ("anomaly", [*CATALOG, "--top-n", "2"]),
    },
    "mixed": {
        f"{kind}_{metric}": (metric, source)
        for kind, source in (("catalog", CATALOG), ("files", FILES))
        for metric in ("rule", "anomaly", "clustering", "distribution")
    },
}


@pytest.mark.parametrize(
    "case, run", [pytest.param(case, run, id=run) for case in RUNS for run in sorted(RUNS[case])]
)
def test_prioritize_matches_golden_bytes(case, run, tmp_path, monkeypatch, matches_golden):
    prioritize_golden(case, run, tmp_path, monkeypatch, matches_golden)


@pytest.mark.parametrize("case, run", [
    pytest.param(case, run, id=run)
    for case in RUNS for run in sorted(RUNS[case]) if RUNS[case][run][1] is FILES
])
def test_followup_files_parsed_by_one_worker_match_golden_bytes(
        case, run, tmp_path, monkeypatch, matches_golden):
    # the follow-up files are parsed by one worker per CPU; here there is one
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    prioritize_golden(case, run, tmp_path, monkeypatch, matches_golden)


def prioritize_golden(case, run, tmp_path, monkeypatch, matches_golden):
    metric, source = RUNS[case][run]
    inputs = GOLDEN / case
    shutil.copytree(inputs, tmp_path, dirs_exist_ok=True, ignore=shutil.ignore_patterns("expected"))
    monkeypatch.chdir(tmp_path)
    rank, diag = f"rank_{run}.json", f"diag_{run}.json"
    assert main(["prioritize", *DATASETS[case], *source,
                 "--metric", metric, "--out", rank, "--diagnostics", diag]) == 0
    for name in (rank, diag):
        matches_golden(tmp_path / name, inputs / "expected" / name)


# evaluation: kills.csv is 6 MRs x 12 mutants (MR5 kills none), so compare
# enumerates every sign assignment; kills_wide.csv has 30 mutants, so compare
# samples them.  order.json starts with a byte-order mark.  compare reads
# the committed reports of the runs before it from expected/.
KILLS = ["--kills", "kills.csv", "--times", "times.csv"]
WIDE = ["--kills", "kills_wide.csv", "--times", "times_wide.csv"]
EVALUATION = {
    "evaluate_ranking": ["evaluate", "--ranking", "ranking.json", *KILLS],
    "evaluate_order": ["evaluate", "--order", "order.json", *KILLS, "--thresholds", "10", "5"],
    "baseline_random": ["baseline", "random", *KILLS, "--runs", "25", "--seed", "4"],
    "baseline_exhaustive": ["baseline", "random", *KILLS, "--exhaustive"],
    "baseline_coverage": ["baseline", "coverage", "--coverage", "coverage.csv"],
    "compare_exact": ["compare", "--treatment", "expected/evaluate_ranking.json",
                      "--baseline", "expected/baseline_exhaustive.json",
                      "--alternative", "two-sided"],
    "evaluate_wide": ["evaluate", "--order", "order.json", *WIDE],
    "baseline_wide": ["baseline", "random", *WIDE, "--runs", "40", "--seed", "2"],
    "compare_monte_carlo": ["compare", "--treatment", "expected/evaluate_wide.json",
                            "--baseline", "expected/baseline_wide.json",
                            "--iterations", "3000", "--seed", "5"],
}


@pytest.mark.parametrize("run", list(EVALUATION))
def test_evaluation_matches_golden_bytes(run, tmp_path, monkeypatch, matches_golden):
    inputs = GOLDEN / "evaluation"
    shutil.copytree(inputs, tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)
    out = f"{run}.json"
    assert main([*EVALUATION[run], "--out", out]) == 0
    matches_golden(tmp_path / out, inputs / "expected" / out)


def test_synth_matches_golden_bytes(tmp_path, monkeypatch, matches_golden):
    expected = GOLDEN / "evaluation" / "expected"
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--mrs", "5", "--mutants", "9", "--kill-prob", "0.1,0.5,0.3,0.9,0.2",
                 "--times", "0.25:4", "--seed", "11",
                 "--out-kills", "synth_kills.csv", "--out-times", "synth_times.csv"]) == 0
    for name in ("synth_kills.csv", "synth_times.csv"):
        matches_golden(tmp_path / name, expected / name)
