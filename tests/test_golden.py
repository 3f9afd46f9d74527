"""Golden outputs: `prioritize` files compared byte for byte with committed ones.

The inputs live in ``tests/golden/<metric>/`` beside an ``expected/``
directory.  The output header echoes the command-line paths, so each run
copies the inputs into a temporary directory and names them relatively.
"""

import shutil
from pathlib import Path

import pytest

from mrprior.cli import main

GOLDEN = Path(__file__).parent / "golden"

# clustering: 36 rows x 10 numeric columns (column 0 takes 5 values, a
# constant column, signed zeros, a row repeated three times) and a class
RUNS = {
    "catalog": ("clustering", ["--catalog", "catalog.txt"]),
    "followups": ("clustering", ["--followup-dir", "followups"]),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_prioritize_matches_golden_bytes(run, tmp_path, monkeypatch):
    metric, source = RUNS[run]
    inputs = GOLDEN / metric
    shutil.copytree(inputs, tmp_path, dirs_exist_ok=True, ignore=shutil.ignore_patterns("expected"))
    monkeypatch.chdir(tmp_path)
    rank, diag = f"rank_{run}.json", f"diag_{run}.json"
    assert main(["prioritize", "--dataset", "data.csv", "--class-column", "cls", *source,
                 "--metric", metric, "--out", rank, "--diagnostics", diag]) == 0
    for name in (rank, diag):
        assert (tmp_path / name).read_bytes() == (inputs / "expected" / name).read_bytes(), name
