"""The worker processes that parse ``--followup-dir`` files end with the CLI.

``prioritize`` joins its workers on every exit path, and a worker whose
parent dies ends itself.  The children of a process are read from
``/proc``; a zombie has exited and counts as gone.
"""

import contextlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mrprior
from mrprior.cli import main

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")

SRC = str(Path(mrprior.__file__).resolve().parent.parent)


def _stat(pid: int) -> tuple[str, int] | None:
    """(state letter, parent pid) of *pid*, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1])


def running(pid: int) -> bool:
    stat = _stat(pid)
    return stat is not None and stat[0] != "Z"


def children(pid: int) -> list[int]:
    """The running child processes of *pid*."""
    return [int(name) for name in os.listdir("/proc")
            if name.isdigit() and running(int(name)) and _stat(int(name))[1] == pid]


def write_inputs(tmp_path, followups: dict[str, str]) -> list[str]:
    source = tmp_path / "data.csv"
    source.write_text("x,y,cls\n" + "".join(f"{i},{i % 5},c{i % 2}\n" for i in range(12)))
    directory = tmp_path / "followups"
    directory.mkdir()
    for name, text in followups.items():
        (directory / name).write_text(text)
    return ["prioritize", "--dataset", str(source), "--class-column", "cls",
            "--followup-dir", str(directory), "--out", str(tmp_path / "r.json")]


GOOD = "x,y,cls\n" + "".join(f"{i},{i % 3},c{i % 2}\n" for i in range(12))


@pytest.mark.parametrize("files, extra, code", [
    ({f"f{i}.csv": GOOD for i in range(5)}, ["--metric", "distribution"], 0),
    ({"a.csv": GOOD, "b.csv": "x,y,cls\n1,2\n", "c.csv": GOOD}, ["--metric", "distribution"], 2),
    ({"a.csv": GOOD, "b.csv": GOOD}, ["--metric", "anomaly", "--contamination", "2"], 2),
    ({"a.csv": GOOD, "b.csv": "x,cls\nq,c0\nr,c1\n"}, ["--metric", "clustering"], 3),
], ids=["exit-0", "bad-file", "bad-metric-parameter", "not-applicable"])
def test_no_worker_outlives_the_command(tmp_path, capsys, files, extra, code):
    assert children(os.getpid()) == []
    assert main([*write_inputs(tmp_path, files), *extra]) == code, capsys.readouterr().err
    assert children(os.getpid()) == []


def test_workers_end_when_the_cli_is_killed_mid_parse(tmp_path):
    large = "x,y,cls\n" + "".join(f"{i},{i % 7}.5,c{i % 2}\n" for i in range(100_000))
    argv = write_inputs(tmp_path, {f"f{i}.csv": large for i in range(6)})
    proc = subprocess.Popen([sys.executable, "-m", "mrprior.cli", *argv, "--metric", "distribution"],
                            env=dict(os.environ, PYTHONPATH=SRC), stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not (workers := children(proc.pid)):
            assert proc.poll() is None and time.monotonic() < deadline, "no worker started"
            time.sleep(0.01)
    finally:
        proc.kill()
        proc.wait()
    deadline = time.monotonic() + 5
    try:
        while alive := [pid for pid in workers if running(pid)]:
            assert time.monotonic() < deadline, alive
            time.sleep(0.05)
    finally:
        for pid in filter(running, workers):   # a failed check leaves no process behind
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


def test_the_cli_forks_its_workers_while_it_has_one_thread(tmp_path):
    # before numpy is imported, and so before BLAS starts its threads
    argv = write_inputs(tmp_path, {f"f{i}.csv": GOOD for i in range(3)})
    code = f"""
import os, sys, mrprior.cli
fork = os.fork
def checked_fork():
    threads = int(open("/proc/self/stat").read().rsplit(")", 1)[1].split()[17])
    print("numpy" in sys.modules, threads)
    return fork()
os.fork = checked_fork
sys.exit(mrprior.cli.main({[*argv, "--metric", "distribution"]!r}))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=SRC), timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["False 1"] * min(3, len(os.sched_getaffinity(0)))
