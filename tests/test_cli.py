"""End-to-end tests for the command line front end."""

import io
import json
import math
import tempfile
import warnings
from contextlib import redirect_stderr
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrprior.cli import main

SOURCE_CSV = "x\n1\n2\n3\n"
CATALOG = """\
# three relations over column x
MR1 ident identity
MR2 scale affine_numeric columns=x scale=2
MR3 shift affine_numeric columns=x shift=5
"""
KILLS_2X2 = "mr_id,m1,m2\nMR1,1,0\nMR2,0,1\n"
TIMES_2X2 = "mr_id,exec_seconds\nMR1,10\nMR2,20\n"


def write(path, text):
    path.write_text(text)
    return str(path)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def workspace(tmp_path):
    return {
        "dir": tmp_path,
        "dataset": write(tmp_path / "data.csv", SOURCE_CSV),
        "catalog": write(tmp_path / "catalog.txt", CATALOG),
        "kills": write(tmp_path / "kills.csv", KILLS_2X2),
        "times": write(tmp_path / "times.csv", TIMES_2X2),
    }


class TestPrioritize:
    def run(self, workspace, out, extra=()):
        return main(
            [
                "prioritize",
                "--dataset", workspace["dataset"],
                "--catalog", workspace["catalog"],
                "--metric", "distribution",
                "--out", out,
                *extra,
            ]
        )

    def test_scale_mr_ranks_first(self, workspace):
        out = str(workspace["dir"] / "ranking.json")
        assert self.run(workspace, out) == 0
        payload = read_json(out)
        assert payload["header"]["tool"] == "mrprior"
        assert payload["header"]["seed"] == 0
        ordering = [e["mr_id"] for e in payload["ranking"]["entries"]]
        assert ordering == ["MR2", "MR1", "MR3"]
        assert payload["ranking"]["entries"][0]["normalized"] == 1.0

    def test_rerun_is_byte_identical(self, workspace):
        out = workspace["dir"] / "ranking.json"
        assert self.run(workspace, str(out)) == 0
        first = out.read_bytes()
        assert self.run(workspace, str(out)) == 0
        assert out.read_bytes() == first

    def test_diagnostics_file(self, workspace):
        out = str(workspace["dir"] / "r.json")
        diag = str(workspace["dir"] / "diag.json")
        assert self.run(workspace, out, ["--diagnostics", diag]) == 0
        detail = read_json(diag)
        assert len(detail["scores"]) == 3
        for score in detail["scores"]:
            assert "diagnostics" in score
            assert score["metric"] == "distribution"

    def test_top_n(self, workspace):
        out = str(workspace["dir"] / "r.json")
        assert self.run(workspace, out, ["--top-n", "2"]) == 0
        assert read_json(out)["top_n"] == ["MR2", "MR1"]
        assert self.run(workspace, out, ["--top-n", "9"]) == 2

    def test_rule_metric_without_class_exits_3(self, workspace, capsys):
        rc = main(
            [
                "prioritize",
                "--dataset", workspace["dataset"],
                "--catalog", workspace["catalog"],
                "--metric", "rule",
                "--out", str(workspace["dir"] / "r.json"),
            ]
        )
        assert rc == 3
        assert "not applicable" in capsys.readouterr().err

    def test_affine_overflow_names_the_row(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "d.csv", "x\n1e300\n2\n")
        write(tmp_path / "cat.txt", "MR1 big affine_numeric scale=1e10\n")
        rc = main(["prioritize", "--dataset", "d.csv", "--catalog", "cat.txt",
                   "--metric", "distribution", "--out", "r.json"])
        assert rc == 3
        assert capsys.readouterr().err == (
            "not applicable: catalog could not be applied:\n"
            "  MR1: dataset 'd.csv': row 0, column 'x': expected a finite number, got inf\n"
        )

    def test_missing_metric_exits_2(self, workspace, capsys):
        rc = main(
            [
                "prioritize",
                "--dataset", workspace["dataset"],
                "--catalog", workspace["catalog"],
                "--out", str(workspace["dir"] / "r.json"),
            ]
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_catalog_and_followup_dir_conflict(self, workspace, tmp_path):
        followups = tmp_path / "fdir"
        followups.mkdir()
        rc = main(
            [
                "prioritize",
                "--dataset", workspace["dataset"],
                "--catalog", workspace["catalog"],
                "--followup-dir", str(followups),
                "--metric", "distribution",
                "--out", str(workspace["dir"] / "r.json"),
            ]
        )
        assert rc == 2

    def test_followup_dir_mode(self, workspace, tmp_path):
        followups = tmp_path / "followups"
        followups.mkdir()
        write(followups / "a_scale.csv", "x\n2\n4\n6\n")
        write(followups / "b_ident.csv", SOURCE_CSV)
        out = str(workspace["dir"] / "r.json")
        rc = main(
            [
                "prioritize",
                "--dataset", workspace["dataset"],
                "--followup-dir", str(followups),
                "--metric", "distribution",
                "--out", out,
            ]
        )
        assert rc == 0
        ordering = [e["mr_id"] for e in read_json(out)["ranking"]["entries"]]
        assert ordering == ["a_scale", "b_ident"]

    def test_no_header_dataset(self, workspace, tmp_path):
        headerless = write(tmp_path / "raw.csv", "1\n2\n3\n")
        catalog = write(
            tmp_path / "cat.txt",
            "MR1 ident identity\nMR2 scale affine_numeric columns=c0 scale=2\n",
        )
        out = str(workspace["dir"] / "r.json")
        rc = main(
            [
                "prioritize",
                "--dataset", headerless,
                "--no-header",
                "--catalog", catalog,
                "--metric", "distribution",
                "--out", out,
            ]
        )
        assert rc == 0
        ordering = [e["mr_id"] for e in read_json(out)["ranking"]["entries"]]
        assert ordering == ["MR2", "MR1"]

    def test_config_file_with_flag_precedence(self, workspace, tmp_path):
        config_out = tmp_path / "from_config.json"
        flag_out = tmp_path / "from_flag.json"
        config = write(
            tmp_path / "cfg.json",
            json.dumps(
                {
                    "dataset": workspace["dataset"],
                    "catalog": workspace["catalog"],
                    "metric": "distribution",
                    "out": str(config_out),
                }
            ),
        )
        assert main(["prioritize", "--config", config, "--out", str(flag_out)]) == 0
        assert flag_out.exists()
        assert not config_out.exists()

    def test_config_unknown_key_exits_2(self, workspace, tmp_path, capsys):
        config = write(tmp_path / "cfg.json", json.dumps({"metrics": "rule"}))
        rc = main(["prioritize", "--config", config])
        assert rc == 2
        assert "unknown keys" in capsys.readouterr().err


class TestEvaluate:
    def test_worked_example(self, workspace, tmp_path):
        order = write(tmp_path / "order.json", json.dumps({"ordering": ["MR1", "MR2"]}))
        out = str(tmp_path / "report.json")
        rc = main(
            [
                "evaluate",
                "--order", order,
                "--kills", workspace["kills"],
                "--times", workspace["times"],
                "--out", out,
            ]
        )
        assert rc == 0
        report = read_json(out)["report"]
        assert report["curve"] == [50.0, 100.0]
        assert report["apfd"] == 0.5
        assert report["avg_time_to_fault"] == 20.0
        assert report["effective_sizes"] == [
            {"threshold": 5.0, "size": 2},
            {"threshold": 2.5, "size": 2},
        ]

    def test_ranking_file_input(self, workspace, tmp_path):
        # entries arrive out of order; rank field decides
        ranking = write(
            tmp_path / "ranking.json",
            json.dumps(
                {
                    "ranking": {
                        "entries": [
                            {"mr_id": "MR1", "rank": 2},
                            {"mr_id": "MR2", "rank": 1},
                        ]
                    }
                }
            ),
        )
        out = str(tmp_path / "report.json")
        rc = main(
            [
                "evaluate",
                "--ranking", ranking,
                "--kills", workspace["kills"],
                "--times", workspace["times"],
                "--out", out,
            ]
        )
        assert rc == 0
        assert read_json(out)["report"]["ordering"] == ["MR2", "MR1"]

    def test_mr_mismatch_exits_2(self, workspace, tmp_path):
        order = write(tmp_path / "order.json", json.dumps({"ordering": ["MR1", "MRx"]}))
        rc = main(
            [
                "evaluate",
                "--order", order,
                "--kills", workspace["kills"],
                "--times", workspace["times"],
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert rc == 2

    @pytest.mark.parametrize("flag", ["--order", "--ranking"])
    @pytest.mark.parametrize("text", ["[1]", "5", "null"])
    def test_non_object_ordering_file_exits_2(self, workspace, tmp_path, capsys, flag, text):
        order = write(tmp_path / "order.json", text)
        rc = main(["evaluate", flag, order, "--kills", workspace["kills"],
                   "--times", workspace["times"], "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert "malformed" in capsys.readouterr().err

    def test_needs_exactly_one_ordering_source(self, workspace, tmp_path):
        order = write(tmp_path / "order.json", json.dumps({"ordering": ["MR1", "MR2"]}))
        base = [
            "evaluate",
            "--kills", workspace["kills"],
            "--times", workspace["times"],
            "--out", str(tmp_path / "r.json"),
        ]
        assert main(base) == 2
        assert main(base + ["--order", order, "--ranking", order]) == 2


class TestBaseline:
    def test_random_is_deterministic(self, workspace, tmp_path):
        out = tmp_path / "baseline.json"
        argv = [
            "baseline", "random",
            "--kills", workspace["kills"],
            "--times", workspace["times"],
            "--runs", "10",
            "--seed", "42",
            "--out", str(out),
        ]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first
        report = read_json(out)["report"]
        assert report["kind"] == "averaged"
        assert report["runs"] == 10

    def test_single_run_matches_evaluate(self, workspace, tmp_path):
        out = tmp_path / "baseline.json"
        rc = main(
            [
                "baseline", "random",
                "--kills", workspace["kills"],
                "--times", workspace["times"],
                "--runs", "1",
                "--seed", "31",
                "--out", str(out),
            ]
        )
        assert rc == 0
        drawn = [["MR1", "MR2"][i] for i in np.random.default_rng(31).permutation(2)]
        order = write(tmp_path / "order.json", json.dumps({"ordering": drawn}))
        report_out = tmp_path / "single.json"
        assert main(
            [
                "evaluate",
                "--order", order,
                "--kills", workspace["kills"],
                "--times", workspace["times"],
                "--out", str(report_out),
            ]
        ) == 0
        averaged = read_json(out)["report"]
        single = read_json(report_out)["report"]
        assert averaged["curve"] == single["curve"]
        assert averaged["apfd"] == single["apfd"]
        assert averaged["avg_time_to_fault"] == single["avg_time_to_fault"]

    def test_coverage_worked_fixture(self, tmp_path):
        coverage = write(
            tmp_path / "cov.csv",
            "mr_id,e1,e2,e3,e4\nA,1,1,1,0\nB,0,0,1,1\nC,0,0,0,1\n",
        )
        out = tmp_path / "ordering.json"
        rc = main(["baseline", "coverage", "--coverage", coverage, "--out", str(out)])
        assert rc == 0
        assert read_json(out)["ordering"] == ["A", "B", "C"]

    def test_missing_inputs_exit_2(self, workspace, tmp_path):
        assert main(["baseline", "random", "--out", str(tmp_path / "x.json")]) == 2
        assert main(["baseline", "coverage", "--out", str(tmp_path / "x.json")]) == 2


class TestCompare:
    def evaluate_to(self, workspace, tmp_path, ordering, name):
        order = write(tmp_path / f"{name}_order.json", json.dumps({"ordering": ordering}))
        out = tmp_path / f"{name}.json"
        assert main(
            [
                "evaluate",
                "--order", order,
                "--kills", workspace["kills"],
                "--times", workspace["times"],
                "--out", str(out),
            ]
        ) == 0
        return str(out)

    def test_identical_reports_show_no_significance(self, workspace, tmp_path):
        report = self.evaluate_to(workspace, tmp_path, ["MR1", "MR2"], "same")
        out = tmp_path / "cmp.json"
        rc = main(
            ["compare", "--treatment", report, "--baseline", report, "--out", str(out)]
        )
        assert rc == 0
        payload = read_json(out)
        for row in payload["sizes"]:
            assert row["improvement_pct"] == 0.0
            assert row["p_value"] == 1.0
            assert row["significant"] is False
        assert payload["apfd"]["treatment"] == payload["apfd"]["baseline"]

    def test_dominating_treatment(self, tmp_path):
        mutants = [f"m{j}" for j in range(1, 11)]
        kills = "mr_id," + ",".join(mutants) + "\n"
        kills += "MR1," + ",".join("1" for _ in mutants) + "\n"
        kills += "MR2," + ",".join("1" if j < 5 else "0" for j in range(10)) + "\n"
        ws = {
            "kills": write(tmp_path / "kills.csv", kills),
            "times": write(tmp_path / "times.csv", "mr_id,exec_seconds\nMR1,1\nMR2,1\n"),
        }
        treatment = self.evaluate_to(ws, tmp_path, ["MR1", "MR2"], "treat")
        baseline = self.evaluate_to(ws, tmp_path, ["MR2", "MR1"], "base")
        out = tmp_path / "cmp.json"
        rc = main(
            [
                "compare",
                "--treatment", treatment,
                "--baseline", baseline,
                "--out", str(out),
            ]
        )
        assert rc == 0
        payload = read_json(out)
        first, second = payload["sizes"]
        assert first["improvement_pct"] == 100.0
        # 5 positive and 5 zero differences: 2^5 of 2^10 flips tie or beat
        assert first["p_value"] == 32.0 / 1024.0
        assert first["significant"] is True
        assert second["improvement_pct"] == 0.0
        assert second["significant"] is False
        assert payload["apfd"] == {"treatment": 0.75, "baseline": 0.5}

    def test_size_mismatch_exits_2(self, workspace, tmp_path):
        two = self.evaluate_to(workspace, tmp_path, ["MR1", "MR2"], "two")
        kills3 = write(
            tmp_path / "k3.csv", "mr_id,m1,m2\nMR1,1,0\nMR2,0,1\nMR3,0,1\n"
        )
        times3 = write(
            tmp_path / "t3.csv",
            "mr_id,exec_seconds\nMR1,1\nMR2,1\nMR3,1\n",
        )
        ws3 = {"kills": kills3, "times": times3}
        three = self.evaluate_to(ws3, tmp_path, ["MR1", "MR2", "MR3"], "three")
        rc = main(
            [
                "compare",
                "--treatment", two,
                "--baseline", three,
                "--out", str(tmp_path / "cmp.json"),
            ]
        )
        assert rc == 2

    def synth_reports(self, tmp_path, n_mrs, n_mutants=30):
        """Evaluate the catalog order and its reverse on a synthetic kill matrix."""
        kills, times = str(tmp_path / "k.csv"), str(tmp_path / "t.csv")
        assert main(["synth", "--mrs", str(n_mrs), "--mutants", str(n_mutants),
                     "--kill-prob", "0.3", "--out-kills", kills, "--out-times", times]) == 0
        ids = [f"MR{i + 1:0{len(str(n_mrs))}d}" for i in range(n_mrs)]
        ws = {"kills": kills, "times": times}
        return (self.evaluate_to(ws, tmp_path, ids, "treat"),
                self.evaluate_to(ws, tmp_path, ids[::-1], "base"))

    @pytest.mark.parametrize("text", ["[1]", "5", "null", "{}"])
    def test_non_report_file_exits_2(self, workspace, tmp_path, capsys, text):
        report = self.evaluate_to(workspace, tmp_path, ["MR1", "MR2"], "ok")
        other = write(tmp_path / "other.json", text)
        rc = main(["compare", "--treatment", report, "--baseline", other,
                   "--out", str(tmp_path / "cmp.json")])
        assert rc == 2
        assert "not an evaluation report file" in capsys.readouterr().err

    @pytest.mark.parametrize("cut", ["rows", "columns"])
    def test_short_detection_exits_2(self, tmp_path, capsys, cut):
        treatment, baseline = self.synth_reports(tmp_path, 5)
        payload = read_json(treatment)
        detection = payload["report"]["detection"]
        if cut == "rows":
            payload["report"]["detection"] = detection[:3]
        else:
            payload["report"]["detection"] = [row[:-1] for row in detection]
        with open(treatment, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        rc = main(["compare", "--treatment", treatment, "--baseline", baseline,
                   "--out", str(tmp_path / "cmp.json")])
        assert rc == 2
        assert "detection has shape" in capsys.readouterr().err

    def test_non_finite_report_exits_2(self, tmp_path, capsys):
        treatment, baseline = self.synth_reports(tmp_path, 5)
        payload = read_json(treatment)
        payload["report"]["curve"][0] = float("nan")
        payload["report"]["detection"][0][0] = float("nan")
        with open(treatment, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        out = tmp_path / "cmp.json"
        rc = main(["compare", "--treatment", treatment, "--baseline", baseline,
                   "--out", str(out)])
        assert rc == 2
        assert "error: malformed evaluation report: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_mrs", [3, 9])
    def test_one_generator_per_compare(self, tmp_path, monkeypatch, n_mrs):
        treatment, baseline = self.synth_reports(tmp_path, n_mrs)
        made = []
        real = np.random.default_rng

        def counting(*args, **kwargs):
            made.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        out = tmp_path / "cmp.json"
        rc = main(["compare", "--treatment", treatment, "--baseline", baseline,
                   "--iterations", "200", "--out", str(out)])
        assert rc == 0
        assert len(read_json(out)["sizes"]) == n_mrs
        assert len(made) == 1


class TestSynth:
    def test_deterministic_files_with_seed_comment(self, tmp_path):
        argv = [
            "synth",
            "--mrs", "5",
            "--mutants", "8",
            "--kill-prob", "0.4",
            "--times", "0.5:2.0",
            "--seed", "3",
        ]
        k1, t1 = tmp_path / "k1.csv", tmp_path / "t1.csv"
        k2, t2 = tmp_path / "k2.csv", tmp_path / "t2.csv"
        assert main(argv + ["--out-kills", str(k1), "--out-times", str(t1)]) == 0
        assert main(argv + ["--out-kills", str(k2), "--out-times", str(t2)]) == 0
        assert k1.read_bytes() == k2.read_bytes()
        assert t1.read_bytes() == t2.read_bytes()
        assert k1.read_text().splitlines()[0] == "# mrprior synth seed=3"
        assert t1.read_text().splitlines()[0] == "# mrprior synth seed=3"

    def test_synth_output_feeds_evaluate(self, tmp_path):
        kills = tmp_path / "k.csv"
        times = tmp_path / "t.csv"
        assert main(
            [
                "synth",
                "--mrs", "4",
                "--mutants", "6",
                "--kill-prob", "1.0",
                "--out-kills", str(kills),
                "--out-times", str(times),
            ]
        ) == 0
        order = write(
            tmp_path / "order.json",
            json.dumps({"ordering": ["MR1", "MR2", "MR3", "MR4"]}),
        )
        out = tmp_path / "report.json"
        assert main(
            [
                "evaluate",
                "--order", order,
                "--kills", str(kills),
                "--times", str(times),
                "--out", str(out),
            ]
        ) == 0
        assert read_json(out)["report"]["curve"] == [100.0, 100.0, 100.0, 100.0]

    def test_per_mr_specs_and_errors(self, tmp_path):
        rc = main(
            [
                "synth",
                "--mrs", "3",
                "--mutants", "4",
                "--kill-prob", "0.1,0.5,0.9",
                "--times", "1,2,3",
                "--out-kills", str(tmp_path / "k.csv"),
                "--out-times", str(tmp_path / "t.csv"),
            ]
        )
        assert rc == 0
        assert main(
            [
                "synth",
                "--mrs", "3",
                "--mutants", "4",
                "--kill-prob", "0.2,0.3",
                "--out-kills", str(tmp_path / "k.csv"),
                "--out-times", str(tmp_path / "t.csv"),
            ]
        ) == 2
        assert main(
            [
                "synth",
                "--mrs", "3",
                "--mutants", "4",
                "--times", "fast",
                "--out-kills", str(tmp_path / "k.csv"),
                "--out-times", str(tmp_path / "t.csv"),
            ]
        ) == 2
        assert main(["synth", "--mutants", "4"]) == 2


LABELLED_CSV = "x,y,c\n" + "".join(
    f"{x},{y},{c}\n"
    for x, y, c in [(1, 4, "a"), (2, 1, "a"), (3, 5, "b"), (4, 1, "b"), (5, 9, "a"),
                    (6, 2, "b"), (7, 6, "a"), (8, 5, "b"), (30, 3, "a"), (9, 5, "b")]
)


@pytest.fixture
def config_workspace(workspace):
    ws = dict(workspace)
    ws["labelled"] = write(ws["dir"] / "labelled.csv", LABELLED_CSV)
    ws["order"] = write(ws["dir"] / "order.json", json.dumps({"ordering": ["MR2", "MR1"]}))
    ws["coverage"] = write(ws["dir"] / "cov.csv", "mr_id,e1,e2\nMR1,1,0\nMR2,1,1\n")
    for name, order in (("treat", ["MR1", "MR2"]), ("base", ["MR2", "MR1"])):
        order_file = write(ws["dir"] / f"{name}_order.json", json.dumps({"ordering": order}))
        ws[name] = str(ws["dir"] / f"{name}.json")
        assert main(["evaluate", "--order", order_file, "--kills", ws["kills"],
                     "--times", ws["times"], "--out", ws[name]]) == 0
    return ws


def run_with_config(ws, argv, config):
    path = write(ws["dir"] / "cfg.json", json.dumps(config))
    return main([*argv, "--config", path])


class TestConfig:
    @pytest.mark.parametrize(
        "argv, config, names",
        [
            (["baseline", "random"], {"runs": "abc"}, "--runs"),
            (["evaluate"], {"seed": [1]}, "seed"),
            (["baseline", "random"], {"exhaustive": "no"}, "exhaustive"),
            (["prioritize"], {"standardize": "false"}, "standardize"),
            (["synth"], {"mrs": 3.7}, "--mrs"),
            (["prioritize"], {"metric": "rules"}, "--metric"),
            (["baseline", "random"], {"mode": "coverage"}, "mode"),
        ],
        ids=["runs", "seed", "exhaustive", "standardize", "mrs", "metric", "mode"],
    )
    def test_mistyped_value_exits_2(self, config_workspace, monkeypatch, capsys,
                                    argv, config, names):
        ws = config_workspace
        inputs = {
            "prioritize": ["--dataset", ws["labelled"], "--class-column", "c",
                           "--catalog", ws["catalog"], "--metric", "anomaly"],
            "evaluate": ["--order", ws["order"], "--kills", ws["kills"], "--times", ws["times"]],
            "baseline": ["--kills", ws["kills"], "--times", ws["times"]],
            "synth": ["--mutants", "4"],
        }[argv[0]]
        out = ["--out-kills", "k.csv"] if argv[0] == "synth" else ["--out", "o.json"]
        monkeypatch.chdir(ws["dir"])
        rc = run_with_config(ws, [*argv, *inputs, *out], config)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: config ") and names in err
        assert "Traceback" not in err

    def test_scalar_thresholds_is_one_threshold(self, config_workspace):
        ws = config_workspace
        out = ws["dir"] / "r.json"
        rc = run_with_config(ws, ["evaluate", "--order", ws["order"], "--kills", ws["kills"],
                                  "--times", ws["times"], "--out", str(out)],
                             {"thresholds": 5})
        assert rc == 0
        payload = read_json(out)
        assert payload["header"]["options"]["thresholds"] == [5.0]
        assert payload["report"]["effective_sizes"] == [{"threshold": 5.0, "size": 2}]

    @pytest.mark.parametrize("command", ["prioritize", "evaluate", "baseline", "compare", "synth"])
    def test_config_matches_flags(self, config_workspace, command):
        ws = config_workspace
        d = ws["dir"]
        # the same values, once as a config holding every option and once as flags
        config, flags = {
            "prioritize": (
                {"dataset": ws["labelled"], "format": "csv", "no_header": False,
                 "class_column": "c", "catalog": ws["catalog"], "metric": "anomaly",
                 "out": str(d / "o.json"), "diagnostics": str(d / "diag.json"), "top_n": 2,
                 "seed": 3, "bins": 3, "beam_width": 4, "min_covered": 1,
                 "max_conditions": 2, "knn_k": 2, "contamination": 0.25, "kmeans_k": 2,
                 "kmeans_max_iters": 7, "standardize": False},
                ["prioritize", "--dataset", ws["labelled"], "--format", "csv",
                 "--class-column", "c", "--catalog", ws["catalog"], "--metric", "anomaly",
                 "--out", str(d / "o.json"), "--diagnostics", str(d / "diag.json"),
                 "--top-n", "2", "--seed", "3", "--bins", "3", "--beam-width", "4",
                 "--min-covered", "1", "--max-conditions", "2", "--knn-k", "2",
                 "--contamination", "0.25", "--kmeans-k", "2", "--kmeans-max-iters", "7",
                 "--no-standardize"],
            ),
            "evaluate": (
                {"order": ws["order"], "kills": ws["kills"], "times": ws["times"],
                 "thresholds": [4, 2], "out": str(d / "o.json"), "seed": 5},
                ["evaluate", "--order", ws["order"], "--kills", ws["kills"],
                 "--times", ws["times"], "--thresholds", "4", "2",
                 "--out", str(d / "o.json"), "--seed", "5"],
            ),
            "baseline": (
                {"kills": ws["kills"], "times": ws["times"], "coverage": ws["coverage"],
                 "runs": 3, "exhaustive": True, "thresholds": [4, 2],
                 "out": str(d / "o.json"), "seed": 6},
                ["baseline", "random", "--kills", ws["kills"], "--times", ws["times"],
                 "--coverage", ws["coverage"], "--runs", "3", "--exhaustive",
                 "--thresholds", "4", "2", "--out", str(d / "o.json"), "--seed", "6"],
            ),
            "compare": (
                {"treatment": ws["treat"], "baseline": ws["base"],
                 "alternative": "two-sided", "iterations": 50, "alpha": 0.1,
                 "out": str(d / "o.json"), "seed": 4},
                ["compare", "--treatment", ws["treat"], "--baseline", ws["base"],
                 "--alternative", "two-sided", "--iterations", "50", "--alpha", "0.1",
                 "--out", str(d / "o.json"), "--seed", "4"],
            ),
            "synth": (
                {"mrs": 3, "mutants": 4, "kill_prob": 0.5, "times": "0.5:2.0",
                 "out_kills": str(d / "o.json"), "out_times": str(d / "diag.json"),
                 "seed": 9},
                ["synth", "--mrs", "3", "--mutants", "4", "--kill-prob", "0.5",
                 "--times", "0.5:2.0", "--out-kills", str(d / "o.json"),
                 "--out-times", str(d / "diag.json"), "--seed", "9"],
            ),
        }[command]
        # the config run keeps only the subcommand, and baseline's mode, on the command line
        command_line = flags[:2] if command == "baseline" else flags[:1]
        outputs = []
        for argv, cfg in ((flags, None), (command_line, config)):
            for name in ("o.json", "diag.json"):
                (d / name).unlink(missing_ok=True)
            assert (run_with_config(ws, argv, cfg) if cfg else main(argv)) == 0
            outputs.append([(d / name).read_bytes() for name in ("o.json", "diag.json")
                            if (d / name).exists()])
        assert outputs[0] and outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--mrs", "3", "--mutants", "4", "--kill-prob", "nan"],
        ["synth", "--mrs", "3", "--mutants", "4", "--times", "0:inf"],
        ["synth", "--mrs", "3", "--mutants", "4", "--times", "nan:1"],
        ["evaluate", "--thresholds", "nan"],
        ["evaluate", "--thresholds", "5", "inf"],
        ["baseline", "random", "--thresholds", "nan"],
        ["compare", "--alpha", "nan"],
        ["compare", "--alpha", "0"],
        ["compare", "--alpha", "1.5"],
    ],
    ids=["kill-prob-nan", "times-inf", "times-nan", "thresholds-nan", "thresholds-inf",
         "baseline-thresholds-nan", "alpha-nan", "alpha-0", "alpha-1.5"],
)
def test_out_of_range_number_exits_2_and_writes_nothing(config_workspace, monkeypatch,
                                                        capsys, argv):
    ws = config_workspace
    inputs = {
        "synth": [],
        "evaluate": ["--order", ws["order"], "--kills", ws["kills"], "--times", ws["times"]],
        "baseline": ["--kills", ws["kills"], "--times", ws["times"]],
        "compare": ["--treatment", ws["treat"], "--baseline", ws["base"]],
    }[argv[0]]
    monkeypatch.chdir(ws["dir"])
    before = sorted(ws["dir"].iterdir())
    assert main([*argv, *inputs]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert sorted(ws["dir"].iterdir()) == before


@pytest.mark.parametrize(
    "metric, flag, value, message",
    [
        ("anomaly", "--contamination", "0", "contamination must be in (0, 1), got 0.0"),
        ("anomaly", "--knn-k", "0", "k must be >= 1, got 0"),
        ("clustering", "--kmeans-k", "0", "k must be >= 1, got 0"),
        ("clustering", "--kmeans-max-iters", "0", "max_iters must be >= 1, got 0"),
        ("rule", "--bins", "1", "bins must be >= 2, got 1"),
        ("rule", "--beam-width", "0", "CN2 parameters must all be >= 1"),
    ],
    ids=["contamination", "knn-k", "kmeans-k", "kmeans-max-iters", "bins", "beam-width"],
)
def test_bad_metric_parameter_exits_2_once(config_workspace, monkeypatch, capsys,
                                           metric, flag, value, message):
    # a bad parameter is one input error, not one "not applicable" line per MR
    ws = config_workspace
    monkeypatch.chdir(ws["dir"])
    rc = main(["prioritize", "--dataset", ws["labelled"], "--class-column", "c",
               "--catalog", ws["catalog"], "--metric", metric, flag, value, "--out", "r.json"])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (ws["dir"] / "r.json").exists()


@pytest.mark.parametrize("metric", ["rule", "anomaly", "clustering", "distribution"])
@pytest.mark.parametrize("value, config_text, shown", [
    ("nan", "NaN", "nan"), ("inf", "Infinity", "inf"), ("1e400", "1e400", "inf"),
])
def test_a_contamination_that_is_no_finite_number_exits_2(config_workspace, monkeypatch, capsys,
                                                          metric, value, config_text, shown):
    # every metric copies --contamination into its output header, which holds no NaN
    ws = config_workspace
    monkeypatch.chdir(ws["dir"])
    argv = ["prioritize", "--dataset", ws["labelled"], "--class-column", "c",
            "--catalog", ws["catalog"], "--metric", metric, "--out", "r.json"]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--contamination", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"argument --contamination: must be a finite number, got {value!r}\n")
    assert err.count("error:") == 1 and "Traceback" not in err
    config = write(ws["dir"] / "cfg.json", '{"contamination": %s}' % config_text)
    assert main([*argv, "--config", config]) == 2
    assert capsys.readouterr().err == (f"error: config {config}: argument --contamination: "
                                       f"must be a finite number, got {shown!r}\n")
    assert not (ws["dir"] / "r.json").exists()


@pytest.mark.parametrize("diagnostics", [False, True], ids=["plain", "diagnostics"])
def test_an_mr_that_cannot_be_applied_wins_over_a_bad_knn_k(config_workspace, monkeypatch,
                                                            capsys, diagnostics):
    # --knn-k is checked whether or not the kNN runs, once every pair is drawn
    ws = config_workspace
    monkeypatch.chdir(ws["dir"])
    write(ws["dir"] / "drop.txt", "MR1 ident identity\nMR2 drop remove_class label=zz\n")
    rc = main(["prioritize", "--dataset", ws["labelled"], "--class-column", "c",
               "--catalog", "drop.txt", "--metric", "anomaly", "--knn-k", "0", "--out", "r.json",
               *(["--diagnostics", "d.json"] if diagnostics else [])])
    assert rc == 3
    assert capsys.readouterr().err == ("not applicable: catalog could not be applied:\n"
                                       "  MR2: MR MR2: class value 'zz' does not exist\n")
    assert not (ws["dir"] / "r.json").exists() and not (ws["dir"] / "d.json").exists()


@pytest.fixture
def seed_workspace(config_workspace):
    """config_workspace plus two reports over 24 mutants: enough for a sampled null."""
    ws = dict(config_workspace)
    d = ws["dir"]
    assert main(["synth", "--mrs", "2", "--mutants", "24", "--kill-prob", "0.5", "--seed", "1",
                 "--out-kills", str(d / "k24.csv"), "--out-times", str(d / "t24.csv")]) == 0
    for name in ("treat", "base"):
        ws[name] = str(d / f"{name}24.json")
        assert main(["evaluate", "--order", str(d / f"{name}_order.json"),
                     "--kills", str(d / "k24.csv"),
                     "--times", str(d / "t24.csv"), "--out", ws[name]]) == 0
    return ws


NEGATIVE_SEEDS = {
    "prioritize": lambda ws: ["prioritize", "--dataset", ws["labelled"], "--class-column", "c",
                              "--catalog", ws["catalog"], "--metric", "clustering"],
    "evaluate": lambda ws: ["evaluate", "--order", ws["order"], "--kills", ws["kills"],
                            "--times", ws["times"]],
    "baseline": lambda ws: ["baseline", "random", "--kills", ws["kills"], "--times", ws["times"]],
    "compare": lambda ws: ["compare", "--treatment", ws["treat"], "--baseline", ws["base"]],
    "synth": lambda ws: ["synth", "--mrs", "3", "--mutants", "4"],
}


@pytest.mark.parametrize("command", sorted(NEGATIVE_SEEDS))
def test_negative_seed_flag_exits_2(seed_workspace, monkeypatch, capsys, command):
    ws = seed_workspace
    monkeypatch.chdir(ws["dir"])
    before = sorted(ws["dir"].iterdir())
    with pytest.raises(SystemExit) as exc:
        main([*NEGATIVE_SEEDS[command](ws), "--seed", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("argument --seed: seed must be >= 0, got -1\n")
    assert "Traceback" not in err
    assert sorted(ws["dir"].iterdir()) == before


@pytest.mark.parametrize("command", sorted(NEGATIVE_SEEDS))
def test_negative_seed_in_config_exits_2(seed_workspace, monkeypatch, capsys, command):
    ws = seed_workspace
    monkeypatch.chdir(ws["dir"])
    assert run_with_config(ws, NEGATIVE_SEEDS[command](ws), {"seed": -3}) == 2
    err = capsys.readouterr().err
    assert err == f"error: config {ws['dir'] / 'cfg.json'}: argument --seed: " \
                  "seed must be >= 0, got -3\n"


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("iterations", [-5, 0])
@pytest.mark.parametrize("mutants", [2, 24])
def test_bad_iterations_exits_2_whatever_the_mutant_count(seed_workspace, monkeypatch, capsys,
                                                          mutants, iterations, via):
    # 2 mutants give an exact test, which never reads --iterations; 24 give a sampled one
    ws = seed_workspace
    d = ws["dir"]
    monkeypatch.chdir(d)
    reports = (ws["treat"], ws["base"]) if mutants == 24 else (d / "treat.json", d / "base.json")
    argv = ["compare", "--treatment", str(reports[0]), "--baseline", str(reports[1]),
            "--out", "o.json"]
    if via == "flag":
        rc = main([*argv, "--iterations", str(iterations)])
    else:
        rc = run_with_config(ws, argv, {"iterations": iterations})
    assert rc == 2
    assert capsys.readouterr().err == f"error: iterations must be >= 1, got {iterations}\n"
    assert not (d / "o.json").exists()


def test_unallocatable_iterations_exits_2_naming_the_size(seed_workspace, monkeypatch, capsys):
    # 192 PB, beyond any address space: the allocation fails before a page is touched
    ws = seed_workspace
    monkeypatch.chdir(ws["dir"])
    iterations = 10**15
    rc = main(["compare", "--treatment", ws["treat"], "--baseline", ws["base"],
               "--iterations", str(iterations), "--out", "o.json"])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {iterations} iterations x 24 mutants need a sign matrix of "
        f"{iterations * 24 * 8} bytes, more than can be allocated\n"
    )
    assert not (ws["dir"] / "o.json").exists()


def test_non_integer_seed_message_is_unchanged(workspace, capsys):
    with pytest.raises(SystemExit):
        main(["synth", "--mrs", "3", "--mutants", "4", "--seed", "1.5"])
    assert capsys.readouterr().err.endswith("argument --seed: invalid int value: '1.5'\n")


def test_negative_catalog_seed_cites_its_line(config_workspace, monkeypatch, capsys):
    ws = config_workspace
    monkeypatch.chdir(ws["dir"])
    write(ws["dir"] / "neg.txt", "MR1 x permute_instances seed=-1\n")
    rc = main(["prioritize", "--dataset", ws["labelled"], "--class-column", "c",
               "--catalog", "neg.txt", "--metric", "distribution", "--out", "r.json"])
    assert rc == 2
    assert capsys.readouterr().err == "error: neg.txt: line 1: seed must be >= 0, got -1\n"


def test_numeric_class_labels_rank_by_rule(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "d.csv", "x,cls\n" + "".join(f"{i},{i % 2}\n" for i in range(12)))
    write(tmp_path / "cat.txt", "MR1 ident identity\nMR2 drop remove_class label=0\n"
                                "MR3 grow add_data_points count=3 seed=1\n")
    assert main(["prioritize", "--dataset", "d.csv", "--class-column", "cls",
                 "--catalog", "cat.txt", "--metric", "rule", "--out", "r.json"]) == 0
    entries = read_json("r.json")["ranking"]["entries"]
    assert sorted(e["mr_id"] for e in entries) == ["MR1", "MR2", "MR3"]


def prioritize_argv(ws):
    return ["prioritize", "--dataset", ws["labelled"], "--class-column", "c",
            "--catalog", ws["catalog"], "--metric", "distribution"]


def evaluate_argv(ws):
    return ["evaluate", "--order", ws["order"], "--kills", ws["kills"], "--times", ws["times"]]


# every input file kind: (a command that reads it, the file), given a config_workspace
INPUT_KINDS = {
    "dataset-csv": lambda ws: (prioritize_argv(ws), ws["labelled"]),
    "dataset-arff": lambda ws: ([*prioritize_argv(ws), "--dataset", ws["arff"]], ws["arff"]),
    "catalog": lambda ws: (prioritize_argv(ws), ws["catalog"]),
    "kills": lambda ws: (evaluate_argv(ws), ws["kills"]),
    "times": lambda ws: (evaluate_argv(ws), ws["times"]),
    "coverage": lambda ws: (["baseline", "coverage", "--coverage", ws["coverage"]],
                            ws["coverage"]),
    "ordering": lambda ws: (evaluate_argv(ws), ws["order"]),
    "ranking": lambda ws: (["evaluate", "--ranking", ws["ranking"], "--kills", ws["kills"],
                            "--times", ws["times"]], ws["ranking"]),
    "report": lambda ws: (["compare", "--treatment", ws["treat"], "--baseline", ws["base"]],
                          ws["treat"]),
    "config": lambda ws: ([*evaluate_argv(ws), "--config", ws["config"]], ws["config"]),
}
CSV_KINDS = ("dataset-csv", "kills", "times", "coverage")


@pytest.fixture
def input_workspace(config_workspace):
    """config_workspace plus the files that only INPUT_KINDS reads."""
    ws = config_workspace
    d = ws["dir"]
    ws["arff"] = write(d / "labelled.arff", "@relation r\n@attribute x numeric\n"
                                            "@attribute c {a,b}\n@data\n1,a\n2,b\n")
    ws["ranking"] = write(d / "ranking.json", json.dumps(
        {"ranking": {"entries": [{"mr_id": "MR1", "rank": 1}, {"mr_id": "MR2", "rank": 2}]}}))
    ws["config"] = write(d / "config.json", json.dumps({"seed": 1}))
    return ws


@pytest.mark.parametrize(
    "kind, damage",
    [(kind, "non-utf8") for kind in INPUT_KINDS] + [(kind, "long-field") for kind in CSV_KINDS],
)
def test_unreadable_input_exits_2_naming_the_file(input_workspace, monkeypatch, capsys,
                                                  kind, damage):
    argv, path = INPUT_KINDS[kind](input_workspace)
    monkeypatch.chdir(input_workspace["dir"])
    assert main([*argv, "--out", "o.json"]) == 0
    data = Path(path).read_bytes()
    if damage == "non-utf8":
        Path(path).write_bytes(data[:1] + b"\xff" + data[1:])
    else:   # a field beyond the csv module's 131,072-character limit
        Path(path).write_bytes(data.replace(b"\n", b"\n" + b"1" * 200_000 + b",", 1))
    assert main([*argv, "--out", "o.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert path in err


@pytest.mark.parametrize("kind", INPUT_KINDS)
def test_leading_bom_is_skipped(input_workspace, monkeypatch, kind):
    # Excel's "CSV UTF-8" export and Notepad start a file with a UTF-8 byte-order mark
    argv, path = INPUT_KINDS[kind](input_workspace)
    monkeypatch.chdir(input_workspace["dir"])
    # the same --out both times: the output's header echoes it
    assert main([*argv, "--out", "o.json"]) == 0
    plain = Path("o.json").read_bytes()
    Path(path).write_bytes(b"\xef\xbb\xbf" + Path(path).read_bytes())
    assert main([*argv, "--out", "o.json"]) == 0
    assert Path("o.json").read_bytes() == plain


def test_overflowing_time_total_exits_2(tmp_path, capsys):
    times = write(tmp_path / "t.csv", "mr_id,exec_seconds\nMR1,1e308\nMR2,1e308\n")
    order = write(tmp_path / "o.json", json.dumps({"ordering": ["MR1", "MR2"]}))
    for kills in ("mr_id,m1\nMR1,0\nMR2,1\n", "mr_id,m1\nMR1,1\nMR2,0\n"):
        kills = write(tmp_path / "k.csv", kills)
        for argv in (["evaluate", "--order", order], ["baseline", "random"]):
            out = str(tmp_path / "r.json")
            assert main([*argv, "--kills", kills, "--times", times, "--out", out]) == 2
            assert capsys.readouterr().err == (
                "error: execution times must have a finite sum\n")


@pytest.mark.parametrize("kills, times, argv, detail", [
    # one ordering: the mean over two killable mutants would overflow
    ("mr_id,m1,m2\nMR1,1,1\nMR2,0,0\n", "MR1,1e308\nMR2,0\n", ["evaluate", "--order"],
     "1e+308 s, too large to average over 2 killable mutants"),
    # 100 random runs: the mean over the runs would overflow
    ("mr_id,m1\nMR1,1\nMR2,0\n", "MR1,1e307\nMR2,0\n", ["baseline", "random", "--runs", "100"],
     "1e+307 s, too large to average over 100 runs"),
])
def test_times_too_large_to_average_exit_2(tmp_path, capsys, kills, times, argv, detail):
    kills = write(tmp_path / "k.csv", kills)
    times = write(tmp_path / "t.csv", "mr_id,exec_seconds\n" + times)
    if argv[-1] == "--order":
        argv = [*argv, write(tmp_path / "o.json", json.dumps({"ordering": ["MR1", "MR2"]}))]
    out = str(tmp_path / "r.json")
    assert main([*argv, "--kills", kills, "--times", times, "--out", out]) == 2
    assert capsys.readouterr().err == f"error: execution times total {detail}\n"


def test_huge_arff_field_exits_2_naming_the_line(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "d.arff", "@relation r\n@attribute x numeric\n@attribute c {a,b}\n"
                               "@data\n1,a\n" + "1" * 200_000 + ",b\n")
    write(tmp_path / "cat.txt", "MR1 ident identity\n")
    rc = main(["prioritize", "--dataset", "d.arff", "--catalog", "cat.txt",
               "--metric", "distribution", "--out", "r.json"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: d.arff: line 6: field larger than field limit (131072)\n")


def _reject_constant(name):
    raise AssertionError(f"{name} in JSON output")


def prioritize_outcome(data, catalog, metric, extra=(), diagnostics=True):
    """Run prioritize on *data* and *catalog*, with --out, and --diagnostics
    unless *diagnostics* is false, in their directory. It must warn of
    nothing, and end in exit 0 with an empty stderr and finite JSON in every
    file, or in exit 3 with no file. Returns (stderr, None) for exit 3, or
    (None, the ranking) for exit 0."""
    out, diag = data.parent / "r.json", data.parent / "d.json"
    argv = ["--out", str(out), *(["--diagnostics", str(diag)] if diagnostics else [])]
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main(["prioritize", "--dataset", str(data), "--class-column", "cls",
                   "--catalog", str(catalog), "--metric", metric, *extra, *argv])
    assert [str(w.message) for w in caught] == [], (metric, extra)
    if rc == 0:
        assert err.getvalue() == ""
        ranking = json.loads(out.read_text(), parse_constant=_reject_constant)["ranking"]
        out.unlink()
        if diagnostics:
            json.loads(diag.read_text(), parse_constant=_reject_constant)
            diag.unlink()
        return None, ranking
    assert rc == 3, (metric, extra, err.getvalue())
    assert not out.exists() and not diag.exists()
    return err.getvalue(), None


def _x_and_y(cells):
    return {"x": cells, "y": [str(i % 3) for i in range(len(cells))]}


SUM = ["1.7e308" if i % 2 else "1.6e308" for i in range(20)]

# tables at the float64 limit, column name -> cells; each gains cls = c{i % 2}
LIMIT_TABLES = {
    # x near +-1e200: its squares, so its spread and any squared distance, overflow
    "huge": _x_and_y([f"{(-1) ** i * (1 + i / 10)}e200" for i in range(20)]),
    # the sum overflows (so the mean does), the range overflows, and the
    # moments overflow only once raised to the power 1.5 or 2
    "sum": _x_and_y(SUM),
    "range": _x_and_y(["1.7e308" if i % 2 else "-1.7e308" for i in range(20)]),
    "power": _x_and_y([f"{i % 5}e110" for i in range(20)]),
    # CN2 imputes a missing cell with the mean, and cuts over it: the mean
    # overflows to inf, or -inf and +inf partial sums give NaN
    "imputed-inf": _x_and_y(SUM[:3] + ["?"] + SUM[4:]),
    "imputed-nan": _x_and_y(["-1.7e308"] * 6 + ["1.7e308"] * 2 + ["?"]),
    "knn": _x_and_y(["1e200", "-1e200", "1", "2", "3", "4", "5", "6"]),
    "seeding": _x_and_y(["1e154", "5e-324", "0", "1e154", "0", "5e153", "?", "5e-324"]),
    # each column is small enough for its own variance, but a squared
    # distance sums nine columns and overflows
    "nine-column": {f"x{j}": ["5e153", "-5e153", *(str(i % 4) for i in range(18))]
                    for j in range(9)},
    # a sum of its cells overflows, but a constant column is its own mean,
    # with spread 0: standardizing leaves it unscaled, so k-means overflows
    "const": _x_and_y(["1.7e308"] * 8),
}

# the program's six overflow reasons; attr is the table's first column
LIMIT_REASONS = {
    "std": "dataset 'd.csv': attribute {attr!r} has a standard deviation that overflows "
           "float64 (rescale it)",
    "impute": "dataset 'd.csv': attribute {attr!r} has an imputed mean or CN2 cuts that "
              "overflow float64 (rescale it)",
    "stats": "dataset 'd.csv': attribute {attr!r} has statistics that overflow float64 "
             "(rescale it)",
    "knn": "dataset 'd.csv': kth-NN distances overflow float64 "
           "(standardize the features or rescale them)",
    "seeding": "k-means++ seeding: squared distances overflow float64 "
               "(standardize the features or rescale them)",
    "kmeans": "k-means: squared distances overflow float64 "
              "(standardize the features or rescale them)",
}

# what each metric does with each table, standardized and with
# --no-standardize: "ok" is exit 0, any other word the reason of exit 3
LIMIT = {
    #               rule            anomaly   clustering       distribution
    #               std     raw     std  raw  std     raw      std    raw
    "huge":        "ok      ok      std  knn  std     seeding  stats  stats",
    "sum":         "ok      ok      std  ok   std     seeding  stats  stats",
    "range":       "impute  impute  std  ok   std     seeding  stats  stats",
    "power":       "ok      ok      ok   ok   ok      ok       stats  stats",
    "imputed-inf": "impute  impute  std  knn  std     seeding  stats  stats",
    "imputed-nan": "impute  impute  std  knn  std     seeding  stats  stats",
    "knn":         "ok      ok      std  knn  std     seeding  stats  stats",
    "seeding":     "ok      ok      ok   ok   ok      seeding  stats  stats",
    "nine-column": "ok      ok      ok   knn  ok      seeding  stats  stats",
    "const":       "ok      ok      ok   ok   kmeans  kmeans   ok     ok",
}
METRICS = ("rule", "anomaly", "clustering", "distribution")
SETTINGS = ([], ["--no-standardize"])
LIMIT_CELLS = [
    (table, metric, extra, word) for table, row in LIMIT.items()
    for (metric, extra), word in zip(product(METRICS, SETTINGS), row.split(), strict=True)
] + [
    # k = 1 makes no k-means++ draw; Lloyd's sums overflow instead
    ("huge", "clustering", ["--no-standardize", "--kmeans-k", "1"], "kmeans"),
    ("knn", "anomaly", ["--no-standardize", "--knn-k", "2"], "knn"),
]


@pytest.mark.parametrize("table, metric, extra, word", LIMIT_CELLS, ids=[
    "-".join([table, metric, *([a.lstrip("-") for a in extra] or ["standardized"])])
    for table, metric, extra, _ in LIMIT_CELLS])
def test_float64_limit_cell(tmp_path, monkeypatch, table, metric, extra, word):
    monkeypatch.chdir(tmp_path)
    columns = LIMIT_TABLES[table]
    rows = [[*cells, f"c{i % 2}"] for i, cells in enumerate(zip(*columns.values()))]
    data, catalog = Path("d.csv"), Path("cat.txt")
    data.write_text("".join(",".join(r) + "\n" for r in [[*columns, "cls"], *rows]))
    catalog.write_text("MR1 ident identity\nMR2 shuffle permute_instances seed=1\n")
    expected = None
    if word != "ok":
        reason = LIMIT_REASONS[word].format(attr=next(iter(columns)))
        expected = (f"not applicable: metric {metric!r} not applicable to every MR:\n"
                    f"  MR1: {reason}\n  MR2: {reason}\n")
    outcome = prioritize_outcome(data, catalog, metric, extra)
    assert outcome[0] == expected
    # without --diagnostics, where anomaly runs the kNN only when a squared
    # distance could overflow: the same exit, stderr and ranking
    assert prioritize_outcome(data, catalog, metric, extra, diagnostics=False) == outcome


@pytest.mark.parametrize("compared, refused", [
    ((math.inf, {}), "ranking.json"),                  # the raw score, in both files
    ((1.0, {"probe": math.nan}), "diagnostics.json"),  # a diagnostics field only
])
def test_non_finite_output_exits_4_and_writes_no_file(workspace, monkeypatch, capsys,
                                                      compared, refused):
    monkeypatch.setattr("mrprior.metrics.compare_totals", lambda total_s, total_f: compared)
    out, diag = workspace["dir"] / "ranking.json", workspace["dir"] / "diagnostics.json"
    assert TestPrioritize().run(workspace, str(out), ["--diagnostics", str(diag)]) == 4
    assert capsys.readouterr().err.startswith(
        f"internal invariant violated: cannot write {workspace['dir'] / refused}: "
        "Out of range float values")
    assert not out.exists() and not diag.exists()


@pytest.fixture
def message_workspace(workspace):
    """The workspace, two evaluation reports over different mutants, orderings,
    broken configs and a follow-up directory that holds a .txt file."""
    d = workspace["dir"]
    write(d / "other_kills.csv", "mr_id,m1,m3\nMR1,1,0\nMR2,0,1\n")
    write(d / "order.json", '{"ordering": ["MR1", "MR2"]}')
    write(d / "empty.json", '{"ordering": []}')
    write(d / "bad.json", "{")
    write(d / "list.json", "[1]")
    (d / "followups").mkdir()
    write(d / "followups" / "MR1.csv", SOURCE_CSV)
    write(d / "followups" / "notes.txt", "x\nnot-a-number\n")   # would not score
    for kills, out in (("kills.csv", "report.json"), ("other_kills.csv", "other_report.json")):
        assert main(["evaluate", "--order", str(d / "order.json"), "--kills", str(d / kills),
                     "--times", workspace["times"], "--out", str(d / out)]) == 0
    return d


@pytest.mark.parametrize("argv, code, stderr", [
    ("prioritize --metric distribution --catalog {d}/catalog.txt", 2,
     "error: prioritize needs --dataset"),
    ("evaluate --order {d}/order.json", 2, "error: evaluate needs --kills and --times"),
    ("compare --treatment {d}/report.json", 2, "error: compare needs --treatment and --baseline"),
    ("compare --treatment {d}/report.json --baseline {d}/other_report.json --out {d}/c.json", 2,
     "error: reports cover different mutant sets"),
    ("evaluate --order {d}/empty.json --kills {d}/kills.csv --times {d}/times.csv", 2,
     "error: {d}/empty.json: empty ordering"),
    ("synth --mrs 2 --mutants 3 --times a:b", 2, "error: bad time range 'a:b'"),
    ("prioritize --config {d}/bad.json", 2,
     "error: config {d}/bad.json is not valid JSON: Expecting property name enclosed in "
     "double quotes: line 1 column 2 (char 1)"),
    ("prioritize --config {d}/list.json", 2, "error: config {d}/list.json must hold a JSON object"),
    # only an optional "-" and ASCII digits make a column index
    ("prioritize --dataset {d}/data.csv --class-column=--1 --catalog {d}/catalog.txt "
     "--metric distribution --out {d}/r.json", 2, "error: {d}/data.csv: no column named '--1'"),
    ("prioritize --dataset {d}/data.csv --class-column=\u00b2 --catalog {d}/catalog.txt "
     "--metric distribution --out {d}/r.json", 2, "error: {d}/data.csv: no column named '\u00b2'"),
    # notes.txt is skipped: scored, it would end the run in exit 3
    ("prioritize --dataset {d}/data.csv --followup-dir {d}/followups --metric distribution "
     "--out {d}/r.json", 0, ""),
])
def test_cli_messages(message_workspace, capsys, argv, code, stderr):
    assert main(argv.format(d=message_workspace).split()) == code
    expected = stderr.format(d=message_workspace)
    assert capsys.readouterr().err == (expected + "\n" if expected else "")


# cells at and near the float64 extremes: sums, squares and distances of
# them overflow; "?" is a missing cell
EXTREME_CELLS = ["1.7e308", "-1.7e308", "1e200", "-1e200", "1e154", "5e153", "5e-324",
                 "-5e-324", "2.2e-308", "0.0", "-0.0", "1", "?"]


@st.composite
def extreme_tables(draw):
    n_rows = draw(st.integers(8, 14))
    columns = []
    for _ in range(draw(st.integers(1, 2))):
        first = draw(st.sampled_from(EXTREME_CELLS[:-1]))   # so the column is numeric
        rest = draw(st.lists(st.sampled_from(EXTREME_CELLS), min_size=n_rows - 1,
                             max_size=n_rows - 1))
        columns.append([first, *rest])
    header = [f"x{j}" for j in range(len(columns))] + ["cls"]
    rows = [[*cells, f"c{i % 2}"] for i, cells in enumerate(zip(*columns))]
    return "".join(",".join(r) + "\n" for r in [header, *rows])


# every transform; the first three keep every value, so that most tables
# reach the metrics through them
EXTREME_CATALOG = [
    "MR1 ident identity", "MR2 shuffle permute_instances seed=1",
    "MR3 drop remove_instances fraction=0.2 seed=2", "MR4 perm permute_attributes seed=3",
    "MR5 half affine_numeric scale=0.5 shift=1", "MR6 const add_uninformative_attribute value=1",
    "MR7 code add_informative_attribute map=c0:0,c1:1",
    "MR8 dup duplicate_instances fraction=0.5 seed=3",
    "MR9 one remove_class label=c1", "MR10 swap relabel_classes map=c0:c1,c1:c0",
    "MR11 points add_data_points count=2 seed=1",
]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(table=extreme_tables())
def test_extreme_cells_exit_0_with_valid_json_or_3_naming_every_mr(table):
    """Every metric, standardized or not, on the first three MRs and on every
    transform: a run ends in exit 0 with finite JSON and an empty stderr, or
    in exit 3 with one line per MR that cannot be applied or scored; never a
    warning, a traceback or another exit code."""
    ids = [f"  {line.split()[0]}" for line in EXTREME_CATALOG]
    with tempfile.TemporaryDirectory() as work:
        data, catalog = Path(work, "d.csv"), Path(work, "cat.txt")
        data.write_text(table)
        for lines in (EXTREME_CATALOG[:3], EXTREME_CATALOG):
            catalog.write_text("".join(line + "\n" for line in lines))
            for metric, extra in product(METRICS, SETTINGS):
                err, _ = prioritize_outcome(data, catalog, metric, extra)
                if err is None:
                    continue
                header, *failed = err.splitlines()
                assert header in (
                    "not applicable: catalog could not be applied:",
                    f"not applicable: metric {metric!r} not applicable to every MR:")
                # one line per MR that fails, in catalog order
                named = [line.split(":")[0] for line in failed]
                assert named and named == [i for i in ids if i in named]
