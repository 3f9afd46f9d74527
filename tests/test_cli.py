"""End-to-end tests for the command line front end."""

import json

import numpy as np
import pytest

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
        ("anomaly", "--contamination", "nan", "contamination must be in (0, 1), got nan"),
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
