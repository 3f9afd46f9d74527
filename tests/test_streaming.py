"""Follow-ups are scored one at a time.

``build_pairs`` and the ``--followup-dir`` loop of ``prioritize`` make one
pair per step, and ``score_catalog`` draws, scores and drops each pair
before it draws the next.  These tests pin the error order that making
every pair first used to give, and that no scored follow-up stays alive.
``--followup-dir`` files are parsed in worker processes, at most one job
per worker ahead of the pair drawn; the error order is still filename
order.
"""

import os
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import mrprior.catalog
from mrprior.catalog import MrPair, MrSpec, apply_mr, build_pairs
from mrprior.cli import main
from mrprior.errors import ApplicabilityError, InputError
from mrprior.metrics import MetricParams, score_catalog

from conftest import make_dataset


def labelled(n_rows=12):
    return make_dataset({"x": [float(i) for i in range(n_rows)],
                         "y": [float(i % 5) for i in range(n_rows)],
                         "c": ["a", "b"] * (n_rows // 2)}, class_name="c")


def shifts(count):
    return [MrSpec(f"MR{i:02d}", "shift", "affine_numeric", {"shift": float(i)})
            for i in range(count)]


class TestErrorOrder:
    CATALOG = [
        MrSpec("MR1", "ident", "identity"),
        MrSpec("MR2", "drop", "remove_class", {"label": "zz"}),
        MrSpec("MR3", "scale", "affine_numeric", {"scale": 2.0}),
        MrSpec("MR4", "drop", "remove_class", {"label": "yy"}),
    ]

    def test_no_pair_is_yielded_after_the_first_failure(self):
        drawn = []
        with pytest.raises(ApplicabilityError) as info:
            for pair in build_pairs(self.CATALOG, labelled()):
                drawn.append(pair.mr.id)
        assert drawn == ["MR1"]
        assert str(info.value).splitlines() == [
            "catalog could not be applied:",
            "  MR2: MR MR2: class value 'zz' does not exist",
            "  MR4: MR MR4: class value 'yy' does not exist",
        ]

    def test_apply_failures_are_joined_and_win_over_scoring_failures(self):
        # without a class attribute the rule metric fails on every pair, and
        # remove_class fails to apply
        source = make_dataset({"x": [float(i) for i in range(8)]})
        with pytest.raises(ApplicabilityError) as info:
            score_catalog(build_pairs(self.CATALOG, source), "rule")
        lines = str(info.value).splitlines()
        assert lines[0] == "catalog could not be applied:"
        assert [line.split(":")[0].strip() for line in lines[1:]] == ["MR2", "MR4"]

    def test_apply_failures_win_over_a_bad_metric_parameter(self):
        params = MetricParams(contamination=2.0)
        with pytest.raises(ApplicabilityError, match="catalog could not be applied"):
            score_catalog(build_pairs(self.CATALOG, labelled()), "anomaly", params)
        with pytest.raises(InputError, match="contamination must be in"):
            score_catalog(build_pairs(self.CATALOG[:1], labelled()), "anomaly", params)

    @pytest.mark.parametrize("pairs", [[], (), iter(()), "build_pairs"])
    def test_no_pairs_to_score(self, pairs):
        if pairs == "build_pairs":
            pairs = build_pairs([], labelled())
        with pytest.raises(ApplicabilityError, match="^no MR pairs to score$"):
            score_catalog(pairs, "distribution")


class TestFollowupDir:
    def run(self, tmp_path, files, extra=()):
        source = tmp_path / "data.csv"
        source.write_text("x,y\n1,2\n2,3\n3,5\n4,4\n")
        followups = tmp_path / "followups"
        followups.mkdir()
        for name, text in files.items():
            (followups / name).write_text(text)
        return main(["prioritize", "--dataset", str(source), "--followup-dir", str(followups),
                     "--metric", "anomaly", "--knn-k", "1", "--out", str(tmp_path / "r.json"),
                     *extra])

    FILES = {
        "c_ragged.csv": "x,y\n1,2\n3\n",
        "a_ok.csv": "x,y\n1,2\n2,3\n3,5\n",
        "b_empty.csv": "",
        "d_ok.csv": "x,y\n1,2\n",
    }

    def test_stops_at_the_first_bad_file_in_filename_order(self, tmp_path, capsys):
        assert self.run(tmp_path, self.FILES) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "b_empty.csv" in err

    def test_a_bad_file_wins_over_a_bad_metric_parameter(self, tmp_path, capsys):
        assert self.run(tmp_path, self.FILES, ["--contamination", "2"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "b_empty.csv" in err
        good = {name: text for name, text in self.FILES.items() if "_ok" in name}
        (tmp_path / "good").mkdir()
        assert self.run(tmp_path / "good", good, ["--contamination", "2"]) == 2
        assert "contamination must be in" in capsys.readouterr().err

    @pytest.mark.parametrize("large", ["good", "bad"])
    def test_the_first_bad_file_in_filename_order_wins_over_one_that_fails_sooner(
            self, tmp_path, capsys, monkeypatch, large):
        # two workers: b_small fails at once, while a_large is still parsed
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        body = "".join(f"{i},{i % 7}\n" for i in range(60_000))
        files = {"a_large.csv": "x,y\n" + body + ("3\n" if large == "bad" else ""),
                 "b_small.csv": "x,y\n1\n", "c_ok.csv": "x,y\n1,2\n"}
        # a later --metric wins: the distribution metric scores a_large quickly
        assert self.run(tmp_path, files, ["--metric", "distribution"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert ("a_large.csv" in err) == (large == "bad")
        assert ("b_small.csv" in err) == (large == "good")

    @pytest.mark.parametrize("files", [
        None, {}, {"a.csv": "x,y\n1,2\n", "a.arff": ""}, {"a.csv": "", "b.csv": "x\n1\n"},
    ], ids=["no-directory", "no-files", "same-stem", "bad-file"])
    def test_a_source_error_comes_before_a_listing_or_followup_error(
            self, tmp_path, capsys, files):
        source = tmp_path / "data.csv"
        source.write_text("x,y\n1,2\n3\n")
        followups = tmp_path / "followups"
        if files is not None:
            followups.mkdir()
            for name, text in files.items():
                (followups / name).write_text(text)
        assert main(["prioritize", "--dataset", str(source), "--followup-dir", str(followups),
                     "--metric", "distribution", "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{source}: line 3" in err, err

    @pytest.mark.parametrize("names", [("a.csv", "a.arff"), ("a.csv", "a.CSV")])
    def test_two_files_with_one_stem_are_refused_before_any_parse(
            self, tmp_path, capsys, monkeypatch, names):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        files = {"0.csv": "x,y\n1,2\n", **{name: "x,y\n1,2\n" for name in names}}
        assert self.run(tmp_path, files) == 2
        err = capsys.readouterr().err.strip()
        first, second = sorted(names)
        assert err == (f"error: {tmp_path / 'followups'}: {first} and {second} "
                       f"both give the MR id 'a'")

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_at_most_one_parsed_followup_per_worker_waits_beside_the_scored_one(
            self, tmp_path, monkeypatch, cpus):
        import concurrent.futures

        class Pool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, *args, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

            def submit(self, *args, **kwargs):
                submitted.append(args[1])
                return super().submit(*args, **kwargs)

        sizes, submitted, drawn, refs = [], [], [], []
        make_pair = mrprior.catalog.pair_from_files

        def pair_from_files(mr_id, name, source, followup):
            # every follow-up drawn before this one is gone
            assert [ref() for ref in refs] == [None] * len(refs), mr_id
            refs.append(weakref.ref(followup))
            drawn.append((mr_id, len(submitted)))
            return make_pair(mr_id, name, source, followup)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(mrprior.catalog, "pair_from_files", pair_from_files)
        files = {f"f{i:02d}.csv": f"x,y\n1,{i}\n2,3\n3,5\n" for i in range(12)}
        assert self.run(tmp_path, files) == 0
        assert sizes == [cpus]
        assert [os.path.basename(path) for path in submitted] == sorted(files)
        # when the k-th follow-up is drawn, the jobs submitted are the k
        # drawn and at most one per worker beyond them
        assert drawn == [(f"f{k - 1:02d}", min(12, k + cpus)) for k in range(1, 13)]
        assert [ref() for ref in refs] == [None] * 12


def track(monkeypatch, module, name):
    """Wrap *module.name* so that each call first checks that the datasets
    made by earlier calls are gone.  Returns a function that lists the
    tracked datasets still alive."""
    original = getattr(module, name)
    refs = []

    def tracked(*args, **kwargs):
        still = [ref() for ref in refs if ref() is not None]
        assert not still, [d.name for d in still]
        result = original(*args, **kwargs)
        refs.append(weakref.ref(result))
        return result

    monkeypatch.setattr(module, name, tracked)
    return lambda: [ref() for ref in refs if ref() is not None]


@pytest.mark.parametrize("metric", ["rule", "anomaly", "clustering", "distribution"])
def test_each_followup_is_dropped_before_the_next_is_made(monkeypatch, metric):
    source = labelled(40)
    alive = track(monkeypatch, mrprior.catalog, "apply_mr")
    scores = score_catalog(build_pairs(shifts(5), source), metric)
    assert [s.mr_id for s in scores] == [f"MR{i:02d}" for i in range(5)]
    assert alive() == []


def test_peak_memory_does_not_grow_with_the_catalog():
    n_rows = 20_000
    rng = np.random.default_rng(3)
    source = make_dataset({f"a{j}": list(rng.normal(size=n_rows)) for j in range(4)})
    followup_bytes = n_rows * 4 * 8

    def peak(count):
        tracemalloc.start()
        try:
            score_catalog(build_pairs(shifts(count), source), "distribution")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2), peak(20)
    # holding the 18 further follow-ups would add 18 x followup_bytes
    assert large - small < followup_bytes / 4, (small, large)


def test_a_generator_of_pairs_with_fresh_sources_scores_each_against_its_own():
    # each pair's source dies with it, so its id() can come back for the
    # next source; a summary is reused only for the very same source object
    template = make_dataset({"x": [float(v) for v in range(10)]})
    mr = MrSpec("MR", "ident", "identity")

    def pairs():
        for i in range(50):
            source = replace(template, columns=(template.columns[0] * (i + 1),))
            yield MrPair(mr, source, source)
            del source

    scores = score_catalog(pairs(), "distribution")
    assert [s.raw for s in scores] == [0.0] * 50
