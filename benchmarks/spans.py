"""In-process span tracer that wraps mrprior's public functions from outside.

``Tracer.install`` rebinds each target function's name in every loaded
``mrprior`` module that refers to it, so ``numeric_view`` as seen from
``metrics.anomaly`` and ``score_catalog`` as seen from ``cli`` are traced
too.  Nothing in the program's source changes; ``uninstall`` puts every
original back.  Spans (name, start, end, parent, call id) stay in memory
until the run writes them out.  Counters are taken at the same boundaries,
from the wrapped calls' arguments and results.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc

# (module, attribute, span name).  A dotted attribute is a method on a class.
TARGETS = (
    ("mrprior.dataset", "load_csv", "dataset.load_csv"),
    ("mrprior.dataset", "numeric_view", "dataset.numeric_view"),
    ("mrprior.dataset", "Dataset.__post_init__", "dataset.Dataset"),
    ("mrprior.catalog", "load_catalog", "catalog.load_catalog"),
    ("mrprior.catalog", "build_pairs", "catalog.build_pairs"),
    ("mrprior.catalog", "apply_mr", "catalog.apply_mr"),
    ("mrprior.catalog", "pair_from_files", "catalog.pair_from_files"),
    ("mrprior.metrics", "score_catalog", "metrics.score_catalog"),
    ("mrprior.metrics", "score_pair", "metrics.score_pair"),
    ("mrprior.metrics.rules", "rule_diversity", "rules.rule_diversity"),
    ("mrprior.metrics.rules", "cn2_induce", "rules.cn2_induce"),
    ("mrprior.metrics.anomaly", "anomaly_diversity", "anomaly.anomaly_diversity"),
    ("mrprior.metrics.anomaly", "knn_outliers", "anomaly.knn_outliers"),
    ("mrprior.metrics.clustering", "clustering_diversity", "clustering.clustering_diversity"),
    ("mrprior.metrics.clustering", "kmeans_summary", "clustering.kmeans_summary"),
    ("mrprior.metrics.distribution", "distribution_diversity",
     "distribution.distribution_diversity"),
    ("mrprior.metrics.distribution", "dist_summary", "distribution.dist_summary"),
    ("mrprior.prioritizer", "normalize", "prioritizer.normalize"),
    ("mrprior.prioritizer", "rank", "prioritizer.rank"),
    ("mrprior.evaluation", "load_kill_matrix", "evaluation.load_kill_matrix"),
    ("mrprior.evaluation", "evaluate_ordering", "evaluation.evaluate_ordering"),
    ("mrprior.evaluation", "random_baseline", "evaluation.random_baseline"),
    ("mrprior.evaluation", "permutation_test", "evaluation.permutation_test"),
    ("mrprior.evaluation", "relative_improvement", "evaluation.relative_improvement"),
    ("mrprior.evaluation", "report_from_dict", "evaluation.report_from_dict"),
    ("mrprior.evaluation", "detection_curve", "evaluation.detection_curve"),
    ("mrprior.evaluation", "first_kill_positions", "evaluation.first_kill_positions"),
    ("mrprior.evaluation", "apfd", "evaluation.apfd"),
    ("mrprior.evaluation", "avg_time_to_fault", "evaluation.avg_time_to_fault"),
    ("mrprior.evaluation", "effective_set_size", "evaluation.effective_set_size"),
    ("mrprior.cli", "main", "cli.main"),
)

# the per-side summary kernels of the four metrics: (span, argument holding the data)
SUMMARIZERS = {
    "rules.cn2_induce": "dataset",
    "anomaly.knn_outliers": "view",
    "clustering.kmeans_summary": "view",
    "distribution.dist_summary": "dataset",
}

# a raw score this close to 0 without being 0 is float noise, not diversity
NEAR_ZERO = 1e-9

MB = 1e6


class Tracer:
    def __init__(self) -> None:
        # span: [id, name, parent, call, start, end, error]
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.scores: list[dict] = []
        self.call = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._hooks = {
            "dataset.load_csv": self._after_load,
            "dataset.numeric_view": self._after_view,
            "catalog.apply_mr": self._after_apply,
            "metrics.score_catalog": self._after_score_catalog,
            "rules.cn2_induce": self._after_cn2,
            "anomaly.knn_outliers": self._after_knn,
            "anomaly.anomaly_diversity": self._after_anomaly,
            "clustering.kmeans_summary": self._after_kmeans,
            "evaluation.random_baseline": self._after_baseline,
            "evaluation.permutation_test": self._after_permutation,
        }
        self._begin_scope()

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._rebind(cls, method, self._wrap(span, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(span, original)
            for name, loaded in list(sys.modules.items()):
                if name != "mrprior" and not name.startswith("mrprior."):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._rebind(loaded, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _rebind(self, owner, key, wrapper) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def begin_call(self) -> None:
        """Start a new CLI call: its spans share the call id."""
        self.call += 1
        self._begin_scope()

    def _begin_scope(self) -> None:
        # identity of summarized datasets within one call; objects are kept
        # alive so their ids cannot be reused inside the call
        self._keep: list = []
        self._view_owner: dict[int, int] = {}
        self._summarized: set[int] = set()

    # -- spans ----------------------------------------------------------------

    def _wrap(self, span_name: str, fn):
        signature = inspect.signature(fn)
        hook = self._hooks.get(span_name)
        summarized = SUMMARIZERS.get(span_name)
        measure_peak = span_name == "anomaly.knn_outliers"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if hook is not None or summarized is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
            if summarized is not None:
                self._count_summary(bound.arguments[summarized])
            if measure_peak:
                tracemalloc.start()
            record = [len(self.spans), span_name, self._stack[-1] if self._stack else None,
                      self.call, time.perf_counter(), None, False]
            self.spans.append(record)
            self._stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[6] = True
                raise
            finally:
                record[5] = time.perf_counter()
                self._stack.pop()
                if measure_peak:
                    peak = tracemalloc.get_traced_memory()[1] / MB
                    self._max("anomaly.knn_outliers.peak_mb", peak)
                    tracemalloc.stop()
            if hook is not None:
                hook(bound.arguments, result)
            return result

        return wrapper

    # -- counters -------------------------------------------------------------

    def _add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def _max(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def _count_summary(self, data) -> None:
        owner = self._view_owner.get(id(data), id(data))
        self._add("metrics.summaries", 1)
        if owner not in self._summarized:
            self._summarized.add(owner)
            self._keep.append(data)
            self._add("metrics.distinct_summarized", 1)

    def _after_load(self, args, dataset) -> None:
        self._add("dataset.load_csv.rows", dataset.n_rows)

    def _after_view(self, args, view) -> None:
        self._keep.append(view)
        self._keep.append(args["dataset"])
        self._view_owner[id(view)] = id(args["dataset"])

    def _after_apply(self, args, followup) -> None:
        self._add("catalog.apply_mr.rows_out", followup.n_rows)

    def _after_score_catalog(self, args, scores) -> None:
        for s in scores:
            self.scores.append({"call": self.call, "metric": s.metric, "mr_id": s.mr_id,
                                "raw": s.raw})
            self._add("metrics.scores", 1)
            if 0.0 < abs(s.raw) < NEAR_ZERO:
                self._add("metrics.near_zero_raw_scores", 1)

    def _after_cn2(self, args, ruleset) -> None:
        self._add("rules.rules_induced", len(ruleset.rules))

    def _after_knn(self, args, report) -> None:
        n, d = args["view"].matrix.shape
        self._max("anomaly.knn_outliers.computed_mb", n * n * d * 8 / MB)
        self._add("anomaly.flagged", len(report.indices))

    def _after_anomaly(self, args, result) -> None:
        self._add("anomaly.identical_pairs", len(result[1]["identical_pairs"]))

    def _after_kmeans(self, args, summary) -> None:
        self._add("clustering.lloyd_iters", summary.n_iters)
        # n_iters == max_iters also when the fixpoint came on the last pass
        self._add("clustering.hit_max_iters", int(summary.n_iters >= args["max_iters"]))

    def _after_baseline(self, args, report) -> None:
        self._add("evaluation.random_baseline.orderings", report.runs)

    def _after_permutation(self, args, p_value) -> None:
        n = len(args["a"])
        exact_limit = getattr(sys.modules["mrprior.evaluation"], "EXACT_LIMIT", 20)
        samples = 2**n if n <= exact_limit else args["iterations"]
        self._add("evaluation.permutation_test.sign_samples", samples)

    # -- results --------------------------------------------------------------

    def aggregate(self) -> dict[str, dict]:
        """Per span name: total time (outermost spans only), self time, calls, errors.

        Self time is a span's duration minus the time its child spans cover.
        """
        child_time = [0.0] * len(self.spans)
        for _, _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for sid, name, parent, _, start, end, error in self.spans:
            entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "errors": 0})
            duration = end - start
            entry["self_s"] += duration - child_time[sid]
            entry["calls"] += 1
            entry["errors"] += int(error)
            ancestor, nested = parent, False
            while ancestor is not None and not nested:
                nested = self.spans[ancestor][1] == name
                ancestor = self.spans[ancestor][2]
            if not nested:
                entry["s"] += duration
        return out

    def span_dicts(self) -> list[dict]:
        keys = ("id", "name", "parent", "call", "start", "end", "error")
        return [dict(zip(keys, record)) for record in self.spans]
