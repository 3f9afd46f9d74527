"""mrprior: prioritize metamorphic relations by source/follow-up data diversity.

Every public name is imported from its module on first use (PEP 562), so
``import mrprior`` loads no numpy and a subcommand loads only the modules
it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it defines, in the order of __all__
_MODULES = {
    "dataset": ("Attribute", "Dataset", "NumericView", "load_csv", "save_csv", "load_arff",
                "save_arff", "numeric_view"),
    "catalog": ("MrSpec", "MrPair", "load_catalog", "apply_mr", "build_pairs",
                "pair_from_files"),
    "metrics": ("METRICS", "MetricParams", "DiversityScore", "score_pair", "score_catalog"),
    "metrics.rules": ("cn2_induce", "rule_diversity"),
    "metrics.anomaly": ("knn_outliers", "anomaly_diversity"),
    "metrics.clustering": ("kmeans_summary", "clustering_diversity"),
    "metrics.distribution": ("dist_summary", "distribution_diversity"),
    "prioritizer": ("normalize", "rank", "top_n", "Ranking", "RankEntry"),
    "evaluation": ("KillMatrix", "CoverageMatrix", "EvalReport", "load_kill_matrix",
                   "load_coverage_matrix", "save_kill_matrix", "synth_kill_matrix",
                   "detection_curve", "first_kill_positions", "apfd", "avg_time_to_fault",
                   "effective_set_size", "evaluate_ordering", "random_baseline",
                   "coverage_greedy", "permutation_test", "relative_improvement"),
    "errors": ("MrPriorError", "InputError", "ApplicabilityError", "InvariantError"),
}
_ORIGIN = {name: module for module, names in _MODULES.items() for name in names}

__all__ = ["__version__", *_ORIGIN]


def __getattr__(name: str):
    # not cached here, so a name rebound in its module is what this returns
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
