"""Command line front end.

Subcommands: prioritize, evaluate, baseline (random | coverage), compare,
synth.  Options may come from a JSON config file (--config); explicit flags
win on conflict.  Exit codes: 0 success, 2 bad input, 3 metric or transform
not applicable, 4 internal invariant violation.

Every output file records the resolved master seed: JSON outputs carry it in
their "header" object, CSV outputs in a leading ``#`` comment line.  Reruns
with identical inputs and options produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .catalog import build_pairs, load_catalog, pair_from_files
from .dataset import Dataset, load_arff, load_csv
from .errors import ApplicabilityError, InputError, InvariantError, MrPriorError
from .evaluation import (
    DEFAULT_THRESHOLDS,
    coverage_greedy,
    evaluate_ordering,
    load_coverage_matrix,
    load_kill_matrix,
    permutation_test,
    random_baseline,
    relative_improvement,
    report_from_dict,
    save_kill_matrix,
    synth_kill_matrix,
)
from .metrics import METRICS, MetricParams, score_catalog
from .prioritizer import normalize, rank, top_n

DEFAULT_SEED = 0


# ---------------------------------------------------------------------------
# option plumbing
# ---------------------------------------------------------------------------

def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"config {path} must hold a JSON object")
    return data


def _resolve(args: argparse.Namespace, config: dict, defaults: dict) -> dict:
    """Flag value if given, else config value, else default."""
    unknown = sorted(set(config) - set(defaults))
    if unknown:
        raise InputError(f"config has unknown keys {unknown}")
    resolved = {}
    for key, default in defaults.items():
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
        elif key in config:
            resolved[key] = config[key]
        else:
            resolved[key] = default
    return resolved


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _header(command: str, seed: int, options: dict) -> dict:
    echo = {
        k: v for k, v in sorted(options.items())
        if isinstance(v, (int, float, str, bool, list)) or v is None
    }
    return {"tool": "mrprior", "version": __version__, "command": command,
            "seed": seed, "options": echo}


def _load_dataset(path: str, fmt: str | None, header: bool, class_column) -> Dataset:
    if fmt is None:
        fmt = "arff" if path.lower().endswith(".arff") else "csv"
    if fmt == "arff":
        return load_arff(path, class_column if class_column is not None else "last")
    if fmt == "csv":
        return load_csv(path, header=header, class_column=class_column)
    raise InputError(f"unknown dataset format {fmt!r}")


def _parse_class_column(value):
    if value is None or value == "":
        return None
    if isinstance(value, int):
        return value
    text = str(value)
    return int(text) if text.lstrip("-").isdigit() else text


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_PRIORITIZE_DEFAULTS = {
    "dataset": None,
    "format": None,
    "no_header": False,
    "class_column": None,
    "catalog": None,
    "followup_dir": None,
    "metric": None,
    "out": "ranking.json",
    "diagnostics": None,
    "top_n": None,
    "seed": DEFAULT_SEED,
    "bins": 4,
    "beam_width": 5,
    "min_covered": 2,
    "max_conditions": 3,
    "knn_k": 5,
    "contamination": 0.05,
    "kmeans_k": 3,
    "kmeans_max_iters": 100,
    "standardize": True,
}


def cmd_prioritize(args: argparse.Namespace) -> int:
    opt = _resolve(args, _load_config(args.config), _PRIORITIZE_DEFAULTS)
    if not opt["dataset"]:
        raise InputError("prioritize needs --dataset")
    if not opt["metric"]:
        raise InputError("prioritize needs --metric")
    if opt["metric"] not in METRICS:
        raise InputError(f"unknown metric {opt['metric']!r}; choose one of {list(METRICS)}")
    if bool(opt["catalog"]) == bool(opt["followup_dir"]):
        raise InputError("prioritize needs exactly one of --catalog or --followup-dir")

    class_column = _parse_class_column(opt["class_column"])
    source = _load_dataset(
        opt["dataset"], opt["format"], header=not opt["no_header"], class_column=class_column
    )

    if opt["catalog"]:
        specs = load_catalog(opt["catalog"])
        pairs = build_pairs(specs, source)
    else:
        directory = opt["followup_dir"]
        try:
            names = sorted(os.listdir(directory))
        except OSError as exc:
            raise InputError(f"cannot list {directory}: {exc}") from exc
        names = [n for n in names if n.lower().endswith((".csv", ".arff"))]
        if not names:
            raise InputError(f"{directory}: no .csv or .arff follow-up files")
        pairs = []
        for filename in names:
            mr_id = os.path.splitext(filename)[0]
            followup = _load_dataset(
                os.path.join(directory, filename),
                opt["format"],
                header=not opt["no_header"],
                class_column=class_column,
            )
            pairs.append(pair_from_files(mr_id, mr_id, source, followup))

    params = MetricParams(
        beam_width=int(opt["beam_width"]),
        min_covered=int(opt["min_covered"]),
        max_conditions=int(opt["max_conditions"]),
        bins=int(opt["bins"]),
        knn_k=int(opt["knn_k"]),
        contamination=float(opt["contamination"]),
        kmeans_k=int(opt["kmeans_k"]),
        kmeans_max_iters=int(opt["kmeans_max_iters"]),
        seed=int(opt["seed"]),
        standardize=bool(opt["standardize"]),
    )
    scores = normalize(score_catalog(pairs, opt["metric"], params))
    ranking = rank(scores)

    payload = {
        "header": _header("prioritize", params.seed, opt),
        "ranking": ranking.to_dict(),
    }
    if opt["top_n"] is not None:
        payload["top_n"] = list(top_n(ranking, int(opt["top_n"])))
    _write_json(opt["out"], payload)

    if opt["diagnostics"]:
        detail = {
            "header": _header("prioritize", params.seed, opt),
            "scores": [
                {**s.to_dict(), "diagnostics": s.diagnostics} for s in scores
            ],
        }
        _write_json(opt["diagnostics"], detail)
    return 0


_EVALUATE_DEFAULTS = {
    "ranking": None,
    "order": None,
    "kills": None,
    "times": None,
    "thresholds": list(DEFAULT_THRESHOLDS),
    "out": "report.json",
    "seed": DEFAULT_SEED,
}


def _read_ordering(opt: dict) -> list[str]:
    if bool(opt["ranking"]) == bool(opt["order"]):
        raise InputError("evaluate needs exactly one of --ranking or --order")
    path = opt["ranking"] or opt["order"]
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if opt["ranking"]:
        try:
            entries = data["ranking"]["entries"]
            ordering = [e["mr_id"] for e in sorted(entries, key=lambda e: e["rank"])]
        except (KeyError, TypeError) as exc:
            raise InputError(f"{path}: malformed ranking file: {exc}") from exc
    else:
        ordering = data.get("ordering")
        if not isinstance(ordering, list) or not all(isinstance(m, str) for m in ordering):
            raise InputError(f"{path}: malformed ordering file")
    if not ordering:
        raise InputError(f"{path}: empty ordering")
    return ordering


def cmd_evaluate(args: argparse.Namespace) -> int:
    opt = _resolve(args, _load_config(args.config), _EVALUATE_DEFAULTS)
    if not opt["kills"] or not opt["times"]:
        raise InputError("evaluate needs --kills and --times")
    ordering = _read_ordering(opt)
    km = load_kill_matrix(opt["kills"], opt["times"])
    thresholds = [float(t) for t in opt["thresholds"]]
    report = evaluate_ordering(ordering, km, thresholds)
    payload = {
        "header": _header("evaluate", int(opt["seed"]), opt),
        "report": report.to_dict(),
    }
    _write_json(opt["out"], payload)
    return 0


_BASELINE_DEFAULTS = {
    "mode": None,
    "kills": None,
    "times": None,
    "coverage": None,
    "runs": 100,
    "exhaustive": False,
    "thresholds": list(DEFAULT_THRESHOLDS),
    "out": None,
    "seed": DEFAULT_SEED,
}


def cmd_baseline(args: argparse.Namespace) -> int:
    opt = _resolve(args, _load_config(args.config), _BASELINE_DEFAULTS)
    seed = int(opt["seed"])
    if opt["mode"] == "random":
        if not opt["kills"] or not opt["times"]:
            raise InputError("baseline random needs --kills and --times")
        km = load_kill_matrix(opt["kills"], opt["times"])
        report = random_baseline(
            km,
            runs=int(opt["runs"]),
            seed=seed,
            thresholds=[float(t) for t in opt["thresholds"]],
            exhaustive=bool(opt["exhaustive"]),
        )
        payload = {
            "header": _header("baseline random", seed, opt),
            "report": report.to_dict(),
        }
        _write_json(opt["out"] or "baseline_random.json", payload)
        return 0
    if opt["mode"] == "coverage":
        if not opt["coverage"]:
            raise InputError("baseline coverage needs --coverage")
        cov = load_coverage_matrix(opt["coverage"])
        ordering = coverage_greedy(cov)
        payload = {
            "header": _header("baseline coverage", seed, opt),
            "ordering": list(ordering),
        }
        _write_json(opt["out"] or "baseline_coverage.json", payload)
        return 0
    raise InputError(f"unknown baseline mode {opt['mode']!r}; use random or coverage")


_COMPARE_DEFAULTS = {
    "treatment": None,
    "baseline": None,
    "alternative": "greater",
    "iterations": 10000,
    "alpha": 0.05,
    "out": "comparison.json",
    "seed": DEFAULT_SEED,
}


def _load_report(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if "report" not in data:
        raise InputError(f"{path}: not an evaluation report file")
    return report_from_dict(data["report"])


def cmd_compare(args: argparse.Namespace) -> int:
    opt = _resolve(args, _load_config(args.config), _COMPARE_DEFAULTS)
    if not opt["treatment"] or not opt["baseline"]:
        raise InputError("compare needs --treatment and --baseline")
    treatment = _load_report(opt["treatment"])
    baseline = _load_report(opt["baseline"])
    if len(treatment.curve.points) != len(baseline.curve.points):
        raise InputError("reports cover different MR-set sizes")
    if treatment.mutant_ids != baseline.mutant_ids:
        raise InputError("reports cover different mutant sets")

    seed = int(opt["seed"])
    alpha = float(opt["alpha"])
    rows = []
    improvements = relative_improvement(treatment.curve, baseline.curve)
    # one column per MR-set size, all tested against one sign-flip null
    p_values = permutation_test(
        treatment.detection.T,
        baseline.detection.T,
        alternative=str(opt["alternative"]),
        iterations=int(opt["iterations"]),
        seed=seed,
    )
    for m, p in enumerate(p_values):
        rows.append(
            {
                "size": m + 1,
                "treatment": treatment.curve.points[m],
                "baseline": baseline.curve.points[m],
                "improvement_pct": improvements[m],
                "p_value": p,
                "significant": bool(p < alpha),
            }
        )
    payload = {
        "header": _header("compare", seed, opt),
        "alternative": opt["alternative"],
        "alpha": alpha,
        "apfd": {"treatment": treatment.apfd, "baseline": baseline.apfd},
        "sizes": rows,
    }
    _write_json(opt["out"], payload)
    return 0


_SYNTH_DEFAULTS = {
    "mrs": None,
    "mutants": None,
    "kill_prob": "0.3",
    "times": "1.0",
    "out_kills": "kills.csv",
    "out_times": "times.csv",
    "seed": DEFAULT_SEED,
}


def _parse_prob_spec(text: str, n: int):
    parts = [p for p in str(text).split(",") if p != ""]
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise InputError(f"bad kill probability spec {text!r}") from None
    if len(values) == 1:
        return values[0]
    if len(values) != n:
        raise InputError(f"kill_prob needs 1 or {n} values, got {len(values)}")
    return values


def _parse_time_spec(text: str, n: int):
    text = str(text)
    if ":" in text:
        lo, _, hi = text.partition(":")
        try:
            return (float(lo), float(hi))
        except ValueError:
            raise InputError(f"bad time range {text!r}") from None
    values = _parse_prob_spec(text, n)
    return values


def cmd_synth(args: argparse.Namespace) -> int:
    opt = _resolve(args, _load_config(args.config), _SYNTH_DEFAULTS)
    if opt["mrs"] is None or opt["mutants"] is None:
        raise InputError("synth needs --mrs and --mutants")
    n_mrs = int(opt["mrs"])
    seed = int(opt["seed"])
    km = synth_kill_matrix(
        n_mrs,
        int(opt["mutants"]),
        kill_prob=_parse_prob_spec(opt["kill_prob"], n_mrs),
        times=_parse_time_spec(opt["times"], n_mrs),
        seed=seed,
    )
    comment = f"# mrprior synth seed={seed}"
    save_kill_matrix(km, opt["out_kills"], opt["out_times"], comment=comment)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrprior",
        description="Prioritize metamorphic relations by data diversity and "
        "evaluate orderings against mutant kill matrices.",
    )
    parser.add_argument("--version", action="version", version=f"mrprior {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prioritize", help="rank a catalog of MRs by a diversity metric")
    p.add_argument("--config")
    p.add_argument("--dataset")
    p.add_argument("--format", choices=("csv", "arff"))
    p.add_argument("--no-header", action="store_const", const=True, dest="no_header")
    p.add_argument("--class-column")
    p.add_argument("--catalog")
    p.add_argument("--followup-dir")
    p.add_argument("--metric", choices=METRICS)
    p.add_argument("--out")
    p.add_argument("--diagnostics")
    p.add_argument("--top-n", type=int, dest="top_n")
    p.add_argument("--seed", type=int)
    p.add_argument("--bins", type=int)
    p.add_argument("--beam-width", type=int, dest="beam_width")
    p.add_argument("--min-covered", type=int, dest="min_covered")
    p.add_argument("--max-conditions", type=int, dest="max_conditions")
    p.add_argument("--knn-k", type=int, dest="knn_k")
    p.add_argument("--contamination", type=float)
    p.add_argument("--kmeans-k", type=int, dest="kmeans_k")
    p.add_argument("--kmeans-max-iters", type=int, dest="kmeans_max_iters")
    p.add_argument(
        "--no-standardize", action="store_const", const=False, dest="standardize"
    )
    p.set_defaults(func=cmd_prioritize)

    p = sub.add_parser("evaluate", help="evaluate one ordering against a kill matrix")
    p.add_argument("--config")
    p.add_argument("--ranking")
    p.add_argument("--order")
    p.add_argument("--kills")
    p.add_argument("--times")
    p.add_argument("--thresholds", type=float, nargs="+")
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("baseline", help="random or coverage-greedy baseline")
    p.add_argument("mode", choices=("random", "coverage"))
    p.add_argument("--config")
    p.add_argument("--kills")
    p.add_argument("--times")
    p.add_argument("--coverage")
    p.add_argument("--runs", type=int)
    p.add_argument("--exhaustive", action="store_const", const=True)
    p.add_argument("--thresholds", type=float, nargs="+")
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("compare", help="compare two evaluation reports")
    p.add_argument("--config")
    p.add_argument("--treatment")
    p.add_argument("--baseline")
    p.add_argument("--alternative", choices=("greater", "two-sided"))
    p.add_argument("--iterations", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("synth", help="generate a synthetic kill matrix")
    p.add_argument("--config")
    p.add_argument("--mrs", type=int)
    p.add_argument("--mutants", type=int)
    p.add_argument("--kill-prob", dest="kill_prob")
    p.add_argument("--times")
    p.add_argument("--out-kills", dest="out_kills")
    p.add_argument("--out-times", dest="out_times")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ApplicabilityError as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 4
    except MrPriorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
