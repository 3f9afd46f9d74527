"""Command line front end.

Subcommands: prioritize, evaluate, baseline (random | coverage), compare,
synth.  ``build_parser`` declares every option once, with its type, choices
and default; the metric defaults come from ``MetricParams``.  Options may
also come from a JSON config file (--config): the subcommand's own parser
reads its entries, with the same types and choices as the flags, and makes
them that subcommand's defaults, so explicit flags win on conflict.  Switches
take JSON true/false, only --thresholds takes an array, and positional
arguments (baseline's mode) come from the command line.  Exit codes: 0
success, 2 bad input, 3 metric or transform not applicable, 4 internal
invariant violation.

Every output file records the resolved master seed: JSON outputs carry it in
their "header" object, with every resolved, typed option; CSV outputs carry
it in a leading ``#`` comment line.  Reruns with identical inputs and options
produce byte-identical files.

Each subcommand imports the modules it runs when it runs: at module level
this file loads only what the parser needs, so ``evaluate`` never loads the
dataset layer or a metric, and ``prioritize`` loads only its metric.  Only
``prioritize --followup-dir`` loads ``multiprocessing``: it parses its files
in forked worker processes (``_parsed_in_workers``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import deque
from contextlib import ExitStack, contextmanager
from dataclasses import fields, replace
from functools import partial
from itertools import islice
from typing import TYPE_CHECKING, Iterator

from . import __version__
from .errors import ApplicabilityError, InputError, InvariantError
# the parser's metric names and defaults; score_catalog comes from the same module
from .metrics import METRICS, MetricParams, score_catalog

if TYPE_CHECKING:
    from .dataset import Dataset

DEFAULT_SEED = MetricParams.seed


# ---------------------------------------------------------------------------
# option plumbing
# ---------------------------------------------------------------------------

def _read_json(path: str, kind: str = ""):
    from .inputs import input_lines

    text = "".join(input_lines(path, kind))
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{kind}{path} is not valid JSON: {exc}") from exc


def _config_defaults(command: argparse.ArgumentParser, args: argparse.Namespace) -> dict:
    """The --config entries, typed by the subcommand's own parser."""
    path = args.config
    data = _read_json(path, "config ")
    if not isinstance(data, dict):
        raise InputError(f"config {path} must hold a JSON object")
    options = {
        a.dest: a for a in command._actions
        if a.option_strings and a.dest not in ("help", "config")
    }
    unknown = sorted(set(data) - set(options))
    if unknown:
        raise InputError(f"config has unknown keys {unknown}")
    # positional arguments (baseline's mode) come from the command line
    argv = [getattr(args, a.dest) for a in command._actions if not a.option_strings]
    for key, value in data.items():
        action = options[key]
        flag = action.option_strings[0]
        if action.nargs == 0:   # a switch
            if not isinstance(value, bool):
                raise InputError(f"config {path}: {key} must be true or false, "
                                 f"got {json.dumps(value)}")
            if value == action.const:
                argv.append(flag)
            continue
        many = action.nargs == "+"
        items = value if many and isinstance(value, list) else [value]
        if any(type(item) not in (str, int, float) for item in items):
            raise InputError(f"config {path}: {key} must be a string or a number, "
                             f"got {json.dumps(value)}")
        # "--flag=value" keeps a value that starts with "-" from reading as a flag
        argv += [flag, *map(str, items)] if many else [f"{flag}={value}"]
    command.exit_on_error = False
    try:
        parsed = command.parse_args(argv)
    except argparse.ArgumentError as exc:
        raise InputError(f"config {path}: {exc}") from None
    finally:
        command.exit_on_error = True
    return {key: getattr(parsed, key) for key in data}


def _seed(text: str) -> int:
    """The type of every --seed option: a non-negative integer."""
    try:
        seed = int(text)
    except ValueError:   # the message argparse gives for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def _finite(text: str) -> float:
    """The type of a float option that is copied into the output: a finite float."""
    try:
        value = float(text)
    except ValueError:   # the message argparse gives for type=float
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _write_json(*outputs: tuple[str, dict]) -> None:
    """Write each (path, payload) as JSON, encoding every payload first: a
    non-finite number is a bug, and then no file is written."""
    texts = []
    for path, payload in outputs:
        try:
            texts.append((path, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)))
        except ValueError as exc:
            raise InvariantError(f"cannot write {path}: {exc}") from None
    for path, text in texts:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _header(command: str, args: argparse.Namespace) -> dict:
    options = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("command", "config", "func")
    }
    return {"tool": "mrprior", "version": __version__, "command": command,
            "seed": args.seed, "options": options}


def _load_dataset(path: str, fmt: str | None, header: bool, class_column) -> Dataset:
    from .dataset import load_arff, load_csv

    if fmt is None:
        fmt = "arff" if path.lower().endswith(".arff") else "csv"
    if fmt == "arff":
        return load_arff(path, class_column if class_column is not None else "last")
    return load_csv(path, header=header, class_column=class_column)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _followup_files(directory: str) -> dict[str, str]:
    """MR id -> path of each .csv and .arff file in *directory*, in filename
    order; the MR id is the name without its extension."""
    try:
        names = sorted(os.listdir(directory))
    except OSError as exc:
        raise InputError(f"cannot list {directory}: {exc}") from exc
    files: dict[str, str] = {}
    for name in names:
        if not name.lower().endswith((".csv", ".arff")):
            continue
        mr_id = os.path.splitext(name)[0]
        if mr_id in files:
            raise InputError(f"{directory}: {files[mr_id]} and {name} "
                             f"both give the MR id {mr_id!r}")
        files[mr_id] = name
    if not files:
        raise InputError(f"{directory}: no .csv or .arff follow-up files")
    return {mr_id: os.path.join(directory, name) for mr_id, name in files.items()}


def _exit_with_parent(parent: int) -> None:
    """Worker initializer: end the worker once *parent* has died."""
    import threading
    import time

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.2)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


@contextmanager
def _parsed_in_workers(paths: list[str], load) -> Iterator[Iterator[Dataset]]:
    """The datasets ``load(path)`` makes of *paths*, in order, parsed in
    worker processes.

    One forked worker per CPU this process may run on, and no more than
    files.  The workers are forked, and the jobs submitted, on entry, so
    that the caller's own work overlaps them; the CLI enters before it
    imports numpy, so it forks while it has one thread.  Each worker holds
    at most one job, so at most that many parsed datasets wait beside the
    one drawn.  Each is rebuilt here as a Dataset with read-only columns,
    which runs its validation again.  An error of a file is raised when
    that file's dataset is drawn.  On exit the jobs not started are
    cancelled and the workers are joined; a worker whose parent dies ends
    itself.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    workers = min(len(paths), len(os.sched_getaffinity(0)))
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               initializer=_exit_with_parent, initargs=(os.getpid(),))
    try:
        todo = iter(paths)
        jobs = deque(pool.submit(load, path) for path in islice(todo, workers))

        def datasets() -> Iterator[Dataset]:
            from .dataset import read_only

            while jobs:
                parsed = jobs.popleft().result()
                jobs.extend(pool.submit(load, path) for path in islice(todo, 1))
                yield replace(parsed, columns=tuple(map(read_only, parsed.columns)))
                del parsed   # hold no follow-up while the next one is awaited

        yield datasets()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def cmd_prioritize(args: argparse.Namespace) -> int:
    if not args.dataset:
        raise InputError("prioritize needs --dataset")
    if not args.metric:
        raise InputError("prioritize needs --metric")
    if bool(args.catalog) == bool(args.followup_dir):
        raise InputError("prioritize needs exactly one of --catalog or --followup-dir")

    from .inputs import index_or_name

    load = partial(_load_dataset, fmt=args.format, header=not args.no_header,
                   class_column=index_or_name(args.class_column) if args.class_column else None)
    with ExitStack() as stack:
        listing_error = None
        if args.followup_dir:
            # the follow-ups start parsing before the source does; an error of
            # the source still comes first, and then one of the listing
            try:
                files = _followup_files(args.followup_dir)
            except InputError as exc:
                listing_error = exc
            else:
                followups = stack.enter_context(
                    _parsed_in_workers(list(files.values()), load))
        source = load(args.dataset)
        if listing_error is not None:
            raise listing_error

        from .catalog import build_pairs, load_catalog, pair_from_files
        from .prioritizer import normalize, rank, top_n

        if args.catalog:
            pairs = build_pairs(load_catalog(args.catalog), source)
        else:
            # one follow-up per pair drawn, in filename order; map names none,
            # so nothing holds it while the next one is awaited
            pairs = map(lambda mr_id, followup: pair_from_files(mr_id, mr_id, source, followup),
                        files, followups)
        params = MetricParams(**{f.name: getattr(args, f.name) for f in fields(MetricParams)})
        scores = normalize(score_catalog(pairs, args.metric, params,
                                         diagnostics=bool(args.diagnostics)))
    ranking = rank(scores)

    payload = {
        "header": _header("prioritize", args),
        "ranking": ranking.to_dict(),
    }
    if args.top_n is not None:
        payload["top_n"] = list(top_n(ranking, args.top_n))
    outputs = [(args.out, payload)]
    if args.diagnostics:
        outputs.append((args.diagnostics, {
            "header": _header("prioritize", args),
            "scores": [s.to_dict() for s in scores],
        }))
    _write_json(*outputs)
    return 0


def _read_ordering(args: argparse.Namespace) -> list[str]:
    if bool(args.ranking) == bool(args.order):
        raise InputError("evaluate needs exactly one of --ranking or --order")
    path = args.ranking or args.order
    data = _read_json(path)
    if args.ranking:
        try:
            entries = data["ranking"]["entries"]
            ordering = [e["mr_id"] for e in sorted(entries, key=lambda e: e["rank"])]
        except (KeyError, TypeError) as exc:
            raise InputError(f"{path}: malformed ranking file: {exc}") from exc
    else:
        ordering = data.get("ordering") if isinstance(data, dict) else None
        if not isinstance(ordering, list) or not all(isinstance(m, str) for m in ordering):
            raise InputError(f"{path}: malformed ordering file")
    if not ordering:
        raise InputError(f"{path}: empty ordering")
    return ordering


def _default_thresholds(args: argparse.Namespace) -> None:
    """Fill in --thresholds, when it was not given, before the header echoes it.

    Its default is the evaluation module's, which the parser does not import.
    """
    from .evaluation import DEFAULT_THRESHOLDS

    if args.thresholds is None:
        args.thresholds = list(DEFAULT_THRESHOLDS)


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .evaluation import evaluate_ordering, load_kill_matrix

    _default_thresholds(args)
    if not args.kills or not args.times:
        raise InputError("evaluate needs --kills and --times")
    ordering = _read_ordering(args)
    km = load_kill_matrix(args.kills, args.times)
    report = evaluate_ordering(ordering, km, args.thresholds)
    payload = {
        "header": _header("evaluate", args),
        "report": report.to_dict(),
    }
    _write_json((args.out, payload))
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    from .evaluation import (
        coverage_greedy,
        load_coverage_matrix,
        load_kill_matrix,
        random_baseline,
    )

    _default_thresholds(args)
    if args.mode == "random":
        if not args.kills or not args.times:
            raise InputError("baseline random needs --kills and --times")
        km = load_kill_matrix(args.kills, args.times)
        report = random_baseline(
            km,
            runs=args.runs,
            seed=args.seed,
            thresholds=args.thresholds,
            exhaustive=args.exhaustive,
        )
        payload = {
            "header": _header("baseline random", args),
            "report": report.to_dict(),
        }
        _write_json((args.out or "baseline_random.json", payload))
        return 0
    if not args.coverage:
        raise InputError("baseline coverage needs --coverage")
    cov = load_coverage_matrix(args.coverage)
    ordering = coverage_greedy(cov)
    payload = {
        "header": _header("baseline coverage", args),
        "ordering": list(ordering),
    }
    _write_json((args.out or "baseline_coverage.json", payload))
    return 0


def _load_report(path: str):
    from .evaluation import report_from_dict

    data = _read_json(path)
    if not isinstance(data, dict) or "report" not in data:
        raise InputError(f"{path}: not an evaluation report file")
    return report_from_dict(data["report"])


def cmd_compare(args: argparse.Namespace) -> int:
    from .evaluation import permutation_test, relative_improvement

    if not args.treatment or not args.baseline:
        raise InputError("compare needs --treatment and --baseline")
    if not 0 < args.alpha <= 1:
        raise InputError(f"alpha must be in (0, 1], got {args.alpha}")
    # checked here too: with 20 mutants or fewer the test is exact and never reads it
    if args.iterations < 1:
        raise InputError(f"iterations must be >= 1, got {args.iterations}")
    treatment = _load_report(args.treatment)
    baseline = _load_report(args.baseline)
    if len(treatment.curve) != len(baseline.curve):
        raise InputError("reports cover different MR-set sizes")
    if treatment.mutant_ids != baseline.mutant_ids:
        raise InputError("reports cover different mutant sets")

    rows = []
    improvements = relative_improvement(treatment.curve, baseline.curve)
    # one column per MR-set size, all tested against one sign-flip null
    p_values = permutation_test(
        treatment.detection.T,
        baseline.detection.T,
        alternative=args.alternative,
        iterations=args.iterations,
        seed=args.seed,
    )
    for m, p in enumerate(p_values):
        rows.append(
            {
                "size": m + 1,
                "treatment": treatment.curve[m],
                "baseline": baseline.curve[m],
                "improvement_pct": improvements[m],
                "p_value": p,
                "significant": bool(p < args.alpha),
            }
        )
    payload = {
        "header": _header("compare", args),
        "alternative": args.alternative,
        "alpha": args.alpha,
        "apfd": {"treatment": treatment.apfd, "baseline": baseline.apfd},
        "sizes": rows,
    }
    _write_json((args.out, payload))
    return 0


def _parse_prob_spec(text: str, n: int):
    parts = [p for p in text.split(",") if p != ""]
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
    if ":" in text:
        lo, _, hi = text.partition(":")
        try:
            return (float(lo), float(hi))
        except ValueError:
            raise InputError(f"bad time range {text!r}") from None
    return _parse_prob_spec(text, n)


def cmd_synth(args: argparse.Namespace) -> int:
    from .evaluation import save_kill_matrix, synth_kill_matrix

    if args.mrs is None or args.mutants is None:
        raise InputError("synth needs --mrs and --mutants")
    km = synth_kill_matrix(
        args.mrs,
        args.mutants,
        kill_prob=_parse_prob_spec(args.kill_prob, args.mrs),
        times=_parse_time_spec(args.times, args.mrs),
        seed=args.seed,
    )
    comment = f"# mrprior synth seed={args.seed}"
    save_kill_matrix(km, args.out_kills, args.out_times, comment=comment)
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

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config")
        p.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
        p.set_defaults(func=func)
        return p

    m = MetricParams
    p = command("prioritize", cmd_prioritize, "rank a catalog of MRs by a diversity metric")
    p.add_argument("--dataset")
    p.add_argument("--format", choices=("csv", "arff"))
    p.add_argument("--no-header", action="store_true")
    p.add_argument("--class-column")
    p.add_argument("--catalog")
    p.add_argument("--followup-dir")
    p.add_argument("--metric", choices=METRICS)
    p.add_argument("--out", default="ranking.json")
    p.add_argument("--diagnostics")
    p.add_argument("--top-n", type=int)
    p.add_argument("--bins", type=int, default=m.bins)
    p.add_argument("--beam-width", type=int, default=m.beam_width)
    p.add_argument("--min-covered", type=int, default=m.min_covered)
    p.add_argument("--max-conditions", type=int, default=m.max_conditions)
    p.add_argument("--knn-k", type=int, default=m.knn_k)
    p.add_argument("--contamination", type=_finite, default=m.contamination)
    p.add_argument("--kmeans-k", type=int, default=m.kmeans_k)
    p.add_argument("--kmeans-max-iters", type=int, default=m.kmeans_max_iters)
    p.add_argument("--no-standardize", action="store_false", dest="standardize",
                   default=m.standardize)

    thresholds = {"type": float, "nargs": "+"}   # default: see _default_thresholds
    p = command("evaluate", cmd_evaluate, "evaluate one ordering against a kill matrix")
    p.add_argument("--ranking")
    p.add_argument("--order")
    p.add_argument("--kills")
    p.add_argument("--times")
    p.add_argument("--thresholds", **thresholds)
    p.add_argument("--out", default="report.json")

    p = command("baseline", cmd_baseline, "random or coverage-greedy baseline")
    p.add_argument("mode", choices=("random", "coverage"))
    p.add_argument("--kills")
    p.add_argument("--times")
    p.add_argument("--coverage")
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--thresholds", **thresholds)
    p.add_argument("--out")   # default depends on the mode

    p = command("compare", cmd_compare, "compare two evaluation reports")
    p.add_argument("--treatment")
    p.add_argument("--baseline")
    p.add_argument("--alternative", choices=("greater", "two-sided"), default="greater")
    p.add_argument("--iterations", type=int, default=10000)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out", default="comparison.json")

    p = command("synth", cmd_synth, "generate a synthetic kill matrix")
    p.add_argument("--mrs", type=int)
    p.add_argument("--mutants", type=int)
    p.add_argument("--kill-prob", default="0.3")
    p.add_argument("--times", default="1.0")
    p.add_argument("--out-kills", default="kills.csv")
    p.add_argument("--out-times", default="times.csv")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            # argparse has no public way back to a subcommand's parser
            (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            command = sub.choices[args.command]
            command.set_defaults(**_config_defaults(command, args))
            args = parser.parse_args(argv)
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


if __name__ == "__main__":
    sys.exit(main())
