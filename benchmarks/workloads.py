"""Seeded inputs and call plans for the benchmark workloads.

Every input comes from this module's own generator, seeded from the
benchmark's ``--seed``.  Nothing here calls mrprior (no ``save_csv``,
``synth`` or ``apply_mr``), so a change to the program cannot change the
inputs it is measured on.

A workload is a list of CLI calls (one "round").  The runner repeats the
round in a closed loop with one client: the next call starts only after
the previous one has exited.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

# The identity MR: its follow-up equals the source, so the checks require a
# raw score of exactly 0.0 under every metric.
IDENTITY_ID = "MR01"

WORKLOADS = ("paper-500", "outliers-2k", "rows-30k")

SUBJECT_SEED = 2209


@dataclass
class Table:
    """Generated table: float columns (nan = missing) and str columns (None = missing)."""

    names: list[str]
    columns: list[np.ndarray]
    label: str

    @property
    def n_rows(self) -> int:
        return len(self.columns[0])

    def is_numeric(self, j: int) -> bool:
        return self.columns[j].dtype.kind == "f"

    def take(self, rows: np.ndarray) -> "Table":
        return Table(list(self.names), [c[rows] for c in self.columns], self.label)


@dataclass
class Call:
    """One CLI call: its argv (after ``mrprior``) and what its output must satisfy."""

    label: str            # e.g. prioritize_rule, evaluate, baseline_random, compare
    argv: list[str]
    out: str              # output file the call writes
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    calls: list[Call]
    kill_matrix: tuple   # (mr_ids, mutant_ids, kills bool array, exec times)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def labelled_table(
    rng: np.random.Generator,
    n_rows: int,
    n_numeric: int,
    n_nominal: int,
    n_classes: int,
    missing: float = 0.0,
    outlier_share: float = 0.0,
) -> Table:
    """Class-dependent numeric and nominal columns plus a nominal label.

    Numeric columns mix one Gaussian per class; nominal columns agree with
    the class 60 % of the time.  ``outlier_share`` of the rows get every
    numeric cell moved to 6 standard deviations from its column mean.
    """
    centers = rng.normal(0.0, 3.0, size=(n_classes, n_numeric))
    scales = rng.uniform(0.5, 20.0, size=n_numeric)
    offsets = rng.uniform(-50.0, 50.0, size=n_numeric)
    labels = rng.integers(n_classes, size=n_rows)
    numeric = (centers[labels] + rng.normal(0.0, 1.5, size=(n_rows, n_numeric))) * scales + offsets
    n_out = int(round(outlier_share * n_rows))
    if n_out:
        rows = rng.choice(n_rows, size=n_out, replace=False)
        signs = rng.choice((-1.0, 1.0), size=(n_out, n_numeric))
        numeric[rows] = numeric.mean(axis=0) + 6.0 * numeric.std(axis=0) * signs

    names, columns = [], []
    for j in range(n_numeric):
        names.append(f"n{j}")
        columns.append(numeric[:, j].copy())
    for j in range(n_nominal):
        agree = rng.random(n_rows) < 0.6
        codes = np.where(agree, labels % 3, rng.integers(3, size=n_rows))
        names.append(f"s{j}")
        columns.append(np.array([f"s{j}_{'abc'[c]}" for c in codes], dtype=object))
    if missing:
        for col in columns:
            holes = rng.random(n_rows) < missing
            holes[rng.integers(n_rows)] = False   # no column is all missing
            col[holes] = np.nan if col.dtype.kind == "f" else None
    names.append("label")
    columns.append(np.array([f"c{c}" for c in labels], dtype=object))
    return Table(names, columns, "label")


def write_csv(table: Table, path: str) -> None:
    """Header row, then one line per row; missing cells are ``?``."""
    cells = []
    for j, col in enumerate(table.columns):
        if table.is_numeric(j):
            cells.append(["?" if v != v else repr(float(v)) for v in col.tolist()])
        else:
            cells.append(["?" if v is None else v for v in col.tolist()])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(table.names) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))


# ---------------------------------------------------------------------------
# catalog and benchmark-side follow-ups (one per transform)
# ---------------------------------------------------------------------------

def catalog_lines(rng: np.random.Generator, n_classes: int, extra_shift: bool) -> list[str]:
    """One MR per transform (all 11), plus a shift MR when *extra_shift*.

    ``relabel_classes`` uses a full cyclic permutation of the class values.
    """
    classes = [f"c{i}" for i in range(n_classes)]
    seeds = [int(s) for s in rng.integers(1, 10**6, size=5)]
    relabel = ",".join(f"{c}:{classes[(i + 1) % n_classes]}" for i, c in enumerate(classes))
    informative = ",".join(f"{c}:{i}" for i, c in enumerate(classes))
    lines = [
        f"{IDENTITY_ID} identity identity",
        f"MR02 permute_attrs permute_attributes seed={seeds[0]}",
        f"MR03 shuffle permute_instances seed={seeds[1]}",
        "MR04 scale affine_numeric scale=2 shift=0",
        "MR05 constant add_uninformative_attribute value=1",
        f"MR06 informative add_informative_attribute map={informative}",
        f"MR07 duplicate duplicate_instances fraction=0.1 seed={seeds[2]}",
        f"MR08 remove remove_instances fraction=0.1 seed={seeds[3]}",
        f"MR09 drop_class remove_class label={classes[-1]}",
        f"MR10 relabel relabel_classes map={relabel}",
        f"MR11 add_points add_data_points count=40 seed={seeds[4]}",
    ]
    if extra_shift:
        lines.append("MR12 shift affine_numeric shift=7")
    return lines


def followup_tables(rng: np.random.Generator, source: Table) -> dict[str, Table]:
    """The 11 transforms of the catalog, done here on the generated table."""
    n = source.n_rows
    label_j = source.names.index(source.label)
    numeric = [j for j in range(len(source.names)) if source.is_numeric(j)]
    labels = source.columns[label_j]
    classes = sorted(set(labels.tolist()))

    def with_column(name: str, col: np.ndarray) -> Table:
        names = source.names[:label_j] + [name] + source.names[label_j:]
        cols = source.columns[:label_j] + [col] + source.columns[label_j:]
        return Table(names, cols, source.label)

    out: dict[str, Table] = {IDENTITY_ID: source}
    order = list(rng.permutation(label_j)) + list(range(label_j, len(source.names)))
    out["MR02"] = Table([source.names[j] for j in order], [source.columns[j] for j in order],
                        source.label)
    out["MR03"] = source.take(rng.permutation(n))
    scaled = [c * 2.0 if source.is_numeric(j) else c for j, c in enumerate(source.columns)]
    out["MR04"] = Table(list(source.names), scaled, source.label)
    out["MR05"] = with_column("uninformative", np.ones(n))
    codes = {c: float(i) for i, c in enumerate(classes)}
    out["MR06"] = with_column("informative", np.array([codes[v] for v in labels.tolist()]))
    extra = rng.choice(n, size=int(round(0.1 * n)), replace=False)
    out["MR07"] = source.take(np.concatenate([np.arange(n), extra]))
    drop = rng.choice(n, size=int(round(0.1 * n)), replace=False)
    out["MR08"] = source.take(np.setdiff1d(np.arange(n), drop))
    out["MR09"] = source.take(np.flatnonzero(labels != classes[-1]))
    cycle = {c: classes[(i + 1) % len(classes)] for i, c in enumerate(classes)}
    relabelled = list(source.columns)
    relabelled[label_j] = np.array([cycle[v] for v in labels.tolist()], dtype=object)
    out["MR10"] = Table(list(source.names), relabelled, source.label)
    added = []
    for j, col in enumerate(source.columns):
        if j in numeric:
            lo, hi = np.nanmin(col), np.nanmax(col)
            added.append(np.concatenate([col, rng.uniform(lo, hi, size=40)]))
        else:
            values = sorted({v for v in col.tolist() if v is not None})
            picks = np.array([values[i] for i in rng.integers(len(values), size=40)],
                             dtype=object)
            added.append(np.concatenate([col, picks]))
    out["MR11"] = Table(list(source.names), added, source.label)
    return out


# ---------------------------------------------------------------------------
# kill matrices
# ---------------------------------------------------------------------------

def kill_matrix(rng, mr_ids, n_mutants, prob_range):
    """Per-MR kill probability drawn from *prob_range*; times from 0.5-2.0 s."""
    probs = rng.uniform(*prob_range, size=len(mr_ids))
    kills = rng.random((len(mr_ids), n_mutants)) < probs[:, None]
    if not kills.any():
        kills[0, 0] = True
    times = rng.uniform(0.5, 2.0, size=len(mr_ids))
    mutant_ids = [f"m{j + 1}" for j in range(n_mutants)]
    return list(mr_ids), mutant_ids, kills, times


def write_kill_matrix(km, kills_path: str, times_path: str) -> None:
    mr_ids, mutant_ids, kills, times = km
    with open(kills_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["mr_id", *mutant_ids]) + "\n")
        for mr_id, row in zip(mr_ids, kills):
            fh.write(",".join([mr_id, *("1" if v else "0" for v in row)]) + "\n")
    with open(times_path, "w", encoding="utf-8") as fh:
        fh.write("mr_id,exec_seconds\n")
        for mr_id, t in zip(mr_ids, times):
            fh.write(f"{mr_id},{float(t)!r}\n")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _prioritize(metric: str, source: str, followups: str, out: str, ids, from_dir: bool):
    flag = "--followup-dir" if from_dir else "--catalog"
    return Call(
        f"prioritize_{metric}",
        ["prioritize", "--dataset", source, "--class-column", "label", flag, followups,
         "--metric", metric, "--seed", "0", "--out", out],
        out,
        {"ids": sorted(ids), "identity": IDENTITY_ID},
    )


def _evaluation(work: str, km, order_flag: str, order_path: str, runs: int) -> list[Call]:
    kills, times = os.path.join(work, "kills.csv"), os.path.join(work, "times.csv")
    write_kill_matrix(km, kills, times)
    report = os.path.join(work, "eval.json")
    base = os.path.join(work, "baseline.json")
    cmp_out = os.path.join(work, "compare.json")
    return [
        Call("evaluate", ["evaluate", order_flag, order_path, "--kills", kills,
                          "--times", times, "--out", report], report,
             {"order_file": order_path}),
        Call("baseline_random", ["baseline", "random", "--kills", kills, "--times", times,
                                 "--runs", str(runs), "--seed", "0", "--out", base], base,
             {"runs": runs}),
        Call("compare", ["compare", "--treatment", report, "--baseline", base,
                         "--seed", "0", "--out", cmp_out], cmp_out,
             {"sizes": len(km[0])}),
    ]


def build(name: str, seed: int, work: str) -> Workload:
    """Generate the inputs of workload *name* under *work* and return its round.

    ``smoke`` is the self-tests' workload: every metric, both follow-up paths
    and all three evaluation calls on tiny inputs.
    """
    names = WORKLOADS + ("smoke",)
    if name not in names:
        raise ValueError(f"unknown workload {name!r}; choose one of {WORKLOADS}")
    rng = np.random.default_rng([seed, names.index(name)])
    # Each workload's subject table is the same for every seed; the seed
    # orders its rows and draws the catalog, the follow-ups and the kill
    # matrix.  CN2's work (candidate rules scored) differs by about 20 %
    # between random 500-row samples and by about 1 % between row orders.
    subject = np.random.default_rng([SUBJECT_SEED, names.index(name)])
    if name == "paper-500":
        table, n_classes = labelled_table(subject, 500, 6, 2, 3, missing=0.03), 3
        via_catalog, via_dir = ("rule", "anomaly", "clustering", "distribution"), ()
    elif name == "outliers-2k":
        table, n_classes = labelled_table(subject, 2000, 8, 0, 2, outlier_share=0.02), 2
        via_catalog, via_dir = ("anomaly",), ()
    elif name == "rows-30k":
        table, n_classes = labelled_table(subject, 30000, 8, 1, 3), 3
        via_catalog, via_dir = ("distribution",), ("clustering",)
    else:
        table, n_classes = labelled_table(subject, 60, 3, 1, 3, missing=0.03), 3
        via_catalog, via_dir = ("rule", "anomaly", "distribution"), ("clustering",)
    table = table.take(rng.permutation(table.n_rows))

    os.makedirs(work, exist_ok=True)
    source = os.path.join(work, "source.csv")
    write_csv(table, source)
    catalog = os.path.join(work, "catalog.txt")
    lines = catalog_lines(rng, n_classes, extra_shift=name != "rows-30k")
    with open(catalog, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    ids = [line.split()[0] for line in lines]
    calls = [
        _prioritize(m, source, catalog, os.path.join(work, f"rank_{m}.json"), ids, False)
        for m in via_catalog
    ]
    if via_dir:
        followup_dir = os.path.join(work, "followups")
        os.makedirs(followup_dir, exist_ok=True)
        for mr_id, followup in followup_tables(rng, table).items():
            write_csv(followup, os.path.join(followup_dir, f"{mr_id}.csv"))
        calls += [
            _prioritize(m, source, followup_dir, os.path.join(work, f"rank_{m}.json"),
                        ids[:11], True)
            for m in via_dir
        ]

    if name == "rows-30k":
        km = kill_matrix(rng, [f"K{i + 1:02d}" for i in range(50)], 500, (0.025, 0.075))
        order = os.path.join(work, "order.json")
        with open(order, "w", encoding="utf-8") as fh:
            json.dump({"ordering": [km[0][i] for i in rng.permutation(50)]}, fh)
        evaluation = _evaluation(work, km, "--order", order, runs=1000)
    else:
        km = kill_matrix(rng, ids, 40, (0.05, 0.4))
        evaluation = _evaluation(work, km, "--ranking", calls[0].out,
                                 runs=20 if name == "smoke" else 100)
    # Alternate prioritize and evaluation calls, and run the short evaluation
    # calls twice, so that each call is sampled at more than one moment of a
    # round; a rows-30k run has time for only one round.
    mixed = [c for pair in zip(calls, evaluation) for c in pair]
    n = min(len(calls), len(evaluation))
    return Workload(name, mixed + calls[n:] + evaluation[n:] + evaluation, km)
