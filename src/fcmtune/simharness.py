"""Simulation harness: profile sweeps (exp1) and the full selection
pipeline (exp2) over generated sequences, with the summary statistics the
selection procedure is judged by.

Runs are deterministic: every replica derives its RNG stream from the base
seed and its own indices, aggregation order is fixed, and floats are written
with shortest-roundtrip repr, so identical configs produce byte-identical
output files regardless of worker scheduling.

Output files (exp2): ``confusion_T*.csv``, ``alpha_stats.csv``,
``dispersion.csv``, ``report.json``, ``summary.txt``; (exp1): per-cell
profile CSVs and per-cell five-number summaries under ``profiles/``.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, fields
from functools import partial

import numpy as np

from .alpha_ml import fit_alpha
from .dependence import MEASURES, profile
from .fcm import HyperParams, build_counts, generate
from .tuner import compare

EXPERIMENTS = ("exp1_profiles", "exp2_pipeline")

REPORT_SCHEMA = "fcmtune-exp2-report/2"

DISPERSION_COLUMNS = (
    "replica", "T", "k", "alpha", "k_star", "alpha_star_kstar",
    "alpha_star_k", "bps_true", "bps_two_step", "bps_grid", "k_grid",
    "alpha_grid", "k_match", "evals_two_step", "evals_grid",
)


class SimError(Exception):
    """Raised for invalid experiment configurations."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's grid, scale, and seeding.

    exp1_profiles sweeps k_set x alpha_set x t_set cells with `replicas`
    sequences each and records dependence profiles. exp2_pipeline draws
    `replicas` (k, alpha) pairs from the lattice k_set x {0, alpha_step,
    ..., 1} (redrawing alpha = 0, which cannot generate) and, at every T in
    t_set, compares two-step selection with the grid search.
    """

    experiment: str
    k_set: tuple = tuple(range(1, 11))
    alpha_set: tuple = (0.1, 0.5, 0.8, 1.0)
    t_set: tuple = (20_000,)
    replicas: int = 10
    base_seed: int = 0
    h_max: int = 10
    alpha_step: float = 0.005
    workers: int = 1

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise SimError(f"unknown experiment {self.experiment!r}")
        for name in ("k_set", "alpha_set", "t_set"):
            if not isinstance(getattr(self, name), (tuple, list)):
                raise SimError(f"{name} must be a sequence")
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not all(_is(numbers.Integral, v) for v in (
                self.replicas, self.base_seed, self.h_max, self.workers,
                *self.k_set, *self.t_set)):
            raise SimError("replicas, base_seed, h_max, workers, k and T "
                           "must be integers")
        if min(self.replicas, self.h_max, self.workers) < 1 or self.base_seed < 0:
            raise SimError("replicas, h_max and workers must be >= 1, base_seed >= 0")
        if min(self.k_set, default=-1) < 0 or min(self.t_set, default=0) < 1:
            raise SimError("k_set and t_set must be non-empty, k >= 0, T >= 1")
        if not all(_is(numbers.Real, a) and 0.0 < a < math.inf for a in self.alpha_set):
            raise SimError("alpha_set values must be finite and positive "
                           "(alpha = 0 cannot generate)")
        # sample_pairs draws from round(1/alpha_step) + 1 int64 lattice points
        if not (_is(numbers.Real, self.alpha_step) and 0.0 < self.alpha_step <= 1.0
                and 1.0 / self.alpha_step < 2.0 ** 63):
            raise SimError("alpha_step must be in (0, 1] with < 2**63 lattice steps")

    def to_dict(self) -> dict:
        d = asdict(self)
        for key in ("k_set", "alpha_set", "t_set"):
            d[key] = list(d[key])
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise SimError("a config must be a JSON object")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise SimError(f"unknown config keys: {', '.join(unknown)}")
        if "experiment" not in d:
            raise SimError("a config needs an 'experiment' key")
        return cls(**d)


def _is(kind, x) -> bool:
    """isinstance(x, kind), with bools excluded from the numbers."""
    return isinstance(x, kind) and not isinstance(x, bool)


def desk_config(experiment: str, base_seed: int = 0) -> ExperimentConfig:
    """Minutes-scale preset: 10 replicas/cell at T=20,000 for profiles;
    200 pipeline replicas at T in {1e3, 1e4, 1e5}."""
    if experiment == "exp1_profiles":
        return ExperimentConfig(experiment, t_set=(20_000,), replicas=10,
                                base_seed=base_seed)
    return ExperimentConfig(experiment, t_set=(1_000, 10_000, 100_000),
                            replicas=200, base_seed=base_seed)


def paper_config(experiment: str, base_seed: int = 0) -> ExperimentConfig:
    """Full-scale preset (hours): 100 replicas/cell over the 200-value
    alpha grid at T=100,000; 1,000 pipeline replicas."""
    if experiment == "exp1_profiles":
        alphas = tuple(round(i / 200, 10) for i in range(1, 201))
        return ExperimentConfig(experiment, alpha_set=alphas,
                                t_set=(100_000,), replicas=100,
                                base_seed=base_seed)
    return ExperimentConfig(experiment, t_set=(1_000, 10_000, 100_000),
                            replicas=1_000, base_seed=base_seed)


def derive_seed(base_seed: int, *ids: int) -> int:
    """Stable 63-bit stream seed from the base seed and item indices."""
    ss = np.random.SeedSequence([int(base_seed), *map(int, ids)])
    return int(ss.generate_state(1, np.uint64)[0] >> 1)


def sample_pairs(config: ExperimentConfig) -> list:
    """Draw (k, alpha) uniformly with replacement from the pair lattice.

    The alpha lattice is {0, step, ..., 1}; draws landing on alpha = 0 are
    redrawn because the adaptive generator rejects it.
    """
    steps = int(round(1.0 / config.alpha_step))
    rng = np.random.Generator(np.random.PCG64(derive_seed(config.base_seed, 17)))
    pairs = []
    while len(pairs) < config.replicas:
        k = int(config.k_set[rng.integers(len(config.k_set))])
        a = round(float(rng.integers(steps + 1)) * config.alpha_step, 10)
        if a == 0.0:
            continue
        pairs.append((k, a))
    return pairs


def pearson_r(z, a) -> float:
    """Product-moment correlation; NaN (degenerate) if either side is
    constant."""
    z = np.asarray(z, dtype=float)
    a = np.asarray(a, dtype=float)
    if z.shape != a.shape or z.size < 2:
        raise SimError("pearson_r needs two equal-length vectors, n >= 2")
    dz = z - z.mean()
    da = a - a.mean()
    denom = math.sqrt(float(dz @ dz) * float(da @ da))
    if denom == 0.0:
        return float("nan")
    return float(dz @ da) / denom


def bias(z, a) -> float:
    """Mean signed error mean(z - a), unwinsorized."""
    z = np.asarray(z, dtype=float)
    a = np.asarray(a, dtype=float)
    if z.shape != a.shape or z.size < 1:
        raise SimError("bias needs two equal-length vectors, n >= 1")
    return float(np.mean(z - a))


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts of (true k, selected k*) over replicas at one T."""

    k_values: tuple
    kstar_values: tuple
    counts: tuple

    @classmethod
    def from_rows(cls, k_true, k_star, k_values, kstar_values) -> "ConfusionMatrix":
        counts = np.zeros((len(k_values), len(kstar_values)), dtype=np.int64)
        ki = {k: i for i, k in enumerate(k_values)}
        si = {s: i for i, s in enumerate(kstar_values)}
        for k, s in zip(k_true, k_star):
            counts[ki[int(k)], si[int(s)]] += 1
        return cls(tuple(k_values), tuple(kstar_values),
                   tuple(tuple(int(c) for c in row) for row in counts))

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    @property
    def accuracy(self) -> float:
        hits = sum(row[self.kstar_values.index(k)]
                   for k, row in zip(self.k_values, self.counts)
                   if k in self.kstar_values)
        return hits / self.total if self.total else float("nan")


@dataclass(frozen=True)
class AlphaStats:
    """Table-style summary of the alpha estimates at one T, under both
    conditionings (fitted at the selected k* and at the true k)."""

    t: int
    n: int
    r_given_kstar: float
    r_given_k: float
    bias_given_kstar: float
    bias_given_k: float
    pct_gt1_given_kstar: float
    pct_gt1_given_k: float
    pct_gt5_given_kstar: float
    pct_gt5_given_k: float

    @classmethod
    def from_rows(cls, t: int, alpha_true, alpha_kstar, alpha_k) -> "AlphaStats":
        at = np.asarray(alpha_true, dtype=float)
        ks = np.asarray(alpha_kstar, dtype=float)
        kk = np.asarray(alpha_k, dtype=float)
        return cls(
            t=int(t),
            n=int(at.size),
            r_given_kstar=pearson_r(ks, at),
            r_given_k=pearson_r(kk, at),
            bias_given_kstar=bias(ks, at),
            bias_given_k=bias(kk, at),
            pct_gt1_given_kstar=float(100.0 * np.mean(ks > 1.0)),
            pct_gt1_given_k=float(100.0 * np.mean(kk > 1.0)),
            pct_gt5_given_kstar=float(100.0 * np.mean(ks > 5.0)),
            pct_gt5_given_k=float(100.0 * np.mean(kk > 5.0)),
        )


@dataclass(frozen=True)
class ExperimentReport:
    """Everything an exp2 run produced, re-renderable without recompute."""

    config: ExperimentConfig
    pairs: tuple
    rows: tuple
    failures: tuple = ()

    def rows_at(self, t: int) -> list:
        return [r for r in self.rows if r["T"] == t]

    def confusion(self, t: int) -> ConfusionMatrix:
        rows = self.rows_at(t)
        axis = tuple(sorted(set(self.config.k_set)))
        kstar_axis = tuple(range(1, self.config.h_max + 1))
        return ConfusionMatrix.from_rows([r["k"] for r in rows],
                                         [r["k_star"] for r in rows],
                                         axis, kstar_axis)

    def alpha_stats(self, t: int) -> AlphaStats:
        rows = self.rows_at(t)
        return AlphaStats.from_rows(
            t, [r["alpha"] for r in rows],
            [r["alpha_star_kstar"] for r in rows],
            [r["alpha_star_k"] for r in rows])

    def accuracy(self, t: int) -> float:
        return self.confusion(t).accuracy

    def to_json(self) -> str:
        doc = {
            "schema": REPORT_SCHEMA,
            "config": self.config.to_dict(),
            "pairs": [list(p) for p in self.pairs],
            "rows": list(self.rows),
            "failures": list(self.failures),
        }
        return json.dumps(doc, sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentReport":
        doc = json.loads(text)
        if doc.get("schema") != REPORT_SCHEMA:
            raise SimError(f"unknown report schema {doc.get('schema')!r}")
        return cls(config=ExperimentConfig.from_dict(doc["config"]),
                   pairs=tuple((int(k), float(a)) for k, a in doc["pairs"]),
                   rows=tuple(doc["rows"]),
                   failures=tuple(doc["failures"]))


def _fmt(x) -> str:
    """One CSV cell: shortest-roundtrip repr for floats (numpy's too), empty
    for None; stable across runs. A cell holding a comma, a quote or a line
    break is quoted as RFC 4180 says, with its quotes doubled."""
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(float(x))
    text = str(x)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_line(cells) -> str:
    return ",".join(map(_fmt, cells)) + "\n"


def _write(path: str, text: str) -> str:
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


def _write_csv(path: str, header, rows) -> str:
    """Write one table: the header cells, then one line per row."""
    return _write(path, "".join(map(_csv_line, [header, *rows])))


def _exp2_item(args) -> dict:
    """One (replica, T) comparison plus the alpha fit at the true k;
    top-level for process pools."""
    (replica, k, alpha, t, t_idx, base_seed, h_max) = args
    params = HyperParams(k, alpha)
    seq = generate(params, t, derive_seed(base_seed, 3, replica, t_idx))
    rec = compare(seq, params, h_max)
    fit_k = fit_alpha(build_counts(seq, k))
    return dict(zip(DISPERSION_COLUMNS, (
        replica, t, k, alpha, rec.k_star, rec.alpha_star, fit_k.alpha_star,
        rec.bps_true, rec.bps_two_step, rec.bps_grid, rec.k_grid,
        rec.alpha_grid, int(rec.k_match), rec.evaluations_two_step,
        rec.evaluations_grid)))


def _call(worker, item):
    """Run one item, catching its exception so it survives a process pool."""
    try:
        return worker(item), None
    except Exception as exc:
        return None, repr(exc)


def _run_items(worker, items, workers: int):
    """Yield (result, error) per item in item order; error is None or the
    repr of the item's exception. Runs serially when workers <= 1, else on a
    process pool whose own failures propagate."""
    call = partial(_call, worker)
    if workers <= 1:
        yield from map(call, items)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(call, items, chunksize=4)


def run_exp2(config: ExperimentConfig) -> ExperimentReport:
    """Sample pairs, compare both selections on each pair at every T,
    aggregate."""
    if config.experiment != "exp2_pipeline":
        raise SimError("run_exp2 requires an exp2_pipeline config")
    pairs = sample_pairs(config)
    items = [(replica, k, alpha, t, t_idx, config.base_seed, config.h_max)
             for t_idx, t in enumerate(config.t_set)
             for replica, (k, alpha) in enumerate(pairs)]
    rows = []
    failures = []
    for it, (row, error) in zip(items, _run_items(_exp2_item, items,
                                                  config.workers)):
        if error is None:
            rows.append(row)
        else:
            failures.append({"replica": it[0], "T": it[3], "k": it[1],
                             "alpha": it[2], "error": error})
    rows.sort(key=lambda r: (r["T"], r["replica"]))
    return ExperimentReport(config=config, pairs=tuple(pairs),
                            rows=tuple(rows), failures=tuple(failures))


def _exp1_cell(args) -> list:
    """One profile cell's replicas; top-level for process pools."""
    (k, alpha, t, cell_idx, replicas, base_seed, h_max) = args
    out = []
    for rep in range(replicas):
        seed = derive_seed(base_seed, 1, cell_idx, rep)
        seq = generate(HyperParams(k, alpha), t, seed)
        for measure in MEASURES:
            prof = profile(seq, measure, h_max)
            for lag, value in zip(prof.lags, prof.values):
                out.append((rep, measure, lag, float(value)))
    return out


def run_exp1(config: ExperimentConfig, out_dir: str) -> list:
    """Sweep the cell grid and write profile CSVs plus five-number
    summaries per (measure, lag) under ``out_dir/profiles``.

    Returns the list of written file paths. Cells run on config.workers
    processes; failures are recorded in ``profiles/failures.csv``.
    """
    if config.experiment != "exp1_profiles":
        raise SimError("run_exp1 requires an exp1_profiles config")
    pdir = os.path.join(out_dir, "profiles")
    os.makedirs(pdir, exist_ok=True)
    grid = [(k, a, t) for t in config.t_set for k in config.k_set
            for a in config.alpha_set]
    cells = [(k, a, t, i, config.replicas, config.base_seed, config.h_max)
             for i, (k, a, t) in enumerate(grid)]
    written = []
    failures = []
    for (k, alpha, t, *_), (rows, error) in zip(
            cells, _run_items(_exp1_cell, cells, config.workers)):
        if error is not None:
            failures.append((k, float(alpha), t, error))
            continue
        stem = f"k{k}_a{_fmt(float(alpha))}_T{t}"
        # rows run replica by replica, then measure, then lag
        values = np.reshape([v for *_, v in rows], (config.replicas, len(MEASURES), -1))
        q = np.percentile(values, [0, 25, 50, 75, 100], axis=0)
        written += [
            _write_csv(os.path.join(pdir, f"profile_{stem}.csv"),
                       ("replica", "measure", "lag", "value"), rows),
            _write_csv(os.path.join(pdir, f"summary_{stem}.csv"),
                       ("measure", "lag", "min", "q1", "median", "q3", "max"),
                       ((measure, lag, *map(float, q[:, i, lag - 1]))
                        for i, measure in enumerate(MEASURES)
                        for lag in range(1, config.h_max + 1)))]
    if failures:
        written.append(_write_csv(os.path.join(pdir, "failures.csv"),
                                  ("k", "alpha", "T", "error"), failures))
    return written


def emit_report(report: ExperimentReport, out_dir: str) -> list:
    """Write confusion_T*.csv, alpha_stats.csv, dispersion.csv,
    report.json, and summary.txt; returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    t_set = report.config.t_set
    written = []
    for t in t_set:
        cm = report.confusion(t)
        written.append(_write_csv(
            os.path.join(out_dir, f"confusion_T{t}.csv"),
            ("k\\kstar", *cm.kstar_values),
            ((k, *row) for k, row in zip(cm.k_values, cm.counts))))
    stats_header = ("T", *(f.name for f in fields(AlphaStats)[1:]))
    return written + [
        _write_csv(os.path.join(out_dir, "alpha_stats.csv"), stats_header,
                   (astuple(report.alpha_stats(t)) for t in t_set)),
        _write_csv(os.path.join(out_dir, "dispersion.csv"), DISPERSION_COLUMNS,
                   ([row[c] for c in DISPERSION_COLUMNS] for row in report.rows)),
        _write(os.path.join(out_dir, "report.json"), report.to_json() + "\n"),
        _write(os.path.join(out_dir, "summary.txt"), render_summary(report)),
    ]


def load_report(path: str) -> ExperimentReport:
    with open(path) as fh:
        return ExperimentReport.from_json(fh.read())


def render_summary(report: ExperimentReport) -> str:
    """Plain-text block: per-T accuracy, the eight alpha statistics, and
    the confusion matrices."""
    lines = []
    cfg = report.config
    lines.append("exp2 pipeline summary")
    lines.append(f"replicas={cfg.replicas} base_seed={cfg.base_seed} "
                 f"h_max={cfg.h_max}")
    lines.append("")
    header = f"{'statistic':<22}" + "".join(f"T={t:<12}" for t in cfg.t_set)
    lines.append(header)
    stats = [report.alpha_stats(t) for t in cfg.t_set]
    rows = [
        ("k* accuracy", [f"{report.accuracy(t):.3f}" for t in cfg.t_set]),
        ("r(a*|k*, a)", [f"{s.r_given_kstar:.2f}" for s in stats]),
        ("r(a*|k, a)", [f"{s.r_given_k:.2f}" for s in stats]),
        ("Bias(a*|k*)", [f"{s.bias_given_kstar:.3g}" for s in stats]),
        ("Bias(a*|k)", [f"{s.bias_given_k:.3g}" for s in stats]),
        ("%(a*|k*) > 1", [f"{s.pct_gt1_given_kstar:.1f}" for s in stats]),
        ("%(a*|k) > 1", [f"{s.pct_gt1_given_k:.1f}" for s in stats]),
        ("%(a*|k*) > 5", [f"{s.pct_gt5_given_kstar:.1f}" for s in stats]),
        ("%(a*|k) > 5", [f"{s.pct_gt5_given_k:.1f}" for s in stats]),
    ]
    for name, vals in rows:
        lines.append(f"{name:<22}" + "".join(f"{v:<14}" for v in vals))
    for t in cfg.t_set:
        cm = report.confusion(t)
        lines.append("")
        lines.append(f"confusion matrix, T={t} (rows: true k, cols: k*)")
        lines.append("      " + "".join(f"{s:>5}" for s in cm.kstar_values))
        for k, row in zip(cm.k_values, cm.counts):
            lines.append(f"k={k:<3} " + "".join(f"{c:>5}" for c in row))
    if report.failures:
        lines.append("")
        lines.append(f"failures: {len(report.failures)}")
    lines.append("")
    return "\n".join(lines)
