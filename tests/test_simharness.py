"""Simulation harness: seeding, sampling, statistics, reports, and files."""

import csv
import json
import math
import multiprocessing
import os

import numpy as np
import pytest

from fcmtune import simharness
from fcmtune.fcm import HyperParams, generate
from fcmtune.simharness import (
    DISPERSION_COLUMNS,
    AlphaStats,
    ConfusionMatrix,
    ExperimentConfig,
    ExperimentReport,
    SimError,
    bias,
    derive_seed,
    desk_config,
    emit_report,
    load_report,
    paper_config,
    pearson_r,
    render_summary,
    run_exp1,
    run_exp2,
    sample_pairs,
)
from fcmtune.tuner import compare

TINY = ExperimentConfig(
    experiment="exp2_pipeline",
    t_set=(300, 900),
    replicas=5,
    base_seed=7,
    h_max=6,
)


@pytest.fixture(scope="module")
def tiny_report():
    return run_exp2(TINY)


_EXP1_CELL = simharness._exp1_cell
_EXP2_ITEM = simharness._exp2_item


def _exp2_fails_in_workers(item):
    """_exp2_item, except that replica 1 raises inside worker processes."""
    if item[0] == 1 and multiprocessing.parent_process() is not None:
        raise RuntimeError("worker-only failure")
    return _EXP2_ITEM(item)


def _exp1_fails_with_commas(cell):
    """_exp1_cell, except that the k = 2 cell raises with commas in its message."""
    if cell[0] == 2:
        raise ValueError("k must be an integer >= 0, got 1.5")
    return _EXP1_CELL(cell)


def _exp1_fails_in_workers(cell):
    """_exp1_cell, except that the k = 2 cell raises inside workers."""
    if cell[0] == 2 and multiprocessing.parent_process() is not None:
        raise RuntimeError("worker-only failure")
    return _EXP1_CELL(cell)


# ---------------------------------------------------------------------------
# seeding and sampling


def test_derive_seed_is_deterministic_and_distinct():
    assert derive_seed(42, 3, 0, 1) == derive_seed(42, 3, 0, 1)
    seeds = {derive_seed(42, 3, rep, t) for rep in range(50) for t in range(3)}
    assert len(seeds) == 150
    assert all(0 <= s < 2**63 for s in seeds)
    assert derive_seed(42, 3, 0, 1) != derive_seed(43, 3, 0, 1)


def test_sample_pairs_lattice_and_determinism():
    cfg = ExperimentConfig(experiment="exp2_pipeline", replicas=400, base_seed=9)
    pairs = sample_pairs(cfg)
    assert len(pairs) == 400
    assert pairs == sample_pairs(cfg)
    steps = int(round(1.0 / cfg.alpha_step))
    for k, a in pairs:
        assert k in cfg.k_set
        assert 0.0 < a <= 1.0
        assert round(a * steps) == pytest.approx(a * steps, abs=1e-9)


def test_sample_pairs_changes_with_seed():
    cfg = ExperimentConfig(experiment="exp2_pipeline", replicas=50, base_seed=1)
    other = ExperimentConfig(experiment="exp2_pipeline", replicas=50, base_seed=2)
    assert sample_pairs(cfg) != sample_pairs(other)


# ---------------------------------------------------------------------------
# statistics


def test_pearson_r_matches_corrcoef():
    rng = np.random.default_rng(3)
    z = rng.normal(size=200)
    a = 0.6 * z + rng.normal(size=200)
    assert pearson_r(z, a) == pytest.approx(np.corrcoef(z, a)[0, 1], rel=1e-12)


def test_pearson_r_exact_extremes():
    assert pearson_r([1, 2, 4], [2, 4, 8]) == pytest.approx(1.0)
    assert pearson_r([1, 2, 4], [-1, -2, -4]) == pytest.approx(-1.0)


def test_pearson_r_degenerate_is_nan():
    assert math.isnan(pearson_r([1, 1, 1], [0, 1, 2]))
    assert math.isnan(pearson_r([0, 1, 2], [5, 5, 5]))


def test_pearson_r_validation():
    with pytest.raises(SimError):
        pearson_r([1, 2], [1, 2, 3])
    with pytest.raises(SimError):
        pearson_r([1], [1])


def test_bias():
    assert bias([2, 3, 4], [1, 1, 1]) == pytest.approx(2.0)
    assert bias([1, 1], [2, 0]) == pytest.approx(0.0)
    with pytest.raises(SimError):
        bias([1], [1, 2])


def test_confusion_matrix():
    cm = ConfusionMatrix.from_rows(
        k_true=[1, 1, 2, 2, 2], k_star=[1, 2, 2, 2, 1],
        k_values=(1, 2), kstar_values=(1, 2, 3),
    )
    assert cm.counts == ((1, 1, 0), (1, 2, 0))
    assert cm.total == 5
    assert cm.accuracy == pytest.approx(3 / 5)


def test_confusion_matrix_accuracy_with_unmatchable_k():
    # a true k outside the k* axis can never be a hit
    cm = ConfusionMatrix.from_rows([5, 1], [1, 1], k_values=(1, 5),
                                   kstar_values=(1, 2))
    assert cm.accuracy == pytest.approx(0.5)


def test_alpha_stats_from_rows():
    s = AlphaStats.from_rows(
        t=1000,
        alpha_true=[0.5, 0.5, 0.5, 0.5],
        alpha_kstar=[0.5, 2.0, 6.0, 0.25],
        alpha_k=[0.4, 0.6, 0.5, 0.5],
    )
    assert s.t == 1000 and s.n == 4
    assert s.pct_gt1_given_kstar == pytest.approx(50.0)
    assert s.pct_gt5_given_kstar == pytest.approx(25.0)
    assert s.pct_gt1_given_k == 0.0
    assert s.bias_given_k == pytest.approx(0.0)
    assert s.pct_gt5_given_kstar <= s.pct_gt1_given_kstar


# ---------------------------------------------------------------------------
# configs


def test_config_validation():
    with pytest.raises(SimError):
        ExperimentConfig(experiment="exp3")
    with pytest.raises(SimError):
        ExperimentConfig(experiment="exp2_pipeline", replicas=0)
    with pytest.raises(SimError):
        ExperimentConfig(experiment="exp2_pipeline", alpha_set=(0.0, 0.5))
    with pytest.raises(SimError):
        ExperimentConfig(experiment="exp2_pipeline", t_set=())
    with pytest.raises(SimError):
        ExperimentConfig(experiment="exp1_profiles", h_max=0)


@pytest.mark.parametrize("step", [0.0, -0.005, 1.5, 2.0, math.nan])
def test_config_rejects_alpha_step_outside_unit_interval(step):
    # past 1 the lattice can round to zero steps, where sample_pairs would
    # redraw alpha = 0 forever; 0 would divide by zero
    with pytest.raises(SimError, match="alpha_step"):
        ExperimentConfig(experiment="exp2_pipeline", alpha_step=step)


def test_config_accepts_alpha_step_one():
    cfg = ExperimentConfig(experiment="exp2_pipeline", replicas=20, alpha_step=1.0)
    assert {a for _, a in sample_pairs(cfg)} == {1.0}


@pytest.mark.parametrize("keys", [{"run_grid_search": False},
                                  {"redraw_per_t": True, "seed": 3}])
def test_config_from_dict_names_unknown_keys(keys):
    with pytest.raises(SimError, match="unknown config keys") as info:
        ExperimentConfig.from_dict({"experiment": "exp2_pipeline", **keys})
    for key in keys:
        assert key in str(info.value)


@pytest.mark.parametrize("doc", [[], "exp2_pipeline", None, 3])
def test_config_from_dict_rejects_non_object(doc):
    with pytest.raises(SimError, match="JSON object"):
        ExperimentConfig.from_dict(doc)


@pytest.mark.parametrize("keys", [
    {"replicas": "3"}, {"h_max": "10"}, {"k_set": 5}, {"t_set": [1.5]},
    {"k_set": [2.5]}, {"replicas": 2.5}, {"replicas": True}, {"workers": 2.0},
    {"base_seed": -1}, {"base_seed": "7"}, {"t_set": "900"}, {"k_set": [True]},
    {"alpha_set": [math.inf]}, {"alpha_set": [math.nan]}, {"alpha_set": ["0.5"]},
    {"alpha_step": 1e-300}, {"alpha_step": "0.5"}, {"alpha_step": True},
], ids=repr)
def test_config_from_dict_rejects_bad_types_with_sim_error(keys):
    with pytest.raises(SimError):
        ExperimentConfig.from_dict({"experiment": "exp2_pipeline", **keys})


def test_config_accepts_the_finest_drawable_alpha_step():
    cfg = ExperimentConfig(experiment="exp2_pipeline", replicas=3, alpha_step=2.0 ** -62)
    assert len(sample_pairs(cfg)) == 3


def test_config_from_dict_requires_experiment():
    with pytest.raises(SimError, match="experiment"):
        ExperimentConfig.from_dict({"replicas": 3})


def test_config_dict_round_trip():
    cfg = desk_config("exp2_pipeline", base_seed=42)
    back = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert back == cfg


def test_presets():
    d2 = desk_config("exp2_pipeline")
    assert d2.t_set == (1_000, 10_000, 100_000)
    assert d2.replicas == 200
    d1 = desk_config("exp1_profiles")
    assert d1.t_set == (20_000,) and d1.replicas == 10
    assert d1.alpha_set == (0.1, 0.5, 0.8, 1.0)
    p1 = paper_config("exp1_profiles")
    assert len(p1.alpha_set) == 200 and p1.t_set == (100_000,)
    p2 = paper_config("exp2_pipeline")
    assert p2.replicas == 1_000


# ---------------------------------------------------------------------------
# exp2 runs and reports


def test_run_exp2_shape_and_order(tiny_report):
    rows = tiny_report.rows
    assert len(rows) == 2 * 5
    assert tiny_report.failures == ()
    assert [r["T"] for r in rows] == sorted(r["T"] for r in rows)
    for t in TINY.t_set:
        reps = [r["replica"] for r in tiny_report.rows_at(t)]
        assert reps == sorted(reps) == list(range(5))
    for row in rows:
        assert set(DISPERSION_COLUMNS) <= set(row)
        assert row["k_match"] == int(row["k_star"] == row["k"])
        assert row["evals_two_step"] == 1
        assert row["evals_grid"] == 1010
        assert 1 <= row["k_star"] <= TINY.h_max


def test_run_exp2_same_pair_across_t(tiny_report):
    by_rep = {}
    for row in tiny_report.rows:
        by_rep.setdefault(row["replica"], set()).add((row["k"], row["alpha"]))
    assert all(len(v) == 1 for v in by_rep.values())
    assert tuple((row["k"], row["alpha"]) for row in tiny_report.rows_at(300)) \
        == tiny_report.pairs


def test_run_exp2_is_deterministic(tiny_report):
    again = run_exp2(TINY)
    assert again.rows == tiny_report.rows
    assert again.pairs == tiny_report.pairs


def test_run_exp2_rows_are_comparison_records(tiny_report):
    for row in tiny_report.rows_at(900)[:2]:
        params = HyperParams(row["k"], row["alpha"])
        seq = generate(params, 900, derive_seed(TINY.base_seed, 3, row["replica"], 1))
        rec = compare(seq, params, TINY.h_max)
        assert (row["k_star"], row["alpha_star_kstar"]) == (rec.k_star, rec.alpha_star)
        assert (row["k_grid"], row["alpha_grid"]) == (rec.k_grid, rec.alpha_grid)
        assert (row["bps_true"], row["bps_two_step"], row["bps_grid"]) \
            == (rec.bps_true, rec.bps_two_step, rec.bps_grid)


def test_run_exp2_rejects_wrong_experiment():
    with pytest.raises(SimError):
        run_exp2(desk_config("exp1_profiles"))
    with pytest.raises(SimError):
        run_exp1(TINY, "unused")


def test_parallel_matches_serial():
    cfg = ExperimentConfig(experiment="exp2_pipeline", t_set=(300,), replicas=4,
                           base_seed=11, h_max=4)
    serial = run_exp2(cfg)
    parallel = run_exp2(ExperimentConfig.from_dict({**cfg.to_dict(), "workers": 2}))
    assert serial.rows == parallel.rows


def test_worker_failure_is_recorded(monkeypatch):
    monkeypatch.setattr(simharness, "_exp2_item", _exp2_fails_in_workers)
    cfg = ExperimentConfig(experiment="exp2_pipeline", t_set=(300,), replicas=4,
                           base_seed=11, h_max=4, workers=2)
    report = run_exp2(cfg)
    assert [r["replica"] for r in report.rows] == [0, 2, 3]
    assert len(report.failures) == 1
    failure = report.failures[0]
    assert (failure["replica"], failure["T"]) == (1, 300)
    assert (failure["k"], failure["alpha"]) == report.pairs[1]
    assert failure["error"] == "RuntimeError('worker-only failure')"


def test_report_json_round_trip(tiny_report):
    back = ExperimentReport.from_json(tiny_report.to_json())
    assert back.config == tiny_report.config
    assert back.pairs == tiny_report.pairs
    assert back.rows == tiny_report.rows
    assert back.to_json() == tiny_report.to_json()


def test_report_json_rejects_other_schema(tiny_report):
    doc = json.loads(tiny_report.to_json())
    doc["schema"] = "something/9"
    with pytest.raises(SimError):
        ExperimentReport.from_json(json.dumps(doc))


def test_report_aggregations(tiny_report):
    t = 300
    rows = tiny_report.rows_at(t)
    cm = tiny_report.confusion(t)
    assert cm.total == len(rows)
    hits = sum(1 for r in rows if r["k_star"] == r["k"])
    assert tiny_report.accuracy(t) == pytest.approx(hits / len(rows))
    stats = tiny_report.alpha_stats(t)
    assert stats.n == len(rows)
    want = float(np.mean([r["alpha_star_k"] - r["alpha"] for r in rows]))
    assert stats.bias_given_k == pytest.approx(want)


# ---------------------------------------------------------------------------
# emitted files


def test_emit_report_files(tiny_report, tmp_path):
    out = tmp_path / "out"
    written = emit_report(tiny_report, str(out))
    names = sorted(os.path.basename(p) for p in written)
    assert names == [
        "alpha_stats.csv",
        "confusion_T300.csv",
        "confusion_T900.csv",
        "dispersion.csv",
        "report.json",
        "summary.txt",
    ]
    dispersion = (out / "dispersion.csv").read_text().splitlines()
    assert dispersion[0] == ",".join(DISPERSION_COLUMNS)
    assert len(dispersion) == 1 + len(tiny_report.rows)

    header = (out / "confusion_T300.csv").read_text().splitlines()[0]
    assert header == "k\\kstar," + ",".join(map(str, range(1, TINY.h_max + 1)))

    stats_lines = (out / "alpha_stats.csv").read_text().splitlines()
    assert len(stats_lines) == 1 + len(TINY.t_set)

    summary = (out / "summary.txt").read_text()
    assert render_summary(tiny_report) == summary
    assert "k* accuracy" in summary


def test_emit_report_header_lines(tiny_report, tmp_path):
    emit_report(tiny_report, str(tmp_path))
    kstar = "k\\kstar,1,2,3,4,5,6"
    assert {p.name: p.read_text().splitlines()[0] for p in tmp_path.iterdir()} == {
        "confusion_T300.csv": kstar,
        "confusion_T900.csv": kstar,
        "alpha_stats.csv": "T,n,r_given_kstar,r_given_k,bias_given_kstar,"
                           "bias_given_k,pct_gt1_given_kstar,pct_gt1_given_k,"
                           "pct_gt5_given_kstar,pct_gt5_given_k",
        "dispersion.csv": "replica,T,k,alpha,k_star,alpha_star_kstar,"
                          "alpha_star_k,bps_true,bps_two_step,bps_grid,k_grid,"
                          "alpha_grid,k_match,evals_two_step,evals_grid",
        "report.json": "{",
        "summary.txt": "exp2 pipeline summary",
    }
    stats = (tmp_path / "alpha_stats.csv").read_text().splitlines()[1:]
    assert [line.split(",")[:2] for line in stats] == [["300", "5"], ["900", "5"]]


def test_emit_report_is_byte_deterministic(tiny_report, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    emit_report(tiny_report, str(a))
    emit_report(tiny_report, str(b))
    for name in os.listdir(a):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_load_report_re_renders_identically(tiny_report, tmp_path):
    out = tmp_path / "out"
    emit_report(tiny_report, str(out))
    loaded = load_report(str(out / "report.json"))
    again = tmp_path / "again"
    emit_report(loaded, str(again))
    for name in os.listdir(out):
        assert (out / name).read_bytes() == (again / name).read_bytes()


def test_run_exp1_files(tmp_path):
    cfg = ExperimentConfig(
        experiment="exp1_profiles",
        k_set=(1, 2),
        alpha_set=(0.5,),
        t_set=(400,),
        replicas=3,
        base_seed=5,
        h_max=4,
    )
    written = run_exp1(cfg, str(tmp_path))
    names = sorted(os.path.basename(p) for p in written)
    assert names == [
        "profile_k1_a0.5_T400.csv",
        "profile_k2_a0.5_T400.csv",
        "summary_k1_a0.5_T400.csv",
        "summary_k2_a0.5_T400.csv",
    ]
    prof = (tmp_path / "profiles" / "profile_k1_a0.5_T400.csv").read_text().splitlines()
    assert prof[0] == "replica,measure,lag,value"
    # 3 replicas x 3 measures x 4 lags
    assert len(prof) == 1 + 3 * 3 * 4
    summ = (tmp_path / "profiles" / "summary_k1_a0.5_T400.csv").read_text().splitlines()
    assert summ[0] == "measure,lag,min,q1,median,q3,max"
    assert len(summ) == 1 + 3 * 4
    for line in summ[1:]:
        fields = line.split(",")
        lo, q1, med, q3, hi = map(float, fields[2:])
        assert lo <= q1 <= med <= q3 <= hi


def test_run_exp1_is_deterministic(tmp_path):
    cfg = ExperimentConfig(
        experiment="exp1_profiles", k_set=(1,), alpha_set=(0.3,),
        t_set=(300,), replicas=2, base_seed=6, h_max=3,
    )
    run_exp1(cfg, str(tmp_path / "x"))
    run_exp1(cfg, str(tmp_path / "y"))
    px = (tmp_path / "x" / "profiles" / "profile_k1_a0.3_T300.csv").read_bytes()
    py = (tmp_path / "y" / "profiles" / "profile_k1_a0.3_T300.csv").read_bytes()
    assert px == py


EXP1_SMALL = ExperimentConfig(
    experiment="exp1_profiles", k_set=(1, 2, 3), alpha_set=(0.3, 0.7),
    t_set=(300,), replicas=2, base_seed=6, h_max=3,
)


def _tree_bytes(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_run_exp1_parallel_matches_serial(tmp_path):
    serial = run_exp1(EXP1_SMALL, str(tmp_path / "serial"))
    parallel = run_exp1(ExperimentConfig.from_dict(
        {**EXP1_SMALL.to_dict(), "workers": 2}), str(tmp_path / "parallel"))
    assert [os.path.basename(p) for p in serial] \
        == [os.path.basename(p) for p in parallel]
    assert len(serial) == 2 * 6
    assert _tree_bytes(tmp_path / "serial") == _tree_bytes(tmp_path / "parallel")


def test_run_exp1_worker_failure_is_recorded(tmp_path, monkeypatch):
    monkeypatch.setattr(simharness, "_exp1_cell", _exp1_fails_in_workers)
    cfg = ExperimentConfig.from_dict({**EXP1_SMALL.to_dict(), "workers": 2})
    written = run_exp1(cfg, str(tmp_path))
    names = [os.path.basename(p) for p in written]
    assert len(names) == 2 * 4 + 1
    assert not any("_k2_" in n for n in names)
    assert (tmp_path / "profiles" / "failures.csv").read_text().splitlines() == [
        "k,alpha,T,error",
        "2,0.3,300,RuntimeError('worker-only failure')",
        "2,0.7,300,RuntimeError('worker-only failure')",
    ]


def test_run_exp1_failure_with_commas_reads_back_as_four_fields(tmp_path, monkeypatch):
    """An error message holding a comma or a quote stays one RFC 4180 cell."""
    monkeypatch.setattr(simharness, "_exp1_cell", _exp1_fails_with_commas)
    run_exp1(EXP1_SMALL, str(tmp_path))
    with open(tmp_path / "profiles" / "failures.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["k", "alpha", "T", "error"]] + [
        ["2", alpha, "300", "ValueError('k must be an integer >= 0, got 1.5')"]
        for alpha in ("0.3", "0.7")]
    assert simharness._fmt('say "a,b"') == '"say ""a,b"""'
    assert simharness._fmt("two\nlines") == '"two\nlines"'
