"""Tests for the benchmark: layer tracing, output checks, and a small smoke
run of every workload against the metric list in BENCHMARK.json."""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import measure, tracing, workloads  # noqa: E402

# Small but complete: one 1e5-draw block per point, two SIR points, and a
# W - CCI whose water-level solve takes a fraction of a second.
SMALL_CFG = """
w_db = -10.0
cci_db = 40.0
sir_grid_db = 0:20:20
trials = 100000
seed = 7
"""
CHEAP_BAND = (-70.0, -30.0)


@pytest.fixture
def small(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "WORK_DIR", tmp_path / "work")
    monkeypatch.setattr(measure, "SETUP_REPEATS", 1)
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_CFG, encoding="utf-8")
    return cfg


def small_workload(name, cfg):
    if name == "analytic_grid":
        return workloads.AnalyticGrid(3, cfg, bands=(CHEAP_BAND, workloads.DIFF_BANDS_DB[-1]),
                                      corner=1)
    return workloads.make_workload(name, 3, cfg)


def wrapped_names():
    names = [(m, a) for m, a, *_ in tracing.TARGETS] + [tracing.POOL_TARGET[:2]]
    return [(importlib.import_module(m), a) for m, a in names]


def test_wrappers_are_installed_and_restored():
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr in wrapped_names()]
    with pytest.raises(KeyError):
        with tracing.installed(tracing.Tracer()):
            assert all(getattr(mod, attr) is not orig for mod, attr, orig in originals)
            raise KeyError("leave the block by an exception")
    assert all(getattr(mod, attr) is orig for mod, attr, orig in originals)


@pytest.mark.parametrize("name", ["mc_outage", "mc_rate_pool"])
def test_traced_pass_writes_the_same_csv_bytes(small, name):
    workload = small_workload(name, small)
    workload.run_pass(workload.workers)
    plain = {c: (workload.out_dir / f"{c}.csv").read_bytes() for c in workload.commands}
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        workload.run_pass(workload.workers)
    traced = {c: (workload.out_dir / f"{c}.csv").read_bytes() for c in workload.commands}
    assert traced == plain
    assert tracer.counts["power.solve_water_level.calls"] == len(workload.commands)
    if workload.workers > 1:
        # pooled task time is split off, leaving the pools' own cost
        pool_total = tracer.self_times()[0]["analysis.pool"]
        assert 0.0 < tracer.busy["analysis.pool"] < pool_total


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
                    ["b", 5.0, 6.0, 0]]
    total, own = tracer.self_times()
    assert total == {"a": 10.0, "b": 4.0, "c": 1.0}
    assert own == {"a": 6.0, "b": 3.0, "c": 1.0}


def outage_rows(side, n=2):
    return [{"gamma_bar_db": str(g), "side": side, "p_out": "0.5", "ci_halfwidth": "0.001",
             "lower_bound": "0.4", "upper_bound": "0.6" if side == "bs" else "",
             "trials": "90000", "excluded_draws": "10000"} for g in (0.0, 20.0)[:n]]


def test_outage_check_accepts_consistent_rows():
    assert workloads.check_outage(outage_rows("bs"), "bs", (0.0, 20.0), 100000) == []
    assert workloads.check_outage(outage_rows("su"), "su", (0.0, 20.0), 100000) == []


def test_outage_check_flags_bounds_missing_rows_and_lost_draws():
    rows = outage_rows("bs")
    rows[0]["p_out"] = "0.7"
    assert workloads.check_outage(rows, "bs", (0.0, 20.0), 100000)
    rows = outage_rows("su")
    rows[1]["p_out"] = "0.39"
    assert workloads.check_outage(rows, "su", (0.0, 20.0), 100000)
    assert workloads.check_outage(outage_rows("bs", n=1), "bs", (0.0, 20.0), 100000)
    assert workloads.check_outage(outage_rows("su"), "su", (0.0, 20.0), 100001)


def test_rate_check_flags_fixed_above_optimal_and_missing_rows():
    rows = [{"gamma_bar_db": "0", "policy": p, "rate_objective": v, "trials": "100000"}
            for p, v in (("optimal", "1.0"), ("fixed", "2.0"))]
    assert workloads.check_rate(rows, (0.0,), 100000)
    assert workloads.check_rate(rows[:1], (0.0,), 100000)


@pytest.mark.parametrize("doctor", ["p_out_outside_bounds", "missing_row"])
def test_bad_csv_counts_as_failed_operation(small, monkeypatch, doctor):
    workload = small_workload("mc_outage", small)
    real_run_cli = workloads.run_cli

    def run_cli(cmd, *args, **kwargs):
        code, out = real_run_cli(cmd, *args, **kwargs)
        lines = out.read_text(encoding="utf-8").splitlines()
        if cmd == "outage-bs":
            if doctor == "missing_row":
                lines.pop()
            else:
                cols = lines[-1].split(",")
                cols[5] = "1.5"  # p_out above any upper bound
                lines[-1] = ",".join(cols)
            out.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return code, out

    monkeypatch.setattr(workloads, "run_cli", run_cli)
    outcome = workload.run_pass(1)
    assert outcome.attempted == 2
    assert len(outcome.failures) == 1 and outcome.failures[0].startswith("outage-bs")


def test_analytic_points_lie_in_their_strata_and_the_box(small):
    eps = 1e-9
    for seed in range(50):
        points = workloads.AnalyticGrid(seed, small).points
        assert [band for band, _, _ in points] == list(range(len(workloads.DIFF_BANDS_DB)))
        for band, w, cci in points:
            lo, hi = workloads.DIFF_BANDS_DB[band]
            assert lo - eps <= w - cci <= hi + eps
            assert -10 - eps <= w <= 60 + eps and -30 - eps <= cci <= 60 + eps


def test_corner_solver_failure_is_counted_not_hidden(small):
    corner = workloads.DIFF_BANDS_DB[-1]
    known = workloads.AnalyticGrid(5, small, bands=(corner,), corner=0).run_pass(1)
    assert known.attempted == 1 and len(known.known_errors) == 1 and not known.failures
    elsewhere = workloads.AnalyticGrid(5, small, bands=(corner,), corner=None).run_pass(1)
    assert len(elsewhere.failures) == 1 and "IntegrationError" in elsewhere.failures[0]


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("name", ["mc_outage", "mc_rate_pool", "analytic_grid"])
def test_smoke_run_reports_every_declared_metric(small, name):
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result, summary = measure.run(small_workload(name, small), 3, 0.01, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared(kind)
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if name == "analytic_grid":
        assert summary["error_frac"] > 0 and summary["known_errors"]


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_outage", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
