"""Config parsing, CSV determinism, and CLI exit codes."""

import hashlib
import math
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from curelay import load_config, run_experiment
import curelay.analysis
import curelay.expcli
from curelay.expcli import ConfigError, _parse_grid, main

REPO = Path(__file__).resolve().parent.parent
DEFAULT_CFG = REPO / "configs" / "default.cfg"


def write_cfg(tmp_path, body):
    p = tmp_path / "case.cfg"
    p.write_text(body, encoding="utf-8")
    return p


FAST_BODY = """
w_db = 10.0
cci_db = 20.0
trials = 20000
sir_grid_db = 0:20:40
seed = 99
"""


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_default_config_documented_values():
    cfg = load_config(DEFAULT_CFG)
    assert cfg.geometry.s == 0.75
    assert cfg.geometry.l == 0.25
    assert cfg.geometry.d == 1.0
    assert cfg.geometry.z == 0.4
    assert cfg.geometry.q == pytest.approx(1.2489995996796797, rel=1e-12)
    assert cfg.geometry.r == pytest.approx(0.5678908345800273, rel=1e-12)
    assert cfg.geometry.epsilon == 4.0
    assert cfg.power.w_db == 5.0
    assert cfg.power.p_cci_db == 20.0
    assert cfg.gamma_th == 3.0
    assert cfg.sir_grid_db == tuple(float(v) for v in range(0, 45, 5))
    assert cfg.trials == 10**6
    assert cfg.seed == 20240917


def test_config_rejects_small_epsilon(tmp_path):
    p = write_cfg(tmp_path, "epsilon = 1.5\nseed = 1\n")
    with pytest.raises(ConfigError, match="geometry"):
        load_config(p)


@pytest.mark.parametrize("body, where", [
    ("seed = 1\npu1_x = 1.0\n", "line 2"),
    # epsilon is given but valid; the collapsed distance comes from pu1_x
    ("seed = 1\nepsilon = 4\npu1_x = 1.0\n", "line 3"),
    ("seed = 1\nsu1_x = 0.5\npu1_x = 0.5\n", "line 2, line 3"),
    ("seed = 1\nepsilon = 1.5\npu1_x = 0.5\n", "line 2"),
])
def test_geometry_error_names_the_lines_of_its_keys(tmp_path, body, where):
    with pytest.raises(ConfigError) as info:
        load_config(write_cfg(tmp_path, body))
    assert str(info.value).startswith(f"{where}: invalid geometry: ")


def test_config_requires_seed(tmp_path):
    p = write_cfg(tmp_path, "w_db = 10\n")
    with pytest.raises(ConfigError, match="seed"):
        load_config(p)
    # --seed gives the key the file leaves out
    assert main(["water-level", "--config", str(p), "--out", str(tmp_path / "w.csv"),
                 "--seed", "1"]) == 0


def test_config_keeps_every_digit_of_a_large_seed(tmp_path):
    seed = 2**53 + 1  # not a float
    assert load_config(write_cfg(tmp_path, f"seed = {seed}\n")).seed == seed


def test_config_rejects_unknown_key(tmp_path):
    p = write_cfg(tmp_path, "seed = 1\nshadowing_db = 8\n")
    with pytest.raises(ConfigError, match="line 2.*shadowing_db"):
        load_config(p)


def test_config_rejects_duplicates_and_junk(tmp_path):
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(write_cfg(tmp_path, "seed = 1\nseed = 2\n"))
    with pytest.raises(ConfigError, match="key = value"):
        load_config(write_cfg(tmp_path, "seed: 1\n"))
    with pytest.raises(ConfigError, match="numeric"):
        load_config(write_cfg(tmp_path, "seed = soon\n"))


def test_config_rejects_out_key(tmp_path, capsys):
    # the output path is only ever given by --out
    cfgp = write_cfg(tmp_path, "seed = 1\nout = x.csv\n")
    with pytest.raises(ConfigError, match="line 2: unknown key 'out'"):
        load_config(cfgp)
    assert main(["water-level", "--config", str(cfgp), "--out", str(tmp_path / "o.csv")]) == 2
    assert "unknown key 'out'" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == [cfgp.name]


def test_config_that_is_not_utf8_is_rejected(tmp_path, capsys):
    cfgp = tmp_path / "latin1.cfg"
    cfgp.write_bytes("# r\u00e9sum\u00e9 of the default run\nseed = 1\n".encode("latin-1"))
    with pytest.raises(ConfigError, match="not UTF-8"):
        load_config(cfgp)
    out = tmp_path / "o.csv"
    assert main(["water-level", "--config", str(cfgp), "--out", str(out)]) == 2
    assert f"error: {cfgp}: not UTF-8" in capsys.readouterr().err
    assert not out.exists()


def test_grid_parsing():
    assert _parse_grid("0:10:40", "g", 1) == (0.0, 10.0, 20.0, 30.0, 40.0)
    with pytest.raises(ConfigError):
        _parse_grid("0:-1:40", "g", 1)
    with pytest.raises(ConfigError):
        _parse_grid("0:40", "g", 1)


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------


def read_rows(path):
    lines = Path(path).read_text().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    return meta, body[0].split(","), [l.split(",") for l in body[1:]]


def test_outage_csv_shape_and_ranges(tmp_path):
    cfg = load_config(write_cfg(tmp_path, FAST_BODY))
    out = tmp_path / "o.csv"
    run_experiment("outage-bs", cfg, out)
    meta, cols, rows = read_rows(out)
    assert any(m.startswith("# seed = 99") for m in meta)
    assert any(m.startswith("# lambda = ") for m in meta)
    assert any(m.startswith("# closed_form_printed_residual") for m in meta)
    assert cols == ["gamma_bar_db", "w_db", "cci_db", "gamma_th", "side", "p_out",
                    "ci_halfwidth", "lower_bound", "upper_bound", "trials",
                    "excluded_draws"]
    assert len(rows) == 3
    for r in rows:
        assert r[4] == "bs"
        assert 0.0 <= float(r[5]) <= 1.0
        assert 0.0 <= float(r[7]) <= float(r[8]) <= 1.0
        assert int(r[9]) + int(r[10]) == cfg.trials


def test_outage_su_csv_bound_column(tmp_path):
    cfg = load_config(write_cfg(tmp_path, FAST_BODY))
    out = tmp_path / "o.csv"
    run_experiment("outage-su", cfg, out)
    _, cols, rows = read_rows(out)
    for r in rows:
        assert r[4] == "su"
        assert 0.0 <= float(r[7]) <= 1.0  # closed-form lower bound
        assert r[8] == ""                 # no analytic upper bound at the SU
        assert float(r[5]) >= float(r[7]) - 3 * float(r[6])


@pytest.mark.parametrize("gamma_th, bound", [("1e200", "1"), ("1.7e308", "1"), ("1e-300", "0")])
def test_outage_su_at_extreme_thresholds(tmp_path, gamma_th, bound):
    # the closed-form bound's intermediates neither overflow nor underflow to
    # a domain error at any finite threshold
    cfgp = write_cfg(tmp_path, FAST_BODY.replace("trials = 20000", "trials = 10000")
                     + f"gamma_th = {gamma_th}\n")
    out = tmp_path / "o.csv"
    r = subprocess.run([sys.executable, "-W", "error", "-m", "curelay", "outage-su",
                        "--config", str(cfgp), "--out", str(out)], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    _, _, rows = read_rows(out)
    assert [row[7] for row in rows] == [bound] * 3


@pytest.mark.parametrize("gamma_th", ["1e200", "1e308"])
def test_outage_bs_at_huge_thresholds(tmp_path, gamma_th):
    # 2 gamma_th overflows at 1e308: the bounds take the laws' limits there
    cfgp = write_cfg(tmp_path, FAST_BODY.replace("trials = 20000", "trials = 10000")
                     + f"gamma_th = {gamma_th}\n")
    out = tmp_path / "o.csv"
    r = subprocess.run([sys.executable, "-W", "error", "-m", "curelay", "outage-bs",
                        "--config", str(cfgp), "--out", str(out)], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    _, _, rows = read_rows(out)
    assert len(rows) == 3
    for row in rows:
        assert row[8] == "1"
        assert 0.0 <= float(row[7]) <= float(row[8])


@pytest.mark.parametrize("w_db", ["-100", "-150", "-3076.5"])
def test_outage_bs_at_zero_water_level(tmp_path, w_db):
    # W_lin <= 1e-10 meets the solve's absolute stop test at lam = 0: no draw
    # transmits, so the Monte-Carlo estimate and both bounds read nan
    out = tmp_path / "o.csv"
    r = subprocess.run([sys.executable, "-W", "error", "-m", "curelay", "outage-bs",
                        "--config", str(DEFAULT_CFG), "--trials", "10000", f"--w-db={w_db}",
                        "--out", str(out)], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    meta, _, rows = read_rows(out)
    assert "# lambda = 0" in meta
    assert len(rows) == 9
    assert all(row[5:] == ["nan", "nan", "nan", "nan", "0", "10000"] for row in rows)


def test_rate_csv(tmp_path):
    body = FAST_BODY.replace("trials = 20000", "trials = 100000")
    cfg = load_config(write_cfg(tmp_path, body))
    out = tmp_path / "r.csv"
    run_experiment("rate", cfg, out)
    _, cols, rows = read_rows(out)
    assert cols == ["gamma_bar_db", "w_db", "cci_db", "policy", "rate_objective",
                    "rate_endtoend", "ci_halfwidth", "trials"]
    assert {r[3] for r in rows} == {"optimal", "fixed"}
    by_policy = {}
    for r in rows:
        by_policy.setdefault(r[3], {})[r[0]] = float(r[4])
        assert float(r[4]) >= 0.0 and float(r[5]) >= 0.0
    for g, opt in by_policy["optimal"].items():
        assert opt >= by_policy["fixed"][g] - 0.02  # optimality, with MC slack


def test_csv_byte_identical_across_runs_and_workers(tmp_path):
    cfg = load_config(write_cfg(tmp_path, FAST_BODY))
    outs = []
    for name, workers in (("a", 1), ("b", 1), ("c", 2)):
        out = tmp_path / f"{name}.csv"
        run_experiment("outage-bs", replace(cfg, workers=workers), out)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


# SHA-256 of the FAST_BODY CSVs (rate at trials = 100000). Any change to the
# fading streams, the SIR algebra or the reduction order shows up here.
FAST_DIGESTS = {
    "outage-bs": "2a656c029d252cf7f101edb37d6fa92e1c9b5ff4bfa824df94a7a3c79a5a4b62",
    "outage-su": "825021a6284abcfe91f812d3e07b9c664b413631a405cd2f711e172593f1b12e",
    "rate": "c3a2d573f47f8ecd83c21bd8db5791c7577eb2329af9de20c639d20ef90e8415",
}


@pytest.mark.parametrize("cmd", sorted(FAST_DIGESTS))
def test_csv_digest_frozen(tmp_path, cmd):
    body = FAST_BODY.replace("trials = 20000", "trials = 100000") if cmd == "rate" else FAST_BODY
    cfg = load_config(write_cfg(tmp_path, body))
    for workers in (1, 2):
        out = tmp_path / f"{workers}.csv"
        run_experiment(cmd, replace(cfg, workers=workers), out)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == FAST_DIGESTS[cmd], workers


def pools_started(tmp_path, monkeypatch, cmd, body):
    """Run `cmd` at workers = 2 and count the process pools it starts."""
    started = []

    class CountingPool(curelay.analysis.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(curelay.analysis, "ProcessPoolExecutor", CountingPool)
    cfg = load_config(write_cfg(tmp_path, body))
    run_experiment(cmd, replace(cfg, workers=2), tmp_path / "out.csv")
    return len(started)


def test_rate_starts_one_pool_per_run(tmp_path, monkeypatch):
    body = FAST_BODY.replace("trials = 20000", "trials = 100000")
    assert pools_started(tmp_path, monkeypatch, "rate", body) == 1


def test_rate_draws_each_block_once_for_both_policies(tmp_path, monkeypatch):
    calls = []
    sample = curelay.analysis.sample_fading

    def counting_sample(*args, **kwargs):
        calls.append(1)
        return sample(*args, **kwargs)

    monkeypatch.setattr(curelay.analysis, "sample_fading", counting_sample)
    body = FAST_BODY.replace("trials = 20000", "trials = 100000")
    run_experiment("rate", load_config(write_cfg(tmp_path, body)), tmp_path / "r.csv")
    assert len(calls) == 3  # one block of 1e5 draws per grid point


def test_outage_starts_one_pool_per_command(tmp_path, monkeypatch):
    assert pools_started(tmp_path, monkeypatch, "outage-bs", FAST_BODY) == 1


def test_validate_starts_one_pool_and_writes_the_one_worker_bytes(tmp_path, monkeypatch):
    # validate's sampled checks are one sweep, so they follow --workers and
    # the determinism contract like the other Monte-Carlo commands
    assert pools_started(tmp_path, monkeypatch, "validate", DEFAULT_CFG.read_text()) == 1
    run_experiment("validate", load_config(DEFAULT_CFG), tmp_path / "w1.csv")
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "w1.csv").read_bytes()


def test_validate_peak_memory_and_trials_header(tmp_path):
    # the sampled checks run block by block: on this config the traced peak
    # is 26 MiB when the run makes its workspace rows (14 MiB when they
    # exist), where one 1e6-draw sample of the six gains alone is 46 MiB;
    # the header states the checks' 1,000,000 draws, not the config's trials
    cfg = replace(load_config(DEFAULT_CFG), trials=20_000)
    out = tmp_path / "v.csv"
    tracemalloc.start()
    try:
        assert run_experiment("validate", cfg, out) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak
    assert out.read_text().splitlines()[:2] == ["# seed = 20240917", "# trials = 1000000"]


def test_water_level_csv(tmp_path):
    cfg = load_config(write_cfg(tmp_path, FAST_BODY))
    out = tmp_path / "w.csv"
    run_experiment("water-level", cfg, out)
    _, cols, rows = read_rows(out)
    assert cols[:4] == ["w_db", "cci_db", "lambda", "residual"]
    lam = float(rows[0][2])
    assert lam == pytest.approx(15.2943725, rel=1e-6)  # frozen from the MC oracle run
    assert abs(float(rows[0][5]) - float(rows[0][6])) / float(rows[0][6]) < 1e-7


# ---------------------------------------------------------------------------
# CLI process-level behavior
# ---------------------------------------------------------------------------


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "curelay", *args],
                          capture_output=True, text=True)


def test_cli_exit_codes(tmp_path):
    out = tmp_path / "x.csv"
    bad = tmp_path / "bad.cfg"
    bad.write_text("epsilon = 1.0\nseed = 1\n")
    r = run_cli("outage-bs", "--config", str(bad), "--out", str(out))
    assert r.returncode == 2
    assert "geometry" in r.stderr
    r = run_cli("outage-bs", "--config", str(tmp_path / "missing.cfg"), "--out", str(out))
    assert r.returncode == 2


def test_cli_overrides_and_run(tmp_path):
    cfgp = write_cfg(tmp_path, FAST_BODY)
    out = tmp_path / "y.csv"
    r = run_cli("outage-su", "--config", str(cfgp), "--out", str(out),
                "--trials", "20000", "--sir-db", "10:10:20", "--seed", "5",
                "--w-db", "8", "--cci-db", "18")
    assert r.returncode == 0, r.stderr
    meta, _, rows = read_rows(out)
    assert any(m == "# seed = 5" for m in meta)
    assert [row[0] for row in rows] == ["10", "20"]
    assert rows[0][1] == "8" and rows[0][2] == "18"


@pytest.mark.parametrize("cmd, body, flags, message", [
    ("outage-bs", FAST_BODY, ["--workers", "0"], "--workers: workers must be an integer >= 1"),
    ("outage-bs", FAST_BODY, ["--workers", "-1"], "--workers: workers must be an integer >= 1"),
    ("outage-su", FAST_BODY, ["--trials", "0"], "--trials: trials must be an integer >= 1"),
    ("water-level", FAST_BODY, ["--seed", "-1"], "--seed: seed must be an integer >= 0"),
    ("outage-bs", FAST_BODY, ["--trials", "5000"], "trials must be >= 10000 for outage-bs"),
    ("outage-su", FAST_BODY, ["--trials", "9999"], "trials must be >= 10000 for outage-su"),
    ("rate", FAST_BODY, [], "trials must be >= 100000 for rate"),
    ("rate", FAST_BODY, ["--trials", "99999"], "trials must be >= 100000 for rate"),
    ("rate", FAST_BODY + "workers = 0\n", [], "line 7: workers must be an integer >= 1"),
    ("rate", FAST_BODY + "workers = 1.5\n", [], "line 7: workers must be an integer >= 1"),
    ("rate", FAST_BODY.replace("20000", "inf"), [], "line 4: trials must be an integer >= 1"),
    ("rate", FAST_BODY.replace("20000", "nan"), [], "line 4: trials must be an integer >= 1"),
    ("water-level", FAST_BODY, ["--w-db", "inf"], "--w-db: w_db must be a finite number, got inf"),
    ("water-level", FAST_BODY, ["--w-db", "nan"], "--w-db: w_db must be a finite number, got nan"),
    ("outage-bs", FAST_BODY, ["--cci-db=-inf"], "--cci-db: cci_db must be a finite number, got -inf"),
    ("rate", FAST_BODY, ["--sir-db", "0:5:inf"],
     "--sir-db: sir_grid_db must be a finite number, got inf"),
    ("water-level", FAST_BODY + "epsilon = inf\n", [],
     "line 7: epsilon must be a finite number, got inf"),
    ("outage-su", FAST_BODY.replace("w_db = 10.0", "w_db = nan"), [],
     "line 2: w_db must be a finite number, got nan"),
    ("outage-su", FAST_BODY + "gamma_th = -inf\n", [],
     "line 7: gamma_th must be a finite number, got -inf"),
    ("outage-bs", FAST_BODY.replace("0:20:40", "nan:20:40"), [],
     "line 5: sir_grid_db must be a finite number, got nan"),
    ("outage-su", FAST_BODY + "gamma_th = -1\n", [], "line 7: gamma_th must be >= 0, got -1"),
    ("outage-bs", FAST_BODY + "gamma_th = -0.5\n", [],
     "line 7: gamma_th must be >= 0, got -0.5"),
    ("water-level", FAST_BODY.replace("0:20:40", "0:1e-12:40"), [],
     "line 5: sir_grid_db has more than 10000 points, got '0:1e-12:40'"),
    ("water-level", FAST_BODY, ["--sir-db", "0:1e-12:40"],
     "--sir-db: sir_grid_db has more than 10000 points, got '0:1e-12:40'"),
    ("rate", FAST_BODY, ["--sir-db", "1e20:2:1.0000000000000002e20"],
     "--sir-db: sir_grid_db must be strictly increasing"),
], ids=["workers-0", "workers-negative", "trials-0", "seed-negative", "outage-bs-floor",
        "outage-su-floor", "rate-floor-file", "rate-floor-flag", "file-workers-0",
        "file-workers-fraction", "file-trials-inf", "file-trials-nan", "flag-w-inf",
        "flag-w-nan", "flag-cci-neg-inf", "flag-grid-inf", "file-epsilon-inf", "file-w-nan",
        "file-gamma-th-neg-inf", "file-grid-nan", "file-gamma-th-negative-su",
        "file-gamma-th-negative-bs", "file-grid-too-many-points", "flag-grid-too-many-points",
        "flag-grid-not-increasing"])
def test_cli_rejects_bad_counts_before_any_work(tmp_path, monkeypatch, capsys, cmd, body,
                                                flags, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the counts were checked")

    monkeypatch.setattr(curelay.expcli, "solve_water_level", no_solve)
    out = tmp_path / "never.csv"
    cfgp = write_cfg(tmp_path, body)
    assert main([cmd, "--config", str(cfgp), "--out", str(out), *flags]) == 2
    assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == [cfgp.name]


DB_RANGE = "must lie between about -3076.5 and 3082.5 dB"


@pytest.mark.parametrize("cmd, body, flags, where", [
    ("outage-bs", FAST_BODY, ["--sir-db", "4000:1:4000"], "--sir-db: sir_grid_db"),
    ("rate", FAST_BODY, ["--sir-db", "4000:1:4000"], "--sir-db: sir_grid_db"),
    ("outage-bs", FAST_BODY, ["--sir-db=-4000:1:-4000"], "--sir-db: sir_grid_db"),
    ("rate", FAST_BODY, ["--sir-db=-4000:1:-4000"], "--sir-db: sir_grid_db"),
    ("outage-su", FAST_BODY, ["--sir-db=-4000:1:-4000"], "--sir-db: sir_grid_db"),
    ("outage-su", FAST_BODY, ["--sir-db", "0:1000:4000"], "--sir-db: sir_grid_db"),
    ("water-level", FAST_BODY, ["--w-db", "4000"], "--w-db: w_db"),
    ("water-level", FAST_BODY, ["--cci-db", "4000"], "--cci-db: cci_db"),
    ("water-level", FAST_BODY, ["--w-db=-3076.6"], "--w-db: w_db"),
    ("outage-bs", FAST_BODY + "gamma_bar_db = 3082.6\n", [], "line 7: gamma_bar_db"),
], ids=["bs-grid-overflow", "rate-grid-overflow", "bs-grid-underflow", "rate-grid-underflow",
        "su-grid-underflow", "su-grid-last-point", "flag-w-overflow", "flag-cci-overflow",
        "flag-w-subnormal", "file-gamma-bar-overflow"])
def test_db_value_without_a_normal_linear_value_exits_2(tmp_path, monkeypatch, capsys, cmd,
                                                         body, flags, where):
    # a finite dB value whose linear value overflows, underflows or is
    # subnormal is rejected at load time, naming the key; nothing is written
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a config that should have been rejected")

    monkeypatch.setattr(curelay.expcli, "solve_water_level", no_solve)
    cfgp = write_cfg(tmp_path, body)
    assert main([cmd, "--config", str(cfgp), "--out", str(tmp_path / "o.csv"), *flags]) == 2
    assert capsys.readouterr().err.startswith(f"error: {where} {DB_RANGE}")
    assert [p.name for p in tmp_path.iterdir()] == [cfgp.name]


def test_db_range_ends_are_accepted(tmp_path):
    body = FAST_BODY.replace("w_db = 10.0", "w_db = 3082.5").replace("cci_db = 20.0",
                                                                      "cci_db = -3076.5")
    cfg = load_config(write_cfg(tmp_path, body.replace("0:20:40", "-3076.5:2:3082.5")))
    assert (cfg.power.w_db, cfg.power.p_cci_db) == (3082.5, -3076.5)
    assert (cfg.sir_grid_db[0], cfg.sir_grid_db[-1]) == (-3076.5, 3081.5)


@pytest.mark.parametrize("flag, key, bad", [
    ("--w-db", "w_db", "nan"),
    ("--cci-db", "cci_db", "soon"),
    ("--sir-db", "sir_grid_db", "0:5:inf"),
    ("--trials", "trials", "0"),
    ("--seed", "seed", "-1"),
    ("--workers", "workers", "1.5"),
])
def test_flag_and_file_key_share_one_check(tmp_path, monkeypatch, capsys, flag, key, bad):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a config that should have been rejected")

    monkeypatch.setattr(curelay.expcli, "solve_water_level", no_solve)
    body = "".join(line + "\n" for line in FAST_BODY.splitlines()
                   if not line.startswith(key))
    messages = []
    for text, flags in ((body + f"{key} = {bad}\n", []), (body, [flag, bad])):
        cfgp = write_cfg(tmp_path, text)
        assert main(["water-level", "--config", str(cfgp), "--out", str(tmp_path / "o.csv"),
                     *flags]) == 2
        messages.append(capsys.readouterr().err)
    line = len(body.splitlines()) + 1
    assert messages[0].startswith(f"error: line {line}: {key} ")
    assert messages[1] == messages[0].replace(f"line {line}: ", f"{flag}: ", 1)


# su1_x = 0.5, pu1_x = 0.75 and sin(angle) = -0.3125 put PU4 at equal
# distance from BS1 and PU1 (q == r), the limit branch of the T law
EQUAL_QR_BODY = FAST_BODY + f"""
su1_x = 0.5
pu1_x = 0.75
pu4_angle_deg = {math.degrees(math.asin(-0.3125))!r}
"""


@pytest.mark.parametrize("cmd", ["water-level", "outage-bs"])
def test_cli_runs_at_equal_pu4_distances(tmp_path, cmd):
    cfgp = write_cfg(tmp_path, EQUAL_QR_BODY)
    geom = load_config(cfgp).geometry
    assert geom.q == geom.r
    out = tmp_path / "qr.csv"
    r = run_cli(cmd, "--config", str(cfgp), "--out", str(out))
    assert r.returncode == 0, r.stderr
    meta, _, rows = read_rows(out)
    header = dict(m[2:].split(" = ") for m in meta)
    w_lin = 10.0 ** (10.0 / 10.0)
    assert abs(float(header["closed_form_consistent_residual"])) <= 1e-6 * w_lin
    assert rows


def test_validate_passes_at_equal_pu4_distances(tmp_path):
    r = run_cli("validate", "--config", str(write_cfg(tmp_path, EQUAL_QR_BODY)),
                "--out", str(tmp_path / "v.csv"))
    assert r.returncode == 0, r.stderr


def test_validate_at_zero_water_level(tmp_path):
    # lam = 0 at W = -100 dB, so the SU is silent and gamma_bs1 = 0: the BS
    # oracle row holds the estimate against its noise floor instead of
    # dividing by 0. The two checks of the lam = 0 solution against W FAIL
    out = tmp_path / "v.csv"
    r = subprocess.run([sys.executable, "-W", "error", "-m", "curelay", "validate",
                        "--config", str(DEFAULT_CFG), "--w-db=-100", "--out", str(out)],
                       capture_output=True, text=True)
    assert r.returncode == 1 and "2 validation check(s) FAILED" in r.stderr, r.stderr
    _, _, rows = read_rows(out)
    status = {row[0]: row[1] for row in rows}
    assert status["symbol-oracle-bs-relative"] == status["symbol-oracle-su-relative"] == "PASS"
    assert [name for name, st in status.items() if st == "FAIL"] == [
        "closed-form-consistent-residual", "constraint-mc-relative-error"]


def test_out_in_missing_directory_is_rejected_before_any_work(tmp_path, monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the output path was opened")

    monkeypatch.setattr(curelay.expcli, "solve_water_level", no_solve)
    cfgp = write_cfg(tmp_path, FAST_BODY)
    out = tmp_path / "no" / "such" / "x.csv"
    assert main(["outage-bs", "--config", str(cfgp), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {out}: ") and ".tmp" not in err
    assert [p.name for p in tmp_path.iterdir()] == [cfgp.name]


def test_out_naming_a_directory_is_rejected_before_any_work(tmp_path, monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the output path was checked")

    monkeypatch.setattr(curelay.expcli, "solve_water_level", no_solve)
    cfgp = write_cfg(tmp_path, FAST_BODY)
    out = tmp_path / "results"
    out.mkdir()
    (out / "kept.csv").write_bytes(b"written by someone else\n")
    assert main(["water-level", "--config", str(cfgp), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --out {out}: is a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([cfgp.name, "results"])
    assert [p.name for p in out.iterdir()] == ["kept.csv"]
    assert (out / "kept.csv").read_bytes() == b"written by someone else\n"


def test_failed_run_keeps_existing_output(tmp_path):
    out = tmp_path / "kept.csv"
    out.write_bytes(b"written by someone else\n")
    r = run_cli("water-level", "--config", str(DEFAULT_CFG), "--out", str(out),
                "--w-db", "60", "--cci-db", "-15")
    assert r.returncode == 3, r.stderr
    assert out.read_bytes() == b"written by someone else\n"
    assert [p.name for p in tmp_path.iterdir()] == ["kept.csv"]
