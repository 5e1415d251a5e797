"""The benchmark's workloads and the checks on their outputs.

A workload is built from the benchmark seed; the library receives only what
that seed generates (the config ``seed`` for the Monte-Carlo workloads, the
jittered (W, CCI) points for the analytic grid). One call of ``run_pass``
runs the workload once and returns what it did, how long the library calls
took, and every operation that failed its check.
"""

from __future__ import annotations

import csv
import hashlib
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import curelay.analysis as analysis
import curelay.expcli as expcli
import curelay.power as power_mod
from curelay.mathkernel import IntegrationError

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "default.cfg"
WORK_DIR = ROOT / ".perfbench_work"

# analytic_grid strata: bands of d = W - CCI (dB) over the box
# W in [-10, 60] x CCI in [-30, 60]. The water-level solve's outcome and cost
# depend on d, not on W and CCI apart. The cost climbs steeply from d = 50 dB
# to the failure edge between 65.1 and 65.2 dB, hence the narrow bands there.
# The last band is the corner where solve_water_level raises
# IntegrationError. The 1 dB around the edge, 65 to 66 dB, is left out, so
# that every corner point fails and every other point solves, whatever the
# seed.
W_RANGE_DB = (-10.0, 60.0)
CCI_RANGE_DB = (-30.0, 60.0)
DIFF_BANDS_DB = ((-70.0, -20.0), (-20.0, 20.0), (20.0, 50.0), (50.0, 60.0),
                 (60.0, 65.0), (66.0, 90.0))
CORNER_BAND = len(DIFF_BANDS_DB) - 1
THRESHOLDS = np.geomspace(0.1, 100.0, 25)
X_GRID = np.geomspace(1e-3, 1e5, 1000)


@dataclass
class PassOutcome:
    """What one pass did. ``failures`` holds one message per failed
    operation; ``known_errors`` the analytic-grid points that hit the known
    solver failure in the corner stratum; ``op_seconds`` the time of each
    operation (subcommand, or stratum)."""

    seconds: float
    attempted: int
    op_seconds: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    known_errors: list = field(default_factory=list)
    solves: int = 0
    draws: int = 0
    max_ci: float = 0.0
    counted: int = 0
    requested: int = 0
    csv_bytes: int = 0


def library_seed(seed):
    """The config seed handed to the library for a benchmark seed."""
    return int(np.random.default_rng([seed, 0]).integers(0, 2**31 - 1))


def diff_quantile(lo, hi, u):
    """The u-quantile of d = W - CCI over the band lo <= d <= hi of the box,
    whose density at d is the length of the W range that d leaves open."""
    d = np.linspace(lo, hi, 1001)
    width = (np.minimum(W_RANGE_DB[1], d + CCI_RANGE_DB[1])
             - np.maximum(W_RANGE_DB[0], d + CCI_RANGE_DB[0]))
    cdf = np.concatenate([[0.0], np.cumsum(width[1:] + width[:-1])])
    return float(np.interp(u * cdf[-1], cdf, d))


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def check_outage(rows, side, grid, requested):
    """Problems in one outage CSV; empty when every row is consistent."""
    problems = []
    got = [float(r["gamma_bar_db"]) for r in rows]
    if got != list(grid):
        problems.append(f"{side}: rows at gamma_bar_db {got}, expected {list(grid)}")
    for r in rows:
        p, ci = float(r["p_out"]), float(r["ci_halfwidth"])
        lower = float(r["lower_bound"])
        where = f"{side} gamma_bar_db={r['gamma_bar_db']}"
        if r["side"] != side:
            problems.append(f"{where}: side column {r['side']!r}")
        if int(r["trials"]) + int(r["excluded_draws"]) != requested:
            problems.append(f"{where}: trials + excluded_draws != {requested}")
        if not p >= lower - 3.0 * ci:
            problems.append(f"{where}: p_out {p} below lower bound {lower} - 3 ci")
        if side == "bs" and not p <= float(r["upper_bound"]) + 3.0 * ci:
            problems.append(f"{where}: p_out {p} above upper bound {r['upper_bound']} + 3 ci")
    return problems


def check_rate(rows, grid, requested):
    """Problems in one rate CSV: both policies at every grid point, and the
    optimal policy's objective at least the fixed one's."""
    problems = []
    by_policy = {"optimal": {}, "fixed": {}}
    for r in rows:
        by_policy.setdefault(r["policy"], {})[float(r["gamma_bar_db"])] = r
        if not 0 < int(r["trials"]) <= requested:
            problems.append(f"rate {r['policy']} {r['gamma_bar_db']}: trials {r['trials']}")
    if len(rows) != 2 * len(grid):
        problems.append(f"rate: {len(rows)} rows, expected {2 * len(grid)}")
    for g in grid:
        opt, fix = by_policy["optimal"].get(g), by_policy["fixed"].get(g)
        if opt is None or fix is None:
            problems.append(f"rate: missing policy row at gamma_bar_db={g}")
        elif not float(opt["rate_objective"]) >= float(fix["rate_objective"]):
            problems.append(f"rate gamma_bar_db={g}: optimal objective below fixed")
    return problems


def check_analytic(w_db, report, bounds, cdf):
    """Problems at one analytic-grid point."""
    problems = []
    w_lin = 10.0 ** (w_db / 10.0)
    if not abs(report.consistent_residual) <= 1e-6 * w_lin:
        problems.append(f"closed-form residual {report.consistent_residual} > 1e-6 W")
    for lower, upper in bounds:
        if not 0.0 <= lower <= upper <= 1.0:
            problems.append(f"BS bounds ({lower}, {upper}) not ordered in [0, 1]")
            break
    if not (np.all(np.diff(cdf) >= 0.0) and cdf[0] >= 0.0 and cdf[-1] <= 1.0):
        problems.append("dist_su_upper CDF not monotone in [0, 1]")
    return problems


def run_cli(cmd, config, out_dir, workers=1, seed=None):
    """One subcommand through ``curelay.expcli.main``; (exit code, CSV path).
    Without ``seed`` the config's own seed applies."""
    out = out_dir / f"{cmd}.csv"
    argv = [cmd, "--config", str(config), "--out", str(out), "--workers", str(workers)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return expcli.main(argv), out


def golden_digests(workload):
    """SHA-256 of each golden command's CSV at the config's own seed."""
    digests = {}
    for cmd in workload.golden_commands:
        code, out = run_cli(cmd, workload.config, workload.out_dir)
        digests[cmd] = hashlib.sha256(out.read_bytes()).hexdigest() if code == 0 \
            else f"exit code {code}"
    return digests


class MonteCarlo:
    """CLI subcommands run in-process through ``curelay.expcli.main``."""

    def __init__(self, name, commands, workers, seed, config=CONFIG):
        self.name, self.commands, self.workers = name, commands, workers
        self.golden_commands = commands
        self.config = Path(config)
        self.seed = library_seed(seed)
        cfg = expcli.load_config(self.config)
        self.grid, self.trials = cfg.sir_grid_db, cfg.trials
        self.out_dir = WORK_DIR / name
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def run_pass(self, workers):
        start = time.perf_counter()
        codes, op_seconds = [], {}
        for cmd in self.commands:
            op_start = time.perf_counter()
            codes.append(run_cli(cmd, self.config, self.out_dir, workers, self.seed))
            op_seconds[cmd] = time.perf_counter() - op_start
        seconds = time.perf_counter() - start
        outcome = PassOutcome(seconds=seconds, attempted=len(self.commands),
                              op_seconds=op_seconds)
        for cmd, (code, out) in zip(self.commands, codes):
            if code != 0:
                outcome.failures.append(f"{cmd}: exit code {code}")
                continue
            rows = read_csv(out)
            if cmd == "rate":
                problems = check_rate(rows, self.grid, self.trials)
                outcome.draws += 2 * len(self.grid) * self.trials
                outcome.requested += len(rows) * self.trials
            else:
                problems = check_outage(rows, cmd[-2:], self.grid, self.trials)
                outcome.draws += len(self.grid) * self.trials
                outcome.requested += sum(int(r["trials"]) + int(r["excluded_draws"])
                                         for r in rows)
            if problems:
                outcome.failures.append(f"{cmd}: " + "; ".join(problems))
            outcome.solves += 1
            outcome.counted += sum(int(r["trials"]) for r in rows)
            outcome.max_ci = max([outcome.max_ci] + [float(r["ci_halfwidth"]) for r in rows])
            outcome.csv_bytes += out.stat().st_size
        return outcome


class AnalyticGrid:
    """Water-level solve, closed-form check, BS bounds and the SU upper-bound
    law at one jittered (W, CCI) point per stratum."""

    name = "analytic_grid"
    workers = 1
    golden_commands = ("water-level",)

    def __init__(self, seed, config=CONFIG, bands=DIFF_BANDS_DB, corner=CORNER_BAND):
        self.config = Path(config)
        self.corner = corner
        # Each point is uniform over its stratum. Neighbouring strata take d at
        # quantiles u and 1 - u of one draw u: cost rises with d in every band
        # that solves, so a costly point in one band meets a cheap one in the
        # next, which keeps the work of a pass within a few percent across
        # seeds. In the corner the solve fails after about a second at any d.
        rng = np.random.default_rng([seed, 1])
        u = rng.uniform()
        self.points = []
        for band, (lo, hi) in enumerate(bands):
            d = diff_quantile(lo, hi, u if band % 2 == 0 else 1.0 - u)
            w = rng.uniform(max(W_RANGE_DB[0], d + CCI_RANGE_DB[0]),
                            min(W_RANGE_DB[1], d + CCI_RANGE_DB[1]))
            self.points.append((band, w, w - d))
        self.out_dir = WORK_DIR / self.name
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def run_pass(self, workers):
        start = time.perf_counter()
        cfg = expcli.load_config(self.config)
        geom = cfg.geometry
        results, op_seconds = [], {}
        for band, w, cci in self.points:
            op_start = time.perf_counter()
            pw = replace(cfg.power, w_db=w, p_cci_db=cci)
            try:
                level = power_mod.solve_water_level(geom, pw)
                report = power_mod.closed_form_check(level.lam, geom, pw)
                bounds = [analysis.outage_bs_bounds(float(th), geom, pw, level.lam)
                          for th in THRESHOLDS]
                _, cdf = analysis.dist_su_upper(X_GRID, geom, pw)
                results.append((band, w, cci, None, (report, bounds, cdf)))
            except Exception as exc:  # noqa: BLE001 - every failure is counted below
                results.append((band, w, cci, exc, None))
            op_seconds[f"band{band}"] = time.perf_counter() - op_start
        seconds = time.perf_counter() - start
        outcome = PassOutcome(seconds=seconds, attempted=len(self.points),
                              op_seconds=op_seconds)
        for band, w, cci, exc, out in results:
            where = f"W={w:.3f} CCI={cci:.3f}"
            if exc is None:
                problems = check_analytic(w, *out)
                if problems:
                    outcome.failures.append(f"{where}: " + "; ".join(problems))
                outcome.solves += 1
            elif band == self.corner and isinstance(exc, IntegrationError):
                outcome.known_errors.append((round(w, 3), round(cci, 3)))
            else:
                outcome.failures.append(f"{where}: {type(exc).__name__}: {exc}")
        return outcome


def make_workload(name, seed, config=CONFIG):
    if name == "mc_outage":
        return MonteCarlo(name, ("outage-bs", "outage-su"), 1, seed, config)
    if name == "mc_rate_pool":
        return MonteCarlo(name, ("rate",), 2, seed, config)
    if name == "analytic_grid":
        return AnalyticGrid(seed, config)
    raise ValueError(f"unknown workload {name!r}")
