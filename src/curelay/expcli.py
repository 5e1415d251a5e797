"""Scenario configuration, experiment orchestration, and CSV emission.

Config files are flat UTF-8 `key = value` lines with `#` comments. Node
placement is given as coordinates (BS1 at the origin, BS2 on the x-axis);
the relay is the idle PU at `pu1_x`, and the pairwise distances feeding the
analysis are recomputed at load time. Command-line flags are merged into the
file's keys and pass the same checks.
CSV output is deterministic for a given (config, seed) and independent of
the worker count.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .analysis import (OUTAGE_MIN_TRIALS, RATE_MIN_TRIALS, SLICE_DRAWS, _sweep,
                       _validation_block, dist_su_upper, outage_mc, rate_curve)
from .channels import (PowerConfig, ScenarioGeometry, derive_etas, dist_t, dist_v3,
                       sample_fading)
from .mathkernel import (
    BracketError,
    IntegrationError,
    NumericTolerance,
    exp_e1,
    integrate,
    tricomi_psi11,
)
from .power import closed_form_check, solve_water_level
from .relaying import _ORACLE_SYMBOLS, sir_sample, symbol_level_oracle

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "run_experiment",
    "main",
]

SUBCOMMANDS = ("outage-bs", "outage-su", "rate", "water-level", "validate")

# the value of each key the file leaves out, as text like the file's own
_DEFAULTS = {
    "bs2_x": "2.0",
    "su1_x": "1.0",
    "pu1_x": "0.75",
    "pu4_offset": "0.4",
    "pu4_angle_deg": "30.0",
    "epsilon": "4.0",
    "w_db": "5.0",
    "cci_db": "20.0",
    "gamma_bar_db": "30.0",
    "gamma_th": "3.0",
    "sir_grid_db": "0:5:40",
    "trials": "1000000",
    "workers": "1",
}

_OUTAGE_COLUMNS = ("gamma_bar_db", "w_db", "cci_db", "gamma_th", "side", "p_out",
                   "ci_halfwidth", "lower_bound", "upper_bound", "trials", "excluded_draws")
_RATE_COLUMNS = ("gamma_bar_db", "w_db", "cci_db", "policy", "rate_objective",
                 "rate_endtoend", "ci_halfwidth", "trials")
_WATER_COLUMNS = ("w_db", "cci_db", "lambda", "residual", "closed_form_printed",
                  "closed_form_consistent", "target_w_lin")
_VALIDATE_COLUMNS = ("check", "status", "value", "threshold")
# smallest accepted value of each integer key, and each command's trial floor
_INT_MINIMA = {"trials": 1, "seed": 0, "workers": 1}
_TRIAL_FLOORS = {"outage-bs": OUTAGE_MIN_TRIALS, "outage-su": OUTAGE_MIN_TRIALS,
                 "rate": RATE_MIN_TRIALS}
_MAX_GRID_POINTS = 10_000
# draws of `validate`'s sampled checks, whatever the config's trials
_VALIDATE_DRAWS = 1_000_000
# the scalar keys given in dB; _parse_grid checks sir_grid_db's points
_DB_KEYS = ("w_db", "cci_db", "gamma_bar_db")
# the placement keys each ScenarioGeometry field is computed from
_PLACEMENT_KEYS = {
    "s": ("pu1_x",), "l": ("su1_x", "pu1_x"), "z": ("pu4_offset",), "d": ("bs2_x", "su1_x"),
    "r": ("su1_x", "pu1_x", "pu4_offset", "pu4_angle_deg"),
    "q": ("su1_x", "pu4_offset", "pu4_angle_deg"), "epsilon": ("epsilon",),
}
# each command-line flag and the config key it overrides
_FLAGS = {"--w-db": "w_db", "--cci-db": "cci_db", "--sir-db": "sir_grid_db",
          "--trials": "trials", "--seed": "seed", "--workers": "workers"}


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    geometry: ScenarioGeometry
    power: PowerConfig
    gamma_th: float
    sir_grid_db: tuple[float, ...]
    trials: int
    seed: int
    workers: int


def _parse_grid(text, key, where):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{where}: {key} must be LO:STEP:HI, got {text!r}")
    try:
        lo, step, hi = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"{where}: {key} has non-numeric component in {text!r}") from None
    for v in (lo, step, hi):
        _check_finite(key, v, where)
    if step <= 0 or hi < lo:
        raise ConfigError(f"{where}: {key} needs STEP > 0 and HI >= LO, got {text!r}")
    # np.arange's own point count, taken before it allocates
    if (hi + step / 2.0 - lo) / step > _MAX_GRID_POINTS:
        raise ConfigError(f"{where}: {key} has more than {_MAX_GRID_POINTS} points, got {text!r}")
    grid = tuple(float(v) for v in np.arange(lo, hi + step / 2.0, step))
    if not grid:
        raise ConfigError(f"{where}: {key} produced an empty grid")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"{where}: {key} must be strictly increasing, got {text!r}")
    for v in (grid[0], grid[-1]):  # the linear value is monotone in the point
        _check_db(key, v, where)
    return grid


def _geometry_from_placement(vals, given):
    """The ScenarioGeometry of the placement in `vals`; an invalid one raises
    ConfigError naming where each key it was computed from was given."""
    su1_x = vals["su1_x"]
    pu1_x = vals["pu1_x"]
    bs2_x = vals["bs2_x"]
    off = vals["pu4_offset"]
    ang = math.radians(vals["pu4_angle_deg"])
    pu4 = (su1_x + off * math.sin(ang), off * math.cos(ang))
    dims = dict(
        s=pu1_x,
        l=abs(su1_x - pu1_x),
        r=math.hypot(pu4[0] - pu1_x, pu4[1]),
        q=math.hypot(pu4[0], pu4[1]),
        z=off,
        d=abs(bs2_x - su1_x),
        epsilon=vals["epsilon"],
    )
    try:
        return ScenarioGeometry(**dims)
    except ValueError as exc:
        # the defaults place every node validly, so a given key is to blame
        bad = [name for name, v in dims.items() if name != "epsilon" and not v > 0]
        keys = [k for name in bad or ["epsilon"] for k in _PLACEMENT_KEYS[name] if k in given]
        where = ", ".join(dict.fromkeys(given[k][1] for k in keys))
        raise ConfigError(f"{where}: invalid geometry: {exc}") from None


def _check_finite(key, value, where):
    """`value`, or ConfigError naming `key` and `where` it was given if it is
    nan or infinite."""
    if not math.isfinite(value):
        raise ConfigError(f"{where}: {key} must be a finite number, got {value}")
    return value


def _check_db(key, value, where):
    """ConfigError naming `key` and `where` it was given unless the linear
    value 10^(value/10) of the dB `value` is a finite, positive normal float,
    which holds from about -3076.5 to 3082.5 dB."""
    try:
        lin = 10.0 ** (value / 10.0)
    except OverflowError:
        lin = math.inf
    if not sys.float_info.min <= lin < math.inf:
        raise ConfigError(f"{where}: {key} must lie between about -3076.5 and 3082.5 dB "
                          f"(its linear value must be a finite, positive normal float), "
                          f"got {value:g}")


def _check_int(key, text, value, where):
    """`text` (read as `value`) as an int; ConfigError naming `key` and `where`
    it was given unless it is a whole number of at least _INT_MINIMA[key]."""
    low = _INT_MINIMA[key]
    if not value.is_integer() or value < low:
        raise ConfigError(f"{where}: {key} must be an integer >= {low}, got {text}")
    return int(text) if text.isdigit() else int(value)  # digits stay exact above 2**53


def _build_config(given):
    """The config from the file's `key -> (text, where)` map with any flags
    merged in; each error names the key and the line or flag it came from."""
    if "seed" not in given:
        raise ConfigError("missing mandatory key 'seed' (wall-clock seeding is not supported)")
    merged = {key: (text, "line ?") for key, text in _DEFAULTS.items()} | given
    vals = {}
    for key, (text, where) in merged.items():
        if key == "sir_grid_db":
            vals[key] = _parse_grid(text, key, where)
            continue
        try:
            value = float(text)
        except ValueError:
            raise ConfigError(f"{where}: {key} must be numeric, got {text!r}") from None
        vals[key] = (_check_int(key, text, value, where) if key in _INT_MINIMA
                     else _check_finite(key, value, where))
        if key == "gamma_th" and value < 0:
            raise ConfigError(f"{where}: gamma_th must be >= 0, got {text}")
        if key in _DB_KEYS:
            _check_db(key, value, where)
    geom = _geometry_from_placement(vals, given)
    power = PowerConfig(p_cci_db=vals["cci_db"], w_db=vals["w_db"],
                        gamma_bar_db=vals["gamma_bar_db"])
    return ExperimentConfig(
        geometry=geom, power=power, gamma_th=vals["gamma_th"], sir_grid_db=vals["sir_grid_db"],
        **{key: vals[key] for key in _INT_MINIMA},
    )


def _read_config(path):
    """A config file's `key -> (text, "line N")` map; unknown or repeated keys raise."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    given = {}
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        where = f"line {lineno}"
        if "=" not in text:
            raise ConfigError(f"{where}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = (part.strip() for part in text.partition("="))
        if key not in _DEFAULTS and key != "seed":
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in given:
            raise ConfigError(f"{where}: duplicate key {key!r} (first on {given[key][1]})")
        given[key] = (value, where)
    return given


def load_config(path) -> ExperimentConfig:
    """Parse and fully validate a flat key = value config file.

    Unknown keys are rejected; errors name the offending key and line.
    """
    return _build_config(_read_config(path))


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _outage_rows(cfg: ExperimentConfig, side: str, lam: float):
    ests = outage_mc(cfg.geometry, cfg.power, lam, cfg.gamma_th, side, cfg.sir_grid_db,
                     cfg.trials, cfg.seed, cfg.workers)
    return [(gbar_db, cfg.power.w_db, cfg.power.p_cci_db, cfg.gamma_th, side,
             est.p_out, est.ci_halfwidth, est.lower_bound, est.upper_bound,
             est.trials, est.excluded_draws)
            for gbar_db, est in zip(cfg.sir_grid_db, ests)]


def _rate_rows(cfg: ExperimentConfig, lam: float):
    ests = rate_curve(cfg.geometry, cfg.power, lam, cfg.sir_grid_db, cfg.trials, cfg.seed,
                      cfg.workers)
    return [(est.sir_db, cfg.power.w_db, cfg.power.p_cci_db, est.policy,
             est.rate_objective, est.rate_endtoend, est.ci_halfwidth, est.trials)
            for est in ests]


def _validation_rows(cfg: ExperimentConfig):
    """Fast oracle/invariant suite; each row is (check, status, value, threshold)."""
    geom, power = cfg.geometry, cfg.power
    rows = []

    def check(name, value, threshold):
        rows.append((name, "PASS" if value <= threshold else "FAIL", value, threshold))

    tight = NumericTolerance(rel_tol=1e-13, abs_tol=1e-300, max_iter=4000)
    xs = np.geomspace(1e-6, 300.0, 20)
    worst = max(abs(integrate(lambda t: np.exp(-t) / t, x, math.inf, tight).value
                    - exp_e1(x)) / exp_e1(x) for x in xs)
    check("e1-vs-quadrature", worst, 1e-10)
    worst = max(abs(integrate(lambda t: np.exp(-x * t) / (1.0 + t), 0.0, math.inf, tight).value
                    - tricomi_psi11(x)) / tricomi_psi11(x) for x in xs)
    check("psi11-vs-quadrature", worst, 1e-10)

    # the SU upper-bound tail 1 - F(g) = int_g^inf P(gamma3 > g t/(t-g)) f4(t) dt,
    # across both 2F1 branches (w <= 0.5 and above)
    et = derive_etas(geom)
    e2, e3 = et.eta2 * power.gamma_bar_lin, et.eta3 * power.gamma_bar_lin
    worst = 0.0
    for g in np.geomspace(1e-2, 1e2, 9) * math.sqrt(e2 * e3):
        def tail(t):
            return (e2 / (g * t / (t - g) + e2)) * (e3 / (t + e3) ** 2)
        ref = integrate(tail, g, math.inf, tight).value
        _, cdf = dist_su_upper(g, geom, power)
        worst = max(worst, abs(1.0 - cdf - ref) / ref)
    check("su-tail-vs-quadrature", worst, 1e-8)

    worst = 0.0
    for x in (0.1, 1.0, 7.0, 50.0):
        def inner(y):
            return (x / (x + y)) * dist_v3(y, geom)[0]
        ref = integrate(inner, 0.0, math.inf, tight).value
        _, cdf = dist_t(x, geom)
        worst = max(worst, abs(float(cdf) - ref) / ref)
    check("t-cdf-vs-double-quad", worst, 1e-8)

    level = solve_water_level(geom, power)
    report = closed_form_check(level.lam, geom, power)
    check("closed-form-consistent-residual",
          abs(report.consistent_residual) / power.w_lin, 1e-6)
    rows.append(("closed-form-printed-residual", "INFO",
                 report.as_printed_residual, math.nan))

    (sums,) = _sweep(_validation_block, [(power, geom, level.lam, SLICE_DRAWS)],
                     _VALIDATE_DRAWS, cfg.seed, cfg.workers)
    mc = sums[0] / _VALIDATE_DRAWS
    check("constraint-mc-relative-error", abs(mc - power.w_lin) / power.w_lin, 5e-3)
    for name, bad in zip(("bound-sandwich-violations", "sinr-le-sir-violations",
                          "su-upper-equality-iff-zero-power"), sums[1:]):
        check(name, float(bad), 0.0)

    one = sample_fading(np.random.default_rng(cfg.seed + 1), power)
    sir_hat = symbol_level_oracle(one, geom, power, level.lam, np.random.default_rng(cfg.seed + 2))
    closed = sir_sample(one, geom, power, level.lam)
    for name, est, exact in (("bs", sir_hat[0], closed.gamma_bs1[0]),
                             ("su", sir_hat[1], closed.gamma_su1[0])):
        if exact == 0.0:
            # no desired signal (P_su1 = 0): the estimate is the estimator's
            # noise floor, Exp(1)/N for N symbols, above 20/N with probability e^-20
            check(f"symbol-oracle-{name}-relative", est, 20.0 / _ORACLE_SYMBOLS)
        else:
            check(f"symbol-oracle-{name}-relative", abs(est - exact) / exact, 0.02)
    return rows


def _csv_lines(cmd: str, cfg: ExperimentConfig):
    """The CSV lines of one subcommand and the count of FAILed validation
    checks (0 for the other subcommands)."""
    trials = _VALIDATE_DRAWS if cmd == "validate" else cfg.trials
    header = [f"# seed = {cfg.seed}", f"# trials = {trials}"]
    failures = 0
    if cmd == "validate":
        columns, rows = _VALIDATE_COLUMNS, _validation_rows(cfg)
        failures = sum(1 for r in rows if r[1] == "FAIL")
    else:
        level = solve_water_level(cfg.geometry, cfg.power)
        report = closed_form_check(level.lam, cfg.geometry, cfg.power)
        header += [f"# lambda = {_fmt(level.lam)}",
                   f"# lambda_residual = {_fmt(level.residual)}",
                   f"# closed_form_printed_residual = {_fmt(report.as_printed_residual)}",
                   f"# closed_form_consistent_residual = {_fmt(report.consistent_residual)}"]
        if cmd == "outage-bs":
            columns, rows = _OUTAGE_COLUMNS, _outage_rows(cfg, "bs", level.lam)
        elif cmd == "outage-su":
            columns, rows = _OUTAGE_COLUMNS, _outage_rows(cfg, "su", level.lam)
        elif cmd == "rate":
            columns, rows = _RATE_COLUMNS, _rate_rows(cfg, level.lam)
        else:  # water-level
            columns = _WATER_COLUMNS
            rows = [(cfg.power.w_db, cfg.power.p_cci_db, level.lam, level.residual,
                     report.as_printed_value, report.consistent_value, cfg.power.w_lin)]
    lines = header + [",".join(columns)] + [",".join(_fmt(v) for v in row) for row in rows]
    return lines, failures


def run_experiment(cmd: str, cfg: ExperimentConfig, out_path: str) -> int:
    """Run one subcommand and write its CSV. Returns the count of FAILed
    validation checks (0 for the other subcommands).

    The CSV goes to a temporary file next to `out_path`, opened before any
    work, and is moved over it only when complete, so a failed run leaves
    `out_path` as it was.
    """
    if cmd not in SUBCOMMANDS:
        raise ValueError(f"unknown subcommand {cmd!r}")
    floor = _TRIAL_FLOORS.get(cmd, 0)
    if cfg.trials < floor:
        raise ConfigError(f"trials must be >= {floor} for {cmd}, got {cfg.trials}")
    if os.path.isdir(out_path):
        raise ConfigError(f"--out {os.fspath(out_path)}: is a directory")
    tmp = f"{os.fspath(out_path)}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"--out {os.fspath(out_path)}: cannot write: {exc.strerror}") from None
    try:
        with fh:
            lines, failures = _csv_lines(cmd, cfg)
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, out_path)
    except BaseException:
        os.unlink(tmp)
        raise
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="curelay",
        description="Underlay two-way AF relaying experiments (outage, rate, water level).")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        for flag, key in _FLAGS.items():
            p.add_argument(flag, dest=key)
    args = parser.parse_args(argv)
    flags = {key: (getattr(args, key), flag) for flag, key in _FLAGS.items()
             if getattr(args, key) is not None}
    try:
        cfg = _build_config(_read_config(args.config) | flags)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        failures = run_experiment(args.cmd, cfg, args.out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BracketError, IntegrationError) as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - report any failure as exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if failures:
        print(f"{failures} validation check(s) FAILED (see {args.out})", file=sys.stderr)
        return 1
    return 0

