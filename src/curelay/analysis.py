"""Outage probability (Monte-Carlo and analytic bounds), the SU-side
upper-bound distribution in closed form, and achievable-rate curves.

Monte-Carlo runs split each grid point into fixed-size blocks; block i of
point k draws from a generator seeded by (seed, k * 1,000,000 + i). Each
`outage_mc` (one point) or `rate_curve` call runs all its blocks through one
process pool and reduces the partial sums in block order, so results are
bit-identical for any worker count.

Outage semantics: at the base station the statistic is conditioned on the
secondary actually transmitting (P_su1 > 0), matching the truncated law the
analytic bounds are built from; no-transmission draws are reported in
`excluded_draws`. At the secondary user all well-defined draws count (the
P_su1 = 0 mass sits exactly at the upper-bound SIR and drives the
convergence to the closed-form curve). Infinite-SIR draws count as
non-outage on both sides.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .channels import (
    PowerConfig,
    ScenarioGeometry,
    derive_etas,
    dist_gamma_ratio,
    dist_t,
    sample_fading,
)
from .mathkernel import gauss_2f1, gauss_2f1_near_unit
from .power import fixed_power, optimal_power
from .relaying import bs_sir, sir_sample

__all__ = [
    "OutageEstimate",
    "RateEstimate",
    "outage_mc",
    "outage_bs_bounds",
    "dist_su_upper",
    "su_outage_closed_form",
    "rate_curve",
]

BLOCK_SIZE = 250_000
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class OutageEstimate:
    """Monte-Carlo outage probability with its 95% half-width and, when
    applicable, the analytic lower/upper bounds at the same threshold.

    trials is the number of draws entering the statistic, so
    ci_halfwidth = 1.96 sqrt(p (1-p)/trials) holds exactly;
    excluded_draws = requested - trials.
    """

    p_out: float
    ci_halfwidth: float
    trials: int
    gamma_th: float
    side: str
    lower_bound: float | None
    upper_bound: float | None
    excluded_draws: int


@dataclass(frozen=True)
class RateEstimate:
    """Expected rate at one operating point under one power policy.

    rate_objective is E[log2(1 + gamma2)] (the quantity the power allocation
    maximizes); rate_endtoend is E[0.5 log2(1 + gamma_bs1)].
    """

    sir_db: float
    policy: str
    rate_objective: float
    rate_endtoend: float
    ci_halfwidth: float
    trials: int


def _run_block(task):
    block_fn, cfg, args, seed, stream, n = task
    draw = sample_fading(np.random.default_rng([seed, stream]), cfg, n)
    return block_fn(draw, cfg, *args)


def _sweep(block_fn, args, configs, trials, seed, workers, block_size):
    """Per PowerConfig in `configs`, the column sums of block_fn(draw, cfg,
    *args) over `trials` draws, in the block layout of the module docstring."""
    n_full, rem = divmod(trials, block_size)
    sizes = [block_size] * n_full + ([rem] if rem else [])
    tasks = [(block_fn, cfg, args, seed, k * 1_000_000 + i, n)
             for k, cfg in enumerate(configs) for i, n in enumerate(sizes)]
    if workers <= 1:
        parts = [_run_block(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_block, tasks))
    nb = len(sizes)
    return [[sum(col) for col in zip(*parts[k * nb:(k + 1) * nb])]
            for k in range(len(configs))]


def _outage_block(draw, cfg, geom, lam, gamma_th, side):
    s = sir_sample(draw, geom, cfg, lam)
    counted = s.valid & (s.p_su1 > 0) if side == "bs" else s.valid
    gamma = s.gamma_bs1 if side == "bs" else s.gamma_su1
    n_counted = int(np.count_nonzero(counted))
    n_out = int(np.count_nonzero(gamma[counted] < gamma_th))
    return n_out, n_counted


def outage_mc(geom: ScenarioGeometry, cfg: PowerConfig, lam: float, gamma_th: float,
              side: str, trials: int, seed: int, workers: int = 1,
              block_size: int = BLOCK_SIZE) -> OutageEstimate:
    """Monte-Carlo outage probability P(gamma_side < gamma_th).

    Requires a pre-solved water level; deterministic for a given seed
    regardless of `workers`. Analytic bounds are attached: the order-
    statistics pair at the BS, the closed-form upper-bound-SIR curve at the
    SU (a lower bound on outage there).
    """
    if lam is None or lam < 0:
        raise ValueError("outage_mc requires a solved, nonnegative water level")
    if side not in ("bs", "su"):
        raise ValueError(f"side must be 'bs' or 'su', got {side!r}")
    if trials < 10_000:
        raise ValueError("trials must be >= 1e4")
    [(n_out, n_counted)] = _sweep(
        _outage_block, (geom, lam, gamma_th, side), [cfg], trials, seed, workers, block_size)
    p_out = n_out / n_counted if n_counted else math.nan
    ci = 1.96 * math.sqrt(p_out * (1.0 - p_out) / n_counted) if n_counted else math.nan
    if side == "bs":
        lower, upper = outage_bs_bounds(gamma_th, geom, cfg, lam)
    else:
        lower, upper = su_outage_closed_form(gamma_th, geom, cfg), None
    return OutageEstimate(p_out=p_out, ci_halfwidth=ci, trials=n_counted,
                          gamma_th=gamma_th, side=side, lower_bound=lower,
                          upper_bound=upper, excluded_draws=trials - n_counted)


def _gamma2_cdf(x, geom, lam, p_cci):
    """CDF of gamma2 given transmission: 1 - F_T(c2/(x+1))/F_T(c2), c2 = lam/(eta4 P)."""
    et = derive_etas(geom)
    c2 = lam / (et.eta4 * p_cci)
    _, ft_c2 = dist_t(c2, geom)
    _, ft = dist_t(c2 / (np.asarray(x, dtype=float) + 1.0), geom)
    return 1.0 - ft / ft_c2


def outage_bs_bounds(gamma_th: float, geom: ScenarioGeometry, cfg: PowerConfig,
                     lam: float):
    """Order-statistics bounds on the BS outage probability.

    lower = F1(g) + F2(g) - F1(g) F2(g) evaluated at g = gamma_th,
    upper = the same expression at 2 gamma_th.
    """
    if gamma_th < 0:
        raise ValueError("gamma_th must be >= 0")
    if gamma_th == 0.0:
        return 0.0, 0.0
    et = derive_etas(geom)

    def combined(g):
        _, f1 = dist_gamma_ratio(g, et.eta1, cfg.gamma_bar_lin)
        f2 = float(_gamma2_cdf(g, geom, lam, cfg.p_cci_lin))
        return f1 + f2 - f1 * f2

    return combined(gamma_th), combined(2.0 * gamma_th)


def _su_upper_cdf_scalar(x, e2, e3):
    w = x * x / ((x + e2) * (x + e3))
    if w <= 0.5:
        hyp = gauss_2f1_near_unit(2, 2, 3, w)
    else:
        hyp = gauss_2f1(2, 2, 3, 1.0 - w)
    pref = e2 * e3 * x * x / (2.0 * (x + e2) ** 2 * (x + e3) ** 2)
    return 1.0 - pref * hyp


def _su_upper_pdf_scalar(x, e2, e3):
    w = x * x / ((x + e2) * (x + e3))
    if w <= 0.5:
        h223 = gauss_2f1_near_unit(2, 2, 3, w)
        h334 = gauss_2f1_near_unit(3, 3, 4, w)
    else:
        h223 = gauss_2f1(2, 2, 3, 1.0 - w)
        h334 = gauss_2f1(3, 3, 4, 1.0 - w)
    da = (x + e2) * (x + e3)
    t1 = e2 * e3 * x * (x * x - e2 * e3) / da**3 * h223
    t2 = 2.0 * e2 * e3 * x**3 * (x * (e2 + e3) + 2.0 * e2 * e3) / (3.0 * da**4) * h334
    return t1 + t2


def dist_su_upper(x, geom: ScenarioGeometry, cfg: PowerConfig):
    """pdf/cdf of the SU-side upper-bound SIR gamma3*gamma4/(gamma3+gamma4).

    Closed form in terms of 2F1(2,2;3;.) and 2F1(3,3;4;.), with the
    hypergeometric argument's distance to 1 computed directly so the pole
    cancellation at small x stays numerically exact.
    """
    arr = np.asarray(x, dtype=float)
    if arr.size and not (arr > 0).all():
        raise ValueError("dist_su_upper requires x > 0")
    et = derive_etas(geom)
    e2 = et.eta2 * cfg.gamma_bar_lin
    e3 = et.eta3 * cfg.gamma_bar_lin
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr).ravel()
    pdf = np.array([_su_upper_pdf_scalar(v, e2, e3) for v in flat]).reshape(np.atleast_1d(arr).shape)
    cdf = np.array([_su_upper_cdf_scalar(v, e2, e3) for v in flat]).reshape(np.atleast_1d(arr).shape)
    if scalar:
        return float(pdf[0]), float(cdf[0])
    return pdf, cdf


def su_outage_closed_form(gamma_th: float, geom: ScenarioGeometry, cfg: PowerConfig) -> float:
    """Outage of the SU-side upper-bound SIR: a lower bound on the SU outage."""
    if gamma_th <= 0:
        return 0.0
    _, cdf = dist_su_upper(gamma_th, geom, cfg)
    return float(cdf)


def _rate_block(draw, cfg, geom, lam, policy):
    if policy == "optimal":
        p_su1 = optimal_power(draw, geom, cfg, lam)
    else:
        p_su1 = fixed_power(cfg, geom)
    _, gamma2, gbs = bs_sir(draw, geom, cfg, p_su1)
    valid = np.isfinite(gamma2) & np.isfinite(gbs)
    obj = np.log1p(gamma2[valid]) / _LN2
    e2e = 0.5 * np.log1p(gbs[valid]) / _LN2
    return (float(obj.sum()), float(np.square(obj).sum()), float(e2e.sum()),
            int(valid.sum()))


def rate_curve(geom: ScenarioGeometry, cfg: PowerConfig, lam: float, policy: str,
               sir_grid_db, trials: int, seed: int, workers: int = 1,
               block_size: int = BLOCK_SIZE):
    """Expected-rate sweep over average-SIR operating points for one policy.

    Emits both the allocation objective E[log2(1+gamma2)] and the
    end-to-end half-duplex rate E[0.5 log2(1+gamma_bs1)] per point.
    """
    if policy not in ("optimal", "fixed"):
        raise ValueError(f"policy must be 'optimal' or 'fixed', got {policy!r}")
    if trials < 100_000:
        raise ValueError("trials must be >= 1e5 per grid point")
    if policy == "optimal" and (lam is None or lam < 0):
        raise ValueError("optimal policy requires a solved water level")
    configs = [replace(cfg, gamma_bar_db=float(sir_db)) for sir_db in sir_grid_db]
    sums = _sweep(_rate_block, (geom, lam, policy), configs, trials, seed, workers, block_size)
    out = []
    for sir_db, (s, ss, se, n_valid) in zip(sir_grid_db, sums):
        mean_obj = s / n_valid
        var = max(ss / n_valid - mean_obj * mean_obj, 0.0)
        out.append(RateEstimate(
            sir_db=float(sir_db), policy=policy,
            rate_objective=mean_obj, rate_endtoend=se / n_valid,
            ci_halfwidth=1.96 * math.sqrt(var / n_valid), trials=n_valid))
    return out
