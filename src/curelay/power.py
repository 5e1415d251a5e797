"""Average-interference-constrained power allocation at the secondary user.

The water level lam solves

    E[(lam - eta4 * P * T)^+] = 10^(W/10),        T = V1 * V3,

evaluated by adaptive quadrature against the analytic T density and solved
by bracketing bisection (the left side is continuous and nondecreasing in
lam). Bisection steps far from the root are steered by the closed-form
reduction of the same expectation while it matches the quadrature; every
step near the root, and the returned lam and residual, use the quadrature.
Each quadrature of a solve replays the panel tree of the one before it; the
bits do not change.
The per-draw optimal transmit power is then

    P_su1 = max(0, lam/(d^-eps f2) - P (q^-eps u2 + r^-eps v2)/(l^-eps g2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import FadingRealization, PowerConfig, ScenarioGeometry, derive_etas, dist_t
from .mathkernel import (
    EULER_GAMMA,
    QUAD_TOL,
    _resid_tol,
    integrate,
    solve_root_monotone,
    tricomi_psi11,
)

__all__ = [
    "WaterLevel",
    "ClosedFormReport",
    "solve_water_level",
    "constraint_lhs",
    "closed_form_check",
    "optimal_power",
    "fixed_power",
]

# how many times the quadrature and root tolerances a closed-form value must
# lie from the target to decide a bisection step without quadrature; the
# screen runs only while the closed form agrees with the quadrature to within
# one tolerance, so a screened step's sign has this much headroom
_SCREEN_MARGIN = 100.0


@dataclass(frozen=True)
class WaterLevel:
    """Solved power-allocation parameter (same units as received power over noise)."""

    lam: float
    residual: float


def constraint_lhs(lam: float, geom: ScenarioGeometry, cfg: PowerConfig,
                   plan: set | None = None) -> float:
    """E[(lam - eta4 P T)^+] = int_0^{lam/(eta4 P)} (lam - eta4 P x) f_T(x) dx.

    `plan`, if given, is a set of quadrature panel ids that the quadrature
    replays and then refills with its own splits, ready for the next lam
    (see `integrate`). The value does not depend on it.
    """
    if lam <= 0.0:
        return 0.0
    et = derive_etas(geom)
    b = et.eta4 * cfg.p_cci_lin

    def integrand(x):
        pdf, _ = dist_t(x, geom)
        return (lam - b * x) * pdf

    return integrate(integrand, 0.0, lam / b, QUAD_TOL, plan=plan).value


def solve_water_level(geom: ScenarioGeometry, cfg: PowerConfig) -> WaterLevel:
    """Solve the average-interference equality for the water level.

    Below the largest lam integrated so far, a bisection step whose closed
    form lies more than _SCREEN_MARGIN tolerances from the target is decided
    by the closed form alone. Such a value never passes the root finder's
    stop test, so the returned lam and its residual are the quadrature's, as
    without the screen. The screen stays on only while the closed form has
    matched every quadrature of the solve to within one tolerance: near
    q == r and at very small lam/(eta4 P) it cancels, and the solve then
    integrates every step. Bracketing steps lie above every lam integrated
    before them, so a quadrature failure there is raised as before.

    The solve's quadratures share one plan (see `integrate`): each replays
    the panel tree of the one before it, since near the root lam moves
    little and the trees nearly coincide. The plan does not move a bit.
    """
    w_lin = cfg.w_lin
    resid_tol = _resid_tol(w_lin)
    top = 0.0  # the largest lam integrated
    screen = True
    plan = set()  # the panels the last quadrature split

    def tol(value):
        return QUAD_TOL.rel_tol * abs(value) + resid_tol

    def g(lam):
        nonlocal top, screen
        c = None
        if screen and lam > 0.0:
            c = _closed_form_value(lam, geom, cfg, gamma_scaled=False)
            if lam < top and abs(c - w_lin) > _SCREEN_MARGIN * tol(c):
                return c
        value = constraint_lhs(lam, geom, cfg, plan=plan)
        if c is not None:
            screen = abs(value - c) <= tol(c)
        top = max(top, lam)
        return value

    try:
        lam, value = solve_root_monotone(g, w_lin)
        return WaterLevel(lam=lam, residual=value - w_lin)
    finally:
        # a raised error's traceback holds this frame: empty what it would keep alive
        plan.clear()


@dataclass(frozen=True)
class ClosedFormReport:
    """Diagnostic evaluation of the closed-form constraint expression.

    `as_printed_value` keeps the original transcription of the reduction: a
    (1 - 1/gamma_bar) factor on the first term and integration limit
    lam/(eta4 gamma_bar P). `consistent_value` is the same reduction with
    the gamma_bar factors removed; it must reproduce the numeric constraint
    value. Both are reported against the target 10^(W/10), never reconciled.
    """

    target: float
    as_printed_value: float
    as_printed_residual: float
    consistent_value: float
    consistent_residual: float


def _m_reduction(z, psi):
    """(z^2 - z + 1) Psi(1,1,z) - z + ln z + gamma, given psi = Psi(1,1,z);
    primitive of the x * f_T moment integral per exponential-rate component."""
    return (z * z - z + 1.0) * psi - z + math.log(z) + EULER_GAMMA


def _cdf_t_integral_limit(a, x):
    """int_0^x F_T for q == r (the Gamma(2) limit law of V3, a = q^eps):
    (2/a) [Y - ln Y - gamma - (Y^2/2 - Y + 1) Psi(1,1,Y)], Y = a x."""
    y = a * x
    return (2.0 / a) * (y - math.log(y) - EULER_GAMMA
                        - (0.5 * y * y - y + 1.0) * tricomi_psi11(y))


def _closed_form_value(lam, geom, cfg, gamma_scaled):
    et = derive_etas(geom)
    gbar = cfg.gamma_bar_lin
    b = et.eta4 * cfg.p_cci_lin
    x = lam / (b * gbar) if gamma_scaled else lam / b
    if et.c1 is None:
        # int_0^x t f_T = x F_T(x) - int_0^x F_T, by parts
        cdf = float(dist_t(x, geom)[1])
        first = lam * cdf
        moment = x * cdf - _cdf_t_integral_limit(et.q_eps, x)
    else:
        qx, rx = et.q_eps * x, et.r_eps * x
        psi_q, psi_r = tricomi_psi11(qx), tricomi_psi11(rx)
        first = lam * et.c1 * x * (psi_q - psi_r)
        moment = et.c1 * (et.q_eps ** -2 * _m_reduction(qx, psi_q)
                          - et.r_eps ** -2 * _m_reduction(rx, psi_r))
    if gamma_scaled:
        first *= 1.0 - 1.0 / gbar
    return first - b * moment


def closed_form_check(lam: float, geom: ScenarioGeometry, cfg: PowerConfig) -> ClosedFormReport:
    """Evaluate the closed-form constraint expression at a solved water level.

    Purely diagnostic: the numeric constraint solve is ground truth, and any
    deviation of the as-printed form is reported, not hidden.
    """
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    target = cfg.w_lin
    if lam == 0.0:
        return ClosedFormReport(target, 0.0, -target, 0.0, -target)
    printed = _closed_form_value(lam, geom, cfg, gamma_scaled=True)
    consistent = _closed_form_value(lam, geom, cfg, gamma_scaled=False)
    return ClosedFormReport(
        target=target,
        as_printed_value=printed,
        as_printed_residual=printed - target,
        consistent_value=consistent,
        consistent_residual=consistent - target,
    )


def _interference(draw: FadingRealization, geom: ScenarioGeometry, cfg: PowerConfig,
                  out=(None, None)):
    """P (q^-eps u2 + r^-eps v2): PU4's interference at BS1 and PU1, which both
    the SU's power threshold and gamma2 divide by. `out`, if given, is the
    row for the result and a scratch row, each shaped like the gains."""
    e = geom.epsilon
    row, scratch = out
    cci = np.multiply(geom.q ** -e, np.asarray(draw.u2, dtype=float), out=row)
    cci = np.add(cci, np.multiply(geom.r ** -e, np.asarray(draw.v2, dtype=float), out=scratch),
                 out=row)
    return np.multiply(cfg.p_cci_lin, cci, out=row)


def _power_terms(draw: FadingRealization, geom: ScenarioGeometry, cfg: PowerConfig,
                lam: float, cci=None, out=(None, None)):
    """(head, tail) with P_su1 = max(0, head - tail): head = lam/(d^-eps f2) and
    the interference-product threshold tail = P (q^-eps u2 + r^-eps v2)/(l^-eps g2).
    `cci`, if given, is the draw's `_interference`; `out`, if given, holds
    the rows for head and tail."""
    e = geom.epsilon
    if cci is None:
        cci = _interference(draw, geom, cfg)
    head, tail = out
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        head = np.divide(lam, np.multiply(geom.d ** -e, np.asarray(draw.f2, dtype=float),
                                          out=head), out=head)
        tail = np.divide(cci, np.multiply(geom.l ** -e, np.asarray(draw.g2, dtype=float),
                                          out=tail), out=tail)
    return head, tail


def optimal_power(draw: FadingRealization, geom: ScenarioGeometry, cfg: PowerConfig,
                  lam: float, terms=None, out=None):
    """Per-realization optimal transmit power under the solved water level.

    Zero exactly when the desired-channel gain falls below the
    interference-product threshold; degenerate zero-gain draws (f2 == 0 or
    g2 == 0, probability zero) also map to zero power so that bulk runs
    never abort. `terms`, if given, is the draw's (head, tail) from
    `_power_terms`, for a caller that needs them too; `out`, if given, is
    the row the powers are written into.
    """
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    head, tail = _power_terms(draw, geom, cfg, lam) if terms is None else terms
    with np.errstate(invalid="ignore"):
        p_su1 = np.maximum(np.subtract(head, tail, out=out), 0.0, out=out)
    f2, g2 = np.asarray(draw.f2), np.asarray(draw.g2)
    if not (f2.all() and g2.all()):
        p_su1 = np.asarray(p_su1)  # a scalar draw's power as a writable 0-d array
        np.copyto(p_su1, 0.0, where=(f2 == 0) | (g2 == 0))
    return float(p_su1) if p_su1.ndim == 0 else p_su1


def fixed_power(cfg: PowerConfig, geom: ScenarioGeometry) -> float:
    """Channel-independent power meeting the average-interference constraint
    with equality: P_fix = 10^(W/10) / (d^-eps * gamma_bar)."""
    return cfg.w_lin / (geom.d ** -geom.epsilon * cfg.gamma_bar_lin)
