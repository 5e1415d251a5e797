"""Belt-and-suspenders comparisons against scipy, guarding the in-repo
oracles themselves. The primary oracles (quadrature, series, brute force)
live in the other test modules; scipy only appears here."""

import math
from pathlib import Path

import numpy as np
import pytest

scipy_special = pytest.importorskip("scipy.special")
scipy_integrate = pytest.importorskip("scipy.integrate")

from curelay import (derive_etas, dist_su_upper, dist_t, exp_e1, gauss_2f1, load_config,
                     rate_curve, solve_water_level, tricomi_psi11)
from curelay.mathkernel import NumericTolerance, integrate


def test_e1_vs_scipy():
    xs = np.geomspace(1e-8, 690.0, 300)
    rel = np.abs(exp_e1(xs) - scipy_special.exp1(xs)) / scipy_special.exp1(xs)
    assert rel.max() < 5e-13


def test_psi_vs_scipy():
    xs = np.geomspace(1e-8, 600.0, 300)
    ref = np.exp(xs) * scipy_special.exp1(xs)
    rel = np.abs(tricomi_psi11(xs) - ref) / ref
    assert rel.max() < 5e-13


def test_2f1_vs_scipy():
    zs = np.concatenate([np.linspace(-30.0, 0.5, 40), 1.0 - np.geomspace(1e-6, 0.5, 40)])
    for a, b, c in ((2, 2, 3), (3, 3, 4)):
        ref = scipy_special.hyp2f1(a, b, c, zs)
        mine = gauss_2f1(a, b, c, zs)
        assert np.abs(mine / ref - 1.0).max() < 1e-10


def test_quadrature_vs_scipy():
    def f(x):
        return np.exp(-0.7 * x) / (1.0 + x * x)

    mine = integrate(f, 0.0, np.inf, NumericTolerance(1e-12, 1e-300, 4000)).value
    ref, _ = scipy_integrate.quad(lambda x: float(f(np.array(x))), 0.0, np.inf, limit=200)
    assert mine == pytest.approx(ref, rel=1e-10)


def test_t_cdf_vs_scipy_quad(default_geom, default_etas):
    et = default_etas
    for x in (0.3, 3.0, 30.0):
        ref, _ = scipy_integrate.quad(
            lambda y: (x / (x + y)) * et.c1 * (np.exp(-et.q_eps * y) - np.exp(-et.r_eps * y)),
            0.0, np.inf, limit=400)
        _, cdf = dist_t(x, default_geom)
        assert float(cdf) == pytest.approx(ref, rel=1e-9)


def test_su_upper_cdf_vs_scipy_hyp2f1(default_geom, default_cfg, default_etas):
    gbar = default_cfg.gamma_bar_lin
    e2, e3 = default_etas.eta2 * gbar, default_etas.eta3 * gbar
    xs = np.geomspace(0.05 * e3, 100 * e3, 25)
    z = 1.0 - xs * xs / ((xs + e2) * (xs + e3))
    ref = 1.0 - e2 * e3 * xs**2 / (2 * (xs + e2) ** 2 * (xs + e3) ** 2) \
        * scipy_special.hyp2f1(2.0, 2.0, 3.0, z)
    _, cdf = dist_su_upper(xs, default_geom, default_cfg)
    assert np.abs(cdf - ref).max() < 1e-9


def _exact_objective_rates(geom, power, lam):
    """E[log2(1 + gamma2)] under the optimal and the fixed policy, by scipy
    quadrature from the fading laws alone; gamma2 is free of gamma_bar
    under both. Optimal: gamma2 = max(0, c2/T - 1), c2 = lam/(eta4 P), so the
    rate is (1/ln 2) int_0^c2 F_T(t)/t dt with F_T(x) = E[x/(x + V3)] over
    V3's two-exponential density. Fixed: gamma2 = a X/V3, a = W/(eta4 P),
    X ~ Exp(1), so E[ln(1 + gamma2)] = int_0^inf P(gamma2 > y)/(1 + y) dy
    = int_0^inf dy/((1 + y)(1 + y q^-eps/a)(1 + y r^-eps/a))."""
    e = geom.epsilon
    qe, re_ = geom.q ** -e, geom.r ** -e
    b = derive_etas(geom).eta4 * power.p_cci_lin
    kw = dict(epsabs=0.0, epsrel=1e-12, limit=200)

    def v3_pdf(v):
        return (math.exp(-v / qe) - math.exp(-v / re_)) / (qe - re_)

    def cdf_t(x):
        return scipy_integrate.quad(lambda v: x / (x + v) * v3_pdf(v), 0.0, math.inf, **kw)[0]

    c2, a = lam / b, power.w_lin / b
    optimal = scipy_integrate.quad(lambda t: cdf_t(t) / t, 0.0, c2, **kw)[0]
    fixed = scipy_integrate.quad(lambda y: 1.0 / ((1.0 + y) * (1.0 + y * qe / a)
                                                  * (1.0 + y * re_ / a)), 0.0, math.inf, **kw)[0]
    return {"optimal": optimal / math.log(2.0), "fixed": fixed / math.log(2.0)}


def test_rate_objective_within_3_ci_of_exact():
    # configs/default.cfg at its own seed and trials: every grid point of
    # both policies
    c = load_config(Path(__file__).resolve().parent.parent / "configs" / "default.cfg")
    lam = solve_water_level(c.geometry, c.power).lam
    exact = _exact_objective_rates(c.geometry, c.power, lam)
    assert exact["optimal"] == pytest.approx(2.004534042444441, rel=1e-10)
    assert exact["fixed"] == pytest.approx(1.1789532931558493, rel=1e-10)
    ests = rate_curve(c.geometry, c.power, lam, c.sir_grid_db, c.trials, c.seed)
    assert len(ests) == 2 * len(c.sir_grid_db)
    for est in ests:
        assert abs(est.rate_objective - exact[est.policy]) <= 3.0 * est.ci_halfwidth
