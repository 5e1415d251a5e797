"""Belt-and-suspenders comparisons against scipy, guarding the in-repo
oracles themselves. The primary oracles (quadrature, series, brute force)
live in the other test modules; scipy only appears here."""

import numpy as np
import pytest

scipy_special = pytest.importorskip("scipy.special")
scipy_integrate = pytest.importorskip("scipy.integrate")

from curelay import dist_t, dist_su_upper, exp_e1, gauss_2f1, tricomi_psi11
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
