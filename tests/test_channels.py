"""Channel-layer tests: geometry, fading sampler, and the analytic laws of
the interference-ratio variables, each checked against an independent route
(quadrature of the defining integral, Monte-Carlo ECDF, finite differences)."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import ks_statistic
from curelay import (
    ScenarioGeometry,
    derive_etas,
    dist_gamma_ratio,
    dist_t,
    dist_v3,
    sample_fading,
)
from curelay.channels import _at_mean
from curelay.mathkernel import NumericTolerance, integrate

TIGHT = NumericTolerance(rel_tol=1e-12, abs_tol=1e-300, max_iter=4000)
KS_1PCT_1E6 = 1.63 / math.sqrt(1e6)


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------


def test_geometry_validation():
    with pytest.raises(ValueError):
        ScenarioGeometry(s=0.5, l=0.25, r=0.5, q=1.0, z=0.4, d=1.0, epsilon=1.5)
    with pytest.raises(ValueError):
        ScenarioGeometry(s=-0.5, l=0.25, r=0.5, q=1.0, z=0.4, d=1.0, epsilon=2.0)


def test_etas_ratio_one():
    g = ScenarioGeometry(s=0.7, l=0.25, r=0.5, q=0.7, z=0.4, d=1.0, epsilon=3.0)
    assert derive_etas(g).eta1 == 1.0


def test_etas_direct_formula():
    g = ScenarioGeometry(s=1.0, l=0.25, r=0.3, q=0.5, z=0.4, d=1.0, epsilon=2.0)
    assert derive_etas(g).eta1 == pytest.approx(0.25, rel=1e-15)


def test_etas_default_scenario_frozen(default_geom, default_etas):
    # independent recomputation from the raw coordinates
    pu4 = (1.0 + 0.4 * math.sin(math.radians(30.0)), 0.4 * math.cos(math.radians(30.0)))
    q = math.hypot(*pu4)
    r = math.hypot(pu4[0] - 0.75, pu4[1])
    assert default_geom.q == pytest.approx(q, rel=1e-15)
    assert default_geom.r == pytest.approx(r, rel=1e-15)
    assert default_etas.eta1 == pytest.approx((0.75 / q) ** -4, rel=1e-14)
    assert default_etas.eta2 == pytest.approx((0.25 / 0.4) ** -4, rel=1e-14)
    assert default_etas.eta3 == pytest.approx((0.75 / r) ** -4, rel=1e-14)
    assert default_etas.eta4 == pytest.approx((1.0 / 0.25) ** -4, rel=1e-14)
    assert default_etas.c1 == pytest.approx(1.0 / (q ** -4 - r ** -4), rel=1e-14)
    # golden values, frozen from the hand-checked recomputation above
    assert default_etas.eta1 == pytest.approx(7.691384, rel=1e-6)
    assert default_etas.eta3 == pytest.approx(0.328711, rel=1e-6)


def test_etas_equal_qr_limit_branch():
    g = ScenarioGeometry(s=0.75, l=0.25, r=0.6, q=0.6, z=0.4, d=1.0, epsilon=4.0)
    assert derive_etas(g).c1 is None


# ---------------------------------------------------------------------------
# sampler
# ---------------------------------------------------------------------------


def test_sampler_means(default_cfg):
    rng = np.random.default_rng(123)
    d = sample_fading(rng, default_cfg, 10**6)
    gbar = default_cfg.gamma_bar_lin
    for arr, mean in ((d.h2, gbar), (d.g2, gbar), (d.f2, gbar),
                      (d.u2, 1.0), (d.v2, 1.0), (d.w2, 1.0)):
        assert arr.mean() == pytest.approx(mean, rel=5e-3)


def test_sampler_deterministic(default_cfg):
    a = sample_fading(np.random.default_rng(7), default_cfg, 1000)
    b = sample_fading(np.random.default_rng(7), default_cfg, 1000)
    for name in ("h2", "g2", "f2", "u2", "v2", "w2"):
        assert (getattr(a, name) == getattr(b, name)).all()


@pytest.mark.parametrize("gamma_bar_db", [0.0, 30.0, -7.3])
@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 6])
def test_sample_fading_equals_exponential_with_and_without_out(default_cfg, gamma_bar_db, count):
    """Gains drawn as unit-mean exponentials and scaled in place, into fresh
    arrays or into the first `count` rows of `out`, are bit for bit
    rng.exponential at the gains' means, in the documented draw order, also
    for a single draw; the gains past the rows of `out` are not drawn."""
    cfg = replace(default_cfg, gamma_bar_db=gamma_bar_db)
    names = ("h2", "g2", "f2", "u2", "v2", "w2")
    for size in (None, 1000):
        rng = np.random.default_rng([9, 4])
        want = [rng.exponential(cfg.gamma_bar_lin if i < 3 else 1.0, size)
                for i in range(len(names))]
        got = sample_fading(np.random.default_rng([9, 4]), cfg, size)
        assert [np.asarray(getattr(got, n)).tobytes() for n in names] == \
            [np.asarray(a).tobytes() for a in want]
    rows = [np.full(1200, np.nan) for _ in range(8)]
    out = [row[:1000] for row in rows[:count]]
    got = sample_fading(np.random.default_rng([9, 4]), cfg, 1000, out=out)
    for i, name in enumerate(names[:count]):
        assert getattr(got, name) is out[i]
        assert getattr(got, name).tobytes() == want[i].tobytes()
    assert all(getattr(got, name) is None for name in names[count:])
    assert all(np.isnan(row[1000:]).all() for row in rows)
    assert all(np.isnan(row).all() for row in rows[count:])


@pytest.mark.parametrize("size", [None, 1000])
def test_sample_fading_is_the_unit_draw_at_mean(default_cfg, size):
    """One scaling rule: a draw at gamma_bar != 1 is `_at_mean` of the
    unit-mean draw from the same generator state, bit for bit."""
    cfg = replace(default_cfg, gamma_bar_db=23.7)
    unit = replace(default_cfg, gamma_bar_db=0.0)
    got = sample_fading(np.random.default_rng([3, 1]), cfg, size)
    want = _at_mean(sample_fading(np.random.default_rng([3, 1]), unit, size), cfg)
    for name in ("h2", "g2", "f2", "u2", "v2", "w2"):
        assert np.asarray(getattr(got, name)).tobytes() == \
            np.asarray(getattr(want, name)).tobytes(), name


def test_unit_draw_scales_bitwise_to_gamma_bar(default_cfg):
    """The sweep engine samples unit-mean gains once per block and scales
    h2, g2, f2 by each point's gamma_bar. That reproduces sampling at
    gamma_bar only while numpy's exponential(scale) is scale times its
    unit-mean draw, bit for bit; a numpy change that breaks it fails here."""
    n = 250_000
    for gbar in (1e-3, 0.5, 1.0, math.sqrt(10.0), 7.3, 1e3, 1e4):
        a = np.random.default_rng([5, 2]).exponential(gbar, n)
        b = gbar * np.random.default_rng([5, 2]).exponential(1.0, n)
        assert np.array_equal(a, b), gbar
    unit_cfg = replace(default_cfg, gamma_bar_db=0.0)
    for gbar_db in (0.0, 5.0, 12.5, 40.0):
        cfg = replace(default_cfg, gamma_bar_db=gbar_db)
        d = sample_fading(np.random.default_rng([5, 3]), cfg, n)
        unit = sample_fading(np.random.default_rng([5, 3]), unit_cfg, n)
        for name in ("h2", "g2", "f2"):
            assert np.array_equal(getattr(d, name), getattr(unit, name) * cfg.gamma_bar_lin)
        for name in ("u2", "v2", "w2"):
            assert np.array_equal(getattr(d, name), getattr(unit, name))


def test_sampler_u2_ks(default_cfg):
    rng = np.random.default_rng(99)
    u2 = np.sort(sample_fading(rng, default_cfg, 10**6).u2)
    stat = ks_statistic(u2, -np.expm1(-u2))
    assert stat < KS_1PCT_1E6


# ---------------------------------------------------------------------------
# V1
# ---------------------------------------------------------------------------


def test_v1_point_values():
    pdf0, _ = dist_gamma_ratio(0.0, 1.0, 1.0)
    _, cdf1 = dist_gamma_ratio(1.0, 1.0, 1.0)
    assert pdf0 == 1.0
    assert cdf1 == 0.5


def test_v1_domain():
    with pytest.raises(ValueError):
        dist_gamma_ratio(-0.1, 1.0, 1.0)


@pytest.mark.parametrize("x", [-0.1, np.array([2.0, -1e-300]), math.nan,
                               np.array([-1.0, np.nan])], ids=["neg", "neg-elem", "nan", "neg-nan"])
@pytest.mark.parametrize("law", ["dist_v3", "dist_gamma_ratio"])
def test_nonnegative_laws_reject_negatives_and_nan(default_geom, law, x):
    evaluate = {"dist_v3": lambda x: dist_v3(x, default_geom),
                "dist_gamma_ratio": lambda x: dist_gamma_ratio(x, 1.0, 1.0)}[law]
    with pytest.raises(ValueError, match=f"^{law} requires x >= 0$"):
        evaluate(x)
    assert evaluate(np.array([0.0, 1.0]))[0][0] >= 0.0


def test_v1_mc_ks(default_cfg):
    rng = np.random.default_rng(5)
    d = sample_fading(rng, default_cfg, 10**6)
    v1 = np.sort(d.f2 / d.g2)
    _, cdf = dist_gamma_ratio(v1, 1.0, 1.0)
    assert ks_statistic(v1, cdf) < KS_1PCT_1E6


# ---------------------------------------------------------------------------
# V3
# ---------------------------------------------------------------------------


def test_v3_normalization(default_geom):
    _, cdf0 = dist_v3(0.0, default_geom)
    _, cdf_inf = dist_v3(1e9, default_geom)
    assert cdf0 == 0.0
    assert cdf_inf == pytest.approx(1.0, abs=1e-12)


def test_v3_mean_by_quadrature(default_geom):
    def integrand(x):
        pdf, _ = dist_v3(x, default_geom)
        return x * pdf

    mean = integrate(integrand, 0.0, math.inf, TIGHT).value
    expected = default_geom.q ** -4 + default_geom.r ** -4
    assert mean == pytest.approx(expected, rel=1e-10)


def test_v3_limit_branch_continuity():
    q = 0.9
    eps = 4.0
    near = ScenarioGeometry(s=0.75, l=0.25, r=q * (1 + 1e-6), q=q, z=0.4, d=1.0, epsilon=eps)
    limit = ScenarioGeometry(s=0.75, l=0.25, r=q, q=q, z=0.4, d=1.0, epsilon=eps)
    xs = np.geomspace(0.05, 20.0, 15)
    pdf_a, cdf_a = dist_v3(xs, near)
    pdf_b, cdf_b = dist_v3(xs, limit)
    assert np.abs(pdf_a / pdf_b - 1.0).max() < 1e-4
    assert np.abs(cdf_a / cdf_b - 1.0).max() < 1e-4


def test_v3_limit_branch_is_gamma2():
    g = ScenarioGeometry(s=0.75, l=0.25, r=0.8, q=0.8, z=0.4, d=1.0, epsilon=3.0)
    a = 0.8 ** 3.0
    xs = np.geomspace(0.01, 50.0, 9)
    pdf, cdf = dist_v3(xs, g)
    assert pdf == pytest.approx(a * a * xs * np.exp(-a * xs), rel=1e-12)
    assert cdf == pytest.approx(1.0 - (1.0 + a * xs) * np.exp(-a * xs), rel=1e-10)


# ---------------------------------------------------------------------------
# T = V1 * V3
# ---------------------------------------------------------------------------


def test_t_cdf_normalization(default_geom):
    # Psi(1,1,z) -> 1/z gives the tail 1 - F_T(x) -> (q^-eps + r^-eps)/x
    x = 1e7
    _, cdf = dist_t(np.array([x]), default_geom)
    tail_const = default_geom.q ** -4 + default_geom.r ** -4
    assert cdf[0] == pytest.approx(1.0, abs=2 * tail_const / x)
    assert (1.0 - cdf[0]) * x == pytest.approx(tail_const, rel=1e-5)
    pdf, cdf = dist_t(np.geomspace(1e-3, 1e6, 80), default_geom)
    assert (np.diff(cdf) > 0).all()
    assert (pdf > 0).all()


def test_t_cdf_against_double_quadrature(default_geom, default_etas):
    et = default_etas
    for x in (0.1, 1.0, 7.0, 50.0):
        def inner(y):
            return (x / (x + y)) * et.c1 * (np.exp(-et.q_eps * y) - np.exp(-et.r_eps * y))

        oracle = integrate(inner, 0.0, math.inf, TIGHT).value
        _, cdf = dist_t(x, default_geom)
        assert float(cdf) == pytest.approx(oracle, rel=1e-8)


def test_t_pdf_matches_cdf_derivative(default_geom):
    xs = np.geomspace(0.05, 200.0, 25)
    pdf, _ = dist_t(xs, default_geom)
    h = xs * 1e-6
    _, up = dist_t(xs + h, default_geom)
    _, dn = dist_t(xs - h, default_geom)
    fd = (up - dn) / (2 * h)
    assert np.abs(pdf / fd - 1.0).max() < 1e-6


def test_t_pdf_integrates_to_one(default_geom):
    def f(x):
        pdf, _ = dist_t(x, default_geom)
        return pdf

    total = integrate(f, 1e-12, math.inf, NumericTolerance(1e-9, 1e-12, 4000)).value
    assert total == pytest.approx(1.0, abs=1e-6)


def test_t_limit_branch(default_geom):
    g = ScenarioGeometry(s=0.75, l=0.25, r=0.8, q=0.8, z=0.4, d=1.0, epsilon=4.0)
    xs = np.geomspace(0.05, 100.0, 12)
    pdf, cdf = dist_t(xs, g)
    assert (np.diff(cdf) > 0).all()
    h = xs * 1e-6
    _, up = dist_t(xs + h, g)
    _, dn = dist_t(xs - h, g)
    assert np.abs(pdf / ((up - dn) / (2 * h)) - 1.0).max() < 1e-6
    _, tail = dist_t(1e8, g)
    assert float(tail) == pytest.approx(1.0, abs=1e-6)


def test_t_domain(default_geom):
    with pytest.raises(ValueError):
        dist_t(0.0, default_geom)


def test_t_is_product_law(default_geom, default_cfg):
    # product of independent V1 and V3 samples follows dist_t
    rng = np.random.default_rng(17)
    n = 10**6
    u = rng.random(n)
    v1 = u / (1.0 - u)  # inverse of x/(x+1)
    v3 = (default_geom.q ** -4 * rng.exponential(1.0, n)
          + default_geom.r ** -4 * rng.exponential(1.0, n))
    t = np.sort(v1 * v3)
    _, cdf = dist_t(t, default_geom)
    assert ks_statistic(t, cdf) < KS_1PCT_1E6


# ---------------------------------------------------------------------------
# scaled ratio law
# ---------------------------------------------------------------------------


def test_gamma_ratio_point_values():
    s = 3.7 * 10.0
    _, cdf = dist_gamma_ratio(s, 3.7, 10.0)
    assert cdf == pytest.approx(0.5, rel=1e-15)
    _, cdf0 = dist_gamma_ratio(0.0, 3.7, 10.0)
    assert cdf0 == 0.0


def test_gamma_ratio_limits_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert dist_gamma_ratio(np.inf, 1.0, 1.0) == (0.0, 1.0)
        # past the square's overflow the pdf divides twice; below it, as before
        x = np.array([1e200, 1e150, 2.0])
        pdf, cdf = dist_gamma_ratio(x, 3.7, 10.0)
    assert pdf.tolist() == [37.0 / 1e200 / 1e200, 37.0 / (1e150 + 37.0) ** 2, 37.0 / 39.0 ** 2]
    assert cdf.tolist() == [1e200 / (1e200 + 37.0), 1e150 / (1e150 + 37.0), 2.0 / 39.0]


def test_gamma_ratio_mc_ks(default_cfg, default_geom, default_etas):
    rng = np.random.default_rng(31)
    d = sample_fading(rng, default_cfg, 10**6)
    g1 = np.sort(default_etas.eta1 * d.h2 / d.u2)
    _, cdf = dist_gamma_ratio(g1, default_etas.eta1, default_cfg.gamma_bar_lin)
    assert ks_statistic(g1, cdf) < KS_1PCT_1E6


def test_gamma_ratio_pdf_integrates(default_etas, default_cfg):
    def f(x):
        pdf, _ = dist_gamma_ratio(x, default_etas.eta2, default_cfg.gamma_bar_lin)
        return pdf

    total = integrate(f, 0.0, math.inf, NumericTolerance(1e-9, 1e-13, 4000)).value
    assert total == pytest.approx(1.0, abs=1e-6)


def test_gamma_ratio_pdf_cdf_consistency(default_etas, default_cfg):
    xs = np.geomspace(1.0, 1e5, 30)
    pdf, _ = dist_gamma_ratio(xs, default_etas.eta1, default_cfg.gamma_bar_lin)
    h = xs * 1e-6
    _, up = dist_gamma_ratio(xs + h, default_etas.eta1, default_cfg.gamma_bar_lin)
    _, dn = dist_gamma_ratio(xs - h, default_etas.eta1, default_cfg.gamma_bar_lin)
    assert np.abs(pdf / ((up - dn) / (2 * h)) - 1.0).max() < 1e-5


def test_v1_pdf_integrates_to_one():
    def f(x):
        pdf, _ = dist_gamma_ratio(x, 1.0, 1.0)
        return pdf

    total = integrate(f, 0.0, math.inf, NumericTolerance(1e-9, 1e-13, 4000)).value
    assert total == pytest.approx(1.0, abs=1e-6)


def test_v3_pdf_integrates_to_one(default_geom):
    def f(x):
        pdf, _ = dist_v3(x, default_geom)
        return pdf

    total = integrate(f, 0.0, math.inf, NumericTolerance(1e-9, 1e-13, 4000)).value
    assert total == pytest.approx(1.0, abs=1e-6)


def test_all_cdfs_monotone_on_log_grid(default_geom, default_cfg, default_etas):
    xs = np.geomspace(1e-6, 1e9, 140)
    for cdf in (dist_gamma_ratio(xs, 1.0, 1.0)[1], dist_v3(xs, default_geom)[1],
                dist_gamma_ratio(xs, default_etas.eta1, default_cfg.gamma_bar_lin)[1]):
        assert (np.diff(cdf) >= 0).all()
        assert cdf[0] < 1e-4 and cdf[-1] > 1.0 - 1e-3
