"""Relay-layer tests: gain algebra, SIR component identities, the bound
sandwich, and the symbol-level oracle that re-derives the SIRs from the
received-signal equations instead of the closed forms."""

import itertools

import numpy as np
import pytest

from curelay import (
    FadingRealization,
    PowerConfig,
    derive_etas,
    relay_gain,
    sample_fading,
    sinr_bs_combine,
    sir_sample,
    solve_water_level,
    symbol_level_oracle,
)
from curelay.relaying import _harmonic

ROUND_SLACK = 1e-13  # covers IEEE rounding of the closed-form expressions


def make_draw(**kw):
    fields = dict(h2=1.0, g2=1.0, f2=1.0, u2=1.0, v2=1.0, w2=1.0)
    fields.update(kw)
    return FadingRealization(**{k: np.asarray(v, dtype=float) for k, v in fields.items()})


def engineered_gamma12(geom, cfg, g1_target, g2_target):
    """Build (draw, lam) hitting exact gamma1/gamma2 values.

    gamma1 = eta1 h2/u2 with u2=1; gamma2 = c2/T - 1 via the water level.
    """
    et = derive_etas(geom)
    h2 = g1_target / et.eta1
    t = (geom.q ** -geom.epsilon + geom.r ** -geom.epsilon) * 1.0  # f2=g2=u2=v2=1
    lam = (g2_target + 1.0) * t * et.eta4 * cfg.p_cci_lin
    return make_draw(h2=h2), lam


# ---------------------------------------------------------------------------
# relay gain
# ---------------------------------------------------------------------------


def test_relay_gain_single_term(default_geom, default_cfg):
    # only the SU term alive, tuned to received power 4 -> beta = 1/2
    e = default_geom.epsilon
    g2 = 1.3
    p_su1 = 4.0 / (default_geom.l ** -e * g2)
    d = make_draw(h2=0.0, v2=0.0, g2=g2)
    assert relay_gain(d, default_geom, default_cfg.p_cci_lin, p_su1) == pytest.approx(0.5, rel=1e-15)


def test_relay_gain_scale_covariance(default_geom, default_cfg):
    d = make_draw(h2=0.7, g2=1.9, v2=0.4)
    p = default_cfg.p_cci_lin
    k = 3.7
    b1 = relay_gain(d, default_geom, p, 2.0)
    b2 = relay_gain(d, default_geom, k * p, k * 2.0)
    assert b2 == pytest.approx(b1 / np.sqrt(k), rel=1e-14)


def test_relay_gain_normalization(default_geom, default_cfg):
    rng = np.random.default_rng(44)
    d = sample_fading(rng, default_cfg, 1000)
    e = default_geom.epsilon
    p = default_cfg.p_cci_lin
    beta = np.array([relay_gain(make_draw(h2=h2, g2=g2, v2=v2), default_geom, p, 2.0)
                     for h2, g2, v2 in zip(d.h2, d.g2, d.v2)])
    total = (p * default_geom.s ** -e * d.h2 + 2.0 * default_geom.l ** -e * d.g2
             + p * default_geom.r ** -e * d.v2)
    assert np.abs(beta**2 * total - 1.0).max() < 1e-14


def test_relay_gain_degenerate(default_geom, default_cfg):
    with pytest.raises(ValueError):
        relay_gain(make_draw(h2=0.0, g2=0.0, v2=0.0), default_geom,
                   default_cfg.p_cci_lin, 0.0)


# ---------------------------------------------------------------------------
# SIR samples
# ---------------------------------------------------------------------------


def test_harmonic_combine_exact(default_geom, default_cfg):
    draw, lam = engineered_gamma12(default_geom, default_cfg, 4.0, 4.0)
    s = sir_sample(draw, default_geom, default_cfg, lam)
    assert s.gamma1[0] == pytest.approx(4.0, rel=1e-12)
    assert s.gamma2[0] == pytest.approx(4.0, rel=1e-12)
    assert s.gamma_bs1[0] == pytest.approx(2.0, rel=1e-12)


HARMONIC_VALUES = (0.0, 1e-300, 1e-3, 1.0, 7.5, 1e300, np.inf, np.nan)


def test_harmonic_limits_for_infinite_inputs():
    a, b, c = np.array(list(itertools.product(HARMONIC_VALUES, repeat=3))).T
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        want = a * b / (a + c)
    only_a = np.isinf(a) & ~np.isinf(b) & ~np.isinf(c)
    want[only_a] = b[only_a]
    want[np.isinf(a) & np.isinf(b) & np.isinf(c)] = np.inf
    assert _harmonic(a, b, c).tobytes() == want.tobytes()
    for i in range(a.size):  # one element at a time, all-finite results included
        got = _harmonic(a[i:i + 1], b[i:i + 1], c[i:i + 1])
        assert got.tobytes() == want[i:i + 1].tobytes(), (a[i], b[i], c[i])
    rows = np.full(a.size, 7.0), np.full(a.size, 7.0)  # result and scratch rows
    got = _harmonic(a, b, c, out=rows)
    assert got is rows[0] and got.tobytes() == want.tobytes()
    inf = np.float64(np.inf)
    assert _harmonic(inf, np.float64(2.0), np.float64(3.0)) == 2.0
    assert _harmonic(inf, inf, inf) == np.inf
    assert _harmonic(np.float64(2.0), np.float64(2.0), np.float64(2.0)) == 1.0


def test_gamma_bs1_is_not_finite_where_gamma2_is_not():
    # the rate block counts a draw where gamma_bs1 is finite, which must
    # imply that gamma2 is finite too
    g1, g2 = np.array(list(itertools.product(HARMONIC_VALUES, repeat=2))).T
    gbs = _harmonic(g1, g2, g2)
    assert not (np.isfinite(gbs) & ~np.isfinite(g2)).any()


def test_zero_power_collapses(default_geom, default_cfg):
    # tiny water level: no transmission; the SU-side SIR must hit its upper
    # bound exactly (bitwise)
    rng = np.random.default_rng(13)
    d = sample_fading(rng, default_cfg, 10_000)
    s = sir_sample(d, default_geom, default_cfg, 1e-9)
    zero = s.p_su1 == 0.0
    assert zero.mean() > 0.99
    assert (s.gamma2[zero] == 0.0).all()
    assert (s.gamma_bs1[zero] == 0.0).all()
    assert (s.gamma5[zero] == s.gamma4[zero]).all()
    assert (s.gamma_su1[zero] == s.gamma_su1_upper[zero]).all()


def test_dual_route_gamma2(default_geom, default_cfg):
    level = solve_water_level(default_geom, default_cfg)
    rng = np.random.default_rng(23)
    d = sample_fading(rng, default_cfg, 10**5)
    s = sir_sample(d, default_geom, default_cfg, level.lam)
    et = derive_etas(default_geom)
    c2 = level.lam / (et.eta4 * default_cfg.p_cci_lin)
    t = (default_geom.q ** -4 * d.u2 + default_geom.r ** -4 * d.v2) * d.f2 / d.g2
    alt = np.maximum(c2 / t - 1.0, 0.0)
    # 1e-12 agreement: relative above 1, absolute below (the subtraction in
    # c2/T - 1 makes pure relative comparison meaningless near the clip)
    gap = np.abs(s.gamma2 - alt) / np.maximum(1.0, np.maximum(s.gamma2, alt))
    assert gap.max() < 1e-12
    assert ((s.gamma2 == 0) == (alt == 0)).all()


def test_bound_sandwich(default_geom, default_cfg):
    level = solve_water_level(default_geom, default_cfg)
    rng = np.random.default_rng(29)
    d = sample_fading(rng, default_cfg, 10**5)
    s = sir_sample(d, default_geom, default_cfg, level.lam)
    fin = s.valid & np.isfinite(s.gamma1) & np.isfinite(s.gamma2)
    mn = np.minimum(s.gamma1[fin], s.gamma2[fin])
    assert (s.gamma_bs1[fin] <= mn * (1 + ROUND_SLACK)).all()
    assert (s.gamma_bs1[fin] >= 0.5 * mn * (1 - ROUND_SLACK)).all()


def test_gbs_increasing_in_gamma2(default_geom, default_cfg):
    g1 = 7.0
    vals = []
    for g2 in (0.5, 1.0, 2.0, 8.0, 50.0):
        draw, lam = engineered_gamma12(default_geom, default_cfg, g1, g2)
        vals.append(sir_sample(draw, default_geom, default_cfg, lam).gamma_bs1[0])
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_su_upper_bound_ordering(default_geom, default_cfg):
    level = solve_water_level(default_geom, default_cfg)
    rng = np.random.default_rng(31)
    d = sample_fading(rng, default_cfg, 10**5)
    s = sir_sample(d, default_geom, default_cfg, level.lam)
    ok = s.valid & np.isfinite(s.gamma_su1_upper)
    assert (s.gamma_su1[ok] <= s.gamma_su1_upper[ok] * (1 + ROUND_SLACK)).all()
    eq = s.gamma_su1[ok] == s.gamma_su1_upper[ok]
    assert (eq == (s.p_su1[ok] == 0.0)).all()


def test_distribution_invariance_under_common_scaling(default_geom):
    # scaling (W_lin, P_lin) by a common factor leaves the SIR laws unchanged
    base = PowerConfig(p_cci_db=20.0, w_db=10.0, gamma_bar_db=20.0)
    shifted = PowerConfig(p_cci_db=30.0, w_db=20.0, gamma_bar_db=20.0)
    la = solve_water_level(default_geom, base).lam
    lb = solve_water_level(default_geom, shifted).lam
    n = 2 * 10**5
    sa = sir_sample(sample_fading(np.random.default_rng(1), base, n),
                    default_geom, base, la)
    sb = sir_sample(sample_fading(np.random.default_rng(2), shifted, n),
                    default_geom, shifted, lb)
    bound = 1.63 * np.sqrt(2.0 / n)  # two-sample KS, 1% level
    for field in ("gamma_bs1", "gamma_su1"):
        xa = np.sort(getattr(sa, field))
        xb = np.sort(getattr(sb, field))
        grid = np.concatenate([xa[:: n // 500], xb[:: n // 500]])
        fa = np.searchsorted(xa, grid, side="right") / n
        fb = np.searchsorted(xb, grid, side="right") / n
        assert np.abs(fa - fb).max() < bound


# ---------------------------------------------------------------------------
# SINR variant
# ---------------------------------------------------------------------------


def test_sinr_point_values(default_geom, default_cfg):
    draw, lam = engineered_gamma12(default_geom, default_cfg, 1.0, 1.0)
    s = sir_sample(draw, default_geom, default_cfg, lam)
    v = sinr_bs_combine(s.gamma1, s.gamma2)
    assert s.gamma_bs1[0] == pytest.approx(0.5, rel=1e-12)
    assert v[0] == pytest.approx(1.0 / 3.0, rel=1e-12)
    draw, lam = engineered_gamma12(default_geom, default_cfg, 100.0, 100.0)
    s = sir_sample(draw, default_geom, default_cfg, lam)
    v = sinr_bs_combine(s.gamma1, s.gamma2)
    assert v[0] / s.gamma_bs1[0] > 0.99


def test_sinr_never_exceeds_sir(default_geom, default_cfg):
    level = solve_water_level(default_geom, default_cfg)
    rng = np.random.default_rng(37)
    d = sample_fading(rng, default_cfg, 10**5)
    s = sir_sample(d, default_geom, default_cfg, level.lam)
    v = sinr_bs_combine(s.gamma1, s.gamma2)
    fin = s.valid & np.isfinite(s.gamma_bs1)
    assert (v[fin] <= s.gamma_bs1[fin]).all()


# ---------------------------------------------------------------------------
# symbol-level oracle
# ---------------------------------------------------------------------------


def test_oracle_matches_closed_forms(default_geom, default_cfg):
    level = solve_water_level(default_geom, default_cfg)
    for seed in (3, 5, 8):
        d = sample_fading(np.random.default_rng(seed), default_cfg)
        s = sir_sample(d, default_geom, default_cfg, level.lam)
        bs_hat, su_hat = symbol_level_oracle(d, default_geom, default_cfg, level.lam,
                                             np.random.default_rng(seed + 100))
        assert bs_hat == pytest.approx(s.gamma_bs1[0], rel=0.02)
        assert su_hat == pytest.approx(s.gamma_su1[0], rel=0.02)


def test_oracle_zero_interference_sentinel(default_geom, default_cfg):
    d = make_draw(u2=0.0, v2=0.0, w2=0.0)
    bs_hat, su_hat = symbol_level_oracle(d, default_geom, default_cfg, 5.0,
                                         np.random.default_rng(0))
    assert np.isinf(bs_hat) and np.isinf(su_hat)
    s = sir_sample(d, default_geom, default_cfg, 5.0)
    assert np.isinf(s.gamma_bs1[0]) and np.isinf(s.gamma_su1[0])


def test_oracle_needs_cancellation(default_geom, default_cfg):
    level = solve_water_level(default_geom, default_cfg)
    d = sample_fading(np.random.default_rng(3), default_cfg)
    s = sir_sample(d, default_geom, default_cfg, level.lam)
    bs_raw, su_raw = symbol_level_oracle(d, default_geom, default_cfg, level.lam,
                                         remove_self_interference=False,
                                         rng=np.random.default_rng(55))
    assert abs(bs_raw - s.gamma_bs1[0]) / s.gamma_bs1[0] > 0.5
    assert abs(su_raw - s.gamma_su1[0]) / s.gamma_su1[0] > 0.5


def test_sir_sample_rejects_a_draw_without_w2(default_geom, default_cfg):
    draw = sample_fading(np.random.default_rng(5), default_cfg, 5,
                         out=[np.empty(5) for _ in range(5)])
    with pytest.raises(ValueError, match="w2"):
        sir_sample(draw, default_geom, default_cfg, 5.0)
