"""Power-allocation tests. The core correctness check is the constraint-
satisfaction oracle: the Monte-Carlo average of the interference actually
received at the constrained node must reproduce the configured budget."""

import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import curelay.power
from curelay import (
    FadingRealization,
    PowerConfig,
    ScenarioGeometry,
    closed_form_check,
    constraint_lhs,
    fixed_power,
    load_config,
    mathkernel,
    optimal_power,
    sample_fading,
    solve_water_level,
)
from test_frozen import DEFAULT_CFG, EQUAL_QR_BODY, REPLAY_POINTS, _power, _solve_bits


def mc_constraint(geom, cfg, lam, n, seed):
    """E[P_su1 d^-eps f2] by Monte-Carlo."""
    rng = np.random.default_rng(seed)
    d = sample_fading(rng, cfg, n)
    p = optimal_power(d, geom, cfg, lam)
    return float((p * geom.d ** -geom.epsilon * d.f2).mean())


def test_zero_budget_water_level(default_geom):
    cfg = PowerConfig(p_cci_db=20.0, w_db=-200.0, gamma_bar_db=30.0)
    level = solve_water_level(default_geom, cfg)
    assert level.lam < 1e-8
    assert abs(level.residual) <= 1e-10 * max(1.0, cfg.w_lin)


def test_water_level_monotone_in_w(default_geom):
    lams = [solve_water_level(default_geom,
                              PowerConfig(p_cci_db=20.0, w_db=w, gamma_bar_db=30.0)).lam
            for w in (-5.0, 0.0, 5.0, 10.0, 15.0, 20.0)]
    assert all(b > a for a, b in zip(lams, lams[1:]))


def test_water_level_constraint_mc(default_geom, default_cfg):
    level = solve_water_level(default_geom, default_cfg)
    mc = mc_constraint(default_geom, default_cfg, level.lam, 2 * 10**6, seed=2)
    w = default_cfg.w_lin
    sigma = level.lam / math.sqrt(2e6)  # loose bound: the summand is in [0, lam]
    assert abs(mc - w) < max(3 * sigma, 5e-3 * w)


def test_water_level_residual_reported(default_geom, default_cfg):
    level = solve_water_level(default_geom, default_cfg)
    assert abs(level.residual) <= 1e-10 * max(1.0, default_cfg.w_lin)
    assert constraint_lhs(level.lam, default_geom, default_cfg) == pytest.approx(
        default_cfg.w_lin, rel=1e-9)


def test_solve_residual_is_the_quadrature_at_the_returned_lam(default_geom, default_cfg,
                                                               monkeypatch):
    # a constraint that comes within the stop test of W at the bracketing
    # step 4W: the root finder returns 4W after it has integrated 8W, and the
    # residual is 4W's, not the last quadrature's
    w = default_cfg.w_lin
    monkeypatch.setattr(curelay.power, "constraint_lhs",
                        lambda lam, geom, cfg, plan=None: lam * (1.0 - 1e-12) / 4.0)
    level = solve_water_level(default_geom, default_cfg)
    assert level.lam == 4.0 * w
    assert level.residual == 4.0 * w * (1.0 - 1e-12) / 4.0 - w


@pytest.fixture(scope="module")
def placements(tmp_path_factory):
    path = tmp_path_factory.mktemp("equal_qr") / "case.cfg"
    path.write_text(EQUAL_QR_BODY, encoding="utf-8")
    return {"default": load_config(DEFAULT_CFG), "equal_qr": load_config(path)}


@pytest.mark.parametrize("key", REPLAY_POINTS, ids=str)
def test_batched_solve_matches_one_split_per_call(placements, key, monkeypatch):
    # lam and residual, or the failure with its partial estimate, the same
    # bits whether the quadrature evaluates its unplanned splits in batches
    # or one per integrand call
    c = placements[key[0]]
    geom, pw = c.geometry, _power(c, key[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batched = _solve_bits(geom, pw)
        monkeypatch.setattr(mathkernel, "_BATCH_CAP", 1)
        assert batched == _solve_bits(geom, pw)


@pytest.mark.parametrize("point, error", [
    ((43.20, -25.83), mathkernel.IntegrationError),
    ((39.73583632597491, -23.993417468946063), mathkernel.BracketError),
], ids=["corner", "stalled_bisection"])
def test_a_kept_solver_error_keeps_only_its_numbers(placements, point, error):
    # a caller that keeps the errors of failed solves, such as a corner
    # sweep, holds a few KiB per error, not the solve's quadrature state.
    # One solve, as tracing slows it about 8x; the size is what dropping the
    # error frees, so caches that outlive the solve anyway do not count
    c = placements["default"]
    geom, pw = c.geometry, _power(c, point)
    tracemalloc.start()
    try:
        try:
            solve_water_level(geom, pw)
        except error as exc:
            kept = exc
        gc.collect()
        size = tracemalloc.get_traced_memory()[0]
        del kept
        gc.collect()
        size -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert size <= 8 * 1024


def test_closed_form_check_reports(default_geom, default_cfg):
    level = solve_water_level(default_geom, default_cfg)
    rep = closed_form_check(level.lam, default_geom, default_cfg)
    # the consistent reduction is a third route to the same constraint value
    assert rep.consistent_value == pytest.approx(default_cfg.w_lin, rel=1e-7)
    # the as-printed form deviates persistently, and is reported as such
    assert abs(rep.as_printed_residual) > 0.1 * default_cfg.w_lin
    assert rep.as_printed_value == pytest.approx(rep.as_printed_residual + rep.target, abs=1e-12)


def test_closed_form_check_zero_level(default_geom, default_cfg):
    rep = closed_form_check(0.0, default_geom, default_cfg)
    assert rep.as_printed_value == 0.0
    assert rep.consistent_value == 0.0


def test_closed_form_scale_invariance(default_geom):
    # scaling (W_lin, P_lin) by k scales lambda by k and leaves the
    # normalized residual pattern unchanged
    base = PowerConfig(p_cci_db=20.0, w_db=10.0, gamma_bar_db=30.0)
    k_db = 7.0
    scaled = PowerConfig(p_cci_db=20.0 + k_db, w_db=10.0 + k_db, gamma_bar_db=30.0)
    la = solve_water_level(default_geom, base)
    lb = solve_water_level(default_geom, scaled)
    k = 10 ** (k_db / 10)
    assert lb.lam == pytest.approx(k * la.lam, rel=1e-7)
    ra = closed_form_check(la.lam, default_geom, base)
    rb = closed_form_check(lb.lam, default_geom, scaled)
    assert rb.as_printed_value / scaled.w_lin == pytest.approx(
        ra.as_printed_value / base.w_lin, rel=1e-6)


def test_closed_form_at_equal_pu4_distances(default_cfg):
    # q == r: the consistent closed form still reproduces the quadrature
    geom = ScenarioGeometry(s=0.75, l=0.25, r=0.55, q=0.55, z=0.4, d=1.5, epsilon=4.0)
    for lam in (0.5, 5.0, 30.0, 300.0):
        value = closed_form_check(lam, geom, default_cfg).consistent_value
        assert value == pytest.approx(constraint_lhs(lam, geom, default_cfg), rel=1e-9)
    level = solve_water_level(geom, default_cfg)
    rep = closed_form_check(level.lam, geom, default_cfg)
    assert abs(rep.consistent_residual) <= 1e-6 * default_cfg.w_lin
    assert abs(rep.as_printed_residual) > 0.1 * default_cfg.w_lin


def test_optimal_power_zero_level(default_geom, default_cfg):
    d = sample_fading(np.random.default_rng(0), default_cfg, 1000)
    assert (optimal_power(d, default_geom, default_cfg, 0.0) == 0.0).all()


def test_optimal_power_threshold_boundary(default_geom, default_cfg):
    # draw engineered exactly at the clipping threshold
    e = default_geom.epsilon
    lam = 3.0
    f2, u2, v2 = 2.0, 1.0, 1.0
    cci = default_cfg.p_cci_lin * (default_geom.q ** -e * u2 + default_geom.r ** -e * v2)
    head = lam / (default_geom.d ** -e * f2)
    g2 = cci / (default_geom.l ** -e * head)
    d = FadingRealization(h2=1.0, g2=g2, f2=f2, u2=u2, v2=v2, w2=1.0)
    assert optimal_power(d, default_geom, default_cfg, lam) == 0.0


def test_optimal_power_degenerate_draws(default_geom, default_cfg):
    d = FadingRealization(h2=np.array([1.0, 1.0]), g2=np.array([0.0, 1.0]),
                          f2=np.array([1.0, 0.0]), u2=np.array([1.0, 1.0]),
                          v2=np.array([1.0, 1.0]), w2=np.array([1.0, 1.0]))
    p = optimal_power(d, default_geom, default_cfg, 5.0)
    assert (p == 0.0).all()


@pytest.mark.parametrize("zero", [("f2",), ("g2",), ("f2", "g2")])
def test_optimal_power_zero_gain_rule_with_and_without_out(default_geom, default_cfg, zero):
    # one rule for zero-gain draws: the same bits with or without `out`, for
    # a scalar draw and for an array draw whose other elements transmit
    gains = dict(h2=1.0, g2=1.0, f2=1e-3, u2=1.0, v2=1.0, w2=1.0)
    scalar = FadingRealization(**{**gains, **dict.fromkeys(zero, 0.0)})
    arrays = {k: np.full(4, v) for k, v in gains.items()}
    for name in zero:
        arrays[name][[0, 2]] = 0.0
    for draw in (scalar, FadingRealization(**arrays)):
        fresh = optimal_power(draw, default_geom, default_cfg, 5.0)
        out = np.full(np.shape(draw.f2), np.nan)
        into = optimal_power(draw, default_geom, default_cfg, 5.0, out=out)
        assert np.asarray(into).tobytes() == np.asarray(fresh).tobytes()
        if np.ndim(draw.f2):
            assert into is out and (fresh[[0, 2]] == 0.0).all() and (fresh[[1, 3]] > 0).all()
        else:
            assert type(fresh) is type(into) is float and fresh == 0.0


def test_optimal_power_monotonicity(default_geom, default_cfg):
    rng = np.random.default_rng(4)
    d = sample_fading(rng, default_cfg, 20_000)
    lam = 15.0
    base = optimal_power(d, default_geom, default_cfg, lam)

    def bumped(**kw):
        fields = {n: getattr(d, n) for n in ("h2", "g2", "f2", "u2", "v2", "w2")}
        fields.update({k: v * fields[k] for k, v in kw.items()})
        return optimal_power(FadingRealization(**fields), default_geom, default_cfg, lam)

    assert (bumped(g2=1.3) >= base).all()
    assert (bumped(u2=1.3) <= base).all()
    assert (bumped(v2=1.3) <= base).all()
    assert (bumped(f2=1.3) <= base).all()


def test_zero_set_symmetry(default_geom, default_cfg):
    # the no-transmission indicator depends on the draw only through the
    # product (q^-eps u2 + r^-eps v2) * (d^-eps f2): swapping the two factor
    # values leaves it unchanged
    rng = np.random.default_rng(12)
    d = sample_fading(rng, default_cfg, 50_000)
    e = default_geom.epsilon
    lam = 10.0
    a = default_geom.q ** -e * d.u2 + default_geom.r ** -e * d.v2
    b = default_geom.d ** -e * d.f2
    k = b / a
    swapped = FadingRealization(h2=d.h2, g2=d.g2, f2=d.f2 * a / b,
                                u2=d.u2 * k, v2=d.v2 * k, w2=d.w2)
    p1 = optimal_power(d, default_geom, default_cfg, lam)
    p2 = optimal_power(swapped, default_geom, default_cfg, lam)
    assert ((p1 == 0.0) == (p2 == 0.0)).all()


def test_fixed_power_unit_case():
    from curelay import ScenarioGeometry
    g = ScenarioGeometry(s=0.75, l=0.25, r=0.57, q=1.25, z=0.4, d=1.0, epsilon=3.0)
    cfg = PowerConfig(p_cci_db=20.0, w_db=0.0, gamma_bar_db=0.0)
    assert fixed_power(cfg, g) == 1.0


def test_fixed_power_linear_in_budget(default_geom):
    a = fixed_power(PowerConfig(20.0, 10.0, 30.0), default_geom)
    b = fixed_power(PowerConfig(20.0, 10.0 + 10 * math.log10(2), 30.0), default_geom)
    assert b == pytest.approx(2 * a, rel=1e-12)


def test_fixed_power_constraint_mc(default_geom, default_cfg):
    p_fix = fixed_power(default_cfg, default_geom)
    rng = np.random.default_rng(21)
    f2 = sample_fading(rng, default_cfg, 10**6).f2
    mc = float((p_fix * default_geom.d ** -default_geom.epsilon * f2).mean())
    assert mc == pytest.approx(default_cfg.w_lin, rel=5e-3)
