"""Analysis-layer tests: outage MC against analytic bounds, the SU-side
closed form against brute force, and the rate curves."""

import copy
import math
import os
import threading
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import curelay.analysis
import curelay.relaying
from curelay import (
    FadingRealization,
    PowerConfig,
    derive_etas,
    dist_su_upper,
    outage_bs_bounds,
    outage_mc,
    rate_curve,
    sample_fading,
    sir_sample,
    solve_water_level,
    su_outage_closed_form,
)
from curelay.analysis import (BLOCK_SIZE, _UNIT_MEAN, SLICE_DRAWS, _at_mean, _critical,
                              _gamma2_cdf, _outage_block, _outage_point, _rate_block, _run_block,
                              _slices, _sweep)
from curelay.channels import dist_gamma_ratio, dist_t
from curelay.mathkernel import NumericTolerance, integrate
from curelay.power import _interference, _power_terms, fixed_power, optimal_power
from curelay.relaying import _gamma1, _gamma2, _harmonic, check_gamma2_routes

TIGHT = NumericTolerance(rel_tol=1e-11, abs_tol=1e-300, max_iter=4000)


@pytest.fixture(scope="module")
def solved(default_geom, default_cfg):
    return solve_water_level(default_geom, default_cfg).lam


# ---------------------------------------------------------------------------
# outage MC
# ---------------------------------------------------------------------------


def test_outage_zero_threshold(default_geom, default_cfg, solved):
    est = outage_mc(default_geom, default_cfg, solved, 0.0, "bs", [default_cfg.gamma_bar_db],
                    10_000, seed=1)[0]
    assert est.p_out == 0.0
    assert est.lower_bound == 0.0 and est.upper_bound == 0.0


def test_outage_empty_grid_samples_nothing(default_geom, default_cfg, solved, monkeypatch):
    calls = []
    real = curelay.analysis.sample_fading
    monkeypatch.setattr(curelay.analysis, "sample_fading",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    for side in ("bs", "su"):
        assert outage_mc(default_geom, default_cfg, solved, 3.0, side, [], 10_000, seed=1) == []
    assert calls == []


def test_outage_huge_threshold(default_geom, default_cfg, solved):
    est = outage_mc(default_geom, default_cfg, solved, 1e12, "su", [default_cfg.gamma_bar_db],
                    10_000, seed=1)[0]
    assert est.p_out > 0.9999


def test_outage_requires_level(default_geom, default_cfg):
    with pytest.raises(ValueError):
        outage_mc(default_geom, default_cfg, None, 3.0, "bs", [default_cfg.gamma_bar_db],
                  10_000, seed=1)
    with pytest.raises(ValueError):
        outage_mc(default_geom, default_cfg, 1.0, 3.0, "both", [default_cfg.gamma_bar_db],
                  10_000, seed=1)
    with pytest.raises(ValueError):
        outage_mc(default_geom, default_cfg, 1.0, 3.0, "bs", [default_cfg.gamma_bar_db],
                  100, seed=1)


def test_outage_deterministic_and_worker_invariant(monkeypatch, default_geom, default_cfg,
                                                  solved):
    monkeypatch.setattr(curelay.analysis, "BLOCK_SIZE", 25_000)
    a = outage_mc(default_geom, default_cfg, solved, 3.0, "bs", [default_cfg.gamma_bar_db],
                  120_000, seed=5, workers=1)[0]
    b = outage_mc(default_geom, default_cfg, solved, 3.0, "bs", [default_cfg.gamma_bar_db],
                  120_000, seed=5, workers=3)[0]
    assert a == b


@pytest.mark.parametrize("side", ["bs", "su"])
def test_outage_grid_equals_one_point_calls(monkeypatch, default_geom, default_cfg, solved,
                                            side):
    # 100_000 = 3 x 30_000 + a 10_000 remainder block
    grid = (10.0, 20.0, 30.0)
    kw = dict(trials=100_000, seed=21)
    monkeypatch.setattr(curelay.analysis, "BLOCK_SIZE", 30_000)
    singles = [outage_mc(default_geom, default_cfg, solved, 3.0, side, [g], **kw)[0]
               for g in grid]
    for workers in (1, 2):
        ests = outage_mc(default_geom, default_cfg, solved, 3.0, side, grid,
                         workers=workers, **kw)
        assert ests == singles, workers


@pytest.mark.parametrize("side", ["bs", "su"])
def test_outage_slices_leave_estimates_unchanged(monkeypatch, default_geom, default_cfg,
                                                 solved, side):
    # blocks of 30_000 and 10_000 cut into slices of 7_000 with remainders
    grid = (10.0, 20.0, 30.0)
    kw = dict(trials=100_000, seed=21)
    monkeypatch.setattr(curelay.analysis, "BLOCK_SIZE", 30_000)
    monkeypatch.setattr(curelay.analysis, "SLICE_DRAWS", 30_000)
    whole = outage_mc(default_geom, default_cfg, solved, 3.0, side, grid, **kw)
    monkeypatch.setattr(curelay.analysis, "SLICE_DRAWS", 7_000)
    for workers in (1, 2):
        sliced = outage_mc(default_geom, default_cfg, solved, 3.0, side, grid,
                           workers=workers, **kw)
        assert sliced == whole, workers


@pytest.mark.parametrize("side", ["bs", "su"])
def test_dual_route_check_sees_every_draw_of_every_point(monkeypatch, default_geom,
                                                         default_cfg, solved, side):
    # every draw once at unit mean (0 dB), one call per slice, and every guard
    # draw again at its own point; a wide band makes guard draws at each point
    seen, guarded = [], []

    def counting(draw, geom, cfg, lam, gamma2):
        seen.append((cfg.gamma_bar_db, gamma2.size))
        return check_gamma2_routes(draw, geom, cfg, lam, gamma2)

    def recording(draw, cfg, *args):
        guarded.append((cfg.gamma_bar_db, draw.h2.size))
        return exact_point(draw, cfg, *args)

    exact_point = curelay.analysis._outage_point
    monkeypatch.setattr(curelay.analysis, "check_gamma2_routes", counting)
    monkeypatch.setattr(curelay.relaying, "check_gamma2_routes", counting)
    monkeypatch.setattr(curelay.analysis, "_outage_point", recording)
    monkeypatch.setattr(curelay.analysis, "_CRIT_BAND", 0.05)
    monkeypatch.setattr(curelay.analysis, "BLOCK_SIZE", 10_000)
    outage_mc(default_geom, default_cfg, solved, 3.0, side, [10.0, 20.0], 25_000, seed=2)
    assert sorted(n for g, n in seen if g == 0.0) == [5_000, 10_000, 10_000]
    assert sorted((g, n) for g, n in seen if g != 0.0) == sorted(guarded)
    assert {g for g, _ in guarded} == {10.0, 20.0}


def test_dual_route_check_raises_on_disagreement(default_geom, default_cfg, solved):
    draw = sample_fading(np.random.default_rng(4), default_cfg, 10_000)
    s = sir_sample(draw, default_geom, default_cfg, solved)
    check_gamma2_routes(draw, default_geom, default_cfg, solved, s.gamma2)
    with pytest.raises(RuntimeError, match="dual-route"):
        check_gamma2_routes(draw, default_geom, default_cfg, solved, s.gamma2 * (1 + 1e-6) + 1e-6)


def _masked_route_check(draw, geom, cfg, lam, gamma2):
    """The dual-route check judged over the gathered finite draws only: None
    or the RuntimeError's message."""
    e = geom.epsilon
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = (geom.q ** -e * draw.u2 + geom.r ** -e * draw.v2) * (draw.f2 / draw.g2)
        alt = np.maximum(lam / (derive_etas(geom).eta4 * cfg.p_cci_lin) / t - 1.0, 0.0)
    both = np.isfinite(gamma2) & np.isfinite(alt)
    if both.any():
        gap = np.abs(gamma2[both] - alt[both]) / np.maximum(
            1.0, np.maximum(gamma2[both], alt[both]))
        if gap.max() > 1e-9:
            return f"gamma2 dual-route disagreement: max deviation {gap.max():.3e}"
    return None


def _route_check_outcome(draw, geom, cfg, lam, gamma2):
    try:
        check_gamma2_routes(draw, geom, cfg, lam, gamma2)
    except RuntimeError as err:
        return str(err)
    return None


def test_dual_route_check_decides_as_the_masked_check(default_geom, default_cfg, solved):
    # elements first, in the middle and last in the slice, on draws where
    # gamma2 > 1 so that a 1e-8 relative change is a 1e-8 gap
    unit = replace(default_cfg, gamma_bar_db=0.0)
    draw = sample_fading(np.random.default_rng(41), _UNIT_MEAN, SLICE_DRAWS)
    gamma2 = _gamma2(draw, default_geom, optimal_power(draw, default_geom, unit, solved),
                     _interference(draw, default_geom, unit))
    big = np.flatnonzero(gamma2 > 1.0)
    spots = [int(big[0]), int(big[big.size // 2]), int(big[-1])]
    # a zero f2 and u2 = v2 = 0 make the reformulation inf, f2 = g2 = 0 NaN
    alt_inf, alt_nan = dict(f2=0.0), dict(f2=0.0, g2=0.0)

    def case(bumped=(), gamma2_at=None, gains=None):
        d, g = copy.deepcopy(draw), gamma2.copy()
        for i in bumped:
            g[i] *= 1.0 + 1e-8
        if gamma2_at is not None:
            g[gamma2_at[0]] = gamma2_at[1]
        for name, value in (gains or {}).items():
            getattr(d, name)[spots[1] + 1] = value
        want = _masked_route_check(d, default_geom, unit, solved, g)
        assert _route_check_outcome(d, default_geom, unit, solved, g) == want
        return want

    assert case() is None
    for i in spots:
        assert case(bumped=[i]).startswith("gamma2 dual-route disagreement"), i
    assert case(bumped=spots) is not None
    for bad in (np.inf, np.nan):
        for k, i in enumerate(spots):
            assert case(gamma2_at=(i, bad)) is None
            assert case(bumped=[spots[k - 1]], gamma2_at=(i, bad)) is not None
    for gains in (alt_inf, alt_nan):
        assert case(gains=gains) is None
        assert case(bumped=[spots[1]], gains=gains) is not None
        assert case(gamma2_at=(spots[1] + 1, np.inf), gains=gains) is None


def test_outage_bs_counts_transmitting_draw_with_zero_v2(default_geom, default_cfg, solved):
    # v2 == 0 makes the SU-side SIR 0/0, but gamma_bs1 is defined and the SU
    # transmits, so the BS side counts the draw
    one = np.ones(1)
    draw = FadingRealization(h2=1e3 * one, g2=1e3 * one, f2=one, u2=one,
                             v2=np.zeros(1), w2=one)
    s = sir_sample(draw, default_geom, default_cfg, solved)
    assert s.p_su1[0] > 0 and not s.valid[0] and np.isfinite(s.gamma_bs1[0])
    at_mean = [replace(default_cfg, gamma_bar_db=0.0)]  # the draw is used as given
    assert _outage_block(draw, at_mean, default_geom, solved, 3.0, "bs", SLICE_DRAWS)[1] == 1
    assert _outage_block(draw, at_mean, default_geom, solved, 3.0, "su", SLICE_DRAWS)[1] == 0


def _per_point(draw, group, geom, lam, gamma_th, side):
    """n_out and n_counted at each point of `group`, interleaved in one row,
    by the exact per-point path."""
    return [n for cfg in group for n in _outage_point(_at_mean(copy.deepcopy(draw), cfg), cfg,
                                                      geom, lam, gamma_th, side)]


@pytest.mark.parametrize("side", ["bs", "su"])
def test_outage_degenerate_draws_match_per_point_kernel(default_geom, default_cfg, solved,
                                                        side):
    # a zero in each gain in turn, among ordinary draws
    draw = sample_fading(np.random.default_rng(11), _UNIT_MEAN, 50)
    for i, name in enumerate(("h2", "g2", "f2", "u2", "v2", "w2")):
        getattr(draw, name)[i] = 0.0
    group = [replace(default_cfg, gamma_bar_db=g) for g in (-10.0, 0.0, 20.0, 40.0)]
    for gamma_th in (0.0, 0.5, 3.0):
        assert (_outage_block(draw, group, default_geom, solved, gamma_th, side, SLICE_DRAWS)
                == _per_point(draw, group, default_geom, solved, gamma_th, side))


@pytest.mark.parametrize("side", ["bs", "su"])
def test_outage_block_rows_do_not_depend_on_slice_length(default_geom, default_cfg, solved,
                                                         side):
    # a zero in each gain in turn, so the exact path runs inside the slices too
    draw = sample_fading(np.random.default_rng(11), _UNIT_MEAN, 50)
    for i, name in enumerate(("h2", "g2", "f2", "u2", "v2", "w2")):
        getattr(draw, name)[i] = 0.0
    group = [replace(default_cfg, gamma_bar_db=g) for g in (-10.0, 0.0, 20.0, 40.0)]
    rows = [_outage_block(draw, group, default_geom, solved, 3.0, side, n) for n in (1, 7, 50)]
    assert rows[0] == rows[1] == rows[2] == _per_point(draw, group, default_geom, solved, 3.0,
                                                       side)


@pytest.mark.parametrize("side", ["bs", "su"])
def test_outage_point_on_a_critical_value_matches_per_point_kernel(default_geom, default_cfg,
                                                                   solved, side):
    # points placed on some draws' critical gamma_bar: those draws lie inside
    # the band there and must take the exact path
    unit = replace(default_cfg, gamma_bar_db=0.0)
    draw = sample_fading(np.random.default_rng(19), _UNIT_MEAN, 50)
    for gamma_th in (0.5, 3.0):
        crit, exact = _critical(draw, unit, default_geom, solved, gamma_th, side)
        on = crit[np.isfinite(crit) & (crit > 0)][:4]
        group = [replace(default_cfg, gamma_bar_db=10.0 * math.log10(c)) for c in on]
        assert not exact.any() and len(group) == 4
        assert all(abs(cfg.gamma_bar_lin - c) <= 1e-3 * curelay.analysis._CRIT_BAND * c
                   for cfg, c in zip(group, on))
        assert (_outage_block(draw, group, default_geom, solved, gamma_th, side, SLICE_DRAWS)
                == _per_point(draw, group, default_geom, solved, gamma_th, side))


@pytest.mark.parametrize("side", ["bs", "su"])
def test_outage_at_huge_threshold_matches_per_point_kernel(default_geom, default_cfg, solved,
                                                           side):
    # gamma_th (a3 + a4) and a3 a4 overflow here, so the SU critical value
    # would be nan ("counted at none") without the exact path
    draw = sample_fading(np.random.default_rng([1, 0]), _UNIT_MEAN, 10_000)
    group = [replace(default_cfg, gamma_bar_db=g) for g in (0.0, 40.0)]
    for gamma_th in (1e300, 1.7e308):
        assert (_outage_block(draw, group, default_geom, solved, gamma_th, side, SLICE_DRAWS)
                == _per_point(draw, group, default_geom, solved, gamma_th, side)), gamma_th


@pytest.mark.parametrize("side", ["bs", "su"])
def test_outage_all_exact_equals_fast_path(monkeypatch, default_geom, default_cfg, solved,
                                           side):
    # an infinitely wide guard sends every draw of every point down the exact path
    grid = (-10.0, 5.0, 20.0, 35.0, 50.0)
    monkeypatch.setattr(curelay.analysis, "BLOCK_SIZE", 30_000)
    for gamma_th in (0.5, 3.0, 1e3):
        kw = dict(trials=40_000, seed=13)
        fast = outage_mc(default_geom, default_cfg, solved, gamma_th, side, grid, **kw)
        with monkeypatch.context() as mp:
            mp.setattr(curelay.analysis, "_CRIT_BAND", math.inf)
            slow = outage_mc(default_geom, default_cfg, solved, gamma_th, side, grid, **kw)
        assert fast == slow, gamma_th


def _exact_critical(draw, i, geom, cfg, lam, gamma_th, side):
    """Draw i's critical gamma_bar, or (SU) its quadratic, in exact rational
    arithmetic from the same float gains and path-loss constants."""
    e, et = geom.epsilon, derive_etas(geom)
    h2, g2, f2, u2, v2, w2 = (Fraction(float(a[i])) for a in (
        draw.h2, draw.g2, draw.f2, draw.u2, draw.v2, draw.w2))
    d_, q_, r_, l_ = (Fraction(x ** -e) for x in (geom.d, geom.q, geom.r, geom.l))
    p, t = Fraction(cfg.p_cci_lin), Fraction(gamma_th)
    cci = p * (q_ * u2 + r_ * v2)
    p_su1 = max(Fraction(lam) / (d_ * f2) - cci / (l_ * g2), Fraction(0))
    if side == "bs":
        gamma1 = Fraction(et.eta1) * h2 / u2
        gamma2 = p_su1 * l_ * g2 / cci
        return t * gamma2 / ((gamma2 - t) * gamma1)
    a3, a4 = Fraction(et.eta2) * g2 / w2, Fraction(et.eta3) * h2 / v2
    k = p_su1 * l_ * g2 / (p * r_ * v2)
    return lambda x: x * x * a3 * a4 - x * t * (a3 + a4) - t * k


@pytest.mark.parametrize("side", ["bs", "su"])
def test_critical_value_headroom(default_geom, default_cfg, solved, side):
    # the band is 1e-6 wide; the critical value must be within 1e-3 of that
    # of the exact value from its own inputs, on the draws nearest the
    # guards (where the cancellations are worst) and on ordinary ones
    unit = replace(default_cfg, gamma_bar_db=0.0)
    draw = sample_fading(np.random.default_rng(17), _UNIT_MEAN, 200_000)
    head, tail = _power_terms(draw, default_geom, unit, solved)
    tol = 1e-3 * curelay.analysis._CRIT_BAND
    checked = 0
    for gamma_th in (0.5, 3.0, 1e3):
        crit, _ = _critical(draw, unit, default_geom, solved, gamma_th, side)
        ok = np.flatnonzero(np.isfinite(crit))
        nearest = [np.abs(head - tail) / head]
        if side == "bs":
            gamma2 = np.maximum(head - tail, 0.0) / tail
            nearest.append(np.abs(gamma2 - gamma_th) / (1.0 + gamma_th))
        picks = {int(i) for key in nearest for i in ok[np.argsort(key[ok])[:40]]}
        picks |= {int(i) for i in ok[::len(ok) // 40]}
        for i in sorted(picks):
            exact = _exact_critical(draw, i, default_geom, unit, solved, gamma_th, side)
            c = Fraction(float(crit[i]))
            if side == "bs":
                assert abs(c - exact) <= tol * exact, (gamma_th, i)
            else:
                assert exact(c * (1 - Fraction(tol))) < 0 < exact(c * (1 + Fraction(tol))), i
            checked += 1
    assert checked > 200


def _critical_reference(draw, cfg, geom, lam, gamma_th, side):
    """_critical's (crit, exact) from the formulas written out on fresh
    arrays: the reference the fused kernel must match bit for bit."""
    e, et = geom.epsilon, derive_etas(geom)
    h2, g2, f2, u2, v2, w2 = draw.h2, draw.g2, draw.f2, draw.u2, draw.v2, draw.w2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cci = cfg.p_cci_lin * (geom.q ** -e * u2 + geom.r ** -e * v2)
        head = lam / (geom.d ** -e * f2)
        tail = cci / (geom.l ** -e * g2)
        p_su1 = np.where((f2 == 0) | (g2 == 0), 0.0, np.maximum(head - tail, 0.0))
        gamma1 = et.eta1 * h2 / u2
        gamma2 = p_su1 * (geom.l ** -e) * g2 / cci
        gains = h2 * g2 * f2 * u2 * v2 * w2
        exact = ~((gains > 0) & (gains < np.inf)) | ~(np.abs(head - tail) > _band() * head)
        if side == "bs":
            exact |= np.abs(gamma2 - gamma_th) <= _band() * (1.0 + gamma_th)
            above = gamma2 > gamma_th
            crit = np.where(above, gamma_th * gamma2 / ((gamma2 - gamma_th) * gamma1), np.inf)
            exact |= above & ~np.isfinite(crit)
            crit[p_su1 == 0] = np.nan
        else:
            a3, a4 = et.eta2 * g2 / w2, et.eta3 * h2 / v2
            k = p_su1 * (geom.l ** -e) * g2 / (cfg.p_cci_lin * geom.r ** -e * v2)
            a, tb = a3 * a4, gamma_th * (a3 + a4)
            crit = (tb + np.sqrt(tb * tb + 4.0 * gamma_th * a * k)) / (2.0 * a)
            exact |= ~np.isfinite(crit)
    crit[exact] = np.nan
    return crit, exact


def _band():
    return curelay.analysis._CRIT_BAND


def _adversarial_draw(geom, cfg, lam, n):
    """n unit-mean draws, the first ones made to hit each guard: zero,
    1e-300 and infinite gains, P_su1 == 0, and |head - tail| inside the band."""
    draw = sample_fading(np.random.default_rng(43), _UNIT_MEAN, n)
    for i, name in enumerate(("h2", "g2", "f2", "u2", "v2", "w2")):
        getattr(draw, name)[i] = 0.0
        getattr(draw, name)[6 + i] = 1e-300
        getattr(draw, name)[12 + i] = np.inf
    draw.f2[18] = 1e6  # head far below tail: P_su1 == 0
    head, tail = _power_terms(draw, geom, cfg, lam)
    for i, rel in ((19, 1e-9), (20, 0.5 * _band()), (21, -0.5 * _band())):
        draw.f2[i] = lam / (geom.d ** -geom.epsilon * tail[i] * (1.0 + rel))
    return draw


@pytest.mark.parametrize("side", ["bs", "su"])
def test_critical_equals_reference_bit_for_bit(default_geom, default_cfg, solved, side):
    # slices of 1, 7 and SLICE_DRAWS draws, the last slice shorter than the
    # rows an earlier, longer one has left its values in
    unit = replace(default_cfg, gamma_bar_db=0.0)
    draw = _adversarial_draw(default_geom, unit, solved, SLICE_DRAWS + 300)
    gamma2 = _gamma2(draw, default_geom, optimal_power(draw, default_geom, unit, solved),
                     _interference(draw, default_geom, unit))
    on_gamma2 = float(gamma2[np.flatnonzero(gamma2 > 0)[5]])  # a draw with gamma2 == gamma_th
    checked = 0
    for gamma_th in (0.0, 0.5, 3.0, on_gamma2, 1e300, 1.7e308):
        for size in (SLICE_DRAWS, 7, 1):
            pieces = list(_slices(draw, size))
            if size == 1:
                pieces = pieces[:40] + pieces[-3:]
            for piece in pieces:
                crit, exact = _critical(piece, unit, default_geom, solved, gamma_th, side)
                want, want_exact = _critical_reference(piece, unit, default_geom, solved,
                                                       gamma_th, side)
                assert crit.tobytes() == want.tobytes(), (gamma_th, size)
                assert (exact == want_exact).all(), (gamma_th, size)
                checked += exact.any()
    assert checked > 0


@pytest.mark.parametrize("side", ["bs", "su"])
def test_outage_block_allocates_no_slice_arrays(default_geom, default_cfg, solved, side):
    # once a warm-up block has made the workspace and slice rows, a block's
    # traced peak stays below three slice rows: the rows are not reallocated,
    # and the dual-route check's two slice-length arrays are all it allocates
    configs = [replace(default_cfg, gamma_bar_db=g) for g in (0.0, 10.0, 20.0, 30.0, 40.0)]
    task = (_outage_block, (configs, default_geom, solved, 3.0, side, SLICE_DRAWS), 5, 0,
            BLOCK_SIZE, True)
    want = _run_block(task)
    tracemalloc.start()
    try:
        got = _run_block(task)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < 3 * SLICE_DRAWS * 8, peak


def test_rate_block_allocates_no_bs_term_arrays(default_geom, default_cfg, solved):
    # after a warm-up block, a rate block's BS terms, gamma_bs1 and validity
    # masks go into the slice rows: its traced peak stays below one slice row
    task = (_rate_block, (default_cfg, default_geom, solved, SLICE_DRAWS), 5, 0, BLOCK_SIZE,
            False)
    want = _run_block(task)
    tracemalloc.start()
    try:
        got = _run_block(task)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < SLICE_DRAWS * 8, peak


def _block_rows_written(task):
    """block_fn's row for `task`, run in a fresh thread whose workspace holds
    one NaN-filled row more than a block uses, and whether each row has
    been written (holds no NaN) or left untouched (all NaN)."""
    got = []

    def run():
        curelay.analysis._scratch.rows = [np.full(BLOCK_SIZE, np.nan)
                                          for _ in range(curelay.analysis._WORKSPACE_ROWS + 1)]
        got.append(_run_block(task))
        nan = [np.isnan(r) for r in curelay.analysis._scratch.rows]
        assert all(m.all() or not m.any() for m in nan)
        got.append([not m.any() for m in nan])

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    return got


def test_rate_block_touches_only_its_gain_rows(default_geom, default_cfg, solved):
    # a rate block draws h2, g2, f2 and u2 into rows 0-3 (v2 slice by slice)
    # and packs both policies' terms into them, so rows 4 and up keep their
    # NaN sentinels
    task = (_rate_block, (default_cfg, default_geom, solved, SLICE_DRAWS), 5, 0, BLOCK_SIZE,
            False)
    row, written = _block_rows_written(task)
    assert row == _run_block(task)
    assert written == [True] * 4 + [False] * 2


@pytest.mark.parametrize("side", ["bs", "su"])
def test_outage_block_touches_only_its_gain_rows(default_geom, default_cfg, solved, side):
    # an outage block draws h2 to v2 into rows 0-4 and w2 slice by slice
    configs = [replace(default_cfg, gamma_bar_db=g) for g in (0.0, 20.0)]
    task = (_outage_block, (configs, default_geom, solved, 3.0, side, SLICE_DRAWS), 5, 0,
            BLOCK_SIZE, True)
    row, written = _block_rows_written(task)
    assert row == _run_block(task)
    assert written == [True] * 5 + [False]


@pytest.mark.parametrize("w2", [True, False])
def test_last_gain_drawn_per_slice_keeps_its_bits(w2):
    # a block drawn without its last gain, whose slices then draw it from
    # the same generator in order, holds the bits of one whole-block draw,
    # also where the block is no multiple of the slice; a draw that carries
    # every gain is sliced as it is, drawing nothing
    last = "w2" if w2 else "v2"
    names = ("h2", "g2", "f2", "u2", "v2", "w2")[:5 + w2]
    for size, n in ((1, 50), (7, 50), (SLICE_DRAWS, 2 * SLICE_DRAWS + 300)):
        want = sample_fading(np.random.default_rng([8, 3]), _UNIT_MEAN, n)
        rng = np.random.default_rng([8, 3])
        block = sample_fading(rng, _UNIT_MEAN, n, out=[np.empty(n) for _ in range(4 + w2)])
        assert getattr(block, last) is None
        pieces = [{name: getattr(piece, name).copy() for name in names}
                  for piece in _slices(block, size, rng)]
        for name in names:
            got = np.concatenate([piece[name] for piece in pieces])
            assert got.tobytes() == getattr(want, name).tobytes(), (size, name)
        state = rng.bit_generator.state
        for piece in _slices(want, size, rng):
            assert getattr(piece, last).base is getattr(want, last), size
        assert rng.bit_generator.state == state


@pytest.mark.parametrize("n", [10_001, SLICE_DRAWS + 300])
def test_run_block_equals_block_on_whole_draw(default_geom, default_cfg, solved, n):
    # a block shorter than a slice and one with a remainder slice give the
    # row of the block function on one whole-block draw
    configs = [replace(default_cfg, gamma_bar_db=g) for g in (0.0, 20.0, 40.0)]
    for block_fn, args, w2 in (
            (_outage_block, (configs, default_geom, solved, 3.0, "bs", SLICE_DRAWS), True),
            (_outage_block, (configs, default_geom, solved, 0.5, "su", SLICE_DRAWS), True),
            (_rate_block, (configs[1], default_geom, solved, SLICE_DRAWS), False)):
        draw = sample_fading(np.random.default_rng([21, 4]), _UNIT_MEAN, n)
        assert _run_block((block_fn, args, 21, 4, n, w2)) == block_fn(draw, *args), block_fn


def test_outage_ci_definition(default_geom, default_cfg, solved):
    est = outage_mc(default_geom, default_cfg, solved, 3.0, "su", [default_cfg.gamma_bar_db],
                    50_000, seed=9)[0]
    expect = 1.96 * math.sqrt(est.p_out * (1 - est.p_out) / est.trials)
    assert est.ci_halfwidth == pytest.approx(expect, rel=1e-12)
    assert est.trials + est.excluded_draws == 50_000


def test_outage_bs_within_bounds(default_geom, default_cfg, solved):
    est = outage_mc(default_geom, default_cfg, solved, 3.0, "bs", [default_cfg.gamma_bar_db],
                    200_000, seed=3)[0]
    assert est.lower_bound - 3 * est.ci_halfwidth <= est.p_out
    assert est.p_out <= est.upper_bound + 3 * est.ci_halfwidth


def test_analytic_bounds_hold_at_the_top_of_the_db_range(default_geom, default_cfg, solved):
    # eta1 gamma_bar overflows from about 3073.69 dB and eta2 gamma_bar from
    # about 3074.38 dB: the BS bounds tend to F_gamma2 and the SU bound to the
    # gamma4 law x/(x + eta3 gamma_bar), without a warning or a NaN
    grid = (3073.6, 3073.8, 3074.5, 3080.0, 3082.5)
    eta3 = derive_etas(default_geom).eta3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ests = outage_mc(default_geom, default_cfg, solved, 3.0, "bs", grid, 100_000, seed=1)
        for est in ests:
            assert 0.0 <= est.lower_bound <= est.upper_bound <= 1.0, est
            assert est.lower_bound <= est.p_out + 3 * est.ci_halfwidth, est
        for gamma_bar_db in grid:
            cfg = replace(default_cfg, gamma_bar_db=gamma_bar_db)
            for gamma_th in (0.5, 3.0, 1e3):
                su = su_outage_closed_form(gamma_th, default_geom, cfg)
                gamma4 = gamma_th / (gamma_th + eta3 * cfg.gamma_bar_lin)
                assert math.isfinite(su), (gamma_bar_db, gamma_th)
                assert su == pytest.approx(gamma4, rel=1e-12, abs=1e-12), (gamma_bar_db, gamma_th)


def test_outage_monotone_in_gamma_bar(default_geom, solved):
    outs = []
    for gbar in (5.0, 15.0, 25.0, 35.0):
        cfg = PowerConfig(p_cci_db=20.0, w_db=10.0, gamma_bar_db=gbar)
        outs.append(outage_mc(default_geom, cfg, solved, 3.0, "su", [cfg.gamma_bar_db],
                              100_000, seed=4)[0].p_out)
    assert all(b <= a + 0.003 for a, b in zip(outs, outs[1:]))


def test_outage_monotone_in_w(default_geom):
    outs = []
    for w in (0.0, 5.0, 10.0, 15.0):
        cfg = PowerConfig(p_cci_db=20.0, w_db=w, gamma_bar_db=25.0)
        lam = solve_water_level(default_geom, cfg).lam
        outs.append(outage_mc(default_geom, cfg, lam, 3.0, "bs", [cfg.gamma_bar_db],
                              100_000, seed=6)[0].p_out)
    assert all(b <= a + 0.004 for a, b in zip(outs, outs[1:]))


# ---------------------------------------------------------------------------
# BS bounds
# ---------------------------------------------------------------------------


def test_gamma2_cdf_normalization(default_geom, default_cfg, solved):
    assert _gamma2_cdf(0.0, default_geom, solved, default_cfg.p_cci_lin) == 0.0
    hi = _gamma2_cdf(1e9, default_geom, solved, default_cfg.p_cci_lin)
    assert 0.999 < hi <= 1.0 + 1e-12


def test_bounds_ordering(default_geom, default_cfg, solved):
    lo, up = outage_bs_bounds(3.0, default_geom, default_cfg, solved)
    assert 0.0 < lo <= up < 1.0


def test_bounds_at_zero_water_level_are_nan(default_geom, default_cfg):
    # lam = 0: the SU never transmits, and the statistic conditioned on
    # transmission has no draw
    assert all(math.isnan(v) for v in outage_bs_bounds(3.0, default_geom, default_cfg, 0.0))
    assert outage_bs_bounds(0.0, default_geom, default_cfg, 0.0) == (0.0, 0.0)


@pytest.mark.parametrize("gamma_bar_db", [0.0, 30.0])
def test_bs_bounds_equal_scalar_evaluation(default_geom, default_cfg, solved, gamma_bar_db):
    # one dist_t call on [c2, c2/(g+1), c2/(2g+1)] gives the bits of one
    # scalar call per argument
    cfg = replace(default_cfg, gamma_bar_db=gamma_bar_db)
    et = derive_etas(default_geom)
    c2 = solved / (et.eta4 * cfg.p_cci_lin)

    def combined(g):
        _, f1 = dist_gamma_ratio(g, et.eta1, cfg.gamma_bar_lin)
        f2 = float(1.0 - dist_t(c2 / (g + 1.0), default_geom)[1] / dist_t(c2, default_geom)[1])
        return float(f1 + f2 - f1 * f2)

    for gamma_th in (1e-3, 0.5, 3.0, 40.0, 1e6):
        got = outage_bs_bounds(gamma_th, default_geom, cfg, solved)
        want = (combined(gamma_th), combined(2.0 * gamma_th))
        assert [v.hex() for v in got] == [v.hex() for v in want], gamma_th


# ---------------------------------------------------------------------------
# SU-side closed form
# ---------------------------------------------------------------------------


def test_su_upper_cdf_limits(default_geom, default_cfg):
    _, lo = dist_su_upper(1e-9, default_geom, default_cfg)
    _, hi = dist_su_upper(1e12, default_geom, default_cfg)
    assert 0.0 <= lo < 1e-8
    assert hi == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        dist_su_upper(0.0, default_geom, default_cfg)
    # no intermediate overflows or underflows into a domain error at any x
    et = derive_etas(default_geom)
    e2, e3 = et.eta2 * default_cfg.gamma_bar_lin, et.eta3 * default_cfg.gamma_bar_lin
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pdf, cdf = dist_su_upper([1e160, 1e200, 1e300, 1.7e308], default_geom, default_cfg)
        assert pdf.tolist() == [0.0] * 4 and cdf.tolist() == [1.0] * 4
        pdf, cdf = dist_su_upper([5e-324, 1e-300, 1e-160], default_geom, default_cfg)
        assert pdf == pytest.approx(1 / e2 + 1 / e3, rel=1e-14)
        assert cdf.tolist() == [0.0] * 3


def test_su_upper_cdf_brute_force(default_geom, default_cfg, default_etas):
    rng = np.random.default_rng(77)
    n = 10**6
    gbar = default_cfg.gamma_bar_lin
    g3 = default_etas.eta2 * gbar * rng.exponential(size=n) / rng.exponential(size=n)
    g4 = default_etas.eta3 * gbar * rng.exponential(size=n) / rng.exponential(size=n)
    sample = np.sort(g3 * g4 / (g3 + g4))
    grid = np.geomspace(sample[n // 1000], sample[-n // 1000], 40)
    ecdf = np.searchsorted(sample, grid, side="right") / n
    _, cdf = dist_su_upper(grid, default_geom, default_cfg)
    assert np.abs(ecdf - cdf).max() < 1.63 / math.sqrt(n)


def test_su_upper_pdf_matches_cdf_derivative(default_geom, default_cfg):
    scale = derive_etas(default_geom).eta3 * default_cfg.gamma_bar_lin
    xs = np.geomspace(0.05 * scale, 50 * scale, 25)
    pdf, _ = dist_su_upper(xs, default_geom, default_cfg)
    h = xs * 1e-4
    fd = []
    for x, hh in zip(xs, h):
        vals = [dist_su_upper(x + k * hh, default_geom, default_cfg)[1]
                for k in (-2, -1, 1, 2)]
        fd.append((vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * hh))
    assert np.abs(pdf / np.array(fd) - 1.0).max() < 1e-6


def test_su_integral_term_closed_form(default_geom, default_cfg):
    # the closed-form tail integral behind the cdf, against direct quadrature
    rng = np.random.default_rng(123)
    from curelay.mathkernel import gauss_2f1_near_unit, gauss_2f1
    for _ in range(5):
        gam = 10 ** rng.uniform(-1, 2)
        e2 = 10 ** rng.uniform(-1, 3)
        e3 = 10 ** rng.uniform(-1, 3)

        def integrand(g4):
            return (e2 / (gam * g4 / (g4 - gam) + e2)) * (e3 / (g4 + e3) ** 2)

        oracle = integrate(integrand, gam, math.inf, TIGHT).value
        w = gam * gam / ((gam + e2) * (gam + e3))
        hyp = gauss_2f1_near_unit(2, 2, 3, w) if w <= 0.5 else gauss_2f1(2, 2, 3, 1 - w)
        closed = e2 * e3 * gam * gam / (2 * (gam + e2) ** 2 * (gam + e3) ** 2) * hyp
        assert closed == pytest.approx(oracle, rel=1e-8)


def test_su_outage_ordering(default_geom, solved):
    cfg10 = PowerConfig(p_cci_db=20.0, w_db=10.0, gamma_bar_db=25.0)
    cfg15 = PowerConfig(p_cci_db=20.0, w_db=5.0, gamma_bar_db=25.0)
    lam10 = solve_water_level(default_geom, cfg10).lam
    lam15 = solve_water_level(default_geom, cfg15).lam
    p10 = outage_mc(default_geom, cfg10, lam10, 3.0, "su", [cfg10.gamma_bar_db],
                    300_000, seed=8)[0]
    p15 = outage_mc(default_geom, cfg15, lam15, 3.0, "su", [cfg15.gamma_bar_db],
                    300_000, seed=9)[0]
    closed = su_outage_closed_form(3.0, default_geom, cfg10)
    slack = 3 * math.hypot(p10.ci_halfwidth, p15.ci_halfwidth)
    assert p10.p_out >= p15.p_out - slack
    assert p15.p_out >= closed - 3 * p15.ci_halfwidth
    assert p10.lower_bound == pytest.approx(closed, rel=1e-12)


def test_w_cci_difference_invariance(default_geom):
    cfg_a = PowerConfig(p_cci_db=20.0, w_db=5.0, gamma_bar_db=20.0)
    cfg_b = PowerConfig(p_cci_db=30.0, w_db=15.0, gamma_bar_db=20.0)
    pa = outage_mc(default_geom, cfg_a, solve_water_level(default_geom, cfg_a).lam,
                   3.0, "bs", [cfg_a.gamma_bar_db], 300_000, seed=10)[0]
    pb = outage_mc(default_geom, cfg_b, solve_water_level(default_geom, cfg_b).lam,
                   3.0, "bs", [cfg_b.gamma_bar_db], 300_000, seed=11)[0]
    assert abs(pa.p_out - pb.p_out) <= 3 * math.hypot(pa.ci_halfwidth, pb.ci_halfwidth)


# ---------------------------------------------------------------------------
# rate curves
# ---------------------------------------------------------------------------


def test_rate_zero_budget(default_geom):
    cfg = PowerConfig(p_cci_db=20.0, w_db=-100.0, gamma_bar_db=25.0)
    lam = solve_water_level(default_geom, cfg).lam
    est = rate_curve(default_geom, cfg, lam, [25.0], 100_000, seed=12)[0]
    assert est.rate_objective < 1e-3


def test_rate_optimal_beats_fixed(default_geom, default_cfg, solved):
    grid = [15.0, 25.0]
    ests = rate_curve(default_geom, default_cfg, solved, grid, 200_000, seed=13)
    opt, fix = ests[:2], ests[2:]
    for o, f in zip(opt, fix):
        assert o.rate_objective >= f.rate_objective - 3 * math.hypot(
            o.ci_halfwidth, f.ci_halfwidth)
        assert o.rate_endtoend >= 0.0 and f.rate_endtoend >= 0.0


def test_rate_objective_flat_in_gamma_bar(default_geom, default_cfg, solved):
    # the allocation objective depends on gamma_bar only through g2's mean,
    # which cancels against the policy normalization on both policies
    both = rate_curve(default_geom, default_cfg, solved, [10.0, 30.0], 200_000, seed=14)
    for ests in (both[:2], both[2:]):
        assert ests[0].rate_objective == pytest.approx(
            ests[1].rate_objective,
            abs=3 * math.hypot(ests[0].ci_halfwidth, ests[1].ci_halfwidth))


def test_rate_guards(default_geom, default_cfg, solved):
    with pytest.raises(ValueError):
        rate_curve(default_geom, default_cfg, solved, [25.0], 99, seed=1)
    with pytest.raises(ValueError):
        rate_curve(default_geom, default_cfg, None, [25.0], 100_000, seed=1)


# float.hex of (sir_db, policy, rate_objective, rate_endtoend, ci_halfwidth,
# trials) at seed 31, trials 100_000 in blocks of 30_000 plus a remainder.
# Any change to the fading streams, the rate algebra or the order of the
# float sums shows up here.
FROZEN_RATES = [
    (10.0, "optimal", "0x1.7978023ea8192p+1", "0x1.381c94d4eb2f3p+0",
     "0x1.046c0e68b2959p-6", 100_000),
    (25.0, "optimal", "0x1.7cd5365020271p+1", "0x1.73c573ca67728p+0",
     "0x1.05af9f2eab632p-6", 100_000),
    (10.0, "fixed", "0x1.0b3acb1d9073fp+1", "0x1.e33a9c4d5d7d7p-1",
     "0x1.387661d3ccd85p-7", 100_000),
    (25.0, "fixed", "0x1.0cd5471cbed9bp+1", "0x1.0aba49cc4460dp+0",
     "0x1.3a74efbbb6951p-7", 100_000),
]


RATE_KW = dict(sir_grid_db=(10.0, 25.0), trials=100_000, seed=31)
RATE_BLOCK = 30_000


def test_rate_without_a_finite_draw_gives_nan_estimates(default_geom, default_cfg, solved):
    # at gamma_bar = -3076 dB the fixed power W/(d^-eps gamma_bar) overflows,
    # so no draw has a finite fixed gamma2: NaN estimates over 0 trials
    optimal, fixed = rate_curve(default_geom, default_cfg, solved, [-3076.0], 100_000, seed=2)
    assert optimal.trials > 0 and math.isfinite(optimal.rate_objective)
    assert fixed.trials == 0
    assert all(math.isnan(v) for v in (fixed.rate_objective, fixed.rate_endtoend,
                                       fixed.ci_halfwidth))


def test_rate_estimates_frozen(monkeypatch, default_geom, default_cfg, solved):
    monkeypatch.setattr(curelay.analysis, "BLOCK_SIZE", RATE_BLOCK)
    for workers in (1, 2):
        ests = rate_curve(default_geom, default_cfg, solved, workers=workers, **RATE_KW)
        got = [(e.sir_db, e.policy, e.rate_objective.hex(), e.rate_endtoend.hex(),
                e.ci_halfwidth.hex(), e.trials) for e in ests]
        assert got == FROZEN_RATES, workers


def test_rate_slices_leave_estimates_unchanged(monkeypatch, default_geom, default_cfg, solved):
    # blocks of 30_000 and 10_000 cut into slices of 7_000 with remainders
    monkeypatch.setattr(curelay.analysis, "BLOCK_SIZE", RATE_BLOCK)
    monkeypatch.setattr(curelay.analysis, "SLICE_DRAWS", 30_000)
    whole = rate_curve(default_geom, default_cfg, solved, **RATE_KW)
    monkeypatch.setattr(curelay.analysis, "SLICE_DRAWS", 7_000)
    for workers in (1, 2):
        sliced = rate_curve(default_geom, default_cfg, solved, workers=workers, **RATE_KW)
        assert sliced == whole, workers


def test_rate_worker_invariance(monkeypatch, default_geom, default_cfg, solved):
    monkeypatch.setattr(curelay.analysis, "BLOCK_SIZE", 25_000)
    a = rate_curve(default_geom, default_cfg, solved, [25.0], 100_000, seed=15, workers=1)
    b = rate_curve(default_geom, default_cfg, solved, [25.0], 100_000, seed=15, workers=4)
    assert a == b


def _rate_reference(draw, cfg, geom, lam):
    """_rate_block's row from fresh whole-block arrays: the sums over the
    draws where log2(1 + gamma2) and 0.5 log2(1 + gamma_bs1) are both finite."""
    draw = _at_mean(copy.deepcopy(draw), cfg)
    row = []
    for policy in ("optimal", "fixed"):
        p_su1 = (optimal_power(draw, geom, cfg, lam) if policy == "optimal"
                 else fixed_power(cfg, geom))
        gamma1, gamma2 = _gamma1(draw, geom), _gamma2(draw, geom, p_su1,
                                                    _interference(draw, geom, cfg))
        gbs = _harmonic(gamma1, gamma2, gamma2)
        valid = np.isfinite(gamma2) & np.isfinite(gbs)
        obj = np.log1p(gamma2[valid]) / math.log(2.0)
        e2e = 0.5 * np.log1p(gbs[valid]) / math.log(2.0)
        row += (float(obj.sum()), float(np.square(obj).sum()), float(e2e.sum()),
                int(np.count_nonzero(valid)))
    return row


def test_rate_block_matches_fresh_array_reference(default_geom, default_cfg, solved):
    # a zero in each gain in turn, plus draws where gamma2 is infinite
    # (u2 = v2 = 0) or gamma_bs1 is 0/0 (h2 = g2 = 0), which are not counted
    draw = sample_fading(np.random.default_rng(29), _UNIT_MEAN, 50)
    for i, name in enumerate(("h2", "g2", "f2", "u2", "v2")):
        getattr(draw, name)[i] = 0.0
    draw.u2[20] = draw.v2[20] = 0.0
    draw.h2[30] = draw.g2[30] = 0.0
    for gamma_bar_db in (0.0, 20.0):
        cfg = replace(default_cfg, gamma_bar_db=gamma_bar_db)
        want = _rate_reference(draw, cfg, default_geom, solved)
        assert want[3] == want[7] == 48
        for n in (1, 7, 50):
            got = _rate_block(copy.deepcopy(draw), cfg, default_geom, solved, n)
            assert got == want, (gamma_bar_db, n)


def _fresh_workspace(n):
    return [np.full(n, np.nan) for _ in range(curelay.analysis._WORKSPACE_ROWS)]


def _sweep_sequence(geom, cfg, lam, workers):
    """A rate sweep, an outage sweep after it and another outage sweep after
    that, each over 2.5 blocks of 20,000 (BLOCK_SIZE as the caller patches
    it): the rows each returns."""
    configs = [replace(cfg, gamma_bar_db=g) for g in (0.0, 20.0, 40.0)]
    kw = dict(trials=50_000, seed=37, workers=workers)
    rows = _sweep(_rate_block, [(c, geom, lam, 7_000) for c in configs[:2]], w2=False, **kw)
    for gamma_th, side in ((3.0, "bs"), (0.5, "su")):
        rows += _sweep(_outage_block, [(configs, geom, lam, gamma_th, side, 7_000)], **kw)
    return [[v.hex() if isinstance(v, float) else v for v in row] for row in rows]


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_rows_equal_fresh_arrays(monkeypatch, default_geom, default_cfg, solved, workers):
    # the reference gives every block fresh NaN-filled rows; the workspace
    # starts too short and holds values from earlier sweeps
    monkeypatch.setattr(curelay.analysis, "BLOCK_SIZE", 20_000)
    monkeypatch.setattr(curelay.analysis, "_workspace", _fresh_workspace)
    want = _sweep_sequence(default_geom, default_cfg, solved, 1)
    monkeypatch.undo()
    monkeypatch.setattr(curelay.analysis, "BLOCK_SIZE", 20_000)
    short = threading.local()
    short.rows = [np.full(100, 7.0) for _ in range(curelay.analysis._WORKSPACE_ROWS)]
    monkeypatch.setattr(curelay.analysis, "_scratch", short)
    assert _sweep_sequence(default_geom, default_cfg, solved, workers) == want
    assert _sweep_sequence(default_geom, default_cfg, solved, workers) == want


def test_sweeps_in_two_threads_equal_one_at_a_time(monkeypatch, default_geom, default_cfg,
                                                    solved):
    monkeypatch.setattr(curelay.analysis, "BLOCK_SIZE", 20_000)
    want = _sweep_sequence(default_geom, default_cfg, solved, 1)
    got = [None, None]

    def run(i):
        got[i] = _sweep_sequence(default_geom, default_cfg, solved, 1)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert got == [want, want]


@pytest.mark.parametrize("cpus, size", [(None, 1), (3, 3), (64, 4)])
def test_sweep_pool_is_no_larger_than_cpus_or_tasks(monkeypatch, default_geom, default_cfg,
                                                    solved, cpus, size):
    # four blocks at a million workers: the pool gets min(workers, CPUs,
    # tasks) processes; a stand-in pool records its size and maps in this
    # process, so no real pool is started at that count
    kw = dict(gamma_th=3.0, side="bs", sir_grid_db=(10.0, 25.0), trials=40_000, seed=7)
    monkeypatch.setattr(curelay.analysis, "BLOCK_SIZE", 10_000)
    want = outage_mc(default_geom, default_cfg, solved, **kw)
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return None

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(curelay.analysis, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert outage_mc(default_geom, default_cfg, solved, workers=10**6, **kw) == want
    assert rate_curve(default_geom, default_cfg, solved, [], 100_000, 1, workers=10**6) == []
    assert sizes == [size]  # no pool for a call without tasks


def _fresh_slice_rows(n):
    crit, *rows = (np.full(n, np.nan) for _ in range(curelay.analysis._SLICE_ROWS))
    exact, *masks = (np.ones(n, bool) for _ in range(curelay.analysis._SLICE_MASKS))
    return crit, exact, rows, masks


def test_rate_sweep_after_outage_sweep_equals_fresh_arrays(monkeypatch, default_geom,
                                                           default_cfg, solved):
    # an outage sweep leaves full-length slice rows behind, which the rate
    # sweep's shorter slices then take; the reference gives every block and
    # slice fresh rows
    configs = [replace(default_cfg, gamma_bar_db=g) for g in (0.0, 20.0, 40.0)]
    kw = dict(trials=50_000, seed=41, workers=1)
    monkeypatch.setattr(curelay.analysis, "BLOCK_SIZE", 20_000)

    def rate():
        return _sweep(_rate_block, [(c, default_geom, solved, 7_000) for c in configs[:2]],
                      w2=False, **kw)

    monkeypatch.setattr(curelay.analysis, "_workspace", _fresh_workspace)
    monkeypatch.setattr(curelay.analysis, "_slice_rows", _fresh_slice_rows)
    want = rate()
    monkeypatch.undo()
    monkeypatch.setattr(curelay.analysis, "BLOCK_SIZE", 20_000)
    for side in ("bs", "su"):
        _sweep(_outage_block, [(configs, default_geom, solved, 3.0, side, SLICE_DRAWS)], **kw)
        assert curelay.analysis._scratch.slice_rows[0].size >= SLICE_DRAWS
        assert rate() == want, side
