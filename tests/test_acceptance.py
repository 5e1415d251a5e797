"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with -s to see them inline).

Statistical gates use fixed seeds and 3-sigma (or 1% KS) slack, so a failure
indicates a model/formula defect, not Monte-Carlo luck.
"""

import math
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from curelay import (
    PowerConfig,
    ScenarioGeometry,
    derive_etas,
    dist_su_upper,
    exp_e1,
    load_config,
    optimal_power,
    outage_mc,
    rate_curve,
    sample_fading,
    sinr_bs_combine,
    sir_sample,
    solve_water_level,
    su_outage_closed_form,
    tricomi_psi11,
)
from curelay.mathkernel import NumericTolerance, gauss_2f1, gauss_2f1_near_unit, integrate

REPO = Path(__file__).resolve().parent.parent
GRID = tuple(float(g) for g in range(0, 45, 5))
TIGHT = NumericTolerance(rel_tol=1e-13, abs_tol=1e-300, max_iter=4000)


def report(num, name, ok, detail):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def scenario():
    cfg = load_config(REPO / "configs" / "default.cfg")
    return cfg.geometry, cfg.power


def solve(geom, w_db, cci_db, gbar_db):
    power = PowerConfig(p_cci_db=cci_db, w_db=w_db, gamma_bar_db=gbar_db)
    return power, solve_water_level(geom, power).lam


def outage_curve(geom, w_db, cci_db, side, seed, trials_fn):
    power, lam = solve(geom, w_db, cci_db, GRID[0])
    rows = []
    for gbar in GRID:
        p = replace(power, gamma_bar_db=gbar)
        rows.append(outage_mc(geom, p, lam, 3.0, side, [p.gamma_bar_db], trials_fn(gbar), seed)[0])
    return rows


def test_criterion_1_constraint_satisfaction(scenario):
    geom, _ = scenario
    e = geom.epsilon
    configs = [(w, cci, 30.0) for w in (5.0, 10.0, 20.0) for cci in (20.0, 30.0)]
    configs += [(w, 20.0, 10.0) for w in (5.0, 10.0, 20.0)]
    t0 = time.perf_counter()
    worst = 0.0
    for i, (w_db, cci_db, gbar_db) in enumerate(configs):
        power, lam = solve(geom, w_db, cci_db, gbar_db)
        acc = 0.0
        for blk in range(10):
            rng = np.random.default_rng([1000 + i, blk])
            d = sample_fading(rng, power, 10**6)
            p_su1 = optimal_power(d, geom, power, lam)
            acc += float((p_su1 * geom.d ** -e * d.f2).sum())
        rel = abs(acc / 10**7 - power.w_lin) / power.w_lin
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    report(1, "constraint satisfaction",
           worst < 5e-3,
           f"max relative deviation {worst:.2e} over 9 configs x 1e7 draws, "
           f"{elapsed:.1f}s (target < 60s)")


def test_criterion_2_su_closed_forms(scenario):
    geom, power = scenario
    et = derive_etas(geom)
    gbar = power.gamma_bar_lin
    n = 10**7
    rng = np.random.default_rng(2024)
    g3 = et.eta2 * gbar * rng.exponential(size=n) / rng.exponential(size=n)
    g4 = et.eta3 * gbar * rng.exponential(size=n) / rng.exponential(size=n)
    sample = np.sort(g3 * g4 / (g3 + g4))
    grid = np.geomspace(sample[int(n * 1e-4)], sample[int(n * (1 - 1e-4))], 50)
    ecdf = np.searchsorted(sample, grid, side="right") / n
    _, cdf = dist_su_upper(grid, geom, power)
    ks_dev = float(np.abs(ecdf - cdf).max())
    ks_bound = 1.63 / math.sqrt(n)

    scale = et.eta3 * gbar
    xs = np.geomspace(0.02 * scale, 50 * scale, 50)
    pdf, _ = dist_su_upper(xs, geom, power)
    fd = []
    for x in xs:
        h = x * 1e-4
        c = [dist_su_upper(x + k * h, geom, power)[1] for k in (-2, -1, 1, 2)]
        fd.append((c[0] - 8 * c[1] + 8 * c[2] - c[3]) / (12 * h))
    pdf_dev = float(np.abs(pdf / np.array(fd) - 1.0).max())

    prng = np.random.default_rng(40)
    tail_dev = 0.0
    for _ in range(20):
        gam = 10 ** prng.uniform(-1, 2)
        e2 = 10 ** prng.uniform(-1, 3)
        e3 = 10 ** prng.uniform(-1, 3)

        def integrand(t):
            return (e2 / (gam * t / (t - gam) + e2)) * (e3 / (t + e3) ** 2)

        oracle = integrate(integrand, gam, math.inf,
                           NumericTolerance(1e-11, 1e-300, 4000)).value
        w = gam * gam / ((gam + e2) * (gam + e3))
        hyp = gauss_2f1_near_unit(2, 2, 3, w) if w <= 0.5 else gauss_2f1(2, 2, 3, 1 - w)
        closed = e2 * e3 * gam**2 / (2 * (gam + e2) ** 2 * (gam + e3) ** 2) * hyp
        tail_dev = max(tail_dev, abs(closed - oracle) / oracle)

    report(2, "SU-side closed forms",
           ks_dev < ks_bound and pdf_dev < 1e-6 and tail_dev < 1e-8,
           f"KS {ks_dev:.2e} < {ks_bound:.2e}; pdf-vs-fd {pdf_dev:.2e} < 1e-6; "
           f"tail-integral {tail_dev:.2e} < 1e-8")


def test_criterion_3_bs_bound_sandwich(scenario):
    geom, _ = scenario
    t0 = time.perf_counter()
    ok_sandwich, ok_tight = True, True
    detail_worst = 0.0
    for w_db, seed in ((5.0, 31), (10.0, 32)):
        for est in outage_curve(geom, w_db, 20.0, "bs", seed, lambda g: 10**6):
            lo = est.lower_bound - 3 * est.ci_halfwidth
            hi = est.upper_bound + 3 * est.ci_halfwidth
            ok_sandwich &= lo <= est.p_out <= hi
    for w_db, seed in ((5.0, 33), (10.0, 34)):
        power, lam = solve(geom, w_db, 20.0, 25.0)
        for gbar in (25.0, 30.0, 35.0, 40.0):
            est = outage_mc(geom, replace(power, gamma_bar_db=gbar), lam, 3.0,
                            "bs", [gbar], 10**6, seed)[0]
            rel = abs(est.lower_bound - est.p_out) / est.p_out
            detail_worst = max(detail_worst, rel)
            ok_tight &= rel < 0.10
    elapsed = time.perf_counter() - t0
    report(3, "BS outage bound sandwich",
           ok_sandwich and ok_tight,
           f"in-bounds at all 18 grid points; lower-bound gap <= {detail_worst:.1%} "
           f"(< 10%) for gamma_bar >= 25dB; {elapsed:.0f}s (target < 120s)")


def test_criterion_4_w_cci_difference_invariance(scenario):
    geom, _ = scenario
    curves = {}
    for i, (w_db, cci_db) in enumerate(((5., 20.), (15., 30.), (10., 20.), (20., 30.))):
        curves[(w_db, cci_db)] = outage_curve(geom, w_db, cci_db, "bs", 41 + i,
                                              lambda g: 10**6)
    ok_match, ok_order = True, True
    worst = 0.0
    for pair in (((5., 20.), (15., 30.)), ((10., 20.), (20., 30.))):
        for ea, eb in zip(curves[pair[0]], curves[pair[1]]):
            gap = abs(ea.p_out - eb.p_out)
            slack = 3 * math.hypot(ea.ci_halfwidth, eb.ci_halfwidth)
            worst = max(worst, gap / slack if slack else 0.0)
            ok_match &= gap <= slack
    for e_hi, e_lo in zip(curves[(10., 20.)], curves[(5., 20.)]):
        ok_order &= e_hi.p_out < e_lo.p_out
    for e_hi, e_lo in zip(curves[(20., 30.)], curves[(15., 30.)]):
        ok_order &= e_hi.p_out < e_lo.p_out
    report(4, "W-CCI difference invariance",
           ok_match and ok_order,
           f"curve pairs agree within 3 combined CI (worst {worst:.2f}x); "
           f"W-CCI=-10 everywhere below -15")


def test_criterion_5_su_convergence(scenario):
    geom, _ = scenario

    def trials(gbar):
        return 8 * 10**6 if gbar >= 35.0 else 10**6

    curve10 = outage_curve(geom, 10.0, 20.0, "su", 51, trials)   # W = CCI - 10
    curve15 = outage_curve(geom, 5.0, 20.0, "su", 52, trials)    # W = CCI - 15
    power = PowerConfig(p_cci_db=20.0, w_db=5.0, gamma_bar_db=30.0)
    ok_order, ok_tight = True, True
    worst_rel = 0.0
    for gbar, e10, e15 in zip(GRID, curve10, curve15):
        closed = su_outage_closed_form(3.0, geom, replace(power, gamma_bar_db=gbar))
        ok_order &= e10.p_out >= e15.p_out - 3 * math.hypot(e10.ci_halfwidth,
                                                            e15.ci_halfwidth)
        ok_order &= e15.p_out >= closed - 3 * e15.ci_halfwidth
        if gbar >= 20.0:
            rel = abs(e15.p_out - closed) / closed
            worst_rel = max(worst_rel, rel)
            ok_tight &= rel < 0.05
    report(5, "SU outage convergence",
           ok_order and ok_tight,
           f"ordering MC(W=CCI-10) >= MC(W=CCI-15) >= closed form holds; "
           f"W=CCI-15 within {worst_rel:.1%} (< 5%) of closed form for gamma_bar >= 20dB")


def test_criterion_6_rate_comparison(scenario):
    geom, power = scenario
    assert power.p_cci_db == 20.0
    lam = solve_water_level(geom, power).lam
    ests = rate_curve(geom, power, lam, [25.0, 35.0], 10**6, seed=61)
    opt, fix = ests[:2], ests[2:]
    ratio = opt[0].rate_objective / fix[0].rate_objective
    saturation = fix[1].rate_objective - fix[0].rate_objective
    ok = ratio >= 1.5 and saturation < 0.2

    # calibration sweep (not a gate): locate the exponent best matching the
    # reference operating point (5.2, 2.9) bit/s/Hz at 25 dB
    best = None
    for eps in (2.0, 3.0, 4.0):
        g = ScenarioGeometry(s=geom.s, l=geom.l, r=geom.r, q=geom.q, z=geom.z,
                             d=geom.d, epsilon=eps)
        lam_e = solve_water_level(g, power).lam
        o, f = rate_curve(g, power, lam_e, [25.0], 2 * 10**5, seed=62)
        miss = math.hypot(o.rate_objective / 5.2 - 1.0, f.rate_objective / 2.9 - 1.0)
        if best is None or miss < best[1]:
            best = (eps, miss, o.rate_objective, f.rate_objective)
    print(f"[criterion 6 calibration] best epsilon {best[0]:.0f}: optimal "
          f"{best[2]:.2f} vs 5.2, fixed {best[3]:.2f} vs 2.9 bit/s/Hz "
          f"(geometry is assumed; informational only)")
    report(6, "rate comparison",
           ok,
           f"optimal/fixed = {ratio:.2f} (>= 1.5) at 25dB; fixed-policy "
           f"35dB-25dB increase {saturation:.3f} (< 0.2) bit/s/Hz")


def test_criterion_7_per_draw_invariants(scenario):
    geom, power = scenario
    et = derive_etas(geom)
    lam = solve_water_level(geom, power).lam
    rng = np.random.default_rng(71)
    d = sample_fading(rng, power, 10**6)
    s = sir_sample(d, geom, power, lam)
    sinr = sinr_bs_combine(s.gamma1, s.gamma2)
    slack = 1e-13  # IEEE rounding of the closed-form expressions only
    fin = s.valid & np.isfinite(s.gamma1) & np.isfinite(s.gamma2)
    mn = np.minimum(s.gamma1[fin], s.gamma2[fin])
    v_sandwich = int(np.count_nonzero((s.gamma_bs1[fin] > mn * (1 + slack))
                                      | (s.gamma_bs1[fin] < 0.5 * mn * (1 - slack))))
    v_sinr = int(np.count_nonzero(sinr[fin] > s.gamma_bs1[fin]))
    up = s.valid & np.isfinite(s.gamma_su1_upper)
    v_upper = int(np.count_nonzero(s.gamma_su1[up] > s.gamma_su1_upper[up]))
    eq = s.gamma_su1[up] == s.gamma_su1_upper[up]
    v_eq = int(np.count_nonzero(eq != (s.p_su1[up] == 0.0)))
    c2 = lam / (et.eta4 * power.p_cci_lin)
    t = (geom.q ** -geom.epsilon * d.u2 + geom.r ** -geom.epsilon * d.v2) * d.f2 / d.g2
    alt = np.maximum(c2 / t - 1.0, 0.0)
    dual_dev = float((np.abs(s.gamma2 - alt)
                      / np.maximum(1.0, np.maximum(s.gamma2, alt))).max())
    ok = v_sandwich == v_sinr == v_upper == v_eq == 0 and dual_dev <= 1e-12
    report(7, "per-draw invariants",
           ok,
           f"violations over 1e6 draws: sandwich {v_sandwich}, SINR<=SIR {v_sinr}, "
           f"upper-bound {v_upper}, equality-iff-zero-power {v_eq}; "
           f"dual-route gamma2 deviation {dual_dev:.2e} <= 1e-12")


def test_criterion_8_special_function_accuracy():
    # E1 and Psi against the quadrature oracle
    xs = np.geomspace(1e-8, 700.0, 1000)
    worst_e1 = 0.0
    for x in xs:
        oracle = math.exp(-x) * integrate(
            lambda u: np.exp(-u) / (x + u), 0.0, math.inf, TIGHT).value
        worst_e1 = max(worst_e1, abs(exp_e1(x) - oracle) / oracle)
    xs_psi = np.geomspace(1e-8, 1e8, 1000)
    worst_psi = 0.0
    for x in xs_psi:
        if x >= 1.0:
            # substituted form keeps the integrand scale O(1) for large x
            oracle = integrate(lambda u: np.exp(-u) / (1.0 + u / x),
                               0.0, math.inf, TIGHT).value / x
        else:
            oracle = integrate(lambda t: np.exp(-x * t) / (1.0 + t),
                               0.0, math.inf, TIGHT).value
        worst_psi = max(worst_psi, abs(tricomi_psi11(x) - oracle) / oracle)

    # closed-form 2F1 oracles, themselves validated against the brute series
    def f223(z):
        w = 1.0 - z
        return (2.0 / z**2) * (z / w + math.log(w))

    def f334(z):
        w = 1.0 - z
        return (3.0 / z**3) * (1.5 + 0.5 / w**2 - 2.0 / w - math.log(w))

    def brute(a, b, c, z):
        total, comp, term = 1.0, 0.0, 1.0
        for k in range(10**6):
            term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
            if abs(term) < 1e-18 * abs(total):
                break
        return total

    # the closed forms cancel catastrophically near z = 0, the brute series
    # converges slowly near z = 1: cross-validate them in the overlap, then
    # use whichever is well conditioned as the oracle
    for z in (0.45, 0.2, -0.3, 0.11, -0.11):
        assert abs(f223(z) / brute(2, 2, 3, z) - 1.0) < 1e-12
        assert abs(f334(z) / brute(3, 3, 4, z) - 1.0) < 1e-12

    def oracle(a, b, c, closed, z):
        return brute(a, b, c, z) if abs(z) < 0.1 else closed(z)

    zs = 1.0 - np.geomspace(1e-8, 1.5, 1000)  # up to z = 1 - 1e-8
    worst_f = 0.0
    for z in zs:
        worst_f = max(worst_f,
                      abs(gauss_2f1(2, 2, 3, z) / oracle(2, 2, 3, f223, z) - 1.0),
                      abs(gauss_2f1(3, 3, 4, z) / oracle(3, 3, 4, f334, z) - 1.0))
    ok = worst_e1 < 1e-10 and worst_psi < 1e-10 and worst_f < 1e-10
    report(8, "special-function accuracy",
           ok,
           f"1000-point max relative error: E1 {worst_e1:.2e}, Psi {worst_psi:.2e}, "
           f"2F1 {worst_f:.2e} (all < 1e-10)")


def test_criterion_9_reproducibility(tmp_path, scenario):
    cfgp = tmp_path / "repro.cfg"
    cfgp.write_text("w_db = 10.0\ntrials = 100000\nsir_grid_db = 0:20:40\n"
                    "seed = 7\nworkers = 1\n", encoding="utf-8")

    def run(cmd, tag, workers):
        out = tmp_path / f"{cmd}-{tag}.csv"
        r = subprocess.run(
            [sys.executable, "-m", "curelay", cmd, "--config", str(cfgp),
             "--out", str(out), "--workers", str(workers)],
            capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        return out.read_bytes()

    ok = True
    for cmd in ("outage-bs", "outage-su", "rate", "water-level"):
        a = run(cmd, "a", 1)
        b = run(cmd, "b", 1)
        c = run(cmd, "c", 8)
        ok &= a == b == c
    report(9, "reproducibility",
           ok, "byte-identical CSV across repeat runs and worker counts 1 and 8")
