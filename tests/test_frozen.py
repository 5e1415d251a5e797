"""Bit-level regression values for the water-level route and the SU-side
upper-bound law.

Every water-level value below was recorded from the plain per-panel,
full-array implementation of the quadrature and of Psi(1,1,x); the solve
outcomes from the bisection that integrated at every step. Any faster or
smaller evaluation must reproduce them exactly: a speedup that moves a bit
of lambda moves the CSV headers too. The `dist_su_upper` digests were
recorded from its whole-array closed form once `test_su_upper_vs_mpmath`
held it within 1e-15 (cdf, absolute) and 1e-14 (pdf, relative) of mpmath.
"""

import hashlib
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import curelay.power as power
from curelay import (derive_etas, dist_su_upper, dist_t, load_config, solve_water_level,
                     tricomi_psi11)
from curelay.mathkernel import QUAD_TOL, ROOT_TOL, BracketError, IntegrationError

DEFAULT_CFG = Path(__file__).resolve().parent.parent / "configs" / "default.cfg"

# (W dB, CCI dB) -> (lam, residual) as float.hex; None is the config's own
# (5, 20). The others take one point in each band of d = W - CCI that solves:
# [-70, -20], [-20, 20], [20, 50], [50, 60] and [60, 65] dB.
WATER_LEVELS = {
    None: ("0x1.968fbf210193ep+2", "0x1.3c98800000000p-33"),
    (-10.0, 30.0): ("0x1.c45f41c666666p+0", "-0x1.d67a400000000p-38"),
    (10.0, 0.0): ("0x1.467eef0680000p+3", "0x1.ea10800000000p-32"),
    (30.0, -5.0): ("0x1.f4114c71a4000p+9", "0x1.41b9800000000p-24"),
    (40.0, -15.0): ("0x1.3880275bd6100p+13", "0x1.1578000000000p-22"),
    (60.0, -3.0): ("0x1.e8480ae48b300p+19", "-0x1.5402000000000p-16"),
}

# (W dB, CCI dB) -> the solve's (lam, residual) as float.hex, or its exception
# class and message; None is the q == r placement's own (10, 20). The points
# are the perfbench analytic_grid points of seeds 500 and 501, one in each
# band of d = W - CCI, and the seed-522 band-4 point where the bisection
# stalls. The corner points (d >= 66 dB) fail in the quadrature at the first
# bracketing step, lam = W.
SOLVE_OUTCOMES = {
    (-7.66940342457441, 35.48663281482445): ("0x1.0d0234a49c83ap+2", "0x1.569b000000000p-35"),
    (40.661548485970066, 31.367585657205787): ("0x1.7458445326666p+13",
                                               "-0x1.ee96800000000p-21"),
    (18.568041177904675, -8.59240456637292): ("0x1.1fd8dccddfc9ep+6", "-0x1.cb75800000000p-28"),
    (32.84867662147429, -23.958438552320708): ("0x1.e1bc2b893db9ap+10", "0x1.8891000000000p-24"),
    (31.98877194666931, -29.36277010993576): ("0x1.8b334fc378460p+10", "0x1.961c800000000p-25"),
    (52.947025013698905, -24.167872381212547): (
        "IntegrationError", "quadrature did not converge within 2000 subdivisions (partial "
        "estimate 197107.20307123172, error bound 0.010557473967639999)"),
    (-5.930637038842664, 52.787141831666176): ("0x1.137e7bf7e6aa4p+5", "0x1.0033000000000p-34"),
    (56.245073046451125, 38.13622518829151): ("0x1.9d189ccae42b1p+18", "-0x1.1b94000000000p-18"),
    (32.02891103519568, 10.818286668397437): ("0x1.8fc8e1ec8f452p+10", "-0x1.8567000000000p-26"),
    (44.13302958574275, -15.27872218454322): ("0x1.94b0d6beba91ep+14", "0x1.24a2000000000p-22"),
    (43.3303066408995, -16.903971506605373): ("0x1.5065672e9a72ap+14", "0x1.fd8b800000000p-20"),
    (55.064576861800454, -29.519956996043796): (
        "IntegrationError", "quadrature did not converge within 2000 subdivisions (partial "
        "estimate 320965.0065830795, error bound 0.08992579112117952)"),
    (39.73583632597491, -23.993417468946063): (
        "BracketError", "bisection stalled: x=9409.872932077156, residual "
        "4.952276867697947e-06 exceeds 9.409870195635385e-07"),
    None: ("0x1.b537ddb4c0000p+3", "-0x1.057cc00000000p-30"),
}

# SHA-256 of tricomi_psi11(np.geomspace(1e-3, 1e6, n)).tobytes()
PSI_DIGESTS = {
    15: "707acc5065c0b9662f6ad7637ab119801e98e0252f0489b524347ea36db07dec",
    60: "7241b14c8ad6a48550bb61cf27005bd6e1ac0fbf0ebe11e107a51710bfadbeaa",
    1000: "f28fb959ebc2b140d744a11eaf74ab975198fb2449beb76cb8187faa7feea2e4",
}

# SHA-256 of the pdf and cdf bytes of dist_su_upper(np.geomspace(1e-3, 1e5, 1000))
# per (placement, gamma_bar dB); "equal_qr" puts PU4 at equal distance from
# BS1 and PU1 (q == r)
SU_UPPER_DIGESTS = {
    ("default", 0.0): ("71f48887a31bc6cb6ed90626bc24317bd70849b1ec8e255a46d86faab75c9a5a",
                       "3a5b0862f3bfb9f2b9a26fe068f3ea47e3670934e575176e32bfd49505ad5db3"),
    ("default", 20.0): ("36bec34e1c8329e84b624d000370b2cbfac90105046572dbd2a29fe934b1e0be",
                        "439422ee02e30bbfdc101c96a8ae90fbc2b6b7b7ba0bcd10adf31dd9275f18ff"),
    ("default", 40.0): ("ecb7986d7788881cdefc5a40986523cb492b690d1543dad546f4f16f37cdfb38",
                        "f2a5a947a6a3e352d8f92f0c6bcfa709687900651e5b87a8f3c5cb9c3dbc97d4"),
    ("equal_qr", 0.0): ("085bcbe3b1cd50819e7bdc0b08e06d5592eaa4e379fc69468dc66b8061512e8f",
                        "808d746227eec479d6fc2646bff8c137c1178d93750b5fe527532fcea583075a"),
    ("equal_qr", 20.0): ("64425a62f75c6db80c7d4ec1e45850df1c8a11477bc0d931a4013aa379dac085",
                         "33846e91aad5bbc4e3b47edc4b71c26ef77ad136a18cfd8a5fe29d552a049c31"),
    ("equal_qr", 40.0): ("cc50b5778a38a051f64133299a2bc8d633ea8456d39fd17d727487c715e14192",
                         "63eb4f9f748a3fa463978e50aae9d4febc0d6a3c24d3009b0d2ca7cee50a913f"),
}
EQUAL_QR_BODY = f"""
w_db = 10.0
cci_db = 20.0
seed = 99
su1_x = 0.5
pu1_x = 0.75
pu4_angle_deg = {math.degrees(math.asin(-0.3125))!r}
"""


@pytest.fixture(scope="module")
def cfg():
    return load_config(DEFAULT_CFG)


@pytest.fixture(scope="module")
def placements(cfg, tmp_path_factory):
    path = tmp_path_factory.mktemp("equal_qr") / "case.cfg"
    path.write_text(EQUAL_QR_BODY, encoding="utf-8")
    equal_qr = load_config(path)
    assert equal_qr.geometry.q == equal_qr.geometry.r
    return {"default": cfg, "equal_qr": equal_qr}


def _power(cfg, point):
    if point is None:
        return cfg.power
    w, cci = point
    return replace(cfg.power, w_db=w, p_cci_db=cci)


@pytest.fixture(scope="module")
def solved(cfg, placements):
    """Each SOLVE_OUTCOMES point's outcome, and every (lam, value, geometry,
    power) the solves passed through power.constraint_lhs."""
    outcomes, quadratures = {}, []
    inner = power.constraint_lhs

    def recording(lam, geom, pw, plan=None):
        value = inner(lam, geom, pw, plan=plan)
        quadratures.append((lam, value, geom, pw))
        return value

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(power, "constraint_lhs", recording)
        for point in SOLVE_OUTCOMES:
            c = placements["equal_qr"] if point is None else cfg
            try:
                level = solve_water_level(c.geometry, _power(c, point))
            except Exception as exc:  # noqa: BLE001 - the failures are pinned too
                outcomes[point] = (type(exc).__name__, str(exc))
            else:
                outcomes[point] = (level.lam.hex(), level.residual.hex())
    return outcomes, quadratures


def _recording_integrate(monkeypatch):
    """Route power.integrate through a wrapper that keeps every result."""
    results = []
    inner = power.integrate

    def recording(*args, **kwargs):
        results.append(inner(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(power, "integrate", recording)
    return results


@pytest.mark.parametrize("point", list(WATER_LEVELS), ids=str)
def test_water_level_bits(cfg, point):
    level = solve_water_level(cfg.geometry, _power(cfg, point))
    assert (level.lam.hex(), level.residual.hex()) == WATER_LEVELS[point]


@pytest.mark.parametrize("point", list(SOLVE_OUTCOMES), ids=str)
def test_solve_outcome_bits(solved, point):
    outcomes, _ = solved
    assert outcomes[point] == SOLVE_OUTCOMES[point]


def test_closed_form_screen_headroom(solved):
    # the closed form decides a bisection step only when it lies more than
    # _SCREEN_MARGIN tolerances from the target, and only while it has
    # matched every quadrature to within one tolerance (0.01 of the margin);
    # at every frozen point it must stay that close wherever the quadrature ran
    _, quadratures = solved
    gaps = []
    for lam, value, geom, pw in quadratures:
        if lam > 0.0:
            c = power._closed_form_value(lam, geom, pw, gamma_scaled=False)
            resid_tol = ROOT_TOL.rel_tol * max(1.0, pw.w_lin)
            margin = power._SCREEN_MARGIN * (QUAD_TOL.rel_tol * abs(c) + resid_tol)
            gaps.append(abs(value - c) / margin)
    assert len(gaps) > 100
    assert max(gaps) <= 0.01


def test_screen_stays_off_where_the_closed_form_cancels(cfg, monkeypatch):
    # PU4 a relative 1e-8 from equidistant: the q != r closed form cancels and
    # misses the quadrature by more than the screen's margin at this point, so
    # the solve integrates every step, each once: the bisection's first
    # midpoint is the last bracketing step, whose quadrature it reuses
    geom = replace(cfg.geometry, q=0.8, r=0.8 * (1.0 + 1e-8))
    results = _recording_integrate(monkeypatch)
    level = solve_water_level(geom, _power(cfg, (-10.0, 40.0)))
    assert (level.lam.hex(), level.residual.hex()) == (
        "0x1.25a1887333333p+2", "-0x1.a8e8800000000p-38")
    assert len(results) == 35


@pytest.mark.parametrize("n", sorted(PSI_DIGESTS))
def test_psi11_bits(n):
    out = tricomi_psi11(np.geomspace(1e-3, 1e6, n))
    assert hashlib.sha256(out.tobytes()).hexdigest() == PSI_DIGESTS[n]


def test_psi11_scalar_matches_array_element():
    xs = np.geomspace(1e-3, 1e6, 60)
    arr = tricomi_psi11(xs)
    for x, y in zip(xs, arr):
        out = tricomi_psi11(float(x))
        assert isinstance(out, float)
        assert out.hex() == float(y).hex()


def test_dist_t_scalar_matches_array_element(cfg):
    xs = np.geomspace(1e-4, 1e3, 40)
    pdf, cdf = dist_t(xs, cfg.geometry)
    for x, p, c in zip(xs, pdf, cdf):
        p1, c1 = dist_t(float(x), cfg.geometry)
        assert np.ndim(p1) == 0 and np.ndim(c1) == 0
        assert (float(p1).hex(), float(c1).hex()) == (float(p).hex(), float(c).hex())


def test_constraint_quadrature_bits(cfg, monkeypatch):
    results = _recording_integrate(monkeypatch)
    value = power.constraint_lhs(7.0, cfg.geometry, cfg.power)
    (res,) = results
    assert (res.value.hex(), res.error_bound.hex(), res.panels) == (
        "0x1.cdf87333318d4p+1", "0x1.0860160c29894p-25", 27)
    assert value == res.value


def test_corner_failure_bits(cfg):
    # d = 70 dB: the quadrature runs out of subdivisions
    with pytest.raises(IntegrationError) as info:
        solve_water_level(cfg.geometry, _power(cfg, (60.0, -10.0)))
    assert info.value.partial.hex() == "0x1.e847fdb965f12p+19"
    assert info.value.error_bound.hex() == "0x1.b3d1ba68f7c0ap-7"


def test_solve_integrates_once_per_evaluation(cfg, monkeypatch):
    # the residual reuses the root finder's last evaluation of the constraint
    results = _recording_integrate(monkeypatch)
    level = solve_water_level(cfg.geometry, cfg.power)
    assert len(results) == 16
    assert level.residual == results[-1].value - cfg.power.w_lin


# power._closed_form_value(lam, geom, default power, gamma_scaled) as float.hex
# per placement: (lam, False), (lam, True) for lam = 0.01, 6.352523596031743
# and 1e4; "near_qr" moves PU4 a relative 1e-4 from equidistant
CLOSED_FORM_BITS = {
    "default": ("0x1.5f9d23b982183p-15", "0x1.77fce6e64d790p-24", "0x1.94c583adff09ap+1",
                "0x1.14f055a3ee137p-5", "0x1.37964c93d1913p+13", "0x1.d9b66f18ad25fp+12"),
    "near_qr": ("0x1.aa7f7fc98185fp-15", "0x1.c1b4dca9a37cfp-24", "0x1.e8504f9ef1766p+1",
                "0x1.4fe20227e3685p-5", "0x1.3800d60fa2bf6p+13", "0x1.09259c7872e66p+13"),
}


@pytest.mark.parametrize("placement", list(CLOSED_FORM_BITS))
def test_closed_form_bits_and_psi_calls(cfg, placement, monkeypatch):
    # the q != r branch evaluates Psi(1,1,.) once per rate component
    geom = cfg.geometry if placement == "default" else replace(
        cfg.geometry, q=0.8, r=0.8 * (1.0 + 1e-4))
    calls = []
    inner = power.tricomi_psi11

    def counting(x):
        calls.append(x)
        return inner(x)

    monkeypatch.setattr(power, "tricomi_psi11", counting)
    values = tuple(power._closed_form_value(lam, geom, cfg.power, gamma_scaled=gs).hex()
                   for lam in (0.01, 6.352523596031743, 1e4) for gs in (False, True))
    assert values == CLOSED_FORM_BITS[placement]
    assert len(calls) == 2 * len(values)


def _solve_bits(geom, pw):
    """lam and residual as float.hex, or the failure with its partial estimate."""
    try:
        level = solve_water_level(geom, pw)
    except (BracketError, IntegrationError) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "partial", None),
                getattr(exc, "error_bound", None))
    return level.lam.hex(), level.residual.hex()


# the default placement's WATER_LEVELS points, the q == r placement, the
# corner (IntegrationError at the first bracketing step) and the seed-522
# point (BracketError after a full bisection)
REPLAY_POINTS = [("default", p) for p in WATER_LEVELS] + [
    ("equal_qr", None),
    ("default", (43.20, -25.83)),
    ("default", (39.73583632597491, -23.993417468946063)),
]


@pytest.mark.parametrize("key", REPLAY_POINTS, ids=str)
def test_replayed_solve_matches_planless_solve(placements, key, monkeypatch):
    c = placements[key[0]]
    geom, pw = c.geometry, _power(c, key[1])
    planned = _solve_bits(geom, pw)
    inner = power.constraint_lhs
    monkeypatch.setattr(power, "constraint_lhs",
                        lambda lam, geom, pw, plan=None: inner(lam, geom, pw))
    assert planned == _solve_bits(geom, pw)


def test_replayed_solve_makes_few_integrand_calls(cfg, monkeypatch):
    # one dist_t call per integrand call: 224 when every split called the
    # integrand, 30 when each quadrature replays its predecessor's panels
    calls = []
    inner = power.dist_t

    def counting(x, geom):
        calls.append(np.size(x))
        return inner(x, geom)

    monkeypatch.setattr(power, "dist_t", counting)
    results = _recording_integrate(monkeypatch)
    solve_water_level(cfg.geometry, cfg.power)
    assert len(results) == 16
    assert len(calls) <= 50
    assert sum(calls) >= 15 * sum(r.panels for r in results)


@pytest.mark.parametrize("key", list(SU_UPPER_DIGESTS), ids=str)
def test_su_upper_bits(placements, key):
    placement, gbar_db = key
    c = placements[placement]
    pdf, cdf = dist_su_upper(np.geomspace(1e-3, 1e5, 1000), c.geometry,
                             replace(c.power, gamma_bar_db=gbar_db))
    assert (hashlib.sha256(pdf.tobytes()).hexdigest(),
            hashlib.sha256(cdf.tobytes()).hexdigest()) == SU_UPPER_DIGESTS[key]


@pytest.mark.parametrize("gbar_db", [-10.0, 0.0, 30.0, 60.0])
@pytest.mark.parametrize("placement", ["default", "equal_qr"])
def test_su_upper_vs_mpmath(placements, placement, gbar_db):
    """The evidence SU_UPPER_DIGESTS rest on: the law on their grid against
    the paper's pdf and cdf forms in 60-digit mpmath, whose 2F1 elementary
    forms are checked against mpmath's own hyp2f1 on every 50th point."""
    mpmath = pytest.importorskip("mpmath")
    c = placements[placement]
    pw = replace(c.power, gamma_bar_db=gbar_db)
    et = derive_etas(c.geometry)
    xs = np.geomspace(1e-3, 1e5, 1000)
    ref_pdf, ref_cdf = [], []
    with mpmath.workdps(60):
        e2, e3 = mpmath.mpf(et.eta2 * pw.gamma_bar_lin), mpmath.mpf(et.eta3 * pw.gamma_bar_lin)
        for k, x in enumerate(map(mpmath.mpf, xs.tolist())):
            da = (x + e2) * (x + e3)
            w = x * x / da
            z = 1 - w
            h223 = 2 / z**2 * (z / w + mpmath.log(w))
            h334 = 3 / z**3 * (mpmath.mpf(1.5) + 1 / (2 * w**2) - 2 / w - mpmath.log(w))
            if k % 50 == 0:
                assert abs(h223 / mpmath.hyp2f1(2, 2, 3, z) - 1) < 1e-30
                assert abs(h334 / mpmath.hyp2f1(3, 3, 4, z) - 1) < 1e-30
            ref_pdf.append(float(e2 * e3 * x * (x * x - e2 * e3) / da**3 * h223
                                 + 2 * e2 * e3 * x**3 * (x * (e2 + e3) + 2 * e2 * e3)
                                 / (3 * da**4) * h334))
            ref_cdf.append(float(1 - e2 * e3 * x * x / (2 * da**2) * h223))
    pdf, cdf = dist_su_upper(xs, c.geometry, pw)
    assert np.abs(cdf - ref_cdf).max() <= 1e-15
    # the paper's pdf form in floats, as evaluated before, was off by up to
    # 2.2e-14 (-10 dB) to 1.9e-7 (60 dB) relative at these points
    assert (np.abs(pdf - ref_pdf) / ref_pdf).max() <= 1e-14


def test_su_upper_scalar_returns_floats(cfg):
    xs = np.geomspace(1e-3, 1e5, 25)
    pdf, cdf = dist_su_upper(xs, cfg.geometry, cfg.power)
    for x, p, c in zip(xs, pdf, cdf):
        out = dist_su_upper(float(x), cfg.geometry, cfg.power)
        assert isinstance(out, tuple) and len(out) == 2
        assert all(type(v) is float for v in out)
        assert (out[0].hex(), out[1].hex()) == (float(p).hex(), float(c).hex())
