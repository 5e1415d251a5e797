"""Bit-level regression values for the water-level route.

Every value below was recorded from the plain per-panel, full-array
implementation of the quadrature and of Psi(1,1,x). Any faster evaluation
must reproduce them exactly: a speedup that moves a bit of lambda moves the
CSV headers too.
"""

import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import curelay.power as power
from curelay import dist_t, load_config, solve_water_level, tricomi_psi11
from curelay.mathkernel import IntegrationError

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

# SHA-256 of tricomi_psi11(np.geomspace(1e-3, 1e6, n)).tobytes()
PSI_DIGESTS = {
    15: "707acc5065c0b9662f6ad7637ab119801e98e0252f0489b524347ea36db07dec",
    60: "7241b14c8ad6a48550bb61cf27005bd6e1ac0fbf0ebe11e107a51710bfadbeaa",
    1000: "f28fb959ebc2b140d744a11eaf74ab975198fb2449beb76cb8187faa7feea2e4",
}


@pytest.fixture(scope="module")
def cfg():
    return load_config(DEFAULT_CFG)


def _power(cfg, point):
    if point is None:
        return cfg.power
    w, cci = point
    return replace(cfg.power, w_db=w, p_cci_db=cci)


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
    assert len(results) == 36
    assert level.residual == results[-1].value - cfg.power.w_lin
