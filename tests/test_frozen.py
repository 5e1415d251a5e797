"""Bit-level regression values for the water-level route and the SU-side
upper-bound law.

Every water-level value below was recorded from the plain per-panel,
full-array implementation of the quadrature and of Psi(1,1,x); the
`dist_su_upper` digests from its separate pdf and cdf loops. Any faster or
smaller evaluation must reproduce them exactly: a speedup that moves a bit
of lambda moves the CSV headers too.
"""

import hashlib
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import curelay.power as power
from curelay import dist_su_upper, dist_t, load_config, solve_water_level, tricomi_psi11
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

# SHA-256 of the pdf and cdf bytes of dist_su_upper(np.geomspace(1e-3, 1e5, 1000))
# per (placement, gamma_bar dB); "equal_qr" puts PU4 at equal distance from
# BS1 and PU1 (q == r)
SU_UPPER_DIGESTS = {
    ("default", 0.0): ("17f309a724cf567c80b7aa786d54c73763b9c5de4e16ad58b45ea48231ed6584",
                       "b7b82145a6fa711a438f048b79b8b779777de1fdfe339dff5c421e520a22d798"),
    ("default", 20.0): ("e6964b1fcab52ae7811d38a7d3e70a2d5282a839d6a030fc3c81861a05b89303",
                        "08f97a9321d2d5d1aaf8cf0b2dcfe243f37385a0f53111809529f8aa8044e091"),
    ("default", 40.0): ("9f7755fbad494d4afb3afa99a2d36d2cb685c609c126ed222a24ab17e54ba39c",
                        "f4714d6c75e409178ffc21f727284d00e0ee6d4d633ab5f15dd62e1682799197"),
    ("equal_qr", 0.0): ("cdf4beb740eae4ef681b2d47177fd679c60b99430d2e17385e2c9ce3faaac1c5",
                        "ff7eb750b8dbaed428504529b7528ab6f35814cb8668f916e207160931618ce0"),
    ("equal_qr", 20.0): ("d187abf6cc5e777679e46cdcf0cca09bd0ef323fb622cf0d34290659e0e3bbc9",
                         "93d1415e2f7d8e6d5c161c18c5724a3d99935155c97c0c83dbbf543e5baba771"),
    ("equal_qr", 40.0): ("1abbcb01187947accb11df79c04bf5838d9c21307ae3171dd27ba157969bceaf",
                         "ecb134fda3200b0df505217fc3b8bc8a6e72e2d0152c7018bd038dca8ebb9db9"),
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


@pytest.mark.parametrize("key", list(SU_UPPER_DIGESTS), ids=str)
def test_su_upper_bits(placements, key):
    placement, gbar_db = key
    c = placements[placement]
    pdf, cdf = dist_su_upper(np.geomspace(1e-3, 1e5, 1000), c.geometry,
                             replace(c.power, gamma_bar_db=gbar_db))
    assert (hashlib.sha256(pdf.tobytes()).hexdigest(),
            hashlib.sha256(cdf.tobytes()).hexdigest()) == SU_UPPER_DIGESTS[key]


def test_su_upper_scalar_returns_floats(cfg):
    xs = np.geomspace(1e-3, 1e5, 25)
    pdf, cdf = dist_su_upper(xs, cfg.geometry, cfg.power)
    for x, p, c in zip(xs, pdf, cdf):
        out = dist_su_upper(float(x), cfg.geometry, cfg.power)
        assert isinstance(out, tuple) and len(out) == 2
        assert all(type(v) is float for v in out)
        assert (out[0].hex(), out[1].hex()) == (float(p).hex(), float(c).hex())
