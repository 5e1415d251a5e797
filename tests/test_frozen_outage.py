"""Bit-level pins of the Monte-Carlo outage estimates.

Every digest below was recorded from the per-point outage kernel, which
evaluated optimal_power and the SIRs afresh at every gamma_bar of a block.
Any faster evaluation must reproduce every field of every OutageEstimate
exactly, at one worker and at two: the outage CSVs print them. The "su"
digests at gamma_th > 0 were recorded again when the SU law moved to its
whole-array closed form: their lower_bound moved by at most 4.4e-16, within
rounding of mpmath's value (see test_frozen.test_su_upper_vs_mpmath), and
every other field kept its bits.
"""

import hashlib
import math
from dataclasses import astuple, replace
from pathlib import Path

import pytest

import curelay.analysis
from curelay import load_config, outage_mc, solve_water_level

DEFAULT_CFG = Path(__file__).resolve().parent.parent / "configs" / "default.cfg"

# PU4 at equal distance from BS1 and PU1 (q == r)
EQUAL_QR_BODY = f"""
w_db = 10.0
cci_db = 20.0
seed = 99
su1_x = 0.5
pu1_x = 0.75
pu4_angle_deg = {math.degrees(math.asin(-0.3125))!r}
"""

GRID_DB = tuple(range(-10, 61, 10))
# 100_000 = 3 x 30_000 + a 10_000 remainder block
TRIALS, BLOCK, SEED = 100_000, 30_000, 7

# (placement, side, gamma_th) -> SHA-256 of the float.hex (str for ints and
# strings) of every field of the estimates over GRID_DB, one line per point.
# "w-10_cci40" is the default placement at W = -10 dB, CCI = 40 dB.
OUTAGE_DIGESTS = {
    ("default", "bs", 0.0): "14a09d58440ecf1fab918b93aeddb6b71183a0cb99becd0e553ff19facecd77d",
    ("default", "bs", 0.5): "1f322ea1c1aa876bb1f9339efd07ce53a66e2dcce17208c873e82b5e2e254dd0",
    ("default", "bs", 3.0): "bc6ba1e87a313cc1f65e45c499f827944dee24af8ca37b2fe33647f73664419f",
    ("default", "bs", 1000.0): "20b1d7752f7e4e46371499e641b5ab06236a2dc443c2bc24c90d03fd9be72713",
    ("default", "su", 0.0): "72a7141a0c6ac8f8e8362c18ce5edb7bf4d555cec80bc9e043ea312ac77860dd",
    ("default", "su", 0.5): "3d7dbf265cc4d83c05bd9f6feccf4b3124b5143d45a142e9af2ad2dc98b60c2a",
    ("default", "su", 3.0): "59cdf939c607420989c9170a4e5f0e9275445fabe981cace2509523762b36d66",
    ("default", "su", 1000.0): "f018885f84a5dbb6347bb0cbb7cdd230da1d3627209953710c386bd04a1c5835",
    ("equal_qr", "bs", 0.0): "0ee8a3b90dde6c260fea375c2720bdf0219b7b1289036ab823f542c6b5112895",
    ("equal_qr", "bs", 0.5): "0e134ee74e48b5dae5aeed5240a6eb515de0aadc2fcaae51099b7bbe196ab63d",
    ("equal_qr", "bs", 3.0): "24f450af475462c4855e8c14a18317dabc830af36978bb7d9cdb01c123a69d48",
    ("equal_qr", "bs", 1000.0): "f18dcfdfcc6cceb4ea9388fe18ea353c6ca89db68d426cbbe447fa1ab238ecd2",
    ("equal_qr", "su", 0.0): "72a7141a0c6ac8f8e8362c18ce5edb7bf4d555cec80bc9e043ea312ac77860dd",
    ("equal_qr", "su", 0.5): "8e80ddfe349fa943a80f2490079a0b54af6e39c3b22a5a808561964e85c558ab",
    ("equal_qr", "su", 3.0): "b70d34fd08d5f8cd1cef4c68951b4cba0051cd7fd634ec7b67cae4071a622296",
    ("equal_qr", "su", 1000.0): "37ae813ede02544927dbc82b3978a6649f9f7a93d5661c7dd203c17f8ded6555",
    ("w-10_cci40", "bs", 0.0): "bac60d80a94466e7c5bf58a0c05e9ad17e5411f325a6775c63e726d10023173f",
    ("w-10_cci40", "bs", 0.5): "d62b4ea23927d3de16416e8c7653282c104135e5d5a2cc6cc863a5d8c32525b1",
    ("w-10_cci40", "bs", 3.0): "961361049cdc484bae338b336aaa9587953539c659cb31d5a51dddd41f513d0e",
    ("w-10_cci40", "bs", 1000.0): "10c8360ff16729dbb5c71019ddde6d7a97b5bff4c5d6da08a41fd774275ea26c",
    ("w-10_cci40", "su", 0.0): "72a7141a0c6ac8f8e8362c18ce5edb7bf4d555cec80bc9e043ea312ac77860dd",
    ("w-10_cci40", "su", 0.5): "78c10caba27f9e8fab1beda00c11081be1cbd2c80e5c6104b581d64b9965c365",
    ("w-10_cci40", "su", 3.0): "36ff1426e83dbeaf57cb9d669adc8616fe2cc6ebde32e6ddb588c1dd5eecc748",
    ("w-10_cci40", "su", 1000.0): "8eb51d672ab3e05fffa8a6feed47243dc5767be7bcf6347ad206bb0db0e2e577",
}


@pytest.fixture(scope="module")
def placements(tmp_path_factory):
    """placement -> (geometry, power config, solved water level)."""
    path = tmp_path_factory.mktemp("equal_qr") / "case.cfg"
    path.write_text(EQUAL_QR_BODY, encoding="utf-8")
    default, equal_qr = load_config(DEFAULT_CFG), load_config(path)
    assert equal_qr.geometry.q == equal_qr.geometry.r
    cases = {
        "default": (default.geometry, default.power),
        "equal_qr": (equal_qr.geometry, equal_qr.power),
        "w-10_cci40": (default.geometry, replace(default.power, w_db=-10.0, p_cci_db=40.0)),
    }
    return {name: (geom, pw, solve_water_level(geom, pw).lam)
            for name, (geom, pw) in cases.items()}


def _digest(estimates):
    def text(v):
        return v.hex() if isinstance(v, float) else str(v)

    lines = ("|".join(text(v) for v in astuple(est)) for est in estimates)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("key", list(OUTAGE_DIGESTS), ids=str)
def test_outage_estimate_bits(monkeypatch, placements, key):
    name, side, gamma_th = key
    geom, pw, lam = placements[name]
    monkeypatch.setattr(curelay.analysis, "BLOCK_SIZE", BLOCK)
    for workers in (1, 2):
        ests = outage_mc(geom, pw, lam, gamma_th, side, GRID_DB, TRIALS, SEED,
                         workers=workers)
        assert _digest(ests) == OUTAGE_DIGESTS[key], workers
