"""Property gate for the analytic layer over the whole accepted dB range:
the BS bounds, the SU closed form and the CDFs behind them stay finite,
ordered, inside [0, 1] and monotone, without a warning, at any gamma_bar the
config check lets through (about -3076.5 to 3082.5 dB) and any threshold."""

import functools
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curelay import (
    PowerConfig,
    ScenarioGeometry,
    derive_etas,
    dist_gamma_ratio,
    dist_su_upper,
    load_config,
    outage_bs_bounds,
    solve_water_level,
    su_outage_closed_form,
)

DEFAULT_CFG = Path(__file__).resolve().parent.parent / "configs" / "default.cfg"
DB_LO, DB_HI = -3076.5, 3082.5
X_GRID = np.geomspace(1e-6, 1e6, 61)


@functools.lru_cache(maxsize=None)
def placement(name):
    """(geometry, power config, solved water level) of the default config or
    of a q == r placement at another path-loss exponent."""
    if name == "default":
        cfg = load_config(DEFAULT_CFG)
        geom, power = cfg.geometry, cfg.power
    else:
        geom = ScenarioGeometry(s=0.5, l=0.3, r=0.9, q=0.9, z=0.45, d=1.2, epsilon=3.0)
        power = PowerConfig(p_cci_db=20.0, w_db=10.0, gamma_bar_db=0.0)
    return geom, power, solve_water_level(geom, power).lam


def _monotone(cdf, slack=0.0):
    """cdf is finite, inside [0, 1] and falls nowhere by more than `slack`."""
    return bool(np.all(np.isfinite(cdf)) and np.all(np.diff(cdf) >= -slack)
                and cdf.min() >= 0.0 and cdf.max() <= 1.0)


def _analytic_layer(geom, cfg, lam, gamma_th):
    """The BS bounds, the SU closed form and the two CDFs on X_GRID, with
    every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lower, upper = outage_bs_bounds(gamma_th, geom, cfg, lam)
        su = su_outage_closed_form(gamma_th, geom, cfg)
        _, su_cdf = dist_su_upper(X_GRID, geom, cfg)
        _, ratio_cdf = dist_gamma_ratio(X_GRID, derive_etas(geom).eta1, cfg.gamma_bar_lin)
    return lower, upper, su, su_cdf, ratio_cdf


@settings(derandomize=True, max_examples=200, deadline=None)
@given(name=st.sampled_from(["default", "equal_qr"]),
       gamma_bar_db=st.floats(DB_LO, DB_HI),
       gamma_th=st.one_of(st.just(0.0), st.floats(1e-6, 1e6)))
@example(name="default", gamma_bar_db=DB_HI, gamma_th=3.0)
@example(name="default", gamma_bar_db=3073.8, gamma_th=3.0)
@example(name="default", gamma_bar_db=3080.0, gamma_th=3.0)
@example(name="equal_qr", gamma_bar_db=DB_LO, gamma_th=1e6)
@example(name="equal_qr", gamma_bar_db=-193.0, gamma_th=0.0)
def test_analytic_layer_is_finite_ordered_and_monotone(name, gamma_bar_db, gamma_th):
    geom, power, lam = placement(name)
    values = _analytic_layer(geom, replace(power, gamma_bar_db=gamma_bar_db), lam, gamma_th)
    # gamma_bar as a numpy scalar gives the same bits, without a warning
    as_numpy = _analytic_layer(geom, replace(power, gamma_bar_db=np.float64(gamma_bar_db)),
                               lam, gamma_th)
    assert [np.asarray(v).tobytes() for v in values] == [np.asarray(v).tobytes()
                                                         for v in as_numpy]
    lower, upper, su, su_cdf, ratio_cdf = values
    assert np.isfinite([lower, upper]).all() and 0.0 <= lower <= upper <= 1.0, (lower, upper)
    assert np.isfinite(su) and 0.0 <= su <= 1.0, su
    # the SU CDF is formed as 1 - tail, so where it is near 0 it carries only
    # absolute accuracy: it may dip by one rounding of 1 (half an eps)
    assert _monotone(su_cdf, slack=np.finfo(float).eps / 2)
    assert _monotone(ratio_cdf)
