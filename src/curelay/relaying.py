"""Per-realization two-way AF relay computations.

Given one fading draw and a solved water level, computes the relay
amplification gain, the five SIR components, and the end-to-end SIRs at the
base station and at the secondary user, plus the SU-side upper bound. A
symbol-level simulator acts as an independent oracle for the SIR algebra.

Zero-interference draws produce an infinite SIR; that sentinel is kept (it
counts as non-outage downstream). Draws with an indeterminate 0/0 ratio are
flagged invalid and excluded by callers.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .channels import FadingRealization, PowerConfig, ScenarioGeometry, derive_etas
from .power import _interference, _power_terms, optimal_power

__all__ = [
    "SirSample",
    "relay_gain",
    "check_gamma2_routes",
    "sir_sample",
    "sinr_bs_combine",
    "symbol_level_oracle",
]

@dataclass(frozen=True)
class SirSample:
    """SIR components and end-to-end SIRs for a batch of fading draws.

    valid flags draws whose ratios are well defined (indeterminate 0/0
    draws are False and must be excluded from statistics).
    """

    gamma1: np.ndarray
    gamma2: np.ndarray
    gamma3: np.ndarray
    gamma4: np.ndarray
    gamma5: np.ndarray
    gamma_bs1: np.ndarray
    gamma_su1: np.ndarray
    gamma_su1_upper: np.ndarray
    p_su1: np.ndarray
    valid: np.ndarray


def relay_gain(draw: FadingRealization, geom: ScenarioGeometry, p_cci: float, p_su1: float):
    """Amplification gain beta = (P s^-eps h2 + P_su1 l^-eps g2 + P r^-eps v2)^(-1/2)
    of one draw, as a float."""
    e = geom.epsilon
    total = (p_cci * geom.s ** -e * float(draw.h2) + p_su1 * geom.l ** -e * float(draw.g2)
             + p_cci * geom.r ** -e * float(draw.v2))
    if total == 0.0:
        raise ValueError("relay_gain: all received-power terms are zero (degenerate draw)")
    return total ** -0.5


def _harmonic(num_a, num_b, den_b, out=(None, None)):
    """a*b/(a + c), taken to its limit where an input is infinite: b where
    only a is, inf where all three are. Both fix-ups are for elements whose
    finite formula gives inf/inf or inf*0, i.e. NaN, so a result whose sum
    is not NaN is returned as it is. `out`, if given, is the row for the
    result and a scratch row, neither of them an input's."""
    row, scratch = out
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        res = np.divide(np.multiply(num_a, num_b, out=row), np.add(num_a, den_b, out=scratch),
                        out=row)
        if not np.isnan(np.sum(res)):
            return res
    a_inf, b_inf, c_inf = np.isinf(num_a), np.isinf(num_b), np.isinf(den_b)
    res = np.where(a_inf & ~b_inf & ~c_inf, num_b, res)
    res = np.where(b_inf & c_inf & a_inf, np.inf, res)
    if row is None:
        return res
    np.copyto(row, res)
    return row


def _gamma1(draw: FadingRealization, geom: ScenarioGeometry, out=None):
    """gamma1 = eta1 h2/u2, into the row `out` if given."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.divide(np.multiply(derive_etas(geom).eta1, draw.h2, out=out), draw.u2, out=out)


def _gamma2(draw: FadingRealization, geom: ScenarioGeometry, p_su1, cci, out=None):
    """gamma2 = P_su1 l^-eps g2/cci at SU power p_su1 (a row or one number),
    given the draw's interference cci (`power._interference`), into the row
    `out` if given."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gain = np.multiply(np.multiply(p_su1, geom.l ** -geom.epsilon, out=out), draw.g2, out=out)
        return np.divide(gain, cci, out=out)


def _su_terms(draw: FadingRealization, geom: ScenarioGeometry, cfg: PowerConfig, p_su1,
              out=(None, None, None)):
    """(gamma3, gamma4, gamma5 - gamma4) at SU power p_su1, where
    gamma5 - gamma4 = P_su1 l^-eps g2/(P r^-eps v2) is the SU's own term.
    `out`, if given, holds the three rows; p_su1 may share none of them."""
    et = derive_etas(geom)
    e = geom.epsilon
    row3, row4, row_k = out
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the own term's numerator goes through gamma4's row before gamma4 does
        num = np.multiply(np.multiply(p_su1, geom.l ** -e, out=row4), draw.g2, out=row4)
        own = np.divide(num, np.multiply(cfg.p_cci_lin * geom.r ** -e, draw.v2, out=row_k),
                        out=row_k)
        gamma3 = np.divide(np.multiply(et.eta2, draw.g2, out=row3), draw.w2, out=row3)
        gamma4 = np.divide(np.multiply(et.eta3, draw.h2, out=row4), draw.v2, out=row4)
    return gamma3, gamma4, own


def check_gamma2_routes(draw: FadingRealization, geom: ScenarioGeometry,
                        cfg: PowerConfig, lam: float, gamma2):
    """Raise RuntimeError when gamma2 grossly disagrees with its
    reformulation max(0, c2/T - 1), c2 = lam/(eta4 P): that would indicate
    an algebra transcription bug.

    The deviation is mixed abs/rel, |gamma2 - alt|/max(1, gamma2, alt)
    (near the clipping boundary gamma2 -> 0+ cancellation makes a pure
    relative comparison meaningless), judged over the draws where both
    routes are finite. An inf or NaN on either route makes a draw's
    deviation NaN, which `fmax` skips, so no draw is gathered; the check
    allocates two arrays of the draws' length."""
    e = geom.epsilon
    c2 = lam / (derive_etas(geom).eta4 * cfg.p_cci_lin)
    u2, v2, f2, g2, gamma2 = (np.atleast_1d(a) for a in (draw.u2, draw.v2, draw.f2, draw.g2,
                                                          gamma2))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # alt = max(0, c2/T - 1), T = (q^-eps u2 + r^-eps v2) f2/g2
        alt, tmp = geom.q ** -e * u2, geom.r ** -e * v2
        np.multiply(np.add(alt, tmp, out=alt), np.divide(f2, g2, out=tmp), out=alt)
        np.maximum(np.subtract(np.divide(c2, alt, out=alt), 1.0, out=alt), 0.0, out=alt)
        gap = np.abs(np.subtract(gamma2, alt, out=tmp), out=tmp)
        np.divide(gap, np.maximum(1.0, np.maximum(gamma2, alt, out=alt), out=alt), out=gap)
    dev = np.fmax.reduce(gap, axis=None, initial=0.0)
    if dev > 1e-9:
        raise RuntimeError(f"gamma2 dual-route disagreement: max deviation {dev:.3e}")


def sir_sample(draw: FadingRealization, geom: ScenarioGeometry, cfg: PowerConfig,
               lam: float) -> SirSample:
    """Compute all SIR quantities for a batch of draws at a solved water level.

    gamma2 is checked against its reformulation (`check_gamma2_routes`).
    Raises ValueError for a draw sampled without w2, which the SU side reads.
    """
    if draw.w2 is None:
        raise ValueError("sir_sample needs w2: sample all six gains of the draw")
    batch = FadingRealization(*(np.atleast_1d(np.asarray(getattr(draw, f.name), dtype=float))
                                for f in fields(draw)))

    cci = _interference(batch, geom, cfg)
    p_su1 = optimal_power(batch, geom, cfg, lam, terms=_power_terms(batch, geom, cfg, lam, cci))
    gamma1, gamma2 = _gamma1(batch, geom), _gamma2(batch, geom, p_su1, cci)
    gamma_bs1 = _harmonic(gamma1, gamma2, gamma2)
    gamma3, gamma4, added = _su_terms(batch, geom, cfg, p_su1)
    # gamma5 = (P s^-eps h2 + P_su1 l^-eps g2)/(P r^-eps v2), grouped so
    # that gamma5 == gamma4 bitwise whenever p_su1 == 0
    with np.errstate(invalid="ignore", over="ignore"):
        gamma5 = gamma4 + added
    check_gamma2_routes(batch, geom, cfg, lam, gamma2)

    gamma_su1 = _harmonic(gamma3, gamma4, gamma5)
    gamma_su1_upper = _harmonic(gamma3, gamma4, gamma4)

    valid = ~(np.isnan(gamma_bs1) | np.isnan(gamma_su1) | np.isnan(gamma_su1_upper))
    return SirSample(gamma1, gamma2, gamma3, gamma4, gamma5,
                     gamma_bs1, gamma_su1, gamma_su1_upper, p_su1, valid)


def sinr_bs_combine(gamma1, gamma2):
    """g1 g2/(g1 + g2 + 1), taken to its limit where gamma2 == 0 or a
    component is infinite."""
    with np.errstate(invalid="ignore", over="ignore"):
        out = gamma1 * gamma2 / (gamma1 + gamma2 + 1.0)
    out = np.where((gamma2 == 0) & np.isfinite(gamma1), 0.0, out)
    out = np.where(np.isinf(gamma1) & np.isfinite(gamma2), gamma2, out)
    out = np.where(np.isinf(gamma1) & np.isinf(gamma2), np.inf, out)
    return out


def _unit_symbols(rng, n):
    return np.exp(2j * np.pi * rng.random(n))


# symbols per oracle run; the 2% tolerance `validate` applies is set for it
_ORACLE_SYMBOLS = 100_000


def symbol_level_oracle(draw: FadingRealization, geom: ScenarioGeometry, cfg: PowerConfig,
                        lam: float, rng, remove_self_interference: bool = True):
    """Simulate the two-phase exchange at symbol level and measure both SIRs.

    Unit-amplitude random-phase symbols, _ORACLE_SYMBOLS of each, drawn from
    the generator `rng`, traverse the MAC and BC phases with the noise-free
    relay gain; each end subtracts its known back-propagating
    self-interference, the desired component is estimated by pilot
    correlation, and the desired-to-residual power ratio is returned as
    (sir_bs, sir_su). Interference power below 1e-30 of the desired power
    reports an infinite-SIR sentinel.

    `remove_self_interference=False` exists only to demonstrate that the
    cancellation step matters; it never models the real receiver.
    """
    e = geom.epsilon
    p = cfg.p_cci_lin
    h2, g2, v2 = float(draw.h2), float(draw.g2), float(draw.v2)
    u2, w2 = float(draw.u2), float(draw.w2)
    p_su1 = optimal_power(draw, geom, cfg, lam)

    # static channel coefficients for the block (phases arbitrary)
    phases = np.exp(2j * np.pi * rng.random(5))
    h = np.sqrt(h2) * phases[0]
    g = np.sqrt(g2) * phases[1]
    v = np.sqrt(v2) * phases[2]
    u = np.sqrt(u2) * phases[3]
    w = np.sqrt(w2) * phases[4]

    x1 = _unit_symbols(rng, _ORACLE_SYMBOLS)
    x2 = _unit_symbols(rng, _ORACLE_SYMBOLS)
    x3_mac = _unit_symbols(rng, _ORACLE_SYMBOLS)
    x3_bc = _unit_symbols(rng, _ORACLE_SYMBOLS)

    a_bs = np.sqrt(p * geom.s ** -e)    # BS1 -> PU1 and PU1 -> BS1 amplitude
    a_su = np.sqrt(p_su1 * geom.l ** -e)
    a_rel_su = np.sqrt(p * geom.l ** -e)  # PU1 -> SU1 (relay transmits at P)
    a_v = np.sqrt(p * geom.r ** -e)
    a_u = np.sqrt(p * geom.q ** -e)
    a_w = np.sqrt(p * geom.z ** -e)

    y_pu1 = a_bs * h * x1 + a_su * g * x2 + a_v * v * x3_mac
    beta = relay_gain(draw, geom, p, p_su1)

    y_bs1 = a_bs * h * beta * y_pu1 + a_u * u * x3_bc
    y_su1 = a_rel_su * g * beta * y_pu1 + a_w * w * x3_bc

    if remove_self_interference:
        y_bs1 = y_bs1 - beta * a_bs * h * a_bs * h * x1
        y_su1 = y_su1 - beta * a_rel_su * g * a_su * g * x2

    def measure(y, pilot):
        amp = np.mean(y * np.conj(pilot))
        desired = np.abs(amp) ** 2
        resid = np.mean(np.abs(y - amp * pilot) ** 2)
        if resid <= 1e-30 * max(desired, 1.0):
            return np.inf
        return desired / resid

    return measure(y_bs1, x2), measure(y_su1, x1)
