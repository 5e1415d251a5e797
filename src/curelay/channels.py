"""Scenario geometry, Rayleigh block-fading sampler, and the analytic
distribution catalog for the interference-ratio variables.

Distances are in normalized cell-radius units. Channel power gains are
exponential: the desired/constraint links (h, g, f) carry mean gamma_bar
(the average SIR is folded into the symbol energy), the interference links
(u, v, w) carry unit mean.

Random-variable shorthand used throughout:

    V1 = f2/g2                      pdf (x+1)^-2, cdf x/(x+1)
    V3 = q^-eps u2 + r^-eps v2      sum of two exponentials
    T  = V1 * V3                    drives the interference constraint
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .mathkernel import _require_pos, tricomi_psi11

__all__ = [
    "ScenarioGeometry",
    "DerivedEtas",
    "PowerConfig",
    "FadingRealization",
    "derive_etas",
    "sample_fading",
    "dist_v3",
    "dist_t",
    "dist_gamma_ratio",
]


@dataclass(frozen=True)
class ScenarioGeometry:
    """Node distances: s (BS1-PU1), l (SU1-PU1), r (PU4-PU1), q (PU4-BS1),
    z (PU4-SU1), d (SU1-BS2), and the path-loss exponent."""

    s: float
    l: float
    r: float
    q: float
    z: float
    d: float
    epsilon: float

    def __post_init__(self):
        for name in ("s", "l", "r", "q", "z", "d"):
            if not getattr(self, name) > 0:
                raise ValueError(f"distance {name} must be > 0, got {getattr(self, name)}")
        if not self.epsilon >= 2:
            raise ValueError(f"path-loss exponent must be >= 2, got {self.epsilon}")


@dataclass(frozen=True)
class DerivedEtas:
    """Path-loss ratios eta1..eta4 plus the q != r normalizer c1 = 1/(q^-eps - r^-eps).

    c1 is None for the q == r limit branch. q_eps and r_eps cache q^eps, r^eps.
    """

    eta1: float
    eta2: float
    eta3: float
    eta4: float
    c1: float | None
    q_eps: float
    r_eps: float


def derive_etas(geom: ScenarioGeometry) -> DerivedEtas:
    e = geom.epsilon
    c1 = None
    if geom.q != geom.r:
        c1 = 1.0 / (geom.q ** -e - geom.r ** -e)
    return DerivedEtas(
        eta1=(geom.s / geom.q) ** -e,
        eta2=(geom.l / geom.z) ** -e,
        eta3=(geom.s / geom.r) ** -e,
        eta4=(geom.d / geom.l) ** -e,
        c1=c1,
        q_eps=geom.q ** e,
        r_eps=geom.r ** e,
    )


@dataclass(frozen=True)
class PowerConfig:
    """Power levels in dB relative to the (unit) noise variance."""

    p_cci_db: float
    w_db: float
    gamma_bar_db: float

    def __post_init__(self):
        # stored as Python floats, so that a numpy scalar computes as a float does
        for f in fields(self):
            object.__setattr__(self, f.name, float(getattr(self, f.name)))

    @property
    def p_cci_lin(self) -> float:
        return 10.0 ** (self.p_cci_db / 10.0)

    @property
    def w_lin(self) -> float:
        return 10.0 ** (self.w_db / 10.0)

    @property
    def gamma_bar_lin(self) -> float:
        return 10.0 ** (self.gamma_bar_db / 10.0)


@dataclass(frozen=True)
class FadingRealization:
    """One i.i.d. block-fading draw of the six channel power gains.

    h2, g2, f2 are exponential with mean gamma_bar_lin; u2, v2, w2 with
    mean 1. Fields are scalars or equally shaped arrays; gains not drawn
    are None.
    """

    h2: np.ndarray
    g2: np.ndarray
    f2: np.ndarray
    u2: np.ndarray
    v2: np.ndarray
    w2: np.ndarray


# the draw order of sample_fading, part of its contract
_GAINS = ("h2", "g2", "f2", "u2", "v2", "w2")


def sample_fading(rng: np.random.Generator, cfg: PowerConfig, size=None,
                  out=None) -> FadingRealization:
    """Draw channel power gains: unit-mean exponentials in the order h2, g2,
    f2, u2, v2, w2, which is part of the contract, then at cfg's gamma_bar
    (`_at_mean`). Deterministic for a given generator state.

    With `out`, a sequence of float64 arrays of shape `size`, gain i is
    drawn into out[i] and returned as that array; nothing is allocated. Only
    the first len(out) gains are drawn, the rest are None. The draw order
    continues across calls: the generator fills an array element by
    element, so drawing the remaining gains afterwards from the same
    generator, in order, even piece by piece over consecutive slices, gives
    the bits this call would have given them."""
    rows = [None] * len(_GAINS) if out is None else out[:len(_GAINS)]
    gains = [rng.standard_exponential(size, out=row) for row in rows]
    return _at_mean(FadingRealization(*gains, *[None] * (len(_GAINS) - len(gains))), cfg)


def _at_mean(draw, cfg):
    """A unit-mean `draw` at cfg's gamma_bar: h2, g2, f2, where drawn,
    scaled by it (arrays in place); at gamma_bar 1 the draw itself.
    Generator.exponential(s) is s times the standard exponential draw per
    element, so the bits are those of sampling at that mean."""
    gbar = cfg.gamma_bar_lin
    if gbar == 1.0:
        return draw
    gains = {name: getattr(draw, name) for name in _GAINS[:3]}
    return replace(draw, **{name: np.multiply(a, gbar, out=a if np.ndim(a) else None)
                            for name, a in gains.items() if a is not None})


def dist_v3(x, geom: ScenarioGeometry):
    """pdf/cdf of V3 = q^-eps u2 + r^-eps v2.

    General branch for q != r; for q == r the analytic r->q limit
    x q^{2 eps} e^{-q^eps x} (a Gamma(2) law) is used.
    """
    arr = _require_pos(x, "dist_v3", zero_ok=True)
    et = derive_etas(geom)
    if et.c1 is None:
        a = et.q_eps
        ax = a * arr
        pdf = a * a * arr * np.exp(-ax)
        cdf = -np.expm1(-ax) - ax * np.exp(-ax)
        return pdf, cdf
    eq = np.exp(-et.q_eps * arr)
    er = np.exp(-et.r_eps * arr)
    pdf = et.c1 * (eq - er)
    cdf = 1.0 - et.c1 * (eq / et.q_eps - er / et.r_eps)
    return pdf, cdf


def dist_t(x, geom: ScenarioGeometry):
    """pdf/cdf of T = V1 * V3, via Psi(1,1,z) = e^z E1(z).

    q != r:  F_T(x) = c1 x [Psi(1,1,q^eps x) - Psi(1,1,r^eps x)]
             f_T(x) = c1 [(1+q^eps x) Psi(1,1,q^eps x) - (1+r^eps x) Psi(1,1,r^eps x)]
    q == r (limit branch, a = q^eps):
             F_T(x) = a x - a^2 x^2 Psi(1,1,a x)
             f_T(x) = a + a^2 x - a^2 x (2 + a x) Psi(1,1,a x)
    """
    arr = _require_pos(x, "dist_t")
    et = derive_etas(geom)
    if et.c1 is None:
        a = et.q_eps
        ax = a * arr
        psi = tricomi_psi11(ax)
        cdf = ax - ax * ax * psi
        pdf = a + a * ax - a * ax * (2.0 + ax) * psi
        return pdf, np.clip(cdf, 0.0, 1.0)
    qx = et.q_eps * arr
    rx = et.r_eps * arr
    psi_q, psi_r = tricomi_psi11(np.stack([qx, rx]))
    cdf = et.c1 * arr * (psi_q - psi_r)
    pdf = et.c1 * ((1.0 + qx) * psi_q - (1.0 + rx) * psi_r)
    return pdf, np.clip(cdf, 0.0, 1.0)


def dist_gamma_ratio(x, eta, gamma_bar_lin):
    """pdf/cdf of a path-loss-scaled ratio SIR component eta * X/Y, where X
    is exponential with mean gamma_bar and Y exponential with mean 1:
    pdf = s/(x+s)^2 (s/(x+s)/(x+s) where the square overflows), cdf = x/(x+s)
    with scale s = eta * gamma_bar; at x = inf, their limits 0 and 1. Where
    s overflows, their limits as s -> inf: 0 at every finite x. Within 2^-40
    of 1, where the two roundings of x/(x+s) can step it back by an ulp
    between x's whose CDFs differ by less, the cdf is 1 - s/(x+s), which
    each of its roundings keeps nondecreasing in x."""
    if not eta > 0:
        raise ValueError(f"eta must be > 0, got {eta}")
    if not gamma_bar_lin > 0:
        raise ValueError(f"gamma_bar_lin must be > 0, got {gamma_bar_lin}")
    arr = _require_pos(x, "dist_gamma_ratio", zero_ok=True)
    s = eta * gamma_bar_lin
    if s == np.inf:
        return np.zeros_like(arr)[()], np.isinf(arr).astype(float)[()]
    t = arr + s
    with np.errstate(over="ignore", invalid="ignore"):
        pdf = np.where(np.isinf(t * t), s / t / t, s / t ** 2)[()]
        tail = s / t
        cdf = np.where(tail < 2.0 ** -40, 1.0 - tail, arr / t)[()]
    return pdf, cdf
