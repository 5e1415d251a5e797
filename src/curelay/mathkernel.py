"""Numerical kernel: exponential-integral family, the Gauss hypergeometric
functions 2F1(2,2;3;z) and 2F1(3,3;4;z), adaptive Gauss-Kronrod quadrature,
and a monotone root finder.

Everything here is pure and stateless; all routines accept scalars, the array
routines (exp_e1, tricomi_psi11, gauss_2f1, gauss_2f1_near_unit) also accept
numpy arrays. The E1 continued fraction iterates in numpy over the elements
not yet converged, dropping each as it stops, and finishes the last few on
Python floats; each element gets the same bits whatever array it is evaluated
in. The quadrature gets the integrand values a split needs from few, large
calls: it can take the panel tree of an earlier run as a plan, evaluated in a
few calls first, and it evaluates a split outside the plan together with the
next panels in line in its heap, in batches that double from 1 up to
_BATCH_CAP splits. The adaptive loop is the same either way, so is the
result, bit for bit.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

EULER_GAMMA = 0.5772156649015328606

__all__ = [
    "EULER_GAMMA",
    "NumericTolerance",
    "QuadratureResult",
    "IntegrationError",
    "BracketError",
    "exp_e1",
    "tricomi_psi11",
    "gauss_2f1",
    "gauss_2f1_near_unit",
    "integrate",
    "solve_root_monotone",
]


@dataclass(frozen=True)
class NumericTolerance:
    """Relative/absolute tolerance pair plus an iteration budget."""

    rel_tol: float = 1e-10
    abs_tol: float = 0.0
    max_iter: int = 200

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be > 0, got {self.rel_tol}")
        if self.abs_tol < 0:
            raise ValueError(f"abs_tol must be >= 0, got {self.abs_tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


# Defaults: two orders tighter than anything the experiment layer asserts.
QUAD_TOL = NumericTolerance(rel_tol=1e-8, abs_tol=1e-14, max_iter=2000)
ROOT_TOL = NumericTolerance(rel_tol=1e-10, abs_tol=0.0, max_iter=300)
# root search ceiling over the target: far beyond any physical water level at
# tested configurations
CEILING_FACTOR = 1e6


class IntegrationError(RuntimeError):
    """Adaptive quadrature did not reach the requested tolerance.

    Carries the partial estimate and its error bound.
    """

    def __init__(self, message, partial, error_bound):
        super().__init__(f"{message} (partial estimate {partial!r}, error bound {error_bound!r})")
        self.partial = partial
        self.error_bound = error_bound


class BracketError(RuntimeError):
    """No bracket for the requested target below the search ceiling."""


# ---------------------------------------------------------------------------
# exponential integral E1 and Tricomi Psi(1,1,x) = e^x E1(x)
# ---------------------------------------------------------------------------

# For 0 < x <= 1 the partial sum is at least x - x^2/4 >= 3x/4, and term k
# is at most x/(k k!). From k = 18 on that is below 2^-55 * 3x/4, under half
# the spacing of the floats near the sum, so every later term rounds away:
# 17 terms give the bits of any longer series.
_E1_SERIES_TERMS = 17


def _e1_series(x):
    """Power series E1(x) = -gamma - ln x + sum_k (-1)^{k+1} x^k / (k k!), x <= 1."""
    acc = np.zeros_like(x)
    term = np.ones_like(x)
    neg = -x
    for k in range(1, _E1_SERIES_TERMS + 1):
        term = term * neg / k
        acc = acc - term / k
    return -EULER_GAMMA - np.log(x) + acc


# Below this many unconverged elements the continued fraction finishes them
# one by one on Python floats. Measured on a 2-vCPU x86-64 host, numpy 2.4:
# one numpy step costs ~15 us at any small size, one Python-float step
# ~0.35 us per element, so the two cross near 40 elements. With the
# water-level quadratures replaying their panel trees (calls of ~60 to
# ~4,000 Psi arguments), six solves over W = -10..60 dB took 0.60 s at 32,
# 0.59 s at 64, 0.64 s at 16 and 128, and 0.67-0.69 s at 8 and 256 (medians
# of 7 interleaved runs).
_PSI_CF_SCALAR_TAIL = 32


def _psi_cf(x):
    """Continued fraction for e^x E1(x), stable for x >= 1.

    e^x E1(x) = 1/(x+1- 1^2/(x+3- 2^2/(x+5- ...))), evaluated with the
    modified Lentz scheme on a 1-D array. Each element stops at its own step
    (|delta - 1| <= 1e-16, or NaN) or at the 399-step cap. The numpy loop
    runs only over the elements still iterating and drops the converged ones
    as they stop; once fewer than _PSI_CF_SCALAR_TAIL remain, the same
    recurrence finishes each of them on Python floats. Every element sees the
    same IEEE operations in the same order either way, so the result does not
    depend on the array it arrived in.

    Lentz's guards against a zero denominator (|d|, |c| < tiny set to tiny)
    are left out because they never fire here. With b_k = x + 2k + 1 and
    a_k = -k^2, the denominators D_k = b_k + a_k/D_{k-1} (D_0 = inf) and
    c_k = b_k + a_k/c_{k-1} (c_0 = x + 1) both exceed x + k + 1 for every
    x > 0: if the previous one is at least x + k, then k^2 over it is below
    k^2/(x + k) < k. In floating point each step adds a relative rounding of
    a few ulps and damps the earlier ones (k^2/D_{k-1} < D_k), so both stay
    above 1, far from the guards' 1e-300. At x = inf the
    first step gives D = inf and c = inf, so delta = c/D = NaN and the
    element stops at NaN, as it would with the guards.
    """
    out = np.empty_like(x)
    idx = np.arange(x.size)
    f = x + 1.0
    c = x + 1.0
    d = np.zeros_like(x)
    k = 1
    while k < 400 and idx.size >= _PSI_CF_SCALAR_TAIL:
        a = -float(k * k)
        b = x + (2 * k + 1)
        d = 1.0 / (b + a * d)
        c = b + a / c
        delta = c * d
        f = f * delta
        k += 1
        going = np.abs(delta - 1.0) > 1e-16
        if not going.all():
            stop = ~going
            out[idx[stop]] = 1.0 / f[stop]
            idx, x, f, c, d = idx[going], x[going], f[going], c[going], d[going]
    tail = []
    for xi, fi, ci, di in zip(x.tolist(), f.tolist(), c.tolist(), d.tolist()):
        for j in range(k, 400):
            a = -float(j * j)
            b = xi + (2 * j + 1)
            di = 1.0 / (b + a * di)
            ci = b + a / ci
            delta = ci * di
            fi = fi * delta
            if not abs(delta - 1.0) > 1e-16:
                break
        tail.append(fi)
    out[idx] = 1.0 / np.array(tail, dtype=float)
    return out


def _require_pos(x, op, zero_ok=False):
    """x as a float array; ValueError naming `op` unless every element is
    > 0, or >= 0 with `zero_ok`. NaN fails either test."""
    arr = np.asarray(x, dtype=float)
    if not (arr >= 0 if zero_ok else arr > 0).all():
        raise ValueError(f"{op} requires x {'>=' if zero_ok else '>'} 0")
    return arr


def _e1_family(x, name, psi):
    """E1(x), or Psi(1,1,x) = e^x E1(x) if `psi`: the E1 series below x = 1,
    the Psi continued fraction above, each scaled only where it must be."""
    arr = _require_pos(x, name)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)
    lo = arr <= 1.0
    if lo.any():
        series = _e1_series(arr[lo])
        out[lo] = np.exp(arr[lo]) * series if psi else series
    hi = ~lo
    if hi.any():
        cf = _psi_cf(arr[hi])
        out[hi] = cf if psi else np.exp(-arr[hi]) * cf
    return float(out[0]) if scalar else out


def exp_e1(x):
    """Exponential integral E1(x) = int_x^inf e^{-t}/t dt for x > 0.

    Series below x=1, continued fraction above; relative accuracy ~1e-13
    over [1e-8, 700].
    """
    return _e1_family(x, "exp_e1", psi=False)


def tricomi_psi11(x):
    """Tricomi confluent function Psi(1,1,x) = e^x E1(x) for x > 0.

    Evaluated without forming e^x, so it stays finite for arbitrarily
    large x (asymptotically 1/x).
    """
    return _e1_family(x, "tricomi_psi11", psi=True)


# ---------------------------------------------------------------------------
# Gauss hypergeometric 2F1(2,2;3;z) and 2F1(3,3;4;z)
# ---------------------------------------------------------------------------

# Taylor coefficients k -> 2(k+1)/(k+2) and 3(k+1)(k+2)/(2(k+3)); at |z| <= 0.5
# the first omitted term of either series is below 1e-17 times its sum.
_F21_SERIES = {
    (2, 2, 3): np.array([2.0 * (k + 1) / (k + 2) for k in range(72)]),
    (3, 3, 4): np.array([3.0 * (k + 1) * (k + 2) / (2.0 * (k + 3)) for k in range(72)]),
}


def _f21(a, b, c, z, w):
    """2F1(a,b;c;z) for (a,b,c) = (2,2,3) or (3,3,4) on arrays z < 1 and
    w = 1 - z: the power series where |z| <= 0.5, else the elementary form
        2F1(2,2;3;z) = (2/z^2)(z/w + ln w)
        2F1(3,3;4;z) = (3/z^3)(3/2 + 1/(2w^2) - 2/w - ln w)
                     = (3/z^3)(z(1 - 3w)/(2w^2) - ln w),
    which cancel at small z; the second line keeps 3/2 - 2/w + 1/(2w^2)
    from cancelling as well. Scalars in, float out."""
    if (a, b, c) not in _F21_SERIES:
        raise ValueError("the 2F1 kernel supports only (2, 2, 3) and (3, 3, 4), "
                         f"got ({a}, {b}, {c})")
    scalar = np.ndim(z) == 0
    z, w = np.atleast_1d(np.asarray(z, dtype=float)), np.atleast_1d(np.asarray(w, dtype=float))
    out = np.empty_like(z)
    near = np.abs(z) <= 0.5
    out[near] = np.polynomial.polynomial.polyval(z[near], _F21_SERIES[a, b, c])
    zf, wf = z[~near], w[~near]
    lw = np.log(wf)
    if a == 2:
        out[~near] = 2.0 / zf / zf * (zf / wf + lw)
    else:
        out[~near] = 3.0 / zf / zf / zf * (0.5 * zf * (1.0 - 3.0 * wf) / wf / wf - lw)
    return float(out[0]) if scalar else out


def gauss_2f1_near_unit(a, b, c, one_minus_z):
    """2F1(a,b;c;z) parameterized by w = 1-z, for 0 < w <= 0.5, so callers
    that know 1-z to full precision keep it (the ratio-SIR upper-bound CDF
    needs z within ~1e-16 of 1). Only (2,2,3) and (3,3,4); arrays or scalars."""
    w = np.asarray(one_minus_z, dtype=float)
    if not ((w > 0.0) & (w <= 0.5)).all():
        raise ValueError("gauss_2f1_near_unit requires 0 < 1-z <= 0.5")
    return _f21(a, b, c, 1.0 - w, w)


def gauss_2f1(a, b, c, z):
    """Gauss hypergeometric 2F1(a,b;c;z) for (a,b,c) = (2,2,3) or (3,3,4),
    the two the SU upper-bound law needs, and real z < 1; arrays or scalars.
    Any other triple raises ValueError."""
    z = np.asarray(z, dtype=float)
    if not (z < 1.0).all():
        raise ValueError(f"gauss_2f1 requires z < 1, got {z}")
    return _f21(a, b, c, z, 1.0 - z)


# ---------------------------------------------------------------------------
# adaptive Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

_KRONROD_NODES = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_KRONROD_WEIGHTS = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_GAUSS7_WEIGHTS = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# full node/weight vectors on [-1, 1]
_XK = np.concatenate([-_KRONROD_NODES[:-1], _KRONROD_NODES[::-1]])
_WK = np.concatenate([_KRONROD_WEIGHTS[:-1], _KRONROD_WEIGHTS[::-1]])
_WG = np.zeros_like(_WK)
_WG[1:-1:2] = np.concatenate([_GAUSS7_WEIGHTS[:-1], _GAUSS7_WEIGHTS[::-1]])


def _gk15_nodes(a, b):
    """The 15 Kronrod abscissae of the panel [a, b]."""
    return 0.5 * (a + b) + 0.5 * (b - a) * _XK


def _gk15_reduce(fx, a, b):
    """Gauss-Kronrod 15 rule on [a, b] from the integrand values at its
    abscissae: (kronrod, error_estimate)."""
    half = 0.5 * (b - a)
    k = half * float(np.dot(_WK, fx))
    g = half * float(np.dot(_WG, fx))
    # QUADPACK-style rescaled error estimate
    avg = k / (b - a)
    resasc = half * float(np.dot(_WK, np.abs(fx - avg)))
    err = abs(k - g)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return k, err


def _gk15_halves(lo, hi):
    """Per panel [lo[i], hi[i]], one row of the 30 Kronrod abscissae of its
    halves [lo, m] and [m, hi], m = (lo + hi)/2: elementwise, so each row
    has the bits the same operations give on that panel's scalar bounds."""
    lo = np.asarray(lo, dtype=float).reshape(-1, 1)
    hi = np.asarray(hi, dtype=float).reshape(-1, 1)
    mid = 0.5 * (lo + hi)
    return np.concatenate([_gk15_nodes(lo, mid), _gk15_nodes(mid, hi)], axis=1)


# Most abscissae one replay call hands the integrand: large enough that call
# overhead vanishes, small enough that the integrand's temporaries stay small.
_REPLAY_CHUNK = 2048
# Most splits one unplanned integrand call evaluates. Over the 24 benchmark
# (W, CCI) points of seeds 1-4 and the default config, caps of 16, 32 and 68
# (= _REPLAY_CHUNK // 30) cut the integrand calls of the water-level solves
# from 11,883 to 3,053, 2,909 and 2,864 and raised their abscissae 4%, 7% and
# 10%. Their CPU times did not differ beyond run-to-run noise (8 interleaved
# runs each, 2-vCPU x86-64 host); 16 wastes the fewest evaluations.
_BATCH_CAP = 16


def _replay(g, a, b, plan):
    """Integrand values on the root panel [a, b] and, in chunks of at most
    _REPLAY_CHUNK abscissae, on both halves of every planned split that the
    plan itself reaches from the root: (root values, {id: 30 values}).

    Panel k's halves are panels 2k and 2k+1, with the endpoints the adaptive
    loop computes, so a replayed value is the one the loop would compute.
    The values are copies, so that unused ones do not keep every chunk alive.
    """
    bounds = {1: (a, b)}
    ids, lo, hi = [], [], []
    for k in sorted(plan):
        if k in bounds:
            pa, pb = bounds.pop(k)
            pm = 0.5 * (pa + pb)
            bounds[2 * k], bounds[2 * k + 1] = (pa, pm), (pm, pb)
            ids.append(k)
            lo.append(pa)
            hi.append(pb)
    pieces = [_gk15_nodes(a, b), *_gk15_halves(lo, hi)]
    step = _REPLAY_CHUNK // 30
    fx = np.concatenate([np.asarray(g(np.concatenate(pieces[i:i + step])), dtype=float)
                         for i in range(0, len(pieces), step)])
    return fx[:15].copy(), {k: fx[15 + 30 * j:45 + 30 * j].copy() for j, k in enumerate(ids)}


@dataclass(frozen=True)
class QuadratureResult:
    """The estimate, its error bound and the panel count."""

    value: float
    error_bound: float
    panels: int


def integrate(f, lo, hi, tol=QUAD_TOL, plan=None):
    """Adaptive Gauss-Kronrod quadrature of a vectorized integrand over
    [lo, hi], lo finite and hi > lo finite or +inf.

    `f` must accept a numpy array of abscissae and return the integrand
    values elementwise, each value depending only on its own abscissa.
    hi = +inf is mapped onto [0, 1) by x = lo + t/(1-t). lo == hi gives 0;
    any other range raises ValueError. Deterministic for fixed inputs.
    Raises IntegrationError (carrying the partial estimate) if the tolerance
    is not met within tol.max_iter panel subdivisions.

    `plan`, if given, is a set of panel heap ids (root 1; panel k splits
    into 2k and 2k+1) that the call replays and then refills with its own
    splits, converged or not. Before the adaptive loop, the integrand is
    evaluated in a few large calls on the root panel and on the halves of
    every planned split; the loop then takes those values. A split that has
    none is evaluated in one call with the halves of further heap panels
    likely to split next, whose values the loop takes when it gets to
    them: 1 split in the first such call of a run, twice as many in each
    next one, up to _BATCH_CAP, and no more panels than the error still
    above the tolerance can need. The loop itself (heap order, stop test,
    max_iter) looks at neither the plan nor the batches, so for an
    elementwise integrand the result, and any IntegrationError, is identical
    bit for bit; a good plan or batch only saves integrand calls, a bad one
    costs the evaluations of splits that never happen.
    """
    lo, hi = float(lo), float(hi)
    plan = set() if plan is None else plan
    if lo == hi:
        plan.clear()
        return QuadratureResult(0.0, 0.0, 0)
    if not (math.isfinite(lo) and lo < hi):
        raise ValueError(f"integrate needs finite lo < hi, got ({lo}, {hi})")
    if hi == math.inf:
        def g(t):
            u = 1.0 - t
            return f(lo + t / u) / (u * u)
        a, b = 0.0, 1.0
    else:
        g, a, b = f, lo, hi
    result = _adapt(g, a, b, tol, plan)
    if _converged(result.value, result.error_bound, tol):
        return result
    raise IntegrationError(
        f"quadrature did not converge within {tol.max_iter} subdivisions",
        result.value, result.error_bound)


def _allowed_error(value, tol):
    return max(tol.abs_tol, tol.rel_tol * abs(value))


def _converged(value, error, tol):
    return error <= _allowed_error(value, tol)


def _batch(g, heap, planned, first, size, min_width, excess):
    """Integrand values on both halves of the panel `first` = (a, b, id) and
    of up to size - 1 panels of the heap that are not planned and wider than
    min_width, in one call: the others' values go into `planned`, first's
    are returned. The candidates are the heap's first 2 * size entries, its
    first levels, largest error first; they stop once their errors add up
    to `excess`, the error the loop must still remove besides first's, since
    the loop splits no more panels than that needs unless a split leaves
    large errors in its halves. The choice only decides how many
    evaluations go unused."""
    picks = [first]
    for item in sorted(heap[:2 * size]):
        if len(picks) == size or excess <= 0.0:
            break
        if item[6] not in planned and item[3] - item[2] > min_width:
            picks.append((item[2], item[3], item[6]))
            excess -= item[5]
    x = _gk15_halves([p[0] for p in picks], [p[1] for p in picks])
    fx = np.asarray(g(x.ravel()), dtype=float).reshape(len(picks), 30)
    for p, row in zip(picks[1:], fx[1:]):
        planned[p[2]] = row
    return fx[0]


def _adapt(g, a, b, tol, plan):
    """The adaptive loop of `integrate` on a finite [a, b]: its estimate
    whether or not it converged; `plan` is replayed, then refilled with this
    run's splits. Kept apart so that a raised IntegrationError does not keep
    the panel heap alive."""
    root, planned = _replay(g, a, b, plan)
    plan.clear()
    size = 1  # splits per unplanned call: doubles on each call, up to _BATCH_CAP
    val, err = _gk15_reduce(root, a, b)
    heap = [(-err, 0, a, b, val, err, 1)]
    total_val, total_err = val, err
    counter = 1
    min_width = 1e-14 * (b - a)
    for _ in range(tol.max_iter):
        if _converged(total_val, total_err, tol):
            break
        neg_err, _, pa, pb, pval, perr, k = heapq.heappop(heap)
        if pb - pa <= min_width:
            # cannot subdivide further (integrable endpoint singularity);
            # keep the panel's contribution as is
            heapq.heappush(heap, (0.0, counter, pa, pb, pval, perr, k))
            counter += 1
            if all(item[0] == 0.0 for item in heap):
                break
            continue
        pm = 0.5 * (pa + pb)
        fx = planned.pop(k, None)
        if fx is None:
            excess = total_err - perr - _allowed_error(total_val, tol)
            fx = _batch(g, heap, planned, (pa, pb, k), size, min_width, excess)
            size = min(2 * size, _BATCH_CAP)
        v1, e1 = _gk15_reduce(fx[:15], pa, pm)
        v2, e2 = _gk15_reduce(fx[15:], pm, pb)
        total_val += v1 + v2 - pval
        total_err += e1 + e2 - perr
        heapq.heappush(heap, (-e1, counter, pa, pm, v1, e1, 2 * k))
        heapq.heappush(heap, (-e2, counter + 1, pm, pb, v2, e2, 2 * k + 1))
        counter += 2
        plan.add(k)
    return QuadratureResult(total_val, total_err, counter)


# ---------------------------------------------------------------------------
# monotone root finding
# ---------------------------------------------------------------------------


def _resid_tol(target):
    """The root finder's stop band: it stops where |g(x) - target| is within it."""
    return ROOT_TOL.rel_tol * max(1.0, abs(target))


def solve_root_monotone(g, target):
    """Solve g(x) = target for x >= 0, for a continuous nondecreasing g with
    g(0) <= target.

    Bracket by doubling from x = target, then bisect. Returns (x*, g(x*))
    with g(x*) within `_resid_tol(target)` of the target. Raises
    BracketError if no bracket exists below CEILING_FACTOR * target, or if
    the bisection stalls, with the residual of its last step. The search
    calls g at most once at each x: once the bracket has doubled, the
    bisection's first midpoint is the last bracketing step, whose value it
    takes.
    """
    resid_tol = _resid_tol(target)
    g0 = g(0.0)
    if g0 > target + resid_tol:
        raise BracketError(f"g(0)={g0!r} already exceeds target={target!r}")
    if abs(g0 - target) <= resid_tol:
        return 0.0, g0
    lo, glo = 0.0, g0  # the last bracketing step below the target
    ceiling = CEILING_FACTOR * target
    hi = abs(target)
    ghi = g(hi)
    while ghi < target:
        if hi >= ceiling:
            raise BracketError(
                f"no bracket below ceiling {ceiling!r}: g({hi!r})={ghi!r} < target {target!r}")
        lo, glo = hi, ghi
        hi *= 2.0
        ghi = g(hi)
    a, b = 0.0, hi
    for _ in range(ROOT_TOL.max_iter):
        x = 0.5 * (a + b)
        gx = glo if x == lo else g(x)
        if abs(gx - target) <= resid_tol:
            return x, gx
        if gx < target:
            a = x
        else:
            b = x
        if b - a <= 1e-15 * max(1.0, abs(b)):
            break
    raise BracketError(
        f"bisection stalled: x={x!r}, residual {gx - target!r} exceeds {resid_tol!r}")
