"""Outage probability (Monte-Carlo and analytic bounds), the SU-side
upper-bound distribution in closed form, and achievable-rate curves.

Monte-Carlo runs split the trials into blocks of `BLOCK_SIZE` draws, fixed
by the determinism contract. A sweep is a list of groups, each one argument
tuple for the block function: block i of group k draws unit-mean gains from
a generator seeded by (seed, k * 1,000,000 + i), and the block function
turns that whole block and the group's arguments into one flat row of sums;
`_at_mean` puts a draw at a point's gamma_bar. An `outage_mc` sweep is one
group, so every point reuses the draws of blocks (seed, i); a `rate_curve`
point is a group of its own, whose block scales its draw in place and skips
w2, which no rate term reads, and evaluates the optimal and the fixed power
on that point's draws. `validate`'s sampled checks are one group at the
config's gamma_bar (`_validation_block`). Every block function slices its
own block into `SLICE_DRAWS` draws, which keeps the elementwise working set
in cache: an outage block adds the slices' integer counts, while a rate or
validation block packs the per-draw terms of each slice into block-length
rows and forms its floating-point sums over the whole packed rows, so the
slice length never moves a bit. Each call runs all its blocks through one
process pool and sums each group's rows in block order, so results are
bit-identical for any worker count. The pool module (`concurrent.futures`,
and `multiprocessing` behind it) is imported when a sweep first starts a
pool, through the module `__getattr__`, so importing the package loads
neither.

A block does not allocate its block-length arrays: each process (each thread
of it) keeps one workspace of five float64 rows (`_workspace`), and every
block it runs, in a pool worker every task too, draws every gain but its
last into them: h2 to v2 for an outage or validation block, h2 to u2 (rows
0-3) for a rate block. The block function's slices then draw the gain the
block lacks, w2 or v2 (`_slices`), from the block's generator in order, each
into one slice row; the generator fills an array element by element, so the
bits are those of one draw over the whole block. A rate block packs its
terms into the gain rows it has already read, so it touches only rows 0-3.
Each process also holds nine slice-length float64 rows and three bool rows
(`_slice_rows`): `_bs_slice` writes a slice's optimal-power BS terms there
for both sweeps, through the `out=` rows of the helpers that hold each
formula, the last float row holds the slice's last gain, and the outage
counting and a rate slice's fixed gamma2, gamma_bs1 and validity mask use
the rest. An outage slice allocates only the dual-route check's two arrays
of its length, a rate slice nothing of its length, and a validation slice
takes `sir_sample`'s fresh arrays. A shorter last block or slice uses the
leading elements of each row. The rows are scratch, not a cache: every user
writes an element before it reads it, so its result is the same as with
fresh arrays, and only the page faults of fresh memory (about 8 MB a rate
block, thousands of faults an outage block) are saved.

An outage slice is evaluated once, at unit mean. gamma2, P_su1 * gamma_bar
and whether the SU transmits do not depend on gamma_bar (up to rounding),
while gamma1, gamma3 and gamma4 scale with it, so each draw has a critical
gamma_bar below which it is in outage, and every grid point is decided by
one comparison with it. A guard sends a draw through the exact per-point
path instead (`sir_sample` at that point's gamma_bar) where rounding could
tell the two apart: a zero or non-finite gain, a near-cancelling P_su1,
gamma2 near gamma_th at the BS, a critical value that overflows (huge
gamma_th), or a point within `_CRIT_BAND` of the critical value. The counts
are therefore bit for bit those of the per-point kernel. The dual-route
gamma2 check runs on every unit-mean slice and on every guard draw.

Outage semantics: at the base station the statistic is conditioned on the
secondary actually transmitting (P_su1 > 0), matching the truncated law the
analytic bounds are built from; no-transmission draws are reported in
`excluded_draws`. At the secondary user all well-defined draws count (the
P_su1 = 0 mass sits exactly at the upper-bound SIR and drives the
convergence to the closed-form curve). Infinite-SIR draws count as
non-outage on both sides.
"""

from __future__ import annotations

import math
import os
import sys
import threading
from dataclasses import dataclass, fields, replace

import numpy as np

from .channels import (
    FadingRealization,
    PowerConfig,
    ScenarioGeometry,
    _at_mean,
    derive_etas,
    dist_gamma_ratio,
    dist_t,
    sample_fading,
)
from .mathkernel import _require_pos, gauss_2f1, gauss_2f1_near_unit
from .power import _interference, _power_terms, fixed_power, optimal_power
from .relaying import (_gamma1, _gamma2, _harmonic, _su_terms, check_gamma2_routes,
                       sinr_bs_combine, sir_sample)

__all__ = [
    "OutageEstimate",
    "RateEstimate",
    "outage_mc",
    "outage_bs_bounds",
    "dist_su_upper",
    "su_outage_closed_form",
    "rate_curve",
]

BLOCK_SIZE = 250_000
OUTAGE_MIN_TRIALS = 10_000
RATE_MIN_TRIALS = 100_000
# Draws per slice of a block's elementwise work: a slice's rows (16,384 x
# 8 B = 128 KiB each) stay in cache, and counts and rate sums do not depend
# on it. An outage slice's temporaries live in workspace rows, so the
# length no longer decides how often freed memory faults back in. Medians of
# 24 alternated 250k-draw blocks in one process (2-vCPU x86-64 host, numpy
# 2.4): BS outage 16.3 / 13.4 / 15.1 ms, SU outage 15.9 / 14.2 / 14.7 ms and
# rate (both policies) 13.3 / 12.1 / 11.0 ms at 8,192 / 16,384 / 32,768
# draws; 16,384 is the fastest on both outage sides, while rate is fastest
# at 32,768.
SLICE_DRAWS = 16_384
# Relative half-width of the band around a draw's critical gamma_bar inside
# which an outage point takes the exact per-point path; the same width
# guards the P_su1 cancellation |head - tail| <= d head and, at the BS,
# |gamma2 - gamma_th| <= d (1 + gamma_th). The critical value and a point's
# own kernel see one draw through different roundings (the gamma_bar
# scaling, ~10 roundings each). Past those two guards, head - tail amplifies
# them by at most 1/d and gamma_th gamma2/(gamma2 - gamma_th) amplifies
# gamma2's absolute error ~10 eps (1 + gamma2) by at most 1/(d (1 + gamma_th)),
# so crit is off the kernel's boundary by < ~30 eps/d = 7e-9 relative; across
# the band the kernel's SIR moves by > d^2 = 1e-12 relative (BS) or d (SU)
# against its ~3 eps = 7e-16 rounding. d = 1e-6 leaves > 100x headroom on
# both, so every (n_out, n_counted) is bit for bit the per-point kernel's.
_CRIT_BAND = 1e-6
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class OutageEstimate:
    """Monte-Carlo outage probability with its 95% half-width and, when
    applicable, the analytic lower/upper bounds at the same threshold.

    trials is the number of draws entering the statistic, so
    ci_halfwidth = 1.96 sqrt(p (1-p)/trials) holds exactly;
    excluded_draws = requested - trials.
    """

    p_out: float
    ci_halfwidth: float
    trials: int
    gamma_th: float
    side: str
    lower_bound: float | None
    upper_bound: float | None
    excluded_draws: int


@dataclass(frozen=True)
class RateEstimate:
    """Expected rate at one operating point under one power policy.

    rate_objective is E[log2(1 + gamma2)] (the quantity the power allocation
    maximizes); rate_endtoend is E[0.5 log2(1 + gamma_bs1)].
    """

    sir_db: float
    policy: str
    rate_objective: float
    rate_endtoend: float
    ci_halfwidth: float
    trials: int


_UNIT_MEAN = PowerConfig(p_cci_db=0.0, w_db=0.0, gamma_bar_db=0.0)


def _select(draw, index):
    """The draws of `draw` at `index` (a slice or a mask)."""
    gains = (getattr(draw, f.name) for f in fields(draw))
    return FadingRealization(*(None if a is None else a[index] for a in gains))


def _slices(draw, size, rng=None):
    """Consecutive slices of at most `size` draws of the unit-mean `draw`.
    Given a generator, each slice draws the first gain `draw` lacks from it,
    in order, into this thread's slice gain row (`_slice_rows`), valid until
    the next slice: the bits one draw over the whole block gives
    (`sample_fading`). A draw that lacks none is sliced as it is."""
    lacking = [f.name for f in fields(draw) if getattr(draw, f.name) is None]
    for lo in range(0, draw.h2.size, size):
        piece = _select(draw, slice(lo, lo + size))
        if rng is not None and lacking:
            n = piece.h2.size
            gain = rng.standard_exponential(n, out=_slice_rows(n)[2][-1])
            piece = replace(piece, **{lacking[0]: gain})
        yield piece


# Workspace rows (module docstring), one set per thread, so sweeps run from
# two threads never share them; a pool task cannot carry an array to its
# worker, so a worker keeps its rows here across tasks. Separate rows, each
# as large as one of the arrays they replace, keep a block's resident memory
# what it was with fresh arrays: for one 2-D array numpy asks for huge
# pages, and those straddle the rows a block leaves untouched. A block's
# last gain is drawn slice by slice into a slice row instead (`_slices`).
_WORKSPACE_ROWS = 5
# Slice rows: the float and bool rows _critical returns an outage slice's
# crit and exact in (a rate slice's validity mask goes into the bool one),
# then rows for the slice's temporaries: eight float (_bs_slice's
# interference, head, tail, P_su1, gamma1 and gamma2, then a rate slice's
# fixed gamma2, then the slice's last gain, which `_slices` draws) and two
# bool (comparison masks), which the counting in _outage_block and a rate
# slice's gamma_bs1 reuse once gamma2 is formed.
_SLICE_ROWS, _SLICE_MASKS = 9, 3
_scratch = threading.local()


def _rows(name, count, n, dtype=float):
    """`count` rows of this thread's workspace set `name`, cut to their
    leading n elements; they are reallocated only when shorter than n.
    Their contents are whatever the last user left: every user writes an
    element before it reads it."""
    rows = getattr(_scratch, name, ())
    if not rows or rows[0].size < n:
        rows = None  # the shorter rows are freed before the longer ones are allocated
        setattr(_scratch, name, None)
        rows = [np.empty(n, dtype) for _ in range(count)]
        setattr(_scratch, name, rows)
    return [row[:n] for row in rows]


def _workspace(n):
    """This thread's block-length workspace rows for a block of n draws."""
    return _rows("rows", _WORKSPACE_ROWS, n)


def _slice_rows(n):
    """(crit, exact, rows, masks): this thread's slice rows for a slice of
    n draws, the result rows first and then the float and bool scratch rows,
    the last float row the slice's gain row (`_slices`)."""
    crit, *rows = _rows("slice_rows", _SLICE_ROWS, n)
    exact, *masks = _rows("slice_masks", _SLICE_MASKS, n, bool)
    return crit, exact, rows, masks


def _run_block(task):
    """block_fn's row for one block: every gain but the last block_fn reads
    (w2 with `w2`, else v2) is drawn into this thread's workspace rows, and
    block_fn's slices draw that one from the generator (`_slices`)."""
    block_fn, args, seed, stream, n, w2 = task
    rng = np.random.default_rng([seed, stream])
    draw = sample_fading(rng, _UNIT_MEAN, n, out=_workspace(n)[:4 + w2])
    return block_fn(draw, *args, rng=rng)


def __getattr__(name):
    # concurrent.futures imports multiprocessing (about 1.3 MiB and 11 ms),
    # which only a pool needs: it is imported when a sweep first starts one
    # and kept in the module globals, where a replacement set on the module
    # takes its place
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _sweep(block_fn, groups, trials, seed, workers, w2=True):
    """Per argument tuple of `groups`, in order, the column sums of the rows
    block_fn(draw, *args, rng=rng) returns for the group's unit-mean blocks
    of `BLOCK_SIZE` over `trials` draws (module docstring). `w2` says whether
    block_fn reads w2, else its last gain is v2. A pool forks all its
    processes at its first task, so it gets no more than `workers`, the CPUs
    or the tasks."""
    n_full, rem = divmod(trials, BLOCK_SIZE)
    sizes = [BLOCK_SIZE] * n_full + ([rem] if rem else [])
    tasks = [(block_fn, args, seed, k * 1_000_000 + i, n, w2)
             for k, args in enumerate(groups) for i, n in enumerate(sizes)]
    if workers <= 1 or not tasks:
        rows = [_run_block(t) for t in tasks]
    else:
        pool_class = sys.modules[__name__].ProcessPoolExecutor  # imported on first use
        with pool_class(min(workers, os.cpu_count() or 1, len(tasks))) as pool:
            rows = list(pool.map(_run_block, tasks))
    nb = len(sizes)
    return [[sum(col) for col in zip(*rows[k * nb:(k + 1) * nb])] for k in range(len(groups))]


def _outage_point(draw, cfg, geom, lam, gamma_th, side):
    """(n_out, n_counted) of `draw`, already at cfg's gamma_bar: the exact
    per-point path."""
    s = sir_sample(draw, geom, cfg, lam)
    if side == "bs":
        counted, gamma = (s.p_su1 > 0) & ~np.isnan(s.gamma_bs1), s.gamma_bs1
    else:
        counted, gamma = s.valid, s.gamma_su1
    n_counted = int(np.count_nonzero(counted))
    n_out = int(np.count_nonzero(gamma[counted] < gamma_th))
    return n_out, n_counted


def _bs_slice(draw, cfg, geom, lam):
    """This thread's slice rows for `draw` (at most one slice), its float
    scratch rows holding interference, head, tail, P_su1, gamma1 and gamma2
    under the optimal power, in order; the next float row is left free, and
    the gain row after it is only read."""
    rows = _slice_rows(draw.h2.size)
    cci, head, tail, p_su1, gamma1, gamma2, *_ = rows[2]
    _interference(draw, geom, cfg, out=(cci, head))
    _gamma1(draw, geom, out=gamma1)
    _power_terms(draw, geom, cfg, lam, cci, out=(head, tail))
    optimal_power(draw, geom, cfg, lam, terms=(head, tail), out=p_su1)
    _gamma2(draw, geom, p_su1, cci, out=gamma2)
    return rows


def _critical(draw, cfg, geom, lam, gamma_th, side):
    """(crit, exact) per draw of a unit-mean `draw`: the draw is in outage
    at mean gamma_bar iff gamma_bar < crit (inf: at every gamma_bar; nan:
    counted at none, or exact), and `exact` marks the draws that take the
    exact per-point path at every point (see _CRIT_BAND). Both are this
    thread's result rows (`_slice_rows`), valid until the next slice.
    `draw` is at most one slice (SLICE_DRAWS draws) long: the thread keeps
    its slice rows at the longest length it has been given."""
    crit, exact, (cci, head, tail, p_su1, gamma1, gamma2, *_), (m1, m2) = _bs_slice(
        draw, cfg, geom, lam)
    check_gamma2_routes(draw, geom, cfg, lam, gamma2)
    band = _CRIT_BAND
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # exact unless 0 < gains < inf and |head - tail| > band head
        gains = np.multiply(draw.h2, draw.g2, out=cci)
        for gain in (draw.f2, draw.u2, draw.v2, draw.w2):
            np.multiply(gains, gain, out=gains)
        np.greater(gains, 0.0, out=exact)
        exact &= np.less(gains, np.inf, out=m1)
        gap = np.abs(np.subtract(head, tail, out=cci), out=cci)
        exact &= np.greater(gap, np.multiply(band, head, out=tail), out=m1)
        np.logical_not(exact, out=exact)
        if side == "bs":
            # gamma_bs1 = gamma1 gamma2/(gamma1 + gamma2) with gamma1 = gamma_bar a1
            # and gamma2 free of gamma_bar: in outage at every gamma_bar when
            # gamma2 <= gamma_th, else iff gamma1 < gamma_th gamma2/(gamma2 - gamma_th)
            near = np.abs(np.subtract(gamma2, gamma_th, out=cci), out=cci)
            exact |= np.less_equal(near, band * (1.0 + gamma_th), out=m1)
            above = np.greater(gamma2, gamma_th, out=m1)
            num = np.multiply(gamma_th, gamma2, out=head)
            den = np.multiply(np.subtract(gamma2, gamma_th, out=tail), gamma1, out=tail)
            np.divide(num, den, out=crit)
            # inf where not above, else the quotient: fmax with +inf there and
            # -inf elsewhere (a masked write on this dense, random mask takes
            # ~5x as long); a NaN quotient above becomes -inf, and the draw
            # exact, as it would be with the NaN. NaN where P_su1 == 0, again
            # without a mask: p/p is 1 for a finite p > 0 and NaN at 0, and
            # abs gives every NaN np.nan's bits (it turns -inf to inf only on
            # draws already exact)
            np.fmax(crit, np.multiply(np.subtract(0.5, above, out=cci), np.inf, out=cci),
                    out=crit)
            above &= np.logical_not(np.isfinite(crit, out=m2), out=m2)
            exact |= above
            np.multiply(crit, np.divide(p_su1, p_su1, out=cci), out=crit)
            np.abs(crit, out=crit)
        else:
            # gamma3 = gamma_bar a3, gamma4 = gamma_bar a4 and the SU's own
            # term k of gamma5 is free of gamma_bar, so gamma_su1 < gamma_th iff
            # gamma_bar lies below the positive root of
            # gamma_bar^2 a3 a4 - gamma_bar gamma_th (a3 + a4) - gamma_th k
            a3, a4, k = _su_terms(draw, geom, cfg, p_su1, out=(cci, head, tail))
            a = np.multiply(a3, a4, out=gamma1)
            tb = np.multiply(gamma_th, np.add(a3, a4, out=gamma2), out=gamma2)
            disc = np.multiply(np.multiply(4.0 * gamma_th, a, out=a4), k, out=a4)
            disc = np.sqrt(np.add(np.multiply(tb, tb, out=a3), disc, out=a3), out=a3)
            np.divide(np.add(tb, disc, out=a3), np.multiply(2.0, a, out=a4), out=crit)
            exact |= np.logical_not(np.isfinite(crit, out=m1), out=m1)
    np.copyto(crit, np.nan, where=exact)
    return crit, exact


def _outage_block(draw, configs, geom, lam, gamma_th, side, slice_draws, rng=None):
    """n_out and n_counted at each PowerConfig of `configs`, interleaved in
    one row, for the unit-mean `draw`, counted over its slices of at most
    `slice_draws` draws, which draw the gain `draw` lacks from `rng`
    (`_slices`). One comparison with each draw's critical gamma_bar
    decides the draw, except the exact draws and those within _CRIT_BAND of
    their critical value, which take the exact per-point path. Every slice
    temporary lives in this thread's slice rows."""
    unit = replace(configs[0], gamma_bar_db=0.0)
    row = [0] * (2 * len(configs))
    for piece in _slices(draw, slice_draws, rng):
        crit, exact = _critical(piece, unit, geom, lam, gamma_th, side)
        _, _, (lo, hi, *_), (m1, m2) = _slice_rows(piece.h2.size)  # scratch from here on
        np.multiply(crit, 1.0 - _CRIT_BAND, out=lo)
        np.multiply(crit, 1.0 + _CRIT_BAND, out=hi)
        n_decided = piece.h2.size - int(np.count_nonzero(np.isnan(crit, out=m1)))
        any_exact = bool(exact.any())
        for j, cfg in enumerate(configs):
            g = cfg.gamma_bar_lin
            n_out = int(np.count_nonzero(np.greater(lo, g, out=m1)))
            n_band = int(np.count_nonzero(np.greater_equal(hi, g, out=m2))) - n_out
            n_counted = n_decided - n_band
            if n_band or any_exact:
                pick = np.logical_and(np.less_equal(lo, g, out=m1), m2, out=m1)
                pick |= exact
                e_out, e_counted = _outage_point(_at_mean(_select(piece, pick), cfg), cfg, geom,
                                                 lam, gamma_th, side)
                n_out, n_counted = n_out + e_out, n_counted + e_counted
            row[2 * j] += n_out
            row[2 * j + 1] += n_counted
    return row


def outage_mc(geom: ScenarioGeometry, cfg: PowerConfig, lam: float, gamma_th: float,
              side: str, sir_grid_db, trials: int, seed: int,
              workers: int = 1) -> list[OutageEstimate]:
    """Monte-Carlo outage probability P(gamma_side < gamma_th) at each
    average SIR of `sir_grid_db` (cfg with gamma_bar_db replaced).

    Requires a pre-solved water level; deterministic for a given seed
    regardless of `workers`. Every point reuses the same fading draws, blocks
    seeded (seed, i), so a point's estimate does not depend on the rest of
    the grid. One critical gamma_bar per draw decides it at every point, and
    guarded draws take the exact per-point kernel (module docstring), so the
    counts are those of evaluating every point in full. The BS side counts
    draws with P_su1 > 0 and a defined gamma_bs1. Analytic bounds are
    attached: the order-statistics pair at the BS, the closed-form
    upper-bound-SIR curve at the SU (a lower bound on outage there).
    """
    if lam is None or lam < 0:
        raise ValueError("outage_mc requires a solved, nonnegative water level")
    if side not in ("bs", "su"):
        raise ValueError(f"side must be 'bs' or 'su', got {side!r}")
    if trials < OUTAGE_MIN_TRIALS:
        raise ValueError(f"trials must be >= {OUTAGE_MIN_TRIALS}")
    configs = [replace(cfg, gamma_bar_db=float(sir_db)) for sir_db in sir_grid_db]
    if not configs:
        return []
    (row,) = _sweep(_outage_block, [(configs, geom, lam, gamma_th, side, SLICE_DRAWS)],
                    trials, seed, workers)
    out = []
    for point, n_out, n_counted in zip(configs, row[0::2], row[1::2]):
        p_out = n_out / n_counted if n_counted else math.nan
        ci = 1.96 * math.sqrt(p_out * (1.0 - p_out) / n_counted) if n_counted else math.nan
        if side == "bs":
            lower, upper = outage_bs_bounds(gamma_th, geom, point, lam)
        else:
            lower, upper = su_outage_closed_form(gamma_th, geom, point), None
        out.append(OutageEstimate(p_out=p_out, ci_halfwidth=ci, trials=n_counted,
                                  gamma_th=gamma_th, side=side, lower_bound=lower,
                                  upper_bound=upper, excluded_draws=trials - n_counted))
    return out


def _gamma2_cdf(x, geom, lam, p_cci):
    """CDF of gamma2 given transmission: 1 - F_T(c2/(x+1))/F_T(c2), c2 = lam/(eta4 P),
    with F_T from one `dist_t` call for c2 and every x, and F_T(0) = 0."""
    et = derive_etas(geom)
    c2 = lam / (et.eta4 * p_cci)
    x = np.asarray(x, dtype=float)
    y = c2 / (x.ravel() + 1.0)
    _, ft = dist_t(np.append(c2, np.where(y > 0.0, y, c2)), geom)
    return (1.0 - np.where(y > 0.0, ft[1:], 0.0) / ft[0]).reshape(x.shape)


def outage_bs_bounds(gamma_th: float, geom: ScenarioGeometry, cfg: PowerConfig,
                     lam: float):
    """Order-statistics bounds on the BS outage probability.

    lower = F1(g) + F2(g) - F1(g) F2(g) evaluated at g = gamma_th,
    upper = the same expression at 2 gamma_th, raised to lower where
    rounding puts it an ulp below (where F1 rounds to 1 at both). Both are
    NaN at lam = 0, where the SU never transmits and the statistic, which is
    conditioned on transmission, has no draw.
    """
    if gamma_th < 0:
        raise ValueError("gamma_th must be >= 0")
    if gamma_th == 0.0:
        return 0.0, 0.0
    if lam == 0.0:
        return math.nan, math.nan
    et = derive_etas(geom)
    g = np.array([gamma_th, 2.0 * gamma_th])
    _, f1 = dist_gamma_ratio(g, et.eta1, cfg.gamma_bar_lin)
    f2 = _gamma2_cdf(g, geom, lam, cfg.p_cci_lin)
    lower, upper = np.maximum.accumulate(f1 + f2 - f1 * f2).tolist()
    return lower, upper


def dist_su_upper(x, geom: ScenarioGeometry, cfg: PowerConfig):
    """pdf/cdf of the SU-side upper-bound SIR gamma3*gamma4/(gamma3+gamma4),
    evaluated over the whole array.

    With b = e/(x+e) for e = e2, e3, w = x^2/((x+e2)(x+e3)) and z = 1 - w:
        cdf = 1 - (b2 b3 w / 2) 2F1(2,2;3;z)
        pdf = (b2 b3 w / x) [(w - b2 b3) 2F1(2,2;3;z)
                             + (2/3) w (b2 + b3) 2F1(3,3;4;z)].
    Where w <= 0.5 the kernel takes w itself, so the pole cancellation at
    small x stays numerically exact, and since the two pdf terms there
    cancel to a part in e/x, the pdf takes the equal form
        (b2 b3 / z^2) [(1/(x+e2) + 1/(x+e3))(1 + w) - (w/x)(4 + 2 b2 b3 ln(w) / z)],
    whose terms do not. No intermediate overflows at any finite x. Where
    e2 or e3 overflows, its b is 1 and the law is the other ratio's,
    x/(x + e) (`dist_gamma_ratio`).
    """
    arr = _require_pos(x, "dist_su_upper")
    et = derive_etas(geom)
    e2 = et.eta2 * cfg.gamma_bar_lin
    e3 = et.eta3 * cfg.gamma_bar_lin
    if max(e2, e3) == np.inf:
        return dist_gamma_ratio(arr, min(e2, e3), 1.0)
    x = np.atleast_1d(arr)
    b2, b3 = e2 / (x + e2), e3 / (x + e3)
    bb = b2 * b3
    # below the smallest normal float, w moves no term of either law by a
    # rounding, and keeping it there keeps ln w and 1/w finite
    w = np.maximum((x / (x + e2)) * (x / (x + e3)), np.finfo(float).tiny)
    h223, pdf = np.empty_like(x), np.empty_like(x)
    lo = w <= 0.5
    xl, wl, bl = x[lo], w[lo], bb[lo]
    zl = 1.0 - wl
    h223[lo] = gauss_2f1_near_unit(2, 2, 3, wl)
    w_over_x = (xl / (xl + e2)) / (xl + e3)
    pdf[lo] = bl / (zl * zl) * ((1.0 / (xl + e2) + 1.0 / (xl + e3)) * (1.0 + wl)
                                - w_over_x * (4.0 + 2.0 * bl * np.log(wl) / zl))
    hi = ~lo
    xh, wh, bh = x[hi], w[hi], bb[hi]
    h223[hi] = gauss_2f1(2, 2, 3, 1.0 - wh)
    h334 = gauss_2f1(3, 3, 4, 1.0 - wh)
    pdf[hi] = bh * wh / xh * ((wh - bh) * h223[hi]
                              + (2.0 / 3.0) * wh * (b2[hi] + b3[hi]) * h334)
    cdf = 1.0 - 0.5 * bb * (w * h223)
    if arr.ndim == 0:
        return float(pdf[0]), float(cdf[0])
    return pdf, cdf


def su_outage_closed_form(gamma_th: float, geom: ScenarioGeometry, cfg: PowerConfig) -> float:
    """Outage of the SU-side upper-bound SIR: a lower bound on the SU outage."""
    if gamma_th <= 0:
        return 0.0
    _, cdf = dist_su_upper(gamma_th, geom, cfg)
    return float(cdf)


def _rate_block(draw, cfg, geom, lam, slice_draws, rng=None):
    """Under the optimal and then the fixed power: the sum and the sum of
    squares of log2(1 + gamma2), the sum of 0.5 log2(1 + gamma_bs1), and the
    count of draws where both are finite. It overwrites `draw`, whose
    slices draw the gain it lacks from `rng` (`_slices`). Each
    slice's BS terms come from `_bs_slice`, the fixed gamma2 into its free
    row; then the optimal policy packs its two terms of the counted draws at
    [m, m + counted) of h2 and u2 and the fixed one into g2 and f2, where m
    never exceeds the slice's start: into gains already read. Each sum runs
    over the same array as on the whole block, so the result does not depend
    on `slice_draws`."""
    draw = _at_mean(draw, cfg)
    p_fix = fixed_power(cfg, geom)
    packed = ((draw.h2, draw.u2), (draw.g2, draw.f2))
    counts = [0, 0]
    for piece in _slices(draw, slice_draws, rng):
        _, valid, (cci, head, _, p_su1, gamma1, gamma2, gamma2_fix, _), _ = _bs_slice(
            piece, cfg, geom, lam)
        _gamma2(piece, geom, p_fix, cci, out=gamma2_fix)
        for j, (gamma2, (obj, e2e)) in enumerate(zip((gamma2, gamma2_fix), packed)):
            gbs = _harmonic(gamma1, gamma2, gamma2, out=(p_su1, head))
            # gamma_bs1 is NaN or inf wherever gamma2 is, so this is every
            # draw where both are finite
            np.isfinite(gbs, out=valid)
            if not valid.all():
                gamma2, gbs = gamma2[valid], gbs[valid]
            m, k = counts[j], counts[j] + gamma2.size
            t_obj, t_e2e = obj[m:k], e2e[m:k]
            np.divide(np.log1p(gamma2, out=t_obj), _LN2, out=t_obj)
            np.divide(np.multiply(np.log1p(gbs, out=t_e2e), 0.5, out=t_e2e), _LN2, out=t_e2e)
            counts[j] = k
    sums = []
    for (obj, e2e), m in zip(packed, counts):
        obj = obj[:m]
        total = float(obj.sum())  # before the row is squared in place
        sums += (total, float(np.square(obj, out=obj).sum()), float(e2e[:m].sum()), m)
    return sums


def rate_curve(geom: ScenarioGeometry, cfg: PowerConfig, lam: float, sir_grid_db,
               trials: int, seed: int, workers: int = 1) -> list[RateEstimate]:
    """Expected-rate sweep over the average-SIR operating points of
    `sir_grid_db` under the optimal and the fixed power policy.

    Emits both the allocation objective E[log2(1+gamma2)] and the
    end-to-end half-duplex rate E[0.5 log2(1+gamma_bs1)] per point: every
    point's optimal estimate first, then every fixed one (the CSV's row
    order). Point k draws its blocks from streams (seed, k * 1,000,000 + i)
    once, and both policies are evaluated on those same draws.
    Deterministic for a given seed regardless of `workers`.
    """
    if trials < RATE_MIN_TRIALS:
        raise ValueError(f"trials must be >= {RATE_MIN_TRIALS} per grid point")
    if lam is None or lam < 0:
        raise ValueError("optimal policy requires a solved water level")
    configs = [replace(cfg, gamma_bar_db=float(sir_db)) for sir_db in sir_grid_db]
    sums = _sweep(_rate_block, [(c, geom, lam, SLICE_DRAWS) for c in configs],
                  trials, seed, workers, w2=False)
    out = []
    for j, policy in enumerate(("optimal", "fixed")):
        for sir_db, point in zip(sir_grid_db, sums):
            s, ss, se, n_valid = point[4 * j:4 * j + 4]
            n = n_valid or math.nan  # no finite draw (P_fix overflows): NaN estimates
            mean_obj = s / n
            var = max(ss / n - mean_obj * mean_obj, 0.0)
            out.append(RateEstimate(
                sir_db=float(sir_db), policy=policy,
                rate_objective=mean_obj, rate_endtoend=se / n,
                ci_halfwidth=1.96 * math.sqrt(var / n), trials=n_valid))
    return out


def _validation_block(draw, cfg, geom, lam, slice_draws, rng=None):
    """For `validate`'s sampled checks at cfg's gamma_bar: the sum of the
    constraint's per-draw excess (lam - eta4 P T)^+, T = (q^-eps u2 +
    r^-eps v2) f2/g2, then the counts of draws that break the gamma_bs1
    sandwich min/2 <= gamma_bs1 <= min(gamma1, gamma2), that have an SINR
    above gamma_bs1, and whose SU SIR meets its upper bound other than
    exactly where P_su1 = 0. It overwrites `draw`, whose slices draw w2
    from `rng` (`_slices`); each slice packs its excess into its own
    elements of h2, which it has already read, and the excess sum runs over
    the whole row, so the result does not depend on `slice_draws`."""
    draw = _at_mean(draw, cfg)
    e, c = geom.epsilon, derive_etas(geom).eta4 * cfg.p_cci_lin
    slack = 1e-13
    row = [0.0, 0, 0, 0]
    for piece in _slices(draw, slice_draws, rng):
        s = sir_sample(piece, geom, cfg, lam)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (geom.q ** -e * piece.u2 + geom.r ** -e * piece.v2) * piece.f2 / piece.g2
        np.maximum(lam - c * t, 0.0, out=piece.h2)
        fin = s.valid & np.isfinite(s.gamma_bs1) & np.isfinite(s.gamma1) & np.isfinite(s.gamma2)
        gbs, mn = s.gamma_bs1[fin], np.minimum(s.gamma1[fin], s.gamma2[fin])
        row[1] += int(np.count_nonzero((gbs > mn * (1 + slack)) | (gbs < 0.5 * mn * (1 - slack))))
        row[2] += int(np.count_nonzero(sinr_bs_combine(s.gamma1, s.gamma2)[fin] > gbs))
        up = s.valid & np.isfinite(s.gamma_su1_upper)
        eq = s.gamma_su1[up] == s.gamma_su1_upper[up]
        row[3] += int(np.count_nonzero(eq != (s.p_su1[up] == 0.0)))
    row[0] = float(draw.h2.sum())
    return row
