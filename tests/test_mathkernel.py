"""Math-kernel tests: oracle values come from quadrature, brute-force series,
or asymptotic truncations computed in the test itself."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from curelay import mathkernel
from curelay.mathkernel import (
    EULER_GAMMA,
    BracketError,
    IntegrationError,
    NumericTolerance,
    exp_e1,
    gauss_2f1,
    gauss_2f1_near_unit,
    integrate,
    solve_root_monotone,
    tricomi_psi11,
)

TIGHT = NumericTolerance(rel_tol=1e-13, abs_tol=1e-300, max_iter=4000)


# ---------------------------------------------------------------------------
# NumericTolerance
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    {"rel_tol": 0.0}, {"rel_tol": -1e-3}, {"abs_tol": -1.0}, {"max_iter": 0},
])
def test_tolerance_invariants(kwargs):
    with pytest.raises(ValueError):
        NumericTolerance(**kwargs)


# ---------------------------------------------------------------------------
# E1
# ---------------------------------------------------------------------------


def test_e1_small_x_log_limit():
    # E1(x) = -gamma - ln x + x + O(x^2): check the log limit to first order
    for x in (1e-8, 1e-7, 1e-6):
        assert abs(exp_e1(x) + math.log(x) + EULER_GAMMA) <= 2 * x


# SHA-256 of exp_e1 and tricomi_psi11 on np.geomspace(5e-324, 1.0, 200_001),
# subnormals included: the E1 series' bits, taken with 40 series terms
E1_SERIES_DIGESTS = {
    "exp_e1": "971a6546ee0db7b80e14da57351b9457ba51c8fb20a8d7b02f91c1b903d4c476",
    "tricomi_psi11": "701613b8f21de06ca948d2d7eebdef0aa99f816199292faa28f5daaf9d6450d3",
}


@pytest.mark.parametrize("f", [exp_e1, tricomi_psi11])
def test_e1_series_bits_at_and_below_one(f):
    out = f(np.geomspace(5e-324, 1.0, 200_001))
    assert hashlib.sha256(out.tobytes()).hexdigest() == E1_SERIES_DIGESTS[f.__name__]


def test_e1_at_one_vs_quadrature():
    oracle = integrate(lambda t: np.exp(-t) / t, 1.0, math.inf, TIGHT).value
    assert exp_e1(1.0) == pytest.approx(oracle, rel=1e-10)


def test_e1_large_x_asymptotic():
    # e^{-x}/x (1 - 1/x + 2/x^2) with next-term truncation bound 6/x^3
    x = 50.0
    lead = math.exp(-x) / x
    trunc = lead * (1.0 - 1.0 / x + 2.0 / x**2)
    assert abs(exp_e1(x) - trunc) <= lead * 6.0 / x**3
    assert exp_e1(x) == pytest.approx(trunc, rel=1e-4)
    # and against quadrature, tightly
    oracle = integrate(lambda t: np.exp(-(t + x)) / (t + x), 0.0, math.inf, TIGHT).value
    assert exp_e1(x) == pytest.approx(oracle, rel=1e-10)


def test_e1_domain_error():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            exp_e1(bad)
    with pytest.raises(ValueError):
        exp_e1(np.array([1.0, -2.0]))


def test_e1_vectorized_matches_scalar():
    xs = np.geomspace(1e-6, 300.0, 37)
    vec = exp_e1(xs)
    assert vec.shape == xs.shape
    for i, x in enumerate(xs):
        assert vec[i] == exp_e1(float(x))


# ---------------------------------------------------------------------------
# Psi(1,1,x)
# ---------------------------------------------------------------------------


def test_psi_asymptotic_ratio():
    for x in (1e4, 1e6, 1e8):
        assert tricomi_psi11(x) * x == pytest.approx(1.0, rel=1e-3)


def test_psi_is_exp_times_e1():
    x = 1.0
    assert tricomi_psi11(x) == pytest.approx(math.exp(x) * exp_e1(x), rel=1e-14)


def test_psi_integral_representation():
    # Psi(1,1,a) = int_0^inf e^{-a t}/(1+t) dt
    for a in (0.01, 0.5, 3.0, 40.0):
        oracle = integrate(lambda t: np.exp(-a * t) / (1.0 + t), 0.0, math.inf, TIGHT).value
        assert tricomi_psi11(a) == pytest.approx(oracle, rel=1e-11)


def test_psi_strictly_decreasing():
    xs = np.geomspace(1e-8, 1e8, 300)
    vals = tricomi_psi11(xs)
    assert (np.diff(vals) < 0).all()


def test_psi_domain_error():
    with pytest.raises(ValueError):
        tricomi_psi11(-0.5)


def _psi_cf_guarded(x):
    """Lentz's scheme for e^x E1(x) with its zero-denominator guards, element
    by element on Python floats: the reference for mathkernel._psi_cf."""
    tiny = 1e-300
    out = []
    for xi in x.tolist():
        f = c = xi + 1.0
        d = 0.0
        for k in range(1, 400):
            a = -float(k * k)
            b = xi + (2 * k + 1)
            d = b + a * d
            if abs(d) < tiny:
                d = tiny
            c = b + a / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = c * d
            f = f * delta
            if not abs(delta - 1.0) > 1e-16:
                break
        out.append(1.0 / f)
    return np.array(out)


def test_psi_cf_without_guards_matches_guarded_reference():
    # the special values alone finish on Python floats; among 2,000 others
    # they go through the numpy loop
    special = np.array([1.0 + 1e-15, 1.5, 2.0, 1e300, 1.7e308, np.inf])
    rng = np.random.default_rng(8)
    cases = [
        special,
        rng.permutation(np.concatenate([special, 1.0 + rng.exponential(5.0, 2000)])),
        np.exp(rng.uniform(0.0, 700.0, 500)),
        1.0 + rng.uniform(0.0, 1e-3, 100),
    ]
    for x in cases:
        with np.errstate(invalid="ignore"):
            got = mathkernel._psi_cf(x.copy())
        assert got.tobytes() == _psi_cf_guarded(x).tobytes()
        assert np.isnan(got[np.isinf(x)]).all()


# ---------------------------------------------------------------------------
# 2F1
# ---------------------------------------------------------------------------


def brute_series(a, b, c, z, cap=10**6):
    """Term-by-term Gauss series with compensated (Kahan) summation."""
    total, comp = 1.0, 0.0
    term = 1.0
    for k in range(cap):
        term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) < 1e-18 * abs(total):
            break
    return total


def test_2f1_empty_series():
    assert gauss_2f1(2, 2, 3, 0.0) == 1.0


def test_2f1_against_brute_series():
    for z in (0.9, 0.75, 0.3, -0.4):
        assert gauss_2f1(2, 2, 3, z) == pytest.approx(brute_series(2, 2, 3, z), rel=1e-10)
        assert gauss_2f1(3, 3, 4, z) == pytest.approx(brute_series(3, 3, 4, z), rel=1e-10)


def test_2f1_near_unit_pole():
    # (1-z)^{-1} pole with log correction: closed form for (2,2;3)
    for w in (1e-12, 1e-8, 1e-3):
        z = 1.0 - w
        closed = (2.0 / z**2) * (z / w + math.log(w))
        assert gauss_2f1_near_unit(2, 2, 3, w) == pytest.approx(closed, rel=1e-11)


def test_2f1_negative_arguments():
    for z in (-0.9, -7.0, -1e4):
        ref223 = (2.0 / z**2) * (z / (1 - z) + math.log1p(-z))
        assert gauss_2f1(2, 2, 3, z) == pytest.approx(ref223, rel=1e-10)


def test_2f1_derivative_identity():
    # d/dz 2F1(a,b;c;z) = (ab/c) 2F1(a+1,b+1;c+1;z), central differences
    rng = np.random.default_rng(1)
    zs = rng.uniform(0.0, 0.99, size=100)
    for z in zs:
        h = 1e-6 * max(1e-3, 1.0 - z)
        fd = (gauss_2f1(2, 2, 3, z + h) - gauss_2f1(2, 2, 3, z - h)) / (2 * h)
        assert fd == pytest.approx(4 / 3 * gauss_2f1(3, 3, 4, z), rel=1e-6)


def test_2f1_domain_errors():
    with pytest.raises(ValueError):
        gauss_2f1(2, 2, 3, 1.0)
    with pytest.raises(ValueError):
        gauss_2f1(2, 2, 0, 0.5)
    with pytest.raises(ValueError):
        gauss_2f1(1.5, 2, 3, 0.5)
    with pytest.raises(ValueError):
        gauss_2f1_near_unit(2, 2, 3, 0.0)
    with pytest.raises(ValueError):
        gauss_2f1_near_unit(3, 3, 4, [0.25, 0.75])
    with pytest.raises(ValueError):
        gauss_2f1(3, 3, 4, [0.5, np.nan])
    # only the two triples of the SU upper-bound law are implemented
    for triple in ((2, 1, 4), (1, 1, 2), (3, 2, 3), (2, 2, 4)):
        with pytest.raises(ValueError, match="supports only"):
            gauss_2f1_near_unit(*triple, 0.25)
        with pytest.raises(ValueError, match="supports only"):
            gauss_2f1(*triple, 0.75)


@pytest.mark.parametrize("triple", [(2, 2, 3), (3, 3, 4)])
def test_2f1_vs_mpmath(triple):
    mpmath = pytest.importorskip("mpmath")
    zs = np.concatenate([-np.geomspace(1e4, 1e-6, 120), np.linspace(-1.0, 0.999, 121),
                         1.0 - np.geomspace(0.5, 1e-12, 120),
                         [0.5, np.nextafter(0.5, 1.0), -0.5, np.nextafter(-0.5, -1.0)]])
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.hyp2f1(*triple, mpmath.mpf(z))) for z in zs])
    mine = gauss_2f1(*triple, zs)
    assert np.abs(mine / ref - 1.0).max() < 1e-13
    # an element's value does not depend on the array it arrives in
    assert [gauss_2f1(*triple, z) for z in zs] == mine.tolist()
    near = zs > 0.5
    assert np.array_equal(gauss_2f1_near_unit(*triple, 1.0 - zs[near]), mine[near])


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------


def test_integrate_exponential_tail():
    r = integrate(lambda t: np.exp(-t), 0.0, math.inf, TIGHT)
    assert abs(r.value - 1.0) < 1e-12


def test_integrate_log_singularity():
    r = integrate(np.log, 0.0, 1.0, NumericTolerance(1e-10, 1e-12, 4000))
    assert r.value == pytest.approx(-1.0, rel=1e-9)


@pytest.mark.parametrize("lo, hi", [(-math.inf, 0.0), (-math.inf, math.inf), (math.nan, 1.0)])
def test_integrate_rejects_a_lower_limit_that_is_not_finite(lo, hi):
    with pytest.raises(ValueError, match="finite lo < hi"):
        integrate(lambda t: np.exp(-t * t), lo, hi, TIGHT)


def test_integrate_orientation_and_empty():
    # an empty range is 0 (a limit such as lam/b may underflow to 0)
    assert integrate(lambda t: t, 1.0, 1.0).value == 0.0
    fwd = integrate(lambda t: t * t, 0.0, 2.0, TIGHT).value
    assert fwd == pytest.approx(8.0 / 3.0, rel=1e-13)
    for lo, hi in ((2.0, 0.0), (math.inf, 0.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="finite lo < hi"):
            integrate(lambda t: t * t, lo, hi, TIGHT)


def test_integrate_linearity():
    tol = NumericTolerance(1e-10, 1e-13, 2000)
    rng = np.random.default_rng(11)
    for _ in range(5):
        al, be = rng.uniform(-3, 3, size=2)
        c0, c1 = rng.uniform(0.5, 2.0, size=2)

        def f(t):
            return np.exp(-c0 * t) * np.sin(t)

        def g(t):
            return 1.0 / (1.0 + c1 * t * t)

        lhs = integrate(lambda t: al * f(t) + be * g(t), 0.0, 5.0, tol).value
        rhs = al * integrate(f, 0.0, 5.0, tol).value + be * integrate(g, 0.0, 5.0, tol).value
        assert abs(lhs - rhs) <= 10 * max(tol.rel_tol * abs(lhs), tol.abs_tol) + 1e-12


def test_integrate_reports_failure_with_partial():
    # absurd budget on a hard integrand
    with pytest.raises(IntegrationError) as err:
        integrate(lambda t: np.sin(1.0 / t) / np.sqrt(t), 0.0, 1.0,
                  NumericTolerance(1e-14, 1e-300, 3))
    assert math.isfinite(err.value.partial)
    assert err.value.error_bound > 0


def test_integrate_deterministic():
    def f(t):
        return np.exp(-t) * np.cos(3 * t)

    a = integrate(f, 0.0, math.inf, TIGHT)
    b = integrate(f, 0.0, math.inf, TIGHT)
    assert a.value == b.value and a.error_bound == b.error_bound


def _peak(t):
    return 1.0 / (1e-4 + (t - 0.3) ** 2)


# elementwise integrands: a plan must not move a bit of their results
REPLAY_CASES = {
    "peak": (_peak, 0.0, 2.0, TIGHT),
    "log singularity": (np.log, 0.0, 1.0, NumericTolerance(1e-10, 1e-12, 4000)),
    "oscillating tail": (lambda t: np.exp(-t) * np.cos(3 * t), 0.0, math.inf, TIGHT),
    "budget exhausted": (lambda t: np.sin(1.0 / t) / np.sqrt(t), 0.0, 1.0,
                         NumericTolerance(1e-14, 1e-300, 40)),
}


def _outcome(case, plan=()):
    """The run's bits, or its failure, and the plan it leaves: its splits."""
    f, lo, hi, tol = REPLAY_CASES[case]
    plan = set(plan)
    try:
        r = integrate(f, lo, hi, tol, plan=plan)
    except IntegrationError as exc:
        return str(exc), exc.partial.hex(), exc.error_bound.hex(), plan
    return r.value.hex(), r.error_bound.hex(), r.panels, plan


@pytest.mark.parametrize("case", list(REPLAY_CASES))
def test_integrate_result_does_not_depend_on_the_plan(case):
    # neither the outcome nor the plan the run leaves
    base = _outcome(case)
    own = base[-1]
    assert own
    plans = {
        "over-predicting": own | set(range(1, 256)) | {2 * k for k in own},
        "under-predicting": sorted(own)[::2],
        "another integrand's": _outcome("peak" if case != "peak" else "log singularity")[-1],
        "unreachable ids": {0, -3, 2 ** 80},
    }
    for name, plan in plans.items():
        assert _outcome(case, plan) == base, name


def test_integrate_leaves_its_own_splits_in_a_plan_when_it_fails():
    # a run out of budget splits once per subdivision, each split panel
    # reached from the root, and the stale ids go
    plan = {0, 3, 2 ** 80}
    with pytest.raises(IntegrationError):
        integrate(lambda t: np.sin(1.0 / t) / np.sqrt(t), 0.0, 1.0,
                  NumericTolerance(1e-14, 1e-300, 40), plan=plan)
    assert len(plan) == 40 and all(k == 1 or k // 2 in plan for k in plan)
    # an empty range splits nothing
    integrate(lambda t: t, 1.0, 1.0, plan=plan)
    assert plan == set()


def test_integrate_replays_its_plan_in_few_calls():
    sizes = []

    def f(t):
        sizes.append(t.size)
        return _peak(t)

    # without a plan: the root, then unplanned calls that take 1, 2, 4, ...
    # splits, as many as the heap's first levels offer and the remaining
    # error can need
    plan = set()
    base = integrate(f, 0.0, 2.0, TIGHT, plan=plan)
    own, n = set(plan), len(plan)
    assert 0 < n <= 67 and sizes == [15, 30] + [60] * 6 + [180, 120]
    # the run's own plan: one call on every abscissa the run needs
    sizes.clear()
    again = integrate(f, 0.0, 2.0, TIGHT, plan=plan)
    assert sizes == [15 + 30 * n] and again == base and plan == own
    # a large plan goes in calls of at most 2048 abscissae
    sizes.clear()
    plan = set(range(1, 256))
    integrate(f, 0.0, 2.0, TIGHT, plan=plan)
    assert sizes[:4] == [15 + 30 * 67, 30 * 68, 30 * 68, 30 * 52]
    assert max(sizes) <= 2048 and plan == own


@pytest.mark.parametrize("case", list(REPLAY_CASES))
def test_integrate_batches_do_not_move_a_bit(case, monkeypatch):
    # unplanned splits evaluated in batches of up to _BATCH_CAP, against one
    # per call (cap 1) and against the scalar abscissae of one split per call:
    # the same outcome, and every abscissa of the latter among the batches'
    calls = []
    f, lo, hi, tol = REPLAY_CASES[case]

    def recording(t):
        calls.append(t.copy())
        return f(t)

    monkeypatch.setitem(REPLAY_CASES, case, (recording, lo, hi, tol))

    def scalar_split(g, heap, planned, first, *rest):
        a, b, _ = first
        m = 0.5 * (a + b)
        halves = np.concatenate([mathkernel._gk15_nodes(a, m), mathkernel._gk15_nodes(m, b)])
        return np.asarray(g(halves), dtype=float)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batched = _outcome(case)
        batched_x = set(np.concatenate(calls).tolist())
        monkeypatch.setattr(mathkernel, "_BATCH_CAP", 1)
        assert _outcome(case) == batched
        calls.clear()
        monkeypatch.setattr(mathkernel, "_batch", scalar_split)
        assert _outcome(case) == batched
    assert {t.size for t in calls[1:]} == {30}
    assert set(np.concatenate(calls).tolist()) <= batched_x


def test_integrate_batches_the_splits_of_an_exhausted_budget():
    # 2000 splits of a quadrature that fails: under 200 calls, not 2000
    calls = []

    def f(t):
        calls.append(t.size)
        return np.sin(1.0 / t) / np.sqrt(t)

    with pytest.raises(IntegrationError):
        integrate(f, 0.0, 1.0, NumericTolerance(1e-14, 1e-300, 2000))
    assert len(calls) < 200 and max(calls) == 30 * mathkernel._BATCH_CAP


# ---------------------------------------------------------------------------
# solve_root_monotone
# ---------------------------------------------------------------------------


def test_root_identity():
    x, gx = solve_root_monotone(lambda x: x, 5.0)
    assert x == pytest.approx(5.0, abs=1e-9) and gx == x


def test_root_at_zero_returns_g_at_zero():
    # g(0) already within the stop test: no other call
    calls = []

    def g(x):
        calls.append(x)
        return x + 5.0 - 1e-12

    assert solve_root_monotone(g, 5.0) == (0.0, 5.0 - 1e-12)
    assert calls == [0.0]


def test_root_precondition_violation():
    with pytest.raises(BracketError):
        solve_root_monotone(lambda x: x + 10.0, 5.0)


def test_root_ceiling_diagnostics():
    # the bracket doubles from the target up to CEILING_FACTOR times it, so
    # a target of 0 meets the ceiling at once
    for g, target, ceiling in [(math.tanh, 2.0, "2000000.0"), (lambda x: x - 1.0, 0.0, "0.0")]:
        with pytest.raises(BracketError, match=f"ceiling {ceiling}:"):
            solve_root_monotone(g, target)


def test_root_random_piecewise_linear():
    rng = np.random.default_rng(3)
    for _ in range(20):
        knots = np.sort(rng.uniform(0.0, 10.0, size=6))
        slopes = rng.uniform(0.1, 3.0, size=7)

        def g(x, knots=knots, slopes=slopes):
            acc = 0.0
            prev = 0.0
            for k, s in zip(knots, slopes[:-1]):
                seg = min(x, k) - prev
                if seg <= 0:
                    return acc
                acc += s * seg
                prev = k
            return acc + slopes[-1] * (x - prev) if x > prev else acc

        x0 = rng.uniform(0.5, 9.5)
        target = g(x0)
        x, gx = solve_root_monotone(g, target)
        assert gx == g(x) and abs(gx - target) <= 1e-10 * max(1.0, abs(target))


def test_root_sampled_expectation():
    # g(x) = E[(x - T)^+] over a fixed sample, target picked mid-range
    rng = np.random.default_rng(8)
    t_sample = rng.exponential(2.0, size=20_000)

    def g(x):
        return float(np.maximum(x - t_sample, 0.0).mean())

    x, gx = solve_root_monotone(g, 2.0)
    assert gx == g(x) and abs(gx - 2.0) <= 1e-9 * 2.0


@pytest.mark.parametrize("jump", [False, True])
def test_root_bisection_calls_g_at_most_once_at_each_x(jump):
    # a bracket at the first step, x = 8; with a jump across the target the
    # bisection stalls, and the error carries its last step's x and residual
    calls = []

    def step(x):
        return (10.0 if x >= math.pi else 0.0) if jump else 8.0 * x / math.pi

    def g(x):
        calls.append(x)
        return step(x)

    if jump:
        with pytest.raises(BracketError, match="bisection stalled") as err:
            solve_root_monotone(g, 8.0)
        x = calls[-1]
        assert f"x={x!r}, residual {step(x) - 8.0!r} exceeds" in str(err.value)
    else:
        x, gx = solve_root_monotone(g, 8.0)
        assert (x, gx) == (calls[-1], step(calls[-1]))
        assert x == pytest.approx(math.pi, abs=1e-9)
    assert calls[:3] == [0.0, 8.0, 4.0]
    assert len(set(calls)) == len(calls) > 30


@pytest.mark.parametrize("root", [math.pi, 4.0 + 1e-12])
def test_root_search_calls_g_at_most_once_at_each_x_after_the_bracket_doubles(root):
    # the bracket doubles from the target 0.25, and the bisection's first
    # midpoint is its last step below the target: 2 for pi, 4 for 4 + 1e-12,
    # where that step already meets the stop test. The returned value is the
    # object one call at x returned
    calls, values = [], []

    def g(x):
        calls.append(x)
        values.append(x / (4.0 * root))
        return values[-1]

    x, gx = solve_root_monotone(g, 0.25)
    assert calls[:6] == [0.0, 0.25, 0.5, 1.0, 2.0, 4.0]
    assert len(set(calls)) == len(calls)
    assert gx is values[calls.index(x)]
    assert abs(gx - 0.25) <= 1e-10
    if root > 4.0:
        assert (x, calls[6:]) == (4.0, [8.0])
