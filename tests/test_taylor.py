"""Taylor-series flow of the critical equation against the closed-form
homoclinic, its own longdouble run and the Dormand-Prince path."""

import dataclasses
import importlib
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fowler4 import odes
from fowler4 import shooting as sh
from fowler4 import taylor
from fowler4.asymptotics import geometric_grid
from fowler4.bubble import bubble_constant_closed_form
from fowler4.integrate import Event, integrate
from fowler4.polys import peval

integ_module = importlib.import_module("fowler4.integrate")


@pytest.fixture(scope="module")
def consts6():
    return sh.critical_constants(6)


@pytest.fixture(scope="module")
def orbit6(consts6):
    return sh.find_b(6, 0.6 * consts6.a0, consts=consts6)


_NEEDS_LD = pytest.mark.skipif(not sh._LONGDOUBLE_OK, reason="longdouble is float64 here")


@pytest.mark.parametrize(
    "n, scal, rel",
    [pytest.param(n, float, 1e-15, id=f"{n}") for n in (5, 6, 7)]
    + [pytest.param(n, np.longdouble, 1e-18, id=f"{n}-longdouble", marks=_NEEDS_LD)
       for n in (5, 6, 7)])
def test_series_low_orders_match_the_equation(n, scal, rel):
    # 24 v_4 is v'''' from the right-hand side; 120 v_5 its time derivative,
    # which the first step of the power recurrence (w_1) feeds
    cc = sh.critical_constants(n)
    dtype = np.float64 if scal is float else scal
    c, K2, K0, P = (scal(x) for x in (cc.c, cc.K2, cc.K0, cc.power))
    for y in ([0.3 * cc.a0, 0.02, 0.1, -0.05], [1.2 * cc.a0, -0.4, 0.3, 0.7]):
        y = [scal(x) for x in y]
        coef = taylor.series(cc, y)
        assert all(type(x) is scal for cs in coef for x in cs)
        v4 = sh.make_critical_rhs(cc, dtype)(0.0, np.array(y, dtype))[3]
        assert abs(24 * coef[0][4] - v4) <= rel * abs(v4)
        assert abs(coef[3][1] - v4) <= rel * abs(v4)
        v5 = c * P * y[0] ** (P - 1) * y[1] - K2 * y[3] - K0 * y[1]
        assert abs(120 * coef[0][5] - v5) <= 100 * rel * abs(v5)


def _dopri_first_max(cc, a, b):
    ev = Event(g=lambda t, y: float(y[1]), direction=-1, terminal=True)
    tr = integrate(sh.make_critical_rhs(cc), 0.0, np.array([a, 0.0, b, 0.0]), sh._T_MAX,
                   rel_tol=1e-12, abs_tol=1e-14, guard=taylor._ORBIT_GUARD, events=[ev])
    return tr.events[0][0]


def _dopri_classify(cc, a, b):
    """Crash/escape side of b by Dormand-Prince: -1 below, +1 above."""
    down = Event(g=lambda t, y: float(y[0]), direction=-1, terminal=True)
    tr = integrate(sh.make_critical_rhs(cc), 0.0, np.array([a, 0.0, b, 0.0]), sh._T_MAX,
                   rel_tol=1e-9, abs_tol=1e-11, guard=1e4, events=[down])
    if tr.status == "event":
        return -1
    if tr.status == "blowup":
        return 1 if float(tr.y[-1][0]) > 0 else -1
    return 1  # bounded to the horizon: at or beyond the boundary


@pytest.mark.parametrize("n, frac", [(5, 0.3), (6, 0.999)])
def test_classify_matches_dormand_prince_on_the_bracket_grid(n, frac):
    cc = sh.critical_constants(n)
    a = frac * cc.a0
    grid = geometric_grid(1e-6, 10.0 * cc.K0 * cc.a0, 25)   # find_b's
    side = sh._search(cc, a, {})[0]
    sides = [side(b) for b in grid]
    assert sides == [_dopri_classify(cc, a, b) for b in grid]
    assert -1 in sides and 1 in sides


def test_taylor_root_matches_dormand_prince_root(orbit6, consts6):
    # F(b) = v'''(t1) evaluated by float64 Dormand-Prince, Brent inside
    # +-1e-9 of the Taylor root, as the longdouble refinement brackets
    a = 0.6 * consts6.a0
    F = lambda b: _dopri_first_max(consts6, a, float(b))[1][3]
    b = sh._brent(F, orbit6.b * (1 - 1e-9), orbit6.b * (1 + 1e-9))
    T = 2.0 * _dopri_first_max(consts6, a, float(b))[0]
    assert orbit6.precision == "float64" and orbit6.converged
    assert abs(orbit6.b - b) <= 1e-12 * abs(b)
    assert abs(orbit6.T - T) <= 1e-10


def test_orbit_dense_output_reproduces_nodes(orbit6):
    o = orbit6.orbit
    assert o.dense.shape == (len(o.t) - 1, 4, taylor._ORDER)
    assert np.array_equal(o(o.t[:-1]), o.y[:-1])
    # each step's series at theta = 1 lands on the next node
    ends = o.y[:-1] + o.h[:, None] * o.dense.sum(axis=2)
    assert np.max(np.abs(ends - o.y[1:])) <= 1e-15
    assert np.max(np.abs(o(o.t[-1]) - o.y[-1])) <= 1e-15


@_NEEDS_LD
def test_orbit_agrees_with_longdouble_taylor_orbit(orbit6, consts6):
    # the float64 Dormand-Prince orbit at the search's 1e-12 drifts by ~1e-7
    # over the period here, and roundoff holds a float64 run near 1e-9 at
    # any tolerance; the flow from the same (a, b) in longdouble is the
    # reference
    a, b, T = 0.6 * consts6.a0, orbit6.b, orbit6.T
    ld = np.longdouble
    ref = taylor.flow(consts6, (ld(a), ld(0.0), ld(b), ld(0.0)), T)
    # the run is longdouble, its record float64
    assert ref.status == "reached"
    assert all(x.dtype == np.float64 for x in (ref.t, ref.y, ref.h, ref.dense))
    ts = np.linspace(0.0, T, 1601)
    assert np.max(np.abs(ref(ts) - orbit6.orbit(ts))) <= 1e-9


def _homoclinic(n, t):
    """(v, v', v'', v''') of v = (cosh t)^(-k), k = (n - 4)/2, in longdouble."""
    k = np.longdouble(n - 4) / 2
    t = np.asarray(t, np.longdouble)
    s, tau = 1 / np.cosh(t), np.tanh(t)
    sk = s ** k
    return np.stack([sk, -k * sk * tau, sk * (k * (k + 1) * tau ** 2 - k),
                     sk * tau * (k * (3 * k + 2) - k * (k + 1) * (k + 2) * tau ** 2)], axis=-1)


_LD80 = pytest.mark.skipif(np.finfo(np.longdouble).eps != 2.0 ** -63,
                           reason="longdouble is not 80-bit extended here")


@pytest.mark.parametrize(
    "n, scal",
    [pytest.param(n, float, id=f"{n}") for n in range(5, 10)]
    + [pytest.param(n, np.longdouble, id=f"{n}-longdouble", marks=_LD80)
       for n in range(5, 10)])
def test_flow_follows_the_closed_form_homoclinic(n, scal):
    """The bubble v = (cosh t)^(-k) solves the equation exactly with the
    closed-form c.  Rounding grows along the saddle's unstable root
    lambda_u of l^4 + K2 l^2 + K0 = 0 while the orbit decays like
    e^(-k t), so the relative error grows like e^((lambda_u + k) t).
    Measured against a 40-digit evaluation, error / (eps e^((lambda_u + k) t))
    was at most 0.62 in float64 and 0.88 in longdouble at every node for
    n = 5..9, with eps the larger of the type's epsilon and the float64
    rounding of P = (n + 4)/(n - 4) (~1e-16 at n = 7 and 9).  The
    longdouble evaluation of the bubble was within 11 of its own ULPs.
    Each n runs until the growth factor reaches 1e6."""
    cc = dataclasses.replace(sh.critical_constants(n), c=bubble_constant_closed_form(n))
    k = (n - 4) / 2
    rate = math.sqrt((-cc.K2 + math.sqrt(cc.K2 ** 2 - 4 * cc.K0)) / 2) + k
    P = Fraction(n + 4, n - 4)
    eps = max(float(np.finfo(scal).eps), float(abs(Fraction(cc.power) - P) / P))
    # the nodes of the step loop, in the run's type (flow rounds them to float64)
    status, ts, ys, _, _, _ = taylor.march(cc, [scal(x) for x in (1.0, 0.0, -k, 0.0)],
                                           math.log(1e6) / rate)
    t, y = np.array(ts, scal), np.array(ys, scal)
    assert status == "reached" and y.dtype == np.dtype(scal)
    ref = _homoclinic(n, t)
    err = np.max(np.abs(y - ref), axis=1) / np.max(np.abs(ref), axis=1)
    bound = 2 * eps * np.exp(rate * t) + 16 * np.finfo(np.longdouble).eps
    assert np.all(err <= bound)


@pytest.mark.parametrize("scale", [2.0, 100.0])
def test_escape_side_F_is_undefined_within_bounded_steps(orbit6, consts6, scale):
    a = 0.6 * consts6.a0
    stats = {}
    _, F, firsts = sh._search(consts6, a, stats)
    assert F(scale * orbit6.b) is None and firsts == {scale * orbit6.b: (None, None)}
    assert stats["float64"]["integrations"] == 1
    assert 0 < stats["float64"]["steps"] <= 100


def test_fate_premise_holds_for_every_dimension():
    # taylor._fate's regions are forward-invariant only where K0 > 0 > K2,
    # c > 0 and P > 1
    for n in range(5, 17):
        for c_mode in ("measured", "unit"):
            cc = sh.critical_constants(n, c_mode)
            assert cc.K0 > 0 > cc.K2 and cc.c > 0 and cc.power > 1, (n, c_mode)


def test_fate_regions_end_at_the_equilibrium_and_the_horizon():
    a0, t_end = 0.5, 80.0
    for v in (0.99 * a0, 1.01 * a0):
        assert taylor._fate(a0, 0.0, [v, 1.0, 1.0, 1.0], t_end) == ("escape" if v > a0 else None)
        assert taylor._fate(a0, 0.0, [v, -1.0, -1.0, -1.0], t_end) == ("crash" if v < a0 else None)
    for i in (1, 2, 3):
        up, down = [a0 * 2, 1.0, 1.0, 1.0], [a0 / 2, -1.0, -1.0, -1.0]
        up[i], down[i] = -up[i], -down[i]
        assert taylor._fate(a0, 0.0, up, t_end) is taylor._fate(a0, 0.0, down, t_end) is None
    # v = 0 is due at t + v/(-v'): 79.5 is inside the horizon, 81.25 is not
    assert taylor._fate(a0, 79.0, [a0 / 2, -0.5, -1.0, -1.0], t_end) == "crash"
    assert taylor._fate(a0, 79.0, [a0 / 2, -0.1, -1.0, -1.0], t_end) is None


def test_shooting_runs_stop_at_their_decided_fate(orbit6, consts6):
    a, a0 = 0.6 * consts6.a0, consts6.a0
    # above the root: the first-maximum run has no maximum and stops escaping
    status, ts, ys, _, _, _ = taylor.march(consts6, (a, 0.0, 2 * orbit6.b, 0.0), sh._T_MAX,
                                           first_max=True)
    v, v1, v2, v3 = ys[-1]
    assert status == "escape" and v > a0 and min(v1, v2, v3) > 0
    # the one-period flow is the same run: it stops escaping on the same node
    tr = taylor.flow(consts6, (a, 0.0, 2 * orbit6.b, 0.0), sh._T_MAX)
    _, ts, ys, _, _, _ = taylor.march(consts6, (a, 0.0, 2 * orbit6.b, 0.0), sh._T_MAX)
    assert tr.status == "escape" and [tr.t[-1], *tr.y[-1]] == [ts[-1], *ys[-1]]
    # below it: the crash/escape run stops crashing, v due at 0 before _T_MAX
    status, ts, ys, _, _, _ = taylor.march(consts6, (a, 0.0, 0.5 * orbit6.b, 0.0), sh._T_MAX)
    v, v1, v2, v3 = ys[-1]
    assert status == "crash" and 0 < v < a0 and max(v1, v2, v3) < 0
    assert ts[-1] + v / -v1 < sh._T_MAX
    assert sh._search(consts6, a, {})[0](0.5 * orbit6.b) == -1


# the five pinned roots, and two dimensions where P = (n+4)/(n-4) is not an
# integer (11/3 and 13/5)
_FATE_POINTS = [(5, 0.6), (6, 0.6), (6, 0.999), (5, 0.3), (6, 0.62), (7, 0.5), (9, 0.4)]


def test_decided_fates_change_no_shooting_outcome(monkeypatch):
    """Every b that find_b visits at _FATE_POINTS, and a geometric grid as
    wide as its bracket grid: the crash/escape side and the first maximum
    (found or not; t1 and the node bit for bit) equal those of runs that
    never stop at a decided fate.  With or without fates, the first maximum
    the crash/escape run records is the one the first-maximum run ends on."""
    starts = []
    with monkeypatch.context() as m:
        march = sh.march
        m.setattr(sh, "march", lambda consts, y0, *args:
                  starts.append((consts, y0[0], y0[2])) or march(consts, y0, *args))
        for n, frac in _FATE_POINTS:
            cc = sh.critical_constants(n)
            sh.find_b(n, frac * cc.a0, consts=cc)
            starts += [(cc, frac * cc.a0, float(b))
                       for b in np.geomspace(1e-6, 10.0 * cc.K0 * cc.a0, 40)]
    starts = list(dict.fromkeys(starts))

    def hexed(first):
        t1, y1 = first
        return None if t1 is None else [float.hex(float(x)) for x in (t1, *y1)]

    def outcomes(stats):
        # two searches per start: the first's crash/escape run records the
        # first maximum, the second's F makes a first-maximum run of its own
        out = []
        for cc, a, b in starts:
            side, _, firsts = sh._search(cc, a, stats)
            _, F, firsts_F = sh._search(cc, a, stats)
            outcome = side(b)
            F(b)
            first = hexed(firsts_F[b])
            assert hexed(firsts[b]) == first, (cc.n, a, b)
            out.append((outcome, first))
        return out

    decided, undecided = {}, {}
    got = outcomes(decided)
    monkeypatch.setattr(taylor, "_fate", lambda *args: None)
    assert got == outcomes(undecided)
    assert {-1, 1} <= {side for side, _ in got}
    assert {True, False} == {f is None for _, f in got}
    assert decided["float64"]["steps"] < undecided["float64"]["steps"] / 2


def test_flow_stops_where_v_is_not_positive(consts6):
    tr = taylor.flow(consts6, (0.0, 0.1, 0.2, 0.0), 1.0)
    assert tr.status == "undefined" and tr.stats["steps"] == 0


def test_series_bits_do_not_depend_on_the_builtin_sum(monkeypatch):
    # Python 3.12's sum compensates; the power recurrence must not call it,
    # so a compensated sum in its place leaves every coefficient unchanged
    cc = sh.critical_constants(5)
    states = ([0.6 * cc.a0, 0.0, 0.12, 0.0], [0.3 * cc.a0, 0.02, 0.1, -0.05],
              [1.2 * cc.a0, -0.4, 0.3, 0.7])
    before = [taylor.series(cc, y) for y in states]
    monkeypatch.setattr(taylor, "sum", math.fsum, raising=False)
    assert [taylor.series(cc, y) for y in states] == before
    # a generated kernel runs in its own namespace, which the patch above
    # never reaches: none of them may name sum or fsum
    kernels = [*taylor._kernels(cc, float), *taylor._step_kernels(),
               *map(integ_module._step_kernel, (1, 4, 12)), *map(odes._rhs_kernel, (1, 3)),
               *(integ_module._step_kernel(4 * p, sign) for p in (1, 3) for sign in (1, -1))]
    for kernel in kernels:
        assert not {"sum", "fsum"} & set(kernel.__code__.co_names), kernel.__code__.co_filename


def _reference_series(tables, y):
    """The power recurrence as a loop over every term of every sum: the
    reference both series kernels must meet bit for bit."""
    c, K2, K0, P, rows, k2, den = tables
    v = [y[0], y[1], 0.5 * y[2], y[3] / 6.0]
    w = [v[0] ** P]
    inv_v0 = 1.0 / v[0]
    for k in range(taylor._ORDER):
        if k:
            acc = 0.0
            for r, vk, wj in zip(rows[k], v[k:0:-1], w):
                acc += r * vk * wj
            w.append(acc * inv_v0)
        v.append((c * w[k] - K2 * k2[k] * v[k + 2] - K0 * v[k]) * den[k])
    return [[f * x for f, x in zip(taylor._FAC[i], v[i:])] for i in range(4)]


def _reprs(coef):
    # repr tells -0.0 from +0.0, and np.longdouble's repr is exact
    return [[repr(x) for x in cs] for cs in coef]


@pytest.mark.parametrize("scal", [float, np.longdouble], ids=["float", "longdouble"])
@pytest.mark.parametrize("n", range(5, 13))
def test_turning_point_series_equals_the_full_recurrence_bit_for_bit(n, scal):
    """At a turning point (v' = v''' = 0) every odd w_k is a sum of zero
    products, and every even one gets the bits of its nonzero terms: a
    running sum from +0.0 never becomes -0.0.  Zeros of every sign: with
    v''' = -0.0 and v' = +0.0, an odd w_1 of -0.0 would flip v_5 to -0.0."""
    cc = sh.critical_constants(n)
    tables = taylor._tables(cc, scal)
    for frac in (0.05, 0.3, 0.999, 1.5):
        for b in (0.1 * cc.K0 * cc.a0, 1e-3, 2.5):
            for sign in (1, -1):
                for y1 in (0.0, -0.0):
                    for y3 in (0.0, -0.0):
                        y = [scal(x) for x in (frac * cc.a0, y1, sign * b, y3)]
                        assert (_reprs(taylor.series(cc, y))
                                == _reprs(_reference_series(tables, y))), (frac, b, sign, y1, y3)
                y = [scal(x) for x in (frac * cc.a0, 0.02 * sign, b, -0.05)]
                assert _reprs(taylor.series(cc, y)) == _reprs(_reference_series(tables, y))


_SIGNED_ZERO_OR_SLOPE = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(min_value=5, max_value=12), ld=st.booleans(),
       frac=st.floats(0.01, 3.0), y2=st.floats(-3.0, 3.0),
       y1=_SIGNED_ZERO_OR_SLOPE, y3=_SIGNED_ZERO_OR_SLOPE)
def test_series_kernels_equal_the_reference_loop_bit_for_bit(n, ld, frac, y2, y1, y3):
    """The general kernel at any state, and the turning-point kernel where
    v' and v''' are zeros of either sign, give the reference's bits.  In
    longdouble, v and v'' carry bits below float64's."""
    cc = sh.critical_constants(n)
    scal = np.longdouble if ld else float
    y = [scal(frac) * scal(cc.a0), scal(y1), scal(y2) / scal(3), scal(y3)]
    want = _reprs(_reference_series(taylor._tables(cc, scal), y))
    even, general = taylor._kernels(cc, scal)
    assert _reprs(general(y)) == want
    if not (y1 or y3):
        assert _reprs(even(y)) == want


_LAZY_BUILDS = """
import numpy as np
import fowler4.shooting as sh
from fowler4 import taylor

for n in range(5, 13):
    sh.critical_constants(n)
assert taylor._kernel_factory.cache_info().misses == 0
assert taylor._kernels.cache_info().misses == 0
assert taylor._step_kernels.cache_info().misses == 0
cc5 = sh.critical_constants(5)
sh.find_b(5, 0.6 * cc5.a0, consts=cc5)
for n in (5, 6, 7):
    for scal in (float, np.longdouble):
        cc = sh.critical_constants(n)
        taylor.series(cc, [scal(x) for x in (cc.a0, 0.0, 0.1, 0.0)])
        taylor.series(cc, [scal(x) for x in (cc.a0, 0.1, 0.1, 0.2)])
assert taylor._kernels.cache_info().currsize == 6
assert taylor._kernel_factory.cache_info().misses == 2
assert taylor._step_kernels.cache_info().misses == 1
"""


def test_kernels_are_built_lazily_and_each_source_compiled_once():
    """Importing shooting and deriving critical constants compiles no
    kernel, so no set-up pays for one; six (consts, type) bindings compile
    each parity's source once, and the state and step-size source is
    compiled once for every run.  A fresh process, so no other test has
    built one yet."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _LAZY_BUILDS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("scal", [float, np.longdouble], ids=["float", "longdouble"])
def test_one_pass_state_equals_peval_per_component(scal):
    state, step_size = taylor._step_kernels()
    cc = sh.critical_constants(5)
    for y in ([0.3 * cc.a0, 0.0, 0.12, 0.0], [0.3 * cc.a0, 0.02, 0.1, -0.05],
              [1.2 * cc.a0, -0.0, -0.3, 0.0]):
        coef = taylor.series(cc, [scal(x) for x in y])
        h = step_size(coef, taylor._TOL[scal])
        for x in (h, 0.5 * h, scal(0.3) * h, 0.0):
            assert (_reprs([state(coef, x)])
                    == _reprs([[peval(cs, x) for cs in coef]]))
    # peval starts at 0, so a series of -0.0 sums to +0.0
    zeros = [[scal(-0.0)] * (taylor._ORDER + 1)] * 4
    assert _reprs([state(zeros, 0.5)]) == _reprs([[scal(0.0)] * 4])


def _reference_state(coef, h):
    """The loop form of the generated ``state``: each component by Horner's
    rule from the integer 0, one pass over the orders."""
    c0, c1, c2, c3 = coef
    a0 = a1 = a2 = a3 = 0
    for m in range(taylor._ORDER, -1, -1):
        a0 = a0 * h + c0[m]
        a1 = a1 * h + c1[m]
        a2 = a2 * h + c2[m]
        a3 = a3 * h + c3[m]
    return [a0, a1, a2, a3]


def _reference_step_size(coef, eps):
    """The loop form of the generated ``step_size``."""
    h = math.inf
    for cs in coef:
        for m in (taylor._ORDER - 1, taylor._ORDER):
            if cs[m]:
                h = min(h, (eps / abs(cs[m])) ** (1.0 / m))
    return h


@settings(max_examples=200, deadline=None)
@given(ld=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       zeros=st.lists(st.tuples(st.integers(0, 3), st.integers(0, taylor._ORDER),
                                st.sampled_from([0.0, -0.0])), max_size=12),
       zero_last=st.sampled_from([None, 0.0, -0.0]), eps=st.floats(1e-20, 1e-10),
       frac=st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 2.0)))
def test_state_and_step_size_equal_the_reference_loops_bit_for_bit(ld, seed, zeros,
                                                                   zero_last, eps, frac):
    """The generated state and step size give the loops' bits, by repr, in
    float and in longdouble (coefficients, eps and h with bits below
    float64's), with zeros of either sign among the coefficients; with
    every last term zero there is no bound, and h is inf.  The state is
    evaluated at frac * h, or at frac where h passes 1."""
    rng = np.random.default_rng(seed)
    coef = (rng.uniform(-1.0, 1.0, (4, taylor._ORDER + 1))
            * 10.0 ** rng.uniform(-30.0, 3.0, (4, taylor._ORDER + 1))).tolist()
    for i, m, zero in zeros:
        coef[i][m] = zero
    scal = np.longdouble if ld else float
    third = scal(1) / scal(3)
    coef = [[scal(x) * third for x in cs] for cs in coef]
    if zero_last is not None:
        for cs in coef:
            cs[-2:] = [scal(zero_last)] * 2
    eps = scal(eps) * third
    state, step_size = taylor._step_kernels()
    h = step_size(coef, eps)
    assert repr(h) == repr(_reference_step_size(coef, eps))
    if zero_last is not None:
        assert h == math.inf
    # at most 2, so no sum overflows: an inf or huge h evaluates at 0..2
    x = scal(frac) * (h if h <= 1 else scal(1))
    assert _reprs([state(coef, x)]) == _reprs([_reference_state(coef, x)])
