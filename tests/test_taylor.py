"""Taylor-series flow of the critical equation against the Dormand-Prince path."""

import numpy as np
import pytest

from fowler4 import shooting as sh
from fowler4 import taylor
from fowler4.integrate import Event, integrate


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
    grid = np.geomspace(1e-6, 10.0 * cc.K0 * cc.a0, 25)
    sides = [sh._classify(cc, a, float(b), {}) for b in grid]
    assert sides == [_dopri_classify(cc, a, float(b)) for b in grid]
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
def test_orbit_agrees_with_longdouble_dormand_prince(orbit6, consts6):
    # the float64 Dormand-Prince orbit at the search's 1e-12 drifts by ~1e-7
    # over the period here; the longdouble run at 1e-15 is the reference
    a, b, T = 0.6 * consts6.a0, orbit6.b, orbit6.T
    ld = np.longdouble
    ref = integrate(sh.make_critical_rhs(consts6, ld), 0.0, np.array([a, 0.0, b, 0.0], ld),
                    T, rel_tol=1e-15, abs_tol=1e-18, guard=taylor._ORBIT_GUARD)
    ts = np.linspace(0.0, T, 1601)
    assert np.max(np.abs(np.asarray(ref(ts), float) - orbit6.orbit(ts))) <= 1e-9


@pytest.mark.parametrize("scale", [2.0, 100.0])
def test_escape_side_F_is_undefined_within_bounded_steps(orbit6, consts6, scale):
    a = 0.6 * consts6.a0
    stats = {}
    assert sh._first_max(consts6, a, scale * orbit6.b, stats) == (None, None)
    assert stats["float64"]["integrations"] == 1
    assert 0 < stats["float64"]["steps"] <= 100


def test_flow_stops_where_v_is_not_positive(consts6):
    tr = taylor.flow(consts6, (0.0, 0.1, 0.2, 0.0), 1.0)
    assert tr.status == "undefined" and tr.stats["steps"] == 0 and tr.events == [[]]
