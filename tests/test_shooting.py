"""Critical-case periodic orbits: shooting, symmetry, wrapper residual."""

import dataclasses
import functools

import numpy as np
import pytest

from fowler4 import shooting as sh
from fowler4 import taylor
from fowler4.asymptotics import geometric_grid
from fowler4.odes import linearized_spectrum
from fowler4.params import DomainError, Params
from fowler4.profiles import EmdenFowlerProfile, fd_derivative
from fowler4.coefficients import radial_weights


@pytest.fixture(scope="module")
def consts6():
    return sh.critical_constants(6)


@pytest.fixture(scope="module")
def orbit6(consts6):
    return sh.find_b(6, 0.6 * consts6.a0, consts=consts6)


def test_constants_identity(consts6):
    n = 6
    assert consts6.c == pytest.approx(n * (n - 4) * (n * n - 4) / 16.0, rel=1e-10)
    a0_formula = (n * (n - 4) / (n * n - 4.0)) ** ((n - 4) / 8.0)
    assert consts6.a0 == pytest.approx(a0_formula, rel=1e-10)


def test_linearized_period_matches_spectrum():
    # linearized_frequency forms the imaginary pair at s = (n+4)/(n-4) from
    # the printed critical K0 and K2 (it does not depend on the normalization
    # c); it has the bits of linearized_spectrum's closed form
    from fractions import Fraction
    for n in range(5, 17):
        roots = linearized_spectrum(Params(n, Fraction(n + 4, n - 4)))
        om = max(abs(r.imag) for r in roots)
        assert sh.critical_constants(n, c_mode="unit").linearized_frequency() == om


def test_linearized_frequency_follows_replaced_constants():
    # linearized_frequency reads the instance's own K0 and K2, so
    # dataclasses.replace moves it and the constant orbit's period with it;
    # linearized_spectrum, the exact oracle's reference, takes K0 from (n, s)
    # and keeps the printed value
    from fractions import Fraction
    cc = sh.critical_constants(5)
    moved = dataclasses.replace(cc, K2=1.01 * cc.K2)
    om = max(abs(r.imag) for r in linearized_spectrum(Params(5, Fraction(9))))
    assert cc.linearized_frequency() == om != moved.linearized_frequency()
    T, T_moved = (sh.find_b(5, c.a0, consts=c).T for c in (cc, moved))
    assert T == pytest.approx(5.0430, abs=1e-4) and T_moved == pytest.approx(5.0600, abs=1e-4)
    assert T_moved == moved.linearized_period() != T


def test_critical_rhs_structure(consts6):
    rhs = sh.make_critical_rhs(consts6)
    eq = np.array([consts6.a0, 0.0, 0.0, 0.0])
    assert float(np.max(np.abs(rhs(0.0, eq)))) < 1e-12
    # no v' or v''' force terms: the fourth component ignores y1, y3
    y_a = np.array([0.5, 1.0, 0.2, -3.0])
    y_b = np.array([0.5, -2.0, 0.2, 9.0])
    assert rhs(0.0, y_a)[3] == rhs(0.0, y_b)[3]


def test_shooting_converges(orbit6, consts6):
    r = orbit6
    assert r.converged
    assert r.residual <= 1e-9
    assert r.period_defect <= 1e-6
    assert r.energy_drift <= 1e-8
    assert r.min_v >= 0.6 * consts6.a0 - 1e-6
    assert r.even_symmetry_defect <= 1e-7


def test_orbit_even_reflection(orbit6):
    t1 = orbit6.T / 2.0
    for tau in np.linspace(0.1, t1 * 0.9, 7):
        va = float(orbit6.orbit(t1 + tau)[0])
        vb = float(orbit6.orbit(t1 - tau)[0])
        assert abs(va - vb) <= 1e-7


def test_constant_orbit_at_a0(consts6):
    r = sh.find_b(6, consts6.a0, consts=consts6)
    assert r.converged and r.residual == 0.0
    assert r.T == pytest.approx(consts6.linearized_period())
    assert r.message == "constant orbit"


def test_rejects_a_above_a0(consts6):
    with pytest.raises(DomainError):
        sh.find_b(6, 1.1 * consts6.a0, consts=consts6)


def test_orbit_table_determinism_and_failure_recording(consts6):
    a = 0.8 * consts6.a0
    out = sh.orbit_table(6, [a, a])
    assert out[0].b == out[1].b and out[0].T == out[1].T
    bad = sh.orbit_table(6, [1.5 * consts6.a0])
    assert not bad[0].converged and "a0" in bad[0].message


def test_wrapper_residual_against_radial_operator(orbit6, consts6):
    """u(r) = r^{(4-n)/2} v(ln r + T) satisfies the critical equation."""
    n = 6
    prof = EmdenFowlerProfile(n, orbit6.orbit, period=orbit6.T, shift=0.5).profile()
    N = radial_weights(n)
    q = consts6.power
    for r in (0.8, 1.7):
        d = [fd_derivative(prof.f, r, k) for k in range(5)]
        lhs = sum(N[j] * r ** (j - 4) * d[j] for j in range(5))
        rhs_val = consts6.c * prof.f(r) ** q
        assert abs(lhs - rhs_val) / abs(rhs_val) < 1e-6


def test_unit_normalization_mode():
    cc = sh.critical_constants(6, c_mode="unit")
    assert cc.c == 1.0
    # a0 rescales by the same identity
    assert cc.a0 == pytest.approx(cc.K0 ** ((6 - 4) / 8.0), rel=1e-12)
    r = sh.find_b(6, 0.7 * cc.a0, consts=cc)
    assert r.converged and r.residual <= 1e-9


@pytest.mark.parametrize("scal", [float, np.float64, np.longdouble])
def test_brent_root_within_few_ulp_inside_bracket(scal):
    # the run type of taylor.run_type: a float64 bracket, numpy scalar or
    # not, runs on Python floats; a longdouble at either end runs in
    # longdouble
    tier = np.longdouble if scal is np.longdouble else float
    root = np.sqrt(tier(2))
    brackets = [(scal(0.5), scal(3))]
    if scal is np.longdouble:
        brackets += [(0.5, scal(3)), (scal(0.5), 3.0)]
    for lo, hi in brackets:
        assert taylor.run_type(lo, hi) is tier
        seen = []

        def f(x):
            seen.append(x)
            return x * x - 2

        x = sh._brent(f, lo, hi)
        assert type(x) is tier and all(type(xi) is tier for xi in seen)
        assert abs(x - root) <= 4 * np.spacing(root)
        assert all(lo <= xi <= hi for xi in seen)
        assert len(seen) < 20


def test_brent_raises_where_f_is_undefined_or_one_signed():
    with pytest.raises(ArithmeticError, match="undefined"):
        sh._brent(lambda x: None if 0.5 < x < 1.5 else x - 1.0, 0.0, 3.0)
    with pytest.raises(ArithmeticError, match="one sign"):
        sh._brent(lambda x: x * x + 1.0, -1.0, 2.0)


@pytest.fixture(scope="module")
def consts5():
    return sh.critical_constants(5)


def _check_stats(stats):
    total = sum(tier["integrations"] for tier in stats.values())
    assert 0 < total <= 70
    assert all(tier["steps"] > 0 for tier in stats.values())


def test_find_b_escalating_point_meets_c07(consts5):
    """n=5, a=0.3 a0: the C07 point whose float64 Dormand-Prince root missed
    the closure target.  The Taylor flow closes it in float64 with a defect
    of about half the target, a margin set by the rounding of one ULP of
    the initial state, so a longdouble refinement is accepted as well."""
    a = 0.3 * consts5.a0
    r = sh.find_b(5, a, consts=consts5)
    assert r.converged and r.residual <= 1e-9
    assert r.period_defect <= 1e-6
    assert r.energy_drift <= 1e-8
    assert r.min_v >= a - 1e-6
    assert r.message == ""
    if r.precision == "float64":
        assert "longdouble" not in r.stats
    else:
        assert r.precision == "longdouble"
        assert r.stats["longdouble"]["integrations"] <= 10
    _check_stats(r.stats)


@pytest.mark.skipif(not sh._LONGDOUBLE_OK, reason="longdouble is float64 here")
def test_find_b_escalates_where_float64_closure_misses(consts5):
    """n=5, a=0.2 a0: the float64 root misses the closure target; the
    longdouble refinement meets it."""
    a = 0.2 * consts5.a0
    r = sh.find_b(5, a, consts=consts5)
    assert r.converged and r.residual <= 1e-9
    assert r.period_defect <= 1e-6
    assert r.energy_drift <= 1e-8
    assert r.min_v >= a - 1e-6
    assert r.precision == "longdouble" and r.message == ""
    assert r.stats["longdouble"]["integrations"] <= 10
    _check_stats(r.stats)


def test_find_b_reports_closure_shortfall_without_longdouble(consts5, monkeypatch):
    monkeypatch.setattr(sh, "_LONGDOUBLE_OK", False)
    r = sh.find_b(5, 0.2 * consts5.a0, consts=consts5)
    assert r.precision == "float64"
    assert 1e-6 < r.period_defect < 1e-4
    assert f"closure defect {r.period_defect:.3e}" in r.message
    assert "target 1.0e-06" in r.message
    assert set(r.stats) == {"float64"}


def test_empty_message_exactly_when_every_c07_threshold_holds():
    """find_b answers at small a and at C07's six points, whose pass test
    is an empty message.  At (5, 0.03 a0) the one-period run of the
    float64 root stops before T: the result keeps Brent's root and says
    why, and it is tagged longdouble only when the refinement was kept.
    Without an 80-bit longdouble, (5, 0.2 a0) carries a message."""
    for n, frac in ((5, 0.03), (5, 0.2), (6, 0.02), (6, 0.03),
                    (5, 0.3), (5, 0.6), (5, 0.9), (6, 0.3), (6, 0.6), (6, 0.9)):
        cc = sh.critical_constants(n)
        a = frac * cc.a0
        r = sh.find_b(n, a, consts=cc)
        meets_c07 = (r.converged and r.residual <= 1e-9 and r.period_defect <= 1e-6
                     and r.energy_drift <= 1e-8 and r.min_v >= a - 1e-6)
        assert (r.message == "") == meets_c07, (n, frac, r.message)
        assert ("after longdouble refinement" in r.message) <= (r.precision == "longdouble")
        if (n, frac) == (5, 0.03):
            assert np.isfinite(r.b) and r.b > 0


def test_replaced_constants_derive_their_own_a0():
    # a0 was a stored field: replace(c=1.0) kept the measured-c a0 (0.8358 at
    # n = 5 against 1.0574), so 0.6 a0 shot another orbit and 0.95 a0 was refused
    unit = sh.critical_constants(5, c_mode="unit")
    replaced = dataclasses.replace(sh.critical_constants(5), c=1.0)
    assert replaced == unit and replaced.a0 == unit.a0
    for frac in (0.6, 0.95, 1.0):
        got, want = (sh.find_b(5, frac * unit.a0, consts=cc) for cc in (replaced, unit))
        assert (got.b, got.T, got.energy, got.message) == \
            (want.b, want.T, want.energy, want.message)


# float.hex of find_b's fields and its (integrations, steps) in float64,
# recorded before the step loop was split from the dense-output packaging;
# the steps alone re-recorded when shooting runs began to stop at a decided
# crash/escape fate (625, 378, 400, 797 and 341 steps before).  The counts
# re-recorded when crash/escape runs began to record the first maximum, so
# that no b runs twice: the same runs minus repeats, (42, 231), (37, 170),
# (36, 114), (49, 351) and (37, 169) before.
# even_symmetry_defect at (6, 0.62 a0) re-recorded (0x1.06d7p-38 before)
# when the dense output began to evaluate the series by Horner's rule in
# place of a BLAS matrix product.  The first four points are C07's.  At
# (6, 0.62 a0) an array-form energy (numpy's power in place of the row-wise
# Python one) moves energy_drift; at the C07 points the rows it changes
# are not the largest.  (6, 0.999 a0) re-recorded when find_b's bracket grid
# left np.geomspace, whose loop numpy picks per CPU, for geometric_grid: b
# moved by one ULP (0x1.1fb196ccdf5ffp-9 before), T, energy_drift, min_v and
# even_symmetry_defect with it, and the counts were (34, 108).  The counts
# re-recorded when find_b began to bisect the bracket grid on its index in
# place of scanning it upward: the same bracket and root from fewer grid
# runs, (38, 197), (35, 156), (36, 114), (41, 274) and (35, 155) before.
_PINNED_FIELDS = ("b", "T", "energy", "energy_drift", "period_defect", "min_v",
                  "even_symmetry_defect")
_PINNED_ROOTS = {
    (5, 0.6): (("0x1.ed0177e623ff4p-4", "0x1.afca6aa99cad1p+2", "-0x1.822b51d56a5e7p-3",
                "0x1.ff8b31dd334b9p-52", "0x1.fb5bad3680000p-32", "0x1.00c0b2236e07fp-1",
                "0x1.f962800000000p-36"), (26, 186)),
    (6, 0.6): (("0x1.6d2f56286cae1p-2", "0x1.17ac600274863p+2", "-0x1.c56cd8d41c171p-1",
                "0x1.6462cf932c427p-50", "0x1.88d6315000000p-32", "0x1.e0cb427844328p-2",
                "0x1.866a800000000p-37"), (24, 148)),
    (6, 0.999): (("0x1.1fb196ccdf600p-9", "0x1.dfc0df001f775p+1", "-0x1.d64c70d796d3ep+0",
                  "0x1.0eb2d63ed4f4ep-51", "0x1.20b10c4000000p-36", "0x1.9042d04bcc776p-1",
                  "0x1.9380000000000p-42"), (31, 95)),
    (5, 0.3): (("0x1.0081659b22a55p-4", "0x1.348498f116e66p+3", "-0x1.8249848442fa8p-5",
                "0x1.57c9f604081d7p-51", "0x1.1689bacac8000p-21", "0x1.00c0afe985165p-2",
                "0x1.1cf478d000000p-25"), (30, 271)),
    (6, 0.62): (("0x1.6e0f5d03c0aeep-2", "0x1.141226f843e1dp+2", "-0x1.e2ec98e79dc4cp-1",
                 "0x1.8b38d93f75176p-51", "0x1.0c0d240000000p-33", "0x1.f0d208f3bdeffp-2",
                 "0x1.06d6000000000p-38"), (24, 147)),
}


@functools.lru_cache(maxsize=None)
def _pinned_result(n, frac):
    cc = sh.critical_constants(n)
    return sh.find_b(n, frac * cc.a0, consts=cc)


@pytest.mark.parametrize("point", list(_PINNED_ROOTS), ids="{0[0]}-{0[1]}".format)
def test_find_b_is_bit_pinned(point):
    r = _pinned_result(*point)
    got = tuple(float.hex(getattr(r, k)) for k in _PINNED_FIELDS)
    assert dict(zip(_PINNED_FIELDS, got)) == dict(zip(_PINNED_FIELDS, _PINNED_ROOTS[point][0]))
    assert r.precision == "float64" and r.message == ""


@pytest.mark.parametrize("point", list(_PINNED_ROOTS), ids="{0[0]}-{0[1]}".format)
def test_find_b_counts_every_taylor_run_once(point, monkeypatch):
    integrations, steps = _PINNED_ROOTS[point][1]
    assert _pinned_result(*point).stats == {
        "float64": {"integrations": integrations, "steps": steps}}
    # every run of the search goes through march, and none repeats a start
    # b; the one-period orbit of the root is the one run that does not
    starts = []
    march = sh.march
    monkeypatch.setattr(sh, "march", lambda consts, y0, *args:
                        starts.append(y0[2]) or march(consts, y0, *args))
    _pinned_result.__wrapped__(*point)
    assert len(set(starts)) == len(starts) == integrations - 1


@pytest.mark.parametrize("n", range(5, 13))
def test_grid_bisection_brackets_where_the_upward_scan_did(n):
    """At 20 values of a across the family and C07's six points, the
    grid's 25 outcomes are crashes followed by escapes (the assumption the
    bisection rests on), and the bisected bracket is the first
    crash/escape pair of the upward scan it replaced.  The bisection reads
    the scan's outcomes, which a run of its own repeats bit for bit."""
    cc = sh.critical_constants(n)
    grid = geometric_grid(1e-6, 10.0 * cc.K0 * cc.a0, 25)
    fracs = np.linspace(0.005, 0.999, 20).tolist()
    fracs += {5: [0.3, 0.6, 0.999], 6: [0.3, 0.6, 0.999]}.get(n, [])
    for frac in fracs:
        a = frac * cc.a0
        side = sh._search(cc, a, {})[0]
        sides = {b: side(b) for b in grid}
        outcomes = list(sides.values())
        assert outcomes == sorted(outcomes) and {-1, 1} == set(outcomes), (n, frac)
        k = outcomes.index(1)
        assert sh._grid_bracket(cc, a, sides.__getitem__) == (grid[k - 1], grid[k]), (n, frac)


@pytest.mark.parametrize("n, frac", [(5, 1 - 1e-7), (6, 1 - 1e-8), (5, 1e-30)])
def test_grid_without_a_crash_escape_pair_raises(n, frac):
    # near the linear end b(a) falls below the grid's 1e-6 floor, and at
    # tiny a every grid b escapes
    cc = sh.critical_constants(n)
    with pytest.raises(ArithmeticError, match="no crash/escape bracket.* 1 and 1$"):
        sh.find_b(n, frac * cc.a0, consts=cc)


def _reference_energies(consts, vals):
    """``_energies`` with Python's float ``**`` on each element, as the
    energies were taken before ``math.pow`` on |x|."""
    K2, K0, c, q1 = consts.K2, consts.K0, consts.c, consts.power + 1
    v, v1, v2, v3 = vals.T
    sq, sq1, sq2 = (np.array([x ** 2 for x in col.tolist()]) for col in (v, v1, v2))
    pq = np.array([abs(x) ** q1 for x in v.tolist()])
    return -v3 * v1 + 0.5 * (sq2 - K2 * sq1 - K0 * sq) + c * pq / q1


@pytest.mark.parametrize("n", [5, 6, 7])
def test_energies_equal_the_float_pow_form_bit_for_bit(n):
    # rows of either sign, zeros of either sign and all-zero rows, and a
    # random block; repr tells -0.0 from +0.0
    cc = sh.critical_constants(n)
    rows = [[0.3, -0.2, 0.1, 0.25], [-0.3, 0.2, -0.1, -0.25], [0.0, -0.0, 0.0, -0.0],
            [-0.0, 0.0, -0.0, 0.0], [-0.0, -0.0, -0.0, -0.0], [cc.a0, 0.0, 0.0, 0.0],
            [1.0, -1.0, 1.0, -1.0], [-7.5, 3.0, -0.0, 2.0]]
    vals = np.vstack([rows, np.random.default_rng(n).uniform(-3.0, 3.0, (200, 4))])
    assert (list(map(repr, sh._energies(cc, vals).tolist()))
            == list(map(repr, _reference_energies(cc, vals).tolist())))
