"""Critical-case periodic orbits: shooting, symmetry, wrapper residual."""

import numpy as np
import pytest

from fowler4 import shooting as sh
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


def test_linearized_period_matches_spectrum(consts6):
    # the imaginary pair of the c=1 linearization is normalization-free
    from fractions import Fraction
    roots = linearized_spectrum(Params(6, Fraction(5)))
    om = max(abs(r.imag) for r in roots)
    assert consts6.linearized_frequency() == pytest.approx(om, rel=1e-10)


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


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_brent_root_within_few_ulp_inside_bracket(dtype):
    root = np.sqrt(dtype(2))
    seen = []

    def f(x):
        seen.append(x)
        return x * x - 2

    lo, hi = dtype(0.5), dtype(3)
    x = sh._brent(f, lo, hi)
    assert type(x) is np.dtype(dtype).type
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
