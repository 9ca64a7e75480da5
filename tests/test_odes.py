"""Reduced-system right-hand sides, equilibria and spectra."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from fowler4.coefficients import (BUILD_SIGMA, char_symbol, oracle_autonomous,
                                  printed_nonautonomous_polys)
from fowler4.integrate import integrate
from fowler4.odes import (equilibrium_state, equilibrium_value, linearized_spectrum,
                          make_autonomous_rhs, make_nonautonomous_rhs, ray_state)
from fowler4.params import DomainError, Params, gamma_exponent, special_exponents
from fowler4.polys import compose_linear, peval


def _bits(xs):
    """Python floats, bit for bit (float.hex keeps the sign of zero)."""
    assert {type(x) for x in xs} == {float}
    return [float.hex(x) for x in xs]


def test_equilibrium_is_a_fixed_point():
    p = Params(5, F(7))
    rhs = make_autonomous_rhs(p)
    y = equilibrium_state(p)
    assert float(np.max(np.abs(rhs(0.0, y)[:3]))) == 0.0
    assert abs(float(rhs(0.0, y)[3])) < 1e-14


def test_rhs_witness_value():
    # v'''' at (1, 0, 0, 0) equals 1 - K0(5,7) = -31/81
    p = Params(5, F(7))
    rhs = make_autonomous_rhs(p)
    out = rhs(0.0, np.array([1.0, 0.0, 0.0, 0.0]))
    assert out[3] == pytest.approx(-31.0 / 81.0, abs=1e-14)


def test_zero_state_with_s_below_two():
    # |V|^{s-1} is singular at V = 0 for s < 2; the product is continued by 0
    p = Params(8, 1.5)
    rhs = make_autonomous_rhs(p)
    assert _bits(rhs(0.0, np.zeros(4))) == _bits([0.0] * 4)


def test_rhs_fills_every_component_block():
    # the factory's p does not bound the state: every 4-block is filled
    y = np.array([0.7, -0.2, 0.1, 0.3, -0.4, 0.25, -0.6, 0.05])
    one = make_autonomous_rhs(Params(5, F(7), p=1))(0.0, y)
    two = make_autonomous_rhs(Params(5, F(7), p=2))(0.0, y)
    assert _bits(one) == _bits(two)


def test_rejects_nonfinite_state():
    rhs = make_autonomous_rhs(Params(5, F(7)))
    with pytest.raises(DomainError):
        rhs(0.0, np.array([np.inf, 0, 0, 0]))


def test_an_overflowing_coupling_gives_a_non_finite_derivative():
    # |V|^6 = 1e600 leaves float range: the coupling is inf, not OverflowError
    auto = make_autonomous_rhs(Params(5, F(7)))
    for rhs, y in ((auto, np.array([1e100, 0.0, 0.0, 0.0])),
                   (auto.floats, [1e100, 0.0, 0.0, 0.0]),
                   (make_nonautonomous_rhs(5), np.array([1e100, 0.0, 0.0, 0.0]))):
        out = rhs(1.0, y)
        assert out[:3] == [0.0, 0.0, 0.0] and out[3] == math.inf


def test_ray_invariance_of_trajectories():
    p = Params(5, F(7), p=2)
    rhs = make_autonomous_rhs(p)
    lam = np.array([0.6, 0.8])
    rel = 1e-10
    y0 = ray_state((0.9, 0.1, -0.05, 0.02), lam)
    traj = integrate(rhs, 0.0, y0, 3.0, rel_tol=rel, abs_tol=1e-13, guard=1e5)
    # cross-component deviation from the ray stays within 10x rel_tol
    for row in traj.y[:: max(1, len(traj.y) // 20)]:
        block0, block1 = row[:4], row[4:]
        dev = np.abs(lam[1] * block0 - lam[0] * block1)
        assert float(np.max(dev)) <= 10 * rel * max(1.0, float(np.max(np.abs(row))))


def test_nonautonomous_rhs_contract():
    rhs = make_nonautonomous_rhs(5)
    assert _bits(rhs(10.0, np.zeros(4))) == _bits([0.0] * 4)
    with pytest.raises(DomainError):
        rhs(0.0, np.ones(4))
    with pytest.raises(DomainError):
        rhs(-3.0, np.ones(4))


def test_equilibrium_value_window():
    assert equilibrium_value(Params(5, F(7))) == pytest.approx((112 / 81) ** (1 / 6))
    assert equilibrium_value(Params(5, F(3))) is None    # K0 < 0
    with pytest.raises(DomainError):
        equilibrium_state(Params(5, F(3)))


def _ledger_s_grid(n):
    """The ledger's exact s values for dimension n."""
    return [F(3, 2), F(2), F(3), F(5), F(n, n - 4), F(n + 4, n - 4)]


def _spectrum_backward_error(params, roots, sigma=BUILD_SIGMA):
    """max |P(lambda) - s K0| over the roots, relative to max(1, |lambda|^4):
    the reference check of the closed form, through numpy's Horner form."""
    c = oracle_autonomous(params.n, params.s, sigma)
    K0 = float(c["K0"])
    s = float(params.s)
    poly = np.array([1.0, float(c["K3"]), float(c["K2"]), float(c["K1"]),
                     K0 - s * K0])
    scale = max(1.0, float(np.max(np.abs(roots))) ** 4)
    return float(np.max(np.abs(np.polyval(poly, roots)))) / scale


def test_spectrum_reproduces_polynomial():
    # the closed form over the ledger grid in both conventions, and float s;
    # the largest backward error measured there is 2.8e-16
    cases = [(Params(n, s), sigma) for n in range(5, 17) for s in _ledger_s_grid(n)
             for sigma in (1, -1)]
    cases += [(Params(n, s), BUILD_SIGMA) for n, s in ((5, 7.0), (6, 4.0), (8, 2.5), (7, 3.3))]
    checked = 0
    for p, sigma in cases:
        if not oracle_autonomous(p.n, p.s, sigma)["K0"] > 0:
            with pytest.raises(DomainError):
                linearized_spectrum(p, sigma)
            continue
        roots = linearized_spectrum(p, sigma)
        assert len(roots) == 4 and {type(r) for r in roots} == {complex}
        assert list(roots) == sorted(roots, key=lambda r: (r.real, r.imag))
        assert _spectrum_backward_error(p, roots, sigma) < 1e-15
        # closed under conjugation, exactly
        assert {r.conjugate() for r in roots} == set(roots)
        checked += 1
    assert checked == 106


@pytest.mark.parametrize("sigma", [1, -1])
def test_shifted_symbol_is_biquadratic(sigma):
    # P(-sigma c + mu) = (mu^2 - (n-4)^2/4) (mu^2 - n^2/4), c = gamma - (n-4)/2,
    # exactly: the identity behind linearized_spectrum's closed form
    for n in range(5, 17):
        a2, b2 = F(n - 4, 2) ** 2, F(n, 2) ** 2
        for s in _ledger_s_grid(n):
            c = gamma_exponent(s) - F(n - 4, 2)
            shifted = compose_linear(char_symbol(n, s, sigma).p_coeffs, -sigma * c, 1)
            assert shifted == [a2 * b2, 0, -(a2 + b2), 0, 1]


def test_window_ends_are_spectral_events():
    # K0 = 0 at s = n/(n-4): no constant level; c = 0 at s = (n+4)/(n-4):
    # the complex pair sits on the imaginary axis
    for n in range(5, 17):
        lower, critical = F(n, n - 4), F(n + 4, n - 4)
        assert oracle_autonomous(n, lower)["K0"] == 0
        assert gamma_exponent(critical) - F(n - 4, 2) == 0


def test_spectrum_critical_case_structure():
    # constant term K0(1 - s) < 0 forces a positive real root; the
    # oscillatory pair is purely imaginary, as c = 0 at s = (n+4)/(n-4)
    p = Params(5, F(9))
    roots = linearized_spectrum(p)
    assert max(r.real for r in roots) > 0
    imag_pair = [r for r in roots if abs(r.imag) > 0.5]
    assert len(imag_pair) == 2
    assert max(abs(r.real) for r in imag_pair) == 0.0


def test_growth_rate_matches_spectrum():
    # integrate a small perturbation and compare the measured growth rate
    # with the dominant real part of the linearization
    p = Params(5, F(7))
    roots = linearized_spectrum(p)
    lam_max = max(r.real for r in roots)
    rhs = make_autonomous_rhs(p)
    y_eq = equilibrium_state(p)
    rng = np.random.default_rng(3)
    y0 = y_eq + 1e-6 * rng.standard_normal(4)
    traj = integrate(rhs, 0.0, y0, 6.0, rel_tol=1e-12, abs_tol=1e-14, guard=1e4)
    ts = np.linspace(1.0, min(6.0, float(traj.t[-1])) - 0.2, 24)
    devs = np.array([float(np.max(np.abs(traj(float(t)) - y_eq))) for t in ts])
    slope = np.polyfit(ts, np.log(devs), 1)[0]
    assert abs(slope - lam_max) <= 0.05 * abs(lam_max)


def test_rhs_returns_float64_for_any_real_state():
    # an integer, float32 or longdouble state is read as its float64 value,
    # and the result is a list of Python floats (float64): the float64
    # state's, bit for bit
    auto = make_autonomous_rhs(Params(5, F(7)))
    nonauto = make_nonautonomous_rhs(5)
    y_int = np.array([1, 0, 0, 0])
    out = auto(0.0, y_int)
    assert type(out) is list
    assert out[3] == pytest.approx(-31.0 / 81.0, abs=1e-14)
    assert nonauto(1.0, y_int)[3] == -25.31640625
    y = np.array([0.7, -0.2, 0.1, 0.3])
    for yd in (y_int, y.astype(np.float32), y.astype(np.longdouble), y.tolist()):
        for rhs, t in ((auto, 0.0), (nonauto, 1.5)):
            want = _bits(rhs(t, np.asarray(yd, dtype=np.float64)))
            assert _bits(rhs(t, yd)) == want


def _reference_component_rhs(y, exponent, scale, K0, K1, K2, K3):
    # the defining formula element by element, with |V|^2 summed left to
    # right: the bit reference of the RHS factories
    y = [float(x) for x in y]
    vsq = 0.0
    for b in range(0, len(y), 4):
        vsq = vsq + y[b] * y[b]
    vnorm = math.sqrt(vsq)
    coup = vnorm ** exponent * scale if vnorm > 0 else 0.0
    out = [0.0] * len(y)
    for b in range(0, len(y), 4):
        out[b] = y[b + 1]
        out[b + 1] = y[b + 2]
        out[b + 2] = y[b + 3]
        out[b + 3] = coup * y[b] - K3 * y[b + 3] - K2 * y[b + 2] - K1 * y[b + 1] - K0 * y[b]
    return out


def _random_states(rng, p, count):
    """States over six decades of scale, a tenth of them with V = 0."""
    ys = rng.standard_normal((count, 4 * p)) * 10.0 ** rng.uniform(-3, 3, (count, 1))
    ys[: count // 10, 0::4] = 0.0
    return ys


@pytest.mark.parametrize("p", [1, 2, 3])
def test_rhs_equals_the_per_element_reference_bit_for_bit(p):
    rng = np.random.default_rng(p)
    for n, s in ((5, F(7)), (6, F(4)), (8, F(5, 3)), (8, F(3, 2))):
        c = oracle_autonomous(n, s, BUILD_SIGMA)
        ks = [float(c[k]) for k in ("K0", "K1", "K2", "K3")]
        rhs = make_autonomous_rhs(Params(n, s, p))
        for y in _random_states(rng, p, 250):
            ref = _reference_component_rhs(y, float(s) - 1.0, 1.0, *ks)
            assert _bits(rhs(0.0, y)) == _bits(ref)
    for n in (5, 6, 7, 8):
        polys = printed_nonautonomous_polys(n)
        fk = [[float(a) for a in polys[k].coeffs] for k in ("K0", "K1", "K2", "K3")]
        qm1 = float(special_exponents(n).lower) - 1.0
        rhs = make_nonautonomous_rhs(n)
        for y, t in zip(_random_states(rng, p, 250), (5.0 * (1.0 - rng.random(250))).tolist()):
            u = 1.0 / t
            ref = _reference_component_rhs(y, qm1, u, *(peval(a, u) for a in fk))
            assert _bits(rhs(t, y)) == _bits(ref)
    auto = make_autonomous_rhs(Params(8, F(3, 2), p))
    for bad in (np.inf, -np.inf, np.nan):
        y = np.zeros(4 * p)
        y[-1] = bad
        with pytest.raises(DomainError):
            auto(0.0, y)
