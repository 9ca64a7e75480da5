"""Reduced-system right-hand sides, equilibria and spectra."""

from fractions import Fraction as F

import numpy as np
import pytest

from fowler4.integrate import integrate
from fowler4.odes import (equilibrium_state, equilibrium_value, linearized_spectrum,
                          make_autonomous_rhs, make_nonautonomous_rhs, ray_state,
                          spectrum_backward_error)
from fowler4.params import DomainError, Params


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
    out = rhs(0.0, np.zeros(4))
    assert np.all(out == 0.0)


def test_rhs_fills_every_component_block():
    # the factory's p does not bound the state: every 4-block is filled
    y = np.array([0.7, -0.2, 0.1, 0.3, -0.4, 0.25, -0.6, 0.05])
    one = make_autonomous_rhs(Params(5, F(7), p=1))(0.0, y)
    two = make_autonomous_rhs(Params(5, F(7), p=2))(0.0, y)
    assert one.tobytes() == two.tobytes()


def test_rejects_nonfinite_state():
    rhs = make_autonomous_rhs(Params(5, F(7)))
    with pytest.raises(DomainError):
        rhs(0.0, np.array([np.inf, 0, 0, 0]))


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
    assert np.all(rhs(10.0, np.zeros(4)) == 0.0)
    with pytest.raises(DomainError):
        rhs(0.0, np.ones(4))
    with pytest.raises(DomainError):
        rhs(-3.0, np.ones(4))


def test_equilibrium_value_window():
    assert equilibrium_value(Params(5, F(7))) == pytest.approx((112 / 81) ** (1 / 6))
    assert equilibrium_value(Params(5, F(3))) is None    # K0 < 0
    with pytest.raises(DomainError):
        equilibrium_state(Params(5, F(3)))


def test_spectrum_reproduces_polynomial():
    p = Params(5, F(7))
    roots = linearized_spectrum(p)
    assert roots.shape == (4,)
    assert spectrum_backward_error(p, roots) < 1e-10
    # closed under conjugation
    conj = np.sort_complex(np.conj(roots))
    assert np.allclose(np.sort_complex(roots), conj, atol=1e-9)


def test_spectrum_critical_case_structure():
    # constant term K0(1 - s) < 0 forces a positive real root; the
    # oscillatory pair is purely imaginary (recorded, |Re| checked)
    p = Params(5, F(9))
    roots = linearized_spectrum(p)
    assert max(r.real for r in roots) > 0
    imag_pair = [r for r in roots if abs(r.imag) > 0.5]
    assert len(imag_pair) == 2
    assert max(abs(r.real) for r in imag_pair) < 1e-8


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
