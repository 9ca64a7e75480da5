"""Closed-form solutions, kernels and residual verification."""

import hashlib
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fowler4 import bubble
from fowler4 import profiles as pf
from fowler4.params import DomainError, special_exponents, unit_sphere_area


# ---------------------------------------------------------------- bubbles

def test_bubble_center_and_unit_values():
    b = pf.Bubble(5, mu=1.0)
    assert b(np.zeros(5)) == pytest.approx(2.0 ** 0.5)      # (2 mu)^{(n-4)/2}
    e1 = np.zeros(5)
    e1[0] = 1.0
    assert b(e1) == pytest.approx(1.0)                      # 2/(1+1) = 1
    b2 = pf.Bubble(7, mu=2.0, x0=np.ones(7))
    assert b2(np.ones(7)) == pytest.approx(4.0 ** 1.5)


def test_bubble_strictly_decreasing():
    b = pf.Bubble(6, mu=0.7)
    rs = np.linspace(0.0, 5.0, 50)
    vals = [b.radial(r) for r in rs]
    assert all(a > bb for a, bb in zip(vals, vals[1:]))


def test_bubble_exact_derivatives_vs_finite_differences():
    b = pf.Bubble(5, mu=1.3)
    for r in (0.5, 1.0, 2.5):
        exact = b.radial_derivatives(r)
        fd = np.array([pf.fd_derivative(b.radial, r, k) for k in range(5)])
        rel = np.max(np.abs(exact - fd) / (1.0 + np.abs(exact)))
        assert rel < 1e-7


def test_bubble_constant_matches_closed_form():
    for n in range(5, 11):
        c = bubble.bubble_constant(n)
        assert c == pytest.approx(bubble.bubble_constant_closed_form(n), rel=1e-9)


def test_bubble_residual_with_measured_constant():
    for n in (5, 8):
        b = pf.Bubble(n, mu=1.0)
        c = bubble.bubble_constant(n)
        prof = b.profile()
        power = float(special_exponents(n).upper - 1)
        for r in (0.4, 1.1, 2.0):
            assert prof.residual(n, r, c * b.radial(r) ** power) < 1e-9


def test_bubble_rejects_nonpositive_scale():
    with pytest.raises(DomainError):
        pf.Bubble(5, mu=0.0)


# ------------------------------------------------------- singular powers

def test_singular_power_amplitude_and_eval():
    sp = pf.SingularPower(5, 7.0)
    assert sp.amplitude == pytest.approx((112.0 / 81.0) ** (1.0 / 6.0))
    x = np.zeros(5)
    x[0] = 1.0
    assert sp(x)[0] == pytest.approx(sp.amplitude)


def test_singular_power_scalar_reduction():
    sp = pf.SingularPower(5, 7.0, lam=[1.0])
    assert len(sp.lam) == 1
    assert sp.system_residual(1.0) < 1e-10


def test_singular_power_residual_across_radii():
    sp = pf.SingularPower(6, 4.0, lam=[3.0, 4.0])
    assert np.allclose(np.linalg.norm(sp.lam), 1.0)
    for r in (0.1, 1.0, 10.0):
        assert sp.system_residual(r) < 1e-10


def test_singular_power_rejects_outside_window():
    with pytest.raises(DomainError) as exc:
        pf.SingularPower(5, 3.0)
    assert "s in (" in str(exc.value)
    with pytest.raises(DomainError):
        pf.SingularPower(6, 2.0)            # kernel exponent: K0 = 0 exactly
    with pytest.raises(DomainError):
        pf.SingularPower(5, 7.0, lam=[1.0, -0.5])


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_singular_power_is_built_exactly_where_k0_is_positive(n):
    # K0 = g (g + 2) (n - 2 - g) (n - 4 - g) at g = 4/(s-1): positive for s in
    # (-1, 1), (1, (n+2)/(n-2)) and above n/(n-4), the supercritical powers
    # included; one s inside each band between the roots
    serrin, lower = (n + 2) / (n - 2), n / (n - 4)
    crit = (n + 4) / (n - 4)
    built = (0.5, (1 + serrin) / 2, (lower + crit) / 2, 2 * crit)
    refused = (-2.0, (serrin + lower) / 2)
    for s in built:
        sp = pf.SingularPower(n, s)
        assert max(sp.system_residual(r) for r in (0.1, 1.0, 10.0)) <= 1e-10
    for s in refused:
        with pytest.raises(DomainError, match=r"K0 > 0, i\.e\. s in \(-1, 1\), \(1, "):
            pf.SingularPower(n, s)


def test_residual_sampling_range_hygiene():
    sp = pf.SingularPower(5, 7.0)
    with pytest.raises(DomainError):
        sp.profile().residual(5, 1e-9, 1.0)
    with pytest.raises(DomainError):
        sp.profile().residual(5, 1e9, 1.0)


# ------------------------------------------------------------ log profile

def test_aviles_profile_values():
    ap = pf.AvilesProfile(5)
    r = math.exp(-1.0)
    assert ap(r) == pytest.approx(ap.amplitude * math.e)
    # profile = o(r^{4-n}): the log factor decays (slowly) as r -> 0
    ratio = lambda rr: ap(rr) * rr ** (5 - 4) / ap.amplitude
    assert ratio(1e-300) < ratio(1e-3) < 1.0
    with pytest.raises(DomainError):
        ap(1.5)


def test_aviles_variants():
    assert pf.AvilesProfile(5, "theorem").hat_value == pytest.approx(13.5)
    assert pf.AvilesProfile(5, "printed-limit").hat_value == pytest.approx(27.0)
    assert pf.AvilesProfile(5, "chain-rule").hat_value == pytest.approx(1.5)


# ------------------------------------------------------- Kelvin transform

def test_inversion_involution_and_product_identity():
    rng = np.random.default_rng(0)
    for _ in range(100):
        x0 = rng.normal(size=5)
        mu = float(rng.uniform(0.5, 2.0))
        x = x0 + rng.normal(size=5) * 3.0
        if np.linalg.norm(x - x0) < 1e-8:
            continue
        I1 = pf.inversion_map(x0, mu, x)
        assert float(np.max(np.abs(pf.inversion_map(x0, mu, I1) - x))) < 1e-12 * \
            max(1.0, float(np.max(np.abs(x))))
        prod = np.linalg.norm(I1 - x0) * np.linalg.norm(x - x0)
        assert prod == pytest.approx(mu * mu, abs=1e-12 * max(1.0, mu * mu))


def test_inversion_rejects_center():
    with pytest.raises(DomainError):
        pf.inversion_map(np.zeros(3), 1.0, np.zeros(3))


def test_kelvin_fixes_the_critical_power():
    # |x|^{-(n-4)/2} is invariant under the transform about the origin
    n = 5
    u = lambda x: float(np.linalg.norm(x)) ** (-(n - 4) / 2.0)
    ku = pf.kelvin_transform(u, np.zeros(n), 1.0, n)
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.normal(size=n)
        assert ku(x) == pytest.approx(u(x), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_property_kelvin_involution(seed):
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=5)
    mu = float(rng.uniform(0.3, 3.0))
    x = x0 + rng.normal(size=5)
    if np.linalg.norm(x - x0) < 1e-6:
        return
    I2 = pf.inversion_map(x0, mu, pf.inversion_map(x0, mu, x))
    assert float(np.max(np.abs(I2 - x))) < 1e-10 * max(1.0, float(np.max(np.abs(x))))


# ------------------------------------------------------------ ball kernels

def test_green_symmetry_and_boundary():
    rng = np.random.default_rng(2)
    for _ in range(40):
        x = rng.normal(size=5)
        x *= rng.uniform(0.05, 0.95) / np.linalg.norm(x)
        y = rng.normal(size=5)
        y *= rng.uniform(0.05, 0.95) / np.linalg.norm(y)
        g1, _ = pf.green_ball(5, x, y)
        g2, _ = pf.green_ball(5, y, x)
        assert g1 == pytest.approx(g2, rel=1e-12)
        assert g1 >= 0
    yb = rng.normal(size=5)
    yb /= np.linalg.norm(yb)
    g_b, h_b = pf.green_ball(5, 0.4 * yb, yb)
    assert abs(g_b) < 1e-14
    assert h_b > 0
    _, h0 = pf.green_ball(5, np.zeros(5), yb)
    assert h0 == pytest.approx(1.0 / unit_sphere_area(5))


def test_green_rejects_coincident_points():
    x = np.array([0.2, 0, 0, 0, 0])
    with pytest.raises(DomainError):
        pf.green_ball(5, x, x)


def _vector_helpers_digest():
    """sha256 prefix of 1,500 calls of green_ball, inversion_map and
    kelvin_transform (on a bubble) at seeded points in dimensions 5..9.  The
    points come from uniform draws and a correctly rounded norm, so their
    bits depend on no CPU either."""
    rng = np.random.default_rng(28)
    h = hashlib.sha256()
    for i in range(500):
        n = 5 + i % 5
        x = rng.uniform(-0.3, 0.3, n)
        y = rng.uniform(-0.3, 0.3, n)
        if i % 2:   # on the unit sphere, where H1 is defined too
            y = y / math.sqrt(math.fsum(y * y))
        x0, mu = rng.uniform(-1.0, 1.0, n), float(rng.uniform(0.3, 2.0))
        h.update(repr(pf.green_ball(n, x, y)).encode())
        h.update(pf.inversion_map(x0, mu, x).tobytes())
        h.update(float.hex(pf.kelvin_transform(pf.Bubble(n), x0, mu, n)(x)).encode())
    return h.hexdigest()[:16]


# recorded when the helpers' dot products left BLAS for left-to-right sums
_VECTOR_HELPERS_DIGEST = "cc05920083475c64"


def test_vector_helpers_are_bit_pinned():
    """No src pin reads these helpers; this one makes their bits a contract.
    Under BLAS's ddot the digest followed OpenBLAS's kernel."""
    assert _vector_helpers_digest() == _VECTOR_HELPERS_DIGEST


# --------------------------------------------------------------- wrappers

def _constant_orbit(level, t0=0.0, t1=10.0, num=64):
    from fowler4.integrate import Trajectory
    ts = np.linspace(t0, t1, num)
    ys = np.zeros((num, 4))
    ys[:, 0] = level
    return Trajectory(t=ts, y=ys, stats={})


def test_wrapper_constant_orbit_is_a_pure_power():
    n = 5
    orbit = _constant_orbit(0.83)
    w = pf.EmdenFowlerProfile(n, orbit, period=2.0)
    for r in (0.9, 2.0, 5.0):
        assert w(r) == pytest.approx(0.83 * r ** ((4 - n) / 2.0), rel=1e-12)


def test_wrapper_rejects_nonpositive_or_nan_period():
    orbit = _constant_orbit(1.0)
    for period in (0.0, -2.0, float("nan")):
        with pytest.raises(DomainError, match="period must be positive"):
            pf.EmdenFowlerProfile(5, orbit, period=period)


def test_wrapper_periodic_extension_and_shift():
    n = 5
    orbit = _constant_orbit(1.0, 0.0, 3.0)
    w1 = pf.EmdenFowlerProfile(n, orbit, period=3.0, shift=0.5)
    w2 = pf.EmdenFowlerProfile(n, orbit, period=3.0, shift=0.5 + 3.0)
    for r in (0.05, 0.4, 7.0):
        assert w1(r) == pytest.approx(w2(r), rel=1e-12)
