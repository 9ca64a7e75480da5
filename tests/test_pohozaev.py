"""Slice-energy functionals: identities, conservation, monotonicity."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from fowler4 import levels
from fowler4 import pohozaev as po
from fowler4.asymptotics import classify_regime
from fowler4.coefficients import (BUILD_SIGMA, hat_constant, oracle_autonomous,
                                  printed_nonautonomous_polys)
from fowler4.integrate import Event, Trajectory, integrate
from fowler4.odes import equilibrium_state, make_autonomous_rhs, ray_state
from fowler4.params import DomainError, Params, special_exponents
from fowler4.profiles import AvilesProfile, SingularPower


def test_hamiltonian_zero_state():
    assert po.hamiltonian_radial(Params(5, F(7)), np.zeros(4)) == 0.0


def test_hamiltonian_equilibrium_equals_minus_level():
    for (n, s) in ((5, F(7)), (6, F(4)), (8, F(5, 2))):
        p = Params(n, s)
        H = po.hamiltonian_radial(p, equilibrium_state(p))
        assert H == pytest.approx(-levels.autonomous_level(n, s), rel=1e-13)


def test_hamiltonian_ray_collapse():
    scalars = (0.7, -0.1, 0.3, 0.05)
    p1 = Params(5, F(7), p=1)
    p2 = Params(5, F(7), p=2)
    lam = np.array([1.0, 1.0]) / math.sqrt(2.0)
    H1 = po.hamiltonian_radial(p1, np.array(scalars))
    H2 = po.hamiltonian_radial(p2, ray_state(scalars, lam))
    assert H2 == pytest.approx(H1, rel=1e-13)


def test_exact_level_identity():
    for n in range(5, 9):
        pref_H, pref_l, K0, expo = levels.equilibrium_energy_exact(n, F(7)) \
            if n == 5 else levels.equilibrium_energy_exact(n, F(2 * n, n - 4) - 1)
        assert pref_H == pref_l
        assert K0 > 0 and expo > 1


def test_exact_level_identity_rejects_bad_input():
    with pytest.raises(DomainError):
        levels.equilibrium_energy_exact(5, 7.0)    # needs rational s
    with pytest.raises(DomainError):
        levels.equilibrium_energy_exact(5, F(3))   # K0 < 0


def test_series_on_equilibrium_trajectory():
    p = Params(5, F(7))
    rhs = make_autonomous_rhs(p)
    traj = integrate(rhs, 0.0, equilibrium_state(p), 10.0, rel_tol=1e-11,
                     abs_tol=1e-13)
    series = po.pohozaev_series(p, traj, num=101)
    for q in series:
        assert abs(q.dH_formula) < 1e-12
        if not math.isnan(q.dH_numeric):
            assert abs(q.dH_numeric) < 1e-10


def test_conservation_at_criticality():
    # K1 = K3 = 0 at the critical power: H is a first integral
    p = Params(5, F(9))
    rhs = make_autonomous_rhs(p)
    cap = Event(g=lambda t, y: 3.0 - float(np.max(np.abs(y))), direction=-1,
                terminal=True)
    rng = np.random.default_rng(7)
    for _ in range(5):
        y0 = rng.uniform(-0.4, 0.4, 4)
        traj = integrate(rhs, 0.0, y0, 8.0, rel_tol=1e-10, abs_tol=1e-13,
                         events=[cap], guard=1e4)
        span = float(traj.t[-1] - traj.t[0])
        if span < 0.5:
            continue
        ts = np.linspace(float(traj.t[0]), float(traj.t[-1]), 80)
        Hs = [po.hamiltonian_radial(p, traj(float(t))) for t in ts]
        drift = max(abs(h - Hs[0]) for h in Hs)
        assert drift <= 1e-8 * (1.0 + abs(Hs[0])) * max(1.0, span)


def test_formula_vs_numeric_on_random_subcritical_data():
    p = Params(5, F(7))
    rhs = make_autonomous_rhs(p)
    cap = Event(g=lambda t, y: 3.0 - float(np.max(np.abs(y))), direction=-1,
                terminal=True)
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(6):
        y0 = rng.uniform(-0.5, 0.5, 4)
        traj = integrate(rhs, 0.0, y0, 2.0, rel_tol=1e-12, abs_tol=1e-14,
                         events=[cap], guard=1e4)
        if float(traj.t[-1]) < 0.3 or len(traj.t) < 5:
            continue
        for q in po.pohozaev_series(p, traj, num=801):
            if math.isnan(q.dH_numeric):
                continue
            assert abs(q.dH_numeric - q.dH_formula) <= \
                max(1e-6, 1e-3 * abs(q.dH_formula))
            assert q.dH_numeric >= -1e-8      # nondecreasing inside the window
            checked += 1
    assert checked > 1000


def test_levels_witness_value():
    lv = levels.limiting_levels(Params(5, F(7)))
    assert lv.l_star_autonomous == pytest.approx(
        (6.0 / 16.0) * (112.0 / 81.0) ** (8.0 / 6.0))
    assert lv.aviles_verdict == "MISMATCH"
    assert lv.l_star_aviles_printed == pytest.approx(1042122.5859375)
    assert lv.l_star_aviles_derived["theorem"] == pytest.approx(57.869195173, rel=1e-9)
    assert lv.l_star_aviles_constant_state["theorem"] < 0


def test_level_for_subcritical_outside_window_is_none():
    assert levels.autonomous_level(5, F(3)) is None


def test_constant_level_is_the_removed_closed_form_bit_for_bit():
    # the expression odes.equilibrium_value, classify_regime and
    # SingularPower.amplitude each wrote before constant_level
    def removed(n, s):
        K0 = oracle_autonomous(n, s)["K0"]
        return float(K0) ** (1.0 / (float(s) - 1.0)) if K0 > 0 else None

    for n in range(5, 17):
        ex = special_exponents(n)
        window = (ex.lower + ex.critical_power) / 2
        # one s in each band where K0 > 0, the sublinear one included ...
        bands = [F(1, 2), F(n, n - 2), window, ex.critical_power + 1]
        # ... and K0 = 0 and K0 < 0 between them
        gaps = [F(n + 2, n - 2), (F(n + 2, n - 2) + ex.lower) / 2]
        for s in bands + gaps:
            for t in (s, float(s)):
                level, ref = levels.constant_level(n, t), removed(n, t)
                assert level is None if ref is None else level.hex() == ref.hex()
        for t in [x for s in bands for x in (s, float(s))]:
            assert SingularPower(n, t).amplitude == levels.constant_level(n, t)
        for t in (window, float(window)):
            assert classify_regime(n, t).predicted_amplitude == levels.constant_level(n, t)
            assert equilibrium_state(Params(n, t))[0] == levels.constant_level(n, t)


def test_aviles_amplitude_is_the_removed_closed_form_bit_for_bit():
    for n in range(5, 17):
        for variant in ("theorem", "printed-limit", "chain-rule"):
            ref = float(hat_constant(n, variant)) ** ((n - 4) / 4.0)
            assert levels.aviles_amplitude(n, variant).hex() == ref.hex()
            assert AvilesProfile(n, variant).amplitude == ref
        assert levels.aviles_amplitude(n) == levels.aviles_amplitude(n, "theorem")
        assert classify_regime(n, special_exponents(n).lower).predicted_amplitude == \
            levels.aviles_amplitude(n)


def test_scaling_invariance_proxy_on_power_state():
    # the power solution maps to a constant state: its slice energy is
    # exactly t-independent
    p = Params(5, F(7))
    y = equilibrium_state(p)
    vals = [po.hamiltonian_radial(p, y) for _ in range(5)]
    assert max(vals) - min(vals) == 0.0


def _dot(a, b):
    # left to right in plain float steps
    acc = 0.0
    for x, y in zip(a.tolist(), b.tolist()):
        acc = acc + x * y
    return acc


def _hamiltonian_by_dot(params, y):
    # H of one state, term by term, on left-to-right dot products
    c = {k: float(v) for k, v in oracle_autonomous(params.n, params.s).items()}
    v, v1, v2, v3 = y[0::4], y[1::4], y[2::4], y[3::4]
    s = float(params.s)
    return (-(_dot(v3, v1) + c["K3"] * _dot(v2, v1))
            + 0.5 * (_dot(v2, v2) - c["K2"] * _dot(v1, v1) - c["K0"] * _dot(v, v))
            + math.sqrt(_dot(v, v)) ** (s + 1) / (s + 1))


def _density_by_dot(params, y):
    # the monotonicity density K1 |V'|^2 - K3 |V''|^2 of one state
    c = {k: float(v) for k, v in oracle_autonomous(params.n, params.s).items()}
    v1, v2 = y[1::4], y[2::4]
    return c["K1"] * _dot(v1, v1) - c["K3"] * _dot(v2, v2)


def _aviles_by_dot(n, y, t):
    co = printed_nonautonomous_polys(n)
    K0, K2, K3 = (float(co[k](1.0 / t)) for k in ("K0", "K2", "K3"))
    w, w1, w2, w3 = y[0::4], y[1::4], y[2::4], y[3::4]
    q = float(special_exponents(n).lower)
    return (-t * (_dot(w3, w1) + K3 * _dot(w2, w1))
            + 0.5 * t * (_dot(w2, w2) - K2 * _dot(w1, w1) - K0 * _dot(w, w))
            + math.sqrt(_dot(w, w)) ** (q + 1) / (q + 1))


@pytest.mark.parametrize("p", [1, 3])
def test_stacked_row_energies_equal_the_one_row_functions_bit_for_bit(p):
    # pohozaev_series and monotonicity_check_aviles evaluate all rows at
    # once; every row must keep the bits of the one-state functions
    rng = np.random.default_rng(p)
    ys = rng.standard_normal((400, 4 * p)) * np.exp(rng.uniform(-4.0, 4.0, (400, 1)))
    ts = rng.uniform(0.5, 3000.0, 400)
    for params in (Params(5, F(7), p), Params(7, F(3), p), Params(6, 2.5, p)):
        H, dH = po._radial_rows(params, ys, po._autonomous_floats(params, BUILD_SIGMA))
        assert H.tolist() == [po.hamiltonian_radial(params, y) for y in ys]
        assert H.tolist() == [_hamiltonian_by_dot(params, y) for y in ys]
        assert dH.tolist() == [_density_by_dot(params, y) for y in ys]
    for n in (5, 9):
        P = po._aviles_rows(n, ys, ts)
        assert P.tolist() == [po.aviles_hamiltonian(n, y, t) for y, t in zip(ys, ts)]
        assert P.tolist() == [_aviles_by_dot(n, y, t) for y, t in zip(ys, ts.tolist())]


def test_series_fields_are_python_floats():
    p = Params(5, F(7), p=3)
    traj = integrate(make_autonomous_rhs(p), 0.0, np.full(12, 0.1), 0.5)
    for q in po.pohozaev_series(p, traj, num=9):
        assert {type(x) for x in (q.t, q.H, q.dH_formula, q.dH_numeric)} == {float}


def test_series_rejects_too_few_samples_or_nodes():
    # num < 5 leaves the derivative stencil nothing to act on: num 0 and 1
    # raised IndexError, 2-4 gave a series without one numeric derivative
    p = Params(5, F(7))
    traj = integrate(make_autonomous_rhs(p), 0.0, equilibrium_state(p), 1.0)
    assert len(po.pohozaev_series(p, traj, num=5)) == 5
    for num in range(5):
        with pytest.raises(DomainError, match="num >= 5"):
            po.pohozaev_series(p, traj, num=num)
    four_nodes = Trajectory(t=np.arange(4.0), y=np.zeros((4, 4)), stats={})
    with pytest.raises(DomainError, match="too short"):
        po.pohozaev_series(p, four_nodes, num=9)


def test_aviles_hamiltonian_contract():
    assert po.aviles_hamiltonian(5, np.zeros(4), 50.0) == 0.0
    with pytest.raises(DomainError):
        po.aviles_hamiltonian(5, np.zeros(4), 0.0)


def test_p_coefficients_printed_vs_definitional():
    pc = levels.aviles_p_coeffs(5, 100.0)
    # p3: 1/t^2 sign flip only
    assert pc["printed"]["p3"] - pc["definitional"]["p3"] == pytest.approx(
        -2 * (5 - 4) / 100.0**2)
    # p2: structural disagreement (printed stays O(1), definitional grows)
    assert abs(pc["printed"]["p2"]) < 10
    assert pc["definitional"]["p2"] < -100
    # p0: 1/t^3 term sign flip
    diff = pc["printed"]["p0"] - pc["definitional"]["p0"]
    n = 5
    expected = 2 * (n - 4) ** 2 * n * (n + 4) / 32.0 / 100.0**3
    assert diff == pytest.approx(expected, rel=1e-9)


def test_p0_sign_split():
    assert [levels.p0_large_t_sign(n) for n in range(5, 10)] == [-1, -1, -1, 1, 1]


def test_definitional_p_polys_structure():
    d = levels.definitional_p_polys(6)
    assert d["p2"].get(1, 0) < 0              # term linear in t
    assert -2 in d["p0"] and 1 not in d["p0"]  # leading 1/t^2, no t term


def test_monotonicity_check_verdicts():
    for n, want in ((5, "NONINCREASING"), (8, "NONDECREASING")):
        tr = po.constant_state_trajectory(n, 100.0, 2000.0)
        assert po.monotonicity_check_aviles(n, tr) == want
    zero = po.constant_state_trajectory(5, 100.0, 2000.0)
    zero.y[:] = 0.0
    assert po.monotonicity_check_aviles(5, zero) == "CONSTANT"
    short = po.constant_state_trajectory(5, 100.0, 105.0)
    assert po.monotonicity_check_aviles(5, short) == "INCONCLUSIVE"


def test_monotonicity_check_never_false_passes_unsettled_data():
    # an unsettled synthetic trajectory must come back INCONCLUSIVE, also
    # when W' is zero and only the nodes of |W| show the swing
    ts = np.linspace(100.0, 400.0, 200)
    for w1 in (0.05 * np.cos(ts / 10.0), np.zeros_like(ts)):
        ys = np.zeros((200, 4))
        ys[:, 0] = 1.0 + 0.5 * np.sin(ts / 10.0)
        ys[:, 1] = w1
        tr = Trajectory(t=ts, y=ys, stats={})
        assert po.monotonicity_check_aviles(5, tr) == "INCONCLUSIVE"


def test_residual_decay_at_constant_state():
    ts = np.geomspace(10.0, 1e4, 12)
    res = po.constant_state_residuals(5, ts.tolist())
    assert all(r > 0 for r in res)
    slope = np.polyfit(np.log(ts), np.log(res), 1)[0]
    assert -1.1 <= slope <= -0.9
