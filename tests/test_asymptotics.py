"""Regime trichotomy and profile fitting."""

import decimal
import hashlib
import math
import sys
from fractions import Fraction as F

import numpy as np
import pytest

from fowler4 import asymptotics as asy
from fowler4.params import DomainError, special_exponents
from fowler4.pohozaev import constant_state_trajectory
from fowler4.profiles import AvilesProfile, Bubble, SingularPower


def test_classifier_witness_points():
    assert asy.classify_regime(5, F(3)).regime is asy.Regime.SERRIN_LIONS
    assert asy.classify_regime(5, F(5)).regime is asy.Regime.AVILES
    assert asy.classify_regime(5, F(7)).regime is asy.Regime.GIDAS_SPRUCK
    assert asy.classify_regime(5, F(9)).regime is asy.Regime.CRITICAL
    assert asy.classify_regime(5, F(10)).regime is asy.Regime.SUPERCRITICAL


def test_classifier_exact_boundaries_all_dimensions():
    for n in range(5, 17):
        ex = special_exponents(n)
        assert asy.classify_regime(n, ex.lower).regime is asy.Regime.AVILES
        assert asy.classify_regime(n, ex.critical_power).regime is asy.Regime.CRITICAL


def test_classifier_attaches_predictions():
    rep = asy.classify_regime(5, F(7))
    assert rep.predicted_exponent == pytest.approx(2.0 / 3.0)
    assert rep.predicted_amplitude == pytest.approx((112.0 / 81.0) ** (1.0 / 6.0))
    rep_av = asy.classify_regime(5, F(5))
    assert rep_av.log_correction_exponent == pytest.approx(-0.25)
    assert rep_av.predicted_amplitude == pytest.approx(13.5 ** 0.25)


def test_classifier_rejects_bad_input():
    with pytest.raises(DomainError):
        asy.classify_regime(4, F(2))
    with pytest.raises(DomainError):
        asy.classify_regime(5, F(1))


def test_power_fit_roundtrip_exact_solution():
    sp = SingularPower(5, 7.0)
    rs = np.geomspace(1e-3, 1e2, 40)
    rep = asy.fit_power_law([(float(r), sp.radial(float(r))) for r in rs])
    assert abs(rep.exponent - 2.0 / 3.0) < 1e-10
    assert abs(rep.amplitude - sp.amplitude) < 1e-10 * sp.amplitude


def test_power_fit_bubble_far_field():
    b = Bubble(5)
    rs = np.geomspace(1e2, 1e4, 20)
    rep = asy.fit_power_law([(float(r), b.radial(float(r))) for r in rs])
    assert abs(rep.exponent - 1.0) < 0.01


def test_power_fit_constant_samples():
    rs = np.geomspace(0.01, 10.0, 20)
    rep = asy.fit_power_law([(float(r), 3.7) for r in rs])
    assert abs(rep.exponent) < 1e-12


def test_power_fit_preconditions():
    with pytest.raises(DomainError):
        asy.fit_power_law([(r, 1.0) for r in (1, 2, 3, 4, 5, 6, 7, 8)])  # < 2 decades
    with pytest.raises(DomainError):
        asy.fit_power_law([(1.0, 1.0)] * 4)
    with pytest.raises(DomainError):
        asy.fit_power_law([(float(r), -1.0) for r in np.geomspace(0.01, 10, 10)])


def test_log_fit_roundtrip():
    ap = AvilesProfile(5)
    rs = np.geomspace(1e-9, 1e-4, 40)
    rep = asy.fit_log_corrected([(float(r), ap(float(r))) for r in rs], 5)
    assert abs(rep.log_exponent - (-0.25)) < 1e-8
    assert rep.amplitude_distance("theorem") < 1e-8


def test_log_fit_on_pure_power_gives_zero_log_exponent():
    rs = np.geomspace(1e-9, 1e-4, 40)
    rep = asy.fit_log_corrected([(float(r), float(r) ** -1.0) for r in rs], 5)
    assert abs(rep.log_exponent) < 1e-10


@pytest.mark.parametrize("n", [-1, 0, 1, 2, 3, 4, 5.0, 6.5])
def test_log_fit_rejects_a_dimension_that_is_no_integer_from_5(n):
    # n = 2 raised ZeroDivisionError, and -1, 0, 1, 3 and 4 returned a report
    # built on hat_constant(n), as no other n-taking entry does
    rs = asy.geometric_grid(1e-6, 1e-2, 14)
    with pytest.raises(DomainError, match="integer n >= 5"):
        asy.fit_log_corrected([(r, r ** -1.0) for r in rs], n)


def test_log_fit_rejects_large_radii():
    with pytest.raises(DomainError):
        asy.fit_log_corrected([(0.5, 1.0)] * 15, 5)


def test_model_selection_signal():
    ap = AvilesProfile(5)
    rs = np.geomspace(1e-8, 1e-3, 40)
    pow_rep = asy.fit_power_law([(float(r), ap(float(r))) for r in rs])
    log_rep = asy.fit_log_corrected([(float(r), ap(float(r))) for r in rs], 5)
    assert abs(pow_rep.exponent - 1.0) < 0.05
    assert pow_rep.residual > 10 * max(log_rep.residual, 1e-15)


def test_residual_decay_rate_window():
    for n in (5, 8):
        out = asy.residual_decay_check(n)
        assert 0.9 <= out["rate"] <= 1.1


def test_residual_decay_check_is_bit_pinned():
    want = {5: ("0x1.ff65738d10bdap-1", "0x1.0998a457dd682p-9"),
            8: ("0x1.001552a870a1ap+0", "0x1.955f009e675bfp-12")}
    for n, (rate, rms) in want.items():
        out = asy.residual_decay_check(n)
        assert (out["rate"].hex(), out["rms"].hex(), out["exact"]) == (rate, rms, 0.0)


def test_constant_state_trajectories_of_c08_are_bit_pinned():
    h = hashlib.sha256()
    for n in range(5, 10):
        tr = constant_state_trajectory(n, 100.0, 2000.0)
        assert tr.y.dtype == np.float64 and tr.y.flags.c_contiguous
        h.update(tr.y.tobytes())
    assert h.hexdigest() == "6e47776a579d0f33a2b8ad722aa5d1f07ee8e0dafe38411054d57c7b26315b10"


def test_constant_state_trajectory_settles_on_printed_limit_amplitude():
    # map the slowly varying balance back through the transform and fit:
    # the amplitude lands on the printed-block limit variant.  The time
    # span is capped where r^{4-n} = e^{(n-4)t} stays representable.
    n = 8
    tr = constant_state_trajectory(n, 50.0, 170.0)
    samples = []
    for t, w in zip(tr.t, tr.y[:, 0]):
        r = math.exp(-float(t))
        samples.append((r, float(w) * r ** (4 - n) * float(t) ** ((4 - n) / 4.0)))
    rep = asy.fit_log_corrected(samples, n)
    assert rep.amplitude_distance("printed-limit") < 0.05
    assert rep.amplitude_distance("theorem") > 0.05


def test_fits_on_exact_data_recover_the_exponents_to_the_last_bit():
    # C09's grids: the fsum-based fit is exact on both (lstsq gave
    # 0.6666666666666671 and -0.25000000000000006)
    sp = SingularPower(5, 7.0)
    rep = asy.fit_power_law([(r, sp.radial(r)) for r in asy.geometric_grid(1e-3, 1e2, 40)])
    assert rep.exponent == sp.gamma == 2.0 / 3.0
    ap = AvilesProfile(5)
    repl = asy.fit_log_corrected([(r, ap(r)) for r in asy.geometric_grid(1e-9, 1e-4, 40)], 5)
    assert repl.log_exponent == -0.25


@pytest.mark.parametrize("lo, hi, num", [(1e-3, 1e2, 40), (1e2, 1e4, 24), (1e-9, 1e-4, 40),
                                         (1e-8, 1e-3, 40), (10.0, 1e4, 25), (1e2, 1e4, 2)])
def test_geometric_grid_hits_both_ends_and_the_exact_progression(lo, hi, num):
    grid = asy.geometric_grid(lo, hi, num)
    assert len(grid) == num and grid[0] == lo and grid[-1] == hi
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        log_q = (decimal.Decimal(hi) / decimal.Decimal(lo)).ln()
        exact = [decimal.Decimal(lo) * (log_q * i / (num - 1)).exp() for i in range(num)]
        worst = max(abs(decimal.Decimal(g) / e - 1) for g, e in zip(grid, exact))
    assert worst <= 3 * sys.float_info.epsilon


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_fits_reject_non_finite_samples(bad):
    rs = asy.geometric_grid(1e-9, 1e-4, 16)
    for i in (0, 7):
        samples = [(r, 1.0) for r in rs]
        samples[i] = (samples[i][0], bad)
        with pytest.raises(DomainError, match="finite"):
            asy.fit_power_law(samples)
        with pytest.raises(DomainError, match="finite"):
            asy.fit_log_corrected(samples, 5)
        samples[i] = (bad, 1.0)
        with pytest.raises(DomainError, match="finite"):
            asy.fit_power_law(samples)
