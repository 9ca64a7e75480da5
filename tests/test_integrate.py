"""Integrator contract: accuracy, dense output, events, guards."""

import hashlib
import importlib
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from fowler4 import odes
from fowler4.integrate import Event, StepUnderflowError, Trajectory, integrate
from fowler4.odes import make_autonomous_rhs
from fowler4.params import DomainError, Params
from fowler4.shooting import critical_constants, make_critical_rhs

# the module, not the function that the package re-exports under its name
integ_module = importlib.import_module("fowler4.integrate")


def _linear_rhs(t, y):
    # v'''' = -v as a first-order system
    return np.array([y[1], y[2], y[3], -y[0]])


def _linear_solution(t, y0):
    """Eigen-decomposition oracle for y' = A y with the quartic lambda^4 = -1."""
    A = np.array([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0]],
                 dtype=complex)
    w, V = np.linalg.eig(A)
    c = np.linalg.solve(V, y0.astype(complex))
    return (V @ (np.exp(w * t) * c)).real


def test_linear_problem_matches_eigen_oracle():
    y0 = np.array([1.0, 0.0, 0.0, 0.0])
    traj = integrate(_linear_rhs, 0.0, y0, 10.0, rel_tol=1e-9, abs_tol=1e-12)
    exact = _linear_solution(10.0, y0)
    scale = max(1.0, float(np.max(np.abs(exact))))   # solution grows ~ e^{t/sqrt2}
    assert float(np.max(np.abs(traj.y[-1] - exact))) / scale < 1e-7


def test_equilibrium_stays_put():
    rhs = lambda t, y: np.zeros_like(y)
    traj = integrate(rhs, 0.0, np.array([2.0, 0.0]), 100.0, rel_tol=1e-9,
                     abs_tol=1e-11)
    assert float(np.max(np.abs(traj.y - traj.y[0]))) <= 1e-11


def test_time_reversal_roundtrip():
    y0 = np.array([1.0, 0.3, -0.2, 0.1])
    tol = 1e-10
    fwd = integrate(_linear_rhs, 0.0, y0, 5.0, rel_tol=tol, abs_tol=tol * 1e-2)
    back = integrate(_linear_rhs, 5.0, fwd.y[-1], 0.0, rel_tol=tol, abs_tol=tol * 1e-2)
    assert back.t[0] == 5.0 and back.t[-1] == 0.0
    for traj in (fwd, back):
        assert len(traj.h) == len(traj.dense) == len(traj.t) - 1
    assert float(np.max(np.abs(back.y[-1] - y0))) < 10 * tol * 10


def test_dense_output_reproduces_nodes():
    traj = integrate(_linear_rhs, 0.0, np.array([1.0, 0, 0, 0]), 7.0,
                     rel_tol=1e-10, abs_tol=1e-12)
    for i in range(0, len(traj.t), max(1, len(traj.t) // 10)):
        err = np.max(np.abs(traj(float(traj.t[i])) - traj.y[i]))
        assert err < 1e-12


def test_dense_output_midstep_consistency():
    tol = 1e-9
    traj = integrate(_linear_rhs, 0.0, np.array([1.0, 0, 0, 0]), 3.0,
                     rel_tol=tol, abs_tol=tol * 1e-2)
    # compare mid-step dense values against a much tighter re-integration
    ref = integrate(_linear_rhs, 0.0, np.array([1.0, 0, 0, 0]), 3.0,
                    rel_tol=1e-13, abs_tol=1e-15)
    for tm in (0.5 * (traj.t[:-1] + traj.t[1:]))[::3]:
        err = float(np.max(np.abs(traj(tm) - ref(tm))))
        assert err < 10 * tol


def test_blowup_guard_flags_and_truncates():
    rhs = lambda t, y: np.array([y[1], y[2], y[3], np.abs(y[0]) ** 3 * np.sign(y[0])])
    traj = integrate(rhs, 0.0, np.array([2.0, 1.0, 1.0, 1.0]), 50.0,
                     rel_tol=1e-9, abs_tol=1e-11, guard=1e6)
    assert traj.status == "blowup"
    assert len(traj.h) == len(traj.dense) == len(traj.t) - 1
    assert traj.t[-1] < 50.0
    assert float(np.max(np.abs(traj.y[-1]))) > 1e6


def test_step_underflow_carries_partial_trajectory():
    # finite-time singularity: y' = y^2 from y(0) = 1 blows up at t = 1
    rhs = lambda t, y: y * y
    with pytest.raises(StepUnderflowError) as exc:
        integrate(rhs, 0.0, np.array([1.0]), 2.0, rel_tol=1e-10, abs_tol=1e-12,
                  guard=1e300)
    part = exc.value.trajectory
    assert isinstance(part, Trajectory)
    assert 0.9 < part.t[-1] <= 1.0
    assert len(part.h) == len(part.dense) == len(part.t) - 1


def test_step_underflow_scales_with_the_time_not_the_span():
    # the same blow-up over a span of 1e300: the guard stops it near t = 1;
    # a test scaled by the span called any step below 1e286 an underflow
    traj = integrate(lambda t, y: y * y, 0.0, np.array([1.0]), 1e300,
                     rel_tol=1e-10, abs_tol=1e-12, guard=1e8)
    assert traj.status == "blowup"
    assert 0.9 < traj.t[-1] <= 1.0


@pytest.mark.parametrize("span", [1e-30, 1e-300])
def test_a_span_that_fits_in_one_step_is_no_underflow(span):
    # the first step equals the span, far below 1e-14: it ends the run
    rhs = make_autonomous_rhs(Params(5, Fraction(7)))
    traj = integrate(rhs, 0.0, np.array([1.0, 0.0, 0.0, 0.0]), span,
                     rel_tol=1e-10, abs_tol=1e-12)
    assert traj.status == "reached"
    assert traj.t.tolist() == [0.0, span]
    assert traj.stats["steps"] == 1


def test_an_overflowing_coupling_fails_its_step():
    # |V|^6 leaves float range in the early stages from v = 1e30: each such
    # step is rejected as non-finite (before, OverflowError escaped the run)
    rhs = make_autonomous_rhs(Params(5, Fraction(7)))
    with pytest.raises(StepUnderflowError) as exc:
        integrate(rhs, 0.0, np.array([1e30, 0.0, 0.0, 0.0]), 1.0, rel_tol=1e-6,
                  abs_tol=1e250, guard=np.inf)
    stats = exc.value.trajectory.stats
    assert stats["steps"] == 0 and stats["rejected"] > 0


def test_step_cap_stops_with_max_steps_status(monkeypatch):
    monkeypatch.setattr(integ_module, "_MAX_STEPS", 7)
    traj = integrate(_linear_rhs, 0.0, np.array([1.0, 0, 0, 0]), 100.0,
                     rel_tol=1e-10, abs_tol=1e-12)
    assert traj.status == "max_steps"
    assert traj.stats["steps"] == 7
    accepted = traj.stats["steps"] - traj.stats["rejected"]
    assert len(traj.t) == accepted + 1 and len(traj.dense) == accepted
    assert traj.t[-1] < 100.0


def test_event_location_on_dense_output():
    # v' of cos(t) crosses zero downward at pi/2 for the harmonic oscillator
    rhs = lambda t, y: np.array([y[1], -y[0]])
    ev = Event(g=lambda t, y: y[0], direction=-1, terminal=True)
    traj = integrate(rhs, 0.0, np.array([1.0, 0.0]), 10.0, rel_tol=1e-11,
                     abs_tol=1e-13, events=[ev])
    assert traj.status == "event"
    assert len(traj.h) == len(traj.dense) == len(traj.t) - 1
    te, ye = traj.events[0][0]
    assert te == pytest.approx(np.pi / 2, abs=1e-9)
    assert abs(ye[0]) < 1e-9


@pytest.mark.parametrize("backward", [False, True])
def test_event_functions_get_a_tuple_of_floats_and_hits_keep_floats(backward):
    # cos t crosses 0 at pi/2 (downward) and 3 pi/2 (upward); each call is the
    # start state, an accepted node or a bisection halving inside a step.  A
    # plain RHS may return an array or a list; on the adapter's array a list
    # holds numpy scalars, which the adapter turns into floats too
    t0, t1 = (5.0, 0.0) if backward else (0.0, 5.0)
    y0 = [math.cos(t0), -math.sin(t0)]
    for rhs in (lambda t, y: np.array([y[1], -y[0]]), lambda t, y: [y[1], -y[0]]):
        seen = []

        def g(t, y):
            seen.append((t, type(y), {type(a) for a in y}))
            return y[0]

        traj = integrate(rhs, t0, np.array(y0), t1, rel_tol=1e-10, abs_tol=1e-12,
                         events=[Event(g=g)])
        assert {(ty, *tys) for _, ty, tys in seen} == {(tuple, float)}
        nodes = set(traj.t.tolist())
        assert seen[0][0] == t0
        assert sum(t in nodes for t, _, _ in seen) == len(nodes) == len(traj.t)
        assert sum(t not in nodes for t, _, _ in seen) > 40   # the halvings
        hits = traj.events[0]
        assert len(hits) == 2
        for te, ye in hits:
            assert type(te) is float and type(ye) is list
            assert {type(a) for a in ye} == {float}
            assert abs(ye[0]) < 1e-9
        assert sorted(te for te, _ in hits) == pytest.approx([np.pi / 2, 3 * np.pi / 2],
                                                             abs=1e-9)


def test_event_location_builds_no_array_per_step(monkeypatch):
    # a capped C06 run at two tolerances: the arrays integrate builds are the
    # initial state's, the record's and one dense matrix per crossing, however
    # many steps and halvings the run takes
    class CountingNumpy:
        def __init__(self):
            self.arrays = 0

        def __getattr__(self, name):
            return getattr(np, name)

        def array(self, *args, **kwargs):
            self.arrays += 1
            return np.array(*args, **kwargs)

    rhs = make_autonomous_rhs(Params(5, Fraction(7)))
    cap = Event(g=lambda t, y: 3.0 - max(map(abs, y)), direction=-1, terminal=True)
    counts = []
    for rel_tol in (1e-8, 1e-13):
        counting = CountingNumpy()
        monkeypatch.setattr(integ_module, "np", counting)
        traj = integrate(rhs, 0.0, _CAP_STATES[1], 2.0, rel_tol=rel_tol,
                         abs_tol=1e-14, guard=1e4, events=[cap])
        assert traj.status == "event" and len(traj.events[0]) == 1
        counts.append((counting.arrays, traj.stats["steps"]))
    (arrays_lo, steps_lo), (arrays_hi, steps_hi) = counts
    assert steps_hi > 4 * steps_lo
    assert arrays_lo == arrays_hi <= 6


def test_rejects_bad_inputs():
    with pytest.raises(DomainError):
        integrate(_linear_rhs, 0.0, np.array([1.0, 0, 0, 0]), 0.0)
    with pytest.raises(DomainError):
        integrate(_linear_rhs, 0.0, np.array([np.nan, 0, 0, 0]), 1.0)
    with pytest.raises(DomainError):
        integrate(_linear_rhs, 0.0, np.array([1.0, 0, 0, 0]), 1.0, rel_tol=-1.0)


@pytest.mark.parametrize("t0, t1", [(0.0, np.nan), (0.0, np.inf), (np.nan, 1.0),
                                    (-np.inf, 0.0)])
def test_non_finite_span_raises_before_any_step(t0, t1):
    calls = []
    rhs = lambda t, y: calls.append(t) or _linear_rhs(t, y)
    with pytest.raises(DomainError):
        integrate(rhs, t0, np.array([1.0, 0, 0, 0]), t1)
    assert calls == []


@pytest.mark.parametrize("rel_tol, abs_tol", [(np.nan, 1e-11), (1e-9, np.nan),
                                              (0.0, 1e-11), (1e-9, -1.0),
                                              (np.inf, 1e-11), (1e-9, np.inf)])
def test_nan_or_nonpositive_tolerance_raises_before_any_step(rel_tol, abs_tol):
    calls = []
    rhs = lambda t, y: calls.append(t) or _linear_rhs(t, y)
    with pytest.raises(DomainError, match="tolerances must be positive"):
        integrate(rhs, 0.0, np.array([1.0, 0, 0, 0]), 1.0, rel_tol=rel_tol, abs_tol=abs_tol)
    assert calls == []


@pytest.mark.parametrize("state0, guard, match", [
    (np.array([]), 1e8, "empty initial state"),
    ([], 1e8, "empty initial state"),
    (np.array([1.0, 0, 0, 0]), np.nan, "guard must be positive"),
    (np.array([1.0, 0, 0, 0]), 0.0, "guard must be positive"),
    (np.array([1.0, 0, 0, 0]), -1.0, "guard must be positive"),
], ids=["empty-array", "empty-list", "nan-guard", "zero-guard", "negative-guard"])
def test_empty_state_or_nan_or_nonpositive_guard_raises_before_any_step(state0, guard, match):
    # an empty state divided by zero in _rms, and a NaN guard never stopped a blow-up
    calls = []
    rhs = lambda t, y: calls.append(t) or y
    with pytest.raises(DomainError, match=match):
        integrate(rhs, 0.0, state0, 100.0, guard=guard)
    assert calls == []


def test_non_finite_initial_derivative_raises_after_one_call():
    # it left the first step size 0: a division by zero in the start-up
    calls = []
    rhs = lambda t, y: calls.append(t) or np.array([y[1], np.inf])
    with pytest.raises(DomainError, match="non-finite derivative"):
        integrate(rhs, 0.0, np.array([1.0, 0.0]), 1.0)
    assert calls == [0.0]


@pytest.mark.parametrize("y0, f0, tspan", [
    ([1e30, 0.0], [1e300, 0.0], 40.0),
    ([1.0, 1e300], [1e300, 0.0], 40.0),
    ([0.1, 0.0], [1.0, 0.0], 5e-324),
], ids=["square-overflows", "quotient-overflows", "tiny-span"])
def test_initial_step_raises_where_its_trial_step_is_zero(y0, f0, tspan):
    # the scaled norm of f0 overflows (h0 = 0.01 d0 / inf), or a tenth of
    # the span underflows: each divided by h0 = 0 in the second evaluation
    calls = []
    f = lambda t, x: calls.append(t) or x
    with pytest.raises(DomainError, match="first step size is 0"):
        integ_module._initial_step(f, 0.0, y0, f0, tspan, 1e-9, 1e-11)
    assert calls == []


def test_initial_step_of_a_linear_decay():
    # y' = -y from 1: d0 = d1 = 1/sc, h0 = 0.01, and the second evaluation
    # gives d2 = 1/sc too, so the step is (0.01 sc)^(1/5) with sc = 1e-11 + 1e-9
    calls = []
    f = lambda t, x: calls.append(t) or [-a for a in x]
    h = integ_module._initial_step(f, 0.0, [1.0], [-1.0], 10.0, 1e-9, 1e-11)
    assert calls == [0.01]
    assert h == pytest.approx((0.01 * (1e-11 + 1e-9)) ** 0.2, rel=1e-12)


def test_infinite_guard_turns_the_blowup_stop_off():
    traj = integrate(lambda t, y: y, 0.0, np.array([1.0]), 50.0, guard=np.inf)
    assert traj.status == "reached"
    assert traj.y[-1, 0] == pytest.approx(math.exp(50.0), rel=1e-6)


def test_trajectory_span_guard():
    traj = integrate(_linear_rhs, 0.0, np.array([1.0, 0, 0, 0]), 1.0)
    with pytest.raises(DomainError):
        traj(2.0)


def test_stats_are_recorded():
    traj = integrate(_linear_rhs, 0.0, np.array([1.0, 0, 0, 0]), 5.0)
    assert traj.stats["steps"] > 0 and traj.stats["rhs_evals"] > traj.stats["steps"]


def test_start_up_evaluates_the_rhs_once_at_the_initial_state():
    # the FSAL stage k[0] also feeds the initial step size: two start-up
    # calls, then six per step
    y0 = np.array([1.0, -2.0])
    calls = []

    def rhs(t, y):
        calls.append((t, y.tolist()))
        return -y

    traj = integrate(rhs, 0.0, y0, 5.0)
    assert calls.count((0.0, y0.tolist())) == 1
    assert traj.stats["rejected"] == 0
    assert traj.stats["rhs_evals"] == len(calls) == 2 + 6 * traj.stats["steps"]


def _assert_batch_matches_points(traj):
    lo, hi = sorted((traj.t0, traj.t1))
    rng = np.random.default_rng(3)
    ts = np.concatenate([np.linspace(traj.t0, traj.t1, 301), traj.t.astype(float),
                         rng.uniform(lo, hi, 100)])
    batch = traj(ts)
    rows = np.array([traj(float(t)) for t in ts])
    assert batch.dtype == traj.y.dtype and rows.dtype == traj.y.dtype
    assert batch.shape == (ts.size, traj.y.shape[1])
    assert np.array_equal(batch, rows)


def test_batched_query_equals_pointwise_forward_backward():
    y0 = np.array([1.0, 0.3, -0.2, 0.1])
    _assert_batch_matches_points(
        integrate(_linear_rhs, 0.0, y0, 5.0, rel_tol=1e-10, abs_tol=1e-12))
    back = integrate(_linear_rhs, 5.0, y0, 0.0, rel_tol=1e-10, abs_tol=1e-12)
    assert np.all(np.diff(back.t) < 0)
    _assert_batch_matches_points(back)


def test_scalar_query_returns_one_row():
    traj = integrate(_linear_rhs, 0.0, np.array([1.0, 0, 0, 0]), 1.0)
    assert traj(0.5).shape == (4,)
    assert traj(np.float64(0.5)).shape == (4,)
    assert traj(np.longdouble(0.5)).shape == (4,)
    assert traj(np.array(0.5)).shape == (4,)
    assert traj([0.5]).shape == (1, 4)


@pytest.mark.parametrize("bad", [2.0, np.nan])
def test_one_bad_time_in_a_batch_raises(bad):
    traj = integrate(_linear_rhs, 0.0, np.array([1.0, 0, 0, 0]), 1.0)
    ts = np.linspace(0.0, 1.0, 50)
    ts[17] = bad
    with pytest.raises(DomainError):
        traj(ts)


def test_trajectory_without_segments_interpolates_its_nodes():
    single = Trajectory(t=np.array([3.0]), y=np.array([[1.0, 2.0]]), stats={})
    assert np.array_equal(single(3.0), [1.0, 2.0])
    assert np.array_equal(single(np.array([3.0, 3.0])), [[1.0, 2.0], [1.0, 2.0]])
    # nodes stored against time order are still read in time order
    nodes = Trajectory(t=np.array([2.0, 1.0, 0.0]),
                       y=np.array([[4.0], [2.0], [0.0]]), stats={})
    assert np.allclose(nodes(np.array([0.0, 0.25, 1.5, 2.0]))[:, 0],
                       [0.0, 0.5, 3.0, 4.0], rtol=0, atol=1e-15)


def test_a_trajectory_rebuilt_from_a_backward_run_answers_like_the_run():
    # y' = -y from y(2) = 1 down to t = 0: the record's t descends, and the
    # direction of its dense queries comes from t alone
    run = integrate(lambda t, y: -y, 2.0, [1.0], 0.0)
    rebuilt = Trajectory(t=run.t, y=run.y, stats={}, h=run.h, dense=run.dense)
    ts = np.linspace(0.1, 1.9, 19)
    assert rebuilt(ts).tobytes() == run(ts).tobytes()
    assert np.allclose(rebuilt(ts)[:, 0], np.exp(2.0 - ts), rtol=1e-7, atol=0)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("threshold, tol", [(1.2, 0.1), (1.001, 1e-3)])
def test_failed_stage_rejects_and_counts_only_evaluated_stages(dtype, threshold, tol):
    # an oscillator whose RHS turns non-finite outside a box the loose
    # tolerance overshoots: steps fail at a stage and are retried shorter;
    # a longdouble state runs in float64, converted on entry
    calls, nonfinite_inputs = [0], [0]

    def rhs(t, y):
        calls[0] += 1
        if not all(math.isfinite(float(v)) for v in y):
            nonfinite_inputs[0] += 1
        if abs(y[0]) >= threshold or abs(y[1]) >= threshold:
            return np.array([np.inf, 0.0])
        return np.array([y[1], -y[0]])

    traj = integrate(rhs, 0.0, np.array([1.0, 0.0], dtype=dtype), 20.0,
                     rel_tol=tol, abs_tol=tol)
    assert traj.status == "reached" and traj.y.dtype == np.float64
    assert traj.stats["rejected"] > 0
    assert traj.stats["rhs_evals"] == calls[0]   # the two start-up calls included
    assert nonfinite_inputs[0] == 0


def test_an_overflowing_state_is_never_accepted():
    # y' = 1e300 overflows float64 at t ~ 1.8e8: a stage input that
    # overflows fails its step, so no RHS call sees it and the run stops
    # on its last finite state (before, the run went on with y = inf and
    # ended "reached")
    inputs = []

    def rhs(t, y):
        inputs.append(y.tolist())
        return np.full_like(y, 1e300)

    with pytest.raises(StepUnderflowError) as exc:
        integrate(rhs, 0.0, np.array([0.0]), 1e9, rel_tol=1e-6, abs_tol=1e290,
                  guard=np.inf)
    part = exc.value.trajectory
    assert np.all(np.isfinite(part.y)) and part.y[-1, 0] > 1e308
    assert all(map(math.isfinite, (v for x in inputs for v in x)))
    assert part.stats["rhs_evals"] == len(inputs)


def _q(entries):
    return [float(Fraction(e)) for e in entries.split()]


# the tableau as the loop form named it, each entry rounded once from its
# exact ratio, zero entries (a61, e1) left out
_C1, _C2, _C3, _C4 = _q("1/5 3/10 4/5 8/9")
_A10, = _q("1/5")
_A20, _A21 = _q("3/40 9/40")
_A30, _A31, _A32 = _q("44/45 -56/15 32/9")
_A40, _A41, _A42, _A43 = _q("19372/6561 -25360/2187 64448/6561 -212/729")
_A50, _A51, _A52, _A53, _A54 = _q("9017/3168 -355/33 46732/5247 49/176 -5103/18656")
_A60, _A62, _A63, _A64, _A65 = _q("35/384 500/1113 125/192 -2187/6784 11/84")
_E0, _E2, _E3, _E4, _E5, _E6 = _q("71/57600 -71/16695 71/1920 -17253/339200 22/525 -1/40")


def _reference_step(f, t, h, y, k0, ay, abs_tol, rel_tol):
    """One step in the loop form the generated step kernel replaced: each
    stage input one left-to-right pass over its row's nonzero entries, then
    the scaled error sum accumulated from 0.0.  The bit reference of
    ``_step_kernel``, with its signature and its result, the stages flat,
    where the step succeeds; where it fails, None (f counts the calls)."""
    k1 = f(t + _C1 * h, [a + h * (_A10 * b0) for a, b0 in zip(y, k0)])
    k2 = f(t + _C2 * h, [a + h * (_A20 * b0 + _A21 * b1) for a, b0, b1 in zip(y, k0, k1)])
    k3 = f(t + _C3 * h, [a + h * (_A30 * b0 + _A31 * b1 + _A32 * b2)
                         for a, b0, b1, b2 in zip(y, k0, k1, k2)])
    k4 = f(t + _C4 * h, [a + h * (_A40 * b0 + _A41 * b1 + _A42 * b2 + _A43 * b3)
                         for a, b0, b1, b2, b3 in zip(y, k0, k1, k2, k3)])
    k5 = f(t + h, [a + h * (_A50 * b0 + _A51 * b1 + _A52 * b2 + _A53 * b3 + _A54 * b4)
                   for a, b0, b1, b2, b3, b4 in zip(y, k0, k1, k2, k3, k4)])
    y6 = [a + h * (_A60 * b0 + _A62 * b2 + _A63 * b3 + _A64 * b4 + _A65 * b5)
          for a, b0, b2, b3, b4, b5 in zip(y, k0, k2, k3, k4, k5)]
    ks = [k0, k1, k2, k3, k4, k5, f(t + h, y6)]
    if not all(map(math.isfinite, ks[6])):
        return None
    ay6 = [abs(a) for a in y6]
    acc = 0.0
    for a, b, b0, b2, b3, b4, b5, b6 in zip(ay, ay6, ks[0], *ks[2:]):
        w = (h * (_E0 * b0 + _E2 * b2 + _E3 * b3 + _E4 * b4 + _E5 * b5 + _E6 * b6)
             / (abs_tol + rel_tol * (b if b > a else a)))
        acc += w * w
    return y6, ay6, [x for k in ks for x in k], acc


def _guarded(fl):
    """fl as integrate wraps it: a non-finite input is passed on
    unevaluated, and the evaluations are counted."""
    count = [0]

    def f(s, x):
        if not all(map(math.isfinite, x)):
            return x
        count[0] += 1
        return fl(s, x)

    return f, count


def _hex(xs):
    assert {type(x) for x in xs} <= {float}
    return [float.hex(x) for x in xs]


def _step_bits(step, fl, t, h, y, abs_tol, rel_tol, recipe=None):
    """The bits of one step from (t, y), with k0 = fl(t, y), or None where
    it fails, and the RHS evaluations it made, k0's included.  A step
    kernel counts its own (6, or its result where the step fails), and
    where it calls fl, its count must be the calls that reached fl; with
    a recipe, the kernel writes that RHS inline and calls nothing."""
    f, count = _guarded(fl)
    out = step(f if recipe is None else recipe, t, h, y, f(t, y), [abs(a) for a in y],
               abs_tol, rel_tol)
    evals = count[0]
    if step is not _reference_step:
        evals = 1 + (out if type(out) is int else 6)
        assert recipe is not None or evals == count[0]
        out = None if type(out) is int else out
    if out is not None:
        y6, ay6, ks, acc = out
        assert len(ks) == 7 * len(y)
        out = (_hex(y6), _hex(ay6), _hex(ks), float.hex(acc))
    return out, evals


@pytest.mark.parametrize("dim", [*range(1, 14), 40])
def test_step_kernel_equals_the_loop_form_bit_for_bit(dim):
    # a nonlinear RHS that couples neighbouring components, states over six
    # decades, steps over four
    rng = np.random.default_rng(dim)
    c = rng.standard_normal(dim).tolist()

    def fl(s, x):
        return [c[m] * x[m - 1] - s * x[m] + 1e-4 * x[m] * x[(m + 1) % dim]
                for m in range(dim)]

    kernel = integ_module._step_kernel(dim)
    for _ in range(25):
        y = (rng.standard_normal(dim) * 10.0 ** rng.uniform(-3, 3, dim)).tolist()
        t, h = float(rng.uniform(-2, 2)), float(10.0 ** rng.uniform(-4, 0))
        abs_tol = float(10.0 ** rng.uniform(-14, -6))
        rel_tol = float(10.0 ** rng.uniform(-12, -3))
        want = _step_bits(_reference_step, fl, t, h, y, abs_tol, rel_tol)
        assert want[0] is not None
        assert _step_bits(kernel, fl, t, h, y, abs_tol, rel_tol) == want


def _failing(call, index, bad):
    """y' = -y, with bad in one component of the call-th evaluation."""
    calls = [0]

    def fl(s, x):
        calls[0] += 1
        out = [-a for a in x]
        if calls[0] == call:
            out[index] = bad
        return out

    return fl


def test_step_kernel_rejects_where_the_loop_form_does():
    # the RHS turns non-finite at each stage in turn (k0 is call 1), or a
    # stage input overflows: the step is rejected after the same evaluations
    for dim in (1, 4, 13):
        kernel = integ_module._step_kernel(dim)
        y = [0.5 - 0.1 * m for m in range(dim)]
        for stage in range(1, 7):
            for bad in (math.inf, -math.inf, math.nan):
                runs = [_step_bits(step, _failing(stage + 1, dim // 2, bad), 0.0, 0.1, y,
                                   1e-12, 1e-9)
                        for step in (kernel, _reference_step)]
                assert runs[0] == runs[1] == (None, stage + 1)
        runs = [_step_bits(step, lambda s, x: list(x), 0.0, 10.0, [1e308] * dim, 1e-12, 1e-9)
                for step in (kernel, _reference_step)]
        assert runs[0] == runs[1] == (None, 1)


@pytest.mark.parametrize("values", [3, 5])
def test_an_rhs_of_another_length_than_the_state_raises_at_once(values):
    # a value list of another length would truncate or misalign every stage
    calls = []
    rhs = lambda t, y: calls.append(t) or [1.0, 2.0, 3.0, 4.0, 5.0][:values]
    with pytest.raises(DomainError, match=f"rhs returned {values} values for a state of 4"):
        integrate(rhs, 0.0, [0.0] * 4, 1.0)
    assert calls == [0.0]


def test_a_scalar_rhs_value_is_one_value():
    # a 0-d result is read as one value, as a scalar state0 is
    scalar = integrate(lambda t, y: -y[0], 0.0, [1.0], 1.0)
    assert _digest(scalar) == _digest(integrate(lambda t, y: [-y[0]], 0.0, [1.0], 1.0))
    assert scalar.y[-1][0] == pytest.approx(math.exp(-1.0), rel=1e-8)
    with pytest.raises(DomainError, match="rhs returned 1 values for a state of 4"):
        integrate(lambda t, y: -y[0], 0.0, [1.0] * 4, 1.0)


def test_a_list_and_an_array_rhs_value_give_the_same_run():
    # a list is used as it is, an array read through tolist()
    y0 = np.array([1.0, 0.3, -0.2, 0.1])
    as_array = integrate(_linear_rhs, 0.0, y0, 5.0, rel_tol=1e-10, abs_tol=1e-12)
    as_list = integrate(lambda t, y: _linear_rhs(t, y).tolist(), 0.0, y0, 5.0,
                        rel_tol=1e-10, abs_tol=1e-12)
    assert _digest(as_list) == _digest(as_array)
    assert _dense_digest(as_list) == _dense_digest(as_array)


_CAP_STATES = {
    1: [0.4, -0.3, 0.2, 0.45],
    3: [0.4, -0.3, 0.2, 0.45, -0.2, 0.1, 0.3, -0.4, 0.1, 0.35, -0.25, 0.2],
}


@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("p", [1, 3])
def test_the_recipe_and_the_array_contract_give_the_same_run(p, backward):
    # C06's capped run at (5, 7): integrate computes the factory's run from
    # its recipe; a plain function around the same rhs takes the array
    # contract, called once per evaluation
    rhs = make_autonomous_rhs(Params(5, Fraction(7), p))
    calls = []

    def plain(t, y):
        calls.append(t)
        return rhs(t, y)

    t0, t1 = (2.0, 0.0) if backward else (0.0, 2.0)
    # growth of max |y| along the run is a downcrossing in t forward, an
    # upcrossing in t backward
    cap = Event(g=lambda t, y: 3.0 - float(np.max(np.abs(y))),
                direction=1 if backward else -1, terminal=True)
    runs = [integrate(f, t0, np.array(_CAP_STATES[p]), t1, rel_tol=1e-12, abs_tol=1e-14,
                      guard=1e4, events=[cap])
            for f in (rhs, plain)]
    assert runs[0].status == "event"
    assert runs[0].stats["rhs_evals"] == len(calls)
    assert runs[0].stats == runs[1].stats
    assert _digest(runs[0]) == _digest(runs[1])
    assert _dense_digest(runs[0]) == _dense_digest(runs[1])


@pytest.mark.parametrize("p", [1, 3])
def test_the_recipe_alone_defines_the_run(p):
    # a function that refuses every call, carrying the factory's recipe,
    # runs as the factory's own rhs does, forward and backward
    rhs = make_autonomous_rhs(Params(5, Fraction(7), p))

    def refuses(t, y):
        raise AssertionError("integrate called the rhs that carries a recipe")

    refuses.recipe = rhs.recipe
    for t0, t1 in ((0.0, 2.0), (2.0, 0.0)):
        runs = [integrate(f, t0, np.array(_CAP_STATES[p]), t1, rel_tol=1e-12, abs_tol=1e-14,
                          guard=1e4)
                for f in (rhs, refuses)]
        assert runs[0].stats == runs[1].stats
        assert runs[0].y.tobytes() == runs[1].y.tobytes()
        assert runs[0].dense.tobytes() == runs[1].dense.tobytes()


# (n, s) pairs of C06, C08 and the pinned runs: the exponent s - 1 is 6, 3,
# 2, 1 and 2/3, and K0 > 0, = 0 and < 0 all occur
_CYLINDER_PAIRS = [(5, Fraction(7)), (6, Fraction(4)), (7, Fraction(3)), (6, Fraction(2)),
                   (8, Fraction(5, 3))]


def _cylinder_kernels(p, backward):
    """The generic step kernel with the recipe's list evaluator
    (``odes._component_rhs``), negated on the reflected clock as integrate
    negates it, and the cylinder kernel with the recipe written in, for
    each (n, s) of _CYLINDER_PAIRS."""
    generic = integ_module._step_kernel(4 * p)
    inline = integ_module._step_kernel(4 * p, -1 if backward else 1)
    for n, s in _CYLINDER_PAIRS:
        recipe = make_autonomous_rhs(Params(n, s, p)).recipe
        fl = lambda t, x, r=recipe: odes._component_rhs(x, *r)
        if backward:
            fl = lambda t, x, fw=fl: [-a for a in fw(t, x)]
        yield generic, inline, fl, recipe


@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_the_cylinder_step_kernel_equals_the_generic_one_bit_for_bit(p, backward):
    # states over four decades, a tenth with V = 0, steps over three
    rng = np.random.default_rng([p, backward])
    for generic, inline, fl, recipe in _cylinder_kernels(p, backward):
        for k in range(60):
            y = (rng.standard_normal(4 * p) * 10.0 ** rng.uniform(-2, 2)).tolist()
            if k % 10 == 0:
                y[0::4] = [0.0] * p
            t, h = float(rng.uniform(-2, 2)), float(10.0 ** rng.uniform(-4, -1))
            abs_tol = float(10.0 ** rng.uniform(-14, -8))
            rel_tol = float(10.0 ** rng.uniform(-12, -6))
            want = _step_bits(generic, fl, t, h, y, abs_tol, rel_tol)
            assert want[0] is not None
            assert _step_bits(inline, fl, t, h, y, abs_tol, rel_tol, recipe) == want


@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_the_cylinder_step_kernel_fails_where_the_generic_one_does(p, backward):
    # a stage input past float range, from the first stage (a state of
    # 1e308, whose k0 is not finite either; v' = 1e300 over h = 1e10), and
    # |V|^(s - 1) past float range at stage 1's v = 2e54 (s = 7) or 2e103
    # (s = 4) from a finite k0, so that stage 1 is evaluated and stage 2 is
    # not: both kernels fail after the same evaluations
    first_block = lambda *block: [*block, *[0.0] * (4 * p - 4)]
    failures = [([1e308] * (4 * p), 10.0, 1), (first_block(0.0, 1e300, 0.0, 0.0), 1e10, 1)]
    for generic, inline, fl, recipe in _cylinder_kernels(p, backward):
        cases = list(failures)
        if recipe[0] == 6.0:
            cases.append((first_block(1e40, 1e55, 0.0, 0.0), 1.0, 2))
        if recipe[0] == 3.0:
            cases.append((first_block(1e50, 1e104, 0.0, 0.0), 1.0, 2))
        for y, h, evals in cases:
            runs = [_step_bits(step, fl, 0.0, h, y, 1e-14, 1e-12, r)
                    for step, r in ((generic, None), (inline, recipe))]
            assert runs[0] == runs[1] == (None, evals)


_LAZY_STEP_KERNELS = """
import importlib
from fractions import Fraction
import numpy as np
from fowler4 import odes
from fowler4.params import Params

integ = importlib.import_module("fowler4.integrate")
rhs = {p: odes.make_autonomous_rhs(Params(5, Fraction(7), p)) for p in (1, 3)}
assert integ._step_kernel.cache_info().misses == 0
assert odes._rhs_kernel.cache_info().misses == 0
for _ in range(2):
    for p in (1, 3):
        y0 = np.linspace(-0.3, 0.4, 4 * p)
        for t0, t1 in ((0.0, 0.5), (0.5, 0.0)):
            assert integ.integrate(rhs[p], t0, y0, t1).status == "reached"
assert integ._step_kernel.cache_info().misses == 4
assert odes._rhs_kernel.cache_info().misses == 2
assert {k.__code__.co_filename for k in map(integ._step_kernel, (4, 4, 12, 12),
                                            (1, -1, 1, -1))} == {
    f"<dopri5 step kernel, dim {d}, cylinder rhs, {w}>"
    for d in (4, 12) for w in ("forward", "backward")}
assert {k.__code__.co_filename for k in map(odes._rhs_kernel, (1, 3))} == {
    "<cylinder rhs kernel, 1 blocks>", "<cylinder rhs kernel, 3 blocks>"}
assert integ._step_kernel.cache_info().misses == 4
assert odes._rhs_kernel.cache_info().misses == 2
"""


def test_step_kernels_are_built_lazily_once_per_block_count_and_direction():
    """The RHS factory compiles no step kernel and no RHS kernel, so no
    set-up pays for one; the first integrate of each block count and
    direction compiles its cylinder step kernel once, the first of each
    block count its RHS kernel (for the initial derivative and the first
    step size) once, and later runs reuse them.  A fresh process, so no
    other test has built one yet."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _LAZY_STEP_KERNELS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _hi_lo(a):
    """A float64 hi/lo split: the padding bytes of a longdouble are undefined."""
    a = np.asarray(a)
    hi = a.astype(np.float64)
    return hi, (a - hi.astype(a.dtype)).astype(np.float64)


def _digest(traj):
    """sha256 over t, y and stats, y as a hi/lo float64 split, then every
    event hit (te, ye) of a run that did not stop at an event (a run that
    stops at its terminal event ends on that hit: its last node holds it)."""
    h = hashlib.sha256()
    for a in (np.asarray(traj.t, np.float64), *_hi_lo(traj.y)):
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    h.update(repr(sorted(traj.stats.items())).encode())
    if traj.status != "event":
        for hits in traj.events:
            for te, ye in hits:
                h.update(np.array([te, *ye], dtype="<f8").tobytes())
    return h.hexdigest()[:16]


def _dense_digest(traj):
    """sha256 over 1601 dense-output rows spanning the run, hi/lo split."""
    h = hashlib.sha256()
    for a in _hi_lo(traj(np.linspace(traj.t0, traj.t1, 1601))):
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()[:16]


def _probe_orbit(backward=False):
    # the C07 orbit at n = 6, a = 0.6 a0, as find_b returns it at float64;
    # run backward from the same symmetric state, it traces the mirror image
    cc = critical_constants(6)
    y0 = np.array([0.6 * cc.a0, 0.0, 0.3566258871243809, 0.0])
    t0, t1 = 0.0, 4.369895937345158
    if backward:
        t0, t1 = t1, t0
    return integrate(make_critical_rhs(cc), t0, y0, t1,
                     rel_tol=1e-12, abs_tol=1e-14, guard=1e6)


def _capped_autonomous_p3():
    # C06's procedure at (n, s) = (5, 7), p = 3: the cap event fires at t ~ 0.62
    rhs = make_autonomous_rhs(Params(5, Fraction(7), 3))
    cap = Event(g=lambda t, y: 3.0 - float(np.max(np.abs(y))), direction=-1,
                terminal=True)
    y0 = np.array([0.4, -0.3, 0.2, 0.45, -0.2, 0.1, 0.3, -0.4, 0.1, 0.35, -0.25, 0.2])
    return integrate(rhs, 0.0, y0, 2.0, rel_tol=1e-12, abs_tol=1e-14, guard=1e4,
                     events=[cap])


def _capped_autonomous_8_5_3():
    # C06's procedure at (n, s) = (8, 5/3), p = 1: V crosses 0 at t ~ 0.033,
    # where the coupling |V|^(2/3) is not analytic; the cap fires at t ~ 0.079
    rhs = make_autonomous_rhs(Params(8, Fraction(5, 3)))
    cap = Event(g=lambda t, y: 3.0 - float(np.max(np.abs(y))), direction=-1,
                terminal=True)
    return integrate(rhs, 0.0, np.array([0.01, -0.3, 0.0, 0.4]), 2.0, rel_tol=1e-12,
                     abs_tol=1e-14, guard=1e4, events=[cap])


def _autonomous_8_5_3_with_hits(backward=False):
    # two non-terminal events at (8, 5/3): V = 0 both ways and v''' = -1
    # downward, each located inside one step on that step's quartic
    rhs = make_autonomous_rhs(Params(8, Fraction(5, 3)))
    events = [Event(g=lambda t, y: y[0]), Event(g=lambda t, y: y[3] + 1.0, direction=-1)]
    y0, t0, t1 = np.array([0.01, -0.3, 0.0, 0.4]), 0.0, 0.1
    if backward:
        y0, t0, t1 = np.array([-0.02, -0.3, -0.16, -4.75]), t1, t0
    return integrate(rhs, t0, y0, t1, rel_tol=1e-12, abs_tol=1e-14, guard=1e4,
                     events=events)


# name: (run, digest of t, y, stats and hits, digest of the dense output)
_PINNED_RUNS = {
    "probe-orbit-f64": (_probe_orbit, "5cc30b3e0b2aa3db", "707c5558ad800ed8"),
    "autonomous-p3-cap": (_capped_autonomous_p3,
                          "c85da01766ae9375", "0ef2621b830f05ec"),
    "probe-orbit-f64-backward": (lambda: _probe_orbit(backward=True),
                                 "404b4ddd04712606", "eb92677019e60b0f"),
    "autonomous-8-5/3-cap": (_capped_autonomous_8_5_3,
                             "9a6eae34dc7807ec", "57b01a8626b092e6"),
    "autonomous-8-5/3-hits": (_autonomous_8_5_3_with_hits,
                              "6308b47fee500284", "187a456ba6c2b299"),
    "autonomous-8-5/3-hits-backward": (lambda: _autonomous_8_5_3_with_hits(backward=True),
                                       "0914d80148f2c878", "6cd8c7974827b068"),
}


@pytest.mark.parametrize("name", list(_PINNED_RUNS))
def test_step_loop_output_is_bit_pinned(name):
    """Every bit of t, y, stats and event hits of fixed runs; an edit of
    the hot path must keep them.  Re-recorded once when the stage sums,
    the error norm and the RHS's |V|^2 left BLAS for left-to-right Python
    float sums and event location moved to the dense output's Horner form.
    No BLAS kernel touches these bits, so they hold on any CPU."""
    assert _digest(_PINNED_RUNS[name][0]()) == _PINNED_RUNS[name][1]


@pytest.mark.parametrize("name", list(_PINNED_RUNS))
def test_dense_output_is_bit_pinned(name):
    """Every bit of 1601 dense-output rows of the same runs.  Re-recorded
    with the step-loop pins, when the dense matrices became elementwise
    sums and the query Horner's rule in theta."""
    assert _dense_digest(_PINNED_RUNS[name][0]()) == _PINNED_RUNS[name][2]


_KERNEL_PINS = """
import hashlib, os, pathlib, tempfile
from numpy._core._multiarray_umath import __cpu_features__
import test_cli, test_integrate, test_profiles, test_shooting
off = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split()
assert not any(__cpu_features__.get(f) for f in off), off
for name, (run, steps, dense) in test_integrate._PINNED_RUNS.items():
    traj = run()
    assert test_integrate._digest(traj) == steps, name
    assert test_integrate._dense_digest(traj) == dense, name
for point in test_shooting._PINNED_ROOTS:
    test_shooting.test_find_b_is_bit_pinned(point)
assert test_profiles._vector_helpers_digest() == test_profiles._VECTOR_HELPERS_DIGEST
with tempfile.TemporaryDirectory() as tmp:
    tmp = pathlib.Path(tmp)
    for name in ("integrate", "integrate-p3"):
        args, side, want = test_cli._PINNED_ARTIFACTS[name]
        assert test_cli._artifact_digests(tmp, args, side) == want, name
    argv = [*test_cli._ORBIT_DIR_ARGS, str(tmp / "orbits"), "--out", str(tmp / "table")]
    assert test_cli.cli.main(argv) == 0
    text = (tmp / "orbits" / "orbit_00.csv").read_bytes()
    assert hashlib.sha256(text).hexdigest()[:16] == test_cli._ORBIT_DIR_DIGEST
"""


def test_bit_pins_hold_under_every_openblas_kernel():
    """The pins that once followed a kernel picked per CPU at run time (the
    runs above, every pinned find_b root, the integrate artifacts, the shoot
    orbit file and profiles' vector helpers), recomputed in one fresh
    process per stand-in CPU.  Each fixes OpenBLAS's kernel and numpy's
    dispatch level: this CPU as it is; Haswell (AVX2) with numpy's AVX-512
    targets disabled; Prescott (SSE3) with every target in numpy's
    ``__cpu_dispatch__`` disabled, which leaves numpy at its baseline.  The
    target names differ between numpy versions (AVX512_SKX, ... before 2.4;
    X86_V3, X86_V4, ... from 2.4), so they are read from numpy.
    OPENBLAS_CORETYPE does nothing where numpy's BLAS is not a DYNAMIC_ARCH
    OpenBLAS; each process checks that numpy reports its disabled targets
    off."""
    from numpy._core._multiarray_umath import __cpu_dispatch__

    avx512 = [t for t in __cpu_dispatch__ if "AVX512" in t or t == "X86_V4"]
    tests = pathlib.Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    procs = {}
    for kernel, off in (("", []), ("Haswell", avx512), ("Prescott", __cpu_dispatch__)):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
        env["PYTHONPATH"] = path
        if kernel:
            env["OPENBLAS_CORETYPE"] = kernel
        if off:
            env["NPY_DISABLE_CPU_FEATURES"] = " ".join(off)
        procs[kernel or "default"] = subprocess.Popen(
            [sys.executable, "-c", _KERNEL_PINS], env=env, cwd=tests,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    for kernel, proc in procs.items():
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, (kernel, err)
