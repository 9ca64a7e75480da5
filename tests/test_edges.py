"""The public numerical entries at the edge values of their float inputs.

Each call returns, or raises DomainError; ``integrate`` may also raise its
documented StepUnderflowError, and ``find_b`` the ArithmeticError of a
sweep that finds no crash/escape bracket, which ``orbit_table`` records.
Nothing else may escape: no bare ZeroDivisionError, OverflowError,
TypeError or math domain error.  Every entry that takes a dimension
returns for an integer n >= 5 and raises the DomainError of
``special_exponents`` for any other n.  Cases may be added, not dropped.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from fowler4.asymptotics import (classify_regime, fit_log_corrected, fit_power_law,
                                 geometric_grid)
from fowler4.bubble import bubble_constant
from fowler4.coefficients import (oracle_autonomous, printed_appendix_J40,
                                  printed_autonomous, printed_second_order,
                                  second_order_chain, second_order_symbol)
from fowler4.integrate import StepUnderflowError, integrate
from fowler4.odes import make_autonomous_rhs, make_nonautonomous_rhs
from fowler4.params import DomainError, Params, special_exponents
from fowler4.pohozaev import pohozaev_series
from fowler4.profiles import Bubble, SingularPower
from fowler4.shooting import critical_constants, find_b, orbit_table

EDGES = (5, 0, -1, math.nan, math.inf, -math.inf, 1e-300, 5e-324, 1e300, 1e30, 1e-30,
         7 / 3, 2, 1, 1.5)

_RHS = make_autonomous_rhs(Params(5, Fraction(7)))
# integrate's arguments as the CLI edge sweep's integrate command passes them
_RUN = dict(t0=0.0, y=(0.3, -0.2, 0.1, 0.25), t1=0.05, rel_tol=1e-10, abs_tol=1e-12,
            guard=1e8)
# samples that each fit accepts: a power law over three decades, and the
# log-corrected profile r^(4-n) (-ln r)^((4-n)/4) at n = 5
_POWER = [(r, 2.0 * r ** -1.5) for r in geometric_grid(1e-2, 10.0, 10)]
_LOG = [(r, r ** -1.0 * (-math.log(r)) ** -0.25) for r in geometric_grid(1e-6, 1e-2, 14)]


def _integrate(**changed):
    a = {**_RUN, **changed}
    return integrate(_RHS, a["t0"], list(a["y"]), a["t1"], rel_tol=a["rel_tol"],
                     abs_tol=a["abs_tol"], guard=a["guard"])


def _with(samples, j, radius=None, value=None):
    out = list(samples)
    r, v = out[j]
    out[j] = (r if radius is None else radius, v if value is None else value)
    return out


def _cases():
    cc = critical_constants(6)
    traj = _integrate(t1=0.5)
    for e in EDGES:
        for k in ("t0", "t1", "rel_tol", "abs_tol", "guard"):
            yield f"integrate {k}={e!r}", lambda k=k, e=e: _integrate(**{k: e})
        for i in range(4):
            y = list(_RUN["y"])
            y[i] = e
            yield f"integrate y[{i}]={e!r}", lambda y=y: _integrate(y=y)
        yield f"find_b a={e!r}", lambda e=e: find_b(6, e, consts=cc)
        yield f"find_b a={e!r}*a0", lambda e=e: find_b(6, e * cc.a0, consts=cc)
        yield (f"pohozaev_series num={e!r}",
               lambda e=e: pohozaev_series(Params(5, Fraction(7)), traj, num=e))
        for j in (0, 5):
            yield (f"fit_power_law r[{j}]={e!r}",
                   lambda j=j, e=e: fit_power_law(_with(_POWER, j, radius=e)))
            yield (f"fit_power_law v[{j}]={e!r}",
                   lambda j=j, e=e: fit_power_law(_with(_POWER, j, value=e)))
            yield (f"fit_log_corrected r[{j}]={e!r}",
                   lambda j=j, e=e: fit_log_corrected(_with(_LOG, j, radius=e), 5))
            yield (f"fit_log_corrected v[{j}]={e!r}",
                   lambda j=j, e=e: fit_log_corrected(_with(_LOG, j, value=e), 5))
        yield f"fit_log_corrected n={e!r}", lambda e=e: fit_log_corrected(_LOG, e)


def test_public_entries_at_their_edge_values_return_or_raise_domain_error():
    # fit_log_corrected raised ZeroDivisionError at n = 2, returned a report
    # for n < 5, and hit a math domain error where v r^(n-4) underflowed;
    # pohozaev_series raised TypeError for a float num >= 5
    bad = []
    for name, call in _cases():
        try:
            call()
        except (DomainError, StepUnderflowError):
            pass
        except ArithmeticError as exc:
            if not (name.startswith("find_b") and str(exc).startswith("no crash/escape")):
                bad.append((name, repr(exc)))
        except Exception as exc:   # anything else escaped
            bad.append((name, repr(exc)))
    assert bad == []


# every public entry that takes a dimension, called with that n
_DIMENSION_ENTRIES = {
    "Params": lambda n: Params(n, 7),
    "special_exponents": special_exponents,
    "classify_regime": lambda n: classify_regime(n, 7),
    "critical_constants": critical_constants,
    "find_b": lambda n: find_b(n, 0.5),
    "orbit_table": lambda n: orbit_table(n, [0.5]),
    "bubble_constant": bubble_constant,
    "Bubble": Bubble,
    "SingularPower": lambda n: SingularPower(n, 7.0),
    "make_nonautonomous_rhs": make_nonautonomous_rhs,
    "fit_log_corrected": lambda n: fit_log_corrected(_LOG, n),
}
_DIMENSIONS = EDGES + (4, 5.5, 6.5, 5.0, True, np.int64(6))


def test_dimension_entries_return_for_an_integer_from_5_and_reject_every_other_n():
    # Params and Bubble accepted nan, 5.5, 6.5, 5.0 and every float above 5;
    # the others raised a bare TypeError from Fraction for a float n
    bad = []
    for n in _DIMENSIONS:
        admissible = type(n) in (int, np.int64) and n >= 5
        for name, call in _DIMENSION_ENTRIES.items():
            try:
                call(n)
            except DomainError as exc:
                if admissible or "integer n >= 5" not in str(exc):
                    bad.append((name, n, repr(exc)))
            except Exception as exc:   # anything else escaped
                bad.append((name, n, repr(exc)))
            else:
                if not admissible:
                    bad.append((name, n, "returned"))
    assert bad == []


def test_find_b_refuses_constants_of_another_dimension():
    # n was read only where consts is None: n = 5 with the n = 6 constants
    # returned the n = 6 root with an empty message, and a float n passed
    cc6 = critical_constants(6)
    with pytest.raises(DomainError, match="constants of dimension 6 given for n=5"):
        find_b(5, 0.6 * cc6.a0, consts=cc6)
    with pytest.raises(DomainError, match="integer n >= 5"):
        find_b(6.0, 0.6 * cc6.a0, consts=cc6)


@pytest.mark.parametrize("derive", [printed_autonomous, printed_appendix_J40,
                                    printed_second_order, second_order_symbol,
                                    second_order_chain])
def test_every_derivation_in_s_raises_domain_error_at_s_1(derive):
    # second_order_chain raised a bare ZeroDivisionError
    for s in (1, 1.0):
        with pytest.raises(DomainError, match="undefined at s = 1"):
            derive(5, s)


@pytest.mark.parametrize("derive", [printed_autonomous, printed_appendix_J40,
                                    printed_second_order, second_order_symbol,
                                    second_order_chain, oracle_autonomous])
def test_every_derivation_in_s_returns_or_raises_domain_error_at_float_edges(derive):
    # the printed tables raised a bare OverflowError where a float power of
    # s left float range (m**4 from s ~ 1e77, m**2 from s ~ 1e154); the
    # oracles return there
    printed = derive.__name__.startswith("printed")
    for s in EDGES + (1e80, 1e160, -1e160):
        try:
            derive(5, s)
        except DomainError as exc:
            want = "undefined at s = 1" if s == 1 else f"float range at s = {s!r}"
            assert (s == 1 or printed) and want in str(exc), (s, exc)
    if printed:
        with pytest.raises(DomainError):
            derive(5, 1e160)
