"""Periodic orbits of the critical-case cylinder equation by shooting.

The reduced critical equation is reversible and its bounded orbits form
a one-parameter family indexed by the orbit minimum a in (0, a0].  For
given a the initial curvature b(a) sits on the crash/escape boundary:
below b(a) the trajectory dives to -infinity, above it escapes to
+infinity, and the boundary carries the bounded orbit.  A geometric grid
of b brackets that boundary: its two ends are classified first, then a
bisection on the grid index finds an adjacent crash/escape pair.  It
assumes that the outcomes along the grid are crashes followed by
escapes, so that the pair is the one an upward scan would stop at; that
held at every n = 5..12 and a in 0.005..0.999 a0 checked.  A short
bisection of the dichotomy then narrows the bracket until the
reversibility residual F(b) = v'''(t1), with t1 the first maximum of v
(first downward zero of v'), is defined at both ends with opposite signs.
Brent's method on F then takes the bracket down to a few ULP of b; each
F evaluation is a half-orbit integration.  At the root the orbit is even
about t1, so the fundamental period is T = 2 t1.

There is one search per precision tier (``_search``): a pair of closures
over the Taylor-series flow of ``taylor``, ``side(b)`` for the
crash/escape classification and ``F(b)`` for the half-orbit run to the
first maximum, sharing one record of first maxima.  A crash/escape run
records the first maximum it crosses, the node a half-orbit run ends on,
bit for bit, and F reads that record at every b the bracket has run, so
within one search no b is integrated twice; the one-period orbit of the
root is the one repeated run.  Each run stops as soon as its state
enters one of two forward-invariant regions of the equation
(``taylor._fate``): above a0 with v', v'', v''' > 0 the orbit escapes
and v has no maximum; below a0 with v', v'', v''' < 0 it reaches v = 0
before _T_MAX.  That gives the outcome of running on to v <= 0 or the
|y| guard in about a third of the steps; a closing orbit enters neither
region.  A run computes in the scalar type of b, with steps
whose truncation error stays below its rounding; on the C07 grid the
float64 root closes the period within the target.  Where the float64
ULP floor on b and the rounding of the orbit still leave a one-period
closure defect above tolerance (strong saddle amplification, e.g.
a = 0.2 a0 at n = 5) find_b escalates to extended precision: a second
search, whose F runs Brent's method with b in longdouble, inside +-1e-9
of the float64 root.  A returned root whose defect still misses the
target, or whose one-period run stops before T, says so in its message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Callable, List, Optional, Sequence

import numpy as np

from .asymptotics import geometric_grid
from .coefficients import printed_critical_values
from .integrate import Trajectory
from .params import DomainError, special_exponents
from .bubble import bubble_constant
from .taylor import _EPS, flow, march, run_type

_LONGDOUBLE_OK = _EPS[np.longdouble] < 1e-18

# Numerical policy of the search; C07, the CLI and the benchmark all run
# under it.  The Taylor flow's order, step tolerances and |y| guard are
# constants of ``taylor``.
_LD_MARGIN = 1e-9              # longdouble bracket, relative to the float64
                               # root: wider than its few-ULP uncertainty
_DEFECT_TARGET = 1e-6          # = C07 closure threshold on the period defect
_RESIDUAL_TOL = 1e-9           # |v'''(T/2)| a converged root may leave
_DRIFT_TOL = 1e-8              # = C07 threshold on the energy drift
_T_MAX = 80.0                  # horizon of bracket and F runs, many periods
                               # long; bounded that long counts as escape,
                               # so a run stops as a crash only where v is
                               # due at 0 before it


@dataclass(frozen=True)
class CriticalConstants:
    """Constants of the critical-case Cauchy problem."""

    n: int
    K0: float
    K2: float
    c: float

    @cached_property
    def power(self) -> float:
        """The critical power P = (n+4)/(n-4) as a float, computed once per
        instance (the exact exponent algebra costs microseconds, and every
        energy reads it)."""
        return float(special_exponents(self.n).critical_power)

    @cached_property
    def a0(self) -> float:
        """The constant orbit a0 = (K0/c)^{1/(P-1)}, derived from the fields,
        so ``dataclasses.replace`` cannot leave it stale."""
        return (self.K0 / self.c) ** (1.0 / (self.power - 1.0))

    def linearized_frequency(self) -> float:
        """Imaginary part of the oscillatory linearization pair at a0."""
        pm1 = self.power - 1.0
        disc = math.sqrt(self.K2**2 + 4.0 * pm1 * self.K0)
        return math.sqrt((self.K2 + disc) / 2.0)

    def linearized_period(self) -> float:
        return 2.0 * math.pi / self.linearized_frequency()


def critical_constants(n: int, c_mode: str = "measured") -> CriticalConstants:
    special_exponents(n)                 # the dimension rule, before n is read
    pc = printed_critical_values(n)
    K0, K2 = float(pc["K0"]), float(pc["K2"])
    if c_mode == "measured":
        c = bubble_constant(n)
    elif c_mode == "unit":
        c = 1.0
    else:
        raise DomainError(f"unknown c mode {c_mode!r}")
    return CriticalConstants(n=n, K0=K0, K2=K2, c=c)


def make_critical_rhs(consts: CriticalConstants, dtype=np.float64) -> Callable:
    """v'''' = c |v|^{q-1} v - K2 v'' - K0 v with q the critical power."""
    scal = np.dtype(dtype).type
    K0, K2, c = scal(consts.K0), scal(consts.K2), scal(consts.c)
    q = scal(consts.power)

    def rhs(t, y):
        v = y[0]
        nl = c * (abs(v) ** q) * (1 if v >= 0 else -1)
        return np.array([y[1], y[2], y[3], nl - K2 * y[2] - K0 * y[0]], dtype=dtype)

    return rhs


@dataclass
class ShootingResult:
    a: float
    b: float
    T: float
    energy: float
    residual: float                    # |v'''(T/2)| at the accepted root
    orbit: Optional[Trajectory]
    period_defect: float
    min_v: float
    energy_drift: float
    even_symmetry_defect: float
    converged: bool
    precision: str = "float64"         # tier of the returned root
    message: str = ""
    # per precision tier, summed over every Taylor run the search made:
    # "float64" and "longdouble", each {"integrations", "steps"}; a b runs
    # once per tier, the one-period orbit of the root a second time
    stats: dict = field(default_factory=dict)


def _tier(b) -> str:
    return "longdouble" if run_type(b) is np.longdouble else "float64"


def _failed(a: float, b, message: str, stats: Optional[dict] = None) -> ShootingResult:
    """A result without an orbit, in the precision tier of b."""
    return ShootingResult(a=a, b=float(b), T=float("nan"), energy=float("nan"),
                          residual=float("inf"), orbit=None, period_defect=float("inf"),
                          min_v=float("nan"), energy_drift=float("inf"),
                          even_symmetry_defect=float("inf"), converged=False,
                          precision=_tier(b), message=message,
                          stats=stats if stats is not None else {})


def _energies(consts: CriticalConstants, vals) -> np.ndarray:
    """The conserved Hamiltonian of the critical equation at each row
    (v, v', v'', v''') of the float64 array vals.

    The four powers are the C library's pow of |x|, ``math.pow`` mapped
    over one column list at a time: that is the pow Python's float ``**``
    calls for x ** 2 and |x| ** q1, so they have its bits on any libm,
    while numpy's power and its x*x square round some values differently,
    which moves energy_drift at some a.  The rest is elementwise numpy,
    each row's operations in the order of
    -v3 v1 + 0.5 (v2^2 - K2 v1^2 - K0 v^2) + c |v|^q1 / q1.
    """
    K2, K0, c, q1 = consts.K2, consts.K0, consts.c, consts.power + 1
    v, v1, v2, v3 = vals.T
    sq, sq1, sq2, pq = (np.array(list(map(math.pow, np.abs(col).tolist(), repeat(e))))
                        for col, e in ((v, 2.0), (v1, 2.0), (v2, 2.0), (v, q1)))
    return -v3 * v1 + 0.5 * (sq2 - K2 * sq1 - K0 * sq) + c * pq / q1


def _tally(stats: dict, b, steps: int) -> None:
    """Add one Taylor run of ``steps`` steps to stats under the tier of b."""
    tally = stats.setdefault(_tier(b), {"integrations": 0, "steps": 0})
    tally["integrations"] += 1
    tally["steps"] += steps


def _search(consts: CriticalConstants, a: float, stats: dict):
    """``(side, F, firsts)``: a search's two questions about b, each a
    Taylor run from the orbit minimum (a, 0, b, 0) to _T_MAX in the scalar
    type of b, tallied in stats.

    ``side(b)``: -1 where the run crashes (v reaches 0 before _T_MAX), +1
    where it escapes or stays bounded to _T_MAX (at or beyond the boundary,
    treated as upper); a run whose fate ``taylor.march`` leaves open ends
    at v <= 0 (-1), past the |y| guard or at _T_MAX.  ``F(b)``: v'''(t1),
    None where v has no maximum before blow-up; its run stops at the first
    maximum, or where ``taylor.march`` decides an escape (from there v'
    never vanishes).  Every run records the first maximum it crosses,
    (t1, y(t1)) or (None, None), in ``firsts[b]``, which F reads first: a b
    that ``side`` has run needs no second run, and the root's maximum is
    there for its one-period orbit.
    """
    firsts: dict = {}

    def run(b, first_max=False):
        status, _, ys, hs, _, first = march(consts, (a, 0.0, b, 0.0), _T_MAX, first_max)
        _tally(stats, b, len(hs))
        firsts[b] = (float(first[0]), first[1]) if first else (None, None)
        return status, ys[-1]

    def side(b) -> int:
        status, y = run(b)
        return -1 if status == "crash" or y[0] <= 0 else 1

    def F(b):
        if b not in firsts:
            run(b, first_max=True)
        t1, y1 = firsts[b]
        return None if t1 is None else y1[3]

    return side, F, firsts


def _changes_sign(fa, fb) -> bool:
    if fa is None or fb is None:
        return False
    return fa == 0 or fb == 0 or (fa < 0) != (fb < 0)


def _bisect(side: Callable, blo, bhi, iters: int, until: Callable = lambda lo, hi: False):
    """Bisect the crash/escape dichotomy ``side`` ``iters`` times or until
    ``until(lo, hi)``."""
    for _ in range(iters):
        if until(blo, bhi):
            break
        mid = (blo + bhi) / 2
        if mid == blo or mid == bhi:
            break
        if side(mid) < 0:
            blo = mid
        else:
            bhi = mid
    return blo, bhi


def _grid_bracket(consts: CriticalConstants, a: float, side: Callable):
    """(blo, bhi): adjacent b of the bracket grid, blo crashing and bhi escaping.

    The grid is geometric in Python float powers, the same on every CPU (its
    bits fix the root's last ULP).  Its ends are classified, then a
    bisection on the grid index finds the pair; where the grid's outcomes
    are crashes followed by escapes, that is the first pair an upward scan
    meets.  Raises ArithmeticError where the lowest b does not crash or the
    highest does not escape."""
    b_max = 10.0 * consts.K0 * consts.a0
    grid = geometric_grid(1e-6, b_max, 25)
    lo, hi = 0, len(grid) - 1
    ends = [side(grid[i]) for i in (lo, hi)]
    if ends != [-1, 1]:
        raise ArithmeticError(
            f"no crash/escape bracket for a={a} in (1e-6, {b_max:.3g}); "
            f"outcomes at the grid's ends {ends[0]} and {ends[1]}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if side(grid[mid]) < 0:
            lo = mid
        else:
            hi = mid
    return grid[lo], grid[hi]


def _brent(f: Callable, lo, hi):
    """Zero of f in [lo, hi] by Brent's method (Brent 1973, ch. 4, zeroin).

    Works in np.longdouble where lo or hi is one, else in Python floats
    (float64's IEEE operations without numpy's scalar dispatch), and stops
    when the bracket is a few ULP wide, or at an exact zero.  f must change
    sign across [lo, hi]; every iterate stays inside the current bracket.
    Raises ArithmeticError when f(lo), f(hi) do not bracket a sign change
    or f is undefined (None or not finite) at an iterate.
    """
    scal = run_type(lo, hi)
    eps = _EPS[scal]

    def value(x):
        fx = f(x)
        if fx is None or not math.isfinite(fx):
            raise ArithmeticError(f"F undefined at b={x!r} inside the bracket")
        return scal(fx)

    a, b = scal(lo), scal(hi)
    fa, fb = value(a), value(b)
    if not _changes_sign(fa, fb):
        raise ArithmeticError(f"F has one sign on [{a!r}, {b!r}]: {fa!r}, {fb!r}")
    c, fc = b, fb
    d = e = b - a
    for _ in range(200):
        if (fb > 0) == (fc > 0):
            # b and c must bracket the zero
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2 * eps * abs(b)
        m = (c - b) / 2
        if abs(m) <= tol1 or fb == 0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2 * m * s, 1 - s                  # secant
            else:
                q, r = fa / fc, fb / fc                  # inverse quadratic
                p = s * (2 * m * q * (q - r) - (b - a) * (r - 1))
                q = (q - 1) * (r - 1) * (s - 1)
            if p > 0:
                q = -q
            p = abs(p)
            if 2 * p < min(3 * m * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b = b + d if abs(d) > tol1 else b + (tol1 if m > 0 else -tol1)
        fb = value(b)
    raise ArithmeticError("Brent search did not converge in 200 steps")


def find_b(n: int, a: float, consts: Optional[CriticalConstants] = None) -> ShootingResult:
    """Locate b(a) and the fundamental period for one Fowler parameter.

    ``consts`` defaults to the measured-c constants of dimension n; constants
    of another dimension raise DomainError.
    0 < a < a0 shoots; a == a0 returns the constant orbit with the
    linearized period.  Escalates to extended precision when the
    one-period closure defect of the float64 root exceeds the target, or
    its one-period run stops before T.  For a < a0, ``message`` is empty
    exactly when the result meets every C07 threshold (converged,
    residual, closure defect, energy drift, orbit minimum); otherwise it
    says which one misses and, for the defect, whether the longdouble
    refinement was kept.  Raises DomainError for an a outside (0, a0], and
    ArithmeticError ("no crash/escape bracket ...") where the bracket
    grid's lowest b does not crash or its highest does not escape.  That
    happens at both ends of the family: at tiny a, and near the linear
    end, where b(a) ~ C (1 - a/a0) falls below the grid's 1e-6 floor
    (C = 1.3 at n = 5, 6.4 at n = 12; 1 - a/a0 = 1e-6 still brackets at
    n = 5, 1e-7 does not).  ``orbit_table`` records either as a failed row.
    """
    if consts is None:
        consts = critical_constants(n)
    elif special_exponents(n).n != consts.n:
        raise DomainError(f"constants of dimension {consts.n} given for n={n}")
    a0 = consts.a0
    if not (0 < a <= a0 * (1 + 1e-12)):
        raise DomainError(f"Fowler parameter must lie in (0, a0={a0:.12g}], got a={a}")
    if abs(a - a0) <= 1e-12 * a0:
        T = consts.linearized_period()
        E = float(_energies(consts, np.array([[a0, 0.0, 0.0, 0.0]]))[0])
        return ShootingResult(a=a0, b=0.0, T=T, energy=E,
                              residual=0.0, orbit=None, period_defect=0.0,
                              min_v=a0, energy_drift=0.0, even_symmetry_defect=0.0,
                              converged=True, message="constant orbit")

    stats: dict = {}
    side, F, firsts = _search(consts, a, stats)
    blo, bhi = _grid_bracket(consts, a, side)
    # ten plain steps, then until F changes sign across the bracket; the
    # prefix fixes the bracket Brent starts from, and so the root's last ULP
    blo, bhi = _bisect(side, blo, bhi, 10)
    blo, bhi = _bisect(side, blo, bhi, 60, until=lambda lo, hi: _changes_sign(F(lo), F(hi)))
    try:
        b = _brent(F, blo, bhi)
    except ArithmeticError as exc:
        return _failed(a, float((blo + bhi) / 2), f"reversibility residual: {exc}", stats)
    result = _assemble_result(consts, a, b, *firsts[b], stats)
    if result.converged and result.period_defect <= _DEFECT_TARGET:
        return result
    if not _LONGDOUBLE_OK:
        why = "longdouble is float64 on this platform"
    else:
        ld = np.longdouble
        margin = ld(_LD_MARGIN)
        # a search of its own: a longdouble b equal to a float64 one is a new run
        _, F_ld, firsts_ld = _search(consts, a, stats)
        try:
            b_ld = _brent(F_ld, ld(b) * (1 - margin), ld(b) * (1 + margin))
        except ArithmeticError as exc:
            why = f"longdouble bracket failed: {exc}"
        else:
            refined = _assemble_result(consts, a, b_ld, *firsts_ld[b_ld], stats)
            defect = refined.period_defect
            if math.isfinite(defect) and defect <= result.period_defect:
                result, why = refined, "after longdouble refinement"
            elif math.isfinite(defect):
                why = f"longdouble refinement reached {defect:.3e}, not kept"
            else:
                why = f"longdouble refinement not kept: {refined.message}"
    if not result.period_defect <= _DEFECT_TARGET:
        note = (f"closure defect {result.period_defect:.3e} above target "
                f"{_DEFECT_TARGET:.1e} ({why})")
        result.message = f"{result.message}; {note}" if result.message else note
    return result


def _assemble_result(consts, a, b, t1, y1, stats) -> ShootingResult:
    """Diagnostics of the orbit through b, given its first maximum (t1, y(t1)).

    A failed result where the one-period run stops before T."""
    residual = abs(float(y1[3]))
    T = 2.0 * t1
    orbit = flow(consts, (a, 0.0, b, 0.0), T)
    _tally(stats, b, orbit.stats["steps"])
    if orbit.status != "reached":
        return _failed(a, b, f"one-period run stopped {orbit.status} at "
                             f"t={orbit.t1:.9g} of T={T:.9g}", stats)
    target = np.array([a, 0.0, float(b), 0.0])
    defect = float(np.max(np.abs(orbit.y[-1] - target)))
    # one dense query: 1601 samples over the period, then t1 + tau and
    # t1 - tau; each point's row is computed elementwise, so it has the bits
    # of a query of its own
    ts = np.linspace(0.0, T, 1601)
    taus = np.linspace(0.0, t1, 101)[1:]
    vals, right, left = np.split(orbit(np.concatenate((ts, t1 + taus, t1 - taus))),
                                 [len(ts), len(ts) + len(taus)])
    vmin = float(np.min(vals[:, 0]))
    energies = _energies(consts, vals)
    E0 = float(energies[0])
    drift = float(np.max(np.abs(energies - E0))) / (1.0 + abs(E0))
    sym = float(np.max(np.abs(right[:, 0] - left[:, 0])))
    converged = residual <= _RESIDUAL_TOL and math.isfinite(defect)
    msg = "" if converged else f"residual {residual:.3e} above tol {_RESIDUAL_TOL:.1e}"
    if not vmin >= a - 1e-6:
        converged = False
        msg = f"orbit minimum {vmin:.9g} undercuts a={a:.9g} (wrong branch)"
    if not drift <= _DRIFT_TOL:
        note = f"energy drift {drift:.3e} above tol {_DRIFT_TOL:.1e}"
        msg = f"{msg}; {note}" if msg else note
    return ShootingResult(a=a, b=float(b), T=T, energy=E0, residual=residual,
                          orbit=orbit, period_defect=defect, min_v=vmin,
                          energy_drift=drift, even_symmetry_defect=sym,
                          converged=converged, message=msg, stats=stats,
                          precision=_tier(b))


def orbit_table(n: int, a_values: Sequence[float],
                c_mode: str = "measured") -> List[ShootingResult]:
    """Shooting results for a grid of Fowler parameters.

    Individual failures are recorded on the corresponding entry (as a
    non-converged result); the sweep continues.  Results keep input
    order.
    """
    consts = critical_constants(n, c_mode)
    out: List[ShootingResult] = []
    for a in a_values:
        try:
            out.append(find_b(n, float(a), consts=consts))
        except (DomainError, ArithmeticError, RuntimeError) as exc:
            out.append(_failed(float(a), float("nan"), str(exc)))
    return out
