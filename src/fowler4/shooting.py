"""Periodic orbits of the critical-case cylinder equation by shooting.

The reduced critical equation is reversible and its bounded orbits form
a one-parameter family indexed by the orbit minimum a in (0, a0].  For
given a the initial curvature b(a) sits on the crash/escape boundary:
below b(a) the trajectory dives to -infinity, above it escapes to
+infinity, and the boundary carries the bounded orbit.  A geometric grid
brackets that boundary and a short bisection of the dichotomy narrows
the bracket until the reversibility residual F(b) = v'''(t1), with t1
the first maximum of v (first downward zero of v'), is defined at both
ends with opposite signs.  Brent's method on F then takes the bracket
down to a few ULP of b; each F evaluation is a half-orbit integration.
At the root the orbit is even about t1, so the fundamental period is
T = 2 t1.

Every run of the search is the Taylor-series flow of ``taylor``: the
crash/escape classification, the half-orbit runs behind F and the
one-period orbit of the root.  A run computes in the scalar type of b,
with steps whose truncation error stays below its rounding; on the C07
grid the float64 root closes the period within the target.  Where the
float64 ULP floor on b and the rounding of the orbit still leave a
one-period closure defect above tolerance (strong saddle amplification,
e.g. a = 0.2 a0 at n = 5) the search escalates to extended precision:
the same Brent search on F with b in longdouble, inside +-1e-9 of the
float64 root.  A returned root whose defect still misses the target says
so in its message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from .coefficients import printed_critical_values
from .integrate import Trajectory
from .params import DomainError, special_exponents
from .profiles import bubble_constant
from .taylor import flow

_LONGDOUBLE_OK = np.finfo(np.longdouble).eps < 1e-18

# Numerical policy of the search; C07, the CLI and the benchmark all run
# under it.  The Taylor flow's order, step tolerances and |y| guard are
# constants of ``taylor``.
_LD_MARGIN = 1e-9              # longdouble bracket, relative to the float64
                               # root: wider than its few-ULP uncertainty
_DEFECT_TARGET = 1e-6          # = C07 closure threshold on the period defect
_RESIDUAL_TOL = 1e-9           # |v'''(T/2)| a converged root may leave
_T_MAX = 80.0                  # horizon of bracket and F runs, many periods
                               # long; bounded that long counts as escape


@dataclass(frozen=True)
class CriticalConstants:
    """Constants of the critical-case Cauchy problem."""

    n: int
    K0: float
    K2: float
    c: float
    a0: float
    c_mode: str = "measured"

    @property
    def power(self) -> float:
        return float(special_exponents(self.n).upper - 1)

    def linearized_frequency(self) -> float:
        """Imaginary part of the oscillatory linearization pair at a0."""
        pm1 = self.power - 1.0
        disc = math.sqrt(self.K2**2 + 4.0 * pm1 * self.K0)
        return math.sqrt((self.K2 + disc) / 2.0)

    def linearized_period(self) -> float:
        return 2.0 * math.pi / self.linearized_frequency()


def critical_constants(n: int, c_mode: str = "measured") -> CriticalConstants:
    pc = printed_critical_values(n)
    K0, K2 = float(pc["K0"]), float(pc["K2"])
    if c_mode == "measured":
        c = bubble_constant(n)
    elif c_mode == "unit":
        c = 1.0
    else:
        raise DomainError(f"unknown c mode {c_mode!r}")
    power = float(special_exponents(n).upper - 1)
    a0 = (K0 / c) ** (1.0 / (power - 1.0))
    return CriticalConstants(n=n, K0=K0, K2=K2, c=c, a0=a0, c_mode=c_mode)


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
    # "float64" and "longdouble", each {"integrations", "steps"}
    stats: dict = field(default_factory=dict)


def _failed(a: float, b: float, message: str, stats: Optional[dict] = None) -> ShootingResult:
    return ShootingResult(a=a, b=b, T=float("nan"), energy=float("nan"),
                          residual=float("inf"), orbit=None, period_defect=float("inf"),
                          min_v=float("nan"), energy_drift=float("inf"),
                          even_symmetry_defect=float("inf"), converged=False,
                          message=message, stats=stats if stats is not None else {})


def orbit_energy(consts: CriticalConstants, y) -> float:
    """Conserved Hamiltonian of the critical equation."""
    v, v1, v2, v3 = (float(y[0]), float(y[1]), float(y[2]), float(y[3]))
    q = consts.power
    return (-v3 * v1 + 0.5 * (v2**2 - consts.K2 * v1**2 - consts.K0 * v**2)
            + consts.c * abs(v) ** (q + 1) / (q + 1))


def _taylor(consts, a, b, stats, t_end, first_max=False) -> Trajectory:
    """Taylor flow from the orbit minimum (a, 0, b, 0) in the scalar type of b;
    the run is added to stats under its precision."""
    tr = flow(consts, (a, 0.0, b, 0.0), t_end, first_max)
    tier = "longdouble" if isinstance(b, np.longdouble) else "float64"
    tally = stats.setdefault(tier, {"integrations": 0, "steps": 0})
    tally["integrations"] += 1
    tally["steps"] += tr.stats["steps"]
    return tr


def _classify(consts: CriticalConstants, a: float, b, stats: dict) -> int:
    """-1: dives to v <= 0; +1: escapes past the guard, or stays bounded to
    _T_MAX (at or beyond the boundary, treated as upper)."""
    tr = _taylor(consts, a, b, stats, _T_MAX)
    return -1 if tr.y[-1][0] <= 0 else 1


def _first_max(consts: CriticalConstants, a: float, b, stats: dict):
    """(t1, y(t1)) at the first maximum of v; (None, None) where there is none."""
    tr = _taylor(consts, a, b, stats, _T_MAX, first_max=True)
    if tr.status != "event":
        return None, None
    te, ye = tr.events[0][0]
    return float(te), ye


def _residual(consts, a, stats):
    """F(b) = v'''(t1) in the precision of b; None where v has no maximum
    before blow-up.

    Evaluations are kept per b in the returned dict, so bracket ends are
    integrated once and the root's (t1, y(t1)) needs no second run.
    """
    firsts = {}

    def F(b):
        if b not in firsts:
            firsts[b] = _first_max(consts, a, b, stats)
        t1, y1 = firsts[b]
        return None if t1 is None else y1[3]

    return F, firsts


def _changes_sign(fa, fb) -> bool:
    if fa is None or fb is None:
        return False
    return fa == 0 or fb == 0 or (fa < 0) != (fb < 0)


def _bisect(consts, a, blo, bhi, iters, stats, until: Callable = lambda lo, hi: False):
    """Bisect the crash/escape dichotomy ``iters`` times or until ``until(lo, hi)``."""
    for _ in range(iters):
        if until(blo, bhi):
            break
        mid = (blo + bhi) / 2
        if mid == blo or mid == bhi:
            break
        if _classify(consts, a, mid, stats) < 0:
            blo = mid
        else:
            bhi = mid
    return blo, bhi


def _brent(f: Callable, lo, hi):
    """Zero of f in [lo, hi] by Brent's method (Brent 1973, ch. 4, zeroin).

    Works in the dtype of lo and hi (float64 or longdouble) and stops when
    the bracket is a few ULP wide, or at an exact zero.  f must change sign
    across [lo, hi]; every iterate stays inside the current bracket.
    Raises ArithmeticError when f(lo), f(hi) do not bracket a sign change
    or f is undefined (None or not finite) at an iterate.
    """
    dt = np.result_type(lo, hi)
    scal = dt.type
    eps = np.finfo(dt).eps

    def value(x):
        fx = f(x)
        if fx is None or not np.isfinite(fx):
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

    ``consts`` defaults to the measured-c constants of dimension n.
    0 < a < a0 shoots; a == a0 returns the constant orbit with the
    linearized period.  Escalates to extended precision when the
    one-period closure defect of the float64 root exceeds the target; a
    returned defect still above the target is reported in ``message``.
    """
    consts = consts if consts is not None else critical_constants(n)
    a0 = consts.a0
    if not (0 < a <= a0 * (1 + 1e-12)):
        raise DomainError(f"Fowler parameter must lie in (0, a0={a0:.12g}], got a={a}")
    if abs(a - a0) <= 1e-12 * a0:
        T = consts.linearized_period()
        y = np.array([a0, 0.0, 0.0, 0.0])
        return ShootingResult(a=a0, b=0.0, T=T, energy=orbit_energy(consts, y),
                              residual=0.0, orbit=None, period_defect=0.0,
                              min_v=a0, energy_drift=0.0, even_symmetry_defect=0.0,
                              converged=True, message="constant orbit")

    stats: dict = {}
    # bracket on a geometric grid, then bisect the crash/escape boundary
    b_max = 10.0 * consts.K0 * a0
    grid = np.geomspace(1e-6, b_max, 25)
    prev = None
    blo = bhi = None
    for b in grid:
        o = _classify(consts, a, float(b), stats)
        if prev is not None and prev[1] < 0 and o > 0:
            blo, bhi = prev[0], float(b)
            break
        prev = (float(b), o)
    if blo is None:
        raise ArithmeticError(
            f"no crash/escape bracket for a={a} in (1e-6, {b_max:.3g}); "
            f"diagnostic sweep outcomes all {prev[1] if prev else 'undefined'}")
    # ten plain steps, then until F changes sign across the bracket; the
    # prefix fixes the bracket Brent starts from, and so the root's last ULP
    blo, bhi = _bisect(consts, a, blo, bhi, 10, stats)
    F, firsts = _residual(consts, a, stats)
    blo, bhi = _bisect(consts, a, blo, bhi, 60, stats,
                       until=lambda lo, hi: _changes_sign(F(lo), F(hi)))
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
        F_ld, firsts_ld = _residual(consts, a, stats)
        try:
            b_ld = _brent(F_ld, ld(b) * (1 - margin), ld(b) * (1 + margin))
        except ArithmeticError as exc:
            why = f"longdouble bracket failed: {exc}"
        else:
            refined = _assemble_result(consts, a, b_ld, *firsts_ld[b_ld], stats)
            if refined.period_defect <= result.period_defect:
                result, why = refined, "after longdouble refinement"
            else:
                why = (f"longdouble refinement reached {refined.period_defect:.3e}, "
                       f"not kept")
    if result.period_defect > _DEFECT_TARGET:
        note = (f"closure defect {result.period_defect:.3e} above target "
                f"{_DEFECT_TARGET:.1e} ({why})")
        result.message = f"{result.message}; {note}" if result.message else note
    return result


def _assemble_result(consts, a, b, t1, y1, stats) -> ShootingResult:
    """Diagnostics of the orbit through b, given its first maximum (t1, y(t1))."""
    residual = abs(float(y1[3]))
    T = 2.0 * t1
    orbit = _taylor(consts, a, b, stats, T)
    target = np.array([a, 0.0, float(b), 0.0])
    defect = float(np.max(np.abs(np.asarray(orbit.y[-1], float) - target)))
    ts = np.linspace(0.0, T, 1601)
    vals = orbit(ts)
    vmin = float(np.min(np.asarray(vals[:, 0], float)))
    energies = np.array([orbit_energy(consts, yv) for yv in vals])
    E0 = float(energies[0])
    drift = float(np.max(np.abs(energies - E0))) / (1.0 + abs(E0))
    taus = np.linspace(0.0, min(t1, T - t1), 101)[1:]
    sym = float(np.max(np.abs(np.asarray(orbit(t1 + taus)[:, 0], float)
                              - np.asarray(orbit(t1 - taus)[:, 0], float))))
    converged = residual <= _RESIDUAL_TOL and math.isfinite(defect)
    msg = "" if converged else f"residual {residual:.3e} above tol {_RESIDUAL_TOL:.1e}"
    if vmin < a - 1e-6:
        converged = False
        msg = f"orbit minimum {vmin:.9g} undercuts a={a:.9g} (wrong branch)"
    return ShootingResult(a=a, b=float(b), T=T, energy=E0, residual=residual,
                          orbit=orbit, period_defect=defect, min_v=vmin,
                          energy_drift=drift, even_symmetry_defect=sym,
                          converged=converged, message=msg, stats=stats,
                          precision="longdouble" if isinstance(b, np.longdouble) else "float64")


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
