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
one-period orbit of the root.  A crash/escape run also records the first
maximum it crosses, the node a half-orbit run ends on, bit for bit; F
reads that record at every b the bracket has run, so within one search
no b is integrated twice, the one-period orbit apart.  Each run stops as
soon as its state enters one of two forward-invariant regions of the
equation (``taylor._fate``): above a0 with v', v'', v''' > 0 the orbit
escapes and v has no maximum; below a0 with v', v'', v''' < 0 it reaches
v = 0 before _T_MAX.  That gives the outcome of running on to v <= 0 or
the |y| guard in about a third of the steps; a closing orbit enters
neither region.  A run computes in the scalar type of b, with steps
whose truncation error stays below its rounding; on the C07 grid the
float64 root closes the period within the target.  Where the float64
ULP floor on b and the rounding of the orbit still leave a one-period
closure defect above tolerance (strong saddle amplification, e.g.
a = 0.2 a0 at n = 5) the search escalates to extended precision: the
same Brent search on F with b in longdouble, inside +-1e-9 of the
float64 root.  A returned root whose defect still misses the target, or
whose one-period run stops before T, says so in its message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, List, Optional, Sequence

import numpy as np

from .asymptotics import geometric_grid
from .coefficients import printed_critical_values
from .integrate import Trajectory
from .params import DomainError, special_exponents
from .bubble import bubble_constant
from .taylor import flow, march

_LONGDOUBLE_OK = np.finfo(np.longdouble).eps < 1e-18

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
    return "longdouble" if isinstance(b, np.longdouble) else "float64"


def _failed(a: float, b, message: str, stats: Optional[dict] = None) -> ShootingResult:
    """A result without an orbit, in the precision tier of b."""
    return ShootingResult(a=a, b=float(b), T=float("nan"), energy=float("nan"),
                          residual=float("inf"), orbit=None, period_defect=float("inf"),
                          min_v=float("nan"), energy_drift=float("inf"),
                          even_symmetry_defect=float("inf"), converged=False,
                          precision=_tier(b), message=message,
                          stats=stats if stats is not None else {})


def orbit_energy(consts: CriticalConstants, y) -> float:
    """Conserved Hamiltonian of the critical equation."""
    return float(_energies(consts, np.array([y[:4]], dtype=float))[0])


def _energies(consts: CriticalConstants, vals) -> np.ndarray:
    """``orbit_energy`` of each row (v, v', v'', v''') of the float64 array vals.

    The four powers are Python's float ``**`` (libm pow), one column list
    at a time: numpy's power and its x*x square round some values
    differently, which moves energy_drift at some a.  The rest is
    elementwise numpy, each row's operations in the order of
    -v3 v1 + 0.5 (v2^2 - K2 v1^2 - K0 v^2) + c |v|^q1 / q1.
    """
    K2, K0, c, q1 = consts.K2, consts.K0, consts.c, consts.power + 1
    v, v1, v2, v3 = vals.T
    sq, sq1, sq2 = (np.array([x ** 2 for x in col.tolist()]) for col in (v, v1, v2))
    pq = np.array([abs(x) ** q1 for x in v.tolist()])
    return -v3 * v1 + 0.5 * (sq2 - K2 * sq1 - K0 * sq) + c * pq / q1


def _tally(stats: dict, b, steps: int) -> None:
    """Add one Taylor run of ``steps`` steps to stats under the tier of b."""
    tally = stats.setdefault(_tier(b), {"integrations": 0, "steps": 0})
    tally["integrations"] += 1
    tally["steps"] += steps


def _march(consts, a, b, stats, first_max=False):
    """Taylor run from the orbit minimum (a, 0, b, 0) in the scalar type of b,
    to _T_MAX, without dense output: its status, its last state and the
    first maximum of v as (t1, y(t1)), (None, None) where it crosses none."""
    status, _, ys, hs, _, first = march(consts, (a, 0.0, b, 0.0), _T_MAX, first_max)
    _tally(stats, b, len(hs))
    return status, ys[-1], (float(first[0]), first[1]) if first else (None, None)


def _classify(consts: CriticalConstants, a: float, b, stats: dict, firsts: dict) -> int:
    """-1: crashes (v reaches 0 before _T_MAX); +1: escapes, or stays
    bounded to _T_MAX (at or beyond the boundary, treated as upper).

    The run stops as soon as ``taylor.march`` decides its fate; a run whose
    fate stays open ends at v <= 0 (-1), past the |y| guard or at _T_MAX.
    The first maximum it crosses on the way, the one ``_first_max`` finds,
    goes to ``firsts[b]``."""
    status, y, firsts[b] = _march(consts, a, b, stats)
    return -1 if status == "crash" or y[0] <= 0 else 1


def _first_max(consts: CriticalConstants, a: float, b, stats: dict):
    """(t1, y(t1)) at the first maximum of v; (None, None) where there is none.

    The run stops there.  An escape-side run stops where ``taylor.march``
    decides its escape (from there v' never vanishes), not at the |y| guard."""
    return _march(consts, a, b, stats, first_max=True)[2]


def _residual(consts, a, stats, firsts: dict):
    """F(b) = v'''(t1) in the precision of b; None where v has no maximum
    before blow-up.

    First maxima are kept per b in ``firsts``, which ``_classify`` fills
    too, so a bracket end needs no run of its own and the root's
    (t1, y(t1)) no second one.
    """

    def F(b):
        if b not in firsts:
            firsts[b] = _first_max(consts, a, b, stats)
        t1, y1 = firsts[b]
        return None if t1 is None else y1[3]

    return F


def _changes_sign(fa, fb) -> bool:
    if fa is None or fb is None:
        return False
    return fa == 0 or fb == 0 or (fa < 0) != (fb < 0)


def _bisect(consts, a, blo, bhi, iters, stats, firsts,
            until: Callable = lambda lo, hi: False):
    """Bisect the crash/escape dichotomy ``iters`` times or until ``until(lo, hi)``."""
    for _ in range(iters):
        if until(blo, bhi):
            break
        mid = (blo + bhi) / 2
        if mid == blo or mid == bhi:
            break
        if _classify(consts, a, mid, stats, firsts) < 0:
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
    ArithmeticError ("no crash/escape bracket ...") where no b on the
    bracket grid crashes below one that escapes (tiny a, for one);
    ``orbit_table`` records either as a failed row.
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
        y = np.array([a0, 0.0, 0.0, 0.0])
        return ShootingResult(a=a0, b=0.0, T=T, energy=orbit_energy(consts, y),
                              residual=0.0, orbit=None, period_defect=0.0,
                              min_v=a0, energy_drift=0.0, even_symmetry_defect=0.0,
                              converged=True, message="constant orbit")

    stats: dict = {}
    firsts: dict = {}   # first maximum per float64 b, from any run of this call
    # bracket on a geometric grid of Python float powers, the same on every
    # CPU (its bits fix the root's last ULP), then bisect the crash/escape
    # boundary
    b_max = 10.0 * consts.K0 * a0
    prev = None
    blo = bhi = None
    for b in geometric_grid(1e-6, b_max, 25):
        o = _classify(consts, a, b, stats, firsts)
        if prev is not None and prev[1] < 0 and o > 0:
            blo, bhi = prev[0], b
            break
        prev = (b, o)
    if blo is None:
        raise ArithmeticError(
            f"no crash/escape bracket for a={a} in (1e-6, {b_max:.3g}); "
            f"diagnostic sweep outcomes all {prev[1] if prev else 'undefined'}")
    # ten plain steps, then until F changes sign across the bracket; the
    # prefix fixes the bracket Brent starts from, and so the root's last ULP
    blo, bhi = _bisect(consts, a, blo, bhi, 10, stats, firsts)
    F = _residual(consts, a, stats, firsts)
    blo, bhi = _bisect(consts, a, blo, bhi, 60, stats, firsts,
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
        # a dict of its own: a longdouble b equal to a float64 one is a new run
        firsts_ld: dict = {}
        F_ld = _residual(consts, a, stats, firsts_ld)
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
    ts = np.linspace(0.0, T, 1601)
    vals = orbit(ts)
    vmin = float(np.min(vals[:, 0]))
    energies = _energies(consts, vals)
    E0 = float(energies[0])
    drift = float(np.max(np.abs(energies - E0))) / (1.0 + abs(E0))
    taus = np.linspace(0.0, min(t1, T - t1), 101)[1:]
    sym = float(np.max(np.abs(orbit(t1 + taus)[:, 0] - orbit(t1 - taus)[:, 0])))
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
