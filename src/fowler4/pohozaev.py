"""Hamiltonian energies, slice functionals and their monotonicity.

All functionals act on radial (ODE) data, where the angular blocks
vanish identically; the slice integral over the sphere then reduces to
the surface measure omega_{n-1} times the radial density.  The limiting
levels and the p-coefficient block are scalar code in ``levels``, which
loads without numpy.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from .coefficients import (BUILD_SIGMA, hat_constant, oracle_autonomous,
                           printed_nonautonomous_polys)
from .integrate import Trajectory
from .odes import make_nonautonomous_rhs
from .params import DomainError, Params, special_exponents, unit_sphere_area
from .polys import peval, psum

# monotonicity_check_aviles: the shortest span it judges, and the relative
# spread of |W| (and bound on |W'|) on the tail that counts as settled
_MIN_WINDOW = 20.0
_SETTLE_TOL = 1e-3
# nodes of constant_state_trajectory's synthetic record
_CONSTANT_STATE_NODES = 500


def _blocks(ys):
    """Stacked component-major states (rows, 4p) -> the (V, V', V'', V''')
    blocks, each (rows, p)."""
    ys = np.asarray(ys, dtype=float)
    return ys[:, 0::4], ys[:, 1::4], ys[:, 2::4], ys[:, 3::4]


# The row energies below are elementwise numpy over the rows, each dot
# product summed left to right, so every row has the bits of one state's
# evaluation on any CPU.  |V|^e is a Python float power per row: numpy's
# vectorised power may pick another routine, and rounding, per CPU.

def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return psum(a[:, j] * b[:, j] for j in range(a.shape[1]))


def _norms(v: np.ndarray) -> np.ndarray:
    return np.sqrt(_dots(v, v))


def _norm_powers(v: np.ndarray, e: float) -> np.ndarray:
    return np.array([x ** e for x in _norms(v).tolist()])


def _autonomous_floats(params: Params, sigma: int) -> Dict[str, float]:
    c = oracle_autonomous(params.n, params.s, sigma)
    return {k: float(c[k]) for k in ("K0", "K1", "K2", "K3")}


def _radial_rows(params: Params, ys, c: Dict[str, float]) -> Tuple[np.ndarray, np.ndarray]:
    """H and its monotonicity density K1 |V'|^2 - K3 |V''|^2 on each row."""
    v, v1, v2, v3 = _blocks(ys)
    s = float(params.s)
    d11, d22 = _dots(v1, v1), _dots(v2, v2)
    H = (-(_dots(v3, v1) + c["K3"] * _dots(v2, v1))
         + 0.5 * (d22 - c["K2"] * d11 - c["K0"] * _dots(v, v))
         + _norm_powers(v, s + 1) / (s + 1))
    return H, c["K1"] * d11 - c["K3"] * d22


def hamiltonian_radial(params: Params, y, sigma: int = BUILD_SIGMA) -> float:
    """Radial Hamiltonian energy of a cylinder state.

    -(<V''',V'> + K3 <V'',V'>) + (|V''|^2 - K2 |V'|^2 - K0 |V|^2)/2
    + |V|^{s+1}/(s+1).
    """
    return float(_radial_rows(params, [y], _autonomous_floats(params, sigma))[0][0])


@dataclass
class EnergySample:
    t: float
    H: float
    dH_formula: float
    dH_numeric: float


def pohozaev_series(params: Params, traj: Trajectory, num: int = 201,
                    sigma: int = BUILD_SIGMA) -> List[EnergySample]:
    """Energy series along a trajectory with formula and numeric derivatives.

    dH_numeric uses a 4th-order centered stencil on the dense output;
    the first/last two grid points carry the one-sided neighbors' values
    of the formula route only (excluded from comparisons by convention).
    """
    if len(traj.t) < 5:
        raise DomainError("trajectory too short for an energy series")
    if not (isinstance(num, numbers.Integral) and num >= 5):
        raise DomainError(f"the derivative stencil needs an integer num >= 5, got {num}")
    ts = np.linspace(float(traj.t[0]), float(traj.t[-1]), num)
    dt = float(ts[1] - ts[0])
    Hs, dHf = _radial_rows(params, traj(ts), _autonomous_floats(params, sigma))
    dHn = np.full(num, np.nan)
    dHn[2:-2] = (Hs[:-4] - 8 * Hs[1:-3] + 8 * Hs[3:-1] - Hs[4:]) / (12 * dt)
    return [EnergySample(*row) for row in
            zip(ts.tolist(), Hs.tolist(), dHf.tolist(), dHn.tolist())]


# ---------------------------------------------------------------------------
# nonautonomous (t-weighted) machinery
# ---------------------------------------------------------------------------

def _aviles_rows(n: int, ys, ts: np.ndarray) -> np.ndarray:
    """t-weighted Hamiltonian of the lower-critical system on each row."""
    polys, u = printed_nonautonomous_polys(n), 1.0 / ts
    # float coefficients: an ndarray plus a Fraction is an object array
    K0, K2, K3 = (peval([float(c) for c in polys[k].coeffs], u) for k in ("K0", "K2", "K3"))
    w, w1, w2, w3 = _blocks(ys)
    q = float(special_exponents(n).lower)
    return (-ts * (_dots(w3, w1) + K3 * _dots(w2, w1))
            + 0.5 * ts * (_dots(w2, w2) - K2 * _dots(w1, w1)
                          - K0 * _dots(w, w))
            + _norm_powers(w, q + 1) / (q + 1))


def aviles_hamiltonian(n: int, y, t: float) -> float:
    """t-weighted radial Hamiltonian of the lower-critical system."""
    if t <= 0:
        raise DomainError("t must be positive")
    return float(_aviles_rows(n, [y], np.array([float(t)]))[0])


def constant_state_trajectory(n: int, t0: float, t1: float) -> Trajectory:
    """Synthetic settled trajectory along the quasi-static balance
    w(t) = (t K~0(t))^{(n-4)/4}, the slowly varying constant level."""
    if not (0 < t0 < t1):
        raise DomainError("need 0 < t0 < t1")
    ts = np.linspace(t0, t1, _CONSTANT_STATE_NODES)
    ys = np.zeros((_CONSTANT_STATE_NODES, 4))
    # float coefficients round as the Fraction-to-float promotion did
    K0 = [float(c) for c in printed_nonautonomous_polys(n)["K0"].coeffs]
    ys[:, 0] = [(t * peval(K0, 1.0 / t)) ** ((n - 4) / 4.0) for t in ts.tolist()]
    return Trajectory(t=ts, y=ys, stats={"synthetic": True}, status="synthetic")


def monotonicity_check_aviles(n: int, traj: Trajectory) -> str:
    """Single-sign verdict for dP~/dt on the settled tail of a trajectory.

    Returns 'NONINCREASING', 'NONDECREASING', 'CONSTANT' or
    'INCONCLUSIVE' (trajectory too short, or never settled near a
    constant level) -- never a false pass.
    """
    t_lo, t_hi = float(traj.t[0]), float(traj.t[-1])
    if t_hi - t_lo < _MIN_WINDOW:
        return "INCONCLUSIVE"
    ts = np.linspace(t_lo, t_hi, 801)
    ys = traj(ts)
    Ps = unit_sphere_area(n) * _aviles_rows(n, ys, ts)
    # settled: |W| near a constant, derivatives small on the tail
    w, w1, _, _ = _blocks(ys)
    ws, w1 = _norms(w), _norms(w1)
    tail = ts >= t_lo + 0.25 * (t_hi - t_lo)
    wbar = float(np.mean(ws[tail]))
    if np.all(np.abs(Ps) < 1e-14):
        return "CONSTANT"
    settled = (float(np.max(np.abs(ws[tail] - wbar))) <= _SETTLE_TOL * max(wbar, 1e-12)
               and float(np.max(w1[tail])) <= _SETTLE_TOL * max(wbar, 1.0))
    if not settled:
        return "INCONCLUSIVE"
    dP = np.gradient(Ps, ts)
    dtail = dP[tail]
    if np.all(np.abs(dtail) < 1e-15):
        return "CONSTANT"
    if np.all(dtail >= -1e-14 * max(1.0, float(np.max(np.abs(Ps))))):
        return "NONDECREASING"
    if np.all(dtail <= 1e-14 * max(1.0, float(np.max(np.abs(Ps))))):
        return "NONINCREASING"
    return "INCONCLUSIVE"


def constant_state_residuals(n: int, ts) -> List[float]:
    """|RHS| of the t-weighted system at each t in ts, along the frozen
    constant state w* (the theorem's hat constant)."""
    rhs = make_nonautonomous_rhs(n)
    w = float(hat_constant(n)) ** ((n - 4) / 4.0)
    state = np.array([w, 0.0, 0.0, 0.0])
    return [float(np.max(np.abs(rhs(t, state)))) for t in ts]
