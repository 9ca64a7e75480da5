"""Limiting levels and the p-coefficient block of the slice energies.

The scalar half of the slice energies, beside ``pohozaev``'s array
half: exact or plain-float arithmetic on the coefficient tables, with no
array code, so the ledger and the exact acceptance criteria load it
without numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional

from .coefficients import hat_constant, oracle_autonomous, printed_nonautonomous_polys
from .params import DomainError, Params, Scalar, as_exact, is_exact, special_exponents
from .polys import UPoly, psum


@dataclass(frozen=True)
class PohozaevLevels:
    """The limiting energy levels and their printed/derived variants."""

    n: int
    s: Scalar
    l_star_autonomous: Optional[float]
    l_star_aviles_printed: float
    l_star_aviles_derived: Dict[str, float]      # per hat-constant variant
    l_star_aviles_constant_state: Dict[str, float]

    @property
    def aviles_verdict(self) -> str:
        ref = self.l_star_aviles_printed
        for v in self.l_star_aviles_derived.values():
            if abs(v - ref) <= 1e-9 * max(1.0, abs(ref)):
                return "MATCH"
        return "MISMATCH"


def _in_range(what: str, n: int, level) -> float:
    """level() as a float; DomainError where it leaves float range, by an
    OverflowError or by a non-finite result."""
    try:
        value = level()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise DomainError(f"{what} at n={n} leaves float range")
    return value


def autonomous_level(n: int, s: Scalar):
    """l*(n,s) = (s-1)/(2(s+1)) K0^{(s+1)/(s-1)}, the same in either sign
    convention; None when K0 <= 0."""
    K0 = oracle_autonomous(n, s)["K0"]
    if not K0 > 0:
        return None
    s = float(s)
    return _in_range("autonomous level", n,
                     lambda: (s - 1) / (2 * (s + 1)) * float(K0) ** ((s + 1) / (s - 1)))


def equilibrium_energy_exact(n: int, s):
    """Exact split of H at the nontrivial constant state.

    Both H(equilibrium) and -l*(n,s) are rational multiples of the
    common power K0^{(s+1)/(s-1)}; returns
    (prefactor_H, prefactor_neg_lstar, K0, exponent) as Fractions.
    """
    s = as_exact(s)
    if not is_exact(s):
        raise DomainError("exact level identity needs rational s")
    K0 = oracle_autonomous(n, s)["K0"]
    if not K0 > 0:
        raise DomainError("nontrivial equilibrium requires K0 > 0")
    pref_H = Fraction(1, 1) / (s + 1) - Fraction(1, 2)
    pref_neg_lstar = -Fraction(s - 1, 1) / (2 * (s + 1))
    expo = Fraction(s + 1, 1) / (s - 1)
    return pref_H, pref_neg_lstar, K0, expo


def printed_aviles_level(n: int) -> float:
    """The long closed form printed for the lower-critical limiting level."""
    a = 2.0 ** ((n - 8) / (n - 4)) * (n - 4) * \
        float((n - 2) * (n * n - 16)) ** (2.0 * (n - 2) / (n - 4))
    b = float((n - 2) ** 5) * float((n * n - 16)) ** 4
    return (a + b) / (16.0 * (n - 2))


def _aviles_terms(n: int, variant: str):
    """(Lam^{q+1}/(q+1), K^0 Lam^2) at Lam = K^0^{(n-4)/4}, q = lower."""
    K0h = float(hat_constant(n, variant))
    q = float(special_exponents(n).lower)
    lam = K0h ** ((n - 4) / 4.0)
    return lam ** (q + 1) / (q + 1), K0h * lam * lam


def derived_aviles_level(n: int, variant: str = "theorem") -> float:
    """(q+1)^{-1} Lam^{q+1} + K^0 Lam^2 at Lam = K^0^{(n-4)/4}, q = lower."""
    def level():
        a, b = _aviles_terms(n, variant)
        return a + b
    return _in_range("derived lower-critical level", n, level)


def constant_state_aviles_level(n: int, variant: str = "theorem") -> float:
    """Actual limit of the slice energy along the constant state w*.

    The t-weighted quadratic term contributes with a minus sign, giving
    Lam^{q+1}/(q+1) - K^0 Lam^2 < 0 (consistent with the \"-l*\" branch).
    """
    def level():
        a, b = _aviles_terms(n, variant)
        return a - b
    return _in_range("constant-state lower-critical level", n, level)


def limiting_levels(params: Params) -> PohozaevLevels:
    variants = ("theorem", "printed-limit")
    return PohozaevLevels(
        n=params.n, s=params.s,
        l_star_autonomous=autonomous_level(params.n, params.s),
        l_star_aviles_printed=printed_aviles_level(params.n),
        l_star_aviles_derived={v: derived_aviles_level(params.n, v) for v in variants},
        l_star_aviles_constant_state={v: constant_state_aviles_level(params.n, v)
                                      for v in variants},
    )


# ---------------------------------------------------------------------------
# the p-coefficient block of the lower-critical monotonicity statement
# ---------------------------------------------------------------------------

def aviles_p_coeffs(n: int, t: float) -> Dict[str, Dict[str, float]]:
    """The four p-coefficients, printed route and definitional route.

    definitional: p3 = -[K~3 + K~3'], p2 = -(2t K~3 - 1)/2,
    p1 = -[K~2 + t K~2' - 2t K~1]/2, p0 = -[K~0 + t K~0']/2,
    built from the printed K~ block.
    """
    if t <= 0:
        raise DomainError("t must be positive")
    printed = {
        "p3": -(n - 4) / t**2 - (n - 4) / t - 2.0 * (n - 4),
        "p2": -(n - 4) / t - (4 * n - 17) / 2.0,
        "p1": (n * (n + 7) * (n - 4) / (16 * t**2) + 3 * n * (n - 4) ** 2 / (8 * t)
               + 5.0 * (7 * n - 10) - 2.0 * (n - 2) * (n - 4) * t),
        "p0": (3 * (n - 4) * n * (n + 4) * (n + 8) / (512 * t**4)
               + (n - 4) ** 2 * n * (n + 4) / (32 * t**3)
               + (n - 4) * n * (n * n - 10 * n + 20) / (32 * t**2)),
    }
    definitional = {k: _eval_tpoly(v, t) for k, v in
                    definitional_p_polys(n).items()}
    return {"printed": printed, "definitional": definitional}


def definitional_p_polys(n: int) -> Dict[str, dict]:
    """Exact definitional p_j as {power-of-t: Fraction} maps.

    Mixed polynomials in t and 1/t; keys are integer powers of t.
    """
    Kt = printed_nonautonomous_polys(n)

    def as_tmap(up: UPoly, tshift: int = 0) -> dict:
        return {tshift - k: c for k, c in enumerate(up.coeffs) if c != 0}

    def tmap_add(*maps):
        out: dict = {}
        for m in maps:
            for k, v in m.items():
                out[k] = out.get(k, 0) + v
        return {k: v for k, v in out.items() if v != 0}

    def tmap_scale(m, c):
        return {k: c * v for k, v in m.items()}

    def du_to_dt(up: UPoly) -> dict:
        # d/dt f(1/t) = -u^2 f'(u) evaluated as a map in t
        d = UPoly([0, 0, -1]) * up.deriv()
        return as_tmap(d)

    def tshift(m, j):
        return {k + j: v for k, v in m.items()}

    p3 = tmap_scale(tmap_add(as_tmap(Kt["K3"]), du_to_dt(Kt["K3"])), -1)
    p2 = tmap_add(tmap_scale(tshift(as_tmap(Kt["K3"]), 1), Fraction(-1)),
                  {0: Fraction(1, 2)})
    p1 = tmap_scale(tmap_add(as_tmap(Kt["K2"]), tshift(du_to_dt(Kt["K2"]), 1),
                             tmap_scale(tshift(as_tmap(Kt["K1"]), 1), -2)),
                    Fraction(-1, 2))
    p0 = tmap_scale(tmap_add(as_tmap(Kt["K0"]), tshift(du_to_dt(Kt["K0"]), 1)),
                    Fraction(-1, 2))
    return {"p3": p3, "p2": p2, "p1": p1, "p0": p0}


def _eval_tpoly(tmap: dict, t: float) -> float:
    return float(psum(float(c) * float(t) ** k for k, c in tmap.items()))


def p0_large_t_sign(n: int) -> int:
    """Sign of the dominant large-t term of p0 (1/t^2 coefficient)."""
    lead = n * n - 10 * n + 20
    return 0 if lead == 0 else (1 if lead > 0 else -1)
