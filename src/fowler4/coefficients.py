"""Cylindrical coefficients of the bi-Laplacian: printed tables vs oracles.

Three independent routes produce the coefficients of the reduced
cylinder operator

    d_t^4 + K3 d_t^3 + K2 d_t^2 + K1 d_t + K0
        + Lap_theta^2 + 2 d_t^2 Lap_theta + J1 d_t Lap_theta + J0 Lap_theta

for the change of variables u(r) = rho(r) v(t), t = psi(r):

1. the *printed* closed forms transcribed literally from the source text
   (``printed_*`` functions; kept verbatim, typos included, for the
   discrepancy ledger);
2. the *separated-mode symbol*: the exact action of the bi-Laplacian on
   r^beta Y_k composed twice (``char_symbol``), the master oracle;
3. the *chain-rule assembly* replaying the coordinate change numerically
   or in exact rational arithmetic (``derive_cyl_coeffs_numeric``,
   ``nonautonomous_oracle_polys``).

Routes 2 and 3 agree identically; route 1 is what the ledger judges.

Sign convention: sigma = +1 means t = -ln r, sigma = -1 means t = +ln r.
The build default BUILD_SIGMA = -1 is fixed by ``sigma_anchor_vote``:
it is the unique choice under which the printed K1/K3 formulas match the
oracle exactly and the monotonicity statement K1 > 0, K3 < 0 holds on
the Gidas--Spruck window.  The nonautonomous change of variables has no
such freedom (t = -ln r is forced by t > 0 on the punctured unit ball).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from .params import DomainError, Params, Scalar, as_exact, gamma_exponent, is_exact
from .polys import UPoly, compose_linear, peval, psum

BUILD_SIGMA = -1


# ---------------------------------------------------------------------------
# printed closed forms (transcribed literally; judged by the ledger)
# ---------------------------------------------------------------------------

def printed_autonomous(n: int, s: Scalar) -> Dict[str, Scalar]:
    """The six constant-coefficient formulas from the main coefficient block.

    Computed once per (n, s) and process for exact s (the ledger and C01/C02
    ask for the same grid), on every call for float s.  The dict is the
    caller's own and its values are immutable, so no caller can alter the
    cached result.
    """
    s = as_exact(s)
    if is_exact(s):
        return dict(_printed_autonomous_exact(n, s))
    return _printed_autonomous(n, s)


# bounded as _char_symbol is: a caller's own exact s grid may be long
@functools.lru_cache(maxsize=1024)
def _printed_autonomous_exact(n: int, s: Scalar) -> Dict[str, Scalar]:
    return _printed_autonomous(n, s)


def _power_unit(s: Scalar):
    """(s, m = s - 1, one) for a power s, exact where s is rational, one being
    its unit (Fraction 1 or 1.0); DomainError at s = 1, where m divides."""
    s = as_exact(s)
    if s == 1:
        raise DomainError("undefined at s = 1")
    return s, s - 1, (Fraction(1) if is_exact(s) else 1.0)


def _printed_autonomous(n: int, s: Scalar) -> Dict[str, Scalar]:
    s, m, one = _power_unit(s)
    A = n * n - 10 * n + 20
    K0 = 8 * one / m**4 * ((n - 2) * (n - 4) * m**3 + 2 * A * m**2 - 16 * (n - 4) * m + 32)
    K1 = -2 * one / m**3 * ((n - 2) * (n - 4) * m**3 + 4 * A * m**2 - 48 * (n - 4) * m + 128)
    K2 = one / m**2 * (A * m**2 - 24 * (n - 4) * m + 96)
    K3 = 2 * one / m * ((n - 4) * m - 8)
    J0 = -2 * one / m**2 * ((n - 4) * m**2 + 4 * (n - 4) * m - 16)
    J1 = 2 * one / m * ((n - 4) * m + 16)
    return {"K0": K0, "K1": K1, "K2": K2, "K3": K3, "J0": J0, "J1": J1}


def printed_appendix_J40(n: int, s: Scalar) -> Scalar:
    """The appendix variant of J0 (disagrees with the main-text formula)."""
    s, m, one = _power_unit(s)
    return 2 * one / m**2 * ((s + 1) ** 2 * m**2 - n * (s - 3) * m)


def printed_critical_values(n: int) -> Dict[str, Fraction]:
    """Special values tabulated at the critical power s = (n+4)/(n-4)."""
    return {
        "K0": Fraction(n * n * (n - 4) ** 2, 16),
        "K1": Fraction(0),
        "K2": -Fraction(n * n - 4 * n + 8, 2),
        "K3": Fraction(0),
        "J0": -Fraction(n * (n - 4), 2),
        "J1": Fraction(0),
    }


def printed_lower_values(n: int) -> Dict[str, Fraction]:
    """Special values tabulated at s = lower exponent n/(n-4)."""
    return {
        "K0": Fraction(0),
        "K1": Fraction(2 * (n - 4) * (n + 2)),
        "K2": Fraction(n * n - 10 * n + 20),
        "K3": Fraction(2 * (n - 4)),
        "J0": Fraction(-2 * (n - 4)),
        "J1": Fraction(2 * (n - 4)),
    }


def printed_nonautonomous_polys(n: int) -> Dict[str, UPoly]:
    """Printed time-dependent coefficients as exact polynomials in u = 1/t."""
    F = Fraction
    return {
        "K0": UPoly([0, (n - 4) * (n - 2) * (n + 4),
                     F((n - 4) * n * (n * n - 10 * n + 20), 16),
                     -F((n - 4) ** 2 * n * (n + 4), 32),
                     F((n - 4) * n * (n + 4) * (n + 8), 256)]),
        "K1": UPoly([-2 * (n - 4) * (n - 2), F((n - 4) * (n * n - 10 * n + 20), 2),
                     F(3 * n * (n - 4), 8), F((n - 4) * n * (n + 4), 16)]),
        "K2": UPoly([n * n - 10 * n + 20, -F(3 * (n - 4) ** 2, 2), F(3 * n * (n - 4), 8)]),
        "K3": UPoly([2 * (n - 4), n - 4]),
        "J0": UPoly([-2 * (n - 4), -F((n - 4) ** 2, 2), F(n * (n - 4), 8)]),
        "J1": UPoly([2 * (n - 4), -(n - 4)]),
    }


# ---------------------------------------------------------------------------
# separated-mode symbol (oracle route 2)
# ---------------------------------------------------------------------------

def radial_symbol(n: int, beta):
    """Q(beta): the bi-Laplacian acting on r^beta gives Q(beta) r^{beta-4}."""
    return beta * (beta + n - 2) * (beta - 2) * (beta + n - 4)


@dataclass(frozen=True)
class CharSymbol:
    """Exact bivariate symbol S(lam, nu) of the reduced cylinder operator.

    S(lam, nu) = P(lam) + nu^2 - (2 lam^2 + J1 lam + J0) nu, where
    P(lam) = lam^4 + K3 lam^3 + K2 lam^2 + K1 lam + K0, obtained by
    expanding the action of the bi-Laplacian on r^beta Y_k,
    (beta (beta + n - 2) - nu) ((beta - 2) (beta + n - 4) - nu) with
    nu = k (k + n - 2), at beta = -gamma - sigma*lam.
    """

    n: int
    s: Scalar
    sigma: int
    gamma: Scalar
    p_coeffs: tuple      # (K0, K1, K2, K3, 1)
    nu_coeffs: tuple     # (J0, J1, 2)

    def evaluate(self, lam, nu=0):
        return (peval(self.p_coeffs, lam) + nu * nu
                - nu * peval(self.nu_coeffs, lam))

    @property
    def coefficients(self) -> Dict[str, Scalar]:
        K0, K1, K2, K3, _ = self.p_coeffs
        J0, J1, _ = self.nu_coeffs
        return {"K0": K0, "K1": K1, "K2": K2, "K3": K3, "J0": J0, "J1": J1}


def char_symbol(n: int, s: Scalar, sigma: int = BUILD_SIGMA) -> CharSymbol:
    """Expand the separated-mode symbol for the scaling u = r^{-gamma} v."""
    return _char_symbol(n, as_exact(s), sigma)


# typed: 5, 5.0 and Fraction(5) are separate keys, so a float caller never
# gets the exact symbol (or an exact caller the float one); bounded, as a
# sign chart over a fine s grid asks for one symbol per grid point
@functools.lru_cache(maxsize=1024, typed=True)
def _char_symbol(n: int, s: Scalar, sigma: int) -> CharSymbol:
    if sigma not in (1, -1):
        raise DomainError(f"sigma must be +-1, got {sigma}")
    g = gamma_exponent(s)
    # Q(beta) = beta^4 + 2(n-4) beta^3 + (n^2-10n+20) beta^2 - 2(n-2)(n-4) beta
    Q = [0, -2 * (n - 2) * (n - 4), n * n - 10 * n + 20, 2 * (n - 4), 1]
    # A(beta) = 2 beta^2 + 2(n-4) beta - 2(n-4)  (coefficient of -nu)
    A = [-2 * (n - 4), 2 * (n - 4), 2]
    if not is_exact(s):
        # float s keeps this expansion: SingularPower and the fit pins read its bits
        P = compose_linear([float(q) for q in Q], -g, -sigma * 1.0)
        N = compose_linear([float(a) for a in A], -g, -sigma * 1.0)
    elif sigma == 1:
        # beta = -g - lam is the sigma = -1 argument at -lam: odd coefficients flip
        m = _char_symbol(n, s, -1)
        P = [-c if k % 2 else c for k, c in enumerate(m.p_coeffs)]
        N = [-c if k % 2 else c for k, c in enumerate(m.nu_coeffs)]
    else:
        # g = a/b: b^4 Q((-a - sigma b lam)/b) = sum_j Q_j b^(4-j) (-a - sigma b lam)^j,
        # an integer expansion, and likewise b^2 A with b^(2-j)
        a, b = g.numerator, g.denominator
        P = [Fraction(c, b**4) for c in
             compose_linear([q * b ** (4 - j) for j, q in enumerate(Q)], -a, -sigma * b)]
        N = [Fraction(c, b**2) for c in
             compose_linear([x * b ** (2 - j) for j, x in enumerate(A)], -a, -sigma * b)]
    return CharSymbol(n=n, s=s, sigma=sigma, gamma=g,
                      p_coeffs=tuple(P[:5]), nu_coeffs=tuple(N[:3]))


def oracle_autonomous(n: int, s: Scalar, sigma: int = BUILD_SIGMA) -> Dict[str, Scalar]:
    """Working coefficient set used by the dynamics modules (oracle route)."""
    return char_symbol(n, s, sigma).coefficients


# ---------------------------------------------------------------------------
# chain-rule assembly (oracle route 3)
# ---------------------------------------------------------------------------

def chain_rule_matrix(rho_derivs: Sequence, psi_derivs: Sequence):
    """Lower-triangular matrix c_{jl} with d_r^j = sum_l c_{jl} d_t^l, j <= k.

    rho_derivs: (rho, rho', ..., rho^(k)) and psi_derivs: (psi', ..., psi^(k))
    for an order k from 1 to 4; only the rows up to k are built.
    """
    k = len(psi_derivs)
    if not 1 <= k <= 4 or len(rho_derivs) != k + 1:
        raise DomainError("need rho derivatives 0..k and psi derivatives 1..k, k <= 4")
    p0, p1, p2, p3, p4 = (*rho_derivs, None, None, None)[:5]
    s1, s2, s3, s4 = (*psi_derivs, None, None, None)[:4]
    c = [[p0], [p1, s1 * p0]]
    if k >= 2:
        c.append([p2, 2 * s1 * p1 + s2 * p0, s1 * s1 * p0])
    if k >= 3:
        c.append([p3, 3 * s1 * p2 + 3 * s2 * p1 + s3 * p0,
                  3 * s1 * s1 * p1 + 3 * s1 * s2 * p0, s1 * s1 * s1 * p0])
    if k == 4:
        c.append([p4, 4 * s1 * p3 + 6 * s2 * p2 + 4 * s3 * p1 + s4 * p0,
                  6 * s1 * s1 * p2 + 12 * s1 * s2 * p1 + (3 * s2 * s2 + 4 * s1 * s3) * p0,
                  4 * s1 * s1 * s1 * p1 + 6 * s1 * s1 * s2 * p0,
                  s1 * s1 * s1 * s1 * p0])
    z = 0 * (p0 + s1)
    return [row + [z] * (k + 1 - len(row)) for row in c[:k + 1]]


def radial_weights(n: int) -> Dict[int, int]:
    """Weights N_j of r^{j-4} d_r^j in the spherical bi-Laplacian.

    Hard-coded from the operator display (the appendix list swaps the
    j=1 and j=3 labels); validated by ``validate_weights``.
    """
    return {0: 0, 1: -(n - 1) * (n - 3), 2: (n - 1) * (n - 3), 3: 2 * (n - 1), 4: 1}


def radial_bilaplacian(n: int, r, derivs) -> float:
    """sum_j N_j r^{j-4} u^(j) at r, from derivs = (u, u', u'', u''', u'''') at r,
    summed left to right."""
    N = radial_weights(n)
    return float(psum(N[j] * r ** (j - 4) * derivs[j] for j in range(5)))


def angular_weights(n: int) -> Dict[int, int]:
    """Weights M_j of r^{j-4} d_r^j Lap_sigma; the Lap_sigma^2 weight is 1."""
    return {0: -2 * (n - 4), 1: 2 * (n - 3), 2: 2}


def validate_weights(n: int, beta: Scalar) -> bool:
    """Apply the weight tables to r^beta and compare with the mode symbol."""
    N = radial_weights(n)
    M = angular_weights(n)
    fall = [1]
    for k in range(4):
        fall.append(fall[-1] * (beta - k))
    radial = psum(N[j] * fall[j] for j in range(5))
    angular = psum(M[j] * fall[j] for j in range(3))
    ok_r = radial == radial_symbol(n, beta)
    # coefficient of -nu in the mode symbol
    ok_a = angular == 2 * beta * beta + 2 * (n - 4) * beta - 2 * (n - 4)
    return bool(ok_r and ok_a)


def _weighted(c, weights, name: str) -> Dict[str, object]:
    """{name + str(l): sum_j weights[j] c_{jl}}: the operator sum_j w_j d_r^j
    (its r-powers normalized away) written in t-derivatives, summed j up."""
    top = len(weights)
    return {f"{name}{l}": psum(weights[j] * c[j][l] for j in range(l, top))
            for l in range(top)}


def _assemble(n: int, rho_rel: Sequence, psi_rel: Sequence, r=None) -> Dict[str, object]:
    """Assemble normalized cylindrical coefficients.

    rho_rel[k] = rho^{(k)}/rho * r^k and psi_rel[k] = psi^{(k)} * r^k are
    r-free (the change of variables is r-homogeneous), so the assembled,
    rho*r^{-4}-normalized coefficients come out without any r bookkeeping.
    Given a radius ``r``, the rows are instead rho^{(k)}/rho and psi^{(k)}
    at that radius, and row j of the chain-rule matrix carries the
    operator's r^{j-4} times the normalization's r^4.  Works on floats,
    Fractions and UPoly alike.
    """
    c = chain_rule_matrix(rho_rel, psi_rel)
    if r is not None:
        c = [[r ** j * x for x in row] for j, row in enumerate(c)]
    return {**_weighted(c, radial_weights(n), "K"), **_weighted(c, angular_weights(n), "J")}


def _second_order(n: int, rho_rel: Sequence, psi_rel: Sequence) -> Dict[str, object]:
    """K20, K21, K22 of the Laplacian d_r^2 + (n-1)/r d_r, normalized by
    rho r^{-2}: the weights (0, n-1, 1) on the chain-rule rows up to 2."""
    c = chain_rule_matrix(rho_rel[:3], psi_rel[:2])
    return _weighted(c, (0, n - 1, 1), "K2")


def _psi_rel(sigma: int):
    """(psi' r, psi'' r^2, psi''' r^3, psi'''' r^4) for t = -sigma ln r."""
    return (-sigma, sigma, -2 * sigma, 6 * sigma)


def _power_rho_rel(gamma):
    """rho = r^{-gamma}: normalized derivative row (exact in gamma)."""
    rel = [1]
    acc = 1
    for k in range(4):
        acc = acc * (-gamma - k)
        rel.append(acc)
    return rel


def _log_rho_rel_polys(m0: int, theta: Fraction):
    """Normalized derivative row of rho = r^{m0} t^theta as UPoly in u = 1/t.

    Uses d/dr [r^m t^theta q(u)] = r^{m-1} t^theta (m q - theta u q + u^2 q')
    with t = -ln r, u = 1/t.
    """
    q, u, u2 = UPoly([1]), UPoly([0, 1]), UPoly([0, 0, 1])
    out = [q]
    for k in range(4):
        m = m0 - k
        q = m * q - theta * u * q + u2 * q.deriv()
        out.append(q)
    return out


def nonautonomous_oracle_polys(n: int) -> Dict[str, UPoly]:
    """Exact chain-rule derivation of the time-dependent coefficient block.

    Returns the true K~_j, J~_j as polynomials in u = 1/t for the scaling
    rho = r^{4-n} t^{(4-n)/4}, t = -ln r, normalized by rho r^{-4} (every
    zeroth-order u^0 radial entry cancels against the kernel exponent).
    Derived once per n and process: the dict is the caller's own and its
    UPoly values are immutable, so no caller can alter the cached result.
    """
    return dict(_nonautonomous_oracle_polys(n))


@functools.cache
def _nonautonomous_oracle_polys(n: int) -> Tuple[Tuple[str, UPoly], ...]:
    return tuple(_assemble(n, _log_rho_rel_polys(4 - n, Fraction(4 - n, 4)),
                           _psi_rel(+1)).items())


def derive_cyl_coeffs_numeric(n: int, r, s: Scalar,
                              sigma: int = BUILD_SIGMA) -> Dict[str, object]:
    """Replay the coordinate-change computation at a concrete radius.

    rho = r^{-gamma(s)}, t = -sigma ln r: the derivatives rho^{(k)}/rho and
    psi^{(k)} carry their powers r^{-k}, which the operator's weights and
    the rho r^{-4} normalization cancel again.  The result must be
    r-independent (that independence is itself a test: in floats the
    radii round differently).  Exact when r and s are rational.  The
    time-dependent scaling has its exact coefficients in
    ``nonautonomous_oracle_polys``.
    """
    if not (r > 0):
        raise DomainError(f"radius must be positive, got r={r}")
    g = gamma_exponent(as_exact(s))
    rho = [a / r ** k for k, a in enumerate(_power_rho_rel(g))]
    psi = [a / r ** k for k, a in enumerate(_psi_rel(sigma), start=1)]
    return _assemble(n, rho, psi, r)


# ---------------------------------------------------------------------------
# limits of t * K~_0 and the amplitude constant of the log-corrected regime
# ---------------------------------------------------------------------------

def hat_constant(n: int, variant: str = "theorem") -> Fraction:
    """K^_0(n) under a named resolution of the limit ambiguity.

    "theorem" is the closed form (n-4)(n-2)(n+4)/2 and "printed-limit" the
    1/t coefficient of the printed K~_0; neither derives anything.
    "chain-rule" reads the cached, immutable derivation.
    """
    if variant == "theorem":
        return Fraction((n - 4) * (n - 2) * (n + 4), 2)
    if variant == "printed-limit":
        return printed_nonautonomous_polys(n)["K0"].coeff(1)
    if variant == "chain-rule":
        return nonautonomous_oracle_polys(n)["K0"].coeff(1)
    raise DomainError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# second-order pathway (the chain-rule engine's rows 0..2 against the symbol)
# ---------------------------------------------------------------------------

def printed_second_order(n: int, s: Scalar) -> Dict[str, Scalar]:
    """Printed second-order constant coefficients (transcribed literally)."""
    s, m, one = _power_unit(s)
    if n < 3:
        raise DomainError("second-order case needs n >= 3")
    return {"K20": 2 * one / m**2 * (n * m - 2 * s),
            "K21": -one / m * (s * (n - 2) + n + 2)}


def second_order_symbol(n: int, s: Scalar, sigma: int = BUILD_SIGMA) -> Dict[str, Scalar]:
    """Oracle second-order coefficients from q(beta) = beta(beta+n-2)."""
    s, m, one = _power_unit(s)
    g2 = 2 * one / m
    # q(-g2 - sigma*lam) = lam^2 + sigma(2 g2 - (n-2)) lam + g2^2 - (n-2) g2
    return {"K20": g2 * g2 - (n - 2) * g2, "K21": sigma * (2 * g2 - (n - 2))}


def second_order_chain(n: int, s: Scalar, sigma: int = BUILD_SIGMA) -> Dict[str, Scalar]:
    """Second-order coefficients through the chain-rule engine (rows <= 2)."""
    s, m, one = _power_unit(s)
    return _second_order(n, _power_rho_rel(2 * one / m), _psi_rel(sigma))


def printed_second_order_nonautonomous_polys(n: int) -> Dict[str, UPoly]:
    F = Fraction
    return {"K20": UPoly([0, -F((n - 2) ** 2, 2), F(n * (n - 2), 4)]),
            "K21": UPoly([n - 2, -(n - 2)])}


def second_order_nonautonomous_oracle_polys(n: int) -> Dict[str, UPoly]:
    """Chain-rule derivation for rho = r^{2-n} t^{(2-n)/2}, t = -ln r."""
    return _second_order(n, _log_rho_rel_polys(2 - n, Fraction(2 - n, 2)), _psi_rel(+1))


def printed_second_order_critical(n: int) -> Dict[str, Fraction]:
    return {"K20": -Fraction((n - 2) ** 2, 4), "K21": Fraction(0)}


def printed_second_order_lower(n: int) -> Dict[str, Fraction]:
    return {"K20": Fraction(0), "K21": Fraction(n - 2)}


# ---------------------------------------------------------------------------
# sign report and the convention vote
# ---------------------------------------------------------------------------

def sign_report(params: Params, sigma: int = BUILD_SIGMA) -> Dict[str, object]:
    """Oracle-derived signs of K0..K3, J0 with window bookkeeping.

    K0 > 0 is asserted inside the window (lower, upper-1); K2 carries no
    sign assertion anywhere.
    """
    from .params import special_exponents
    coeffs = oracle_autonomous(params.n, params.s, sigma)
    in_window = special_exponents(params.n).in_window(params.s)
    signs = {k: (0 if v == 0 else (1 if v > 0 else -1)) for k, v in coeffs.items()}
    report = {"n": params.n, "s": params.s, "sigma": sigma, "in_window": in_window,
              "signs": signs, "values": coeffs}
    if in_window and not coeffs["K0"] > 0:
        raise AssertionError(f"K0 must be positive on the window, got {coeffs['K0']}")
    return report


def sigma_anchor_vote() -> Dict[str, object]:
    """Tally of the exactly checkable convention anchors.

    Returns the per-anchor votes and the fixed build choice.  The printed
    general K1/K3 formulas and the monotonicity signs (K1 > 0, K3 < 0 on
    the window) identify sigma = -1; the tabulated special values at the
    lower exponent (K3, J1 = +2(n-4)) identify sigma = +1; all remaining
    anchors are sigma-invariant.
    """
    votes = {}
    ns = [(5, Fraction(7)), (6, Fraction(4)), (8, Fraction(5, 2))]
    for sig in (1, -1):
        ok_formula = all(
            oracle_autonomous(n, s, sig)["K1"] == printed_autonomous(n, s)["K1"]
            and oracle_autonomous(n, s, sig)["K3"] == printed_autonomous(n, s)["K3"]
            for n, s in ns)
        ok_mono = all(oracle_autonomous(n, s, sig)["K1"] > 0
                      and oracle_autonomous(n, s, sig)["K3"] < 0 for n, s in ns)
        ok_lower = all(
            oracle_autonomous(n, Fraction(n, n - 4), sig)["K3"] == 2 * (n - 4)
            for n, _ in ns)
        votes[sig] = {"printed_K1_K3_formulas": ok_formula,
                      "monotonicity_signs": ok_mono,
                      "lower_special_values": ok_lower}
    return {"votes": votes, "chosen": BUILD_SIGMA}
