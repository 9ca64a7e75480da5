"""Right-hand sides of the reduced cylinder systems, equilibria, spectra.

States are component-major: for p components the vector is
(v_1, v_1', v_1'', v_1''', v_2, ...), length 4p.  The autonomous system
uses the oracle coefficient route with the build sign convention; the
time-dependent system uses the printed coefficient polynomials.  The
linearization at the constant level is biquadratic, so its spectrum has
a closed form and needs no eigensolver.

Arithmetic rule: both systems evaluate on lists of Python floats in a
straight-line kernel generated once per block count (``_rhs_kernel``).
Written out block by block, it does the same operations in the same order
as a loop over the blocks, so it gives the same bits without the loop's
slicing and per-block interpreter overhead, most of an evaluation's cost
at the few components the lab integrates.  Its lines come from one
builder (``rhs_lines``).  The autonomous factory attaches its constants
as ``recipe``, which defines its RHS: the integrator computes a run from
the recipe alone, writing the same lines into its step kernel, so a
stage costs no call at all.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Callable, Tuple

import numpy as np

from .coefficients import BUILD_SIGMA, oracle_autonomous, printed_nonautonomous_polys
from .levels import constant_level
from .params import DomainError, Params, gamma_exponent, special_exponents
from .polys import peval


def ray_state(scalars, lam: np.ndarray) -> np.ndarray:
    """Embed a scalar state (v, v', v'', v''') along a direction lam."""
    return np.outer(np.asarray(lam, dtype=float), np.asarray(scalars, dtype=float)).ravel()


def rhs_lines(blocks: int, ins, outs, negate: bool = False) -> list:
    """Source lines, one indent deep, that assign to the names outs the
    derivative of each 4-block (v, v', v'', v''') of a state of the given
    block count held in the names ins, with v'''' = scale |V|^exponent v -
    K3 v''' - K2 v'' - K1 v' - K0 v, each value negated where negate (a run
    on the reflected clock).  The lines read exponent, scale, K0..K3, sqrt
    and inf, and write vsq, vnorm and coup.  |V| is the Euclidean norm over
    the v entries of all blocks, its square summed left to right from the
    first term (0.0 + v*v is v*v), one statement per block; at V = 0 the
    coupling term is continued by 0.  scale is positive; where |V|^exponent
    leaves float range the coupling is inf, so the result is non-finite (no
    error).  The one home of the cylinder RHS arithmetic: ``_rhs_kernel``
    and the integrator's cylinder step kernel are written from it.
    """
    lines = [f"    vsq {'+=' if b else '='} {ins[4 * b]} * {ins[4 * b]}"
             for b in range(blocks)] or ["    vsq = 0.0"]
    lines += ["    vnorm = sqrt(vsq)",
              "    try:",
              "        coup = vnorm ** exponent * scale if vnorm > 0 else 0.0",
              "    except OverflowError:   # float ** raises where the power leaves float range",
              "        coup = inf"]
    for b in range(blocks):
        v, a, c, d = ins[4 * b:4 * b + 4]
        values = (a, c, d, f"coup * {v} - K3 * {d} - K2 * {c} - K1 * {a} - K0 * {v}")
        lines += [f"    {o} = -({x})" if negate else f"    {o} = {x}"
                  for o, x in zip(outs[4 * b:4 * b + 4], values)]
    return lines


@functools.lru_cache(maxsize=32)
def _rhs_kernel(blocks: int):
    """``kernel(ys, exponent, scale, K0, K1, K2, K3)``: the derivative of a
    state ys of length 4 * blocks (``rhs_lines``); ys and the result are
    lists of Python floats, and ys of another length raises ValueError.
    Straight-line Python, generated from blocks alone.
    """
    ins = [f"{x}{b}" for b in range(blocks) for x in "vacd"]
    outs = [f"r{m}" for m in range(4 * blocks)]
    src = "\n".join([
        "def kernel(ys, exponent, scale, K0, K1, K2, K3):",
        f"    [{''.join(f'{x}, ' for x in ins)}] = ys",
        *rhs_lines(blocks, ins, outs),
        f"    return [{', '.join(outs)}]",
        ""])
    namespace = {"sqrt": math.sqrt, "inf": math.inf}
    exec(compile(src, f"<cylinder rhs kernel, {blocks} blocks>", "exec"), namespace)
    return namespace["kernel"]


def _component_rhs(ys, exponent: float, scale: float, K0, K1, K2, K3) -> list:
    """The kernel of the block count of ys applied to ys (``_rhs_kernel``)."""
    return _rhs_kernel(len(ys) // 4)(ys, exponent, scale, K0, K1, K2, K3)


def make_autonomous_rhs(params: Params, sigma: int = BUILD_SIGMA) -> Callable:
    """v_i'''' = |V|^{s-1} v_i - K3 v_i''' - K2 v_i'' - K1 v_i' - K0 v_i.

    |V| is the Euclidean norm over the component values.  At V = 0 the
    product |V|^{s-1} v_i is continued by 0 (s > 1).  Any real state is
    read as float64, and a non-finite one raises DomainError; the result
    is a list of Python floats, non-finite where |V|^{s-1} overflows.  The
    function's attribute ``recipe`` holds the constants (exponent, scale,
    K0, K1, K2, K3) of ``rhs_lines`` that define it, for a state of any
    block count (p does not bound it): ``_component_rhs(xs, *recipe)`` is
    the same computation on a list of Python floats, and ``integrate``
    computes a run from the recipe alone, never calling the function.
    """
    c = oracle_autonomous(params.n, params.s, sigma)
    recipe = (float(params.s) - 1.0, 1.0,
              float(c["K0"]), float(c["K1"]), float(c["K2"]), float(c["K3"]))

    def rhs(t, y):
        ys = np.asarray(y, dtype=float).tolist()
        if not all(map(math.isfinite, ys)):
            raise DomainError("non-finite state")
        return _component_rhs(ys, *recipe)

    rhs.recipe = recipe
    return rhs


def make_nonautonomous_rhs(n: int) -> Callable:
    """w_i'''' = t^{-1} |W|^{q-1} w_i - K~3 w''' - K~2 w'' - K~1 w' - K~0 w,

    with q the lower exponent n/(n-4); defined for t > 0 only.  Any real
    state is read as float64, and the result is a list of Python floats.
    """
    qm1 = float(special_exponents(n).lower) - 1.0
    polys = printed_nonautonomous_polys(n)
    fk = {k: [float(c) for c in polys[k].coeffs] for k in ("K0", "K1", "K2", "K3")}

    def rhs(t, y):
        if t <= 0:
            raise DomainError(f"time-dependent system requires t > 0, got t={t}")
        u = 1.0 / float(t)
        return _component_rhs(np.asarray(y, dtype=float).tolist(), qm1, u,
                              peval(fk["K0"], u), peval(fk["K1"], u),
                              peval(fk["K2"], u), peval(fk["K3"], u))

    return rhs


def equilibrium_state(params: Params) -> np.ndarray:
    """The constant level (``levels.constant_level``) along the diagonal
    direction (1, ..., 1)/sqrt(p)."""
    v = constant_level(params.n, params.s)
    if v is None:
        raise DomainError("only the zero equilibrium exists (K0 <= 0)")
    return ray_state((v, 0.0, 0.0, 0.0), np.ones(params.p) / np.sqrt(params.p))


def linearized_spectrum(params: Params, sigma: int = BUILD_SIGMA) -> Tuple[complex, ...]:
    """Roots of P(lambda) - s K0, the linearization at the constant level,
    sorted by real part and then by imaginary part.

    The radial symbol beta (beta - 2) (beta + n - 2) (beta + n - 4) is even
    about beta = -(n-4)/2, so with c = gamma - (n-4)/2, P(-sigma c + mu) is
    (mu^2 - (n-4)^2/4) (mu^2 - n^2/4) exactly, and the roots are
    lambda = -sigma c +- sqrt(h +- r), h = (n^2 - 4n + 8)/4,
    r = sqrt((n-2)^2 + s K0).  For exact s, c, h and (n-2)^2 + s K0 are
    exact: floats enter only at the square roots.
    """
    K0 = oracle_autonomous(params.n, params.s, sigma)["K0"]
    if not K0 > 0:
        raise DomainError("nontrivial equilibrium requires K0 > 0")
    n = params.n
    c = float(2 * gamma_exponent(params.s) - n + 4) / 2
    h = (n * n - 4 * n + 8) / 4
    r = math.sqrt((n - 2) ** 2 + params.s * K0)
    roots = [-sigma * c + w for x in (h + r, h - r) for w in (cmath.sqrt(x), -cmath.sqrt(x))]
    return tuple(sorted(roots, key=lambda z: (z.real, z.imag)))
