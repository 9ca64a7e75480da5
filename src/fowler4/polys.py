"""Small dense-polynomial helpers over exact or floating scalars.

Polynomials are lists of coefficients in increasing degree, e.g.
``[c0, c1, c2]`` is c0 + c1 x + c2 x^2.  Works transparently for
Fraction, int and float coefficients; no trailing-zero guarantees are
made by the arithmetic, use :func:`trim` when canonical length matters.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

Poly = List


def trim(p: Sequence) -> Poly:
    out = list(p)
    while out and out[-1] == 0:
        out.pop()
    return out or [0 * _one_like(p)]


def _one_like(p: Sequence):
    for c in p:
        return c - c + 1 if not isinstance(c, (int, float, Fraction)) else 1
    return 1


def padd(a: Sequence, b: Sequence) -> Poly:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def pscale(a: Sequence, c) -> Poly:
    return [c * ai for ai in a]


def pmul(a: Sequence, b: Sequence) -> Poly:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def pdiff(a: Sequence) -> Poly:
    if len(a) <= 1:
        return [0]
    return [i * a[i] for i in range(1, len(a))]


def peval(a: Sequence, x):
    acc = 0
    for c in reversed(list(a)):
        acc = acc * x + c
    return acc


def compose_linear(a: Sequence, alpha, beta) -> Poly:
    """Coefficients of p(alpha + beta * x) given coefficients of p."""
    out = [0]
    lin = [alpha, beta]
    power = [1]
    for c in a:
        out = padd(out, pscale(power, c))
        power = pmul(power, lin)
    # pad to original length for stable indexing
    while len(out) < len(a):
        out.append(0)
    return out


def pequal(a: Sequence, b: Sequence) -> bool:
    return trim(list(a)) == trim(list(b))


class UPoly:
    """Exact univariate polynomial with operator overloading.

    Lets scalar-oriented code (the chain-rule assembly) run unchanged on
    polynomial-valued quantities; coefficients are Fractions.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs):
        if isinstance(coeffs, UPoly):
            self.c = list(coeffs.c)
        elif isinstance(coeffs, (int, Fraction)):
            self.c = [Fraction(coeffs)]
        else:
            self.c = [Fraction(x) for x in coeffs]

    def __add__(self, other):
        other = other if isinstance(other, UPoly) else UPoly(other)
        return UPoly(padd(self.c, other.c))

    __radd__ = __add__

    def __sub__(self, other):
        other = other if isinstance(other, UPoly) else UPoly(other)
        return UPoly(padd(self.c, pscale(other.c, -1)))

    def __rsub__(self, other):
        return (self.__sub__(other)).__neg__()

    def __neg__(self):
        return UPoly(pscale(self.c, -1))

    def __mul__(self, other):
        other = other if isinstance(other, UPoly) else UPoly(other)
        return UPoly(pmul(self.c, other.c))

    __rmul__ = __mul__

    def __eq__(self, other):
        other = other if isinstance(other, UPoly) else UPoly(other)
        return pequal(self.c, other.c)

    def __hash__(self):
        return hash(tuple(trim(self.c)))

    def deriv(self) -> "UPoly":
        return UPoly(pdiff(self.c))

    def __call__(self, x):
        return peval(self.c, x)

    def coeff(self, k: int) -> Fraction:
        return Fraction(self.c[k]) if k < len(self.c) else Fraction(0)

    @property
    def coeffs(self) -> Poly:
        return trim(self.c)

    def __repr__(self):
        return f"UPoly({trim(self.c)})"
