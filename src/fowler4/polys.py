"""Small dense-polynomial helpers over exact or floating scalars.

Polynomials are lists of coefficients in increasing degree, e.g.
``[c0, c1, c2]`` is c0 + c1 x + c2 x^2.  The list helpers work
transparently for Fraction, int and float coefficients and make no
trailing-zero guarantees; :class:`UPoly` is the canonical exact form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence

Poly = List


def padd(a: Sequence, b: Sequence) -> Poly:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def psum(terms):
    """sum() left to right (the built-in compensates floats from 3.12 on)."""
    acc = 0
    for x in terms:
        acc = acc + x
    return acc


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


class UPoly:
    """Exact univariate polynomial with operator overloading.

    Lets scalar-oriented code (the chain-rule assembly) run unchanged on
    polynomial-valued quantities.  Stored as integer numerators over one
    positive common denominator, reduced and without trailing zeros, so
    +, - and x are integer arithmetic and equal polynomials have equal
    fields.  Immutable: a cached UPoly can be handed to any caller.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs):
        if isinstance(coeffs, UPoly):
            num, den = coeffs._num, coeffs._den
        else:
            fr = [Fraction(x) for x in
                  ([coeffs] if isinstance(coeffs, (int, Fraction)) else coeffs)]
            den = math.lcm(*(f.denominator for f in fr))
            num = [f.numerator * (den // f.denominator) for f in fr]
        self._set(num, den)

    def _set(self, num, den):
        num = list(num)
        while num and num[-1] == 0:
            num.pop()
        g = math.gcd(den, *num)
        object.__setattr__(self, "_num", tuple(x // g for x in num))
        object.__setattr__(self, "_den", den // g)

    @classmethod
    def _of(cls, num, den) -> "UPoly":
        out = object.__new__(cls)
        out._set(num, den)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("UPoly is immutable")

    def __delattr__(self, name):
        raise AttributeError("UPoly is immutable")

    @staticmethod
    def _coerce(other):
        if isinstance(other, UPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return UPoly._of((other.numerator,), other.denominator)
        return None

    def _common(self, other):
        """Both numerator rows over their least common denominator."""
        den = math.lcm(self._den, other._den)
        fa, fb = den // self._den, den // other._den
        return [x * fa for x in self._num], [x * fb for x in other._num], den

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, den = self._common(other)
        return UPoly._of(padd(a, b), den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, den = self._common(other)
        return UPoly._of(padd(a, pscale(b, -1)), den)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return UPoly._of(pscale(self._num, -1), self._den)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return UPoly._of(pmul(self._num, other._num), self._den * other._den)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        # a constant hashes as the number it equals
        if len(self._num) <= 1:
            return hash(self.coeff(0))
        return hash((self._num, self._den))

    def deriv(self) -> "UPoly":
        return UPoly._of(pdiff(self._num), self._den)

    def __call__(self, x):
        return peval(self.coeffs, x)

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self._num):
            return Fraction(self._num[k], self._den)
        return Fraction(0)

    @property
    def coeffs(self) -> Poly:
        return [Fraction(x, self._den) for x in self._num] or [Fraction(0)]

    def __repr__(self):
        return f"UPoly({self.coeffs})"
