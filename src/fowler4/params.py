"""Problem configuration and the special Sobolev-type exponents.

Everything downstream is parametrized by the dimension ``n >= 5``, the
nonlinearity power ``s > 1`` and the number of coupled components
``p >= 1``.  Exponents are kept as :class:`fractions.Fraction` whenever
the inputs are rational so that the coefficient oracles can work in
exact arithmetic.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

Scalar = Union[int, float, Fraction]


def as_exact(x: Scalar) -> Scalar:
    """Return an exact representation of ``x`` when possible.

    ints and Fractions pass through; strings like ``"7/3"`` are parsed
    exactly; floats are returned unchanged (the caller opted out of
    exactness).
    """
    if isinstance(x, (int, Fraction)):
        return x
    if isinstance(x, str):
        return Fraction(x)
    return x


def is_exact(x: Scalar) -> bool:
    return isinstance(x, (int, Fraction))


class DomainError(ValueError):
    """Raised when an operation is evaluated outside its admissible domain."""


@dataclass(frozen=True)
class Params:
    """Configuration triple (n, s, p).

    n: integer dimension, n >= 5
    s: nonlinearity power, s > 1 (Fraction for exact work, float accepted)
    p: number of components, p >= 1
    """

    n: int
    s: Scalar
    p: int = 1

    def __post_init__(self):
        object.__setattr__(self, "s", as_exact(self.s))
        special_exponents(self.n)
        if not self.s > 1:
            raise DomainError(f"power s={self.s} must exceed 1")
        if self.p < 1:
            raise DomainError(f"component count p={self.p} must be positive")


@dataclass(frozen=True)
class SpecialExponents:
    """The upper/lower Sobolev-type exponents of dimension n.

    upper = 2n/(n-4), lower = n/(n-4); gamma(s) = 4/(s-1) satisfies
    gamma(lower) = n-4 and gamma(upper - 1) = (n-4)/2.

    The one test of an admissible dimension, an integer n >= 5 (a numpy
    integer too): any other n, a float or NaN included, raises DomainError.
    """

    n: int
    upper: Fraction = field(init=False)
    lower: Fraction = field(init=False)

    def __post_init__(self):
        if not (isinstance(self.n, numbers.Integral) and self.n >= 5):
            raise DomainError(f"dimension must be an integer n >= 5, got {self.n!r}")
        object.__setattr__(self, "upper", Fraction(2 * self.n, self.n - 4))
        object.__setattr__(self, "lower", Fraction(self.n, self.n - 4))

    @property
    def critical_power(self) -> Fraction:
        """The power s at which the equation is critical: upper - 1."""
        return self.upper - 1


def special_exponents(n: int) -> SpecialExponents:
    return SpecialExponents(n)


def gamma_exponent(s: Scalar):
    """Scaling exponent gamma(s) = 4/(s-1) of the power-law solutions."""
    s = as_exact(s)
    if s == 1:
        raise DomainError("gamma(s) undefined at s = 1")
    if is_exact(s):
        return Fraction(4, 1) / (s - 1)
    return 4.0 / (s - 1.0)


def unit_sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in R^n: 2 pi^{n/2} / Gamma(n/2)."""
    if n < 1:
        raise DomainError("n must be positive")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
