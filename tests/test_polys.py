"""The exact polynomial type against Fraction arithmetic on coefficient lists."""

import itertools
from fractions import Fraction as F

import pytest

from fowler4.polys import UPoly, padd, pdiff, pmul, pscale


def _trimmed(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c or [F(0)]


_SAMPLES = [[], [0], [3], [F(1, 2)], [1, F(-2, 3), 0], [F(5, 6), 0, F(-7, 4)],
            [0, 0, F(9, 10), F(1, 15)], [-4, 6, 0, 0]]


def test_arithmetic_equals_the_fraction_list_reference():
    for a, b in itertools.product(_SAMPLES, repeat=2):
        fa, fb = [F(x) for x in a] or [F(0)], [F(x) for x in b] or [F(0)]
        pa, pb = UPoly(a), UPoly(b)
        assert (pa + pb).coeffs == _trimmed(padd(fa, fb))
        assert (pa - pb).coeffs == _trimmed(padd(fa, pscale(fb, -1)))
        assert (pa * pb).coeffs == _trimmed(pmul(fa, fb))
        assert all(type(c) is F for c in (pa * pb).coeffs)
    for a in _SAMPLES:
        fa = [F(x) for x in a] or [F(0)]
        assert UPoly(a).deriv().coeffs == _trimmed(pdiff(fa))
        assert (-UPoly(a)).coeffs == _trimmed(pscale(fa, -1))
        assert (F(2, 3) * UPoly(a)).coeffs == _trimmed(pscale(fa, F(2, 3)))
        assert (1 - UPoly(a)).coeffs == _trimmed(padd([1], pscale(fa, -1)))


def test_a_constant_hashes_as_its_number():
    assert UPoly([3]) == 3 and hash(UPoly([3])) == hash(3)
    assert len({UPoly([3]), 3}) == 1
    assert len({UPoly([F(1, 2), 0]), F(1, 2)}) == 1
    assert len({UPoly([]), 0, UPoly([0, 0])}) == 1
    assert hash(UPoly([1, F(1, 2)])) == hash(UPoly([F(2, 2), F(3, 6), 0]))


def test_coeff_below_degree_zero_is_zero():
    p = UPoly([1, 2, 5])
    assert p.coeff(-1) == 0 and p.coeff(-3) == 0 and p.coeff(3) == 0
    assert [p.coeff(k) for k in range(3)] == [1, 2, 5]


def test_immutable():
    p = UPoly([1, 2])
    for name in UPoly.__slots__:
        with pytest.raises(AttributeError):
            setattr(p, name, (7,))
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert p == UPoly([1, 2])
