"""Exact solutions and their biharmonic residuals.

Every closed form the lab ships is verified by plugging it back into the
radial fourth-order operator: bubbles recover their normalizing constant
c(n) = n(n-4)(n^2-4)/16 as a measured residual ratio, singular power
laws solve the coupled system exactly along any nonnegative direction,
and the Kelvin transform passes its involution identities.

Run:  python demos/02_closed_form_solutions.py
"""

import math

import numpy as np

from fowler4 import Bubble, SingularPower, bubble_constant, inversion_map
from fowler4.bubble import bubble_constant_closed_form

print("== bubble normalizing constant, measured from the residual ratio ==")
for n in range(5, 11):
    c = bubble_constant(n)
    closed = bubble_constant_closed_form(n)
    print(f"n={n}: measured c = {c:.12f}, n(n-4)(n^2-4)/16 = {closed:.12f}, "
          f"rel diff = {abs(c - closed) / closed:.1e}")

print()
print("== singular power-law solution of the coupled system (n=6, s=4, p=2) ==")
sp = SingularPower(6, 4.0, lam=[3.0, 4.0])
print(f"direction: {sp.lam}, amplitude K0^(1/(s-1)) = {sp.amplitude:.12f}")
for r in (0.1, 1.0, 10.0):
    print(f"  r={r:6g}: relative residual = {sp.system_residual(r):.2e}")

print()
print("== degenerate corner: (n, s) = (6, 2) sits on a kernel exponent ==")
try:
    SingularPower(6, 2.0)
except Exception as exc:
    print(f"  refused as expected: {exc}")

print()
print("== Kelvin inversion identities at random points ==")
rng = np.random.default_rng(0)
worst_inv, worst_prod = 0.0, 0.0
for _ in range(100):
    x0, x = rng.normal(size=5), rng.normal(size=5) * 2.0
    mu = float(rng.uniform(0.5, 2.0))
    I1 = inversion_map(x0, mu, x)
    worst_inv = max(worst_inv, float(np.max(np.abs(inversion_map(x0, mu, I1) - x))))
    worst_prod = max(worst_prod, abs(math.dist(I1, x0) * math.dist(x, x0) - mu * mu))
print(f"  involution defect <= {worst_inv:.2e}, radius product defect <= {worst_prod:.2e}")

print()
print("== far-field decay of a bubble (n=5): u ~ r^-(n-4) ==")
b = Bubble(5)
for r in (1e2, 1e3, 1e4):
    print(f"  r={r:8g}: u(r) * r = {b.radial(r) * r:.9f}  "
          f"(limit (2/mu)^((n-4)/2) = {2.0 ** 0.5:.9f})")
