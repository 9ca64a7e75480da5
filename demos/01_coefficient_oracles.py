"""Three routes to the cylindrical coefficients, and where print diverges.

The reduced operator on the cylinder has constant coefficients K0..K3
(radial) and J0, J1 (angular).  We evaluate them three ways:

  * the printed closed forms, transcribed verbatim,
  * the separated-mode symbol (bi-Laplacian on r^beta Y_k, composed twice),
  * a numeric replay of the chain-rule coordinate change,

and print the verdict for each constant.  Run:  python demos/01_coefficient_oracles.py
"""

from fractions import Fraction

from fowler4 import (BUILD_SIGMA, build_ledger, derive_cyl_coeffs_numeric,
                     hat_constant, oracle_autonomous, printed_autonomous)

n, s = 5, Fraction(7)
print(f"== constant-coefficient block at n={n}, s={s} (sigma={BUILD_SIGMA}) ==")
printed = printed_autonomous(n, s)
oracle = oracle_autonomous(n, s)
numeric = derive_cyl_coeffs_numeric(n, Fraction(3, 10), s=s)
print(f"{'':4s}{'printed':>14s}{'symbol':>14s}{'chain rule':>14s}")
for key in ("K0", "K1", "K2", "K3", "J0", "J1"):
    mark = "" if printed[key] == oracle[key] else "   <- printed disagrees"
    print(f"{key:4s}{str(printed[key]):>14s}{str(oracle[key]):>14s}"
          f"{str(numeric[key]):>14s}{mark}")

print()
print("== the three candidate values of lim t*K~0(n,t) ==")
for nn in (5, 6, 8):
    print(f"n={nn}: printed block -> {hat_constant(nn, 'printed-limit')}, "
          f"theorem constant -> {hat_constant(nn, 'theorem')}, "
          f"chain rule -> {hat_constant(nn, 'chain-rule')}")

print()
print("== discrepancy ledger (mismatches only) ==")
for e in build_ledger():
    if e.verdict != "MATCH":
        print(f"  [{e.verdict:15s}] {e.symbol}")
