"""Discrepancy ledger: every printed constant against its derivation.

Each entry records one printed quantity, the value the oracles derive,
and a verdict.  One rule (``entry_formula``) judges every comparison of
printed with derived values over its set of points: MATCH where they are
equal at every point, in exact arithmetic; SIGN_CONVENTION, admissible
only for the odd-order coefficients whose sign flips with the direction
of the logarithmic time variable, where the printed value equals the
opposite-convention derivation at every point; otherwise MISMATCH.  The
float items (the p-block, the limiting level) agree within a tolerance
or MISMATCH.  Every MISMATCH must appear in the documented registry --
`verify` fails on any undocumented MISMATCH and on any silently matching
entry that the registry expects to disagree.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

from . import levels
from .bubble import bubble_constant, bubble_constant_closed_form
from .coefficients import (BUILD_SIGMA, hat_constant, nonautonomous_oracle_polys,
                           oracle_autonomous, printed_appendix_J40,
                           printed_autonomous, printed_critical_values,
                           printed_lower_values, printed_nonautonomous_polys,
                           printed_second_order, printed_second_order_critical,
                           printed_second_order_lower,
                           printed_second_order_nonautonomous_polys,
                           second_order_nonautonomous_oracle_polys,
                           second_order_symbol)
from .params import Params
from .polys import UPoly

MATCH = "MATCH"
SIGN_CONVENTION = "SIGN_CONVENTION"
MISMATCH = "MISMATCH"

_SIGN_FAMILY_PREFIXES = ("K1", "K3", "J1", "K21")


def format_number(x) -> str:
    """Rationals as p/q; floats with 17 significant digits."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def format_tpoly(obj) -> str:
    """Polynomial in 1/t (UPoly) as text; any other value as ``format_number``."""
    if isinstance(obj, UPoly):
        terms = []
        for k, c in enumerate(obj.coeffs):
            if c == 0:
                continue
            terms.append(format_number(c) + ("" if k == 0 else f"/t^{k}" if k > 1 else "/t"))
        return " + ".join(terms) if terms else "0"
    return format_number(obj)


@dataclass(frozen=True)
class LedgerEntry:
    symbol: str
    location: str
    printed: str
    oracle: str
    verdict: str
    note: str = ""

    def __post_init__(self):
        if self.verdict == SIGN_CONVENTION and not any(
                self.symbol.startswith(p) for p in _SIGN_FAMILY_PREFIXES):
            raise ValueError(
                f"SIGN_CONVENTION is only admissible for odd-order "
                f"coefficients, not {self.symbol}")


# The documented registry: every MISMATCH the derivation proves, keyed by
# the entry symbol.  `verify` exits cleanly iff the computed MISMATCH set
# equals exactly this set.
DOCUMENTED_MISMATCHES: Dict[str, str] = {
    "J1(n,s) printed formula": "bracket reads (n-4)(s-1)+16; derivation forces "
                               "(n-4)(s-1)-8, i.e. J1 == K3 identically (the tabulated "
                               "special values J1*=0 and J1_low=2(n-4) obey the derivation)",
    "J40(n,s) appendix formula": "appendix variant of J0 disagrees with the main formula "
                                 "and the derivation (n=5, s=9: 385/2 vs -5/2)",
    "K1 at lower exponent (table)": "tabulated 2(n-4)(n+2) vs derived magnitude "
                                    "2(n-2)(n-4) (n=5: 14 vs 6)",
    "K~0(n,t) printed 1/t term": "printed (n-4)(n-2)(n+4) vs derived (n-2)(n-4)^2/2",
    "K~1(n,t) printed odd terms": "1/t and 1/t^3 terms enter with opposite sign and the "
                                  "1/t^2 term lacks a factor (n-4) relative to the derivation",
    "K~3(n,t) printed 1/t term": "printed +(n-4)/t vs derived -(n-4)/t (derived K~3 "
                                 "equals J~1, as in the constant-coefficient case)",
    "lim t*K~0 vs theorem constant": "printed-block limit (n-4)(n-2)(n+4) is twice the "
                                     "theorem constant; the chain-rule limit is "
                                     "(n-2)(n-4)^2/2, a third value",
    "K20(n,s) printed formula": "global sign flip: printed formula gives +(n-2)^2/4 at "
                                "the second-order critical power where its own special "
                                "value table says -(n-2)^2/4",
    "K21(n,s) printed formula": "bracket reads s(n-2)+(n+2); derivation forces "
                                "s(n-2)-(n+2) (vanishing at the second-order critical power)",
    "p0(n,t) printed vs definitional": "1/t^3 term enters with opposite sign",
    "p1(n,t) printed vs definitional": "1/t term lacks (n-4) and the constant differs "
                                       "(35n-50 vs (n-5)(n^2-10n+20)/2)",
    "p2(n,t) printed vs definitional": "structurally different: printed has 1/t and a "
                                       "constant, the definition gives a term linear in t",
    "p3(n,t) printed vs definitional": "1/t^2 term enters with opposite sign",
    "l*(n) lower-critical level": "printed closed form disagrees with the derived slice "
                                  "level by orders of magnitude at every n",
    "l*(n) level sign": "stated limit set {-l*, 0} vs '=l*' in the same statement; the "
                        "displayed derivation flips the sign of the quadratic term "
                        "(actual constant-state limit is negative)",
    "W = rho U display": "the displayed transform multiplies U by rho instead of "
                         "dividing; the appendix scaling (U = rho W) is authoritative",
    "G1 image-point argument": "displayed second kernel argument x/|x| - x|y| is parallel "
                               "to x and breaks symmetry/boundary vanishing; standard "
                               "image form |x| |y - x/|x|^2| restores both",
    "radial weight labels N41/N43": "appendix list attaches 2(n-1) to d_r^1 and "
                                    "-(n-1)(n-3) to d_r^3; the operator display (and the "
                                    "r^beta validation) forces the swap",
    "chain-rule row c42 display": "printed row drops the squares on psi'' and psi'; the "
                                  "fourth-derivative decomposition two lines above has "
                                  "the correct row",
}


def entry_formula(symbol: str, location: str, points, printed, oracle, flipped=None,
                  note: str = "", witness=None,
                  convention: str = "matches the opposite sign convention "
                                    "(odd coefficient)") -> LedgerEntry:
    """The ledger's one verdict rule, over a list of points (``fowler4
    coeffs`` applies it at one point).

    printed, oracle and flipped (the oracle under the opposite sign
    convention, optional) map a point to a value.  MATCH where printed
    equals oracle at every point; SIGN_CONVENTION where printed equals
    flipped at every point, with ``convention`` joined to the note;
    otherwise MISMATCH.  flipped may be given for any coefficient: an even
    coefficient's flipped oracle equals its oracle, so where printed equals
    it the verdict is already MATCH, and SIGN_CONVENTION is reached for an
    odd coefficient only.  The values shown are those at ``witness``,
    the first point unless given.
    """
    if all(printed(x) == oracle(x) for x in points):
        verdict = MATCH
    elif flipped is not None and all(printed(x) == flipped(x) for x in points):
        verdict = SIGN_CONVENTION
        note = (note + "; " if note else "") + convention
    else:
        verdict = MISMATCH
    shown = points[0] if witness is None else witness
    return LedgerEntry(symbol=symbol, location=location, printed=format_tpoly(printed(shown)),
                       oracle=format_tpoly(oracle(shown)), verdict=verdict, note=note)


@functools.cache
def build_ledger() -> Tuple[LedgerEntry, ...]:
    """Assemble the full ledger over the dimensions n = 5..12, once per process.

    Every comparison of printed with derived values is judged by
    ``entry_formula`` at every n = 5..12 (formulas in s on a rational s
    grid per n) and shown at a witness point, n = 5 unless its note says
    otherwise.
    """
    ns = list(range(5, 13))
    sigma = BUILD_SIGMA
    entries: List[LedgerEntry] = []
    crit = lambda n: Fraction(n + 4, n - 4)
    lower = lambda n: Fraction(n, n - 4)

    # --- constant-coefficient formulas over the grid -----------------------
    grid = [(n, s) for n in ns for s in (Fraction(3, 2), Fraction(2), Fraction(3),
                                         Fraction(5), lower(n), crit(n))]
    for name in ("K0", "K1", "K2", "K3", "J0", "J1"):
        entries.append(entry_formula(
            f"{name}(n,s) printed formula", "main text: constant-coefficient block", grid,
            lambda x: printed_autonomous(*x)[name],
            lambda x: oracle_autonomous(*x, sigma)[name],
            lambda x: oracle_autonomous(*x, -sigma)[name], witness=(5, Fraction(7)),
            note=f"checked exactly on n in {ns}, rational s grid; witness (n=5, s=7)"))
    entries.append(entry_formula(
        "J40(n,s) appendix formula", "appendix: fourth-order table", [(5, Fraction(9))],
        lambda x: printed_appendix_J40(*x), lambda x: oracle_autonomous(*x, sigma)["J0"],
        note="appendix variant of J0 at the witness (n=5, s=9)"))

    # --- tabulated special values ------------------------------------------
    for name in ("K0", "K2", "J0"):
        entries.append(entry_formula(
            f"{name} at critical power (table)", "remark: sign table", ns,
            lambda n: printed_critical_values(n)[name],
            lambda n: oracle_autonomous(n, crit(n), sigma)[name],
            note=f"all n in {ns}; witness n=5"))
    zero_ok = all(oracle_autonomous(n, crit(n), sigma)[name] == 0
                  for n in ns for name in ("K1", "K3", "J1"))
    entries.append(LedgerEntry(
        symbol="K1,K3,J1 vanish at critical power", location="remark: sign table",
        printed="0", oracle="0" if zero_ok else "nonzero",
        verdict=MATCH if zero_ok else MISMATCH, note=f"exact zeros, n in {ns}"))
    lower_notes = dict.fromkeys(("K0", "K2", "J0"), f"all n in {ns}; witness n=5")
    lower_notes.update(K1="derived magnitude is 2(n-2)(n-4) under either convention",
                       K3="witness n=5", J1="witness n=5")
    for name, note in lower_notes.items():
        entries.append(entry_formula(
            f"{name} at lower exponent (table)", "remark: sign table", ns,
            lambda n: printed_lower_values(n)[name],
            lambda n: oracle_autonomous(n, lower(n), sigma)[name],
            lambda n: oracle_autonomous(n, lower(n), -sigma)[name], note=note))

    # --- time-dependent block (exact polynomials in 1/t) --------------------
    na_symbol = {"K0": "K~0(n,t) printed 1/t term",
                 "K1": "K~1(n,t) printed odd terms",
                 "K2": "K~2(n,t) printed formula",
                 "K3": "K~3(n,t) printed 1/t term",
                 "J0": "J~0(n,t) printed formula",
                 "J1": "J~1(n,t) printed formula"}
    printed_na = {n: printed_nonautonomous_polys(n) for n in ns}   # one table per n
    for name, symbol in na_symbol.items():
        entries.append(entry_formula(
            symbol, "main text: time-dependent coefficient block", ns,
            lambda n: printed_na[n][name],
            lambda n: nonautonomous_oracle_polys(n)[name],
            note=f"compared as exact polynomials in 1/t for n in {ns}; shown n=5"))
    entries.append(entry_formula(
        "lim t*K~0 vs theorem constant", "asymptotic theorem, part (b)", [5],
        lambda n: hat_constant(n, "printed-limit"), hat_constant,
        note=f"chain-rule value {format_number(hat_constant(5, 'chain-rule'))}; factor-2 "
             f"ambiguity plus an independent derivation discrepancy (witness n=5)"))

    # --- second-order pathway ------------------------------------------------
    at3 = [(n, Fraction(3)) for n in ns]
    printed20 = lambda x: printed_second_order(*x)["K20"]
    derived20 = lambda x: second_order_symbol(*x, sigma)["K20"]
    negated = all(printed20(x) == -derived20(x) for x in at3)
    entries.append(entry_formula(
        "K20(n,s) printed formula", "appendix: second-order table", at3, printed20, derived20,
        note="printed equals the negative of the derivation at every checked point"
        if negated else "witness (n=5, s=3)"))
    entries.append(entry_formula(
        "K21(n,s) printed formula", "appendix: second-order table", at3,
        lambda x: printed_second_order(*x)["K21"],
        lambda x: second_order_symbol(*x, sigma)["K21"],
        lambda x: second_order_symbol(*x, -sigma)["K21"], note="witness (n=5, s=3)"))
    crit2 = lambda n: Fraction(n + 2, n - 2)
    low2 = lambda n: Fraction(n, n - 2)
    ok = all(printed_second_order_critical(n)[k] ==
             second_order_symbol(n, crit2(n), sigma)[k]
             for n in ns for k in ("K20", "K21"))
    entries.append(LedgerEntry(
        symbol="K20,K21 at second-order critical power (table)",
        location="appendix: second-order table",
        printed="K20=-(n-2)^2/4, K21=0", oracle="same" if ok else "different",
        verdict=MATCH if ok else MISMATCH, note="exact, derived route"))
    entries.append(entry_formula(
        "K21 at second-order lower exponent (table)", "appendix: second-order table", ns,
        lambda n: printed_second_order_lower(n)["K21"],
        lambda n: second_order_symbol(n, low2(n), sigma)["K21"],
        lambda n: second_order_symbol(n, low2(n), -sigma)["K21"],
        convention="tabulated n-2 matches the t=-ln r convention"))
    # the derived block also carries the leading K~22 = 1, which is not displayed
    ok_na2 = all(printed_second_order_nonautonomous_polys(n).items() <=
                 second_order_nonautonomous_oracle_polys(n).items() for n in ns)
    entries.append(LedgerEntry(
        symbol="K~20,K~21 second-order time-dependent block",
        location="appendix: second-order case",
        printed="as displayed", oracle="identical polynomials" if ok_na2 else "different",
        verdict=MATCH if ok_na2 else MISMATCH,
        note="exact polynomial identity; validates the chain-rule engine"))

    # --- slice-energy machinery ---------------------------------------------
    p_block = levels.aviles_p_coeffs(5, 100.0)
    for j in range(4):
        key = f"p{j}(n,t) printed vs definitional"
        pv, dv = p_block["printed"][f"p{j}"], p_block["definitional"][f"p{j}"]
        entries.append(LedgerEntry(
            symbol=key, location="monotonicity proposition: p-coefficient block",
            printed=format_number(pv), oracle=format_number(dv),
            verdict=MATCH if abs(pv - dv) <= 1e-12 * max(1.0, abs(dv)) else MISMATCH,
            note="values at the witness point (n=5, t=100); exact forms differ "
                 "as recorded in the registry"))
    L = levels.limiting_levels(Params(5, Fraction(7)))
    entries.append(LedgerEntry(
        symbol="l*(n) lower-critical level", location="limiting-level lemma",
        printed=format_number(L.l_star_aviles_printed),
        oracle=format_number(L.l_star_aviles_derived["theorem"]),
        verdict=L.aviles_verdict,
        note=f"derived (printed-limit variant): "
             f"{format_number(L.l_star_aviles_derived['printed-limit'])}; witness n=5"))
    entries.append(LedgerEntry(
        symbol="l*(n) level sign", location="limiting-level lemma",
        printed="limit in {-l*, 0} and '= l*' in the same statement",
        oracle=f"constant-state limit {format_number(L.l_star_aviles_constant_state['theorem'])} < 0",
        verdict=MISMATCH,
        note="the displayed level expression is nonnegative; all three values recorded"))

    # --- measured / display items -------------------------------------------
    entries.append(LedgerEntry(
        symbol="bubble constant c(n)", location="derived: residual ratio",
        printed="not stated in the source",
        oracle=format_number(bubble_constant(5)),
        verdict=MATCH,
        note=f"DERIVED; agrees with n(n-4)(n^2-4)/16 = "
             f"{format_number(bubble_constant_closed_form(5))} (witness n=5)"))
    entries.append(LedgerEntry(
        symbol="a0 exponent reading", location="critical-case theorem",
        printed="[n(n-4)/(n^2-4)]^{n-4/8}", oracle="[n(n-4)/(n^2-4)]^{(n-4)/8}",
        verdict=MATCH,
        note="typographical reading fixed by the identity a0 = (K0*/c)^{(n-4)/8}"))
    entries.append(LedgerEntry(
        symbol="W = rho U display", location="log-corrected transform display",
        printed="W = r^{4-n}(-ln r)^{(4-n)/4} U", oracle="U = r^{4-n}(-ln r)^{(4-n)/4} W",
        verdict=MISMATCH, note="appendix scaling is authoritative"))
    entries.append(LedgerEntry(
        symbol="G1 image-point argument", location="ball kernels",
        printed="|x/|x| - x|y||^{2-n}", oracle="(|x| |y - x/|x|^2|)^{2-n}",
        verdict=MISMATCH, note="validated by symmetry and boundary vanishing"))
    entries.append(LedgerEntry(
        symbol="radial weight labels N41/N43", location="appendix: weight list",
        printed="N41=2(n-1), N43=-(n-1)(n-3)", oracle="N41=-(n-1)(n-3), N43=2(n-1)",
        verdict=MISMATCH, note="validated by applying the weights to r^beta"))
    entries.append(LedgerEntry(
        symbol="chain-rule row c42 display", location="appendix: coefficient list",
        printed="(3 psi'' + 12 psi' psi'') rho_r + (3 psi'^2 + 4 psi' psi''') rho",
        oracle="6 psi'^2 rho'' + 12 psi' psi'' rho' + (3 psi''^2 + 4 psi' psi''') rho",
        verdict=MISMATCH, note="the derivative decomposition display has the correct row"))
    return tuple(entries)


def mismatch_symbols(entries: Iterable[LedgerEntry]) -> List[str]:
    return sorted(e.symbol for e in entries if e.verdict == MISMATCH)


def check_ledger(entries: Iterable[LedgerEntry]):
    """(ok, undocumented, silent) against the documented registry."""
    entries = list(entries)
    found = set(mismatch_symbols(entries))
    documented = set(DOCUMENTED_MISMATCHES)
    undocumented = sorted(found - documented)
    silent = sorted(documented - found)
    return (not undocumented and not silent), undocumented, silent


def ledger_to_json(entries: Iterable[LedgerEntry]) -> str:
    return json.dumps([asdict(e) for e in entries], indent=2)


def ledger_to_csv(entries: Iterable[LedgerEntry]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["symbol", "location", "printed", "oracle", "verdict", "note"])
    for e in entries:
        w.writerow([e.symbol, e.location, e.printed, e.oracle, e.verdict, e.note])
    return buf.getvalue()
