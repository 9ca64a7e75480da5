"""The acceptance gate: ten verifiable criteria with stated budgets.

Each criterion returns a CriterionResult with one-line pass/fail detail;
``run_all`` executes the lot and is what both the test suite and the
``verify`` command consume.  Deviations forced by provable defects in
the printed source (degenerate parameter points, formula typos) are
never silently patched: the affected sub-checks assert the *derived*
truth and record the discrepancy through the ledger.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional

from . import ledger as ledger_mod
from .coefficients import (BUILD_SIGMA, derive_cyl_coeffs_numeric, oracle_autonomous,
                           printed_appendix_J40, printed_autonomous,
                           printed_critical_values, second_order_chain,
                           second_order_symbol)
from .levels import (autonomous_level, definitional_p_polys, equilibrium_energy_exact,
                     p0_large_t_sign)
from .params import DomainError, Params, special_exponents

# Criteria that compute on arrays import numpy and the numerical modules
# in their own body: C01-C04, C09 and C10 compute on Python scalars and
# load none of them.


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    elapsed: float
    budget: float
    details: List[str] = field(default_factory=list)

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def line(self) -> str:
        return (f"C{self.cid:02d} {self.status}  {self.name} "
                f"[{self.elapsed:.2f}s / budget {self.budget:.0f}s]")


def _criterion(cid: int, name: str, budget: float):
    def wrap(fn: Callable[[List[str]], bool]):
        def run() -> CriterionResult:
            details: List[str] = []
            t0 = time.perf_counter()
            try:
                ok = fn(details)
            except Exception as exc:  # a crash is a failure, not an abort
                details.append(f"exception: {type(exc).__name__}: {exc}")
                ok = False
            return CriterionResult(cid=cid, name=name, passed=bool(ok),
                                   elapsed=time.perf_counter() - t0, budget=budget,
                                   details=details)
        run.cid = cid
        return run
    return wrap


@_criterion(1, "exact special constants over n = 5..12", 1.0)
def criterion_1(details) -> bool:
    ok = True
    for n in range(5, 13):
        crit = Fraction(n + 4, n - 4)
        low = Fraction(n, n - 4)
        o_crit = oracle_autonomous(n, crit)
        o_low = oracle_autonomous(n, low)
        checks = [
            o_crit["K0"] == Fraction(n * n * (n - 4) ** 2, 16),
            o_crit["K2"] == -Fraction(n * n - 4 * n + 8, 2),
            o_crit["J0"] == -Fraction(n * (n - 4), 2),
            o_crit["K1"] == 0 and o_crit["K3"] == 0 and o_crit["J1"] == 0,
            o_low["K0"] == 0,
            # the printed formulas reproduce the same constants where they are sound
            printed_autonomous(n, crit)["K0"] == o_crit["K0"],
            printed_autonomous(n, crit)["K2"] == o_crit["K2"],
            printed_autonomous(n, crit)["K1"] == 0,
            printed_autonomous(n, crit)["K3"] == 0,
            printed_autonomous(n, low)["K0"] == 0,
        ]
        if not all(checks):
            ok = False
            details.append(f"n={n}: failed {[i for i, c in enumerate(checks) if not c]}")
    details.append("rational-arithmetic identities for K0*, K2*, J0*, zero "
                   "conditions, and K0(lower) = 0: exact on n = 5..12")
    return ok


@_criterion(2, "symbol oracle vs printed coefficient formulas", 1.0)
def criterion_2(details) -> bool:
    ok = True
    sigma = BUILD_SIGMA
    for n in range(5, 13):
        svals = [Fraction(3, 2), Fraction(2), Fraction(3), Fraction(5),
                 Fraction(n, n - 4), Fraction(n + 4, n - 4)]
        for s in svals:
            pr = printed_autonomous(n, s)
            om = oracle_autonomous(n, s, sigma)
            if not (pr["K0"] == om["K0"] and pr["K2"] == om["K2"]
                    and pr["J0"] == om["J0"]):
                ok = False
                details.append(f"even-coefficient mismatch at (n={n}, s={s})")
            # one global sigma: the printed odd formulas equal the sigma=-1 oracle
            if not (pr["K1"] == om["K1"] and pr["K3"] == om["K3"]):
                ok = False
                details.append(f"K1/K3 not matched by the global convention at (n={n}, s={s})")
    j40 = printed_appendix_J40(5, Fraction(9))
    j0 = oracle_autonomous(5, Fraction(9), sigma)["J0"]
    if not (j40 != j0 and j40 == Fraction(385, 2) and j0 == -Fraction(5, 2)):
        ok = False
        details.append("appendix J40 witness values unexpected")
    # the printed J1 is a documented mismatch (beyond the sign convention),
    # proven exactly; asserted through the ledger rather than forced green
    j1_doc = "J1(n,s) printed formula" in ledger_mod.DOCUMENTED_MISMATCHES
    j1_diff = all(printed_autonomous(n, Fraction(3))["J1"] !=
                  oracle_autonomous(n, Fraction(3), sg)["J1"]
                  for n in (5, 8) for sg in (1, -1))
    if not (j1_doc and j1_diff):
        ok = False
        details.append("printed J1 should disagree with both conventions and be documented")
    details.append("K0, K2, J0 exact; K1, K3 exact under the single build convention; "
                   "J40 and printed J1 are documented mismatches (see ledger)")
    return ok


@_criterion(3, "chain-rule engine: r-independence and oracle agreement", 5.0)
def criterion_3(details) -> bool:
    ok = True
    radii = (0.1, 0.3, 0.5, 0.9)
    for n in (5, 6, 8):
        svals = {Fraction(3, 2), Fraction(3), Fraction(n, n - 4), Fraction(n + 4, n - 4)}
        for s in sorted(svals):
            evals = [derive_cyl_coeffs_numeric(n, r, s=float(s)) for r in radii]
            om = oracle_autonomous(n, s, BUILD_SIGMA)
            for key in ("K0", "K1", "K2", "K3", "J0", "J1"):
                vals = [float(e[key]) for e in evals]
                scale = max(1.0, max(abs(v) for v in vals))
                spread = (max(vals) - min(vals)) / scale
                dev = max(abs(v - float(om[key])) for v in vals) / scale
                if spread > 1e-10 or dev > 1e-10:
                    ok = False
                    details.append(f"(n={n}, s={s}) {key}: spread={spread:.2e} dev={dev:.2e}")
            # exact route: identical Fractions at one rational radius
            ex = derive_cyl_coeffs_numeric(n, Fraction(3, 10), s=s)
            if any(ex[k] != om[k] for k in ("K0", "K1", "K2", "K3", "J0", "J1")):
                ok = False
                details.append(f"(n={n}, s={s}): exact assembly differs from the symbol")
    for n in (5, 6, 8):
        crit2 = Fraction(n + 2, n - 2)
        sym = second_order_symbol(n, crit2)
        chain = second_order_chain(n, crit2)
        if not (sym["K20"] == chain["K20"] == -Fraction((n - 2) ** 2, 4)
                and sym["K21"] == chain["K21"] == 0):
            ok = False
            details.append(f"second-order special values failed at n={n}")
    details.append("autonomous assembly r-independent to < 1e-10 and equal to the "
                   "symbol oracle (also exactly, in rational arithmetic); second-order "
                   "pathway reproduces K20* = -(n-2)^2/4, K21* = 0")
    return ok


@_criterion(4, "residual suite: power solutions and bubbles", 5.0)
def criterion_4(details) -> bool:
    from .bubble import bubble_constant
    from .profiles import Bubble, SingularPower

    ok = True
    for (n, s) in ((5, 7.0), (6, 4.0)):
        sp = SingularPower(n, s)
        worst = max(sp.system_residual(r) for r in (0.1, 1.0, 10.0))
        if worst > 1e-10:
            ok = False
            details.append(f"power residual (n={n}, s={s}): {worst:.2e}")
    # the stated pair (6, 2) sits on the kernel exponent gamma = n-2: K0 = 0
    # exactly and the closed form degenerates to zero, so the constructor
    # must refuse it (documented; the live second point (6, 4) stands in)
    if oracle_autonomous(6, Fraction(2))["K0"] != 0:
        ok = False
        details.append("expected K0(6,2) = 0 exactly")
    try:
        SingularPower(6, 2.0)
        ok = False
        details.append("SingularPower(6,2) should raise: amplitude undefined at K0=0")
    except DomainError:
        pass
    for n in range(5, 11):
        c = bubble_constant(n)
        b = Bubble(n, mu=1.0)
        prof = b.profile()
        power = float(special_exponents(n).critical_power)
        worst = max(prof.residual(n, r, c * b.radial(r) ** power)
                    for r in (0.4, 1.0, 2.3))
        a0_pred = (float(printed_critical_values(n)["K0"]) / c) ** ((n - 4) / 8.0)
        a0_formula = (n * (n - 4) / (n * n - 4.0)) ** ((n - 4) / 8.0)
        if worst > 1e-9:
            ok = False
            details.append(f"bubble residual n={n}: {worst:.2e}")
        if abs(a0_pred - a0_formula) > 1e-9 * a0_formula:
            ok = False
            details.append(f"a0 identity n={n}: {a0_pred} vs {a0_formula}")
    details.append("power-law residuals <= 1e-10 at (5,7) and (6,4); (6,2) degenerates "
                   "(K0 = 0 at the kernel exponent) and correctly refuses; bubble "
                   "residuals <= 1e-9 and (K0*/c)^{(n-4)/8} = a0 for n = 5..10")
    return ok


@_criterion(5, "slice-energy level identity at the constant state", 1.0)
def criterion_5(details) -> bool:
    from .odes import equilibrium_state
    from .pohozaev import hamiltonian_radial

    ok = True
    count = 0
    for n in range(5, 9):
        ex = special_exponents(n)
        svals = [s for s in (Fraction(7), Fraction(4), Fraction(7, 2), Fraction(5, 2),
                             Fraction(9, 4), (ex.lower + ex.critical_power) / 2)
                 if ex.in_window(s)]
        for s in svals:
            pref_H, pref_neg_l, K0, expo = equilibrium_energy_exact(n, s)
            if pref_H != pref_neg_l:
                ok = False
                details.append(f"(n={n}, s={s}): prefactors {pref_H} vs {pref_neg_l}")
            count += 1
            p = Params(n, s)
            H = hamiltonian_radial(p, equilibrium_state(p))
            l = autonomous_level(n, s)
            if abs(H + l) > 1e-12 * max(1.0, abs(l)):
                ok = False
                details.append(f"(n={n}, s={s}): float check |H + l*| = {abs(H + l):.2e}")
    details.append(f"H(equilibrium) = -l*(n,s) exactly (rational prefactors of the "
                   f"common power K0^{{(s+1)/(s-1)}}) at {count} window points, "
                   f"n = 5..8, plus float cross-checks")
    return ok


@_criterion(6, "monotonicity of the slice energy along trajectories", 60.0)
def criterion_6(details) -> bool:
    import numpy as np

    from .integrate import Event, integrate
    from .odes import make_autonomous_rhs
    from .pohozaev import pohozaev_series

    ok = True
    rng = np.random.default_rng(0)
    pairs = [(5, Fraction(7)), (6, Fraction(2)), (8, Fraction(5, 3))]
    for (n, s) in pairs:
        p = Params(n, s)
        rhs = make_autonomous_rhs(p)
        in_window = special_exponents(n).in_window(s)
        worst_match = 0.0
        min_dH = float("inf")
        # cap the state at a moderate level: the stencil error scales with
        # the fifth time derivative of H, which grows like |V|^{s+1}
        cap = Event(g=lambda t, y: 3.0 - max(map(abs, y)), direction=-1, terminal=True)
        for _ in range(20):
            y0 = rng.uniform(-0.5, 0.5, size=4)
            try:
                traj = integrate(rhs, 0.0, y0, 2.0, rel_tol=1e-12, abs_tol=1e-14,
                                 guard=1e4, events=[cap])
            except Exception:
                ok = False
                details.append(f"(n={n}, s={s}): integration crashed")
                continue
            span = float(traj.t[-1] - traj.t[0])
            if span < 0.2 or len(traj.t) < 5:
                continue  # immediate growth past the cap; nothing to sample
            series = pohozaev_series(p, traj, num=1201)
            for q in series:
                if math.isnan(q.dH_numeric):
                    continue
                tol = max(1e-6, 1e-3 * abs(q.dH_formula))
                worst_match = max(worst_match, abs(q.dH_numeric - q.dH_formula) - tol)
                min_dH = min(min_dH, q.dH_numeric)
        if worst_match > 0:
            ok = False
            details.append(f"(n={n}, s={s}): formula/numeric gap above tolerance "
                           f"by {worst_match:.2e}")
        if in_window:
            if min_dH < -1e-8:
                ok = False
                details.append(f"(n={n}, s={s}): dH dips to {min_dH:.2e} inside the window")
            details.append(f"(n={n}, s={s}): window pair, min dH = {min_dH:.2e} >= -1e-8")
        else:
            details.append(f"(n={n}, s={s}): outside the monotonicity window "
                           f"(kernel exponent, K0 = 0): formula match asserted, "
                           f"measured min dH = {min_dH:.3g} reported, not asserted")
    return ok


@_criterion(7, "critical-case periodic orbits by shooting", 120.0)
def criterion_7(details) -> bool:
    from .shooting import critical_constants, find_b

    ok = True
    for n in (5, 6):
        cc = critical_constants(n)
        for frac in (0.3, 0.6, 0.9):
            # find_b's message is empty exactly when every C07 threshold holds
            r = find_b(n, frac * cc.a0, consts=cc)
            if r.message:
                ok = False
                details.append(f"n={n}, a={frac}a0: resid={r.residual:.2e} "
                               f"defect={r.period_defect:.2e} drift={r.energy_drift:.2e} "
                               f"msg={r.message}")
            else:
                details.append(f"n={n}, a={frac}a0 [{r.precision}]: b={r.b:.10g} "
                               f"T={r.T:.8f} resid={r.residual:.1e} "
                               f"defect={r.period_defect:.1e} drift={r.energy_drift:.1e}")
        r999 = find_b(n, 0.999 * cc.a0, consts=cc)
        Tlin = cc.linearized_period()
        if abs(r999.T - Tlin) > 0.02 * Tlin:
            ok = False
            details.append(f"n={n}: T(0.999 a0) = {r999.T} vs linearized {Tlin}")
        else:
            details.append(f"n={n}: T(0.999 a0)/T_lin = {r999.T / Tlin:.6f}")
    return ok


@_criterion(8, "log-corrected regime machinery", 60.0)
def criterion_8(details) -> bool:
    from .asymptotics import residual_decay_check
    from .pohozaev import constant_state_trajectory, monotonicity_check_aviles

    ok = True
    for n in (5, 8):
        rate = residual_decay_check(n)["rate"]
        if not (0.9 <= rate <= 1.1):
            ok = False
            details.append(f"n={n}: residual decay rate {rate:.3f} outside [0.9, 1.1]")
        else:
            details.append(f"n={n}: residual decay rate {rate:.3f}")
    for n in (5, 6, 7, 8, 9):
        tr = constant_state_trajectory(n, 100.0, 2000.0)
        verdict = monotonicity_check_aviles(n, tr)
        want = "NONINCREASING" if n <= 7 else "NONDECREASING"
        if verdict != want:
            ok = False
            details.append(f"n={n}: slice-energy verdict {verdict}, expected {want}")
    details.append("single-sign verdicts match the dimension split "
                   "(nonincreasing for n <= 7, nondecreasing for n >= 8)")
    for n in range(5, 13):
        want = 0 if n * n - 10 * n + 20 == 0 else (1 if n * n - 10 * n + 20 > 0 else -1)
        if p0_large_t_sign(n) != want:
            ok = False
            details.append(f"n={n}: p0 large-t sign wrong")
        lead_def = definitional_p_polys(n)["p0"].get(-2, 0)
        if want != 0 and not (lead_def > 0) == (want > 0):
            ok = False
            details.append(f"n={n}: definitional p0 leading sign disagrees")
    details.append("p0 large-t sign equals sign(n^2 - 10n + 20) on both routes")
    return ok


@_criterion(9, "regime classifier and profile fits", 10.0)
def criterion_9(details) -> bool:
    from .asymptotics import (Regime, classify_regime, fit_log_corrected, fit_power_law,
                              geometric_grid)
    from .profiles import AvilesProfile, Bubble, SingularPower

    ok = True
    for n in range(5, 17):
        ex = special_exponents(n)
        cases = [(ex.lower, Regime.AVILES), (ex.critical_power, Regime.CRITICAL),
                 (ex.lower - Fraction(1, 1000), Regime.SERRIN_LIONS),
                 (ex.lower + Fraction(1, 1000), Regime.GIDAS_SPRUCK),
                 (ex.critical_power + Fraction(1, 1000), Regime.SUPERCRITICAL)]
        for s, want in cases:
            if s <= 1:
                continue
            got = classify_regime(n, s).regime
            if got is not want:
                ok = False
                details.append(f"(n={n}, s={s}): {got} != {want}")
    # round-trip: power-law fit on the exact singular solution
    sp = SingularPower(5, 7.0)
    rs = geometric_grid(1e-3, 1e2, 40)
    rep = fit_power_law([(r, sp.radial(r)) for r in rs])
    if abs(rep.exponent - sp.gamma) > 1e-10 or \
       abs(rep.amplitude - sp.amplitude) > 1e-10 * sp.amplitude:
        ok = False
        details.append(f"power round-trip: exponent {rep.exponent}, amp {rep.amplitude}")
    # bubble far field ~ r^{-(n-4)}
    b = Bubble(5, mu=1.0)
    rs = geometric_grid(1e2, 1e4, 24)
    repb = fit_power_law([(r, b.radial(r)) for r in rs])
    if abs(repb.exponent - 1.0) > 0.01:
        ok = False
        details.append(f"bubble tail exponent {repb.exponent} not within 1% of n-4=1")
    # log-corrected round-trip and discrimination
    ap = AvilesProfile(5)
    rs = geometric_grid(1e-9, 1e-4, 40)
    repl = fit_log_corrected([(r, ap(r)) for r in rs], 5)
    if abs(repl.log_exponent - (4 - 5) / 4.0) > 1e-8 or \
       repl.amplitude_distance("theorem") > 1e-8:
        ok = False
        details.append(f"log-corrected round-trip: q={repl.log_exponent}, A={repl.amplitude}")
    pure = [(r, float(r ** (4 - 5.0))) for r in rs]
    rep0 = fit_log_corrected(pure, 5)
    if abs(rep0.log_exponent) > 1e-10:
        ok = False
        details.append(f"pure power leaks log exponent {rep0.log_exponent}")
    rs2 = geometric_grid(1e-8, 1e-3, 40)
    rep_pow = fit_power_law([(r, ap(r)) for r in rs2])
    if not (abs(rep_pow.exponent - 1.0) < 0.05 and rep_pow.residual > 10 * repl.residual):
        ok = False
        details.append(f"discrimination failed: exp={rep_pow.exponent}, "
                       f"residuals {rep_pow.residual:.2e} vs {repl.residual:.2e}")
    details.append("boundary classification exact for n = 5..16; fits recover "
                   "generated parameters; log-corrected fit separates the regimes")
    return ok


@_criterion(10, "ledger completeness", 180.0)
def criterion_10(details) -> bool:
    entries = ledger_mod.build_ledger()
    ok, undocumented, silent = ledger_mod.check_ledger(entries)
    if undocumented:
        details.append(f"undocumented mismatches: {undocumented}")
    if silent:
        details.append(f"documented mismatches not reproduced: {silent}")
    # the named headline discrepancies must be present with their verdicts
    by_symbol = {e.symbol: e for e in entries}
    expected = {
        "K1 at lower exponent (table)": ledger_mod.MISMATCH,
        "lim t*K~0 vs theorem constant": ledger_mod.MISMATCH,
        "J40(n,s) appendix formula": ledger_mod.MISMATCH,
        "K3 at lower exponent (table)": ledger_mod.SIGN_CONVENTION,
        "p0(n,t) printed vs definitional": ledger_mod.MISMATCH,
        "p2(n,t) printed vs definitional": ledger_mod.MISMATCH,
        "l*(n) level sign": ledger_mod.MISMATCH,
    }
    for sym, verdict in expected.items():
        if sym not in by_symbol or by_symbol[sym].verdict != verdict:
            ok = False
            details.append(f"headline item missing or re-judged: {sym}")
    counts: Dict[str, int] = {}
    for e in entries:
        counts[e.verdict] = counts.get(e.verdict, 0) + 1
    details.append(f"{len(entries)} entries: {counts}; mismatch set == documented registry")
    return ok


ALL_CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
                criterion_6, criterion_7, criterion_8, criterion_9, criterion_10]

SUITE_GROUPS = {
    "coefficients": [1, 2, 3],
    "profiles": [4],
    "pohozaev": [5, 6],
    "shooting": [7],
    "aviles": [8],
    "asymptotics": [9],
    "ledger": [10],
}


def run_all(select: Optional[List[int]] = None, echo: bool = False) -> List[CriterionResult]:
    out = []
    for crit in ALL_CRITERIA:
        if select and crit.cid not in select:
            continue
        res = crit()
        if echo:
            print(res.line())
            for d in res.details:
                print(f"     - {d}")
        out.append(res)
    return out
