"""Acceptance gate: every criterion at its stated tolerance and budget.

Prints one pass/fail line per criterion; the suite fails if any
criterion fails or overruns its budget.
"""

import re

import pytest

from fowler4 import acceptance, shooting
from fowler4.ledger import (DOCUMENTED_MISMATCHES, MATCH, MISMATCH, SIGN_CONVENTION,
                            build_ledger, check_ledger)

_RESULTS = {}


@pytest.fixture(scope="module", params=[c.cid for c in acceptance.ALL_CRITERIA],
                ids=[f"criterion_{c.cid:02d}" for c in acceptance.ALL_CRITERIA])
def criterion_result(request):
    cid = request.param
    if cid not in _RESULTS:
        (res,) = acceptance.run_all(select=[cid])
        _RESULTS[cid] = res
        print()
        print(res.line())
        for d in res.details:
            print(f"     - {d}")
    return _RESULTS[cid]


def test_criterion_passes(criterion_result):
    assert criterion_result.passed, "\n".join(criterion_result.details)


def test_criterion_within_budget(criterion_result):
    assert criterion_result.elapsed <= criterion_result.budget, (
        f"criterion {criterion_result.cid} took {criterion_result.elapsed:.1f}s, "
        f"budget {criterion_result.budget:.0f}s")


# each criterion's line as `fowler4 verify` prints it, without its elapsed
# time, then its detail lines: a change that keeps the results keeps these
_PINNED_LINES = {
    1: ["C01 PASS  exact special constants over n = 5..12 [budget 1s]",
        "rational-arithmetic identities for K0*, K2*, J0*, zero conditions, and "
        "K0(lower) = 0: exact on n = 5..12"],
    2: ["C02 PASS  symbol oracle vs printed coefficient formulas [budget 1s]",
        "K0, K2, J0 exact; K1, K3 exact under the single build convention; J40 and "
        "printed J1 are documented mismatches (see ledger)"],
    3: ["C03 PASS  chain-rule engine: r-independence and oracle agreement [budget 5s]",
        "autonomous assembly r-independent to < 1e-10 and equal to the symbol oracle "
        "(also exactly, in rational arithmetic); second-order pathway reproduces "
        "K20* = -(n-2)^2/4, K21* = 0"],
    4: ["C04 PASS  residual suite: power solutions and bubbles [budget 5s]",
        "power-law residuals <= 1e-10 at (5,7) and (6,4); (6,2) degenerates (K0 = 0 at "
        "the kernel exponent) and correctly refuses; bubble residuals <= 1e-9 and "
        "(K0*/c)^{(n-4)/8} = a0 for n = 5..10"],
    5: ["C05 PASS  slice-energy level identity at the constant state [budget 1s]",
        "H(equilibrium) = -l*(n,s) exactly (rational prefactors of the common power "
        "K0^{(s+1)/(s-1)}) at 11 window points, n = 5..8, plus float cross-checks"],
    6: ["C06 PASS  monotonicity of the slice energy along trajectories [budget 60s]",
        "(n=5, s=7): window pair, min dH = 3.03e-02 >= -1e-8",
        "(n=6, s=2): outside the monotonicity window (kernel exponent, K0 = 0): formula "
        "match asserted, measured min dH = -5.69 reported, not asserted",
        "(n=8, s=5/3): outside the monotonicity window (kernel exponent, K0 = 0): "
        "formula match asserted, measured min dH = -9.03 reported, not asserted"],
    7: ["C07 PASS  critical-case periodic orbits by shooting [budget 120s]",
        "n=5, a=0.3a0 [float64]: b=0.0626234025 T=9.64118621 resid=2.3e-12 "
        "defect=5.2e-07 drift=6.0e-16",
        "n=5, a=0.6a0 [float64]: b=0.1203627285 T=6.74672953 resid=7.3e-14 "
        "defect=4.6e-10 drift=4.4e-16",
        "n=5, a=0.9a0 [float64]: b=0.09083951698 T=5.20838821 resid=2.1e-14 "
        "defect=2.4e-11 drift=1.6e-16",
        "n=5: T(0.999 a0)/T_lin = 1.000004",
        "n=6, a=0.3a0 [float64]: b=0.2256146548 T=5.68077845 resid=1.0e-13 "
        "defect=8.4e-10 drift=1.2e-15",
        "n=6, a=0.6a0 [float64]: b=0.3566258871 T=4.36989594 resid=2.8e-13 "
        "defect=3.6e-10 drift=1.2e-15",
        "n=6, a=0.9a0 [float64]: b=0.1803448589 T=3.79763617 resid=1.7e-14 "
        "defect=1.1e-11 drift=4.1e-16",
        "n=6: T(0.999 a0)/T_lin = 1.000002"],
    8: ["C08 PASS  log-corrected regime machinery [budget 60s]",
        "n=5: residual decay rate 0.999",
        "n=8: residual decay rate 1.000",
        "single-sign verdicts match the dimension split (nonincreasing for n <= 7, "
        "nondecreasing for n >= 8)",
        "p0 large-t sign equals sign(n^2 - 10n + 20) on both routes"],
    9: ["C09 PASS  regime classifier and profile fits [budget 10s]",
        "boundary classification exact for n = 5..16; fits recover generated parameters; "
        "log-corrected fit separates the regimes"],
    10: ["C10 PASS  ledger completeness [budget 180s]",
         "41 entries: {'MATCH': 19, 'MISMATCH': 19, 'SIGN_CONVENTION': 3}; mismatch set "
         "== documented registry"],
}


def test_criterion_lines_are_pinned(criterion_result):
    line = re.sub(r"\[[0-9.]+s / ", "[", criterion_result.line())
    assert [line] + criterion_result.details == _PINNED_LINES[criterion_result.cid]


def test_c07_passes_in_float64_without_longdouble(monkeypatch):
    # all six points close in float64: C07 needs no 80-bit longdouble
    monkeypatch.setattr(shooting, "_LONGDOUBLE_OK", False)
    res = acceptance.criterion_7()
    assert res.passed and res.details == _PINNED_LINES[7][1:]
    assert sum("[float64]" in d for d in res.details) == 6


def test_total_budget():
    total = sum(r.elapsed for r in _RESULTS.values())
    assert total <= 180.0, f"suite took {total:.1f}s"


def test_ledger_gate_headline_items():
    entries = build_ledger()
    ok, undocumented, silent = check_ledger(entries)
    assert ok, (undocumented, silent)
    by = {e.symbol: e.verdict for e in entries}
    # the six headline discrepancies, by name
    assert by["K1 at lower exponent (table)"] == MISMATCH
    assert by["lim t*K~0 vs theorem constant"] == MISMATCH
    assert by["J40(n,s) appendix formula"] == MISMATCH
    assert by["K3 at lower exponent (table)"] == SIGN_CONVENTION
    assert by["p0(n,t) printed vs definitional"] == MISMATCH
    assert by["p2(n,t) printed vs definitional"] == MISMATCH
    assert by["l*(n) level sign"] == MISMATCH
    # every documented mismatch reproduced; nothing undocumented
    mismatches = {e.symbol for e in entries if e.verdict == MISMATCH}
    assert mismatches == set(DOCUMENTED_MISMATCHES)
