"""Coefficient oracles vs the printed tables, in exact arithmetic."""

import hashlib
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fowler4 import coefficients as co
from fowler4.params import DomainError, Params, gamma_exponent, special_exponents
from fowler4.polys import compose_linear


def test_special_exponents_small_dimensions():
    assert special_exponents(5).upper == 10 and special_exponents(5).lower == 5
    assert special_exponents(6).upper == 6 and special_exponents(6).lower == 3
    ex8 = special_exponents(8)
    assert ex8.upper == 4 and ex8.lower == 2
    assert gamma_exponent(ex8.lower) == 8 - 4          # gamma(lower) = n - 4
    assert gamma_exponent(ex8.critical_power) == F(8 - 4, 2)
    assert ex8.upper == 2 * ex8.lower


def test_special_exponents_rejects_low_dimension():
    with pytest.raises(DomainError):
        special_exponents(4)


def test_printed_autonomous_witness_values():
    pr = co.printed_autonomous(5, F(9))
    assert pr["K0"] == F(25, 16)
    assert pr["K2"] == -F(13, 2)
    assert co.printed_autonomous(5, F(5))["K0"] == 0


def test_printed_rejects_s_equal_one():
    with pytest.raises(DomainError):
        co.printed_autonomous(5, F(1))


def test_char_symbol_hand_checkable_product():
    # S(0,0) = Q evaluated at gamma = 2: 2*4*1*(-1) = -8
    sym = co.char_symbol(5, F(3))
    assert sym.evaluate(0, 0) == -8
    assert co.radial_symbol(5, -F(2)) == -8


def test_char_symbol_structure():
    sym = co.char_symbol(5, F(9))
    assert sym.p_coeffs[4] == 1            # leading lambda^4 coefficient
    assert sym.nu_coeffs[2] == 2           # coefficient of lambda^2 * nu
    assert sym.coefficients["J0"] == -F(5, 2)
    # nu^2 coefficient is 1: S(0, nu) - P(0) - (-J0 nu) == nu^2
    assert sym.evaluate(0, 3) - sym.evaluate(0, 0) + 3 * sym.nu_coeffs[0] == 9


def test_char_symbol_cache_keeps_the_argument_type():
    # 5, 5.0 and F(5) hash alike; the cache must not hand one the other's symbol
    exact = co.char_symbol(5, F(5))
    approx = co.char_symbol(5, 5.0)
    assert {type(c) for c in exact.p_coeffs + exact.nu_coeffs} == {F}
    assert {type(c) for c in approx.p_coeffs + approx.nu_coeffs} == {float}
    assert co.char_symbol(5, F(5)) is exact and co.char_symbol(5, "5/1") is exact


def _rational_symbol(n, s, sigma):
    """The symbol expanded in Fraction arithmetic: the reference for the
    integer expansion and the sign flip."""
    g, one = gamma_exponent(s), F(1)
    Q = [0 * one, -2 * (n - 2) * (n - 4) * one, (n * n - 10 * n + 20) * one,
         2 * (n - 4) * one, one]
    A = [-2 * (n - 4) * one, 2 * (n - 4) * one, 2 * one]
    return (tuple(compose_linear(Q, -g, -sigma * one)[:5]),
            tuple(compose_linear(A, -g, -sigma * one)[:3]))


def test_char_symbol_equals_the_rational_expansion():
    for n in range(5, 17):
        grid = {F(3, 2), F(2), F(3), F(5), F(n, n - 4), F(n + 4, n - 4), F(7, 3), F(9, 4)}
        for s in grid:
            for sigma in (1, -1):
                sym = co.char_symbol(n, s, sigma)
                assert (sym.p_coeffs, sym.nu_coeffs) == _rational_symbol(n, s, sigma)
                assert {type(c) for c in sym.p_coeffs + sym.nu_coeffs} == {F}


def test_float_symbol_bits_are_pinned():
    # sha256 of "n,s,sigma:K0=<float.hex>,...,J1=<float.hex>" joined by ";"
    text = ";".join(
        f"{n},{s},{sigma}:" + ",".join(f"{k}={float.hex(v)}" for k, v in
                                       co.oracle_autonomous(n, s, sigma).items())
        for n, s in ((5, 7.0), (6, 4.0), (8, 2.5)) for sigma in (-1, 1))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "b03934b1e2831560a66d01eba594e614622c202fefcd9c7538c94d452ae83465"


def test_char_symbol_vanishes_at_kernel_exponents():
    # S(lam, 0) = 0 whenever gamma + sigma*lam lands on {0, -2, n-2, n-4}
    for n in (5, 8):
        for s in (F(3), F(7)):
            g = gamma_exponent(s)
            for sigma in (1, -1):
                sym = co.char_symbol(n, s, sigma)
                for root in (F(0), F(-2), F(n - 2), F(n - 4)):
                    lam = sigma * (root - g)
                    assert sym.evaluate(lam, 0) == 0


def test_oracle_matches_printed_even_coefficients_exactly():
    for n in range(5, 13):
        for s in (F(3, 2), F(2), F(3), F(5), F(n, n - 4), F(n + 4, n - 4)):
            pr = co.printed_autonomous(n, s)
            om = co.oracle_autonomous(n, s)
            assert pr["K0"] == om["K0"]
            assert pr["K2"] == om["K2"]
            assert pr["J0"] == om["J0"]
            assert pr["K1"] == om["K1"] and pr["K3"] == om["K3"]


def test_J1_printed_formula_is_the_documented_mismatch():
    # the derivation forces J1 == K3 under either convention; the printed
    # bracket (+16) matches neither
    for n in (5, 8):
        for sigma in (1, -1):
            om = co.oracle_autonomous(n, F(3), sigma)
            assert om["J1"] == om["K3"]
            assert co.printed_autonomous(n, F(3))["J1"] != om["J1"]


def test_critical_special_values_all_dimensions():
    for n in range(5, 13):
        o = co.oracle_autonomous(n, F(n + 4, n - 4))
        assert o["K0"] == F(n * n * (n - 4) ** 2, 16)
        assert o["K2"] == -F(n * n - 4 * n + 8, 2)
        assert o["J0"] == -F(n * (n - 4), 2)
        assert o["K1"] == o["K3"] == o["J1"] == 0


def test_lower_special_values_and_the_K1_table_discrepancy():
    n = 5
    low = F(n, n - 4)
    o = co.oracle_autonomous(n, low)
    assert o["K0"] == 0
    printed = co.printed_lower_values(n)
    assert printed["K1"] == 14                      # tabulated 2(n-4)(n+2)
    assert abs(o["K1"]) == 6                        # derived 2(n-2)(n-4)
    assert abs(o["K3"]) == printed["K3"] == 2 * (n - 4)


def test_appendix_J40_disagrees_with_main_J0():
    assert co.printed_appendix_J40(5, F(9)) == F(385, 2)
    assert co.oracle_autonomous(5, F(9))["J0"] == -F(5, 2)


def test_chain_rule_matrix_identity_change():
    c = co.chain_rule_matrix([1, 0, 0, 0, 0], [1, 0, 0, 0])
    for j in range(5):
        for l in range(5):
            assert c[j][l] == (1 if j == l else 0)


def test_chain_rule_matrix_log_scaling_witness():
    # rho = r^{-2}, psi = -ln r at r = 1
    rho = [1, -2, 6, -24, 120]
    psi = [-1, 1, -2, 6]
    c = co.chain_rule_matrix(rho, psi)
    assert c[1][1] == -1 and c[1][0] == -2
    assert c[2][2] == 1                     # psi'^2 * rho at r = 1


def test_chain_rule_matrix_c22_is_psi_prime_sq_rho():
    c = co.chain_rule_matrix([3, 0, 0, 0, 0], [0.5, 0, 0, 0])
    assert c[2][2] == pytest.approx(0.75)


def test_weights_validated_on_power_functions():
    for n in (5, 6, 8, 11):
        for beta in (F(-3), F(0), F(2), F(7), F(1, 3)):
            assert co.validate_weights(n, beta)


def test_numeric_assembly_r_independent_and_matches_symbol():
    # each radius rounds its powers of r differently: the spread is small
    # but not zero, so the check compares distinct computations
    spreads = []
    for n in (5, 6, 8):
        for s in (1.5, 3.0, 9.0):
            om = co.oracle_autonomous(n, F(s).limit_denominator(100))
            vals = {}
            for r in (0.1, 0.3, 0.7):
                d = co.derive_cyl_coeffs_numeric(n, r, s=s)
                for k in ("K0", "K1", "K2", "K3", "J0", "J1"):
                    vals.setdefault(k, []).append(float(d[k]))
            for k, vs in vals.items():
                scale = max(1.0, max(abs(v) for v in vs))
                spreads.append((max(vs) - min(vs)) / scale)
                assert abs(vs[0] - float(om[k])) / scale < 1e-12
            for r in (F(1, 10), F(3, 10), F(7, 10)):
                ex = co.derive_cyl_coeffs_numeric(n, r, s=F(s).limit_denominator(100))
                assert all(ex[k] == om[k] for k in vals)
    assert 0 < max(spreads) < 1e-12


def test_numeric_assembly_critical_zeros():
    d = co.derive_cyl_coeffs_numeric(5, 0.4, s=9.0)
    assert abs(float(d["K1"])) < 1e-12 and abs(float(d["K3"])) < 1e-12
    assert abs(float(d["J1"])) < 1e-12


def test_numeric_assembly_rejects_bad_radius():
    for r in (0.0, -0.1):
        with pytest.raises(DomainError):
            co.derive_cyl_coeffs_numeric(5, r, s=3.0)


def test_nonautonomous_polys_known_discrepancies():
    for n in (5, 6, 9):
        pr = co.printed_nonautonomous_polys(n)
        dr = co.nonautonomous_oracle_polys(n)
        assert pr["K2"] == dr["K2"] and pr["J0"] == dr["J0"] and pr["J1"] == dr["J1"]
        assert all(pr[k] != dr[k] for k in ("K0", "K1", "K3"))
        assert dr["K3"] == dr["J1"]                     # structural identity
        assert pr["K3"].coeff(1) == -dr["K3"].coeff(1)  # 1/t sign typo
        assert dr["K0"].coeff(1) == F((n - 2) * (n - 4) ** 2, 2)
        assert pr["K0"].coeff(1) == (n - 4) * (n - 2) * (n + 4)
        assert dr["K4"] == co.UPoly([1]) and dr["J2"] == co.UPoly([2])


def test_printed_nonautonomous_polys_examples():
    pr = co.printed_nonautonomous_polys(5)
    # K~3 tends to 2(n-4) = 2 and t * K~0 to 27 as t -> infinity (u = 1/t -> 0)
    assert pr["K3"](0) == 2 and pr["K0"](0) == 0 and pr["K0"].coeff(1) == 27
    assert co.printed_nonautonomous_polys(8)["K2"](1) == -8


@pytest.mark.parametrize("derive", [co.nonautonomous_oracle_polys])
def test_derived_blocks_are_cached_and_callers_cannot_alter_them(derive):
    first = derive(7)
    want = dict(first)
    first.clear()
    again = derive(7)
    assert again == want and again is not first
    # the values are the cached UPolys themselves, which are immutable
    assert all(again[k] is v for k, v in derive(7).items())


def test_hat_constant_closed_forms_equal_the_blocks():
    for n in range(5, 17):
        assert co.hat_constant(n, "printed-limit") == \
            co.printed_nonautonomous_polys(n)["K0"].coeff(1) == \
            2 * co.hat_constant(n, "theorem")
        assert co.hat_constant(n, "chain-rule") == \
            co.nonautonomous_oracle_polys(n)["K0"].coeff(1) == F((n - 2) * (n - 4) ** 2, 2)


def test_hat_constant_three_values():
    assert co.hat_constant(5, "printed-limit") == 27
    assert co.hat_constant(5, "theorem") == co.hat_constant(5) == F(27, 2)
    assert co.hat_constant(5, "chain-rule") == F(3, 2)
    with pytest.raises(DomainError):
        co.hat_constant(5, "nope")


def test_second_order_pathway():
    for n in (4, 5, 6, 8):
        crit2 = F(n + 2, n - 2)
        sym = co.second_order_symbol(n, crit2)
        assert sym["K20"] == -F((n - 2) ** 2, 4) and sym["K21"] == 0
        low2 = F(n, n - 2)
        assert co.second_order_symbol(n, low2)["K20"] == 0
        ch = co.second_order_chain(n, F(5, 2))
        sy = co.second_order_symbol(n, F(5, 2))
        assert ch["K20"] == sy["K20"] and ch["K21"] == sy["K21"] and ch["K22"] == 1
    # the tabulated K20 at the lower exponent (the ledger's entry there judges K21)
    for n in range(5, 13):
        assert co.printed_second_order_lower(n)["K20"] == \
            co.second_order_symbol(n, F(n, n - 2))["K20"]


def test_second_order_printed_formula_discrepancies():
    # printed K20 formula at (4, 3) gives +1; the symbol oracle gives -1
    assert co.printed_second_order(4, F(3))["K20"] == 1
    assert co.second_order_symbol(4, F(3))["K20"] == -1
    # the second-order time-dependent block is printed correctly
    for n in (5, 6, 9):
        pr = co.printed_second_order_nonautonomous_polys(n)
        dr = co.second_order_nonautonomous_oracle_polys(n)
        assert pr["K20"] == dr["K20"] and pr["K21"] == dr["K21"] and dr["K22"] == 1


@pytest.mark.parametrize("cell", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)])
def test_a_planted_chain_rule_fault_fails_the_second_order_pathway(monkeypatch, cell):
    # both second-order derivations read rows 1-2 of the engine; hand-copied
    # cells c11, c21 and c22 let such a fault pass
    engine = co.chain_rule_matrix

    def planted(rho_derivs, psi_derivs):
        c = engine(rho_derivs, psi_derivs)
        j, l = cell
        c[j][l] = c[j][l] + 1
        return c
    monkeypatch.setattr(co, "chain_rule_matrix", planted)
    for pathway in (test_second_order_pathway, test_second_order_printed_formula_discrepancies):
        with pytest.raises(AssertionError):
            pathway()


def test_sign_report_window_and_outside():
    rep = co.sign_report(Params(5, F(7)))
    assert rep["in_window"] and rep["values"]["K0"] == F(112, 81)
    assert rep["signs"]["K1"] > 0 and rep["signs"]["K3"] < 0
    rep_low = co.sign_report(Params(5, F(3)))
    assert not rep_low["in_window"] and rep_low["values"]["K0"] == -8
    assert co.sign_report(Params(5, F(5)))["values"]["K0"] == 0


def test_in_window_equals_the_removed_window_tests():
    # sign_report's two branches and C05/C06's inline test, as they were
    exact = lambda ex, s: ex.lower < s < ex.critical_power
    in_float = lambda ex, s: float(ex.lower) < float(s) < float(ex.critical_power)
    tiny = F(1, 10 ** 12)
    for n in range(5, 13):
        ex = special_exponents(n)
        for end in (ex.lower, ex.critical_power):
            for s in (end - tiny, end, end + tiny):
                assert ex.in_window(s) == exact(ex, s)
            f = float(end)
            for s in (math.nextafter(f, 0.0), f, math.nextafter(f, math.inf)):
                assert ex.in_window(s) == in_float(ex, s)
        assert ex.in_window(ex.lower + tiny) and not ex.in_window(ex.lower)
        assert ex.in_window(ex.critical_power - tiny) and not ex.in_window(ex.critical_power)
        assert ex.in_window(math.nextafter(float(ex.lower), math.inf))
        assert not ex.in_window(math.nextafter(float(ex.critical_power), math.inf))
    # an int s is compared exactly: n = 8 has lower 2 and critical power 3
    assert [special_exponents(8).in_window(s) for s in (2, 3)] == [False, False]
    assert special_exponents(5).in_window(7) and not special_exponents(5).in_window(9)


def test_sigma_vote_is_decisive_for_the_build_choice():
    vote = co.sigma_anchor_vote()
    assert vote["chosen"] == co.BUILD_SIGMA == -1
    assert vote["votes"][-1]["printed_K1_K3_formulas"]
    assert vote["votes"][-1]["monotonicity_signs"]
    assert vote["votes"][1]["lower_special_values"]
    assert not vote["votes"][1]["monotonicity_signs"]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=5, max_value=14),
       num=st.integers(min_value=5, max_value=40),
       den=st.integers(min_value=1, max_value=12))
def test_property_symbol_equals_exact_assembly(n, num, den):
    s = F(num, den)
    if s <= 1:
        return
    om = co.oracle_autonomous(n, s)
    d = co.derive_cyl_coeffs_numeric(n, F(2, 7), s=s)
    for k in ("K0", "K1", "K2", "K3", "J0", "J1"):
        assert d[k] == om[k]
    assert d["K4"] == 1 and d["J2"] == 2
