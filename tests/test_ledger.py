"""Ledger assembly, registry consistency and serialization."""

import csv
import dataclasses
import functools
import hashlib
import io
import json
from fractions import Fraction as F

import pytest

from fowler4 import acceptance
from fowler4 import coefficients as co
from fowler4 import ledger as lg
from fowler4.asymptotics import classify_regime


@pytest.fixture(scope="module")
def entries():
    return lg.build_ledger()


def test_registry_is_exactly_the_mismatch_set(entries):
    ok, undocumented, silent = lg.check_ledger(entries)
    assert ok, (undocumented, silent)


def test_no_silent_match_for_known_mismatches(entries):
    mism = set(lg.mismatch_symbols(entries))
    for sym in lg.DOCUMENTED_MISMATCHES:
        assert sym in mism


def test_sign_convention_only_on_odd_family(entries):
    odd = ("K1", "K3", "J1", "K21")
    assert any(e.verdict == lg.SIGN_CONVENTION for e in entries)
    for e in entries:
        assert e.verdict != lg.SIGN_CONVENTION or e.symbol.startswith(odd), e.symbol
    for prefix in odd:
        lg.LedgerEntry(symbol=f"{prefix} somewhere", location="x", printed="1",
                       oracle="-1", verdict=lg.SIGN_CONVENTION)


@pytest.mark.parametrize("symbol", ["K0 somewhere", "K2 at lower exponent (table)",
                                    "J0(n,s) printed formula"])
def test_even_coefficient_sign_convention_entry_raises_at_construction(symbol):
    # every entry checks itself when made, however it is made: most ledger
    # entries were built without the explicit check
    with pytest.raises(ValueError, match="only admissible for odd-order"):
        lg.LedgerEntry(symbol=symbol, location="x", printed="1", oracle="-1",
                       verdict=lg.SIGN_CONVENTION)
    ok = lg.LedgerEntry(symbol=symbol, location="x", printed="1", oracle="-1",
                        verdict=lg.MISMATCH)
    with pytest.raises(ValueError, match="only admissible for odd-order"):
        dataclasses.replace(ok, verdict=lg.SIGN_CONVENTION)


def test_headline_items_present(entries):
    by = {e.symbol: e.verdict for e in entries}
    assert by["K1 at lower exponent (table)"] == lg.MISMATCH
    assert by["lim t*K~0 vs theorem constant"] == lg.MISMATCH
    assert by["J40(n,s) appendix formula"] == lg.MISMATCH
    assert by["K3 at lower exponent (table)"] == lg.SIGN_CONVENTION
    assert by["p0(n,t) printed vs definitional"] == lg.MISMATCH
    assert by["p2(n,t) printed vs definitional"] == lg.MISMATCH
    assert by["l*(n) level sign"] == lg.MISMATCH
    assert by["K0(n,s) printed formula"] == lg.MATCH
    assert by["K~20,K~21 second-order time-dependent block"] == lg.MATCH


def _rebuilt(monkeypatch, name, planted):
    """The ledger built afresh with the table ``name`` replaced by planted(n, ...)."""
    monkeypatch.setattr(lg, name, planted)
    return {e.symbol: e for e in lg.build_ledger.__wrapped__()}


def test_a_wrong_lower_exponent_value_at_one_n_is_a_mismatch(monkeypatch):
    # every n = 5..12 is judged, not only the witness n = 5
    def planted(n, table=co.printed_lower_values):
        values = table(n)
        if n == 8:
            values["K3"] += 1
        return values
    by = _rebuilt(monkeypatch, "printed_lower_values", planted)
    assert by["K3 at lower exponent (table)"].verdict == lg.MISMATCH
    assert by["K3 at lower exponent (table)"].note == "witness n=5"
    assert by["J1 at lower exponent (table)"].verdict == lg.SIGN_CONVENTION


def test_k20_note_claims_the_negation_only_where_every_point_shows_it(entries, monkeypatch):
    claim = "printed equals the negative of the derivation at every checked point"
    assert {e.symbol: e for e in entries}["K20(n,s) printed formula"].note == claim

    def planted(n, s, formula=co.printed_second_order):
        values = formula(n, s)
        if n == 8:
            values["K20"] += 1
        return values
    k20 = _rebuilt(monkeypatch, "printed_second_order", planted)["K20(n,s) printed formula"]
    assert k20.verdict == lg.MISMATCH and claim not in k20.note


def test_json_roundtrip(entries):
    doc = json.loads(lg.ledger_to_json(entries))
    assert len(doc) == len(entries)
    assert {"symbol", "location", "printed", "oracle", "verdict", "note"} <= set(doc[0])


def test_csv_columns(entries):
    rows = list(csv.reader(io.StringIO(lg.ledger_to_csv(entries))))
    assert rows[0] == ["symbol", "location", "printed", "oracle", "verdict", "note"]
    assert len(rows) == len(entries) + 1


def test_built_once_per_process_and_immutable(entries):
    assert lg.build_ledger() is lg.build_ledger() is entries
    with pytest.raises(dataclasses.FrozenInstanceError):
        entries[0].verdict = lg.MATCH


def test_serialized_ledger_is_pinned(entries):
    digest = lambda text: hashlib.sha256(text.encode()).hexdigest()
    assert digest(lg.ledger_to_csv(entries)) == \
        "4d489e697ca1859d9da24f8bcf65ab200291bc5197618c9b38845c8ade199d88"
    assert digest(lg.ledger_to_json(entries)) == \
        "d767e162ce38f8b8b9b285fd163f2ad9f59a065c6a22e9fd93a4a761a2e52cb4"


def test_format_number():
    assert lg.format_number(F(25, 16)) == "25/16"
    assert lg.format_number(F(14)) == "14"
    assert lg.format_number(0.1) == "0.10000000000000001"
    assert lg.format_number(3) == "3"


def test_format_tpoly():
    from fowler4.polys import UPoly
    assert lg.format_tpoly(UPoly([F(2), F(-1, 2)])) == "2 + -1/2/t"
    assert lg.format_tpoly({1: F(3), -2: F(1, 4)}) == "3*t + 1/4/t^2"


@pytest.fixture
def work_counts(monkeypatch):
    """Counts of symbol expansions and block derivations, on fresh caches.

    monkeypatch puts every original cache back afterwards, so the
    process-wide ledger and symbols are untouched."""
    counts = {"compose_linear": 0, "first_order": 0, "second_order": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(co, "compose_linear", counted("compose_linear", co.compose_linear))
    monkeypatch.setattr(co, "_char_symbol", functools.lru_cache(maxsize=1024, typed=True)(
        co._char_symbol.__wrapped__))
    monkeypatch.setattr(co, "_nonautonomous_oracle_polys", functools.cache(
        counted("first_order", co._nonautonomous_oracle_polys.__wrapped__)))
    # uncached, and the ledger calls it through its own binding
    second = counted("second_order", co.second_order_nonautonomous_oracle_polys)
    for module in (co, lg):
        monkeypatch.setattr(module, "second_order_nonautonomous_oracle_polys", second)
    return counts


def test_one_build_expands_each_symbol_once_and_derives_each_block_once(work_counts):
    # 42 distinct (n, s) at sigma = -1, two expansions each; sigma = +1 is
    # its sign flip.  One chain-rule and one second-order block per n = 5..12.
    lg.build_ledger.__wrapped__()
    assert work_counts == {"compose_linear": 84, "first_order": 8, "second_order": 8}


def test_printed_coefficients_are_computed_once_per_exact_point(monkeypatch):
    # the ledger build and then C01/C02, as in one `verify --suite
    # coefficients` child, on a fresh cache: 42 distinct exact (n, s), asked
    # for 49 times by the build and 92 more by C01/C02
    calls = []

    def counted(n, s):
        calls.append((n, s))
        return co._printed_autonomous(n, s)

    monkeypatch.setattr(co, "_printed_autonomous_exact", functools.lru_cache(maxsize=1024)(counted))
    lg.build_ledger.__wrapped__()
    built = len(calls)
    assert acceptance.criterion_1().passed and acceptance.criterion_2().passed
    assert len(calls) == built == len(set(calls)) == 42
    # each call returns the caller's own dict
    co.printed_autonomous(5, F(9))["K0"] = 0
    assert co.printed_autonomous(5, F(9))["K0"] == F(25, 16)
    # float s is computed on every call, outside the cache
    cached = len(calls)
    assert co.printed_autonomous(5, 9.0) == co.printed_autonomous(5, 9.0)
    assert len(calls) == cached and co._printed_autonomous_exact.cache_info().currsize == cached


def test_regime_classification_derives_no_block(work_counts):
    for n in range(5, 17):
        classify_regime(n, F(n, n - 4))
    assert work_counts["first_order"] == work_counts["second_order"] == 0
