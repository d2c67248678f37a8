import math
import random
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arfcurves.errors import DomainError, InputError, TruncationError
from arfcurves.series import (EXACT, SeriesTuple, TruncatedSeries, parse_series,
                              valuation)

from helpers import parse_series_oracle, series_division_oracle


def series(text, variable="t", truncation=64):
    return TruncatedSeries({}, truncation) if text == "0" else parse_series(
        text, variable, truncation)


def test_constructor_drops_zero_and_beyond_truncation():
    f = TruncatedSeries({2: 0, 3: 1, 9: 5}, 8)
    assert f.coefficients == {3: Fraction(1)}
    assert f.truncation == 8


def test_constructor_rejects_negative_exponent_and_truncation():
    with pytest.raises(DomainError):
        TruncatedSeries({-1: 1}, 8)
    with pytest.raises(TruncationError):
        TruncatedSeries({0: 1}, 0)


def test_addition_keeps_smaller_truncation():
    f = TruncatedSeries({1: 1}, 10)
    g = TruncatedSeries({1: -1, 4: 2}, 6)
    h = f + g
    assert h.coefficients == {4: Fraction(2)}
    assert h.truncation == 6


def test_product_truncation_tracks_orders():
    f = series("t^4")
    g = series("t^6+t^7")
    assert (f * g).truncation == min(64 + 6, 64 + 4)
    assert (f * g).coefficients == {10: Fraction(1), 11: Fraction(1)}


def test_product_collision_reveals_depth_thirteen():
    f = series("t^4")
    g = series("t^6+t^7")
    h = g * g - f * f * f
    assert h.order() == 13
    assert h.coefficients == {13: Fraction(2), 14: Fraction(1)}


def test_division_golden():
    g = series("t^6+t^7")
    f = series("t^4")
    q = g / f
    assert q.coefficients == {2: Fraction(1), 3: Fraction(1)}
    assert q.truncation == 60


def test_exact_quotient_stops_with_its_remainder():
    # once the remainder is empty the quotient is complete: the division
    # costs its own terms, not the truncation order
    big = 10 ** 8
    start = time.perf_counter()
    q = series("t^5+2t^9", truncation=big) / series("t^2", truncation=big)
    r = series("t^6+t^7", truncation=big) / series("t^2+t^3", truncation=big)
    assert time.perf_counter() - start < 1.0
    assert q.coefficients == {3: Fraction(1), 7: Fraction(2)}
    assert r.coefficients == {4: Fraction(1)}
    assert q.truncation == r.truncation == big - 2


def test_division_geometric_tail():
    q = series("1", truncation=12) / series("1+t", truncation=12)
    assert [q.coefficients[e] for e in range(6)] == [
        Fraction((-1) ** e) for e in range(6)]


def test_division_requires_dividend_order():
    with pytest.raises(DomainError):
        series("t^2") / series("t^3")
    with pytest.raises(DomainError):
        series("t^2") / TruncatedSeries({}, 64)


def test_division_of_zero_keeps_truncation_bookkeeping():
    q = TruncatedSeries({}, 64) / series("t^4")
    assert q.is_zero()
    assert q.truncation == 60


def test_division_truncation_exhausted():
    with pytest.raises(TruncationError):
        TruncatedSeries({}, 2) / series("t^3")


def test_division_inverts_multiplication():
    f = series("t^2+3t^3+1/2*t^5")
    g = series("t^3+t^4")
    assert ((f * g) / g).coefficients == f.coefficients


def test_division_scales_with_its_quotient_not_per_term():
    # the lead 3 fails to divide every term: rescaling the remainder and the
    # quotient by the smallest factor each time takes over 10 s; doubling
    # powers of the lead rescale 13 times
    truncation = 8000
    start = time.perf_counter()
    q = series("1", truncation=truncation) / series("3+t", truncation=truncation)
    assert time.perf_counter() - start < 2.0
    # 1/(3+t) = sum (-1)^k t^k / 3^(k+1), over the denominator 3^8000
    assert q.denominator == 3 ** truncation and q.truncation == truncation
    assert q.numerators == {k: (-1) ** k * 3 ** (truncation - 1 - k) for k in range(truncation)}


DIVISION_LEADS = (1, -1, 2, -2, 3, 6, -6, Fraction(2, 3), Fraction(-5, 4), Fraction(7, 6), 2 ** 60)


def random_divisor(rng, truncation):
    """A divisor of order 0-5 with a lead from DIVISION_LEADS, dense (every
    exponent) or sparse (at most four more terms); now and then zero."""
    if rng.random() < 0.03:
        return TruncatedSeries({}, truncation)
    v = rng.randint(0, min(5, truncation - 1))
    terms = {v: rng.choice(DIVISION_LEADS)}
    rest = range(v + 1, truncation)
    exponents = rest if rng.random() < 0.5 else rng.sample(rest, min(len(rest), rng.randint(0, 4)))
    for e in exponents:
        terms[e] = rng.choice((1, -1, 2, 3, -4, Fraction(1, 2), Fraction(-3, 5), 0))
    return TruncatedSeries(terms, truncation)


def random_dividend(rng, divisor, truncation):
    """Zero, an exact multiple of the divisor, or a random series whose
    order may fall below the divisor's."""
    kind = rng.randrange(4)
    if kind == 0:
        return TruncatedSeries({}, truncation)
    if kind == 1 and not divisor.is_zero():
        factor = TruncatedSeries({e: rng.choice((1, -2, Fraction(3, 7)))
                                  for e in rng.sample(range(6), rng.randint(1, 3))}, truncation)
        return TruncatedSeries((factor * divisor).coefficients, truncation)
    low = rng.randint(0, min(6, truncation - 1))
    return TruncatedSeries({e: rng.choice((1, -1, 5, Fraction(2, 9), 2 ** 61))
                            for e in rng.sample(range(low, truncation),
                                                min(truncation - low, rng.randint(1, 8)))},
                           truncation)


def division_outcome(divide, f, g):
    try:
        q = divide(f, g)
    except (DomainError, TruncationError) as exc:
        return type(exc), str(exc)
    return q.numerators, q.denominator, q.truncation


def test_division_matches_the_oracle_on_fuzzed_series():
    rng = random.Random(18)
    cases = []
    for _ in range(3000):
        truncation = rng.randint(1, 64)
        g = random_divisor(rng, truncation)
        cases.append((random_dividend(rng, g, truncation if rng.random() < 0.7
                                      else rng.randint(1, 64)), g))
    # a dense divisor costs the oracle and the division alike O(t^2) terms
    # at large t, so these take three terms; t^v over one gives a dense
    # quotient, and a multiple an exact one
    for truncation, lead in ((1000, 3), (1000, 2 ** 60), (1500, 6), (2000, Fraction(2, 3)),
                             (4000, -1), (4000, 1)):
        v = rng.randint(0, 5)
        g = TruncatedSeries({v: lead, v + rng.randint(1, 4): rng.choice((1, -1, 5)),
                             v + rng.randint(5, 9): rng.choice((2, -3))}, truncation)
        cases.append((TruncatedSeries({v: 1}, truncation), g))
        cases.append((g * TruncatedSeries({0: 1, 3: Fraction(-2, 7)}, truncation), g))
    quotients, errors, scaled = 0, set(), 0
    for f, g in cases:
        outcome = division_outcome(TruncatedSeries.__truediv__, f, g)
        assert outcome == division_outcome(series_division_oracle, f, g), (f, g)
        if len(outcome) == 3:
            quotients += 1
            scaled += g.numerators[g.order()] not in (1, -1) and len(outcome[0]) > 1
        else:
            errors.add(outcome[1].split(" (")[0])
    # most divisions give a quotient, many by a lead other than +-1, and
    # every error of the division is reached
    assert quotients > 2000 and scaled > 1000 and len(errors) == 3, errors


def test_valuation_golden_pairs():
    t = series("t^4")
    u = series("u^2", "u")
    assert valuation(SeriesTuple([t, u])) == (4, 2)
    one_t = series("1+t")
    one_u = series("1+u", "u")
    assert valuation(SeriesTuple([one_t, one_u])) == (0, 0)
    assert valuation(SeriesTuple([series("t^6+t^7"), series("u^5", "u")])) == (6, 5)


def test_valuation_undecidable_names_component():
    element = SeriesTuple([series("t^2"), TruncatedSeries({}, 32)])
    with pytest.raises(TruncationError, match="component 2"):
        valuation(element)


def test_tuple_arithmetic_is_componentwise():
    a = SeriesTuple([series("t"), series("u^2", "u")])
    b = SeriesTuple([series("t^3"), series("u", "u")])
    assert (a * b).components[0] == series("t^4", truncation=65)
    assert (a + b).components[1].coefficients == {1: Fraction(1), 2: Fraction(1)}
    with pytest.raises(DomainError):
        a + SeriesTuple([series("t")])


def test_parse_series_forms():
    assert series("t").coefficients == {1: Fraction(1)}
    assert series("5").coefficients == {0: Fraction(5)}
    assert series("2u^2", "u").coefficients == {2: Fraction(2)}
    assert series("2*u^2", "u").coefficients == {2: Fraction(2)}
    assert series("3/2*t^3").coefficients == {3: Fraction(3, 2)}
    assert series("t^6+t^7").coefficients == {6: Fraction(1), 7: Fraction(1)}
    assert series("1-2t+3t^2").coefficients == {
        0: Fraction(1), 1: Fraction(-2), 2: Fraction(3)}
    assert series("-t^2+t^2").coefficients == {}
    assert parse_series("0", "t", 64).is_zero()


def test_parse_series_positioned_errors():
    with pytest.raises(InputError, match=r"unknown variable 'u'.*position 5"):
        parse_series("t^4+u^2", "t", 64)
    with pytest.raises(InputError, match=r"negative exponents.*position 3"):
        parse_series("t^-2", "t", 64)
    with pytest.raises(InputError, match="exponent"):
        parse_series("t^", "t", 64)
    with pytest.raises(InputError, match="dangling"):
        parse_series("t^2+", "t", 64)
    with pytest.raises(InputError, match="empty"):
        parse_series("   ", "t", 64)
    with pytest.raises(InputError, match="unexpected character"):
        parse_series("t?2", "t", 64)
    with pytest.raises(InputError, match="truncation"):
        parse_series("t^70", "t", 64)
    with pytest.raises(InputError, match="variable"):
        parse_series("2*", "t", 64)
    with pytest.raises(InputError, match=r"dangling '-'.*position 1"):
        parse_series("-", "t", 64)
    with pytest.raises(InputError, match=r"zero denominator.*position 2"):
        parse_series("-1/0*t", "t", 64)


# digits, names and operators, with "t" and "t^" weighted up so that about
# one parse in ten succeeds
FUZZ_PIECES = list("0123456789") + ["t", "t", "t^", "t^", "u", "_", "/", "^", "*", "+", "-",
                                     " ", "\t"]


def parse_outcome(parse, text, truncation, variable="t"):
    try:
        series = parse(text, variable, truncation)
    except (InputError, TruncationError) as exc:
        return type(exc), str(exc)
    return series.numerators, series.denominator, series.truncation


def test_parse_series_matches_the_oracle_on_fuzzed_strings():
    rng = random.Random(17)
    parsed, messages = 0, set()
    for _ in range(50000):
        text = "".join(rng.choice(FUZZ_PIECES) for _ in range(rng.randint(0, 12)))
        for truncation in (1, 5, 64):
            outcome = parse_outcome(parse_series, text, truncation)
            assert outcome == parse_outcome(parse_series_oracle, text, truncation), text
            if len(outcome) == 3:
                # canonical: what the public constructor makes of the coefficients
                series = parse_series(text, "t", truncation)
                assert series == TruncatedSeries(series.coefficients, truncation)
                assert 0 not in series.numerators.values()
                assert math.gcd(series.denominator, *series.numerators.values()) == 1
                parsed += 1
            else:
                messages.add(re.sub(r"\d+|'[^']*'", "", outcome[1]))
    # the corpus parses and reaches every message of the parser
    assert parsed > 10000 and len(messages) == 11, messages


def test_parse_series_cuts_long_tokens_as_the_oracle_does():
    # messages quote at most 40 characters of a token, exponent or variable
    name = "x" * 41
    for text, variable in (("t^4 " + "9" * 41, "t"), ("1/" + "0" * 50, "t"), ("t^" + "9" * 45, "t"),
                           (name + "^2", "t"), ("3*" + name, "t"), ("t " + name, "t"),
                           ("2*" + "9" * 41, "t"), ("t^2 " + "7/" + "8" * 60, "t"),
                           ("t^2+" + "v" * 44, "v" * 45)):
        outcome = parse_outcome(parse_series, text, 64, variable)
        assert outcome[0] is InputError and "..." in outcome[1] and len(outcome[1]) < 150, text
        assert parse_outcome(parse_series_oracle, text, 64, variable) == outcome
    # a token of 40 characters is quoted whole
    assert str(pytest.raises(InputError, parse_series, "t^4 " + "9" * 40, "t", 64).value) == (
        "expected '+' or '-' between terms, got %r (at position 5)" % ("9" * 40,))


def test_parse_series_keeps_ints_and_reads_fractions():
    f = parse_series("2*t^3-1/2*t^5+3/4+t^3", "t", 8)
    assert (f.numerators, f.denominator, f.truncation) == ({0: 3, 3: 12, 5: -2}, 4, 8)
    f = parse_series("1/2*t+1/2*t", "t", 8)
    assert (f.numerators, f.denominator) == ({1: 1}, 1)
    assert type(f.numerators[1]) is int


def test_parse_series_refuses_numbers_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    for text, position in (("t^4+t^" + "9" * (limit + 700), 7),
                           ("1" + "0" * (limit + 1) + "*t^6", 1),
                           ("t^2 + 3/" + "7" * (limit + 1), 7)):
        with pytest.raises(InputError) as caught:
            parse_series(text, "t", 64)
        assert str(caught.value).endswith(
            "exceeds the limit of %d digits (at position %d)" % (limit, position))


def test_to_string_round_trips():
    for text in ("t^4", "t^6+t^7", "2*t^2", "1/2*t^3-t^5", "1-2*t", "0"):
        rendered = series(text).to_string("t") if text != "0" else "0"
        assert series(rendered).coefficients == series(text).coefficients


@given(st.dictionaries(st.integers(0, 30), st.fractions(), max_size=6),
       st.dictionaries(st.integers(0, 30), st.fractions(), max_size=6))
def test_product_commutes_and_respects_known_terms(cf, cg):
    f = TruncatedSeries(cf, 32)
    g = TruncatedSeries(cg, 32)
    assert f * g == g * f
    exact_f = TruncatedSeries(cf, EXACT)
    exact_g = TruncatedSeries(cg, EXACT)
    product = f * g
    exact = exact_f * exact_g
    for exponent, coefficient in product.coefficients.items():
        assert exact.coefficients.get(exponent, 0) == coefficient


def dense(series, length):
    return [series.coefficients.get(e, Fraction(0)) for e in range(length)]


def assert_well_formed(series):
    """The invariant arithmetic results keep without re-validation: nonzero
    int numerators below the truncation over a positive int denominator,
    with content 1, and a view of nonzero Fractions."""
    assert all(type(e) is int and 0 <= e < series.truncation
               for e in series.numerators)
    assert all(type(n) is int and n != 0 for n in series.numerators.values())
    assert type(series.denominator) is int and series.denominator > 0
    assert math.gcd(series.denominator, *series.numerators.values()) == 1
    assert all(type(c) is Fraction and c != 0 for c in series.coefficients.values())


# small integers make sums and products cancel often
COEFFICIENTS = st.sampled_from([-2, -1, 1, 2]).map(Fraction) | st.fractions()


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(0, 24), COEFFICIENTS, max_size=6),
       st.dictionaries(st.integers(0, 24), COEFFICIENTS, max_size=6),
       st.integers(1, 24), st.integers(1, 24), COEFFICIENTS)
def test_arithmetic_results_are_well_formed_and_match_dense_reference(cf, cg, tf, tg, c):
    f = TruncatedSeries(cf, tf)
    g = TruncatedSeries(cg, tg)
    results = [f.plus_multiple(g, c), f + g, f - g, f * g, f - f, f.plus_multiple(f, -1)]
    for result in results:
        assert_well_formed(result)
    assert (f - f).is_zero() and f.plus_multiple(f, -1).is_zero()

    step = f.plus_multiple(g, c)
    assert step.truncation == min(tf, tg)
    assert dense(step, step.truncation) == [
        a + c * b for a, b in zip(dense(f, step.truncation), dense(g, step.truncation))]
    assert f + g == f.plus_multiple(g, 1) and f - g == f.plus_multiple(g, -1)

    product = f * g
    known = dense(product, product.truncation)
    a, b = dense(f, tf), dense(g, tg)
    for e in range(product.truncation):
        assert known[e] == sum(a[i] * b[e - i] for i in range(e + 1)
                               if i < tf and e - i < tg)

    v = g.order()
    if v is None or f.order_lower_bound() < v or min(tf, tg) <= v:
        return
    quotient = f / g
    assert_well_formed(quotient)
    back = quotient * g
    assert all(back.coefficients.get(e, 0) == f.coefficients.get(e, 0)
               for e in range(quotient.truncation))


def test_one_rational_series_built_two_ways_is_equal_and_hashes_equal():
    half = TruncatedSeries({1: Fraction(1, 2)}, 8)
    for other in (TruncatedSeries({1: "2/4"}, 8),
                  TruncatedSeries({1: 1, 9: 3}, 8).plus_multiple(
                      TruncatedSeries({1: 1}, 8), Fraction(-1, 2)),
                  series("2/3*t", truncation=8) * TruncatedSeries.constant(Fraction(3, 4))):
        assert other == half and hash(other) == hash(half)
        assert (other.numerators, other.denominator) == ({1: 1}, 2)
    assert TruncatedSeries({1: 1}, 8) != half
    assert TruncatedSeries({}, 8).denominator == 1
    assert (half - half).denominator == 1


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(0, 16), COEFFICIENTS, max_size=5),
       st.dictionaries(st.integers(0, 16), COEFFICIENTS, min_size=1, max_size=5),
       st.integers(1, 24), st.integers(1, 24))
def test_product_over_divisor_is_the_dividend(cf, cg, tf, tg):
    f = TruncatedSeries(cf, tf)
    g = TruncatedSeries(cg, tg)
    if g.is_zero() or (f * g).truncation <= g.order():
        return
    q = (f * g) / g
    assert_well_formed(q)
    back = TruncatedSeries(f.coefficients, q.truncation)
    assert q == back and hash(q) == hash(back)


def sympy_terms(sympy, expression, x, below):
    """{e: Fraction} of the Maclaurin coefficients of x^e, e < below."""
    polynomial = sympy.series(expression, x, 0, below).removeO()
    return {e: Fraction(int(c.p), int(c.q))
            for (e,), c in sympy.Poly(polynomial, x).terms() if c and e < below}


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(0, 10), COEFFICIENTS, max_size=4),
       st.dictionaries(st.integers(0, 10), COEFFICIENTS, max_size=4),
       st.integers(1, 12), st.integers(1, 12), COEFFICIENTS)
def test_arithmetic_matches_sympy_series(cf, cg, tf, tg, c):
    """Sums, products and quotients agree term for term with sympy's series
    of the same rational polynomials, below each result's truncation."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    f = TruncatedSeries(cf, tf)
    g = TruncatedSeries(cg, tg)

    def polynomial(s):
        return sum((sympy.Rational(a.numerator, a.denominator) * x ** e
                    for e, a in s.coefficients.items()), sympy.Integer(0))

    pf, pg = polynomial(f), polynomial(g)
    step = f.plus_multiple(g, c)
    assert step.coefficients == sympy_terms(
        sympy, pf + sympy.Rational(c.numerator, c.denominator) * pg, x, step.truncation)
    product = f * g
    assert product.coefficients == sympy_terms(sympy, pf * pg, x, product.truncation)
    v = g.order()
    if v is None or f.order_lower_bound() < v or min(tf, tg) <= v:
        return
    quotient = f / g
    assert quotient.coefficients == sympy_terms(sympy, pf / pg, x, quotient.truncation)
