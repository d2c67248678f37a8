"""Truncated formal power series with exact rational coefficients.

A TruncatedSeries stores finitely many terms c_e * v^e with rational
coefficients together with a truncation order t: the terms with e < t are
exactly the terms of the represented series below t, and nothing is known
from t on.  Arithmetic propagates the truncation honestly -- a sum is known
up to the smaller of the operand orders, a product up to

    min(t_f + ord(g), t_g + ord(f)),

and a quotient up to min(t_f, t_g) - ord(g) -- so a computed term is always
a true term of the exact result.  Constants are exact; they carry the
sentinel order EXACT, which behaves as "known to every order".

The coefficients are held fraction-free: nonzero integer numerators below
the truncation over one positive integer denominator, with content
gcd(denominator, *numerators) == 1.  That form is canonical, so equality
and hashing are value equality, and every operation runs on ints and
divides the content out once per result (`_of`).  A quotient is integer
long division that scales the remainder by doubling powers of the
divisor's lead when the lead does not divide a term, so it costs its
quotient terms plus O(log t) rescales.  `coefficients` is a read-only
Fraction view for printing and inspection, not for arithmetic.

The public constructor validates outside input.  Arithmetic builds its
result directly, and so does `parse_series`: one pass over the tokens of a
literal gives the fraction-free numerators, with integer coefficients kept
as ints and a Fraction only for p/q.  Every linear step is one call
f.plus_multiple(g, c) = f + c*g, and `+` and `-` are its c = +1, -1 cases.

SeriesTuple bundles d components, one per branch of a curve, and is the
element type of the branch-ring algebra computations.
"""

import itertools
import math
import re
import sys
from fractions import Fraction

from .errors import LITERAL_ECHO, DomainError, InputError, TruncationError, echo

# Truncation order of exactly known series (constants).  Large enough that
# it never constrains a computation; small enough that sums of a few of
# them stay exact integers.
EXACT = 10 ** 9


class TruncatedSeries:
    """Finitely many exact terms of a power series, known below `truncation`."""

    __slots__ = ("numerators", "denominator", "truncation")

    def __init__(self, coefficients, truncation):
        truncation = int(truncation)
        if truncation <= 0:
            raise TruncationError("truncation order must be positive, got %d" % truncation)
        terms = {}
        for exponent, coefficient in dict(coefficients).items():
            exponent = int(exponent)
            if exponent < 0:
                raise DomainError("negative exponent %d in a power series" % exponent)
            coefficient = Fraction(coefficient)
            # terms at or beyond the truncation carry no information
            if coefficient != 0 and exponent < truncation:
                terms[exponent] = coefficient
        # over the lcm of the reduced denominators the content is already 1
        denominator = math.lcm(*(c.denominator for c in terms.values()))
        self.numerators = {e: c.numerator * (denominator // c.denominator)
                           for e, c in terms.items()}
        self.denominator = denominator
        self.truncation = truncation

    @classmethod
    def constant(cls, value):
        return cls({0: Fraction(value)}, EXACT)

    @classmethod
    def _of(cls, numerators, denominator, truncation):
        """The series numerators/denominator, from nonzero int numerators
        below `truncation` and a positive denominator; divides out the content."""
        if denominator != 1:
            content = math.gcd(denominator, *numerators.values())
            if content != 1:
                numerators = {e: n // content for e, n in numerators.items()}
                denominator //= content
        series = cls.__new__(cls)
        series.numerators = numerators
        series.denominator = denominator
        series.truncation = truncation
        return series

    @property
    def coefficients(self):
        """The known terms as {exponent: Fraction}, built on each access."""
        return {e: Fraction(n, self.denominator) for e, n in self.numerators.items()}

    def is_zero(self):
        """True when no term is known; the tail beyond truncation may differ."""
        return not self.numerators

    def order(self):
        """Exponent of the lowest known term, or None when none is known."""
        return min(self.numerators) if self.numerators else None

    def order_lower_bound(self):
        return min(self.numerators) if self.numerators else self.truncation

    def constant_term(self):
        return Fraction(self.numerators.get(0, 0), self.denominator)

    def plus_multiple(self, other, c):
        """self + c*other (c an int or a Fraction) up to the smaller truncation.

        Both numerator dicts are scaled to the lcm of the two denominators
        (other's times c's)."""
        truncation = min(self.truncation, other.truncation)
        a, b = self.denominator, other.denominator * c.denominator
        denominator = math.lcm(a, b)
        sa, sb = denominator // a, c.numerator * (denominator // b)
        if sa == 1 and self.truncation == truncation:
            terms = self.numerators.copy()
        else:
            terms = {e: sa * n for e, n in self.numerators.items() if e < truncation}
        for e, n in other.numerators.items():
            if e < truncation:
                total = terms.get(e, 0) + sb * n
                if total:
                    terms[e] = total
                else:
                    terms.pop(e, None)
        return TruncatedSeries._of(terms, denominator, truncation)

    def __add__(self, other):
        return self.plus_multiple(other, 1)

    def __sub__(self, other):
        return self.plus_multiple(other, -1)

    def __mul__(self, other):
        truncation = min(
            self.truncation + other.order_lower_bound(),
            other.truncation + self.order_lower_bound(),
        )
        truncation = min(truncation, EXACT)
        terms = {}
        for e1, n1 in self.numerators.items():
            for e2, n2 in other.numerators.items():
                e = e1 + e2
                if e < truncation:
                    terms[e] = terms.get(e, 0) + n1 * n2
        return TruncatedSeries._of({e: n for e, n in terms.items() if n},
                                   self.denominator * other.denominator, truncation)

    def __truediv__(self, other):
        """Series division; the dividend's order must not fall below the divisor's.

        Integer long division of the numerators: when the divisor's lead
        does not divide the current remainder term, the remainder and the
        quotient are scaled first, and the scale joins the denominator.
        The i-th scale (i = 0, 1, ...) at term e is |lead|^min(2^i, t - e)
        for the quotient's truncation t.  Scaled by |lead|^k at term e, the
        quotient terms e..e+k-1 come out integral, so the next scale comes
        k terms later at the earliest: a division scales O(log t) times, and
        by at most the |lead|^(t - e) that a dense quotient from its first
        term e needs anyway.  A lead of +-1 never scales."""
        v = other.order()
        if v is None:
            raise DomainError("division by a series with no known terms")
        if self.numerators and min(self.numerators) < v:
            raise DomainError(
                "series division needs dividend order >= divisor order (%d < %d)"
                % (min(self.numerators), v)
            )
        truncation = min(self.truncation, other.truncation) - v
        if truncation <= 0:
            raise TruncationError(
                "truncation exhausted in series division; rerun with a larger truncation order"
            )
        divisor = {e - v: n for e, n in other.numerators.items() if e - v < truncation}
        lead = divisor.pop(0)
        remainder = {e - v: n for e, n in self.numerators.items() if e - v < truncation}
        quotient = {}
        scale, power = 1, 1
        for e in range(truncation):
            if not remainder:
                break
            r = remainder.pop(e, 0)
            if not r:
                continue
            if r % lead:
                s = abs(lead) ** min(power, truncation - e)
                power *= 2
                remainder = {k: s * n for k, n in remainder.items()}
                quotient = {k: s * n for k, n in quotient.items()}
                scale *= s
                r *= s
            q = r // lead
            quotient[e] = q
            for de, n in divisor.items():
                if e + de < truncation:
                    remainder[e + de] = remainder.get(e + de, 0) - q * n
        # self/other = (quotient/scale) * (other.denominator/self.denominator)
        return TruncatedSeries._of(
            {e: q * other.denominator for e, q in quotient.items()},
            scale * self.denominator, truncation)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.numerators == other.numerators
                and self.denominator == other.denominator
                and self.truncation == other.truncation)

    def __hash__(self):
        return hash((frozenset(self.numerators.items()), self.denominator, self.truncation))

    def __repr__(self):
        return "TruncatedSeries(%r, truncation=%d)" % (self.coefficients, self.truncation)

    def to_string(self, variable):
        """Render as a sum of `c*v^e` terms in increasing exponent order."""
        coefficients = self.coefficients
        if not coefficients:
            return "0"
        parts = []
        for exponent in sorted(coefficients):
            coefficient = coefficients[exponent]
            if exponent == 0:
                term = str(coefficient)
            else:
                power = variable if exponent == 1 else "%s^%d" % (variable, exponent)
                if coefficient == 1:
                    term = power
                elif coefficient == -1:
                    term = "-" + power
                else:
                    term = "%s*%s" % (coefficient, power)
            if parts and not term.startswith("-"):
                parts.append("+")
            parts.append(term)
        return "".join(parts)


class SeriesTuple:
    """One truncated series per branch; arithmetic is componentwise."""

    __slots__ = ("components",)

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise DomainError("a series tuple needs at least one component")
        for component in components:
            if not isinstance(component, TruncatedSeries):
                raise DomainError("series tuple components must be TruncatedSeries")
        self.components = components

    @property
    def d(self):
        return len(self.components)

    @classmethod
    def constant(cls, value, d):
        return cls([TruncatedSeries.constant(value)] * d)

    def is_zero(self):
        return all(component.is_zero() for component in self.components)

    def _zip(self, other, op):
        """The tuple of op(a, b) over paired components, built once."""
        if not isinstance(other, SeriesTuple) or other.d != self.d:
            raise DomainError("series tuples must have the same number of components")
        result = SeriesTuple.__new__(SeriesTuple)
        result.components = tuple(map(op, self.components, other.components))
        return result

    def plus_multiple(self, other, c):
        return self._zip(other, lambda a, b: a.plus_multiple(b, c))

    def __add__(self, other):
        return self._zip(other, TruncatedSeries.__add__)

    def __mul__(self, other):
        return self._zip(other, TruncatedSeries.__mul__)

    def __truediv__(self, other):
        return self._zip(other, TruncatedSeries.__truediv__)

    def __eq__(self, other):
        if not isinstance(other, SeriesTuple):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return "SeriesTuple(%r)" % (list(self.components),)


def valuation(element):
    """Componentwise order of a SeriesTuple.

    A component with no known term is either identically zero or zero up to
    its truncation; in both cases the order cannot be decided, so the call
    fails rather than guess.
    """
    orders = []
    for index, component in enumerate(element.components):
        order = component.order()
        if order is None:
            raise TruncationError(
                "valuation undecidable at this truncation (component %d is zero up to order %d)"
                % (index + 1, component.truncation)
            )
        orders.append(order)
    return tuple(orders)


# findall gives one (numerator, denominator, name, operator, other) per token;
# `other` is any non-space character that starts no token, an error.
_TOKEN = re.compile(r"(?P<numerator>\d+)(?:/(?P<denominator>\d+))?"
                    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<operator>[*^+-])|(?P<other>\S)")


def _fail(text, tokens, index, message, got=False):
    """The InputError at the token `index`, with ", got <token>" when `got`.
    A character that starts no token is reported instead, wherever it is."""
    bad = next((i for i, token in enumerate(tokens) if token[4]), None)
    if bad is not None:
        index, message, got = bad, "unexpected character %r" % tokens[bad][4], False
    match = next(itertools.islice(_TOKEN.finditer(text), index, None))
    return InputError(message + (", got " + echo(match.group()) if got else ""), match.start() + 1)


def _integer(digits, text, tokens, index):
    """int(digits), or the InputError at the token when the digits pass
    Python's limit on int() of a string."""
    try:
        return int(digits)
    except ValueError:
        raise _fail(text, tokens, index, "a number of %d digits exceeds the limit of %d digits"
                    % (len(digits), sys.get_int_max_str_digits())) from None


def parse_series(text, variable, truncation):
    """Parse a sum of `c`, `c*v^k`, `v^k`, `v` terms into a TruncatedSeries.

    Coefficients are integers or p/q fractions; `*` may be omitted.  The
    only admissible variable is `variable`; anything else, and any negative
    exponent, is reported with its 1-based position in the text.
    """
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise InputError("empty series expression", 1)
    count, index, terms, fractional = len(tokens), 0, {}, False
    while index < count:
        # a sign: optional before the first term, required between terms
        sign = tokens[index][3]
        if sign == "+" or sign == "-":
            index += 1
            if index == count:
                raise _fail(text, tokens, index - 1, "dangling %r at the end of the series" % sign)
        elif index:
            raise _fail(text, tokens, index, "expected '+' or '-' between terms", got=True)
        coefficient = -1 if sign == "-" else 1
        numerator, denominator, name, _, _ = tokens[index]
        if numerator:
            coefficient *= _integer(numerator, text, tokens, index)
            if denominator:
                q = _integer(denominator, text, tokens, index)
                if not q:
                    raise _fail(text, tokens, index,
                                "zero denominator in " + echo(numerator + "/" + denominator))
                coefficient, fractional = Fraction(coefficient, q), True
            index += 1
            if index < count and tokens[index][3] == "*":
                index += 1
                if index == count:
                    raise _fail(text, tokens, index - 1, "expected a variable after '*'")
            elif index == count or not tokens[index][2]:
                terms[0] = terms.get(0, 0) + coefficient
                continue
            name = tokens[index][2]
        if not name:
            raise _fail(text, tokens, index, "expected a variable name", got=True)
        if name != variable:
            raise _fail(text, tokens, index,
                        "unknown variable %s (expected %s)" % (echo(name), echo(variable)))
        at, exponent = index, 1
        index += 1
        if index < count and tokens[index][3] == "^":
            index += 1
            negative = index < count and tokens[index][3] == "-"
            if negative:
                index += 1
            if index == count or not tokens[index][0] or tokens[index][1]:
                raise _fail(text, tokens, index if index < count else at,
                            "expected an exponent after '^'")
            if negative:
                raise _fail(text, tokens, index - 1, "negative exponents are not allowed")
            exponent = _integer(tokens[index][0], text, tokens, index)
            index += 1
        if exponent >= truncation:
            digits = str(exponent)
            if len(digits) > LITERAL_ECHO:
                digits = digits[:LITERAL_ECHO] + "..."
            raise _fail(text, tokens, at, "exponent %s is not below the truncation order %d"
                        % (digits, truncation))
        terms[exponent] = terms.get(exponent, 0) + coefficient
    if truncation <= 0:
        return TruncatedSeries(terms, truncation)  # the constructor's error
    numerators = {e: c for e, c in terms.items() if c}
    if not fractional:
        return TruncatedSeries._of(numerators, 1, truncation)
    denominator = math.lcm(*(c.denominator for c in numerators.values()))
    return TruncatedSeries._of({e: c.numerator * (denominator // c.denominator)
                                for e, c in numerators.items()}, denominator, truncation)
