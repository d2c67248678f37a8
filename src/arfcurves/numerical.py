"""Arf numerical semigroups: multiplicity sequences, closures, characters.

A numerical semigroup is stored as its conductor c together with the members
below c.  An Arf semigroup is equivalently described by its multiplicity
sequence e_0, e_1, ... (the multiplicities of its blowup chain), which is
eventually 1 and satisfies e_i = e_{i+1} + ... + e_{i+k_i} for a unique
k_i >= 1 at every index.
"""

from bisect import bisect_left
from collections import Counter
from itertools import accumulate
from math import gcd, inf

from .errors import (DomainError, InputError, ValidationError, literal_fields, literal_int,
                     literal_ints)

# Largest conductor from_generators and arf_closure compute before refusing.
MAX_CONDUCTOR = 2 ** 20


class MultiplicitySequence:
    """Eventually-1 sequence of blowup multiplicities, stored by its prefix.

    Only the entries before the trailing all-ones tail are kept; entry(i)
    returns 1 beyond the prefix.  Their sum is the conductor of the
    semigroup; a sum above MAX_CONDUCTOR is refused with a DomainError.
    The prefix sums are kept on first use, so prefix_sum is one lookup and
    index_of one bisection.
    """

    __slots__ = ("prefix", "_lengths", "_sums")

    def __init__(self, prefix, validate=True):
        entries = []
        for e in prefix:
            if int(e) != e or int(e) < 1:
                raise ValidationError("sequence entries must be positive integers, got %r" % (e,))
            entries.append(int(e))
        while entries and entries[-1] == 1:
            entries.pop()
        if sum(entries) > MAX_CONDUCTOR:
            raise DomainError("the conductor exceeds the limit of %d" % MAX_CONDUCTOR)
        self.prefix = tuple(entries)
        self._lengths = None  # the decomposition_lengths table, once computed
        self._sums = None  # (0, e_0, e_0 + e_1, ..., sum of the prefix), once computed
        if validate:
            decomposition_lengths(self)

    def entry(self, i):
        return self.prefix[i] if i < len(self.prefix) else 1

    def _kept_sums(self):
        if self._sums is None:
            self._sums = tuple(accumulate(self.prefix, initial=0))
        return self._sums

    def prefix_sum(self, n):
        """e_0 + ... + e_{n-1}, for n >= 0."""
        sums = self._kept_sums()
        return sums[n] if n < len(sums) else sums[-1] + n - len(sums) + 1

    def index_of(self, value):
        """The least k with e_0 + ... + e_k >= value."""
        sums = self._kept_sums()
        if value > sums[-1]:
            return len(sums) - 2 + value - sums[-1]
        return bisect_left(sums, value, 1) - 1

    def __eq__(self, other):
        return isinstance(other, MultiplicitySequence) and self.prefix == other.prefix

    def __hash__(self):
        return hash(("MultiplicitySequence", self.prefix))

    def __repr__(self):
        return "MultiplicitySequence(%r)" % (list(self.prefix),)


class NumericalSemigroup:
    """Cofinite additive submonoid of N: conductor plus the members below it."""

    __slots__ = ("conductor", "small_elements", "_small_set")

    def __init__(self, conductor, small_elements, validate=True):
        c = int(conductor)
        small = tuple(sorted({int(s) for s in small_elements}))
        if validate:
            if c < 0:
                raise ValidationError("conductor must be a natural number")
            if c == 0:
                if small != (0,):
                    raise ValidationError("the full semigroup N is written with small_elements [0]")
            else:
                if not small or small[0] != 0:
                    raise ValidationError("0 must be a member")
                if small[-1] >= c:
                    raise ValidationError("small elements must be below the conductor")
                if c - 1 in small:
                    raise ValidationError("conductor is not minimal: %d is a member" % (c - 1))
        self.conductor = c
        self.small_elements = small
        self._small_set = frozenset(small)
        if validate:
            self._check_closed()

    def _check_closed(self):
        for i, a in enumerate(self.small_elements):
            for b in self.small_elements[i:]:
                if not self.contains(a + b):
                    raise ValidationError(
                        "not closed under addition: %d + %d missing" % (a, b))

    def contains(self, n):
        n = int(n)
        return n >= self.conductor or n in self._small_set

    def elements_up_to(self, bound):
        """Sorted members in [0, bound]."""
        out = [s for s in self.small_elements if s <= bound]
        start = self.conductor
        if out and out[-1] >= start:
            start = out[-1] + 1
        out.extend(range(start, bound + 1))
        return out

    def multiplicity(self):
        """Smallest nonzero member."""
        if len(self.small_elements) > 1:
            return self.small_elements[1]
        return self.conductor if self.conductor > 0 else 1

    @classmethod
    def natural_numbers(cls):
        return cls(0, (0,), validate=False)

    @classmethod
    def from_generators(cls, generators):
        """The semigroup <G> generated by G; requires gcd(G) = 1.

        The Apery set of m = min(G) comes from the round-robin algorithm of
        Boecker and Liptak 2007 in O(|G| m) steps; its largest entry is the
        conductor plus m - 1.  A conductor above MAX_CONDUCTOR is refused.
        """
        gens = sorted({int(g) for g in generators})
        if not gens:
            raise DomainError("at least one generator is required")
        if gens[0] <= 0:
            raise DomainError("generators must be positive")
        g = gcd(*gens)
        if g != 1:
            raise DomainError("gcd of generators is %d, not 1; the complement would be infinite" % g)
        m = gens[0]
        if m == 1:
            return cls.natural_numbers()
        if m > MAX_CONDUCTOR:
            raise DomainError("the conductor exceeds the limit of %d" % MAX_CONDUCTOR)
        apery = [0] + [inf] * (m - 1)
        for b in gens[1:]:
            step = gcd(m, b)
            for r in range(step):
                n = min(apery[r::step])
                for _ in range(m // step - 1 if n < inf else 0):
                    n = min(n + b, apery[(n + b) % m])
                    apery[n % m] = n
        conductor = max(apery) - m + 1
        if conductor > MAX_CONDUCTOR:
            raise DomainError("the conductor exceeds the limit of %d" % MAX_CONDUCTOR)
        small = [n for n in range(conductor) if n >= apery[n % m]]
        return cls(conductor, small, validate=False)

    def __eq__(self, other):
        return (isinstance(other, NumericalSemigroup)
                and self.conductor == other.conductor
                and self.small_elements == other.small_elements)

    def __hash__(self):
        return hash(("NumericalSemigroup", self.conductor, self.small_elements))

    def __repr__(self):
        return "NumericalSemigroup(conductor=%d, small_elements=%r)" % (
            self.conductor, list(self.small_elements))


def seq_to_semigroup(seq):
    """The semigroup {0, e_0, e_0 + e_1, ...} of prefix sums of seq."""
    sums = list(accumulate(seq.prefix, initial=0))
    return NumericalSemigroup(sums[-1], sums[:-1] or [0], validate=False)


def semigroup_to_seq(S):
    """Differences of consecutive members of S and its conductor.

    They form a multiplicity sequence, each e_i a sum of the entries right
    after it, iff S is Arf (Lipman 1971, "Stable ideals and Arf rings");
    otherwise ValidationError is raised.  The cost is linear in the conductor.
    """
    elems = S.small_elements + ((S.conductor,) if S.conductor else ())
    try:
        return MultiplicitySequence([b - a for a, b in zip(elems, elems[1:])])
    except ValidationError:
        raise ValidationError("semigroup is not Arf; its element differences are not "
                              "a multiplicity sequence")


def is_arf(S):
    """True iff S(s) - s is closed under addition for every member s, that is,
    iff semigroup_to_seq accepts S."""
    try:
        semigroup_to_seq(S)
    except ValidationError:
        return False
    return True


def arf_closure(generators):
    """Smallest Arf semigroup containing the generators (gcd must be 1)."""
    return seq_to_semigroup(_closure_seq(generators))


def _closure_seq(generators):
    """Multiplicity sequence of arf_closure(generators).

    Uses the blowup recursion: strip the multiplicity e_0 = min(G \\ {0}),
    shift the rest down by e_0, re-adjoin e_0, and repeat until 1 appears.
    The collected minima form the multiplicity sequence of the closure, and
    their sum is its conductor; a sum above MAX_CONDUCTOR is refused.
    """
    gens = {int(g) for g in generators}
    gens.discard(0)
    if not gens:
        raise DomainError("at least one positive generator is required")
    if min(gens) < 0:
        raise DomainError("generators must be positive")
    g = gcd(*gens)
    if g != 1:
        raise DomainError("gcd of generators is %d, not 1; the complement would be infinite" % g)
    prefix, conductor, current = [], 0, gens
    while 1 not in current:
        e0 = min(current)
        prefix.append(e0)
        conductor += e0
        if conductor > MAX_CONDUCTOR:
            raise DomainError("the conductor exceeds the limit of %d" % MAX_CONDUCTOR)
        current = {x - e0 for x in current if x > e0} | {e0}
    return MultiplicitySequence(prefix)


def decomposition_lengths(seq):
    """The unique k_i with e_i = e_{i+1} + ... + e_{i+k_i}, for i = 0..M.

    M = prefix length + max(k_i) + 1; beyond the prefix every k_i is 1.
    Raises ValidationError naming the first index where no k exists.  The
    table is kept on seq; each call returns a new list."""
    if seq._lengths is None:
        ks = []
        n = len(seq.prefix)
        for i, target in enumerate(seq.prefix):
            total = k = 0
            while total < target and i + k + 1 < n:  # past the prefix, add ones at once
                k += 1
                total += seq.prefix[i + k]
            if total > target:
                raise ValidationError("invalid sequence: e_%d = %d is not a sum of "
                                      "consecutive successors" % (i, target))
            ks.append(k + target - total)
        seq._lengths = tuple(ks) + (1,) * (max(ks, default=1) + 2)
    return list(seq._lengths)


def restriction_numbers(seq):
    """r(e_j) = #{i < j : i + k_i >= j}, for the same index range as decomposition_lengths.

    Index j adds its own decomposition (k_j >= 1) and drops those ending at j,
    so r(e_{j+1}) = r(e_j) + 1 - #{i : i + k_i = j}: one running sum."""
    ks = decomposition_lengths(seq)
    ends = Counter(i + k for i, k in enumerate(ks))
    return list(accumulate((1 - ends[j] for j in range(len(ks) - 1)), initial=0))


def characters_of_seq(seq):
    """Arf characters read off a multiplicity sequence: the prefix sums e_0 + ... + e_j
    at the indices j where no decomposition ends, no i having i + k_i = j; these
    are the j with r(e_j) < r(e_{j+1})."""
    ks = decomposition_lengths(seq)
    ends = {i + k for i, k in enumerate(ks)}
    return tuple(seq.prefix_sum(j + 1) for j in range(len(ks) - 1) if j not in ends)


def arf_characters(S):
    """The Arf system of generators of an Arf semigroup S (sorted tuple).

    arf_closure of the result is S again, and no proper subset has that property.
    """
    return characters_of_seq(semigroup_to_seq(S))


def arfrank(S):
    """Cardinality of the Arf system of generators."""
    return len(arf_characters(S))


def blowup_chain(S):
    """The chain S = S_0 < S_1 < ... < S_n = N with S_{i+1} = (S_i \\ {0}) - e_i."""
    seq = semigroup_to_seq(S)
    return [seq_to_semigroup(MultiplicitySequence(seq.prefix[i:], validate=False))
            for i in range(len(seq.prefix) + 1)]


def semigroup_to_dict(S):
    return {"conductor": S.conductor, "small_elements": list(S.small_elements)}


def semigroup_from_dict(data):
    """Build from a literal: {"generators": [...]} or {"conductor": c, "small_elements": [...]}."""
    literal_fields(data, (), "semigroup")
    if "generators" in data:
        return NumericalSemigroup.from_generators(literal_ints(data["generators"], "generators"))
    if "conductor" in data and "small_elements" in data:
        return NumericalSemigroup(literal_int(data["conductor"], "conductor"),
                                  literal_ints(data["small_elements"], "small_elements"))
    raise InputError("semigroup literal needs either generators or conductor + small_elements")
