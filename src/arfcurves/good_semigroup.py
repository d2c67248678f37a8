"""Good subsemigroups of N^d in a finite conductor-box representation.

A good semigroup is a submonoid of N^d that is closed under componentwise
min (property 1), has the pair-lifting property (2), and contains
delta + N^d for some conductor vector delta (property 3).  It is stored as
its componentwise minimal conductor delta together with the members inside
the box [0, delta]; membership of an arbitrary vector follows the rule

    alpha in S  <=>  min(alpha, delta) in small_elements.

The rule is a representation convention, not one of the axioms.  is_good
checks the axioms under it on the member set, with no grid, so its cost
and memory follow the members rather than the volume of the box.  Residues
and projections are read off the members, and Arf-ness off the trees of
the local factors, which mult_tree reads off their members (is_arf_good).
"""

from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import compress
from math import prod
from operator import add, ge, le, ne

from .errors import DomainError, ValidationError, echo, literal_int, literal_ints, literal_list
from .numerical import NumericalSemigroup


def _as_vector(value, d):
    vec = tuple(int(x) for x in value)
    if len(vec) != d:
        raise DomainError("expected a vector of dimension %d, got %s" % (d, echo(list(value))))
    if any(x < 0 for x in vec):
        raise ValidationError("vector coordinates must be natural numbers: %s" % echo(list(vec)))
    return vec


def _meet_irreducibles(d, small, members):
    """The meet-irreducible members of sorted `small`, or None when the
    min of two members is missing.

    In descending order, a member not yet recorded as min(m, s) strictly
    below both m and s is meet-irreducible: min(m, s) is checked for every
    member s, skipping the irreducibles already done.  This suffices.  By
    induction in that order every member is the min of the irreducibles
    above it, so the min of two members is a fold over irreducibles, and
    min(m, S) inside S for each irreducible m keeps every step in S.  For
    d = 1 the members form a chain, so none is missing.
    """
    if d == 1:
        return list(small)
    meets, done, rest = set(), [], list(small)
    for m in reversed(small):
        if m in meets:
            continue
        done.append(m)
        del rest[bisect_left(rest, m)]
        for s in rest:
            low = tuple(map(min, m, s))
            if low not in members:
                return None
            if low != s and low != m:
                meets.add(low)
    return done


def _additive_generators(conductor, small, members):
    """The additive generators of sorted `small`, or None when a capped sum
    of two members is missing.

    In ascending order, a nonzero member not yet recorded as an exact sum
    g + s is a generator g: cap(g + s) = min(g + s, conductor) is checked
    for every member s, skipping the generators already done, and g + s is
    recorded when no coordinate is capped.  This suffices.  Every member is
    an exact sum of generators, and capped addition is associative,
    cap(cap(x) + y) = cap(x + y) for y >= 0, so g + S inside S for each
    generator g gives S + S inside S.  A capped sum is not recorded:
    x = cap(g + x) would make x its own summand.
    """
    sums, done, rest = set(), [], list(small)
    for g in small:
        if g in sums or not any(g):
            continue
        done.append(g)
        for s in rest:
            total = tuple(map(add, g, s))
            capped = tuple(map(min, total, conductor))
            if capped not in members:
                return None
            if capped == total:
                sums.add(total)
        del rest[bisect_left(rest, g)]
    return done


def _axiom_failure(d, conductor, small):
    """First violated good-semigroup axiom as a message, or None.

    Min and capped-sum closure are decided from the meet-irreducible members
    and the additive generators alone.  Only when one fails are pairs of the
    sorted members scanned in order, each one set lookup (i < j for min,
    i <= j for the sum), to name the first failing pair.

    The lift scans pairs (i < j, pivot).  Under the cap rule the lifting
    witnesses for a and b at a pivot p where they agree are the members u
    that equal m = min(a, b) where a and b differ and are >= m elsewhere,
    with u_p >= min(a_p + 1, delta_p), since a witness above the conductor
    caps down to delta_p.  So the condition depends on (m, where a and b
    differ) alone, and witnesses are searched once per such key: a key
    that has passed is skipped.  Members are bucketed by their values where
    a and b differ, keeping the maximal ones, which suffice.  Only pairs
    that agree somewhere are visited, through an index of the members by
    coordinate value.
    """
    members = frozenset(small)
    if (0,) * d not in members:
        return "0 must be a member"
    if conductor not in members:
        return "the conductor must be a member"
    for v in small:
        if any(x > c for x, c in zip(v, conductor)):
            return "element %s lies outside the conductor box" % echo(list(v))
    if _meet_irreducibles(d, small, members) is None:
        for i, a in enumerate(small):
            for b in small[i + 1:]:
                if tuple(map(min, a, b)) not in members:
                    return "property (1) fails: min(%r, %r) is missing" % (list(a), list(b))
    if _additive_generators(conductor, small, members) is None:
        for i, a in enumerate(small):
            for b in small[i:]:
                if tuple(map(min, map(add, a, b), conductor)) not in members:
                    return "not closed under addition: %r + %r is missing" % (list(a), list(b))
    by_value = {}
    for k, v in enumerate(small):
        for c, x in enumerate(v):
            by_value.setdefault((c, x), []).append(k)
    buckets = {}  # where members differ -> {values there: maximal members}
    passed = set()
    for i, a in enumerate(small):
        partners = set()
        for c, x in enumerate(a):
            same = by_value[c, x]
            partners.update(same[bisect_right(same, i):])
        for j in sorted(partners):
            b = small[j]
            m = tuple(map(min, a, b))
            differ = tuple(map(ne, a, b))
            if (m, differ) in passed:
                continue
            bucket = buckets.get(differ)
            if bucket is None:
                bucket = buckets[differ] = {}
                # in descending order, a member comes after all that dominate it
                for u in reversed(small):
                    top = bucket.setdefault(tuple(compress(u, differ)), [])
                    if not any(all(map(ge, w, u)) for w in top):
                        top.append(u)
            top = bucket[tuple(compress(m, differ))]
            for p in range(d):
                if differ[p]:
                    continue
                q = m[:p] + (min(a[p] + 1, conductor[p]),) + m[p + 1:]
                if not any(all(map(ge, u, q)) for u in top):
                    return "property (2) fails at alpha=%r, beta=%r, coordinate %d" % (
                        list(a), list(b), p + 1)
            passed.add((m, differ))
    return None


def is_good(d, conductor, small_elements):
    """Check the good-semigroup axioms on a candidate box representation.

    Returns (True, None) or (False, message) naming the lexicographically
    first violation.  Conductor minimality is not part of the axioms and is
    not required here; the GoodSemigroup constructor enforces it, and
    `require_minimal_conductor` checks it alone.  Any conductor box is
    accepted: the checks follow the members.
    """
    d = int(d)
    if d < 1:
        return False, "d must be >= 1"
    try:
        delta = _as_vector(conductor, d)
        small = sorted({_as_vector(v, d) for v in small_elements})
    except (DomainError, ValidationError) as exc:
        return False, str(exc)
    message = _axiom_failure(d, delta, small)
    return (message is None), message


class GoodSemigroup:
    """Good subsemigroup of N^d: minimal conductor plus the members below it."""

    __slots__ = ("d", "conductor", "small_elements", "_small_set")

    def __init__(self, d, conductor, small_elements, validate=True):
        self.d = int(d)
        if self.d < 1:
            raise ValidationError("d must be >= 1")
        self.conductor = _as_vector(conductor, self.d)
        self.small_elements = tuple(sorted({_as_vector(v, self.d) for v in small_elements}))
        self._small_set = frozenset(self.small_elements)
        if validate:
            message = _axiom_failure(self.d, self.conductor, self.small_elements)
            if message is not None:
                raise ValidationError(message)
            self.require_minimal_conductor()

    def require_minimal_conductor(self):
        """Raise ValidationError when a conductor coordinate can decrease."""
        for j in range(self.d):
            if self.conductor[j] > 0:
                down = tuple(c - (1 if h == j else 0) for h, c in enumerate(self.conductor))
                if down in self._small_set:
                    raise ValidationError("conductor is not componentwise minimal: "
                                          "coordinate %d can decrease" % (j + 1,))

    def contains(self, alpha):
        vec = _as_vector(alpha, self.d)
        capped = tuple(min(x, c) for x, c in zip(vec, self.conductor))
        return capped in self._small_set

    @classmethod
    def _of(cls, conductor, members):
        """From int tuples that the package built: no conversion, no check."""
        S = cls.__new__(cls)
        S.d, S.conductor, S._small_set = len(conductor), conductor, frozenset(members)
        S.small_elements = tuple(sorted(S._small_set))
        return S

    @classmethod
    def natural_numbers(cls, d):
        if d < 1:
            raise ValidationError("d must be >= 1")
        return cls._of((0,) * d, [(0,) * d])

    @classmethod
    def from_numerical(cls, S):
        return cls._of((S.conductor,), [(m,) for m in (*S.small_elements, S.conductor)])

    def to_numerical(self):
        if self.d != 1:
            raise DomainError("only 1-dimensional semigroups convert to numerical ones")
        c = self.conductor[0]
        return NumericalSemigroup(c, [v[0] for v in self.small_elements if v[0] < c]
                                  or [0], validate=False)

    def __eq__(self, other):
        return (isinstance(other, GoodSemigroup)
                and self.d == other.d
                and self.conductor == other.conductor
                and self.small_elements == other.small_elements)

    def __hash__(self):
        return hash(("GoodSemigroup", self.d, self.conductor, self.small_elements))

    def __repr__(self):
        return "GoodSemigroup(d=%d, conductor=%r, small_elements=%r)" % (
            self.d, list(self.conductor), [list(v) for v in self.small_elements])


def _local_factors(S):
    """Coordinates of the local factors of S other than N: the j with
    delta_j > 0, grouped by the set of small elements that vanish at j."""
    factors = {}
    for j, c in enumerate(S.conductor):
        if c:
            factors.setdefault(tuple(v[j] == 0 for v in S.small_elements), []).append(j)
    return list(factors.values())


def is_local(S):
    """True iff 0 is the only member with a zero coordinate."""
    return S.d == 1 or _local_factors(S) == [list(range(S.d))]


def fine_multiplicity(S):
    """Componentwise minimal nonzero member of a local semigroup.

    The total multiplicity is the coordinate sum of the result.
    """
    if not is_local(S):
        raise DomainError("fine multiplicity requires a local semigroup")
    nonzero = [v for v in S.small_elements if any(v)]
    if not nonzero:
        return (1,) * S.d
    return tuple(min(v[c] for v in nonzero) for c in range(S.d))


def _boxed(corner, members):
    """The semigroup with these members in the box [0, corner], beyond which
    the cap rule holds at corner.  Coordinate j of the conductor drops while
    the slab below it, [delta_h, corner_h] in every other h, is all members.
    The first slab holds delta - e_j, so when that is missing coordinate j
    stays and no slab is counted.
    """
    delta = list(corner)
    for j, c in enumerate(corner):
        if not c or (*delta[:j], c - 1, *delta[j + 1:]) not in members:
            continue
        others = [h for h in range(len(delta)) if h != j]
        full = prod(corner[h] - delta[h] + 1 for h in others)
        counts = Counter(v[j] for v in members if all(v[h] >= delta[h] for h in others))
        while delta[j] and counts[delta[j] - 1] == full:
            delta[j] -= 1
    return GoodSemigroup._of(tuple(delta), [v for v in members if all(map(le, v, delta))])


def residue(S, alpha):
    """The semigroup S(alpha) - alpha = {beta - alpha : beta in S, beta >= alpha}.

    By the cap rule its members in the box max(delta - alpha, 0) are the
    max(v - alpha, 0) for the small elements v >= min(alpha, delta).
    """
    alpha = _as_vector(alpha, S.d)
    if not S.contains(alpha):
        raise DomainError("cannot take the residue at a non-member %s" % echo(list(alpha)))
    floor = tuple(map(min, alpha, S.conductor))
    return _boxed(tuple(max(c - a, 0) for c, a in zip(S.conductor, alpha)),
                  {tuple(max(x - a, 0) for x, a in zip(v, alpha))
                   for v in S.small_elements if all(map(ge, v, floor))})


def _project(S, coords):
    """The projection {(v_j for j in coords) : v in S}, in the order listed."""
    return _boxed(tuple(S.conductor[j] for j in coords),
                  {tuple(v[j] for j in coords) for v in S.small_elements})


def is_arf_good(S):
    """True iff residue(S, alpha) is closed under addition for every member.

    S is the product of its local factors (Barucci, D'Anna, Froeberg 2000)
    and a factor N, which is Arf, per coordinate with delta_j = 0.  Each
    local factor is Arf iff mult_tree._arf_tree reads its tree off it; the
    size refusals of that reading pass through as DomainErrors.
    """
    from .mult_tree import _arf_tree

    try:
        return all(_arf_tree(_project(S, coords)) for coords in _local_factors(S))
    except ValidationError:
        return False


def projection(S, j):
    """The numerical semigroup of j-th coordinates of members (1 <= j <= d)."""
    if not 1 <= j <= S.d:
        raise DomainError("branch index %d out of range 1..%d" % (j, S.d))
    return _project(S, (j - 1,)).to_numerical()


def plane_projection(S, j, h):
    """The projection {(v_j, v_h) : v in S} on coordinates j != h (1-based)."""
    for index in (j, h):
        if not 1 <= index <= S.d:
            raise DomainError("branch index %d out of range 1..%d" % (index, S.d))
    if j == h:
        raise DomainError("plane projection needs two distinct branch indices")
    return _project(S, (j - 1, h - 1))


def good_to_dict(S):
    return {"d": S.d, "conductor": list(S.conductor),
            "small_elements": [list(v) for v in S.small_elements]}


def good_literal(data):
    """(d, conductor, small_elements) of a literal, each of the right type."""
    for key in ("d", "conductor", "small_elements"):
        if key not in data:
            raise ValidationError("semigroup literal needs d, conductor and small_elements")
    return (literal_int(data["d"], "d"),
            literal_ints(data["conductor"], "conductor"),
            [literal_ints(v, "a small element")
             for v in literal_list(data["small_elements"], "small_elements")])


def good_from_dict(data):
    """Build from a literal {"d": 2, "conductor": [...], "small_elements": [[...], ...]}."""
    return GoodSemigroup(*good_literal(data))
