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

from bisect import bisect_left
from collections import Counter
from functools import cache, reduce
from math import prod
from operator import add, ge, le, or_

from .errors import (DomainError, ValidationError, echo, literal_fields, literal_int, literal_ints,
                     literal_list)
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
    d = 1 the members form a chain: none is missing, and all are irreducible.
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


def _lift_gaps(conductor, m, irreducibles, index):
    """The E_p(m) of _axiom_failure as coordinate bit masks, and whether the
    lift holds at m.  `index` lists positions in `irreducibles` by (i, g_i)."""
    below = [i for i, (x, c) in enumerate(zip(m, conductor)) if x < c]
    ties = {}  # irreducible -> the coordinates below delta where it equals m
    for i in below:
        for k in index[i, m[i]]:
            ties[k] = ties.get(k, 0) | 1 << i
    ties = [t for k, t in ties.items() if all(map(ge, irreducibles[k], m))]
    gaps, free = [0] * len(m), sum(1 << i for i in below)
    for p in below:  # c_p(m) equals m where an irreducible >= m with g_p > m_p does
        gaps[p] = free & ~reduce(or_, (t for t in ties if not t >> p & 1), 0)
    return gaps, not any(gaps[p] & ~t for t in ties for p in below if t >> p & 1)


def _axiom_failure(d, conductor, small):
    """First violated good-semigroup axiom as a message, or None.

    All three axioms are decided from the meet-irreducibles; only a failure
    scans the sorted pairs in order, to name the first one.  A failing min
    is always named, so past (1) each member is the min of the irreducibles
    above it.  Addition and the cap min(x, delta) distribute over
    componentwise min, so cap(a + b) is the min of the cap(g + h) over
    irreducibles g >= a, h >= b: S + S lies in S iff each of those is.

    Lift witnesses for a, b at a pivot p where they agree are the members
    u >= m = min(a, b) equal to m where a and b differ, with u_p >=
    min(m_p + 1, delta_p) under the cap rule.  Under (1), the min of
    witnesses for (m, a) and (m, b) is one for (a, b), so pairs m < a
    suffice.  Their witnesses are min-closed, so one exists iff c_p(m), the
    least member >= min(m + e_p, delta), is one: iff a = m on E_p(m), where
    c_p(m) > m.  c_p(m) is the min of the irreducibles g >= m with g_p >
    m_p.  If a >= m with a_p = m_p exceeds m in E_p(m), so does the
    irreducible g >= a with g_p = m_p that a's min-decomposition has.  So
    only irreducibles above m equal to m somewhere below delta are read,
    through an index by (coordinate, value).  At d = 1 no two members agree
    and differ, so every member passes.  A pair (a, b) fails at p iff a_p =
    b_p and a, b differ in E_p(min(a, b)); then min(a, b) fails, and it is
    <= a componentwise, so also in sorted order: the naming scan starts at
    the first failing member.
    """
    members = frozenset(small)
    if (0,) * d not in members:
        return "0 must be a member"
    if conductor not in members:
        return "the conductor must be a member"
    for v in small:
        if any(x > c for x, c in zip(v, conductor)):
            return "element %s lies outside the conductor box" % echo(list(v))
    irreducibles = _meet_irreducibles(d, small, members)
    if irreducibles is None:
        for i, a in enumerate(small):
            for b in small[i + 1:]:
                if tuple(map(min, a, b)) not in members:
                    return "property (1) fails: min(%r, %r) is missing" % (list(a), list(b))
    capped_sum = lambda a, b: tuple(map(min, map(add, a, b), conductor))
    if any(capped_sum(g, h) not in members for i, g in enumerate(irreducibles)
           for h in irreducibles[i:]):
        for i, a in enumerate(small):
            for b in small[i:]:
                if capped_sum(a, b) not in members:
                    return "not closed under addition: %r + %r is missing" % (list(a), list(b))
    index = {}
    for k, g in enumerate(irreducibles):
        for key in enumerate(g):
            index.setdefault(key, []).append(k)
    first = next((i for i, m in enumerate(small)
                  if not _lift_gaps(conductor, m, irreducibles, index)[1]), None)
    if first is None:
        return None
    gaps = cache(lambda m: _lift_gaps(conductor, m, irreducibles, index)[0])
    for i, a in enumerate(small[first:], first):
        for b in small[i + 1:]:
            for p in range(d):
                if a[p] == b[p] and gaps(tuple(map(min, a, b)))[p] & sum(
                        1 << c for c in range(d) if a[c] != b[c]):
                    return "property (2) fails at alpha=%r, beta=%r, coordinate %d" % (
                        list(a), list(b), p + 1)


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
    size refusals of that reading pass through as DomainErrors.  A factor
    on all coordinates in order is S itself when no delta - e_j is a member,
    and is then read in place.
    """
    from .mult_tree import _arf_tree

    whole = list(range(S.d))
    minimal = not any(c and (*S.conductor[:j], c - 1, *S.conductor[j + 1:]) in S._small_set
                      for j, c in enumerate(S.conductor))
    try:
        return all(_arf_tree(S if minimal and coords == whole else _project(S, coords))
                   for coords in _local_factors(S))
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
    literal_fields(data, ("d", "conductor", "small_elements"), "semigroup")
    return (literal_int(data["d"], "d", 1),
            literal_ints(data["conductor"], "conductor"),
            [literal_ints(v, "a small element")
             for v in literal_list(data["small_elements"], "small_elements")])


def good_from_dict(data):
    """Build from a literal {"d": 2, "conductor": [...], "small_elements": [[...], ...]}."""
    return GoodSemigroup(*good_literal(data))
