"""Good subsemigroups of N^d in a finite conductor-box representation.

A good semigroup is a submonoid of N^d that is closed under componentwise
min (property 1), has the pair-lifting property (2), and contains
delta + N^d for some conductor vector delta (property 3).  It is stored as
its componentwise minimal conductor delta together with the members inside
the box [0, delta]; membership of an arbitrary vector follows the rule

    alpha in S  <=>  min(alpha, delta) in small_elements.

The rule is a representation convention, not one of the axioms.  Every
internal constructor verifies it on an enclosing box before shrinking to
the minimal conductor (from_member_grid), and is_good validates the axioms
of user-supplied literals under it.
"""

from math import prod

import numpy as np

from . import kernels
from .errors import DomainError, ValidationError, literal_int, literal_ints, literal_list
from .numerical import NumericalSemigroup, semigroup_from_members

# Largest padded box [0, delta+1] the axiom checks will allocate (64 MiB of
# booleans); a larger conductor is refused rather than exhausting memory.
MAX_GRID_CELLS = 2 ** 26


def _as_vector(value, d):
    vec = tuple(int(x) for x in value)
    if len(vec) != d:
        raise DomainError("expected a vector of dimension %d, got %r" % (d, list(value)))
    if any(x < 0 for x in vec):
        raise ValidationError("vector coordinates must be natural numbers: %r" % (list(vec),))
    return vec


def _axiom_failure(d, conductor, small):
    """First violated good-semigroup axiom as a message, or None."""
    small_set = frozenset(small)
    zero = (0,) * d
    if zero not in small_set:
        return "0 must be a member"
    if conductor not in small_set:
        return "the conductor must be a member"
    for v in small:
        if any(x > c for x, c in zip(v, conductor)):
            return "element %r lies outside the conductor box" % (list(v),)
    cells = prod(c + 2 for c in conductor)
    if cells > MAX_GRID_CELLS:
        raise DomainError("the conductor box needs %d grid cells, more than the "
                          "limit of %d" % (cells, MAX_GRID_CELLS))
    n = len(small)
    arr = np.array(small, dtype=np.int64).reshape(n, d)
    dims = tuple(c + 1 for c in conductor)
    grid = np.zeros(dims, dtype=bool)
    grid[tuple(arr.T)] = True
    flat = grid.reshape(-1)
    strides = kernels.flat_strides(dims)
    code = kernels.first_min_violation(arr, flat, strides)
    if code != -1:
        i, j = divmod(int(code), n)
        return "property (1) fails: min(%r, %r) is missing" % (
            list(small[i]), list(small[j]))
    code = kernels.first_sum_violation(arr, flat, strides,
                                       np.array(conductor, dtype=np.int64))
    if code != -1:
        i, j = divmod(int(code), n)
        return "not closed under addition: %r + %r is missing" % (
            list(small[i]), list(small[j]))
    ext = np.pad(grid, [(0, 1)] * d, mode="edge")
    code = kernels.first_lift_violation(arr, ext.reshape(-1),
                                        kernels.flat_strides(ext.shape),
                                        np.array(ext.shape, dtype=np.int64))
    if code != -1:
        pair, pivot = divmod(int(code), d)
        i, j = divmod(pair, n)
        return "property (2) fails at alpha=%r, beta=%r, coordinate %d" % (
            list(small[i]), list(small[j]), pivot + 1)
    return None


def is_good(d, conductor, small_elements):
    """Check the good-semigroup axioms on a candidate box representation.

    Returns (True, None) or (False, message) naming the lexicographically
    first violation.  Conductor minimality is not part of the axioms and is
    not required here; the GoodSemigroup constructor does enforce it.
    Raises DomainError when the padded conductor box exceeds MAX_GRID_CELLS.
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

    __slots__ = ("d", "conductor", "small_elements", "_small_set", "_grid_cache")

    def __init__(self, d, conductor, small_elements, validate=True):
        self.d = int(d)
        if self.d < 1:
            raise ValidationError("d must be >= 1")
        self.conductor = _as_vector(conductor, self.d)
        self.small_elements = tuple(sorted({_as_vector(v, self.d)
                                            for v in small_elements}))
        self._small_set = frozenset(self.small_elements)
        self._grid_cache = None
        if validate:
            message = _axiom_failure(self.d, self.conductor, self.small_elements)
            if message is not None:
                raise ValidationError(message)
            for j in range(self.d):
                if self.conductor[j] > 0:
                    down = tuple(c - (1 if h == j else 0)
                                 for h, c in enumerate(self.conductor))
                    if down in self._small_set:
                        raise ValidationError(
                            "conductor is not componentwise minimal: "
                            "coordinate %d can decrease" % (j + 1,))

    def contains(self, alpha):
        vec = _as_vector(alpha, self.d)
        capped = tuple(min(x, c) for x, c in zip(vec, self.conductor))
        return capped in self._small_set

    def grid(self):
        """Membership grid over the box [0, conductor] (do not mutate)."""
        if self._grid_cache is None:
            g = np.zeros(tuple(c + 1 for c in self.conductor), dtype=bool)
            arr = np.array(self.small_elements,
                           dtype=np.int64).reshape(len(self.small_elements), self.d)
            g[tuple(arr.T)] = True
            self._grid_cache = g
        return self._grid_cache

    @classmethod
    def natural_numbers(cls, d):
        return cls(d, (0,) * d, [(0,) * d], validate=False)

    @classmethod
    def from_member_grid(cls, grid):
        """Build from a membership grid over a box [0, B].

        B (the far corner) must be a conductor and membership outside the
        box must follow the cap rule at B; the conductor is then lowered to
        the componentwise minimal one and the cap rule is re-verified
        against the whole grid.
        """
        grid = np.asarray(grid, dtype=bool)
        d = grid.ndim
        corner = tuple(s - 1 for s in grid.shape)
        if not bool(grid[corner]):
            raise ValidationError("the box corner must be a member")
        if not bool(grid[(0,) * d]):
            raise ValidationError("0 must be a member")
        delta = list(corner)
        for j in range(d):
            while delta[j] > 0:
                slab = tuple(delta[j] - 1 if c == j else slice(delta[c], None)
                             for c in range(d))
                if not bool(np.all(grid[slab])):
                    break
                delta[j] -= 1
        capped = grid[np.ix_(*[np.minimum(np.arange(s), delta[c])
                               for c, s in enumerate(grid.shape)])]
        if not bool(np.array_equal(grid, capped)):
            raise ValidationError("membership is not determined by the conductor box")
        inner = grid[tuple(slice(0, delta[c] + 1) for c in range(d))]
        small = [tuple(int(x) for x in v) for v in np.argwhere(inner)]
        return cls(d, tuple(delta), small, validate=False)

    @classmethod
    def from_numerical(cls, S):
        members = list(S.small_elements)
        if S.conductor > 0:
            members.append(S.conductor)
        return cls(1, (S.conductor,), [(m,) for m in members], validate=False)

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


def is_local(S):
    """True iff 0 is the only member with a zero coordinate."""
    if S.d == 1:
        return True
    if any(c == 0 for c in S.conductor):
        return False
    return not any(0 in v for v in S.small_elements if any(v))


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


def _residue_grid(S, alpha):
    """Membership grid of S(alpha) - alpha over its box [0, max(delta-alpha, 0)]."""
    kappa = tuple(max(c - a, 0) for c, a in zip(S.conductor, alpha))
    axes = [np.minimum(a + np.arange(k + 1), c)
            for a, c, k in zip(alpha, S.conductor, kappa)]
    return S.grid()[np.ix_(*axes)]


def residue(S, alpha):
    """The semigroup S(alpha) - alpha = {beta - alpha : beta in S, beta >= alpha}."""
    alpha = _as_vector(alpha, S.d)
    if not S.contains(alpha):
        raise DomainError("cannot take the residue at a non-member %r" % (list(alpha),))
    return GoodSemigroup.from_member_grid(_residue_grid(S, alpha))


def is_arf_good(S):
    """True iff residue(S, alpha) is closed under addition for every member."""
    for alpha in S.small_elements:
        grid = _residue_grid(S, alpha)
        members = np.ascontiguousarray(np.argwhere(grid), dtype=np.int64)
        code = kernels.first_sum_violation(members, grid.reshape(-1),
                                           kernels.flat_strides(grid.shape),
                                           np.array(grid.shape, np.int64) - 1)
        if code != -1:
            return False
    return True


def projection(S, j):
    """The numerical semigroup of j-th coordinates of members (1 <= j <= d)."""
    if not 1 <= j <= S.d:
        raise DomainError("branch index %d out of range 1..%d" % (j, S.d))
    coords = {v[j - 1] for v in S.small_elements}
    return semigroup_from_members(coords, S.conductor[j - 1])


def plane_projection(S, j, h):
    """The 2-dimensional projection of S on coordinates j != h (1-based)."""
    for index in (j, h):
        if not 1 <= index <= S.d:
            raise DomainError("branch index %d out of range 1..%d" % (index, S.d))
    if j == h:
        raise DomainError("plane projection needs two distinct branch indices")
    grid = np.zeros((S.conductor[j - 1] + 1, S.conductor[h - 1] + 1), dtype=bool)
    for v in S.small_elements:
        grid[v[j - 1], v[h - 1]] = True
    return GoodSemigroup.from_member_grid(grid)


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
