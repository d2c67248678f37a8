"""Shared oracles and random generators for the test suite."""

import itertools
import math
import re
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from functools import cache, cmp_to_key
from itertools import combinations, compress
from math import inf
from operator import add, ge, le, ne

import numpy as np

from arfcurves import branch_ring
from arfcurves.char_vectors import (CharacterVectorSet, _max_valid_splits,
                                    _minimal_member_with_coordinate, smallest_arf_containing)
from arfcurves.errors import DomainError, InputError, TruncationError, ValidationError, echo
from arfcurves.good_semigroup import (GoodSemigroup, _boxed, _meet_irreducibles, _project,
                                      projection)
from arfcurves.mult_tree import (MultiplicityTree, _sibling_order, semigroup_to_tree,
                                 tree_intersection, tree_to_semigroup)
from arfcurves.numerical import (MultiplicitySequence, NumericalSemigroup, arf_closure,
                                 characters_of_seq, semigroup_to_seq)
from arfcurves.series import SeriesTuple, TruncatedSeries


def xyz_closure_oracle(generators):
    """Close <G> under x + y - z (x >= y >= z members) inside [0, 2*max(G)]."""
    top = 2 * max(generators)
    member = [False] * (top + 1)
    member[0] = True
    for n in range(1, top + 1):
        member[n] = any(g <= n and member[n - g] for g in generators)
    changed = True
    while changed:
        changed = False
        members = [n for n in range(top + 1) if member[n]]
        for y in members:
            for z in members:
                if z > y:
                    break
                for x in members:
                    if x < y:
                        continue
                    t = x + y - z
                    if t <= top and not member[t]:
                        member[t] = True
                        changed = True
    return [n for n in range(top + 1) if member[n]]


def numerical_semigroups(max_conductor):
    """Every numerical semigroup with conductor <= max_conductor.

    Walks the tree of numerical semigroups: the children of S are the S \\ {g}
    for the minimal generators g of S at or above its conductor.
    """
    out, todo = [], [(0, {0})]
    while todo:
        c, small = todo.pop()
        out.append(NumericalSemigroup(c, small, validate=False))

        def member(x):
            return x >= c or x in small

        for g in range(max(c, 1), max_conductor):
            if not any(member(a) and member(g - a) for a in range(1, g)):
                todo.append((g + 1, small | set(range(c, g))))
    return out


def arf_pairwise_oracle(S):
    """True iff S(s) - s is closed under addition below c - s for every small
    element s of a numerical semigroup with conductor c, pair by pair."""
    for s in S.small_elements:
        rel = [m - s for m in S.small_elements if m >= s]
        relset = set(rel)
        for i, a in enumerate(rel):
            for b in rel[i:]:
                if a + b < S.conductor - s and a + b not in relset:
                    return False
    return True


def arf_good_oracle(S):
    """True iff S(alpha) - alpha is closed under addition for every small element.

    Brute force over Python sets under the cap rule
    alpha in S  <=>  min(alpha, conductor) in small: the members of the
    residue are the cells gamma of the box [0, max(conductor - alpha, 0)]
    with alpha + gamma in S, and every sum of two of them is tested.
    """
    small = set(S.small_elements)

    def member(v):
        return tuple(map(min, v, S.conductor)) in small

    for alpha in S.small_elements:
        box = [range(max(c - a, 0) + 1) for c, a in zip(S.conductor, alpha)]
        res = [g for g in itertools.product(*box)
               if member([a + x for a, x in zip(alpha, g)])]
        for i, g in enumerate(res):
            for h in res[i:]:
                if not member([a + x + y for a, x, y in zip(alpha, g, h)]):
                    return False
    return True


def glued_order_oracle(S):
    """Coordinates of a local Arf S, ordered so that the glued branch groups
    of its tree are intervals: sorted on the rows of the matrix of the split
    levels of the plane projections, each branch ahead of itself."""
    split = {(j, h): semigroup_to_tree(_project(S, (j, h))).splits[0]
             for j, h in combinations(range(S.d), 2)}
    return sorted(range(S.d), key=lambda j: [-split[min(j, h), max(j, h)] if h != j
                                             else -inf for h in range(S.d)])


def decomposition_lengths_oracle(seq):
    """The unique k_i with e_i = e_{i+1} + ... + e_{i+k_i}, for i = 0..M.

    M = prefix length + max(k_i) + 1; beyond the prefix every k_i is 1.
    Raises ValidationError naming the first index where no k exists.
    """
    ks = []
    for i in range(len(seq.prefix)):
        target = seq.entry(i)
        total = 0
        k = 0
        while total < target:
            k += 1
            total += seq.entry(i + k)
        if total != target:
            raise ValidationError(
                "invalid sequence: e_%d = %d is not a sum of consecutive successors" % (i, target))
        ks.append(k)
    M = len(seq.prefix) + max(ks, default=1) + 1
    ks.extend([1] * (M + 1 - len(ks)))
    return ks


def condition_c_oracle(branches, splits):
    """First (level, j, h, cap) where a node vector is not a rooted-subtree sum.

    A node at level i glued over branches j..h forces subtree depth
    i + k_i per branch; the depths coexist in one subtree iff equal or the
    pair splits no later than cap, the shallower forced depth; cap > i, so
    a pair parted below level i never fails there.
    """
    d = len(branches)
    ks = [decomposition_lengths_oracle(seq) for seq in branches]

    def k(j, i):
        return ks[j][i] if i < len(ks[j]) else 1

    top = min(max(splits, default=-1), max((len(table) for table in ks), default=0))
    for i in range(top + 1):
        for j in range(d):
            for h in range(j + 1, d):
                kj, kh = k(j, i), k(h, i)
                if kj != kh and min(splits[j:h]) > i + min(kj, kh):
                    return (i, j, h, i + min(kj, kh))
    return None


# Twelve smooth branches with 2,593 small elements.
TWELVE = MultiplicityTree([[1]] * 12, splits=(3, 0, 5, 1, 4, 2, 6, 0, 2, 7, 1))


def random_arf_sequence(rng, max_len=5, max_entry=9):
    """Random valid multiplicity sequence, built from the tail upward."""
    tail = [1] * (max_entry + 1)
    length = rng.randrange(max_len + 1)
    for _ in range(length):
        k = rng.randrange(1, max_entry)
        e = sum(tail[:k])
        if e > max_entry:
            e = tail[0]
        tail.insert(0, e)
    return MultiplicitySequence(tail)


def random_tree(rng, d_max=3, max_len=4, max_entry=6, split_max=4):
    """Random valid multiplicity tree, by rejection on the subtree-sum check."""
    d = rng.randint(1, d_max)
    while True:
        branches = [random_arf_sequence(rng, max_len, max_entry) for _ in range(d)]
        splits = [rng.randint(0, split_max) for _ in range(d - 1)]
        try:
            return MultiplicityTree(branches, splits)
        except ValidationError:
            continue


def _serialize(T):
    return tuple(tuple(T.node_vector(i, g) for g in T.groups(i))
                 for i in range(T.stable_level + 1))


def canonical_form_oracle(T):
    """Minimal representative under branch permutation, plus the witnessing
    permutation p (1-based: canonical branch i is original branch p[i-1]).

    Only permutations that keep every glued group an interval are admissible;
    among those, the lexicographically smallest level-major serialization of
    the node vectors wins, with the permutation itself as tie break.
    """
    d = T.d
    best = None
    for perm in itertools.permutations(range(d)):
        splits = [T.pair_split(perm[i], perm[i + 1]) for i in range(d - 1)]
        consistent = all(
            min(splits[j:h]) == T.pair_split(perm[j], perm[h])
            for j in range(d) for h in range(j + 1, d))
        if not consistent:
            continue
        candidate = MultiplicityTree([T.branches[p] for p in perm], splits,
                                     validate=False)
        key = (_serialize(candidate), perm)
        if best is None or key < best[0]:
            best = (key, candidate, perm)
    _, tree, perm = best
    return tree, tuple(p + 1 for p in perm)


def from_member_grid(grid):
    """The good semigroup marked on a membership grid over a box [0, B].

    B (the far corner) must be a conductor and membership outside the box
    must follow the cap rule at B; the conductor is then lowered to the
    componentwise minimal one and the cap rule is re-verified against the
    whole grid.
    """
    grid = np.asarray(grid, dtype=bool)
    corner = tuple(s - 1 for s in grid.shape)
    if not bool(grid[corner]):
        raise ValidationError("the box corner must be a member")
    if not bool(grid[(0,) * grid.ndim]):
        raise ValidationError("0 must be a member")
    S = _boxed(corner, set(map(tuple, np.argwhere(grid).tolist())))
    capped = grid[np.ix_(*[np.minimum(np.arange(s), c)
                           for s, c in zip(grid.shape, S.conductor)])]
    if not bool(np.array_equal(grid, capped)):
        raise ValidationError("membership is not determined by the conductor box")
    return S


def tree_semigroup_oracle(T):
    """Semigroup of a valid tree from its depth profiles, on a dense grid.

    A rooted subtree reaching depth m_j on branch j yields the member
    (prefix_sum(m_j + 1))_j; the depth profile only needs to satisfy
    m_j >= min(m_h, split(j,h)), since deeper glued neighbors re-enter the
    branch-j path.  Every profile through one level past every split and
    every non-unit entry is tried, the members are marked on a grid over
    the box they span, and from_member_grid reads the minimal conductor.
    """
    d = T.d
    deepest = max((len(seq.prefix) - 1 for seq in T.branches), default=-1)
    M = max((max(T.splits, default=-1), deepest)) + 1
    sums = [[seq.prefix_sum(n) for n in range(M + 2)] for seq in T.branches]
    grid = np.zeros(tuple(sums[j][M + 1] + 1 for j in range(d)), dtype=bool)
    grid[(0,) * d] = True
    for m in itertools.product(range(M + 1), repeat=d):
        if all(m[j] >= min(m[h], T.pair_split(j, h))
               for j in range(d) for h in range(d) if h != j):
            grid[tuple(sums[j][m[j] + 1] for j in range(d))] = True
    return from_member_grid(grid)


def enumerate_smallest_arf(V):
    """Intersection of every tree semigroup over the coordinate closures that
    contains V, enumerated over all split vectors below the depth bound."""
    vectors = [tuple(v) for v in V if any(v)]
    d = len(vectors[0])
    branches = [semigroup_to_seq(arf_closure([v[j] for v in vectors]))
                for j in range(d)]

    def index_of(j, value):
        k = 0
        while branches[j].prefix_sum(k + 1) < value:
            k += 1
        return k

    N = max(index_of(j, v[j]) for v in vectors for j in range(d)) + 1
    best = None
    for splits in itertools.product(range(N), repeat=d - 1):
        try:
            tree = MultiplicityTree(branches, splits)
        except ValidationError:
            continue
        semi = tree_to_semigroup(tree)
        if all(semi.contains(v) for v in vectors):
            best = tree if best is None else tree_intersection(best, tree)
    return tree_to_semigroup(best)


def is_minimal_character_set_oracle(V, S):
    """True iff V determines S and no proper subset does (checked exhaustively)."""
    def determines(vectors):
        try:
            return smallest_arf_containing(CharacterVectorSet(V.d, vectors)) == S
        except (DomainError, ValidationError):
            return False

    if not determines(V.vectors):
        return False
    return not any(determines(subset)
                   for size in range(len(V.vectors))
                   for subset in itertools.combinations(V.vectors, size))


def good_axioms_oracle(d, conductor, small):
    """First violated good-semigroup axiom of (conductor, small), or None.

    Brute force over Python sets under the cap rule
    alpha in S  <=>  min(alpha, conductor) in small, scanning pairs of the
    sorted members in the order is_good reports them.  Lifting witnesses are
    searched over the box [0, conductor + 1], which holds one whenever any
    exists, because capping a witness there keeps it a witness.
    """
    conductor = tuple(conductor)
    small = sorted(set(map(tuple, small)))
    members = set(small)

    def member(alpha):
        return tuple(min(a, c) for a, c in zip(alpha, conductor)) in members

    if (0,) * d not in members:
        return "0 must be a member"
    if conductor not in members:
        return "the conductor must be a member"
    for v in small:
        if any(x > c for x, c in zip(v, conductor)):
            return "element %r lies outside the conductor box" % (list(v),)
    for i, a in enumerate(small):
        for b in small[i + 1:]:
            if not member(tuple(map(min, a, b))):
                return "property (1) fails: min(%r, %r) is missing" % (list(a), list(b))
    for i, a in enumerate(small):
        for b in small[i:]:
            if not member(tuple(x + y for x, y in zip(a, b))):
                return "not closed under addition: %r + %r is missing" % (list(a), list(b))
    for i, a in enumerate(small):
        for b in small[i + 1:]:
            for pivot in range(d):
                if a[pivot] != b[pivot]:
                    continue
                ranges = [range(a[c] + (c == pivot), conductor[c] + 2) if a[c] == b[c]
                          else (min(a[c], b[c]),)
                          for c in range(d)]
                if not any(member(g) for g in itertools.product(*ranges)):
                    return "property (2) fails at alpha=%r, beta=%r, coordinate %d" % (
                        list(a), list(b), pivot + 1)
    return None


# The axiom check whose capped-sum closure walked the additive generators and
# whose lift searched witnesses once per key (min(a, b), where a and b
# differ) over maximal-member buckets, word for word, as the oracle of
# `_axiom_failure`, which decides all three axioms from the
# meet-irreducibles.  Its generator pass is kept word for word too, as
# `_additive_generators`.

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


def axiom_failure_by_keys_oracle(d, conductor, small):
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


def min_closure(conductor, seeds):
    """The vectors reached from 0, the conductor and the seeds by
    componentwise min: candidates that pass (1) and often fail the sum."""
    found = set()
    for x in {(0,) * len(conductor), tuple(conductor), *map(tuple, seeds)}:
        found |= {x} | {tuple(map(min, x, r)) for r in found}
    return found


def min_sum_closure(conductor, seeds):
    """The vectors of the box [0, conductor] reached from 0, the conductor
    and the seeds by componentwise min and capped sum: candidates that pass
    (1) and the sum, and so reach the lift."""
    d = len(conductor)
    members = {(0,) * d, tuple(conductor), *map(tuple, seeds)}
    fresh = set(members)
    while fresh:
        found = set()
        for a in fresh:
            for b in list(members):
                found.add(tuple(map(min, a, b)))
                found.add(tuple(min(x + y, c) for x, y, c in zip(a, b, conductor)))
        fresh = found - members
        members |= fresh
    return members

# The value-set pass on SeriesTuple rows that the flat integer rows of
# `branch_ring` replaced, word for word, as the oracle of `_span` and
# `value_set`: every row is a tuple of exact truncated series, each with
# its own denominator.  `saturation_basis` and `queue_span_oracle` cut and
# reduce with it too.

def _cut(element, bound):
    """The element truncated to min(truncation_j, bound_j + 1) on each branch.

    Orders are never negative, so a term of degree <= bound_j of a product
    or of a linear step f + c*g depends only on operand terms of degree
    <= bound_j: cutting is a ring map onto prod_j k[t_j]/(t_j^(bound_j + 1)),
    and cut generators decide every value in the box that the
    full-precision ones decide.
    """
    cut = []
    for component, b in zip(element.components, bound):
        truncation = min(component.truncation, b + 1)
        cut.append(TruncatedSeries._of(
            {e: n for e, n in component.numerators.items() if e < truncation},
            component.denominator, truncation))
    return SeriesTuple(cut)


def _eliminate(f, g, j, e):
    """f minus the multiple of g that cancels their common leading t^e on branch j.

    The multiplier is an int when the quotient is exact, as it is for a
    lead of +-1 over denominator 1, and a Fraction otherwise."""
    a, b = f.components[j], g.components[j]
    p, q = -a.numerators[e] * b.denominator, a.denominator * b.numerators[e]
    return f.plus_multiple(g, p // q if p % q == 0 else Fraction(p, q))


def _lead(element):
    """(branch, order) of the first nonzero component, or None for zero."""
    for j, component in enumerate(element.components):
        if component.numerators:
            return j, min(component.numerators)
    return None


def _reduce(element, echelon):
    """(lead, remainder) of the element reduced against an echelon {lead: row}
    until its lead is no pivot; the lead is None when it reduced to zero."""
    while True:
        lead = _lead(element)
        row = echelon.get(lead)
        if row is None:
            return lead, element
        element = _eliminate(element, row, *lead)


def _tail(element):
    """The element without its first branch."""
    return SeriesTuple(element.components[1:])


def _factor(g, bound):
    """What multiplying by g and cutting at bound + 1 reads of g, per branch j:
    its terms in ascending order, its truncation, order bound and
    denominator, and bound_j + 1.  `_span` builds it once per generator."""
    return [(sorted(c.numerators.items()), c.truncation, c.order_lower_bound(), c.denominator,
             top + 1) for c, top in zip(g.components, bound)]


def _cut_product(f, factor):
    """_cut(f * g, bound) for factor = _factor(g, bound), without forming
    the terms that the cut drops.

    On branch j only the pairs of terms with e1 + e2 <= bound_j are
    multiplied: the terms of g are taken in ascending order, so the inner
    loop stops at the first pair past the bound.  The truncation is that
    of the product, cut to bound_j + 1.
    """
    cut = []
    for a, (inner, truncation, order, denominator, top) in zip(f.components, factor):
        numerators = a.numerators
        truncation = min(a.truncation + order,
                         truncation + (min(numerators) if numerators else a.truncation), top)
        terms = {}
        for e1, n1 in numerators.items():
            limit = truncation - e1
            for e2, n2 in inner:
                if e2 >= limit:
                    break
                e = e1 + e2
                terms[e] = terms.get(e, 0) + n1 * n2
        if not all(terms.values()):
            terms = {e: n for e, n in terms.items() if n}
        cut.append(TruncatedSeries._of(terms, a.denominator * denominator, truncation))
    product = SeriesTuple.__new__(SeriesTuple)
    product.components = tuple(cut)
    return product


def series_span_oracle(algebra, bound):
    """Echelon basis {lead: row} of the image W of the algebra in
    prod_j k[t_j]/(t_j^(bound_j + 1)), leads (branch, order) branch-major.

    Cutting at bound+1 is that ring map (see `_cut`), so every cut element
    is exact there.  The span is a Krylov closure, one generator at a
    time: V_0 = k*1 and V_k = k[g_k]*V_(k-1).  In stage k every row of
    V_(k-1) is multiplied by g_k once, and after that only the rows that
    the previous pass added, each product reduced into the span.  That is
    enough: if the span S_m after pass m adds the rows U_m to S_(m-1), and
    g_k*S_(m-1) lies in S_m, then g_k*S_m lies in S_m + g_k*span(U_m),
    which pass m + 1 spans.  The generators commute, so V_k is closed under
    g_1, ..., g_k, and V_n = W; its dimension is at most sum_j (bound_j + 1).

    W is the same in any order, so the order only sets the cost.  The
    generators are taken sparsest first, by total term count (a stable
    sort): the early rows and their products stay short.  On the plane
    pair (t^4, u^6), (t^6+t^7, u^9+u^10), (t^9, u^4) at bound (100, 100),
    an unsorted order costs up to 15 times as much as a sorted one.
    """
    generators = sorted((_cut(g, bound) for g in algebra.generators),
                        key=lambda g: sum(len(c.numerators) for c in g.components))
    one = _cut(SeriesTuple.constant(1, algebra.d), bound)
    echelon = {_lead(one): one}
    for g in generators:
        factor = _factor(g, bound)
        added = list(echelon.values())
        while added:
            rows, added = added, []
            for row in rows:
                lead, rest = _reduce(_cut_product(row, factor), echelon)
                if lead is not None:
                    echelon[lead] = rest
                    added.append(rest)
    return echelon


class _Slices:
    """The span T of an echelon on some trailing branches, and its slices.

    T_a, the elements of T of order >= a on the first branch, is spanned by
    the rows of first-branch lead >= a and the rows that vanish there,
    because the leads are distinct.  The projections pi(T_a) to the other
    branches are built on first use, for descending pivots a, each from
    pi(T_(a+1)) and the row r_a reduced against it.
    """

    __slots__ = ("branches", "echelon", "_pivots", "_slices", "_values")

    def __init__(self, branches, echelon):
        self.branches = branches
        self.echelon = echelon
        self._pivots = None
        self._values = None

    def _by_pivot(self):
        """Ascending pivots a, and per pivot pi(T_a) with pi(r_a) reduced
        against pi(T_(a+1)) as (lead, remainder); last, pi of the rows that
        vanish on the first branch."""
        if self._pivots is None:
            above = _Slices(self.branches - 1, {(j - 1, e): _tail(row)
                                                for (j, e), row in self.echelon.items() if j})
            self._pivots = sorted(e for j, e in self.echelon if j == 0)
            self._slices = [(above, None, None)]
            for a in reversed(self._pivots):
                lead, rest = _reduce(_tail(self.echelon[0, a]), above.echelon)
                if lead is not None:
                    above = _Slices(above.branches, {**above.echelon, lead: rest})
                self._slices.append((above, lead, rest))
            self._slices.reverse()
        return self._pivots, self._slices

    def sliced(self, a):
        """pi(T_a), for any natural number a."""
        pivots, slices = self._by_pivot()
        return slices[bisect_left(pivots, a)][0]

    def values(self):
        """The alpha at which no coefficient t_j^(alpha_j) vanishes on T(alpha)."""
        if self._values is None:
            if self.branches == 1:
                self._values = {(e,) for _, e in self.echelon}
            else:
                pivots, slices = self._by_pivot()
                self._values = set()
                for a, (below, lead, rest), (above, _, _) in zip(pivots, slices, slices[1:]):
                    self._values.update((a,) + beta for beta in
                                        _reaching(lead, rest, above, below.values()))
        return self._values


def _reaching(lead, rest, space, candidates):
    """The beta among `candidates` with r in space + M_beta, where M_beta
    holds the elements of order >= beta_j on every branch j; `rest` is r
    reduced against the echelon of the space, and `lead` its lead.

    When the lead lies on the first branch at order e, no element of the
    space has order e there, so beta_0 <= e is needed.  Then r lies in
    space + M_beta exactly when pi(rest) lies in pi(space_(beta_0)) +
    M_(beta without beta_0): the rows used after the first-branch order
    reached beta_0 lie in space_(beta_0).
    """
    if lead is None:
        return candidates
    j, e = lead
    if j == 0:
        candidates = [beta for beta in candidates if beta[0] <= e]
    if space.branches == 1:
        return candidates
    by_first = {}
    for beta in candidates:
        by_first.setdefault(beta[0], []).append(beta[1:])
    reached = []
    for first, tails in by_first.items():
        sliced = space.sliced(first)
        sublead, subrest = _reduce(_tail(rest), sliced.echelon)
        reached.extend((first,) + beta for beta in _reaching(sublead, subrest, sliced, tails))
    return reached


def series_value_set_oracle(algebra, bound):
    """`branch_ring.value_set` on SeriesTuple rows: the same truncation
    checks, then the pivots of `series_span_oracle` read by `_Slices`."""
    if isinstance(bound, int):
        bound = (bound,)
    bound = tuple(int(b) for b in bound)
    if len(bound) != algebra.d:
        raise DomainError("bound has dimension %d, expected %d" % (len(bound), algebra.d))
    if any(b < 0 for b in bound):
        raise DomainError("bound coordinates must be natural numbers: %r" % (list(bound),))
    for j in range(algebra.d):
        for g in algebra.generators:
            if g.components[j].truncation <= bound[j]:
                raise TruncationError(
                    "truncation order %d cannot decide values up to %d on branch %d; "
                    "rerun with truncation order at least %d"
                    % (g.components[j].truncation, bound[j], j + 1, bound[j] + 1)
                )
    return _Slices(algebra.d, series_span_oracle(algebra, bound)).values()


def saturation_basis(algebra, bound):
    """Value-indexed basis of the algebra, complete within [0, bound].

    Keys are componentwise orders capped at bound+1, the sentinel for an
    order beyond the box or a zero component.  As an oracle for
    `value_set`, this closure over keys counts no dimensions and shares no
    code with it: it cuts and eliminates on SeriesTuples, with the `_cut`
    and `_eliminate` of `series_span_oracle`.

    The generators are first cut to bound+1 (see `_cut`), so the cost does
    not grow with the truncation order; the basis elements only serve
    their keys and are not fit for division.

    Each basis element is multiplied by each cut generator once, never by
    another basis element.  Cutting at bound+1 is a ring map onto
    prod_j k[t_j]/(t_j^(bound_j + 1)), and a key is `big` exactly when the
    image is 0, so the basis spans the image of everything inserted.  That
    span contains 1 and is closed under multiplication by every generator,
    so it is the image of the whole algebra.

    A missing minimum of f1, f2 takes one sum, `_min_sum(f1, f2)`, and the
    other lambdas in 1..d+1 add no key.  A lambda that cancels the leading
    term on a branch j where the orders agree gives exactly f1 - mu_j*f2,
    the elimination inserted anyway.  A second lambda that keeps the
    minimum reduces against the first to a multiple of f1 or f2, which
    reduces to zero, or to a multiple of that same elimination element.
    """
    d = algebra.d
    big = tuple(b + 1 for b in bound)
    basis = {}

    def insert(element):
        while True:
            key = branch_ring._capped_key(element, bound)
            if key == big:
                return False
            existing = basis.get(key)
            if existing is None:
                basis[key] = element
                return True
            # same key: cancel the leading term of the first finite
            # component; the key strictly increases, so this terminates
            j = next(i for i in range(d) if key[i] <= bound[i])
            # a vanished element has key big when its truncation decides
            # the box, and raises otherwise
            element = _eliminate(element, existing, j, key[j])

    generators = [_cut(g, bound) for g in algebra.generators]
    insert(SeriesTuple.constant(1, d))
    for g in generators:
        insert(g)

    multiplied = set()
    processed = set()
    grew = True
    while grew:
        grew = False
        items = sorted(basis.items())
        for k1, f1 in items:
            if k1 not in multiplied:
                multiplied.add(k1)
                for g in generators:
                    grew |= insert(f1 * g)
        for i1, (k1, f1) in enumerate(items):
            for k2, f2 in items[i1 + 1:]:
                if (k1, k2) in processed:
                    continue
                processed.add((k1, k2))
                min_key = tuple(map(min, k1, k2))
                if min_key not in basis:
                    grew |= insert(branch_ring._min_sum(f1, f2, bound))
                for j in range(d):
                    if k1[j] == k2[j] and k1[j] <= bound[j]:
                        grew |= insert(_eliminate(f1, f2, j, k1[j]))

    return basis


def saturation_value_set_oracle(algebra, bound):
    """Values of a curve algebra inside the box [0, bound], by saturation."""
    return {key for key in saturation_basis(algebra, bound)
            if all(k <= b for k, b in zip(key, bound))}


def saturation_partition_oracle(algebra):
    """Group the branches into the local components of the algebra.

    A complete semilocal algebra is the product of its local components,
    so a unit on one branch of a component is a unit on all of it, and the
    idempotent of a component is a unit there and vanishes elsewhere.  The
    branches of a component are therefore those on which the same basis
    elements are units.  Those keys lie inside [0, fm_bound], so one
    saturation at fm_bound decides them.  Groups are ordered by first
    member, members by index.
    """
    basis = saturation_basis(algebra, branch_ring._fm_bound(algebra))
    groups = {}
    for j in range(algebra.d):
        groups.setdefault(tuple(key[j] == 0 for key in basis), []).append(j)
    return list(groups.values())


def pairwise_partition_oracle(algebra):
    """Local components of a curve algebra by union-find over branch pairs.

    A pair stays glued when the algebra restricted to it has no basis
    element that is a unit on one branch of the pair and not on the other;
    gluedness is transitive, so the components are the classes.  Groups are
    ordered by first member, members by index.
    """
    d = algebra.d
    parent = list(range(d))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a in range(d):
        for b in range(a + 1, d):
            if find(a) == find(b):
                continue
            pair = branch_ring._restricted(algebra, [a, b])
            basis = saturation_basis(pair, branch_ring._fm_bound(pair))
            if all((key[0] == 0) == (key[1] == 0) for key in basis):
                parent[find(b)] = find(a)

    groups = {}
    for a in range(d):
        groups.setdefault(find(a), []).append(a)
    return [groups[root] for root in sorted(groups, key=lambda r: groups[r][0])]


def queue_span_oracle(algebra, bound):
    """Echelon basis {lead: row} of the image W of the algebra in
    prod_j k[t_j]/(t_j^(bound_j + 1)), by a queue.

    Each new row queues its product with every cut generator, and each
    queued element is reduced into the span, so the span holds 1 and is
    closed under multiplication by the generators: it is W.  As an oracle
    for `series_span_oracle` and `branch_ring._span`, which take one
    generator at a time, it shares only the SeriesTuple `_cut` and
    `_reduce` with the first and nothing with the second; the lead set of
    an echelon basis of W depends on W alone, so all three must agree on it.
    """
    generators = [_cut(g, bound) for g in algebra.generators]
    echelon = {}
    queue = [_cut(SeriesTuple.constant(1, algebra.d), bound)]
    while queue:
        lead, row = _reduce(queue.pop(), echelon)
        if lead is not None:
            echelon[lead] = row
            queue.extend(_cut(row * g, bound) for g in generators)
    return echelon


def value_set_oracle(algebra, bound):
    """Values of a curve algebra inside the box [0, bound], by linear algebra.

    Shares its criterion with `value_set` but not its algorithm: it tests
    every point of the box on dense Fraction rows, where `value_set` reads
    the pivots of one echelon basis and never visits the box.  The
    generators (no constant terms) are cut at bound+1 as dense coefficient
    lists, and their products span the algebra modulo the elements whose
    order passes the box on every branch; a product that passes it is
    dropped with its multiples.  alpha
    is a value iff no alpha_j-th coefficient of branch j vanishes on
    W_alpha, the part of that span whose coefficients below alpha_j vanish
    on every branch j: over an infinite field a space is no finite union of
    proper subspaces.  W_alpha is W_(alpha - e_j) cut by one more
    coefficient, by Fraction Gaussian elimination.
    """
    d = algebra.d
    offsets = [sum(b + 1 for b in bound[:j]) for j in range(d)]

    def convolve(a, b):
        return [sum(a[i] * b[e - i] for i in range(e + 1)) for e in range(len(a))]

    gens = [[[g.components[j].coefficients.get(e, Fraction(0)) for e in range(bound[j] + 1)]
             for j in range(d)] for g in algebra.generators]
    one = [[Fraction(1)] + [Fraction(0)] * bound[j] for j in range(d)]
    products, frontier = [one], [(one, 0)]
    while frontier:
        monomial, first = frontier.pop()
        for i in range(first, len(gens)):
            product = [convolve(a, b) for a, b in zip(monomial, gens[i])]
            if any(any(branch) for branch in product):
                products.append(product)
                frontier.append((product, i))

    # an echelon basis of the span, rows flattened over (branch, exponent)
    basis = {}
    for row in ([c for branch in p for c in branch] for p in products):
        for pivot in sorted(basis):
            if row[pivot]:
                row = [x - row[pivot] * y for x, y in zip(row, basis[pivot])]
        lead = next((k for k, x in enumerate(row) if x), None)
        if lead is not None:
            basis[lead] = [x / row[lead] for x in row]

    def cut(space, column):
        pivot = next((v for v in space if v[column]), None)
        if pivot is None:
            return space
        return [[x - v[column] / pivot[column] * y for x, y in zip(v, pivot)]
                if v[column] else v for v in space if v is not pivot]

    spaces, values = {}, set()
    for alpha in itertools.product(*(range(b + 1) for b in bound)):
        j = max((j for j in range(d) if alpha[j]), default=None)
        if j is None:
            space = list(basis.values())
        else:
            below = alpha[:j] + (alpha[j] - 1,) + alpha[j + 1:]
            space = cut(spaces[below], offsets[j] + alpha[j] - 1)
        spaces[alpha] = space
        if all(any(v[offsets[j] + alpha[j]] for v in space) for j in range(d)):
            values.add(alpha)
    return values


def series_division_oracle(self, other):
    """`TruncatedSeries.__truediv__` by the long division it replaced, which
    scales the remainder and the quotient by lead / gcd(term, lead) each
    time the divisor's lead fails to divide a term.

    As an oracle for the doubling rescale it finds the smallest scale term
    by term; its body is the replaced method word for word, so it takes
    the dividend as `self`.
    """
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
    scale = 1
    for e in range(truncation):
        if not remainder:
            break
        r = remainder.pop(e, 0)
        if not r:
            continue
        if r % lead:
            s = abs(lead) // math.gcd(r, lead)
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


def blowup_oracle(algebra):
    """`branch_ring.blowup` as it was before it skipped x/x: every generator,
    x included, is divided by x with `series_division_oracle`, and every
    generator of the result is normalized by its first-branch constant,
    including those that have none.  Zero generators are dropped."""
    if not branch_ring.is_local_ring(algebra):
        raise DomainError("blowup requires a local algebra; blow up its local pieces instead")
    bound = branch_ring._fm_bound(algebra)
    x = next((g for g in algebra.generators if branch_ring._capped_key(g, bound) == bound), None)
    if x is None:
        x = algebra.generators[0]
        for g in algebra.generators[1:]:
            x = branch_ring._min_sum(x, g, bound)
    quotients = [SeriesTuple([series_division_oracle(a, b)
                              for a, b in zip(g.components, x.components)])
                 for g in algebra.generators]
    one = SeriesTuple.constant(1, algebra.d)
    normalized = [g.plus_multiple(one, -g.components[0].constant_term())
                  for g in [x] + quotients]
    kept = [g for g in normalized if not g.is_zero()]
    if not kept:
        raise DomainError("every generator reduced to zero")
    blown = branch_ring.LocalAlgebra.__new__(branch_ring.LocalAlgebra)
    blown.d = algebra.d
    blown.generators = tuple(kept)
    blown.truncation_order = min(c.truncation for g in kept for c in g.components)
    return blown


_ORACLE_TOKEN = re.compile(r"(\d+/\d+|\d+|[A-Za-z_][A-Za-z_0-9]*|\^|\*|\+|-)")


def _oracle_cut(text):
    """The first 40 characters of text, then "..." when it is longer."""
    return text if len(text) <= 40 else text[:40] + "..."


def _oracle_quote(text):
    """A token as the parser's messages quote it: the repr of its first 40
    characters, then "..." when it is longer."""
    return repr(text[:40]) + ("..." if len(text) > 40 else "")


def _oracle_tokens(text):
    tokens = []
    position = 0
    while position < len(text):
        if text[position].isspace():
            position += 1
            continue
        match = _ORACLE_TOKEN.match(text, position)
        if match is None:
            raise InputError("unexpected character %r" % text[position], position + 1)
        tokens.append((match.group(1), position + 1))
        position = match.end()
    return tokens


def parse_series_oracle(text, variable, truncation):
    """`series.parse_series` by the tokenize-then-parse reader it replaced.

    As an oracle for the one-pass parser it shares no code with it: the
    tokens are collected with their positions first, each token is matched
    again for its role, the terms are summed as Fractions, and the public
    TruncatedSeries constructor builds the result.  A number longer than
    Python's limit on int() of a string raises the ValueError of int().
    Its messages cut a quoted token or an exponent to 40 characters, as the
    parser's do.
    """
    tokens = _oracle_tokens(text)
    if not tokens:
        raise InputError("empty series expression", 1)
    terms = {}
    index = 0

    def peek():
        return tokens[index][0] if index < len(tokens) else None

    def take():
        nonlocal index
        token = tokens[index]
        index += 1
        return token

    def parse_term(sign):
        token, position = take()
        coefficient = Fraction(sign)
        if re.fullmatch(r"\d+/\d+|\d+", token):
            if re.fullmatch(r"\d+/0+", token):
                raise InputError("zero denominator in %s" % _oracle_quote(token), position)
            coefficient *= Fraction(token)
            if peek() == "*":
                _, star_position = take()
                if peek() is None:
                    raise InputError("expected a variable after '*'", star_position)
                token, position = take()
            elif peek() is not None and re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", peek()):
                token, position = take()
            else:
                terms[0] = terms.get(0, Fraction(0)) + coefficient
                return
        if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", token):
            raise InputError("expected a variable name, got %s" % _oracle_quote(token), position)
        if token != variable:
            raise InputError("unknown variable %s (expected %s)"
                             % (_oracle_quote(token), _oracle_quote(variable)), position)
        exponent = 1
        if peek() == "^":
            take()
            negative = False
            if peek() == "-":
                _, minus_position = take()
                negative = True
            if peek() is None or not re.fullmatch(r"\d+", peek()):
                raise InputError(
                    "expected an exponent after '^'",
                    tokens[index][1] if index < len(tokens) else position,
                )
            digits, digits_position = take()
            if negative:
                raise InputError("negative exponents are not allowed", minus_position)
            exponent = int(digits)
        if exponent >= truncation:
            raise InputError(
                "exponent %s is not below the truncation order %d"
                % (_oracle_cut(str(exponent)), truncation),
                position,
            )
        terms[exponent] = terms.get(exponent, Fraction(0)) + coefficient

    sign = 1
    if peek() in ("+", "-"):
        token, position = take()
        if index >= len(tokens):
            raise InputError("dangling %r at the end of the series" % token, position)
        sign = -1 if token == "-" else 1
    parse_term(sign)
    while index < len(tokens):
        token, position = take()
        if token not in ("+", "-"):
            raise InputError("expected '+' or '-' between terms, got %s" % _oracle_quote(token),
                             position)
        if index >= len(tokens):
            raise InputError("dangling %r at the end of the series" % token, position)
        parse_term(-1 if token == "-" else 1)
    return TruncatedSeries(terms, truncation)


# Character sets decided by rebuilding and comparing semigroups, the tree
# reading with one projection per coordinate, the conductor drop that counts
# every slab, and the canonical form that reads each leaf entry by entry.
# Each is kept word for word from the code that read trees at semigroup size,
# under an _oracle name, with its calls pointing at the oracles.


def node_path_sum_oracle(T, j, level):
    """Sum of the node vectors from the root through the level-th node on
    branch j (1-based); always a member of the tree's semigroup."""
    if not 1 <= j <= T.d:
        raise DomainError("branch index %d out of range 1..%d" % (j, T.d))
    l = j - 1
    return tuple(
        T.branches[h].prefix_sum((level if h == l else min(level, T.pair_split(l, h))) + 1)
        for h in range(T.d))


def _node_level_oracle(T, v, l):
    """Level k with v == node_path_sum(T, l, k), or None (1-based branch l)."""
    seq, target = T.branches[l - 1], v[l - 1]
    k = next(k for k in itertools.count() if seq.prefix_sum(k + 1) >= target)
    return k if seq.prefix_sum(k + 1) == target and node_path_sum_oracle(T, l, k) == v else None


def build_character_vectors_oracle(S, witness_node=None):
    """Character vectors of a local Arf good semigroup.

    For each branch j of the tree of S and each Arf character c of its
    sequence, the unique minimal member with j-th coordinate c is included.
    Then every consecutive pair (j, j+1) must be witnessed by a vector at a
    node strictly above its branching node, on branch j or j+1; when none
    is present one is added, by default the node one level up on branch
    j+1.  witness_node=(level, branch) overrides that default; it must sit
    strictly above the branching node of a pair that needs a witness.
    """
    T = semigroup_to_tree(S)
    vectors = []
    seen = set()
    for j, seq in enumerate(T.branches, 1):
        for c in characters_of_seq(seq):
            v = _minimal_member_with_coordinate(S, j, c)
            if v not in seen:
                seen.add(v)
                vectors.append(v)
    override_used = witness_node is None
    for j in range(1, S.d):
        s = T.pair_split(j - 1, j)
        witnessed = any(
            (lvl := _node_level_oracle(T, v, l)) is not None and lvl > s
            for v in vectors for l in (j, j + 1))
        if witnessed:
            continue
        level, branch = (witness_node if not override_used
                         else (s + 1, j + 1))
        if branch in (j, j + 1) and level > s:
            override_used = True
        else:
            level, branch = s + 1, j + 1
        v = node_path_sum_oracle(T, branch, level)
        if v not in seen:
            seen.add(v)
            vectors.append(v)
    if not override_used:
        raise DomainError("witness node %r does not sit strictly above an "
                          "unwitnessed branching node" % (witness_node,))
    return CharacterVectorSet(S.d, vectors)


def smallest_arf_containing_oracle(V):
    """Smallest Arf good semigroup containing the vectors of V.

    The branch collection is fixed by the per-coordinate Arf closures; a
    vector whose prefix-sum indices k_j and k_{j+1} differ forces the pair
    to split no later than min(k_j, k_{j+1}), and all branches must be
    distinct one level past the deepest index seen.  The splits are then
    the largest valid levels within those bounds.
    """
    vectors = [v for v in V.vectors if any(v)]
    if not vectors:
        raise DomainError("at least one nonzero vector is required")
    for v in vectors:
        if 0 in v:
            raise DomainError("vector %s has a zero coordinate; no local "
                              "semigroup contains it" % echo(list(v)))
    d = V.d
    branches = [semigroup_to_seq(arf_closure(v[j] for v in vectors))
                for j in range(d)]

    def index_of(j, value):
        k = 0
        while branches[j].prefix_sum(k + 1) < value:
            k += 1
        return k

    indices = [tuple(index_of(j, v[j]) for j in range(d)) for v in vectors]
    N = max(max(m) for m in indices) + 1
    bounds = [N - 1] * (d - 1)
    for m in indices:
        for j in range(d - 1):
            if m[j] != m[j + 1]:
                bounds[j] = min(bounds[j], m[j], m[j + 1])
    T = MultiplicityTree(branches, _max_valid_splits(branches, bounds), validate=False)
    T._verdict = (True, None)  # _max_valid_splits has checked condition c on its splits
    return tree_to_semigroup(T)


def reduce_characters_oracle(V, S):
    """Shrink a determining vector set: drop coordinatewise minima of pairs,
    then greedily drop vectors whose removal keeps smallest_arf_containing = S."""
    try:
        determined = smallest_arf_containing_oracle(V) == S
    except DomainError:
        determined = False
    if not determined:
        raise DomainError("the vector set does not determine the semigroup")
    vectors = set(V.vectors)
    changed = True
    while changed:
        changed = False
        for v1, v2 in itertools.combinations(sorted(vectors), 2):
            v3 = tuple(map(min, v1, v2))
            if v3 != v1 and v3 != v2 and v3 in vectors:
                vectors.discard(v3)
                changed = True
                break
    for v in sorted(vectors):
        trial = vectors - {v}
        if not trial:
            break
        try:
            if smallest_arf_containing_oracle(CharacterVectorSet(V.d, trial)) == S:
                vectors = trial
        except DomainError:
            pass
    return CharacterVectorSet(V.d, vectors)


def is_minimal_character_set_rebuild_oracle(V, S):
    """True iff V determines S and no V minus one vector does: determination
    is monotone, as W <= U <= V gives S = smallest(W) <= smallest(U) <= S."""
    def determines(vectors):
        try:
            return smallest_arf_containing_oracle(CharacterVectorSet(V.d, vectors)) == S
        except (DomainError, ValidationError):
            return False

    if not determines(V.vectors):
        return False
    return not any(determines(V.vectors[:i] + V.vectors[i + 1:])
                   for i in range(len(V.vectors)))


def boxed_oracle(corner, members):
    """The semigroup with these members in the box [0, corner], beyond which
    the cap rule holds at corner.  Coordinate j of the conductor drops while
    the slab below it, [delta_h, corner_h] in every other h, is all members.
    """
    delta = list(corner)
    for j in range(len(delta)):
        others = [h for h in range(len(delta)) if h != j]
        full = math.prod(corner[h] - delta[h] + 1 for h in others)
        counts = Counter(v[j] for v in members if all(v[h] >= delta[h] for h in others))
        while delta[j] and counts[delta[j] - 1] == full:
            delta[j] -= 1
    return GoodSemigroup._of(tuple(delta), [v for v in members if all(map(le, v, delta))])


def branches_and_splits_oracle(S):
    """The multiplicity sequences of the projections of S, and split(j, h)
    for j < h: the first level l with a member whose coordinates j, h are
    min(P_j(l+2), delta_j), min(P_h(l+1), delta_h), P the prefix sums, so
    that the plane projection on j, h has (P_j(l+2), P_h(l+1)); else -1."""
    branches = [semigroup_to_seq(projection(S, j + 1)) for j in range(S.d)]
    at = [{} for _ in branches]  # at[j][x]: indices of the members with v_j = x
    for i, v in enumerate(S.small_elements):
        for j, x in enumerate(v):
            at[j].setdefault(x, set()).add(i)

    def members(k, level):
        return at[k].get(min(branches[k].prefix_sum(level), S.conductor[k]), set())

    @cache
    def split(j, h):  # P(l) >= l, so from l = max(delta_j, delta_h) on the test is the same
        return next((level for level in range(max(S.conductor[j], S.conductor[h]) + 1)
                     if not members(j, level + 2).isdisjoint(members(h, level + 1))), -1)

    return branches, split


def canonical_form_entry_oracle(T):
    """Minimal representative under branch permutation, plus the witnessing
    permutation p (1-based: canonical branch i is original branch p[i-1]).

    Only permutations that keep every glued group an interval are admissible;
    among those, the lexicographically smallest level-major serialization of
    the node vectors wins, with the permutation itself as tie break.  Each
    glued group sorts its children: x goes first iff x_L + y_L < y_L + x_L
    at the first level L where the two differ, else iff its permutation is
    smaller.  Swapping adjacent children out of that order lowers the
    serialization, so the sorted order is the minimum.
    """
    top = T.stable_level

    def form(level, group):
        # rows[L]: the group's entries inside an ancestor's node for L < level,
        # then its node vectors; perm: its branches in canonical order
        if len(group) == 1:
            last = top
            children = [([(T.branches[group[0]].entry(L),) for L in range(top + 1)],
                         tuple(group))]
        else:
            last = min(T.splits[group[0]:group[-1]])
            children = sorted((form(last + 1, child) for child in T.groups(last + 1)
                               if child[0] in group), key=cmp_to_key(_sibling_order))
        rows = [sum((sub[L] for sub, _ in children), ()) for L in range(top + 1)]
        return ([(row,) if level <= L <= last else row for L, row in enumerate(rows)],
                sum((perm for _, perm in children), ()))

    _, perm = form(0, range(T.d))
    splits = [T.pair_split(perm[i], perm[i + 1]) for i in range(T.d - 1)]
    tree = MultiplicityTree([T.branches[p] for p in perm], splits, validate=False)
    return tree, tuple(p + 1 for p in perm)


def good_mutants(S, cells):
    """The good semigroups with minimal conductor that differ from S in one
    of the given cells of its conductor box, 0 and the conductor kept."""
    out = []
    for v in cells:
        if v in ((0,) * S.d, S.conductor):
            continue
        try:
            out.append(GoodSemigroup(S.d, S.conductor, set(S.small_elements) ^ {v}))
        except ValidationError:
            continue
    return out
