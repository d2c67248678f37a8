"""Algebroid curves given by parametrizations, and their value semigroups.

A curve with d branches is presented as the complete local algebra

    A = k[[g_1, ..., g_n]],   g_i in k[[t_1]] x ... x k[[t_d]],

with every generator a SeriesTuple of exact truncated series and zero
constant terms.  All invariants are derived from values: the value of a
nonzerodivisor is its componentwise order.  Values inside the box
[0, bound] see no term of degree above bound_j, so `value_set` works in the
image W of A in prod_j k[t_j]/(t_j^(bound_j + 1)), on generators cut to
bound + 1, where every element is exact: a row is one primitive flat dict
of ints over all branches (see `_span`).  The first pass builds an echelon
basis of W, of dimension at most sum_j (bound_j + 1), one generator at a
time: each generator multiplies the span built so far until it adds no
row.  The second reads the values off its pivots by Delgado's dimension
criterion (Campillo, Delgado and Kiyek 1994).  Values created by
cancellation, for example v((t^6+t^7)^2 - (t^4)^3) = 13, are pivots like
any other.

Blowing up divides the maximal ideal by an element of minimal value, and
iterated blowups assemble the multiplicity tree: at each level every still
glued group of branches contributes its fine multiplicity vector as a node,
and a group splits into the local components of its blowup.  The
components are read off the constant terms of the generators, with no
saturation: two branches are glued exactly when every generator has the
same constant on both (see `_partition`).  Two curves are equivalent
exactly when their multiplicity trees agree up to branch renumbering.

Every computation is exact below the truncation order and fails loudly
(TruncationError) rather than extrapolate past it.  So the declared
truncation order is the most precision the tree walk may use: it walks
first at t_0 = 2*(e + 1), for the largest written exponent e, and moves
on to 2*t_0, 4*t_0, ... and finally the declared order only on a
TruncationError.  A tree found at a cut is exact, hence final.
"""

from bisect import bisect_left
from math import gcd, lcm

from .errors import (DomainError, InputError, TruncationError, ValidationError, echo,
                     literal_fields, literal_int, literal_list)
from .mult_tree import MultiplicityTree, canonical_form, tree_to_semigroup
from .series import SeriesTuple, TruncatedSeries, parse_series

DEFAULT_TRUNCATION = 64
# the same limit as the conductors: larger orders are refused up front
MAX_TRUNCATION = 2 ** 20

_DEFAULT_VARIABLES = ("t", "u", "v", "w")


class LocalAlgebra:
    """Subalgebra of a product of power-series rings, given by generators.

    Public constructions require every generator to have zero constant
    term in every component, so the generators lie in the would-be maximal
    ideal.  Internal constructions (blowups, branch restrictions) instead
    normalize each generator by the constant of its first component; a
    remaining constant in a later component is then genuine evidence that
    the algebra is not local.
    """

    __slots__ = ("d", "generators", "truncation_order")

    def __init__(self, generators, truncation_order=None, validate=True):
        generators = list(generators)
        if not generators:
            raise DomainError("a curve presentation needs at least one generator")
        d = generators[0].d
        for g in generators:
            if not isinstance(g, SeriesTuple) or g.d != d:
                raise DomainError("all generators must be series tuples with the same d")
        if validate:
            for i, g in enumerate(generators):
                for j, component in enumerate(g.components):
                    if 0 in component.numerators:
                        raise ValidationError(
                            "generator %d has a nonzero constant term in component %d"
                            % (i + 1, j + 1)
                        )
            for j in range(d):
                if all(g.components[j].is_zero() for g in generators):
                    raise ValidationError(
                        "no generator has a nonzero component on branch %d" % (j + 1,)
                    )
        else:
            # only a generator with a constant moves: with c = 0 the sum is g
            one = SeriesTuple.constant(1, d)
            generators = [g.plus_multiple(one, -g.components[0].constant_term())
                          if 0 in g.components[0].numerators else g for g in generators]
        kept = [g for g in generators if not g.is_zero()]
        if not kept:
            raise DomainError("every generator reduced to zero")
        self.d = d
        self.generators = tuple(kept)
        if truncation_order is None:
            truncation_order = min(
                component.truncation for g in kept for component in g.components
            )
        self.truncation_order = int(truncation_order)

    def __repr__(self):
        return "LocalAlgebra(d=%d, generators=%d, truncation_order=%d)" % (
            self.d,
            len(self.generators),
            self.truncation_order,
        )


def _capped_key(element, bound):
    """Componentwise order capped at bound+1; sentinel for zero-or-beyond."""
    key = []
    for j, component in enumerate(element.components):
        order = component.order()
        if order is not None and order <= bound[j]:
            key.append(order)
        elif component.truncation > bound[j]:
            key.append(bound[j] + 1)
        else:
            raise TruncationError(
                "truncation order %d cannot decide values up to %d on branch %d; "
                "rerun with a larger truncation order"
                % (component.truncation, bound[j], j + 1)
            )
    return tuple(key)


def _min_sum(f, g, bound):
    """f + lambda*g for the first lambda in 1..d+1 whose capped key is the
    componentwise minimum of the keys of f and g; at most one lambda cancels
    each leading term where the orders agree, so one of them works."""
    target = tuple(map(min, _capped_key(f, bound), _capped_key(g, bound)))
    return next(s for s in (f.plus_multiple(g, lam) for lam in range(1, f.d + 2))
                if _capped_key(s, bound) == target)


def _offsets(bound):
    """The position of t_j^0 in a flat row: offset_j = sum_(i<j) (bound_i + 1)."""
    return [sum(bound[:j]) + j for j in range(len(bound))]


def _row(element, bound, offsets):
    """The element cut at bound + 1 and scaled by the lcm of its
    denominators, as a flat integer row."""
    scale = lcm(*(c.denominator for c in element.components))
    return {o + e: scale // c.denominator * n
            for c, b, o in zip(element.components, bound, offsets)
            for e, n in c.numerators.items() if e <= b}


def _multiplier(g, bound, offsets):
    """Per position p, the terms (order, n) of the row g on the branch of p
    in ascending order, and the position past that branch."""
    terms = sorted(g.items())
    factor = []
    for o, b in zip(offsets, bound):
        factor += [([(p - o, n) for p, n in terms if o <= p <= o + b], o + b + 1)] * (b + 1)
    return factor


def _product(row, factor):
    """The row times g, cut at bound + 1, for factor = _multiplier(g, ...):
    the inner loop stops at the first pair of terms past the bound."""
    terms = {}
    for p1, n1 in row.items():
        inner, end = factor[p1]
        limit = end - p1
        for e2, n2 in inner:
            if e2 >= limit:
                break
            p = p1 + e2
            terms[p] = terms.get(p, 0) + n1 * n2
    if not all(terms.values()):
        terms = {p: n for p, n in terms.items() if n}
    return terms


def _eliminate(row, pivot, lead):
    """b*row - a*pivot, where a and b are the coefficients of row and pivot
    at their common lead, divided by their gcd, with b > 0: fraction-free,
    and zero at the lead."""
    a, b = row[lead], pivot[lead]
    common = gcd(a, b) if b > 0 else -gcd(a, b)
    a, b = a // common, b // common
    row = row.copy() if b == 1 else {p: b * n for p, n in row.items()}
    for p, n in pivot.items():
        if total := row.get(p, 0) - a * n:
            row[p] = total
        else:
            del row[p]
    return row


def _reduce(row, echelon):
    """(lead, remainder) of the row reduced against an echelon {lead: row}
    until its lead is no pivot, the remainder divided by its content; the
    lead is None when it reduced to zero."""
    while row:
        lead = min(row)
        if lead not in echelon:
            content = gcd(*row.values())
            return lead, {p: n // content for p, n in row.items()} if content > 1 else row
        row = _eliminate(row, echelon[lead], lead)
    return None, row


def _span(algebra, bound):
    """Echelon basis {lead: row} of the image W of the algebra in
    prod_j k[t_j]/(t_j^(bound_j + 1)), as primitive flat integer rows.

    A row is a dict {offset_j + e: n} for the terms n*t_j^e, e <= bound_j
    (see `_offsets`), so its smallest key is its lead, branch-major.  Orders
    are never negative, so cutting at bound + 1 is a ring map, and
    `value_set` has checked that every generator is known past the bound:
    each row is exact and needs no truncation or denominator.  A generator
    is scaled by the lcm of its denominators, which keeps W, and elimination
    is fraction-free (Bareiss 1968): the leads are divided by their gcd, and
    each reduced row by its content.

    The span is a Krylov closure, one generator at a time: V_0 = k*1 and
    V_k = k[g_k]*V_(k-1).  In stage k every row of V_(k-1) is multiplied by
    g_k once, and after that only the rows that the previous pass added,
    each product reduced into the span.  That is enough: if the span S_m
    after pass m adds the rows U_m to S_(m-1), and g_k*S_(m-1) lies in S_m,
    then g_k*S_m lies in S_m + g_k*span(U_m), which pass m + 1 spans.  The
    generators commute, so V_k is closed under g_1, ..., g_k, and V_n = W;
    its dimension is at most sum_j (bound_j + 1).

    W is the same in any order, so the order only sets the cost.  The
    generators are taken sparsest first, by term count in the box (a stable
    sort): the early rows and their products stay short.  On the plane
    pair (t^4, u^6), (t^6+t^7, u^9+u^10), (t^9, u^4) at bound (100, 100),
    an unsorted order costs up to 15 times as much as a sorted one.
    """
    offsets = _offsets(bound)
    generators = sorted((_row(g, bound, offsets) for g in algebra.generators), key=len)
    echelon = {0: {o: 1 for o in offsets}}
    for g in generators:
        factor = _multiplier(g, bound, offsets)
        added = list(echelon.values())
        while added:
            rows, added = added, []
            for row in rows:
                lead, rest = _reduce(_product(row, factor), echelon)
                if lead is not None:
                    echelon[lead] = rest
                    added.append(rest)
    return echelon


class _Slices:
    """The span T of an echelon on the trailing branches that start at the
    positions `offsets`, and its slices.

    T_a, the elements of T of order >= a on the first branch, is spanned by
    the rows of first-branch lead >= a and the rows that vanish there,
    because the leads are distinct.  The projections pi(T_a) to the other
    branches are built on first use, for descending pivots a, each from
    pi(T_(a+1)) and the row r_a reduced against it.  A row that vanishes on
    the first branch is its own projection.
    """

    __slots__ = ("offsets", "echelon", "_pivots", "_slices", "_values")

    def __init__(self, offsets, echelon):
        self.offsets = offsets
        self.echelon = echelon
        self._pivots = None
        self._values = None

    def _by_pivot(self):
        """Ascending pivots a, and per pivot pi(T_a) with pi(r_a) reduced
        against pi(T_(a+1)) as (lead, remainder); last, pi of the rows that
        vanish on the first branch."""
        if self._pivots is None:
            cut = self.offsets[1]
            above = _Slices(self.offsets[1:],
                            {p: row for p, row in self.echelon.items() if p >= cut})
            self._pivots = sorted(p for p in self.echelon if p < cut)
            self._slices = [(above, None, None)]
            for a in reversed(self._pivots):
                rest = {p: n for p, n in self.echelon[a].items() if p >= cut}
                lead, rest = _reduce(rest, above.echelon)
                if lead is not None:
                    above = _Slices(above.offsets, {**above.echelon, lead: rest})
                self._slices.append((above, lead, rest))
            self._slices.reverse()
        return self._pivots, self._slices

    def sliced(self, a):
        """pi(T_a), for any natural number a."""
        pivots, slices = self._by_pivot()
        return slices[bisect_left(pivots, self.offsets[0] + a)][0]

    def values(self):
        """The alpha at which no coefficient t_j^(alpha_j) vanishes on T(alpha)."""
        if self._values is None:
            offset = self.offsets[0]
            if len(self.offsets) == 1:
                self._values = {(p - offset,) for p in self.echelon}
            else:
                pivots, slices = self._by_pivot()
                self._values = set()
                for a, (below, lead, rest), (above, _, _) in zip(pivots, slices, slices[1:]):
                    self._values.update((a - offset,) + beta for beta in
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
    e = lead - space.offsets[0]
    if len(space.offsets) == 1:
        return [beta for beta in candidates if beta[0] <= e]
    cut = space.offsets[1]
    if lead < cut:
        candidates = [beta for beta in candidates if beta[0] <= e]
    by_first = {}
    for beta in candidates:
        by_first.setdefault(beta[0], []).append(beta[1:])
    reached, rest = [], {p: n for p, n in rest.items() if p >= cut}
    for first, tails in by_first.items():
        sliced = space.sliced(first)
        sublead, subrest = _reduce(rest, sliced.echelon)
        reached.extend((first,) + beta for beta in _reaching(sublead, subrest, sliced, tails))
    return reached


def _fm_bound(algebra):
    """Componentwise minimum of the generator orders; bounds the fine multiplicity."""
    bound = []
    for j in range(algebra.d):
        orders = [g.components[j].order() for g in algebra.generators]
        orders = [o for o in orders if o is not None]
        if not orders:
            raise TruncationError(
                "no generator has a known term on branch %d; the presentation is "
                "degenerate or the truncation order too small" % (j + 1,)
            )
        bound.append(min(orders))
    return tuple(bound)


def _partition(algebra):
    """Group the branches into the local components of the algebra.

    Taking constant terms is a ring map from the algebra to k^d, and the
    maximal ideals are the kernels of the evaluations at the branches.  A
    complete semilocal algebra is the product of its localizations
    (Matsumura, Commutative Ring Theory, section 8), so branches j and h lie
    in one component exactly when every element has the same constant on
    both: an element whose constants differ, minus its constant on j, is a
    unit on h and not on j.  The constants of the generators' products and
    sums are the products and sums of theirs, so comparing the generators
    suffices.  Constant terms are always known, because every division
    leaves truncation >= 1, so this costs O(n*d) and never raises.  Groups
    are ordered by first member, members by index.
    """
    groups = {}
    for j in range(algebra.d):
        column = tuple(g.components[j].constant_term() for g in algebra.generators)
        groups.setdefault(column, []).append(j)
    return list(groups.values())


def is_local_ring(algebra):
    """True when the nonunits form an ideal: the algebra is one local component.

    That is, every generator has one constant term on all branches (see
    `_partition`); after constants are normalized by the first branch, every
    constant term is zero.
    """
    return len(_partition(algebra)) == 1


def value_set(algebra, bound):
    """All values of nonzerodivisors inside the box [0, bound], as tuples.

    `_span` builds an echelon basis of W, the image of the algebra in
    prod_j k[t_j]/(t_j^(bound_j + 1)).  alpha is a value exactly when, for
    every branch j, the coefficient of t_j^alpha_j does not vanish on
    W(alpha) = {w in W : ord_i w >= alpha_i for all i}: over an infinite
    field a space is no finite union of proper subspaces, so one element of
    W(alpha) has order alpha.

    The values are read off the pivots, recursing on the first branch
    (`_Slices`).  Let r_a be the row of first-branch lead a, W_a the
    elements of W of order >= a there, and pi the projection to the other
    branches.  (a, beta) is a value exactly when
      - a is a pivot, since otherwise W_a = W_(a+1);
      - beta is a value of pi(W_a), which covers the other branches; and
      - pi(r_a) lies in pi(W_(a+1)) + M_beta, where M_beta holds the
        elements of order >= beta: that gives an element of W(a, beta) of
        order a on the first branch (`_reaching`).
    On the last two branches this reads: the values at a are the pivots c
    of pi(W_a) with c <= n_a, where n_a is the order of pi(r_a) reduced
    against the pivots of pi(W_(a+1)), and every pivot when it reduces to
    zero.  No step scans or allocates the box: the work follows dim W and
    the values of the slices.  Every row is a flat integer row (see `_span`).
    """
    if isinstance(bound, int):
        bound = (bound,)
    bound = tuple(int(b) for b in bound)
    if len(bound) != algebra.d:
        raise DomainError("bound has dimension %d, expected %d" % (len(bound), algebra.d))
    if any(b < 0 for b in bound):
        raise DomainError("bound coordinates must be natural numbers: %s" % echo(list(bound)))
    for j in range(algebra.d):
        for g in algebra.generators:
            if g.components[j].truncation <= bound[j]:
                raise TruncationError(
                    "truncation order %d cannot decide values up to %d on branch %d; "
                    "rerun with truncation order at least %d"
                    % (g.components[j].truncation, bound[j], j + 1, bound[j] + 1)
                )
    return _Slices(_offsets(bound), _span(algebra, bound)).values()


def blowup(algebra):
    """The algebra of the maximal ideal divided by an element x of minimal value.

    x is the first generator of value fm_bound, or else the generators
    folded into one by `_min_sum`: each fold x + lambda*g keeps the
    componentwise minimum of the values.  A
    generator is preferred because a folded x is dense and slows every
    division by it.  A generator x is not divided by itself: x/x is the
    constant 1, which the normalization by first-branch constants turns
    into zero and `LocalAlgebra` drops.  A folded x is no generator, and
    every generator is divided by it.  A divisor whose lead is not +-1
    (2t^2 + ..., or a fold) is common; its quotients scale by doubling
    powers of the lead (see `TruncatedSeries.__truediv__`).
    """
    if not is_local_ring(algebra):
        raise DomainError("blowup requires a local algebra; blow up its local pieces instead")
    bound = _fm_bound(algebra)
    x = next((g for g in algebra.generators if _capped_key(g, bound) == bound), None)
    if x is None:
        x = algebra.generators[0]
        for g in algebra.generators[1:]:
            x = _min_sum(x, g, bound)
    return LocalAlgebra([x] + [g / x for g in algebra.generators if g is not x],
                        validate=False)


def branch_multiplicity_sequence(algebra):
    """Multiplicities of the successive blowups of a one-branch curve."""
    if algebra.d != 1:
        raise DomainError(
            "multiplicity sequences belong to one-branch curves; got %d branches"
            % algebra.d
        )
    return multiplicity_tree_of_curve(algebra).branches[0]


def _restricted(algebra, positions):
    gens = [SeriesTuple([g.components[p] for p in positions]) for g in algebra.generators]
    return LocalAlgebra(gens, validate=False)


def multiplicity_tree_of_curve(algebra):
    """Multiplicity tree of the blowup sequence of a local curve.

    Level i holds one node per group of branches still glued in the i-th
    blowup, labelled by the fine multiplicity vector of that component.
    Each group is blown up until it parts into local components, and each
    component is grown on in turn.  Branches keep their input order as
    long as every split cuts them into consecutive blocks (true for all
    trees this package serializes); otherwise they are listed in
    separation order.

    The declared truncation order T is the most precision the walk may
    use: a blowup uses up about as many orders as its multiplicity, so a
    tree needs about as many terms as its largest branch sum.  The walk
    runs first on the generators cut at t_0 = 2*(e + 1), for the largest
    exponent e of a known term, so the cut keeps every written term; only
    a TruncationError sends it on to 2*t_0, 4*t_0, ..., and the last
    attempt is T itself.  Every step is exact below its truncation or
    raises TruncationError, so a tree found at a cut is the tree at T, and
    any other error propagates.  Identical branches are refused once, at
    T: components that agree at T agree at every cut.
    """
    if not is_local_ring(algebra):
        raise DomainError("the curve is not local; only local curves have a multiplicity tree")
    for a in range(algebra.d):
        for b in range(a + 1, algebra.d):
            if all(g.components[a] == g.components[b] for g in algebra.generators):
                raise TruncationError(
                    "branches %d and %d have the same component in every generator, so "
                    "they fail to separate in every blowup; no larger truncation of "
                    "these literals separates them" % (a + 1, b + 1)
                )
    largest = max(e for g in algebra.generators for c in g.components for e in c.numerators)
    t = 2 * (largest + 1)
    while t < algebra.truncation_order:
        # adding the zero series known below t cuts a generator there
        zero = SeriesTuple([TruncatedSeries({}, t)] * algebra.d)
        try:
            return _walk(LocalAlgebra([g + zero for g in algebra.generators], validate=False))
        except TruncationError:
            t *= 2
    return _walk(algebra)


def _walk(algebra):
    """The multiplicity tree of a local curve with distinct branches, at
    the algebra's own truncation order."""
    if algebra.d == 1:
        exhausted = ("the multiplicity sequence does not reach 1 within the truncation "
                     "order; the branch has infinite index in its normalization or the "
                     "truncation order is too small")
    else:
        exhausted = ("the branches fail to separate and stabilize within the truncation "
                     "order; rerun with a larger truncation order")
    entries = [[] for _ in range(algebra.d)]
    max_levels = algebra.truncation_order + 2

    def grow(current, branches, level):
        """Record the nodes of a glued group from `level` on; return its
        branches in output order and the split levels between them."""
        while True:
            if level == max_levels:
                raise TruncationError(exhausted)
            fm = _fm_bound(current)
            for branch, multiplicity in zip(branches, fm):
                entries[branch].append(multiplicity)
            if fm == (1,):
                return branches, []
            # a blowup depends on the generators alone: a fixed point repeats
            current, previous = blowup(current), current
            if current.generators == previous.generators:
                raise TruncationError(exhausted)
            parts = _partition(current) if len(branches) > 1 else [[0]]
            level += 1
            if len(parts) > 1:
                break
        order, splits = [], []
        for part in parts:
            if order:
                splits.append(level - 1)
            part_order, part_splits = grow(_restricted(current, part),
                                           [branches[p] for p in part], level)
            order += part_order
            splits += part_splits
        return order, splits

    order, splits = grow(algebra, list(range(algebra.d)), 0)
    return MultiplicityTree([entries[branch] for branch in order], splits)


def curves_equivalent(first, second):
    """True when the curves have the same multiplicity tree up to renumbering."""
    if first.d != second.d:
        return False
    return (
        canonical_form(multiplicity_tree_of_curve(first))[0]
        == canonical_form(multiplicity_tree_of_curve(second))[0]
    )


def arf_closure_value_semigroup(algebra):
    """Value semigroup of the Arf closure, read off the multiplicity tree."""
    return tree_to_semigroup(multiplicity_tree_of_curve(algebra))


def _variable_names(d):
    names = list(_DEFAULT_VARIABLES[:d])
    while len(names) < d:
        names.append("t%d" % (len(names) + 1,))
    return names


def curve_from_dict(data):
    """Build a LocalAlgebra from a curve literal.

    Expected shape:

        {"d": 2, "variables": ["t", "u"], "truncation": 64,
         "generators": [["t^4", "u^2"], ["t^6+t^7", "u^5"]]}

    `variables` defaults to t, u, v, w, ... and `truncation` to 64; a
    truncation above MAX_TRUNCATION is refused with a DomainError.  Every
    generator component is parsed in its branch variable.
    """
    literal_fields(data, ("d", "generators"), "curve")
    d = literal_int(data["d"], "d", 1)
    variables = data.get("variables")
    if variables is not None:
        variables = [str(v) for v in literal_list(variables, "variables")]
        if len(variables) != d or len(set(variables)) != d:
            raise InputError("variables must be %d distinct names, got %s" % (d, echo(variables)))
    truncation = literal_int(data.get("truncation", DEFAULT_TRUNCATION), "truncation")
    if truncation <= 0:
        raise InputError("truncation must be positive, got %d" % truncation)
    if truncation > MAX_TRUNCATION:
        raise DomainError("the truncation order exceeds the limit of %d" % MAX_TRUNCATION)
    generators = data["generators"]
    if not isinstance(generators, (list, tuple)) or not generators:
        raise InputError("generators must be a non-empty list")
    parsed = []
    for i, generator in enumerate(generators):
        if not isinstance(generator, (list, tuple)) or len(generator) != d:
            raise InputError("generator %d must list %d component series" % (i + 1, d))
        # the default names follow a generator of d components, so a bare d allocates nothing
        variables = variables or _variable_names(d)
        parsed.append(
            SeriesTuple(
                [parse_series(str(text), variables[j], truncation) for j, text in enumerate(generator)]
            )
        )
    return LocalAlgebra(parsed, truncation_order=truncation, validate=True)


def curve_to_dict(algebra, variables=None):
    """Curve literal for the algebra, rendering each generator component."""
    if variables is None:
        variables = _variable_names(algebra.d)
    return {
        "d": algebra.d,
        "variables": list(variables),
        "truncation": algebra.truncation_order,
        "generators": [
            [g.components[j].to_string(variables[j]) for j in range(algebra.d)]
            for g in algebra.generators
        ],
    }
