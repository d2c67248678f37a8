import itertools
import random
import time
from collections import Counter
from operator import ge

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arfcurves.errors import DomainError, InputError, ValidationError
from arfcurves.good_semigroup import (
    GoodSemigroup,
    _boxed,
    _lift_gaps,
    _meet_irreducibles,
    fine_multiplicity,
    good_from_dict,
    good_to_dict,
    is_arf_good,
    is_good,
    is_local,
    plane_projection,
    projection,
    residue,
)
from arfcurves.mult_tree import MultiplicityTree, tree_to_semigroup
from arfcurves.numerical import NumericalSemigroup, arf_closure, seq_to_semigroup
from helpers import (TWELVE, _additive_generators, arf_good_oracle, axiom_failure_by_keys_oracle,
                     boxed_oracle, from_member_grid, good_axioms_oracle, min_closure,
                     min_sum_closure, random_arf_sequence, random_tree)

# Two branches: {(0,0),(4,2)} with the column (6,n) n>=4 and (8,4)+N^2.
EX1 = GoodSemigroup(2, (8, 4), [(0, 0), (4, 2), (6, 4), (8, 4)])
# Three branches: {0,(1,1,1)} and everything from (2,2,2) on.
DIAG3 = GoodSemigroup(3, (2, 2, 2), [(0, 0, 0), (1, 1, 1), (2, 2, 2)])
N2 = GoodSemigroup.natural_numbers(2)


def test_contains_examples():
    assert EX1.contains((6, 5))
    assert EX1.contains((0, 0))
    assert not EX1.contains((7, 4))
    assert EX1.contains((6, 100))
    assert not EX1.contains((100, 2))
    with pytest.raises(DomainError):
        EX1.contains((1, 2, 3))


def test_is_good_examples():
    ok, message = is_good(2, (8, 4), [(0, 0), (4, 2), (6, 4), (8, 4)])
    assert ok and message is None
    ok, message = is_good(2, (0, 0), [(0, 0)])
    assert ok
    # Same set with the (6,n) n>=5 column removed, presented on a box large
    # enough to expose the gap.
    ok, message = is_good(2, (9, 5), [(0, 0), (4, 2), (6, 4), (8, 4),
                                      (8, 5), (9, 4), (9, 5)])
    assert not ok
    assert "property (2)" in message
    assert "[6, 4]" in message and "[8, 4]" in message
    # members with first coordinate 6 have two maximal ones, (6, 6, 8) and
    # (6, 4, 10); [6, 4, 8] and [8, 4, 8] lift at coordinate 3 only through
    # the second, so the first failure comes later
    ok, message = is_good(3, (8, 6, 10), [
        (0, 0, 0), (4, 2, 4), (4, 4, 8), (4, 4, 10), (4, 6, 8), (4, 6, 10), (6, 2, 4),
        (6, 4, 8), (6, 4, 10), (6, 6, 8), (8, 2, 4), (8, 4, 8), (8, 4, 10), (8, 6, 8),
        (8, 6, 10)])
    assert message == "property (2) fails at alpha=[6, 4, 10], beta=[8, 4, 10], coordinate 2"
    # (1, 1) = cap((0, 1) + (1, 1)) is no exact sum, so it is an additive
    # generator of its own, and (1, 1) + (1, 1) = (2, 1) is missing
    assert is_good(2, (3, 1), [(0, 0), (0, 1), (1, 1), (3, 1)]) == (
        False, "not closed under addition: [1, 1] + [1, 1] is missing")


def test_is_good_reports_min_violation():
    ok, message = is_good(2, (2, 2), [(0, 0), (1, 2), (2, 1), (2, 2)])
    assert not ok
    assert "property (1)" in message


def test_constructor_rejects_nonminimal_conductor():
    small = [(0, 0), (4, 2), (6, 4), (6, 5), (8, 4), (8, 5), (9, 4), (9, 5)]
    with pytest.raises(ValidationError, match="minimal"):
        GoodSemigroup(2, (9, 5), small)


def test_from_member_grid_shrinks_to_minimal_box():
    grid = np.zeros((10, 6), dtype=bool)
    for a in range(10):
        for b in range(6):
            grid[a, b] = EX1.contains((a, b))
    assert from_member_grid(grid) == EX1


def test_is_local_examples():
    assert is_local(EX1)
    assert not is_local(N2)
    assert not is_local(residue(EX1, (6, 4)))
    assert is_local(DIAG3)


def test_residue_examples():
    at_multiplicity = residue(EX1, (4, 2))
    assert at_multiplicity.contains((2, 2))
    assert is_local(at_multiplicity)
    assert residue(EX1, (0, 0)) == EX1
    assert residue(EX1, (8, 4)) == N2
    assert residue(EX1, (10, 7)) == N2
    with pytest.raises(DomainError):
        residue(EX1, (1, 1))
    # a long non-member is quoted by its first 40 characters
    wide = GoodSemigroup(2000, [1] * 2000, [[0] * 2000, [1] * 2000])
    with pytest.raises(DomainError, match=r"non-member \[(1, ){13}\.\.\.$"):
        residue(wide, [1] * 1999 + [0])


def test_residue_matches_shifted_membership():
    for alpha in EX1.small_elements:
        T = residue(EX1, alpha)
        for a in range(12):
            for b in range(8):
                shifted = (alpha[0] + a, alpha[1] + b)
                assert T.contains((a, b)) == EX1.contains(shifted)


def test_is_arf_good_examples():
    assert is_arf_good(EX1)
    assert is_arf_good(N2)
    assert is_arf_good(DIAG3)
    not_arf = GoodSemigroup.from_numerical(NumericalSemigroup.from_generators([4, 6, 13]))
    assert not is_arf_good(not_arf)
    assert is_arf_good(GoodSemigroup.from_numerical(arf_closure([4, 6, 13])))


def product(*factors):
    """Direct product of good semigroups, coordinates in factor order."""
    S = factors[0]
    for F in factors[1:]:
        S = GoodSemigroup(S.d + F.d, S.conductor + F.conductor,
                          [a + b for a in S.small_elements for b in F.small_elements])
    return S


def permuted(S, perm):
    return GoodSemigroup(S.d, [S.conductor[i] for i in perm],
                         [tuple(v[i] for i in perm) for v in S.small_elements])


def test_is_arf_good_on_products_and_permutations():
    N1 = GoodSemigroup.natural_numbers(1)
    arf = GoodSemigroup.from_numerical(arf_closure([4, 6, 13]))
    gens = NumericalSemigroup.from_generators([4, 6, 13])
    not_arf = GoodSemigroup.from_numerical(gens)
    # <4,6,13> on the diagonal: good and local, but not Arf
    diagonal = GoodSemigroup(2, (16, 16), [(s, s) for s in gens.small_elements] + [(16, 16)])
    # branches 1 and 2 glued through level 3, branch 3 apart from the root:
    # in the order 1, 3, 2 the glued pair is not an interval
    tree = tree_to_semigroup(MultiplicityTree([[2], [2], [3]], splits=(3, 0)))
    cases = [
        (N2, True),
        (product(N1, arf), True),
        (product(arf, N1, EX1), True),
        (product(N1, not_arf), False),
        (product(EX1, not_arf), False),
        (product(N1, diagonal), False),
        (permuted(tree, (0, 2, 1)), True),
        (permuted(tree, (2, 0, 1)), True),
        (permuted(product(tree, N1), (1, 3, 2, 0)), True),
        (permuted(product(diagonal, EX1), (3, 0, 2, 1)), False),
    ]
    for S, expected in cases:
        assert arf_good_oracle(S) is expected
        assert is_arf_good(S) is expected


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_is_arf_good_matches_oracle_in_any_branch_order(rng):
    S = tree_to_semigroup(random_tree(rng, d_max=4, max_len=3, max_entry=4, split_max=3))
    perm = list(range(S.d))
    rng.shuffle(perm)
    S = permuted(S, perm)
    assert arf_good_oracle(S)
    assert is_arf_good(S)


@given(st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_residues_and_plane_projections_match_grids(rng):
    # the box of each residue, marked cell by cell, against the member-set path
    S = tree_to_semigroup(random_tree(rng, d_max=3, max_len=3, max_entry=4))
    for alpha in S.small_elements:
        kappa = [max(c - a, 0) for c, a in zip(S.conductor, alpha)]
        grid = np.zeros([k + 1 for k in kappa], dtype=bool)
        for g in itertools.product(*(range(k + 1) for k in kappa)):
            grid[g] = S.contains([a + x for a, x in zip(alpha, g)])
        assert residue(S, alpha) == from_member_grid(grid)
    for j, h in itertools.permutations(range(1, S.d + 1), 2):
        grid = np.zeros((S.conductor[j - 1] + 1, S.conductor[h - 1] + 1), dtype=bool)
        for v in S.small_elements:
            grid[v[j - 1], v[h - 1]] = True
        assert plane_projection(S, j, h) == from_member_grid(grid)


def test_conductor_drop_matches_the_slab_count_oracle():
    # a coordinate whose delta - e_j is missing keeps its conductor with no
    # slab counted; on projections, residues and dense random member sets the
    # result is that of counting every slab
    rng = random.Random(25)
    inputs = []
    for _ in range(80):
        S = tree_to_semigroup(random_tree(rng, d_max=4, max_len=3, max_entry=4))
        coords = rng.sample(range(S.d), rng.randint(1, S.d))
        inputs.append((tuple(S.conductor[j] for j in coords),
                       {tuple(v[j] for j in coords) for v in S.small_elements}))
        alpha = rng.choice(S.small_elements)
        inputs.append((tuple(c - a for c, a in zip(S.conductor, alpha)),
                       {tuple(x - a for x, a in zip(v, alpha))
                        for v in S.small_elements if all(map(ge, v, alpha))}))
        corner = tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 3)))
        box = itertools.product(*(range(c + 1) for c in corner))
        inputs.append((corner, {v for v in box if rng.random() < 0.85}))
    dropped = 0
    for corner, members in inputs:
        boxed = _boxed(corner, members)
        assert boxed == boxed_oracle(corner, members), (corner, members)
        dropped += boxed.conductor != corner
    assert 30 <= dropped <= len(inputs) - 30, dropped


def test_projection_examples():
    assert projection(EX1, 1) == NumericalSemigroup(8, [0, 4, 6])
    assert projection(EX1, 2) == NumericalSemigroup(4, [0, 2])
    assert projection(N2, 2) == NumericalSemigroup.natural_numbers()
    with pytest.raises(DomainError):
        projection(EX1, 3)


def test_plane_projection_examples():
    assert plane_projection(EX1, 1, 2) == EX1
    swapped = plane_projection(EX1, 2, 1)
    assert swapped.conductor == (4, 8)
    assert swapped.contains((5, 6))
    assert not swapped.contains((4, 7))
    diag2 = plane_projection(DIAG3, 1, 3)
    assert diag2 == GoodSemigroup(2, (2, 2), [(0, 0), (1, 1), (2, 2)])
    with pytest.raises(DomainError):
        plane_projection(DIAG3, 2, 2)


def test_fine_multiplicity_examples():
    assert fine_multiplicity(EX1) == (4, 2)
    assert sum(fine_multiplicity(EX1)) == 6
    assert fine_multiplicity(DIAG3) == (1, 1, 1)
    assert fine_multiplicity(GoodSemigroup.natural_numbers(1)) == (1,)
    with pytest.raises(DomainError):
        fine_multiplicity(N2)


def test_dict_round_trip():
    data = good_to_dict(EX1)
    assert data == {"d": 2, "conductor": [8, 4],
                    "small_elements": [[0, 0], [4, 2], [6, 4], [8, 4]]}
    assert good_from_dict(data) == EX1
    with pytest.raises(InputError, match="^semigroup literal is missing small_elements$"):
        good_from_dict({"d": 2, "conductor": [8, 4]})


def test_numerical_round_trip():
    S = arf_closure([10, 15, 18, 19])
    lifted = GoodSemigroup.from_numerical(S)
    assert lifted.to_numerical() == S
    assert projection(lifted, 1) == S
    assert GoodSemigroup.natural_numbers(1).to_numerical() == NumericalSemigroup.natural_numbers()


@given(st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_lifted_numerical_semigroups_satisfy_axioms(rng):
    S = seq_to_semigroup(random_arf_sequence(rng))
    lifted = GoodSemigroup.from_numerical(S)
    ok, message = is_good(1, lifted.conductor, lifted.small_elements)
    assert ok, message
    assert is_arf_good(lifted)
    assert is_local(lifted)
    assert fine_multiplicity(lifted) == (S.multiplicity(),)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_grid_checks_match_brute_force_oracle(data):
    d = data.draw(st.integers(1, 3))
    dims = tuple(data.draw(st.integers(1, 4)) for _ in range(d))
    box = list(itertools.product(*(range(s) for s in dims)))
    cells = data.draw(st.lists(st.booleans(), min_size=len(box), max_size=len(box)))
    conductor = tuple(s - 1 for s in dims)
    small = [v for v, keep in zip(box, cells)
             if keep or v == (0,) * d or v == conductor]
    expected = good_axioms_oracle(d, conductor, small)
    assert is_good(d, conductor, small) == (expected is None, expected)


@given(st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_oracle_accepts_tree_semigroups(rng):
    S = tree_to_semigroup(random_tree(rng))
    assert good_axioms_oracle(S.d, S.conductor, S.small_elements) is None
    assert is_good(S.d, S.conductor, S.small_elements) == (True, None)
    # one member removed or one box vector added, at d = 2..4: unlike
    # random boxes, these candidates often pass min and sum and reach the
    # lift (one seed drawn, so the example stays small)
    rng = random.Random(rng.getrandbits(64))
    tree = random_tree(rng, d_max=4, max_len=3, max_entry=4)
    while tree.d < 2:
        tree = random_tree(rng, d_max=4, max_len=3, max_entry=4)
    S = tree_to_semigroup(tree)
    members = set(S.small_elements)
    inner = [v for v in S.small_elements if any(v) and v != S.conductor]
    outside = [v for v in itertools.product(*(range(c + 1) for c in S.conductor))
               if v not in members]
    candidates = [members - {rng.choice(inner)} for _ in range(3) if inner]
    candidates += [members | {rng.choice(outside)} for _ in range(3) if outside]
    for small in candidates:
        expected = good_axioms_oracle(S.d, S.conductor, small)
        assert is_good(S.d, S.conductor, small) == (expected is None, expected)


def test_axiom_messages_match_oracle_on_dense_products():
    # products of small numerical semigroups at d = 2..3 with one member
    # removed or one box vector added: dense candidates on which min and sum
    # are decided from few generators, and every kind of verdict occurs,
    # the rescans that name a first failing pair included
    generators = [(1,), (2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (3, 4, 5), (4, 5), (3, 7),
                  (4, 6, 7)]
    kinds = Counter()
    for seed in range(100):
        rng = random.Random(seed)
        factors = [NumericalSemigroup.from_generators(rng.choice(generators))
                   for _ in range(rng.randint(2, 3))]
        d = len(factors)
        conductor = tuple(N.conductor for N in factors)
        members = set(itertools.product(*((*N.small_elements, N.conductor) for N in factors)))
        inner = sorted(v for v in members if any(v) and v != conductor)
        outside = [v for v in itertools.product(*(range(c + 1) for c in conductor))
                   if v not in members]
        candidates = [members - {rng.choice(inner)}] if inner else []
        candidates += [members | {rng.choice(outside)}] if outside else []
        for small in candidates:
            expected = good_axioms_oracle(d, conductor, small)
            assert is_good(d, conductor, small) == (expected is None, expected)
            kinds[expected and " ".join(expected.split()[:2])] += 1
    assert set(kinds) == {None, "property (1)", "not closed", "property (2)"}, kinds


def _mutants(rng, conductor, members, removed, added):
    """members with one member removed (0 and the conductor kept), or with
    one vector of the box added, `removed` and `added` times each."""
    inner = sorted(v for v in members if any(v) and v != conductor)
    box = itertools.islice(itertools.product(*(range(c + 1) for c in conductor)), 4000)
    outside = [v for v in box if v not in members]
    return ([members - {v} for v in rng.sample(inner, min(removed, len(inner)))]
            + [members | {v} for v in rng.sample(outside, min(added, len(outside)))])


def test_axiom_messages_match_the_lift_by_keys_oracle():
    # the algorithm whose sum walked the additive generators and whose lift
    # searched witnesses once per key over buckets of maximal members gives
    # the same verdict and message on five families: random box subsets,
    # min/sum closures of random seeds and their one-member-removed mutants
    # (these pass (1) and the sum and reach the lift), tree semigroups with
    # one member removed or added, dense products of numerical semigroups,
    # and min-closures of random seeds (these pass (1) and often fail the
    # sum) beside one-member-removed min/sum closures
    rng = random.Random(23)
    kinds = {family: Counter() for family in ("box", "closure", "tree", "product", "sum")}

    def check(family, d, conductor, small):
        small = sorted(small)
        expected = axiom_failure_by_keys_oracle(d, conductor, small)
        assert is_good(d, conductor, small) == (expected is None, expected), (conductor, small)
        kinds[family][expected and " ".join(expected.split()[:2])] += 1

    for _ in range(600):
        d = rng.randint(1, 3)
        conductor = tuple(rng.randint(0, 4) for _ in range(d))
        box = list(itertools.product(*(range(c + 1) for c in conductor)))
        small = set(rng.sample(box, rng.randint(1, len(box))))
        check("box", d, conductor, small | {(0,) * d, conductor} if rng.random() < 0.9 else small)
    for _ in range(300):
        d = rng.randint(2, 5)
        conductor = tuple(rng.randint(1, 6 - d) + (d < 4) for _ in range(d))
        box = list(itertools.product(*(range(c + 1) for c in conductor)))
        members = min_sum_closure(conductor, rng.sample(box, rng.randint(1, 3)))
        for small in [members] + _mutants(rng, conductor, members, 2, 0):
            check("closure", d, conductor, small)
    for _ in range(150):
        S = tree_to_semigroup(random_tree(rng, d_max=5, max_len=3, max_entry=4))
        members = set(S.small_elements)
        for small in [members] + _mutants(rng, S.conductor, members, 2, 2):
            check("tree", S.d, S.conductor, small)
    generators = [(1,), (2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (3, 4, 5), (4, 5), (3, 7)]
    for _ in range(100):
        factors = [NumericalSemigroup.from_generators(rng.choice(generators))
                   for _ in range(rng.randint(2, 3))]
        conductor = tuple(N.conductor for N in factors)
        members = set(itertools.product(*((*N.small_elements, N.conductor) for N in factors)))
        for small in [members] + _mutants(rng, conductor, members, 1, 1):
            check("product", len(factors), conductor, small)
    for _ in range(300):
        d = rng.randint(1, 5)
        conductor = tuple(rng.randint(1, 6 - d) + (d < 4) for _ in range(d))
        box = list(itertools.product(*(range(c + 1) for c in conductor)))
        seeds = rng.sample(box, min(rng.randint(1, 5), len(box)))
        check("sum", d, conductor, min_closure(conductor, seeds))
        for small in _mutants(rng, conductor, min_sum_closure(conductor, seeds), 1, 0):
            check("sum", d, conductor, small)
    total = sum(kinds.values(), Counter())
    assert {None, "property (1)", "not closed", "property (2)"} <= set(total), kinds
    assert kinds["closure"]["property (2)"] and kinds["closure"][None], kinds
    assert kinds["sum"]["not closed"], kinds


def test_lift_gaps_match_the_least_member_above():
    # for every member m and pivot p, E_p(m) is where the least member >=
    # min(m + e_p, delta), found by scanning all members, exceeds m; on tree
    # semigroups with d <= 5 and on min/sum closures, which satisfy (1)
    rng = random.Random(5)
    candidates = [tree_to_semigroup(random_tree(rng, d_max=5, max_len=4, max_entry=6))
                  for _ in range(60)]
    candidates = [(S.conductor, set(S.small_elements)) for S in candidates if S.d > 1]
    for _ in range(100):
        d = rng.randint(2, 5)
        conductor = tuple(rng.randint(1, 6 - d) + (d < 4) for _ in range(d))
        box = list(itertools.product(*(range(c + 1) for c in conductor)))
        candidates.append((conductor, min_sum_closure(conductor, rng.sample(box, 2))))
    checked = 0
    for conductor, members in candidates:
        d, small = len(conductor), sorted(members)
        irreducibles = _meet_irreducibles(d, small, frozenset(small))
        index = {}
        for k, g in enumerate(irreducibles):
            for key in enumerate(g):
                index.setdefault(key, []).append(k)
        for m in small:
            gaps = _lift_gaps(conductor, m, irreducibles, index)[0]
            for p in range(d):
                floor = tuple(min(x + (i == p), c) for i, (x, c) in enumerate(zip(m, conductor)))
                least = tuple(map(min, zip(*(u for u in small if all(map(ge, u, floor))))))
                assert least in members
                assert gaps[p] == sum(1 << i for i in range(d) if least[i] > m[i]), (m, p)
                checked += 1
    assert checked > 4000, checked


def test_generator_counts_on_full_boxes():
    # side 15 at d = 2: the unit vectors generate, and the members with a
    # coordinate at 14 are the meet-irreducibles; side 6 at d = 3: those
    # with two coordinates at 5
    for side, d, generators, irreducibles in ((15, 2, 2, 29), (6, 3, 3, 16)):
        small = sorted(itertools.product(range(side), repeat=d))
        conductor = (side - 1,) * d
        members = frozenset(small)
        assert len(_additive_generators(conductor, small, members)) == generators
        assert len(_meet_irreducibles(d, small, members)) == irreducibles
        assert is_good(d, conductor, small) == (True, None)


def test_axiom_check_time_follows_the_irreducibles():
    # all three axioms are decided from the meet-irreducibles.  <2,27>^3 has
    # 2,744 members and 40 irreducibles; a check of every pair by set lookups
    # took about 14 s, the lift searched once per key about 1-2 s, and the
    # lift decided at each member from the irreducibles about 0.11 s.  The
    # twelve-branch tree semigroup, shuffled, has 2,593 members and 24
    # irreducibles; its capped-sum pass over 2,481 additive generators took
    # about 9-16 s, the sum over irreducible pairs about 0.3 s.  <2,1601> at
    # d = 1 is a chain: all 801 members are irreducible, and the sum pass
    # over all pairs takes about 0.2 s (2 cores, CPython 3.11.7)
    chain = range(0, 27, 2)
    twelve = tree_to_semigroup(TWELVE)
    order = random.Random(1).sample(range(12), 12)
    for d, conductor, small, limit in (
            (3, (26, 26, 26), list(itertools.product(chain, repeat=3)), 7.0),
            (12, [twelve.conductor[j] for j in order],
             [[v[j] for j in order] for v in twelve.small_elements], 5.0),
            (1, (1600,), [(x,) for x in range(0, 1601, 2)], 2.0)):
        start = time.perf_counter()
        assert is_good(d, conductor, small) == (True, None)
        assert time.perf_counter() - start < limit, d
