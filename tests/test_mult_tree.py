import itertools
import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arfcurves import good_semigroup, mult_tree
from arfcurves.errors import DomainError, InputError, ValidationError
from arfcurves.good_semigroup import (GoodSemigroup, fine_multiplicity, is_arf_good, is_good,
                                      is_local, residue)
from arfcurves.mult_tree import (MAX_TREE_MEMBERS, MultiplicityTree, _branches_and_splits,
                                 _condition_c_failure, _glued_order, canonical_form,
                                 node_path_sum, noether_sum, pinch,
                                 render_ascii, render_dot, semigroup_to_tree, split_profile,
                                 tree_from_dict, tree_intersection, tree_leq, tree_to_dict,
                                 tree_to_semigroup, validate_tree)
from arfcurves.numerical import MultiplicitySequence, NumericalSemigroup, decomposition_lengths

from helpers import (TWELVE, arf_good_oracle, branches_and_splits_oracle,
                     canonical_form_entry_oracle, canonical_form_oracle, condition_c_oracle,
                     decomposition_lengths_oracle, glued_order_oracle, good_mutants,
                     node_path_sum_oracle, random_arf_sequence, random_tree,
                     tree_semigroup_oracle)

# Two branches of multiplicity 2 glued one level past the root.
T_PAIR = MultiplicityTree([[2], [2]], splits=(1,))
# Branches 4,2,2,1,... and 2,2,1,... glued through level 1.
T_EX1 = MultiplicityTree([[4, 2, 2], [2, 2]], splits=(1,))
# Branches 2,1,... and 3,2,1,... glued through level 2.
T_EX2 = MultiplicityTree([[2], [3, 2]], splits=(2,))
# One branch collection, three split levels.
E_PAIR = ([4, 2, 2], [2])
T_SPLIT0 = MultiplicityTree(E_PAIR, splits=(0,))
T_SPLIT2 = MultiplicityTree(E_PAIR, splits=(2,))
T_SPLIT3 = MultiplicityTree(E_PAIR, splits=(3,))

EX1 = GoodSemigroup(2, (8, 4), [(0, 0), (4, 2), (6, 4), (8, 4)])


def test_validate_examples():
    for tree in (T_PAIR, T_EX1, T_EX2, T_SPLIT0, T_SPLIT2, T_SPLIT3):
        assert validate_tree(tree) == (True, None)


def test_validate_rejects_late_splits():
    # e_2 = 2 on the first branch forces a subtree of depth 2 + k = 4 there,
    # while the second branch is exhausted after depth 3.
    ok, message = validate_tree(MultiplicityTree(E_PAIR, (4,), validate=False))
    assert not ok
    assert "level-2" in message and "branches 1-2" in message
    with pytest.raises(ValidationError, match="condition c"):
        MultiplicityTree(E_PAIR, (4,))


def test_validate_rejects_unbalanced_root():
    # Roots 4 and 2 need subtrees of depths 2 and 1, so the pair must split
    # no later than level 1.
    ok, message = validate_tree(MultiplicityTree([[4, 2, 2], [2, 2]], (2,), validate=False))
    assert not ok
    assert "level-0" in message


def test_structural_constructor_errors():
    with pytest.raises(ValidationError, match="split levels"):
        MultiplicityTree([[2], [2]], splits=())
    with pytest.raises(ValidationError, match="natural"):
        MultiplicityTree([[2], [2]], splits=(-1,))
    with pytest.raises(ValidationError, match="at least one branch"):
        MultiplicityTree([], splits=())


def test_tree_to_semigroup_examples():
    assert tree_to_semigroup(T_PAIR) == GoodSemigroup(
        2, (3, 3), [(0, 0), (2, 2), (3, 3)])
    assert tree_to_semigroup(T_EX1) == EX1
    assert tree_to_semigroup(T_EX2) == GoodSemigroup(
        2, (4, 6), [(0, 0), (2, 3), (3, 5), (4, 6)])
    one = tree_to_semigroup(MultiplicityTree([[4, 2, 2]], splits=()))
    assert one.to_numerical() == NumericalSemigroup(8, [0, 4, 6])


def test_tree_to_semigroup_rejects_invalid():
    with pytest.raises(ValidationError, match="condition c"):
        tree_to_semigroup(MultiplicityTree(E_PAIR, (4,), validate=False))


def test_semigroup_to_tree_examples():
    assert semigroup_to_tree(EX1) == T_EX1
    assert semigroup_to_tree(tree_to_semigroup(T_PAIR)) == T_PAIR
    assert semigroup_to_tree(tree_to_semigroup(T_EX2)) == T_EX2


def test_semigroup_to_tree_requires_local_arf():
    with pytest.raises(DomainError, match="local"):
        semigroup_to_tree(GoodSemigroup.natural_numbers(2))
    not_arf = GoodSemigroup.from_numerical(NumericalSemigroup.from_generators([4, 6, 13]))
    with pytest.raises(DomainError, match="Arf"):
        semigroup_to_tree(not_arf)


def test_tree_to_semigroup_matches_dense_oracle():
    rng = random.Random(2024)
    seen = set()
    for _ in range(300):
        tree = random_tree(rng, d_max=5, max_len=3, max_entry=4, split_max=3)
        seen.add(tree.d)
        S, reference = tree_to_semigroup(tree), tree_semigroup_oracle(tree)
        assert S.conductor == reference.conductor, tree
        assert S.small_elements == reference.small_elements, tree
    assert seen == {1, 2, 3, 4, 5}


def test_tree_to_semigroup_refuses_oversized_output():
    # 15 choices on each of six branches past the root: 15**6 > MAX_TREE_MEMBERS
    wide = MultiplicityTree([[2] * 15] * 6, splits=(0,) * 5)
    with pytest.raises(DomainError, match="small elements"):
        tree_to_semigroup(wide)
    with pytest.raises(DomainError, match="depth"):
        tree_to_semigroup(MultiplicityTree([[1], [1]], splits=(MAX_TREE_MEMBERS,)))


def test_semigroup_to_tree_verdict_on_mutations():
    # Add or remove one member of a tree semigroup; among the mutants that are
    # good and local, exactly the Arf ones have a tree, whose semigroup they are.
    # With four or five branches the mutants are read in a shuffled order, and
    # an Arf one whose glued groups are not intervals reads in the order named.
    rng = random.Random(7)
    verdicts = Counter()

    def check(S, cells, shuffle):
        for v in cells:
            if v in ((0,) * S.d, S.conductor):
                continue
            small = set(S.small_elements) ^ {v}
            if not is_good(S.d, S.conductor, small)[0]:
                continue
            try:
                mutant = GoodSemigroup(S.d, S.conductor, small)
            except ValidationError:
                continue
            if not is_local(mutant):
                continue
            if shuffle:
                mutant = good_semigroup._project(mutant, rng.sample(range(S.d), S.d))
            arf = arf_good_oracle(mutant)
            assert is_arf_good(mutant) == arf
            verdicts[shuffle, arf] += 1
            if not arf:
                with pytest.raises(DomainError, match="not Arf"):
                    semigroup_to_tree(mutant)
                continue
            try:
                T = semigroup_to_tree(mutant)
            except DomainError as exc:
                assert shuffle and "list its coordinates in the order" in str(exc)
                order = [int(j) - 1 for j in str(exc).rsplit("order ", 1)[1].split(", ")]
                mutant = good_semigroup._project(mutant, order)
                T = semigroup_to_tree(mutant)
            assert tree_to_semigroup(T) == mutant

    for _ in range(120):
        S = tree_to_semigroup(random_tree(rng, d_max=3, max_len=3, max_entry=4,
                                          split_max=2))
        check(S, itertools.product(*(range(c + 1) for c in S.conductor)), False)
    while min(verdicts[True, arf] for arf in (True, False)) < 10:
        S = tree_to_semigroup(random_tree(rng, d_max=5, max_len=3, max_entry=4,
                                          split_max=2))
        box = list(itertools.product(*(range(c + 1) for c in S.conductor)))
        if S.d >= 4 and len(box) <= 800:
            check(S, rng.sample(box, min(len(box), 60)), True)
    assert min(verdicts[key] for key in itertools.product((False, True), repeat=2)) >= 10, verdicts


def test_semigroup_to_tree_round_trips_twelve_branches():
    tree = MultiplicityTree([[1]] * 12, splits=(3, 0, 5, 1, 4, 2, 6, 0, 2, 7, 1))
    S = tree_to_semigroup(tree)
    assert len(S.small_elements) == 2593
    assert semigroup_to_tree(S) == tree


def test_glued_order_matches_the_oracle():
    # pair splits read off the members give the order that the plane trees
    # gave, in any coordinate order
    rng = random.Random(21)
    seen = set()
    for _ in range(120):
        S = tree_to_semigroup(random_tree(rng, d_max=6, max_len=3, max_entry=4, split_max=3))
        if S.d < 3:
            continue
        seen.add(S.d)
        S = good_semigroup._project(S, rng.sample(range(S.d), S.d))
        assert _glued_order(S.d, _branches_and_splits(S)[1]) == glued_order_oracle(S)
    assert seen == {3, 4, 5, 6}
    twelve = tree_to_semigroup(TWELVE)
    for _ in range(5):
        S = good_semigroup._project(twelve, rng.sample(range(12), 12))
        assert _glued_order(12, _branches_and_splits(S)[1]) == glued_order_oracle(S)


def _read(read, S):
    """Branches and every pair split of S, or the type and message raised."""
    try:
        branches, split = read(S)
        return branches, [split(j, h) for j, h in itertools.combinations(range(S.d), 2)]
    except DomainError as exc:
        return type(exc), str(exc)


def test_branches_and_splits_match_the_projection_oracle():
    # the branches come from the member index, not one projection per coordinate:
    # tree semigroups with d <= 6 as built and shuffled, the twelve-branch one,
    # and good mutants of small ones, whose projections need not be Arf
    rng = random.Random(22)
    cases = [tree_to_semigroup(TWELVE)]
    cases.append(good_semigroup._project(cases[0], rng.sample(range(12), 12)))
    for _ in range(150):
        S = tree_to_semigroup(random_tree(rng, d_max=6, max_len=3, max_entry=4, split_max=3))
        cases += [S, good_semigroup._project(S, rng.sample(range(S.d), S.d))]
        if S.d <= 3 and len(S.small_elements) <= 40:
            box = list(itertools.product(*(range(c + 1) for c in S.conductor)))
            cases += good_mutants(S, rng.sample(box, min(len(box), 12)))
    failed = 0
    for S in cases:
        outcome = _read(_branches_and_splits, S)
        assert outcome == _read(branches_and_splits_oracle, S), S
        failed += outcome[0] is ValidationError
    assert failed >= 10 and len(cases) - failed >= 300, (failed, len(cases))


def test_node_path_sum_matches_the_pair_split_oracle():
    rng = random.Random(23)
    for T in [TWELVE] + [random_tree(rng, d_max=8, split_max=5) for _ in range(100)]:
        for j in range(1, T.d + 1):
            for level in range(T.stable_level + 2):
                assert node_path_sum(T, j, level) == node_path_sum_oracle(T, j, level)


def test_a_semigroup_in_glued_order_is_read_once(monkeypatch):
    # is_arf_good and semigroup_to_tree build one tree and no plane tree:
    # no projection onto two coordinates, nested semigroup_to_tree or glued order
    rng = random.Random(5)
    trees = [TWELVE] + [random_tree(rng, d_max=6, max_len=3, max_entry=4, split_max=3)
                        for _ in range(30)]
    trees = [(T, tree_to_semigroup(T)) for T in trees if T.d >= 3]
    calls = Counter()
    project = good_semigroup._project

    def planes(S, coords):
        calls.update(["plane"] * (len(coords) == 2))
        return project(S, coords)

    def counted(name, fn):
        return lambda *args: calls.update([name]) or fn(*args)

    for module in (good_semigroup, mult_tree):
        monkeypatch.setattr(module, "_project", planes)
    for name in ("semigroup_to_tree", "tree_to_semigroup", "_glued_order"):
        monkeypatch.setattr(mult_tree, name, counted(name, getattr(mult_tree, name)))
    for T, S in trees:
        calls.clear()
        assert is_arf_good(S)
        assert calls == Counter(["tree_to_semigroup"]), T
        calls.clear()
        assert semigroup_to_tree(S) == T
        assert calls == Counter(["tree_to_semigroup"]), T


def test_node_path_sums():
    assert node_path_sum(T_EX1, 1, 0) == (4, 2)
    assert node_path_sum(T_EX1, 1, 1) == (6, 4)
    assert node_path_sum(T_EX1, 1, 2) == (8, 4)
    assert node_path_sum(T_EX1, 2, 2) == (6, 5)
    with pytest.raises(DomainError, match="branch index"):
        node_path_sum(T_EX1, 3, 0)


def test_node_path_sums_are_members():
    S = tree_to_semigroup(T_EX2)
    for j in (1, 2):
        for level in range(6):
            assert S.contains(node_path_sum(T_EX2, j, level))


def test_split_profile():
    assert split_profile(T_SPLIT0, 4) == (4,)
    assert split_profile(T_SPLIT2, 4) == (2,)
    assert split_profile(T_SPLIT3, 4) == (1,)
    assert split_profile(T_SPLIT3, 6) == (3,)
    with pytest.raises(DomainError, match="distinct"):
        split_profile(T_SPLIT3, 3)
    assert split_profile(MultiplicityTree([[4, 2, 2]], ()), 1) == ()


def test_pinch_chain():
    stepped = pinch(T_SPLIT0, 1)
    assert stepped.splits == (1,)
    assert pinch(stepped, 1) == T_SPLIT2
    assert pinch(T_SPLIT2, 1) == T_SPLIT3
    over = pinch(T_SPLIT3, 1)
    assert not validate_tree(over)[0]
    with pytest.raises(DomainError, match="pinch"):
        pinch(T_SPLIT0, 2)


def test_tree_order():
    assert tree_leq(T_SPLIT3, T_SPLIT2)
    assert tree_leq(T_SPLIT2, T_SPLIT0)
    assert not tree_leq(T_SPLIT0, T_SPLIT2)
    assert tree_leq(T_SPLIT2, T_SPLIT2)
    assert tree_leq(pinch(T_SPLIT0, 1), T_SPLIT0)
    with pytest.raises(DomainError, match="branch collections"):
        tree_leq(T_SPLIT0, T_EX1)


def test_tree_order_matches_semigroup_containment():
    semis = {s: tree_to_semigroup(t)
             for s, t in ((0, T_SPLIT0), (2, T_SPLIT2), (3, T_SPLIT3))}
    box = tuple(max(S.conductor[c] for S in semis.values()) + 1 for c in range(2))
    for a, b in itertools.product((0, 2, 3), repeat=2):
        contained = all(semis[b].contains(x) or not semis[a].contains(x)
                        for x in itertools.product(*(range(n + 1) for n in box)))
        ta = {0: T_SPLIT0, 2: T_SPLIT2, 3: T_SPLIT3}
        assert tree_leq(ta[a], ta[b]) == contained


def test_tree_intersection():
    assert tree_intersection(T_SPLIT0, T_SPLIT3) == T_SPLIT3
    assert tree_intersection(T_SPLIT2, T_SPLIT3) == T_SPLIT3
    assert tree_intersection(T_SPLIT2, T_SPLIT2) == T_SPLIT2
    with pytest.raises(DomainError, match="branch collections"):
        tree_intersection(T_SPLIT0, T_PAIR)


def test_noether_sums():
    assert noether_sum(T_PAIR, 1, 2) == 5
    assert noether_sum(T_SPLIT0, 1, 2) == 8
    assert noether_sum(T_SPLIT2, 1, 2) == 12
    assert noether_sum(T_SPLIT3, 1, 2) == 13
    assert noether_sum(T_SPLIT3, 2, 1) == 13
    with pytest.raises(DomainError, match="differ"):
        noether_sum(T_PAIR, 1, 1)
    with pytest.raises(DomainError, match="branch index"):
        noether_sum(T_PAIR, 1, 3)


def test_canonical_form_swaps_heavier_branch_up():
    canonical, perm = canonical_form(T_EX1)
    assert perm == (2, 1)
    assert canonical == MultiplicityTree([[2, 2], [4, 2, 2]], splits=(1,))
    again, perm2 = canonical_form(canonical)
    assert again == canonical and perm2 == (1, 2)


def test_canonical_form_symmetric_tie_break():
    canonical, perm = canonical_form(T_PAIR)
    assert canonical == T_PAIR and perm == (1, 2)


def test_canonical_form_keeps_glued_groups_adjacent():
    tree = MultiplicityTree([[3], [3], [2]], splits=(2, 0))
    canonical, perm = canonical_form(tree)
    assert perm == (3, 1, 2)
    assert canonical == MultiplicityTree([[2], [3], [3]], splits=(0, 2))


def test_canonical_form_matches_permutation_scan():
    # branches drawn from a pool of at most three sequences and splits <= 3,
    # so that siblings often tie on some or all levels
    rng = random.Random(9)
    trees = []
    while len(trees) < 600:
        pool = [random_arf_sequence(rng, 3, 5) for _ in range(rng.randint(1, 3))]
        d = rng.randint(1, 6)
        try:
            trees.append(MultiplicityTree([rng.choice(pool) for _ in range(d)],
                                          [rng.randint(0, 3) for _ in range(d - 1)]))
        except ValidationError:
            continue
    assert sum(len(set(tree.branches)) < tree.d for tree in trees) >= 300
    assert {tree.d for tree in trees} == {1, 2, 3, 4, 5, 6}
    for tree in trees:
        assert canonical_form(tree) == canonical_form_oracle(tree), tree


def test_canonical_form_matches_the_entry_oracle():
    # leaf rows padded from the prefix and levels joined in one pass give the
    # (tree, perm) of the form that read entry() per level and summed tuples,
    # up to twelve branches drawn from a small pool so that siblings tie
    rng = random.Random(24)
    trees = [TWELVE]
    while len(trees) < 400:
        pool = [random_arf_sequence(rng, 3, 5) for _ in range(rng.randint(1, 3))]
        d = rng.randint(1, 12)
        try:
            trees.append(MultiplicityTree([rng.choice(pool) for _ in range(d)],
                                          [rng.randint(0, 3) for _ in range(d - 1)]))
        except ValidationError:
            continue
    assert max(tree.d for tree in trees) == 12
    for tree in trees:
        assert canonical_form(tree) == canonical_form_entry_oracle(tree), tree


def _glued_shuffle(rng, tree, group):
    """A random order of the branches of a glued group that keeps every
    glued group inside it an interval."""
    if len(group) == 1:
        return list(group)
    last = min(tree.splits[group[0]:group[-1]])
    children = [child for child in tree.groups(last + 1) if child[0] in group]
    rng.shuffle(children)
    return [j for child in children for j in _glued_shuffle(rng, tree, child)]


def test_canonical_form_twelve_branches_relabelled():
    tree = MultiplicityTree([[3, 3], [3, 3], [2, 2], [1], [3, 3], [1], [2, 2], [2, 2],
                             [3, 3], [3, 3], [2, 2], [2, 2]],
                            splits=(3, 1, 0, 1, 0, 0, 0, 3, 1, 3, 0))
    canonical, perm = canonical_form(tree)
    rng = random.Random(12)
    for _ in range(5):
        order = _glued_shuffle(rng, tree, range(12))
        relabelled = MultiplicityTree(
            [tree.branches[j] for j in order],
            [tree.pair_split(order[i], order[i + 1]) for i in range(11)])
        assert relabelled != tree
        again, perm2 = canonical_form(relabelled)
        assert again == canonical
        assert [relabelled.branches[p - 1] for p in perm2] == list(canonical.branches)
        assert semigroup_to_tree(tree_to_semigroup(relabelled)) == relabelled
    assert semigroup_to_tree(tree_to_semigroup(canonical)) == canonical


def test_dict_round_trip():
    for tree in (T_PAIR, T_EX1, T_EX2, T_SPLIT3, MultiplicityTree([[4, 2, 2]], ())):
        assert tree_from_dict(tree_to_dict(tree)) == tree


def test_dict_fixture():
    assert tree_to_dict(T_PAIR) == {
        "d": 2,
        "stable_level": 2,
        "nodes": [
            {"level": 0, "vector": [2, 2], "parent": None},
            {"level": 1, "vector": [1, 1], "parent": 0},
            {"level": 2, "vector": [1, 0], "parent": 1},
            {"level": 2, "vector": [0, 1], "parent": 1},
        ],
    }


def test_dict_parse_errors():
    good = tree_to_dict(T_PAIR)
    with pytest.raises(InputError, match="^tree literal is missing d$"):
        tree_from_dict({"nodes": []})

    bad = {"d": 3, "nodes": [
        {"level": 0, "vector": [1, 0, 1], "parent": None},
    ]}
    with pytest.raises(ValidationError, match="non-consecutive"):
        tree_from_dict(bad)

    split_root = {"d": 2, "nodes": [
        {"level": 0, "vector": [2, 0], "parent": None},
        {"level": 0, "vector": [0, 2], "parent": None},
        {"level": 1, "vector": [1, 0], "parent": 0},
        {"level": 1, "vector": [0, 1], "parent": 1},
    ]}
    with pytest.raises(ValidationError, match="root"):
        tree_from_dict(split_root)

    wrong_parent = {"d": 2, "nodes": [
        {"level": 0, "vector": [2, 2], "parent": None},
        {"level": 1, "vector": [1, 1], "parent": None},
        {"level": 2, "vector": [1, 0], "parent": 1},
        {"level": 2, "vector": [0, 1], "parent": 1},
    ]}
    with pytest.raises(ValidationError, match="parent"):
        tree_from_dict(wrong_parent)

    truncated = {"d": 2, "nodes": good["nodes"][:2]}
    with pytest.raises(ValidationError, match="stable level"):
        tree_from_dict(truncated)

    gap = {"d": 1, "nodes": [
        {"level": 0, "vector": [2], "parent": None},
        {"level": 2, "vector": [1], "parent": 0},
    ]}
    with pytest.raises(ValidationError, match="contiguous"):
        tree_from_dict(gap)


def test_validate_tree_accepts_dicts():
    assert validate_tree(tree_to_dict(T_EX1)) == (True, None)
    ok, message = validate_tree({"d": 2, "nodes": []})
    assert not ok and "cover" in message
    # a malformed literal is a verdict too, never an exception
    for candidate, reason in (({"d": 2, "nodes": 5}, "nodes must be a list"),
                              ({"d": "x", "nodes": []}, "d must be an integer"),
                              ({"d": 2, "nodes": [3]}, "node 0 must be an object"),
                              ([1, 2], "tree literal must be an object")):
        ok, message = validate_tree(candidate)
        assert not ok and message.startswith(reason)


def test_render_ascii():
    text = render_ascii(T_EX1)
    lines = text.splitlines()
    assert lines[-1].strip() == "level 0: (4,2)"
    assert "(2,2)" in lines[-2]
    assert "(2,0)" in lines[-3] and "(0,1)" in lines[-3]
    assert len(lines) == 4


def test_render_dot():
    dot = render_dot(T_PAIR)
    assert dot.startswith("digraph")
    assert '[label="(2,2)"]' in dot
    assert "n1 -> n0;" in dot
    assert dot.count("->") == 3


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_semigroup_round_trip_random(seed):
    rng = random.Random(seed)
    tree = random_tree(rng)
    S = tree_to_semigroup(tree)
    assert is_local(S)
    assert is_arf_good(S)
    root = tuple(seq.entry(0) for seq in tree.branches)
    assert fine_multiplicity(S) == root
    assert semigroup_to_tree(S) == tree


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_intersection_matches_semigroups_random(seed):
    rng = random.Random(seed)
    base = random_tree(rng, d_max=2)
    trees = [base]
    for _ in range(2):
        pinched = pinch(trees[-1], 1) if base.d == 2 else trees[-1]
        if validate_tree(pinched)[0]:
            trees.append(pinched)
    t1, t2 = rng.choice(trees), rng.choice(trees)
    meet = tree_intersection(t1, t2)
    s1, s2, s12 = (tree_to_semigroup(t) for t in (t1, t2, meet))
    box = tuple(max(a, b) + 1 for a, b in zip(s1.conductor, s2.conductor))
    for x in itertools.product(*(range(n + 1) for n in box)):
        assert s12.contains(x) == (s1.contains(x) and s2.contains(x))


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_canonical_form_random(seed):
    rng = random.Random(seed)
    tree = random_tree(rng)
    canonical, perm = canonical_form(tree)
    assert sorted(perm) == list(range(1, tree.d + 1))
    assert validate_tree(canonical)[0]
    for i in range(tree.d):
        assert canonical.branches[i] == tree.branches[perm[i] - 1]
    again, _ = canonical_form(canonical)
    assert again == canonical
    # relabeling the semigroup's coordinates matches the canonical semigroup
    S = tree_to_semigroup(tree)
    C = tree_to_semigroup(canonical)
    order = [p - 1 for p in perm]
    assert C.conductor == tuple(S.conductor[o] for o in order)
    assert set(C.small_elements) == {tuple(x[o] for o in order) for x in S.small_elements}


def _outcome(f, *args):
    try:
        return f(*args)
    except ValidationError as exc:
        return ValidationError, str(exc)


def test_condition_c_matches_the_pair_scan_oracle_on_fuzzed_trees():
    # a pool of sequences shared by the trees: validated ones, valid ones whose
    # table is built on first use, and invalid ones; splits late past every depth
    rng = random.Random(20)
    pool = []
    for _ in range(300):
        r = rng.random()
        if r < 0.1:
            prefix = sorted((rng.randint(2, 9) for _ in range(rng.randint(1, 4))), reverse=True)
            pool.append(MultiplicitySequence(prefix, validate=False))
        else:
            seq = random_arf_sequence(rng, max_len=5, max_entry=9)
            pool.append(seq if r < 0.55 else MultiplicitySequence(seq.prefix, validate=False))
    kinds = set()
    for _ in range(50000):
        d = rng.randint(1, 8)
        branches = [rng.choice(pool) for _ in range(d)]
        late = rng.random() < 0.3
        splits = tuple(rng.randint(0, 12 if late else 3) for _ in range(d - 1))
        failure = _outcome(condition_c_oracle, branches, splits)
        assert _outcome(_condition_c_failure, branches, splits) == failure, (branches, splits)
        if failure is None:
            verdict = (True, None)
        elif failure[0] is ValidationError:
            verdict = failure
        else:
            verdict = (False, "condition c fails at the level-%d node of branches %d-%d"
                       % (failure[0], failure[1] + 1, failure[2] + 1))
        assert _outcome(validate_tree, MultiplicityTree(branches, splits, validate=False)) == verdict
        built = _outcome(MultiplicityTree, branches, splits)
        if verdict == (True, None):
            assert isinstance(built, MultiplicityTree)
        else:
            assert built == (ValidationError, verdict[1])
        kinds.add((d, verdict[0]))
        table = _outcome(decomposition_lengths, branches[0])
        if isinstance(table, list):  # a caller may change its copy
            table[0] += 1
            table.append(7)
    # one branch never fails condition c
    assert kinds == {(d, verdict) for d in range(1, 9)
                     for verdict in (True, False, ValidationError)} - {(1, False)}
    for seq in pool:
        assert _outcome(decomposition_lengths, seq) == _outcome(decomposition_lengths_oracle, seq)


def test_trusted_semigroups_equal_validated_ones(monkeypatch):
    # every semigroup built without checks equals the one the checked
    # constructor gives on the same members: tree semigroups, and the
    # projections and residues of the Arf test
    built = []
    boxed = good_semigroup._boxed
    monkeypatch.setattr(good_semigroup, "_boxed",
                        lambda corner, members: built.append(boxed(corner, members)) or built[-1])
    rng = random.Random(6)
    trees = [T_PAIR, T_EX1, T_EX2, T_SPLIT0, T_SPLIT2, T_SPLIT3]
    trees += [random_tree(rng, d_max=6, max_len=3, split_max=3) for _ in range(300)]
    assert max(T.d for T in trees) == 6
    for T in trees:
        S = tree_to_semigroup(T)
        assert S == GoodSemigroup(T.d, S.conductor, S.small_elements)
        assert is_arf_good(S)
        for alpha in S.small_elements:
            residue(S, alpha)
    assert len(built) > 1000
    for R in built:
        assert R == GoodSemigroup(R.d, R.conductor, R.small_elements)
    N = NumericalSemigroup(8, [0, 4, 6])
    assert GoodSemigroup.from_numerical(N) == GoodSemigroup(1, (8,), [(0,), (4,), (6,), (8,)])
    assert GoodSemigroup.natural_numbers(3) == GoodSemigroup(3, (0, 0, 0), [(0, 0, 0)])


def test_a_tree_is_checked_once(monkeypatch):
    # a tree keeps its verdict: tree_to_semigroup of a checked tree checks
    # nothing again, and a failing tree fails the same way each time
    calls = []
    check = mult_tree._condition_c_failure
    monkeypatch.setattr(mult_tree, "_condition_c_failure",
                        lambda *args: calls.append(args) or check(*args))
    T = MultiplicityTree(E_PAIR, (2,))
    assert tree_to_semigroup(T) == tree_to_semigroup(T_SPLIT2)
    assert validate_tree(T) == (True, None)
    late = MultiplicityTree(E_PAIR, (4,), validate=False)
    for _ in range(2):
        assert validate_tree(late) == (False, "condition c fails at the level-2 node of branches 1-2")
        with pytest.raises(ValidationError, match="level-2 node of branches 1-2"):
            tree_to_semigroup(late)
    assert len(calls) == 2  # T and late; T_SPLIT2 was checked when the module loaded


def test_validation_is_linear_in_the_tree():
    # condition c passes over adjacent pairs, so two thousand branches glued
    # through level 6 validate at once; the pair scan is O(levels * d^3)
    start = time.perf_counter()
    T = MultiplicityTree([[2]] * 2000, splits=(6,) * 1999)
    assert validate_tree(T) == (True, None)
    assert time.perf_counter() - start < 1.0
