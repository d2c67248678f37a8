import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arfcurves import char_vectors, good_semigroup, mult_tree
from arfcurves.char_vectors import (CharacterVectorSet, build_character_vectors,
                                    charset_from_dict, charset_to_dict,
                                    is_minimal_character_set, reduce_characters,
                                    smallest_arf_containing)
from arfcurves.errors import DomainError, InputError
from arfcurves.good_semigroup import GoodSemigroup
from arfcurves.mult_tree import MultiplicityTree, tree_to_semigroup
from arfcurves.numerical import NumericalSemigroup

from helpers import (TWELVE, arf_good_oracle, build_character_vectors_oracle,
                     enumerate_smallest_arf, good_mutants, is_minimal_character_set_oracle,
                     is_minimal_character_set_rebuild_oracle, random_tree,
                     reduce_characters_oracle, smallest_arf_containing_oracle)

EX1 = GoodSemigroup(2, (8, 4), [(0, 0), (4, 2), (6, 4), (8, 4)])
EX2 = GoodSemigroup(2, (4, 6), [(0, 0), (2, 3), (3, 5), (4, 6)])
DIAG3 = GoodSemigroup(3, (2, 2, 2), [(0, 0, 0), (1, 1, 1), (2, 2, 2)])


def charset(*vectors):
    return CharacterVectorSet(len(vectors[0]), vectors)


def test_build_two_branch():
    V = build_character_vectors(EX1)
    assert V == charset((4, 2), (6, 4), (9, 4), (6, 5))


def test_build_one_branch():
    S = GoodSemigroup.from_numerical(NumericalSemigroup(8, [0, 4, 6]))
    assert build_character_vectors(S) == charset((4,), (6,), (9,))


def test_build_with_default_witness():
    assert build_character_vectors(EX2) == charset((2, 3), (3, 5), (4, 7))


def test_build_with_witness_override():
    V = build_character_vectors(EX2, witness_node=(4, 1))
    assert V == charset((2, 3), (3, 5), (6, 6))
    assert smallest_arf_containing(V) == EX2


def test_build_three_branch():
    assert build_character_vectors(DIAG3) == charset((1, 1, 1), (2, 3, 2))


def test_witness_override_errors():
    # level 1 is not strictly above the level-2 branching node
    with pytest.raises(DomainError, match="witness node"):
        build_character_vectors(EX2, witness_node=(1, 1))
    # every pair already witnessed: the override has nothing to apply to
    with pytest.raises(DomainError, match="witness node"):
        build_character_vectors(EX1, witness_node=(2, 1))


def test_build_requires_local_arf():
    with pytest.raises(DomainError, match="local"):
        build_character_vectors(GoodSemigroup.natural_numbers(2))


def test_smallest_arf_examples():
    assert smallest_arf_containing(charset((4, 2), (9, 4), (6, 5))) == EX1
    assert smallest_arf_containing(charset((2, 3), (3, 5), (4, 7))) == EX2
    assert smallest_arf_containing(charset((1, 1, 1), (2, 3, 2))) == DIAG3
    assert smallest_arf_containing(charset((1, 1, 1), (3, 2, 2), (2, 2, 3))) == DIAG3
    assert smallest_arf_containing(charset((1, 1))) == GoodSemigroup(
        2, (1, 1), [(0, 0), (1, 1)])
    one = smallest_arf_containing(charset((4,), (6,), (9,)))
    assert one.to_numerical() == NumericalSemigroup(8, [0, 4, 6])


def test_smallest_arf_errors():
    with pytest.raises(DomainError, match="nonzero"):
        smallest_arf_containing(CharacterVectorSet(2, [(0, 0)]))
    with pytest.raises(DomainError, match="zero coordinate"):
        smallest_arf_containing(charset((1, 0)))
    with pytest.raises(DomainError, match="gcd"):
        smallest_arf_containing(charset((2, 3), (4, 5)))


def test_closure_makes_no_condition_c_check(monkeypatch):
    # each pair of the closure tree splits within its condition-c cap, so the
    # tree comes with its verdict and tree_to_semigroup checks nothing
    calls = []
    check = mult_tree._condition_c_failure

    def counting(branches, splits):
        calls.append(tuple(splits))
        return check(branches, splits)

    rng = random.Random(3)
    cases = [(charset((4, 2), (9, 4), (6, 5)), EX1)]
    for _ in range(40):
        S = tree_to_semigroup(random_tree(rng, d_max=4, max_len=3, split_max=3))
        cases.append((build_character_vectors(S), S))
    monkeypatch.setattr(mult_tree, "_condition_c_failure", counting)
    for V, S in cases:
        assert smallest_arf_containing(V) == S
    assert calls == []


def test_closure_time_follows_the_tree():
    # nineteen branches 2,1,1,... and a smooth one: the membership bound 9
    # holds the first eighteen pairs and the cap 1 the last.  The search over
    # split vectors that the caps replace took 23-25 s at d = 20 and about
    # 4.5x that per two branches added; the caps take milliseconds (2 cores,
    # CPython 3.11.7)
    d = 20
    V = charset((2,) * (d - 1) + (1,), (3,) * (d - 1) + (2,), (10,) * d)
    start = time.perf_counter()
    T = char_vectors._closure_tree(d, V.vectors, {})
    S = smallest_arf_containing(V)
    elapsed = time.perf_counter() - start
    assert T.splits == (9,) * 18 + (1,)
    assert S.conductor == (11,) * 19 + (2,)
    assert elapsed < 2.0


def test_reduce_drops_pair_minimum():
    V = build_character_vectors(EX1)
    reduced = reduce_characters(V, EX1)
    assert reduced == charset((4, 2), (9, 4), (6, 5))


def test_reduce_keeps_singleton():
    V = charset((1, 1))
    S = smallest_arf_containing(V)
    assert reduce_characters(V, S) == V


def test_reduce_keeps_already_minimal():
    V = charset((1, 1, 1), (2, 3, 2))
    assert reduce_characters(V, DIAG3) == V


def test_reduce_requires_determination():
    with pytest.raises(DomainError, match="determine"):
        reduce_characters(charset((4, 2)), EX1)


def test_minimality_both_cardinalities():
    assert is_minimal_character_set(charset((1, 1, 1), (2, 3, 2)), DIAG3)
    assert is_minimal_character_set(charset((1, 1, 1), (3, 2, 2), (2, 2, 3)), DIAG3)


def test_minimality_rejects_redundant():
    assert not is_minimal_character_set(build_character_vectors(EX1), EX1)
    assert is_minimal_character_set(charset((4, 2), (9, 4), (6, 5)), EX1)
    padded = charset((1, 1, 1), (2, 3, 2), (2, 2, 2))
    assert not is_minimal_character_set(padded, DIAG3)
    assert not is_minimal_character_set(charset((4, 2)), EX1)


def test_minimality_matches_subset_scan():
    rng = random.Random(5)
    verdicts = {True: 0, False: 0}
    for _ in range(120):
        S = tree_to_semigroup(random_tree(rng, d_max=3, max_len=3, max_entry=4,
                                          split_max=2))
        members = [v for v in S.small_elements if all(v)]
        pool = members + list(build_character_vectors(S))
        V = CharacterVectorSet(S.d, rng.sample(pool, min(len(pool), rng.randint(1, 5))))
        minimal = is_minimal_character_set(V, S)
        assert minimal == is_minimal_character_set_oracle(V, S), (V, S)
        verdicts[minimal] += 1
    assert min(verdicts.values()) >= 20, verdicts


def test_minimality_on_a_large_superset():
    # 24 vectors: subsets of every smaller size would number 2**24
    S = tree_to_semigroup(MultiplicityTree([[2, 2, 2, 2]] * 3, splits=(1, 0)))
    assert len(S.small_elements) == 41
    V = build_character_vectors(S)
    extra = [v for v in S.small_elements if all(v) and v not in V]
    padded = CharacterVectorSet(3, list(V) + extra[:24 - len(V)])
    assert len(padded) == 24
    assert smallest_arf_containing(padded) == S
    assert not is_minimal_character_set(padded, S)
    assert is_minimal_character_set(reduce_characters(V, S), S)


def test_dict_round_trip():
    V = charset((9, 4), (4, 2), (6, 5))
    data = charset_to_dict(V)
    assert data == {"d": 2, "vectors": [[4, 2], [6, 5], [9, 4]]}
    assert charset_from_dict(data) == V
    with pytest.raises(InputError, match="^character-set literal is missing d$"):
        charset_from_dict({"vectors": []})
    with pytest.raises(DomainError, match="dimension"):
        CharacterVectorSet(2, [(1, 2, 3)])


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_build_determines_random(seed):
    rng = random.Random(seed)
    S = tree_to_semigroup(random_tree(rng))
    V = build_character_vectors(S)
    assert all(S.contains(v) for v in V)
    assert smallest_arf_containing(V) == S
    reduced = reduce_characters(V, S)
    assert set(reduced.vectors) <= set(V.vectors)
    assert smallest_arf_containing(reduced) == S


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_smallest_arf_matches_enumeration_random(seed):
    rng = random.Random(seed)
    S = tree_to_semigroup(random_tree(rng, max_len=3, split_max=3))
    members = [v for v in S.small_elements if all(v)]
    members.append(tuple(c + rng.randint(1, 3) for c in S.conductor))
    vectors = {rng.choice(members) for _ in range(rng.randint(1, 4))}
    V = CharacterVectorSet(S.d, vectors)
    try:
        computed = smallest_arf_containing(V)
    except DomainError:
        return
    assert computed == enumerate_smallest_arf(V.vectors)
    assert all(computed.contains(v) for v in V)


def _outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except DomainError as exc:
        return type(exc), str(exc)


def _fuzz_semigroups(rng):
    """Tree semigroups with d <= 6 as built and shuffled, the twelve-branch
    one as built and shuffled, and good local mutants that are not Arf."""
    twelve = tree_to_semigroup(TWELVE)
    cases = [twelve, good_semigroup._project(twelve, rng.sample(range(12), 12))]
    for _ in range(60):
        S = tree_to_semigroup(random_tree(rng, d_max=6, max_len=3, max_entry=4, split_max=3))
        cases += [S, good_semigroup._project(S, rng.sample(range(S.d), S.d))]
    mutants = []
    while len(mutants) < 30:
        S = tree_to_semigroup(random_tree(rng, d_max=3, max_len=3, max_entry=4, split_max=2))
        box = itertools.product(*(range(c + 1) for c in S.conductor))
        mutants += [M for M in good_mutants(S, box)
                    if S.d > 1 and good_semigroup.is_local(M) and not arf_good_oracle(M)]
    return cases + mutants


def _fuzz_vector_sets(rng, S, count):
    """The built vectors of S when it has them, and random subsets of its
    members, the built vectors and a vector past the conductor, some with
    a vector that has a zero coordinate."""
    pool = [v for v in S.small_elements if all(v)]
    built = _outcome(build_character_vectors, S)
    if isinstance(built, CharacterVectorSet):
        yield built
        pool += list(built)
    pool.append(tuple(c + rng.randint(1, 3) for c in S.conductor))
    for _ in range(count):
        vectors = rng.sample(pool, min(len(pool), rng.randint(1, 5)))
        if rng.random() < 0.2:
            zero = list(rng.choice(pool))
            zero[rng.randrange(S.d)] = 0
            vectors.append(zero)
        yield CharacterVectorSet(S.d, vectors)


def test_character_sets_match_the_semigroup_rebuild_oracles():
    # deciding "V determines S" on trees gives the results, exception types
    # and messages of rebuilding smallest_arf_containing(V) and comparing it
    # with S, on sets that determine S and sets that do not
    rng = random.Random(22)
    seen = set()
    for S in _fuzz_semigroups(rng):
        for witness in (None, (rng.randint(0, 4), rng.randint(1, S.d))):
            built = _outcome(build_character_vectors, S, witness_node=witness)
            assert built == _outcome(build_character_vectors_oracle, S, witness_node=witness), S
        for V in _fuzz_vector_sets(rng, S, 2 if S.d == 12 else 6):
            closure = _outcome(smallest_arf_containing, V)
            assert closure == _outcome(smallest_arf_containing_oracle, V), (V, S)
            reduced = _outcome(reduce_characters, V, S)
            assert reduced == _outcome(reduce_characters_oracle, V, S), (V, S)
            minimal = is_minimal_character_set(V, S)
            assert minimal == is_minimal_character_set_rebuild_oracle(V, S), (V, S)
            seen.add((closure == S, isinstance(reduced, CharacterVectorSet)
                      and reduced != V, minimal, isinstance(closure, tuple)))
    # determining sets that shrink or are minimal, sets that do not determine
    # S, and sets whose closure raises
    assert {(True, True, False), (True, False, True), (False, False, False)} <= {
        key[:3] for key in seen}, seen
    assert any(key[3] for key in seen), seen


def test_built_vectors_match_the_member_scan_oracle():
    # the path sums read off the tree are the oracle's minimal members with
    # each character as a coordinate, and a recorded node witnesses a pair
    # exactly when the oracle finds its vector on one of the pair's two
    # branches above their branching node: the same vectors, and the same
    # witness-node errors, on 1,000 tree semigroups with d <= 6
    rng = random.Random(28)
    for _ in range(1000):
        S = tree_to_semigroup(random_tree(rng, d_max=6, max_len=3, max_entry=5, split_max=4))
        for witness in [None] + [(rng.randint(0, 6), rng.randint(1, S.d)) for _ in range(3)]:
            built = _outcome(build_character_vectors, S, witness_node=witness)
            assert built == _outcome(build_character_vectors_oracle, S, witness_node=witness), (
                S, witness)


def test_reduce_builds_at_most_one_semigroup(monkeypatch):
    # S is read once, with one tree_to_semigroup check per order it is read
    # in, and each trial compares closure trees; building the closure
    # semigroup of every trial took one call per vector tried.  A shuffled S
    # may be read in coordinate order and then in glued order: two checks
    rng = random.Random(4)
    cases = [tree_to_semigroup(TWELVE)] + [
        tree_to_semigroup(random_tree(rng, d_max=6, max_len=3, split_max=3))
        for _ in range(40)]
    cases = [(build_character_vectors(S), S, 1) for S in cases]
    cases += [(V, good_semigroup._project(S, rng.sample(range(S.d), S.d)), 2)
              for V, S, _ in cases[:10]]
    calls = []
    build = mult_tree.tree_to_semigroup

    def counting(T):
        calls.append(T)
        return build(T)

    monkeypatch.setattr(mult_tree, "tree_to_semigroup", counting)
    monkeypatch.setattr(char_vectors, "tree_to_semigroup", counting)
    for V, S, reads in cases:
        calls.clear()
        _outcome(reduce_characters, V, S)
        assert len(calls) <= reads, (len(V), len(calls))
    assert max(len(V) for V, _, _ in cases) >= 8


def test_reduce_time_follows_the_tree():
    # the twelve-branch semigroup has 2,593 members, its tree 12 smooth
    # branches and 11 splits.  Comparing closure trees takes about 0.013 s;
    # building and comparing the closure semigroup of each trial took about
    # 0.064 s (best of 5, 2 cores, CPython 3.11.7)
    S = tree_to_semigroup(TWELVE)
    V = build_character_vectors(S)
    start = time.perf_counter()
    reduced = reduce_characters(V, S)
    elapsed = time.perf_counter() - start
    assert smallest_arf_containing(reduced) == S
    assert elapsed < 0.1
