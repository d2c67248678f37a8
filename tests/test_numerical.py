import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from arfcurves.errors import DomainError, ValidationError
from arfcurves.numerical import (
    MultiplicitySequence,
    NumericalSemigroup,
    arf_characters,
    arf_closure,
    arfrank,
    blowup_chain,
    characters_of_seq,
    decomposition_lengths,
    is_arf,
    restriction_numbers,
    semigroup_to_seq,
    seq_to_semigroup,
)

from helpers import (arf_pairwise_oracle, characters_of_seq_oracle, numerical_semigroups,
                     random_arf_sequence, restriction_numbers_oracle, xyz_closure_oracle)

N = NumericalSemigroup.natural_numbers()


def S(conductor, small):
    return NumericalSemigroup(conductor, small)


def test_seq_to_semigroup_example():
    assert seq_to_semigroup(MultiplicitySequence([6, 3, 3, 3])) == S(15, [0, 6, 9, 12])


def test_seq_to_semigroup_trivial():
    assert seq_to_semigroup(MultiplicitySequence([])) == N
    assert seq_to_semigroup(MultiplicitySequence([1, 1])) == N


def test_seq_to_semigroup_4_2_2():
    assert seq_to_semigroup(MultiplicitySequence([4, 2, 2])) == S(8, [0, 4, 6])


def test_prefix_sums_and_indices_match_the_linear_scans():
    # prefix_sum is one lookup in the kept sums and index_of one bisection
    rng = random.Random(26)
    for seq in [MultiplicitySequence([])] + [random_arf_sequence(rng, 6, 12) for _ in range(300)]:
        for n in range(len(seq.prefix) + 4):
            assert seq.prefix_sum(n) == sum(seq.prefix[:n]) + max(0, n - len(seq.prefix))
        for value in range(-1, seq.prefix_sum(len(seq.prefix) + 3)):
            k = 0
            while seq.prefix_sum(k + 1) < value:
                k += 1
            assert seq.index_of(value) == k, (seq, value)


def test_invalid_sequence_names_index():
    # 3 is not a sum of consecutive successors of 4, 1, 1, ...
    with pytest.raises(ValidationError, match="e_0"):
        MultiplicitySequence([3, 4])
    # 7 = 3 + 4 is fine but 3 cannot be built from 4, 1, 1, ...
    with pytest.raises(ValidationError, match="e_1"):
        MultiplicitySequence([7, 3, 4])


def test_semigroup_to_seq_examples():
    assert semigroup_to_seq(S(15, [0, 6, 9, 12])).prefix == (6, 3, 3, 3)
    assert semigroup_to_seq(N).prefix == ()
    assert semigroup_to_seq(S(18, [0, 10, 15])).prefix == (10, 5, 3)


def test_semigroup_to_seq_rejects_non_arf():
    with pytest.raises(DomainError):
        semigroup_to_seq(NumericalSemigroup.from_generators([4, 6, 13]))


def test_is_arf_examples():
    assert not is_arf(NumericalSemigroup.from_generators([4, 6, 13]))
    assert is_arf(N)
    assert is_arf(S(8, [0, 4, 6]))


def test_is_arf_matches_pairwise_oracle():
    semigroups = numerical_semigroups(16)
    assert len(semigroups) == 580
    verdicts = [is_arf(T) for T in semigroups]
    assert verdicts == [arf_pairwise_oracle(T) for T in semigroups]
    assert 0 < sum(verdicts) < len(verdicts)


def test_semigroup_to_seq_is_linear():
    # a pairwise Arf check would need hours on this semigroup
    even = NumericalSemigroup(20000, range(0, 20000, 2), validate=False)
    start = time.perf_counter()
    assert semigroup_to_seq(even).prefix == (2,) * 10000
    assert time.perf_counter() - start < 2.0


@given(st.lists(st.integers(1, 40), min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_from_generators_matches_sieve(gens):
    from math import gcd
    g = 0
    for x in gens:
        g = gcd(g, x)
    if g != 1:
        with pytest.raises(DomainError):
            NumericalSemigroup.from_generators(gens)
        return
    # the Frobenius number of a gcd-1 set lies below (min - 1)(max - 1)
    top = (min(gens) - 1) * (max(gens) - 1) + 1
    member = [True] + [False] * top
    for n in range(1, top + 1):
        member[n] = any(x <= n and member[n - x] for x in gens)
    got = NumericalSemigroup.from_generators(gens)
    assert got.elements_up_to(top) == [n for n in range(top + 1) if member[n]]
    assert got.conductor == 0 or not member[got.conductor - 1]


def test_from_generators_with_a_huge_generator():
    start = time.perf_counter()
    assert NumericalSemigroup.from_generators([2, 3, 10 ** 9]) == S(2, [0])
    assert time.perf_counter() - start < 0.5


def test_oversized_conductors_are_refused():
    with pytest.raises(DomainError, match="limit"):
        NumericalSemigroup.from_generators([2, 10 ** 9 + 1])
    with pytest.raises(DomainError, match="limit"):
        NumericalSemigroup.from_generators([2 ** 20 + 1, 2 ** 20 + 2])
    with pytest.raises(DomainError, match="limit"):
        arf_closure([2, 10 ** 9 + 1])
    # a DomainError, not a ValidationError that is_arf would read as "not Arf"
    with pytest.raises(DomainError, match="limit") as refused:
        MultiplicitySequence([2 ** 20, 1, 1, 2])
    assert not isinstance(refused.value, ValidationError)
    assert MultiplicitySequence([2 ** 19, 2 ** 19], validate=False).prefix == (2 ** 19,) * 2
    with pytest.raises(DomainError, match="limit") as refused:
        is_arf(S(10 ** 9, [0]))
    assert not isinstance(refused.value, ValidationError)


def test_arf_closure_examples():
    assert arf_closure([4, 6, 13]) == S(12, [0, 4, 6, 8, 10])
    assert arf_closure([1]) == N
    assert arf_closure([10, 15, 18, 19]) == S(18, [0, 10, 15])


def test_arf_closure_rejects_bad_input():
    with pytest.raises(DomainError):
        arf_closure([4, 6])
    with pytest.raises(DomainError):
        arf_closure([])


def test_decomposition_lengths_examples():
    assert decomposition_lengths(MultiplicitySequence([6, 3, 3, 3]))[:6] == [2, 1, 1, 3, 1, 1]
    assert decomposition_lengths(MultiplicitySequence([]))[:3] == [1, 1, 1]
    assert decomposition_lengths(MultiplicitySequence([4, 2, 2]))[:4] == [2, 1, 2, 1]


def test_restriction_numbers_examples():
    assert restriction_numbers(MultiplicitySequence([6, 3, 3, 3]))[:8] == [0, 1, 2, 1, 1, 2, 2, 1]
    assert restriction_numbers(MultiplicitySequence([]))[:3] == [0, 1, 1]
    assert restriction_numbers(MultiplicitySequence([4, 2, 2]))[:6] == [0, 1, 2, 1, 2, 1]


def test_restriction_numbers_and_characters_match_the_double_loop_oracle():
    # one running sum over the decomposition ends gives the double loop's
    # restriction numbers, and the indices where no decomposition ends its
    # characters, on random sequences and on Arf closures of random generators
    rng = random.Random(28)
    seqs = [random_arf_sequence(rng, max_len=8, max_entry=12) for _ in range(12000)]
    while len(seqs) < 24000:
        gens = rng.sample(range(2, 40), rng.randint(1, 4))
        if math.gcd(*gens) == 1:
            seqs.append(semigroup_to_seq(arf_closure(gens)))
    for seq in seqs:
        assert restriction_numbers(seq) == restriction_numbers_oracle(seq), seq
        assert characters_of_seq(seq) == characters_of_seq_oracle(seq), seq
    assert max(len(seq.prefix) for seq in seqs) >= 8


def test_characters_time_follows_the_sequence():
    # <2,160001> has 80,000 entries 2 in its multiplicity sequence; the
    # double loop over restriction numbers took 155 s, the decomposition ends
    # take about 0.05 s (2 cores, CPython 3.11.7)
    S = NumericalSemigroup.from_generators([2, 160001])
    start = time.perf_counter()
    characters = arf_characters(S)
    elapsed = time.perf_counter() - start
    assert characters == (2, 160001)
    assert elapsed < 2


def test_arf_characters_examples():
    assert arf_characters(arf_closure([6, 9, 16, 17])) == (6, 9, 16)
    assert arf_characters(N) == (1,)
    assert arf_characters(S(4, [0, 2])) == (2, 5)


def test_arfrank_examples():
    assert arfrank(arf_closure([8, 12, 14, 15])) == 4
    assert arfrank(N) == 1
    assert arfrank(S(18, [0, 10, 15])) == 4


def test_blowup_chain_examples():
    chain = blowup_chain(S(18, [0, 10, 15]))
    assert chain == [S(18, [0, 10, 15]), S(8, [0, 5]), S(3, [0]), N]
    assert blowup_chain(N) == [N]
    chain = blowup_chain(S(8, [0, 4, 6]))
    assert chain == [S(8, [0, 4, 6]), S(4, [0, 2]), S(2, [0]), N]
    for T in chain:
        assert is_arf(T)


def test_power_family_ranks_and_chain_lengths():
    # S(k) has multiplicity sequence 2^k, 2^(k-1), ..., 2 and rank k + 1.
    for k in range(1, 7):
        gens = [sum(2 ** (k - h) for h in range(i + 1)) for i in range(k + 1)]
        Sk = arf_closure(gens)
        assert Sk == seq_to_semigroup(MultiplicitySequence([2 ** (k - h) for h in range(k)]))
        assert arf_characters(Sk) == tuple(gens)
        assert arfrank(Sk) == k + 1
        assert len(blowup_chain(Sk)) - 1 == k


def test_arfrank_chain_law():
    # rank drops by one along the chain exactly when the multiplicity is
    # not a character one level up.
    Sk = arf_closure([8, 12, 14, 15])
    chain = blowup_chain(Sk)
    seq = semigroup_to_seq(Sk)
    for i in range(len(chain) - 1):
        e_i = seq.entry(i)
        up = arf_characters(chain[i + 1])
        if e_i in up:
            assert arfrank(chain[i]) == arfrank(chain[i + 1])
        else:
            assert arfrank(chain[i]) == arfrank(chain[i + 1]) + 1


@given(st.lists(st.integers(1, 30), min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_closure_matches_xyz_oracle(gens):
    from math import gcd
    g = 0
    for x in gens:
        g = gcd(g, x)
    if g != 1:
        with pytest.raises(DomainError):
            arf_closure(gens)
        return
    got = arf_closure(gens)
    top = 2 * max(gens)
    assert got.elements_up_to(top) == xyz_closure_oracle(gens)


@given(st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_round_trip_and_minimality(rng):
    seq = random_arf_sequence(rng)
    Sx = seq_to_semigroup(seq)
    assert is_arf(Sx)
    assert semigroup_to_seq(Sx) == seq
    chars = arf_characters(Sx)
    assert arf_closure(chars) == Sx
    for i in range(len(chars)):
        subset = chars[:i] + chars[i + 1:]
        if not subset:
            assert Sx != N or chars == (1,)
            continue
        try:
            smaller = arf_closure(subset)
        except DomainError:
            continue
        assert smaller != Sx


@given(st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_lemma_restriction_step(rng):
    # r(e_j) < r(e_{j+1}) forces r(e_j) = r(e_{j+1}) - 1
    seq = random_arf_sequence(rng)
    rs = restriction_numbers(seq)
    for a, b in zip(rs, rs[1:]):
        if a < b:
            assert b == a + 1
