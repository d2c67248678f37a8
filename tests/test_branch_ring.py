import itertools
import random
import time
from collections import Counter
from fractions import Fraction
from functools import reduce
from math import gcd, prod
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arfcurves import branch_ring
from arfcurves.branch_ring import (LocalAlgebra, arf_closure_value_semigroup, blowup,
                                   branch_multiplicity_sequence, curve_from_dict,
                                   curve_to_dict, curves_equivalent, is_local_ring,
                                   multiplicity_tree_of_curve, value_set)
from arfcurves.errors import DomainError, InputError, TruncationError, ValidationError
from arfcurves.good_semigroup import GoodSemigroup
from arfcurves.mult_tree import MultiplicityTree, noether_sum
from arfcurves.numerical import (MultiplicitySequence, NumericalSemigroup, arf_closure,
                                 semigroup_to_seq)
from arfcurves.series import SeriesTuple, TruncatedSeries, parse_series

import helpers
from helpers import (blowup_oracle, pairwise_partition_oracle, queue_span_oracle,
                     saturation_basis, saturation_partition_oracle,
                     saturation_value_set_oracle, series_span_oracle,
                     series_value_set_oracle, value_set_oracle)


def curve(*generators, **kwargs):
    data = {"d": len(generators[0]), "generators": list(generators)}
    data.update(kwargs)
    return curve_from_dict(data)


# One branch, value semigroup <4,6,13>: (t^6+t^7)^2 - (t^4)^3 has order 13.
R46 = curve(["t^4"], ["t^6+t^7"])
R4613 = curve(["t^4"], ["t^6"], ["t^13"])
# Two transverse branches glued by the diagonal (t^2,u^2).
C4 = curve(["t^2", "u^2"], ["0", "u^3"], ["t^3", "0"])
# Three monomial curves with the same tree, glued one level past the root.
U = curve(["t^4", "u^2"], ["t^9", "u^4"], ["t^6", "u^5"])
# The same class presented with its conductor tail spelled out.
REP = curve(["t^4", "u^2"], ["t^6", "0"], ["t^8", "0"], ["t^9", "0"],
            ["t^10", "0"], ["t^11", "0"], ["0", "u^4"], ["0", "u^5"])
# Two-generator curve in the same class; its own value set is smaller.
UT = curve(["t^4", "u^2"], ["t^6+t^7", "u^5"])
# Two presentations of one class with branches 2,1,... and 3,2,1,... split at 2.
E2A = curve(["t^2", "u^3"], ["t^3", "u^5"], ["t^4", "u^7"])
E2B = curve(["t^2", "u^3"], ["t^3", "u^5"], ["t^6", "u^6"])
# Same branch pair, three different contact orders: splits at 0, 2 and 3.
C1 = curve(["t^4", "u^3"], ["t^6+t^7", "u^2"])
C2 = curve(["t^4", "2u^2"], ["t^6+t^7", "u^3"])
C3 = curve(["t^4", "u^2"], ["t^6+t^7", "u^3"])
# Two coordinate lines plus the diagonal: local despite the zero components.
FP = curve(["t", "0"], ["0", "u"], ["t", "u"])

T_PAIR = MultiplicityTree([[2], [2]], splits=(1,))
T_EX1 = MultiplicityTree([[4, 2, 2], [2, 2]], splits=(1,))
T_EX2 = MultiplicityTree([[2], [3, 2]], splits=(2,))
E_PAIR = ([4, 2, 2], [2])

EX1 = GoodSemigroup(2, (8, 4), [(0, 0), (4, 2), (6, 4), (8, 4)])
EX2 = GoodSemigroup(2, (4, 6), [(0, 0), (2, 3), (3, 5), (4, 6)])


def tuples(*texts, truncation=64, variables=("t", "u")):
    return SeriesTuple([parse_series(text, variables[j], truncation)
                        for j, text in enumerate(texts)])


def test_rejects_nonzero_constant_term():
    with pytest.raises(ValidationError,
                       match="generator 2 has a nonzero constant term in component 2"):
        curve(["t", "u"], ["t^2", "1+u"])


def test_rejects_uncovered_branch():
    with pytest.raises(ValidationError,
                       match="no generator has a nonzero component on branch 2"):
        curve(["t", "0"], ["t^2", "0"])


def test_rejects_empty_presentation():
    with pytest.raises(DomainError, match="at least one generator"):
        LocalAlgebra([])


def test_internal_constants_normalize_by_first_component():
    # A diagonal constant is a unit times 1 and goes away; a mismatched
    # constant survives in the second component and certifies non-locality.
    diagonal = LocalAlgebra([tuples("1+t", "1+u"), tuples("t", "u")], validate=False)
    assert all(c.constant_term() == 0 for g in diagonal.generators for c in g.components)
    assert is_local_ring(diagonal)
    skew = LocalAlgebra([tuples("1+t", "2+u"), tuples("t", "u")], validate=False)
    assert not is_local_ring(skew)
    with pytest.raises(DomainError, match="every generator reduced to zero"):
        LocalAlgebra([SeriesTuple.constant(3, 2)], validate=False)


def test_value_set_one_branch():
    values = {key[0] for key in value_set(R46, 20)}
    assert values == {0, 4, 6, 8, 10, 12, 13, 14, 16, 17, 18, 19, 20}


def test_value_set_two_branches():
    assert value_set(UT, (20, 8)) == {
        (0, 0), (4, 2), (6, 4), (6, 5), (8, 4), (10, 6), (10, 7),
        (12, 6), (12, 8), (13, 6), (14, 8), (16, 8), (17, 8),
    }


def test_value_set_is_min_closed_on_goldens():
    for algebra, bound in ((UT, (20, 8)), (C4, (8, 8))):
        values = value_set(algebra, bound)
        for a in values:
            for b in values:
                assert tuple(map(min, a, b)) in values


def test_value_set_checks_bound():
    with pytest.raises(DomainError, match="bound has dimension 1, expected 2"):
        value_set(C4, (5,))
    with pytest.raises(DomainError, match="natural numbers"):
        value_set(C4, (5, -1))
    shallow = curve(["t^4", "u^2"], ["t^6+t^7", "u^5"], truncation=20)
    with pytest.raises(TruncationError, match="at least 21"):
        value_set(shallow, (20, 8))


def test_value_set_transverse_pair():
    # (3,3) = v(z+y), (3,4) = v(z+x^2), (4,3) = v(x^2+y), (5,5) = v(zx+xy).
    values = value_set(C4, (8, 8))
    assert {(2, 2), (3, 3), (3, 4), (4, 3), (4, 4), (5, 5)} <= values
    assert (1, 1) not in values and (2, 3) not in values
    # u^4 and t^4 only enter together through x^2, so (4,5) and (5,4) are
    # values of the closure but not of the presentation.
    closure = arf_closure_value_semigroup(C4)
    assert closure == GoodSemigroup(2, (3, 3), [(0, 0), (2, 2), (3, 3)])
    assert all(closure.contains(v) for v in values)
    assert closure.contains((4, 5)) and (4, 5) not in values
    assert closure.contains((5, 4)) and (5, 4) not in values


def test_locality_goldens():
    assert is_local_ring(C4)
    first = blowup(C4)
    assert is_local_ring(first)
    assert not is_local_ring(blowup(first))
    assert is_local_ring(FP)
    assert is_local_ring(R46)


def test_blowup_matches_explicit_presentation():
    # Dividing the section-4 curve by (t^2,u^2) lands on k[[(t^2,u^2),(0,u),(t,0)]].
    explicit = curve(["t^2", "u^2"], ["0", "u"], ["t", "0"])
    assert value_set(blowup(C4), (6, 6)) == value_set(explicit, (6, 6))


def test_blowup_folds_generators_when_none_has_minimal_value():
    # fm_bound is (2,2) and no generator has that value; folding the first
    # two with lambda = 1 cancels t^2, so lambda = 2 is taken
    algebra = curve(["t^2", "u^3"], ["-t^2", "u^4"], ["t^5", "u^2"])
    bound = branch_ring._fm_bound(algebra)
    assert bound == (2, 2)
    assert all(branch_ring._capped_key(g, bound) != bound for g in algebra.generators)
    blown = blowup(algebra)
    assert branch_ring._capped_key(blown.generators[0], bound) == bound
    assert branch_ring._partition(blown) == [[0], [1]]
    # the blowups of the branches k[[t^2,t^5]] and k[[u^2,u^3]], side by side
    explicit = LocalAlgebra([tuples("t^2", "0"), tuples("t^3", "0"), tuples("0", "u"),
                             tuples("0", "1")], validate=False)
    values = value_set(blown, (6, 6))
    assert values == value_set(explicit, (6, 6))
    assert values == {(a, b) for a in (0, 2, 3, 4, 5, 6) for b in range(7)}


def test_blowup_requires_local():
    with pytest.raises(DomainError, match="local"):
        blowup(blowup(blowup(C4)))


def test_multiplicity_sequences():
    assert branch_multiplicity_sequence(R46) == MultiplicitySequence([4, 2, 2])
    seq = branch_multiplicity_sequence(R4613)
    assert seq == MultiplicitySequence([4, 2, 2, 2, 2])
    assert seq == semigroup_to_seq(arf_closure([4, 6, 13]))


def test_multiplicity_sequence_needs_one_branch():
    with pytest.raises(DomainError, match="one-branch"):
        branch_multiplicity_sequence(C4)


def test_tree_of_transverse_pair():
    tree = multiplicity_tree_of_curve(C4)
    assert tree == T_PAIR
    assert noether_sum(tree, 1, 2) == 5


def test_tree_goldens():
    assert multiplicity_tree_of_curve(U) == T_EX1
    assert multiplicity_tree_of_curve(REP) == T_EX1
    assert multiplicity_tree_of_curve(UT) == T_EX1
    assert multiplicity_tree_of_curve(E2A) == T_EX2
    assert multiplicity_tree_of_curve(E2B) == T_EX2


def test_contact_order_moves_the_split():
    for algebra, split in ((C1, 0), (C2, 2), (C3, 3)):
        assert multiplicity_tree_of_curve(algebra) == MultiplicityTree(
            E_PAIR, splits=(split,))
    for first, second in ((C1, C2), (C1, C3), (C2, C3)):
        assert not curves_equivalent(first, second)


def test_equivalences():
    assert curves_equivalent(U, REP)
    assert curves_equivalent(U, UT)
    assert curves_equivalent(E2A, E2B)
    assert not curves_equivalent(R46, C4)
    assert curves_equivalent(R46, R4613) == (
        branch_multiplicity_sequence(R46) == branch_multiplicity_sequence(R4613))


def test_tree_requires_local():
    skew = LocalAlgebra([tuples("t", "u"), tuples("1+t", "2+u")], validate=False)
    with pytest.raises(DomainError, match="not local"):
        multiplicity_tree_of_curve(skew)


def test_diagonal_never_separates():
    with pytest.raises(TruncationError, match="fail to separate"):
        multiplicity_tree_of_curve(curve(["t", "u"], truncation=12))


def test_blowup_fixed_point_ends_the_walk():
    # k[[t^2]] and k[[(t,2u)]] blow up to themselves; each precision attempt
    # stops after one blowup instead of one per unit of truncation, so the
    # walk makes one blowup per rung of the ladder t_0, 2*t_0, ..., T
    for algebra, message, orders in (
            (curve(["t^2"], truncation=200), "does not reach 1", [6, 12, 24, 48, 96, 192, 200]),
            (curve(["t", "2u"], truncation=200), "fail to separate", [4, 8, 16, 32, 64, 128, 200])):
        blown = []
        with mock.patch.object(branch_ring, "blowup",
                               side_effect=lambda a, real=blowup: blown.append(real(a)) or blown[-1]):
            with pytest.raises(TruncationError, match=message):
                multiplicity_tree_of_curve(algebra)
        assert [b.truncation_order for b in blown] == orders


FOUR = (["t^3", "u^2", "v^2", "w^3"], ["1/2*t^5", "u^5", "2*v^3", "3/2*w^4+3/2*w^5"])


def test_walk_precision_follows_the_tree_not_the_truncation():
    # the four-branch curve decides at t_0 = 2*(5 + 1) = 12 whatever the
    # declared truncation: no division it runs sees an operand known past 12
    expected = multiplicity_tree_of_curve(curve(*FOUR, truncation=64))
    assert expected == MultiplicityTree([[3, 2], [2], [3], [2, 2]], splits=(2, 2, 1))
    divide, seen = TruncatedSeries.__truediv__, []

    def recording(f, g):
        seen.append(max(f.truncation, g.truncation))
        return divide(f, g)

    with mock.patch.object(TruncatedSeries, "__truediv__", recording):
        assert multiplicity_tree_of_curve(curve(*FOUR, truncation=1024)) == expected
    assert seen and max(seen) <= 12


def random_small_curve(rng):
    """d <= 4 branches, 2-3 generators, 1-3 terms per component, exponents
    <= 12: the generators' texts and their largest exponent."""
    names = branch_ring._variable_names(rng.randint(1, 4))
    generators, largest = [], 0
    for _ in range(rng.randint(2, 3)):
        generator = []
        for s in names:
            exponents = rng.sample(range(1, 13), rng.randint(1, 3))
            largest = max(largest, *exponents)
            generator.append("".join("%s*%s^%d" % (rng.choice(("+1", "-1", "+2", "+3", "+1/2",
                                                                "-3/2")), s, e)
                                     for e in exponents))
        generators.append(generator)
    return generators, largest


def test_every_cut_is_right_or_a_truncation_error():
    # the ladder is sound only if the walk never guesses: at every cut t from
    # the largest exponent + 1 to T the unladdered walk gives the tree at 2T
    # or a TruncationError, never another tree or another error
    rng, decided = random.Random(26), 0
    for _ in range(36):
        generators, largest = random_small_curve(rng)
        try:
            full = multiplicity_tree_of_curve(curve(*generators, truncation=64))
        except TruncationError as error:
            full = error
        try:
            reference = branch_ring._walk(curve(*generators, truncation=128))
        except TruncationError:
            reference = None
        if isinstance(full, TruncationError):
            if "same component in every generator" in str(full):
                continue
            # the ladder's last attempt is the walk at T, with its own error
            with pytest.raises(TruncationError) as at_full:
                branch_ring._walk(curve(*generators, truncation=64))
            assert str(at_full.value) == str(full)
        else:
            assert full == reference
            decided += 1
        for t in range(largest + 1, 65):
            try:
                tree = branch_ring._walk(curve(*generators, truncation=t))
            except TruncationError:
                continue
            assert tree == reference, (generators, t)
    assert decided > 18


def test_identical_branches_fail_before_the_first_blowup():
    twins = curve(["t^2", "u^2"], ["3/2*t^3", "3/2*u^3"], truncation=64)
    with mock.patch.object(branch_ring, "blowup", side_effect=AssertionError("blew up")):
        with pytest.raises(TruncationError, match="branches 1 and 2 .* fail to separate"
                           ".* no larger truncation"):
            multiplicity_tree_of_curve(twins)


def walk_inputs(algebra):
    """Every (algebra, partition) that _partition returns while the
    multiplicity tree of `algebra` grows, every verdict of is_local_ring,
    and the walk's TruncationError, if any."""
    seen = {"partition": [], "local": [], "error": None}
    partition, local = branch_ring._partition, branch_ring.is_local_ring

    def record_partition(candidate):
        parts = partition(candidate)
        seen["partition"].append((candidate, parts))
        return parts

    def record_local(candidate):
        verdict = local(candidate)
        seen["local"].append(verdict)
        return verdict

    with mock.patch.object(branch_ring, "_partition", record_partition), \
            mock.patch.object(branch_ring, "is_local_ring", record_local):
        try:
            multiplicity_tree_of_curve(algebra)
        except TruncationError as exc:
            seen["error"] = str(exc)
    return seen


def saturation_outcome(algebra, bound, full):
    """Keys of the saturation oracle in insertion order, or the
    TruncationError message; with `full` the generators are saturated
    uncut, as the precision reference."""
    cut = (lambda element, bound: element) if full else helpers._cut
    try:
        with mock.patch.object(helpers, "_cut", cut):
            return list(saturation_basis(algebra, bound))
    except TruncationError as exc:
        return str(exc)


def oracle_partition(oracle, algebra):
    """The oracle's components, or None where its saturation cannot decide them."""
    try:
        return oracle(algebra)
    except TruncationError:
        return None


def assert_one_basis_matches(algebra, bounds=()):
    """In each box of `bounds`, the cut saturation oracle inserts the keys of
    the full-precision one, in the same order, and value_set agrees with
    it; _partition finds the components that the saturation and pairwise
    oracles find wherever they decide them.  Returns the walk's inputs with
    the partitions that both oracles decided."""
    for bound in bounds:
        assert saturation_outcome(algebra, bound, False) == saturation_outcome(
            algebra, bound, True)
        assert value_set(algebra, bound) == saturation_value_set_oracle(algebra, bound)
    seen = walk_inputs(algebra)
    seen["decided"] = []
    for candidate, parts in seen["partition"]:
        expected = [oracle_partition(oracle, candidate)
                    for oracle in (saturation_partition_oracle, pairwise_partition_oracle)]
        assert all(e is None or e == parts for e in expected)
        if None not in expected:
            seen["decided"].append(parts)
    # blowups are taken of local components only
    assert all(seen["local"])
    return seen


def test_cut_saturation_matches_full_on_goldens():
    partitions = []
    for algebra, bounds in ((R46, [(20,)]), (R4613, []), (C4, [(8, 8)]), (U, []),
                            (REP, []), (UT, [(20, 8)]), (E2A, []), (E2B, []),
                            (C1, []), (C2, []), (C3, []), (FP, [(6, 6)])):
        seen = assert_one_basis_matches(algebra, bounds)
        assert seen["error"] is None
        assert seen["decided"] == [parts for _, parts in seen["partition"]]
        partitions.extend(seen["decided"])
    assert [[0], [1]] in partitions and [[0, 1]] in partitions


@st.composite
def plane_curves(draw):
    """2-3 branches (x, y) = (s^p, c s^q + e s^(q+1)) at truncation 64."""
    d = draw(st.integers(min_value=2, max_value=3))
    x, y = [], []
    for s in "tuv"[:d]:
        p = draw(st.integers(min_value=1, max_value=4))
        q = draw(st.integers(min_value=p + 1, max_value=p + 4))
        c = draw(st.sampled_from(["1", "2", "-1", "3/2"]))
        e = draw(st.sampled_from(["", "+%s^%d" % (s, q + 1)]))
        x.append("%s^%d" % (s, p))
        y.append("%s*%s^%d%s" % (c, s, q, e))
    return curve(x, y, truncation=64)


@settings(max_examples=25, deadline=None)
@given(plane_curves())
def test_cut_saturation_matches_full_on_plane_curves(algebra):
    assert_one_basis_matches(algebra, [(6,) * algebra.d])


def random_curve(rng, min_branches=2):
    """min_branches-4 branches at truncation 12-48; each component is 0 or
    1-3 terms of degree 1-8, and every branch has a nonzero component."""
    d = rng.randint(min_branches, 4)

    def component(s):
        if rng.random() <= 0.2:
            return "0"
        exponents = sorted(rng.sample(range(1, 9), rng.randint(1, 3)))
        return "".join("%s%s*%s^%d" % (rng.choice("+-"), rng.choice(["1", "2", "3/2"]), s, e)
                       for e in exponents).lstrip("+")

    while True:
        generators = [[component(s) for s in "tuvw"[:d]] for _ in range(rng.randint(2, 3))]
        try:
            return curve(*generators, truncation=rng.randint(12, 48))
        except ValidationError:
            continue


def test_partition_matches_oracles_on_random_curves():
    rng = random.Random(7)
    count, decided, errors = 120, 0, 0
    for _ in range(count):
        seen = assert_one_basis_matches(random_curve(rng))
        decided += len(seen["decided"])
        errors += seen["error"] is not None
    # the sample is not vacuous: most partitions are decided by both
    # oracles, and some walks run out of truncation
    assert decided > count and 0 < errors < count


GOLDEN_BOXES = ((R46, (20,)), (R4613, (16,)), (C4, (8, 8)), (U, (12, 8)), (REP, (12, 8)),
                (UT, (20, 8)), (E2A, (8, 10)), (E2B, (8, 10)), (C1, (12, 8)),
                (C2, (12, 8)), (C3, (12, 8)), (FP, (6, 6)))


def test_value_set_matches_linear_algebra_oracle_on_goldens():
    for algebra, bound in GOLDEN_BOXES:
        assert value_set(algebra, bound) == value_set_oracle(algebra, bound)


@settings(max_examples=25, deadline=None)
@given(plane_curves())
def test_value_set_matches_linear_algebra_oracle_on_plane_curves(algebra):
    bound = (6,) * algebra.d
    assert value_set(algebra, bound) == value_set_oracle(algebra, bound)


# three branches with 150 values in the box 14^3
THREE = curve(["t^3", "u", "v"], ["2t^7+t^8", "2u^4+u^5", "-v^3+v^4"])


def test_value_set_matches_linear_algebra_oracle_on_three_branches():
    values = value_set(THREE, (8, 8, 8))
    assert len(values) == 14
    assert values == value_set_oracle(THREE, (8, 8, 8))


def test_value_set_of_three_branches_follows_the_output():
    start = time.perf_counter()
    values = value_set(THREE, (14, 14, 14))
    assert time.perf_counter() - start < 2
    assert len(values) == 150
    values = value_set(THREE, (12, 12, 12))
    assert len(values) == 41
    assert values == saturation_value_set_oracle(THREE, (12, 12, 12))


def test_value_set_matches_saturation_oracle_on_random_curves():
    rng = random.Random(2024)
    drawn, nontrivial = Counter(), 0
    for _ in range(300):
        algebra = random_curve(rng, min_branches=1)
        # the oracle's work grows with the square of the number of values,
        # so the box holds at most 300 points; one side still reaches 9
        while True:
            bound = tuple(rng.randint(1, 9) for _ in range(algebra.d))
            if prod(b + 1 for b in bound) <= 300:
                break
        values = value_set(algebra, bound)
        assert values == saturation_value_set_oracle(algebra, bound)
        drawn[algebra.d] += 1
        nontrivial += len(values) > 2
    assert sorted(drawn) == [1, 2, 3, 4] and nontrivial > 150


def blown_up_algebras(algebra):
    """Every algebra that blowup returns while the tree of `algebra` grows."""
    blown = []
    real = branch_ring.blowup
    with mock.patch.object(branch_ring, "blowup",
                           side_effect=lambda a: blown.append(real(a)) or blown[-1]):
        multiplicity_tree_of_curve(algebra)
    return blown


def test_value_set_matches_saturation_oracle_on_blowups():
    nonlocal_boxes = 0
    for algebra, _ in GOLDEN_BOXES:
        for blown in blown_up_algebras(algebra):
            bound = tuple(min(5, min(g.components[j].truncation for g in blown.generators) - 1)
                          for j in range(blown.d))
            values = value_set(blown, bound)
            assert values == saturation_value_set_oracle(blown, bound)
            nonlocal_boxes += not is_local_ring(blown)
    assert nonlocal_boxes >= 10


def offsets_of(bound):
    """The position of t_j^0 in a flat row of `_span`, per branch j."""
    return [sum(b + 1 for b in bound[:j]) for j in range(len(bound))]


def flat_of(element, bound):
    """A SeriesTuple cut at bound + 1, as {position: Fraction}."""
    return {o + e: Fraction(n, c.denominator)
            for c, b, o in zip(element.components, bound, offsets_of(bound))
            for e, n in c.numerators.items() if e <= b}


def series_of(row, bound):
    """A flat row as a SeriesTuple known to bound + 1 on every branch."""
    return SeriesTuple([TruncatedSeries({p - o: n for p, n in row.items() if o <= p <= o + b},
                                        b + 1) for o, b in zip(offsets_of(bound), bound)])


def is_multiple(row, expected):
    """True when row = c*expected for one nonzero rational c."""
    return set(row) == set(expected) and len(
        {Fraction(n) / expected[p] for p, n in row.items()}) <= 1


def assert_span_matches_queue(algebra, bound):
    """_span and the series oracle are echelon bases of the queue oracle's
    space: the same leads, as positions and as (branch, order), and every
    row reduces to zero against the queue's rows.  The rows of _span are
    primitive integer rows keyed by their lead.  Returns both spans."""
    span = branch_ring._span(algebra, bound)
    series = series_span_oracle(algebra, bound)
    oracle = queue_span_oracle(algebra, bound)
    assert all(helpers._lead(row) == lead for lead, row in series.items())
    assert set(series) == set(oracle)
    assert all(helpers._reduce(row, oracle)[0] is None for row in series.values())
    offsets = offsets_of(bound)
    assert set(span) == {offsets[j] + e for j, e in oracle}
    for lead, row in span.items():
        assert min(row) == lead and gcd(*row.values()) == 1
        assert all(type(n) is int for n in row.values())
        assert helpers._reduce(series_of(row, bound), oracle)[0] is None
    return span, series


def test_span_matches_queue_oracle():
    for algebra, bound in GOLDEN_BOXES + ((THREE, (12, 12, 12)),):
        assert_span_matches_queue(algebra, bound)
    rng = random.Random(15)
    rows = 0
    for _ in range(300):
        algebra = random_curve(rng, min_branches=1)
        generators = list(algebra.generators)
        rng.shuffle(generators)
        shuffled = LocalAlgebra(generators)
        bound = tuple(rng.randint(0, min(12, algebra.truncation_order - 1))
                      for _ in range(algebra.d))
        rows += len(assert_span_matches_queue(shuffled, bound)[0])
    assert rows > 3000


def fraction_curve(rng):
    """1-3 branches at truncation 10-30; each component is 0 or 1-3 terms of
    degree 1-7 whose coefficients are p/q with leads other than +-1."""
    d = rng.randint(1, 3)

    def component(s):
        if rng.random() <= 0.15:
            return "0"
        exponents = sorted(rng.sample(range(1, 8), rng.randint(1, 3)))
        return "".join("%s%s*%s^%d" % (rng.choice("+-"), rng.choice(["2", "3/2", "5/3", "7/4", "1/6"]),
                                       s, e) for e in exponents).lstrip("+")

    while True:
        generators = [[component(s) for s in "tuv"[:d]] for _ in range(rng.randint(2, 3))]
        try:
            return curve(*generators, truncation=rng.randint(10, 30))
        except ValidationError:
            continue


def test_span_matches_queue_oracle_with_fraction_leads():
    rng = random.Random(17)
    fractional = 0
    for _ in range(150):
        algebra = fraction_curve(rng)
        bound = tuple(rng.randint(0, min(10, algebra.truncation_order - 1))
                      for _ in range(algebra.d))
        _, series = assert_span_matches_queue(algebra, bound)
        fractional += any(c.denominator > 1 for row in series.values() for c in row.components)
    assert fractional > 75


def blowups_match_oracle(algebra):
    """Grow the tree of `algebra` and compare every blowup with the oracle:
    the same generators and truncation order, or the same error.  Returns
    (folded, unit) per blowup: whether x is a fold of the generators, and
    whether its leads are all +-1."""
    seen = []
    real = branch_ring.blowup

    def checked(current):
        try:
            expected = blowup_oracle(current)
        except DomainError as exc:
            expected = (type(exc), str(exc))
        try:
            blown = real(current)
        except DomainError as exc:
            assert (type(exc), str(exc)) == expected
            raise
        assert not isinstance(expected, tuple), expected
        assert blown.generators == expected.generators
        assert blown.truncation_order == expected.truncation_order
        bound = branch_ring._fm_bound(current)
        x = blown.generators[0].components
        seen.append((all(branch_ring._capped_key(g, bound) != bound for g in current.generators),
                     all(c.numerators[min(c.numerators)] in (c.denominator, -c.denominator)
                         for c in x)))
        return blown

    with mock.patch.object(branch_ring, "blowup", checked):
        try:
            multiplicity_tree_of_curve(algebra)
        except TruncationError:
            pass
    return seen


FOLDED = curve(["t^2", "u^3"], ["-t^2", "u^4"], ["t^5", "u^2"])


def test_blowup_matches_the_oracle_on_goldens_and_random_curves():
    # the oracle divides x by itself and normalizes every generator, with
    # the long division that scales by lead / gcd term by term
    seen = []
    for algebra in [algebra for algebra, _ in GOLDEN_BOXES] + [THREE, FOLDED]:
        seen += blowups_match_oracle(algebra)
    rng = random.Random(18)
    drawn = Counter()
    for _ in range(300):
        algebra = random_curve(rng, min_branches=1)
        drawn[algebra.d] += 1
        seen += blowups_match_oracle(algebra)
    for _ in range(100):
        seen += blowups_match_oracle(fraction_curve(rng))
    counts = Counter(seen)
    # every kind of x is reached: a generator or a fold, with unit leads or not
    assert sorted(drawn) == [1, 2, 3, 4]
    assert all(counts[kind] >= 10 for kind in itertools.product((False, True), repeat=2)), counts


def test_eliminate_matches_the_fraction_multiplier():
    rng = random.Random(11)
    checked = 0
    for _ in range(400):
        d = rng.randint(1, 3)
        f, g = random_operand(rng, d), random_operand(rng, d)
        for j in range(d):
            a, b = f.components[j], g.components[j]
            for e in set(a.numerators) & set(b.numerators):
                multiplier = -a.coefficients[e] / b.coefficients[e]
                assert helpers._eliminate(f, g, j, e) == f.plus_multiple(g, multiplier)
                checked += 1
    assert checked > 100


# a plane branch pair whose staged span costs up to 15 times more unsorted
PLANE_PAIR = (["t^6+t^7", "u^9+u^10"], ["t^9", "u^4"], ["t^4", "u^6"])


def test_value_set_is_the_same_in_every_generator_order():
    values = set()
    for order in itertools.permutations(PLANE_PAIR):
        algebra = curve(*order, truncation=101)
        assert_span_matches_queue(algebra, (30, 30))
        values.add(frozenset(value_set(algebra, (100, 100))))
    assert len(values) == 1 and len(values.pop()) == 7944


def test_value_sets_follow_the_span_not_its_products():
    # each generator multiplies the span once, and products stop at the
    # bound; a queue that multiplied every row by every generator took
    # about 1.1 s and 0.5 s here (2 cores, CPython 3.11)
    for algebra, bound, count, limit in (
            (curve(["t^4"], ["t^6+t^7"], truncation=601), (600,), 593, 0.25),
            (curve(*PLANE_PAIR, truncation=201), (200, 200), 35744, 0.2)):
        start = time.perf_counter()
        values = value_set(algebra, bound)
        assert time.perf_counter() - start < limit
        assert len(values) == count


def random_operand(rng, d):
    """A tuple of zero, constant or 1-6 term components at truncation 1-20."""
    components = []
    for _ in range(d):
        kind = rng.random()
        if kind < 0.2:
            components.append(TruncatedSeries({}, rng.randint(1, 20)))
        elif kind < 0.35:
            components.append(TruncatedSeries.constant(
                Fraction(rng.randint(-3, 3), rng.randint(1, 3))))
        else:
            terms = {rng.randint(0, 15): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                     for _ in range(rng.randint(1, 6))}
            components.append(TruncatedSeries(terms, rng.randint(1, 20)))
    return SeriesTuple(components)


def test_cut_product_is_the_cut_of_the_product():
    rng = random.Random(5)
    for _ in range(1000):
        d = rng.randint(1, 3)
        f, g = random_operand(rng, d), random_operand(rng, d)
        bound = tuple(rng.randint(0, 12) for _ in range(d))
        if rng.random() < 0.5:
            f, g = helpers._cut(f, bound), helpers._cut(g, bound)
        factor = helpers._factor(g, bound)
        assert helpers._cut_product(f, factor) == helpers._cut(f * g, bound)


def test_flat_product_is_the_cut_of_the_product():
    # rows are exact in the box, so the operands are known past the bound
    rng = random.Random(19)
    nonzero = 0
    for _ in range(1000):
        d = rng.randint(1, 3)
        f, g = random_operand(rng, d), random_operand(rng, d)
        bound = tuple(rng.randint(0, min(12, a.truncation - 1, b.truncation - 1))
                      for a, b in zip(f.components, g.components))
        offsets = offsets_of(bound)
        factor = branch_ring._multiplier(branch_ring._row(g, bound, offsets), bound, offsets)
        product = branch_ring._product(branch_ring._row(f, bound, offsets), factor)
        assert is_multiple(product, flat_of(helpers._cut(f * g, bound), bound))
        nonzero += bool(product)
    assert nonzero > 300


def test_flat_eliminate_is_a_positive_multiple_of_the_fraction_step():
    rng = random.Random(20)
    for _ in range(2000):
        f = {p: rng.choice([-1, 1]) * rng.randint(1, 12) for p in rng.sample(range(12), 5)}
        g = {p: rng.choice([-1, 1]) * rng.randint(1, 12) for p in rng.sample(range(12), 5)}
        lead = rng.choice(sorted(set(f) & set(g)) or [None])
        if lead is None:
            continue
        step = {p: f.get(p, 0) - Fraction(f[lead], g[lead]) * g.get(p, 0) for p in set(f) | set(g)}
        step = {p: c for p, c in step.items() if c}
        row = branch_ring._eliminate(f, g, lead)
        assert lead not in row and all(type(n) is int for n in row.values())
        assert is_multiple(row, step)
        # b*f - a*g with b > 0 and the leads divided by their gcd
        b = abs(g[lead]) // gcd(f[lead], g[lead])
        assert all(row[p] == b * step[p] for p in row)


def rational_curve(rng, d):
    """d branches at truncation 10-24; each component is 0 or 1-3 terms of
    degree 1-7 whose coefficients include p/q and leads other than +-1."""
    names = ["t", "u", "v", "w", "x"][:d]

    def component(s):
        if rng.random() <= 0.15:
            return "0"
        exponents = sorted(rng.sample(range(1, 8), rng.randint(1, 3)))
        return "".join("%s%s*%s^%d" % (rng.choice("+-"),
                                       rng.choice(["1", "2", "3", "3/2", "5/3", "7/4", "1/6"]),
                                       s, e) for e in exponents).lstrip("+")

    while True:
        generators = [[component(s) for s in names] for _ in range(rng.randint(2, 3))]
        try:
            return curve(*generators, variables=names, truncation=rng.randint(10, 24))
        except ValidationError:
            continue


def assert_rows_are_the_series_rows(algebra, bound):
    """_span has the series oracle's leads, position offset_j + e for
    (branch j, order e), and each of its rows is a nonzero rational multiple
    of the oracle's row; value_set is the series oracle's.  Returns the
    oracle's rows and the values."""
    span = branch_ring._span(algebra, bound)
    series = series_span_oracle(algebra, bound)
    offsets = offsets_of(bound)
    assert set(span) == {offsets[j] + e for j, e in series}
    for (j, e), row in series.items():
        assert is_multiple(span[offsets[j] + e], flat_of(row, bound))
    values = value_set(algebra, bound)
    assert values == series_value_set_oracle(algebra, bound)
    return series, values


def test_span_rows_are_the_series_rows_up_to_a_scalar():
    for algebra, bound in GOLDEN_BOXES + ((THREE, (12, 12, 12)),):
        assert_rows_are_the_series_rows(algebra, bound)
    # d = 5 reaches past the saturation oracle, which stops at d = 4
    rng = random.Random(21)
    rows, fractional, other_leads, nontrivial = 0, 0, 0, Counter()
    for d in range(1, 6):
        for _ in range(60):
            algebra = rational_curve(rng, d)
            bound = tuple(rng.randint(2, min(10, algebra.truncation_order - 1))
                          for _ in range(d))
            series, values = assert_rows_are_the_series_rows(algebra, bound)
            rows += len(series)
            nontrivial[d] += len(values) > 2
            components = [c for row in series.values() for c in row.components if c.numerators]
            fractional += any(c.denominator > 1 for c in components)
            other_leads += any(abs(c.numerators[min(c.numerators)]) != c.denominator
                               for c in components)
    assert rows > 3000 and fractional > 200 and other_leads > 200
    assert min(nontrivial[d] for d in range(1, 6)) >= 40, nontrivial


def test_one_lambda_per_minimum():
    # folding t^2 + lambda*(-t^2 + t^3): lambda = 1 cancels, lambda = 2 keeps (2, 2)
    f, g = tuples("t^2", "u^3"), tuples("-t^2+t^3", "u^2")
    assert branch_ring._min_sum(f, g, (4, 4)) == f.plus_multiple(g, 2)
    assert branch_ring._capped_key(f + g, (4, 4)) == (3, 2)
    assert helpers._eliminate(f, g, 0, 2) == f + g


# branch 1 is known only below order 3, and 3 is its smallest order
SHALLOW = LocalAlgebra([
    SeriesTuple([TruncatedSeries({3: 1}, 64), TruncatedSeries({2: 1}, 64)]),
    SeriesTuple([TruncatedSeries({}, 3), TruncatedSeries({3: 1}, 64)]),
])


def test_cut_keeps_truncation_errors():
    assert branch_ring._fm_bound(SHALLOW) == (3, 2)
    message = saturation_outcome(SHALLOW, (3, 2), False)
    assert "cannot decide values up to 3 on branch 1" in message
    assert saturation_outcome(SHALLOW, (3, 2), True) == message
    with pytest.raises(TruncationError, match="rerun with truncation order at least 4"):
        value_set(SHALLOW, (3, 2))


def test_locality_needs_only_constant_terms():
    # every constant term is known, so the values SHALLOW cannot decide
    # do not matter to its locality
    assert is_local_ring(SHALLOW)
    assert branch_ring._partition(SHALLOW) == [[0, 1]]


def test_shallow_walk_fails_in_division():
    # two blowups of C3 at truncation 8 leave branch 1 known below order 2 only
    with pytest.raises(TruncationError, match="truncation exhausted in series division"):
        multiplicity_tree_of_curve(curve(["t^4", "u^2"], ["t^6+t^7", "u^3"], truncation=8))


def test_undecided_fine_multiplicity_raises():
    # the third generator's branch-1 component has no known term below the
    # fine multiplicity bound 5, so the fine multiplicity is not decided
    unknown = SeriesTuple([TruncatedSeries({}, 3), TruncatedSeries({5: 1}, 64)])
    known = [tuples("t^5", "u^2"), tuples("t^7", "u^3")]
    for generators in ([unknown] + known, known + [unknown]):
        with pytest.raises(TruncationError):
            multiplicity_tree_of_curve(LocalAlgebra(generators))


def lines(d):
    """d lines through the origin, (t, u, ...) and (t, 2u, 3v, ...)."""
    names = branch_ring._variable_names(d)
    return curve(names, ["%d*%s" % (j + 1, s) for j, s in enumerate(names)], truncation=64)


def cusps(order):
    """Branches (t^2, c*t^3 + t^e) with c and e set by each branch's entry of `order`."""
    names = branch_ring._variable_names(len(order))
    return curve(["%s^2" % s for s in names],
                 ["%d*%s^3+%s^%d" % (k + 1, s, s, 4 + k % 3) for s, k in zip(names, order)])


def test_many_branches_split_without_saturation():
    for d in range(8, 17):
        tree = multiplicity_tree_of_curve(lines(d))
        assert tree == MultiplicityTree([[1]] * d, splits=(0,) * (d - 1))
    order = list(range(12))
    shuffled = order[:]
    random.Random(12).shuffle(shuffled)
    assert shuffled != order
    assert multiplicity_tree_of_curve(cusps(order)) == MultiplicityTree(
        [[2]] * 12, splits=(2,) * 11)
    assert curves_equivalent(cusps(order), cusps(shuffled))


def test_closure_semigroups():
    assert arf_closure_value_semigroup(U) == EX1
    assert arf_closure_value_semigroup(E2A) == EX2
    closure = arf_closure_value_semigroup(R46).to_numerical()
    assert closure == NumericalSemigroup(8, [0, 4, 6])


def test_value_set_strictly_inside_closure_one_branch():
    # v(R) = <4,6,13> sits strictly inside the closure's {0,4,6,8,...}.
    values = {key[0] for key in value_set(R46, 20)}
    closure = arf_closure_value_semigroup(R46).to_numerical()
    assert all(closure.contains(n) for n in values)
    assert 9 not in values and closure.contains(9)


def test_value_set_strictly_inside_closure_two_branches():
    # Strictness means the value set is not its own Arf closure, so the
    # value semigroup of this presentation is not an Arf good semigroup.
    values = value_set(UT, (20, 8))
    closure = arf_closure_value_semigroup(UT)
    assert closure == EX1
    assert all(closure.contains(v) for v in values)
    assert (6, 6) not in values and closure.contains((6, 6))


def test_curve_dict_round_trip():
    data = curve_to_dict(C2)
    assert data["variables"] == ["t", "u"]
    assert data["generators"][0] == ["t^4", "2*u^2"]
    again = curve_from_dict(data)
    assert again.generators == C2.generators
    assert curve_to_dict(again) == data


def test_curve_dict_errors():
    with pytest.raises(InputError, match="^curve literal is missing d$"):
        curve_from_dict({"generators": [["t"]]})
    with pytest.raises(InputError, match="^curve literal is missing d, generators$"):
        curve_from_dict({"variables": ["t"]})
    with pytest.raises(InputError, match="^curve literal must be an object"):
        curve_from_dict([1, 2])
    with pytest.raises(InputError, match="d must be at least 1"):
        curve_from_dict({"d": 0, "generators": [[]]})
    with pytest.raises(InputError, match="2 distinct names"):
        curve_from_dict({"d": 2, "variables": ["t", "t"], "generators": [["t", "t"]]})
    with pytest.raises(InputError, match="generator 1 must list 2 component series"):
        curve_from_dict({"d": 2, "generators": [["t^2"]]})
    with pytest.raises(InputError, match="truncation must be positive"):
        curve_from_dict({"d": 1, "truncation": 0, "generators": [["t"]]})
    with pytest.raises(InputError, match="non-empty list"):
        curve_from_dict({"d": 1, "generators": []})


def test_huge_d_is_refused_before_the_default_names(monkeypatch):
    # a generator of the wrong length is named before d variable names are built
    monkeypatch.setattr(branch_ring, "_variable_names", mock.Mock(side_effect=AssertionError))
    with pytest.raises(InputError, match="generator 1 must list 100000000 component series"):
        curve_from_dict({"d": 10 ** 8, "generators": [["t^2"]]})


def test_results_stable_under_truncation_doubling():
    for generators in ((["t^4", "u^2"], ["t^6+t^7", "u^5"]),
                       (["t^2", "u^3"], ["t^3", "u^5"], ["t^4", "u^7"])):
        coarse = curve(*generators, truncation=64)
        fine = curve(*generators, truncation=128)
        assert multiplicity_tree_of_curve(coarse) == multiplicity_tree_of_curve(fine)
    for algebra, bound in GOLDEN_BOXES + ((THREE, (10, 10, 10)),):
        data = curve_to_dict(algebra)
        data["truncation"] *= 2
        assert value_set(curve_from_dict(data), bound) == value_set(algebra, bound)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=9), min_size=2, max_size=3,
                unique=True).map(sorted).filter(lambda xs: reduce(gcd, xs) == 1))
def test_monomial_branch_sequence_matches_closure(exponents):
    algebra = curve(*[["t^%d" % e] for e in exponents], truncation=40)
    assert branch_multiplicity_sequence(algebra) == semigroup_to_seq(
        arf_closure(exponents))


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=1, max_value=5),
                          st.integers(min_value=1, max_value=5)),
                min_size=2, max_size=3, unique=True))
def test_monomial_value_sets_are_min_closed(orders):
    algebra = LocalAlgebra(
        [tuples("t^%d" % a, "u^%d" % b, truncation=12) for a, b in orders])
    values = value_set(algebra, (8, 8))
    for a in values:
        for b in values:
            assert tuple(map(min, a, b)) in values
