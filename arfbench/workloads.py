"""Seeded inputs of the four workloads.

`build(workload, seed)` returns one round: a list of operations, each a
dict with a `kind`, its `args` (plain JSON-able literals) and what its
check needs.  An argument {"$out": i} stands for the output of operation i
of the same round, which always comes earlier.

Each workload draws a fixed catalog of shapes -- exponents, coefficients,
multiplicity sequences, split levels -- from a generator seeded with the
workload's name.  The run's seed then picks what leaves the amount of work
alone: the order of branches and of generators, another presentation of
the same algebra, interval-preserving relabelings of trees, which member a
candidate loses or gains, and the small numerical semigroups.  Per-op
costs swing by 20-40 % with the coefficients alone, so drawing those per
seed would make rounds of different seeds incomparable.  A curve tree
deeper than one blowup changes cost with its presentation too, so in
curve-trees the catalog also fixes those presentations.
"""

import itertools
import json
import random
from fractions import Fraction
from math import gcd

from .oracles import (intersection_multiplicity, interval_preserving_permutation,
                      permuted_tree, poly_mul, tree_members)

VARIABLES = ("t", "u", "v", "w")

# Coefficients of the y components: positive and with distinct powers, so
# that two monomial branches with the same exponents are distinct curves.
COEFFICIENTS = (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2), Fraction(3, 2))


# ---------------------------------------------------------------------------
# Curves.  A curve is a list of generators; a generator lists one component
# per branch; a component is a list of [exponent, "p/q"] terms.


def component(*terms):
    return [[e, str(Fraction(c))] for e, c in terms]


def series_text(terms, variable, truncation):
    """Series literal of the terms below the truncation, e.g. "2*t^3-1/2*t^5"."""
    out = []
    for e, c in sorted((e, Fraction(c)) for e, c in terms):
        if e >= truncation or c == 0:
            continue
        sign = "-" if c < 0 else ("+" if out else "")
        mag = abs(c)
        if e == 0:
            out.append(sign + str(mag))
        elif mag == 1:
            out.append("%s%s^%d" % (sign, variable, e))
        else:
            out.append("%s%s*%s^%d" % (sign, mag, variable, e))
    return "".join(out) or "0"


def curve_literal(gens, truncation):
    d = len(gens[0])
    return {"d": d, "truncation": truncation,
            "generators": [[series_text(comp, VARIABLES[j], truncation)
                            for j, comp in enumerate(g)] for g in gens]}


def _poly(comp):
    return {e: Fraction(c) for e, c in comp}


def _terms(poly):
    return [[e, str(c)] for e, c in sorted(poly.items()) if c]


def rewrite(gens, rng):
    """Another presentation of the same algebra: scale one generator by a
    nonzero rational, then add the product of two generators to a third."""
    gens = [[list(c) for c in g] for g in gens]
    n = len(gens)
    k = rng.randrange(n)
    factor = rng.choice((Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(5, 3)))
    gens[k] = [_terms({e: c * factor for e, c in _poly(comp).items()}) for comp in gens[k]]
    if n >= 3:
        k = rng.randrange(n)
        i, j = rng.sample([x for x in range(n) if x != k], 2)
    else:
        k, i = rng.sample(range(n), 2)
        j = i
    new = []
    for comp_k, comp_i, comp_j in zip(gens[k], gens[i], gens[j]):
        total = dict(_poly(comp_k))
        for e, c in poly_mul(_poly(comp_i), _poly(comp_j)).items():
            total[e] = total.get(e, 0) + c
        new.append(_terms(total))
    gens[k] = new
    return gens


def permute_branches(gens, perm):
    return [[g[p] for p in perm] for g in gens]


def present(gens, rng, perm=None):
    """The curve with its generators in a random order and its branches
    relabeled by `perm` (random when None)."""
    if perm is None:
        perm = list(range(len(gens[0])))
        rng.shuffle(perm)
    gens = permute_branches(gens, perm)
    rng.shuffle(gens)
    return gens


def generator_values(gens):
    return [[min(e for e, _ in comp) for comp in g] for g in gens]


def monomial_branch(p, q, beta=1):
    """Plane branch (t^p, beta t^q); the pair (x, y) of its components."""
    return component((p, 1)), component((q, beta))


def binomial_branch(p, q, beta=1):
    """Plane branch (t^p, beta (t^q + t^(q+1)))."""
    return component((p, 1)), component((q, beta), (q + 1, beta))


def plane_curve(branches):
    """Two generators x, y from one (x_j, y_j) pair per branch."""
    return [[b[0] for b in branches], [b[1] for b in branches]]


# Plane branch exponents (p, q) with gcd 1.
PLANE_PAIRS = ((2, 3), (2, 5), (3, 4), (3, 5))
# Branch shapes (p, q, binomial): every plane pair, monomial and binomial.
SHAPES = tuple((p, q, b) for p, q in PLANE_PAIRS for b in (False, True))


def branches_of(shapes, rng):
    """One plane branch per shape, with coefficients drawn without
    replacement, so that no two branches coincide as curves."""
    betas = rng.sample(COEFFICIENTS, len(shapes))
    return [(binomial_branch if b else monomial_branch)(p, q, beta)
            for (p, q, b), beta in zip(shapes, betas)]


def noether_coefficients(first, c, e, rng):
    """Coefficients a, b for which (a u^c, b u^e) is another branch than
    `first`, that is, its equation does not vanish on `first`."""
    x1 = {exp: Fraction(coef) for exp, coef in first[0]}
    y1 = {exp: Fraction(coef) for exp, coef in first[1]}
    while True:
        a, b = rng.choice(COEFFICIENTS), rng.choice(COEFFICIENTS)
        if intersection_multiplicity(x1, y1, a, c, b, e) is not None:
            return a, b


def _one_branch_exponents(rng):
    """Exponents of a monomial branch: a plane pair or a space triple."""
    if rng.random() < 0.5:
        return list(rng.choice(PLANE_PAIRS))
    p = rng.choice((3, 4, 5))
    while True:
        q, r = sorted(rng.sample(range(p + 1, 2 * p + 2), 2))
        if _gcd_all((p, q, r)) == 1:
            return [p, q, r]


def _cycle(menu, index):
    return menu[index % len(menu)]


# ---------------------------------------------------------------------------
# curve-trees


def _adder(ops):
    def add(kind, args, **check):
        ops.append({"kind": kind, "args": args, "check": check})
        return len(ops) - 1
    return add


def interleave(ops, split):
    """The round with ops[:split] spread evenly among ops[split:], and the
    `same_as` references renumbered.  The machine's speed changes from one
    second to the next; cheap ops run back to back would all sample one
    moment of it, spread out they sample the whole round."""
    def key(i):
        rank, size = (i, split) if i < split else (i - split, len(ops) - split)
        return (rank + 0.5) / size
    order = sorted(range(len(ops)), key=key)
    where = {old: new for new, old in enumerate(order)}
    result = []
    for old in order:
        op = ops[old]
        if "same_as" in op["check"]:
            op = dict(op, check=dict(op["check"], same_as=where[op["check"]["same_as"]]))
        result.append(op)
    return result


# Noether-sum slots: first-branch shape and second-branch exponents (c, e).
# The cheap pairs separate after one blowup (about 2 ms); the others take
# 0.03-0.2 s at truncation 64 and 0.3-0.7 s at 128.
NOETHER_CHEAP = (((2, 3, False), (2, 3)), ((2, 5, False), (2, 5)),
                 ((3, 4, False), (2, 3)), ((3, 5, False), (2, 3)))
NOETHER_MID = (((2, 3, True), (3, 2)), ((2, 5, True), (3, 4)), ((3, 4, False), (4, 3)),
               ((3, 4, True), (2, 3)), ((3, 5, False), (3, 2)), ((3, 5, True), (2, 5)))
NOETHER_DEEP = (((3, 4, False), (4, 3)), ((3, 5, True), (2, 5)), ((2, 3, True), (3, 2)))


def curve_trees(cat, rng):
    """The round, by cost: 12 ops under 1 ms, 28 of 1.5-3 ms, 10 between
    0.03 and 0.2 s and 9 between 0.2 and 0.9 s, so that the median falls
    ten ranks inside the 2-ms tier and the 90th percentile inside the top
    tier.  Generator and branch order move a deeper tree's cost by up to
    1.6x, so the seed presents only the one-branch curves and the
    one-blowup trees, whose cost it leaves alone, and the one curve that
    is rewritten into a second presentation; the catalog fixes the
    presentation of every other curve."""
    ops = []
    add = _adder(ops)

    # one-branch monomial curves: multiplicity sequence vs subtract-the-minimum
    for index in range(12):
        exps = _one_branch_exponents(cat)
        gens = present([[component((e, 1))] for e in exps], rng)
        add("branch_sequence", {"curve": curve_literal(gens, (64, 128)[index % 2])},
            exponents=exps)

    # two-branch plane curves, second branch (a u^c, b u^e): Noether sum
    slots = ([(_cycle(NOETHER_CHEAP, i), 64, rng) for i in range(28)]
             + [(_cycle(NOETHER_MID, i), 64, cat) for i in range(6)]
             + [(_cycle(NOETHER_DEEP, i), 128, cat) for i in range(4)])
    for (shape, (c, e)), truncation, presenter in slots:
        first = branches_of([shape], cat)[0]
        a, b = noether_coefficients(first, c, e, cat)
        pair = [first, (component((c, a)), component((e, b)))]
        gens = present(plane_curve(pair), presenter)
        add("curve_tree", {"curve": curve_literal(gens, truncation)}, gens=gens, plane=pair)

    # a two-branch curve: the tree must not depend on the presentation
    pair = branches_of([SHAPES[1], SHAPES[4]], cat)
    gens = present(plane_curve(pair), rng)
    other = present(rewrite(gens, rng), rng, perm=[0, 1])
    first = add("curve_tree", {"curve": curve_literal(gens, 64)}, gens=gens, plane=pair)
    add("curve_tree", {"curve": curve_literal(other, 64)}, gens=other, same_as=first)

    # three branches: permuting them gives an equivalent curve; four branches
    plane = branches_of([(2, 3, False), (3, 4, True), (2, 5, False)], cat)
    gens = present(plane_curve(plane), cat)
    add("curve_tree", {"curve": curve_literal(gens, 64)}, gens=gens, plane=plane)
    add("curves_equivalent", {"first": curve_literal(gens, 64),
                              "second": curve_literal(present(gens, cat), 64)}, expected=True)
    plane = branches_of([(2, 3, False), (3, 5, False), (3, 4, True), (2, 5, False)], cat)
    gens = present(plane_curve(plane), cat)
    add("curve_tree", {"curve": curve_literal(gens, 64)}, gens=gens, plane=plane)

    # a curve is equivalent to itself at twice the truncation; curves whose
    # branch multiplicities differ are not equivalent
    for shapes in ([(2, 5, True), (3, 4, False)], [(2, 5, False), (3, 5, True)]):
        gens = present(plane_curve(branches_of(shapes, cat)), cat)
        add("curves_equivalent", {"first": curve_literal(gens, 64),
                                  "second": curve_literal(gens, 128)}, expected=True)
    for index in range(2):
        first = plane_curve(branches_of([(2, 3, False), (3, 4, index == 1)], cat))
        second = plane_curve(branches_of([(2, 3, False), (2, 5, index == 1)], cat))
        add("curves_equivalent", {"first": curve_literal(present(first, cat), 64),
                                  "second": curve_literal(present(second, cat), 64)},
            expected=False)
    # the 40 ops of the cheap tiers come first
    return interleave(ops, 40)


# ---------------------------------------------------------------------------
# curve-values


def curve_values(cat, rng):
    ops = []
    add = _adder(ops)

    # one-branch monomial curves: the semigroup of the exponents
    for index in range(30):
        exps = _one_branch_exponents(cat)
        gens = present([[component((e, 1))] for e in exps], rng)
        side = 24 + index % 20
        add("value_set", {"curve": curve_literal(gens, side + 1), "bound": [side]},
            generator_values=generator_values(gens), exponents=exps)

    # two-branch plane curves in boxes of side 8..16; a second presentation
    # of every other one must give the same set
    sides = (8, 10, 12, 14, 16)
    for index in range(80):
        shapes = [_cycle(SHAPES, index), _cycle(SHAPES, index // 8 + 3)]
        bound = [_cycle(sides, index), _cycle(sides, index + 2)]
        perm = rng.sample(range(2), 2)
        gens = present(plane_curve(branches_of(shapes, cat)), rng, perm)
        bound = [bound[p] for p in perm]
        truncation = max(bound) + 1
        first = add("value_set", {"curve": curve_literal(gens, truncation), "bound": bound},
                    generator_values=generator_values(gens))
        if index % 2 == 0:
            other = present(rewrite(gens, rng), rng, perm=[0, 1])
            add("value_set", {"curve": curve_literal(other, truncation), "bound": bound},
                generator_values=generator_values(other), same_as=first)

    # three-branch curves in small boxes
    for index in range(24):
        shapes = [_cycle(SHAPES, index), _cycle(SHAPES, index + 3), _cycle(SHAPES, index + 5)]
        gens = present(plane_curve(branches_of(shapes, cat)), rng)
        bound = [6 + (index + j) % 3 for j in range(3)]
        add("value_set", {"curve": curve_literal(gens, max(bound) + 1), "bound": bound},
            generator_values=generator_values(gens))
    return ops


# ---------------------------------------------------------------------------
# combinatorics


def _decomposition(prefix):
    """The k_i with e_i = e_{i+1} + ... + e_{i+k_i}, or None if some e_i has none."""
    ks = []
    for i in range(len(prefix)):
        total, k = 0, 0
        while total < prefix[i]:
            k += 1
            total += prefix[i + k] if i + k < len(prefix) else 1
        if total != prefix[i]:
            return None
        ks.append(k)
    return ks


def _condition_c(branches, splits):
    """Every node over branches j..h has equal subtree depths i + k_i on its
    branches, or the pair splits no later than the shallower one."""
    ks = [_decomposition(b) for b in branches]
    if any(k is None for k in ks):
        return False
    d = len(branches)
    for j in range(d):
        for h in range(j + 1, d):
            s = min(splits[j:h])
            for i in range(s + 1):
                kj = ks[j][i] if i < len(ks[j]) else 1
                kh = ks[h][i] if i < len(ks[h]) else 1
                if kj != kh and s > i + min(kj, kh):
                    return False
    return True


def _sequence_classes():
    """Valid multiplicity-sequence prefixes with entries 2..8, grouped by
    (length, sum)."""
    classes = {}
    for length in (1, 2, 3):
        for seq in itertools.product(range(2, 9), repeat=length):
            if _decomposition(list(seq)) is not None:
                classes.setdefault((length, sum(seq)), []).append(list(seq))
    return classes


SEQUENCE_CLASSES = _sequence_classes()


def random_tree(rng, d, seq_class, splits):
    """A valid tree whose branches come from one sequence class, with the
    given split levels: each branch repeats a base sequence or draws its
    own, redrawn until condition c holds (all-equal branches always do)."""
    menu = SEQUENCE_CLASSES[seq_class]
    for _ in range(50):
        base = rng.choice(menu)
        branches = [list(base) if rng.random() < 0.5 else list(rng.choice(menu))
                    for _ in range(d)]
        if _condition_c(branches, splits):
            return branches, list(splits)
    return [list(base) for _ in range(d)], list(splits)


def relabel(branches, splits, rng):
    """The tree under a random interval-preserving branch permutation."""
    return permuted_tree(branches, splits, interval_preserving_permutation(splits, rng))


def random_sequence(rng, length, top=12):
    """A multiplicity sequence of the given length and sum at most `top`."""
    return list(rng.choice([seq for (n, total), seqs in sorted(SEQUENCE_CLASSES.items())
                            if n == length and total <= top for seq in seqs]))


def full_box(delta):
    return [list(v) for v in itertools.product(*(range(c + 1) for c in delta))]


# The grid cases of benchmarks/bench_kernels.py.  is_good runs all three
# kernels; on the two largest boxes it takes 3.6 s (40^2) and 18.7 s (13^3),
# almost all in the pair-lifting search, more than the rest of the round, so
# those feed the min and sum kernels directly, as that script does.
KERNEL_TREE = ([[16, 8, 4, 4, 2, 2], [8, 4, 4, 2, 2]], [1])
KERNEL_BOXES_IS_GOOD = ((14, 14), (5, 5, 5))
KERNEL_BOXES_MIN_SUM = ((40, 40), (13, 13, 13))

# Tree slots of the combinatorics round: (d, sequence class, split levels).
TREE_SLOTS = (
    (2, (3, 12), [2]), (2, (3, 14), [1]), (2, (2, 10), [3]),
    (3, (3, 12), [1, 2]), (3, (2, 10), [2, 1]),
    (4, (3, 12), [1, 2, 1]), (4, (2, 8), [2, 1, 3]),
    (5, (2, 8), [1, 2, 1, 2]), (5, (3, 12), [2, 3, 2, 3]),
    (6, (2, 8), [1, 2, 1, 2, 1]), (6, (3, 10), [1, 2, 1, 2, 1]),
) * 2


def combinatorics(cat, rng):
    ops = []
    add = _adder(ops)

    # numerical semigroups
    for index in range(10):
        while True:
            gens = sorted(rng.sample(range(3, 14), 2 + index % 2))
            if _gcd_all(gens) == 1:
                break
        add("arf_closure", {"generators": gens})
        add("from_generators", {"generators": gens})
        add("arf_characters", {"generators": gens})

    # trees at d = 2..6: round trip, canonical form, intersection, characters
    for d, seq_class, splits in TREE_SLOTS:
        branches, splits = random_tree(cat, d, seq_class, splits)
        # intersection partner: one split level deeper where still valid
        other = [s + 1 for s in splits]
        if not _condition_c(branches, other):
            other = list(splits)
        perm = interval_preserving_permutation(splits, rng)
        _, other = permuted_tree(branches, other, perm)
        branches, splits = permuted_tree(branches, splits, perm)
        tree = {"branches": branches, "splits": splits}
        S = add("tree_to_semigroup", {"tree": tree}, tree=tree)
        add("is_good", {"semigroup": {"$out": S}}, expected=True)
        add("is_arf_good", {"semigroup": {"$out": S}}, expected=True)
        T = add("semigroup_to_tree", {"semigroup": {"$out": S}}, tree=tree)
        C = add("canonical_form", {"tree": tree})
        add("canonical_form", {"tree": {"$out": T}}, same_as=C)
        pb, ps = relabel(branches, splits, rng)
        add("canonical_form", {"tree": {"branches": pb, "splits": ps}}, same_as=C)
        tree2 = {"branches": branches, "splits": other}
        S2 = add("tree_to_semigroup", {"tree": tree2}, tree=tree2)
        X = add("tree_intersection", {"first": tree, "second": tree2})
        add("tree_to_semigroup", {"tree": {"$out": X}}, intersection_of=[S, S2])
        V = add("chars_build", {"semigroup": {"$out": S}})
        add("chars_closure", {"charset": {"$out": V}}, equals=S)
        R = add("chars_reduce", {"charset": {"$out": V}, "semigroup": {"$out": S}}, subset_of=V)
        add("chars_closure", {"charset": {"$out": R}}, equals=S)

    # is_good and is_arf_good on small candidates: valid ones, and the same
    # with one member removed or one added; verdicts against brute force
    for index in range(12):
        branches, splits = relabel(*random_tree(cat, 2, (2, 6 + index % 3), [1 + index % 2]),
                                   rng)
        tree = {"branches": branches, "splits": splits}
        S = add("tree_to_semigroup", {"tree": tree}, tree=tree)
        mutation = ("remove", "add")[index % 2]
        add("is_good", {"semigroup": {"$out": S}, "mutate": [mutation, rng.randrange(1000)]},
            brute=True)
        add("is_arf_good", {"semigroup": {"$out": S}}, brute=True)

    # the kernel grid cases
    branches, splits = KERNEL_TREE
    tree = {"branches": branches, "splits": splits}
    S = add("tree_to_semigroup", {"tree": tree}, tree=tree)
    add("is_good", {"semigroup": {"$out": S}}, expected=True)
    for delta in KERNEL_BOXES_IS_GOOD:
        add("is_good", {"semigroup": {"d": len(delta), "conductor": list(delta),
                                      "small_elements": full_box(delta)}}, expected=True)
    for delta in KERNEL_BOXES_MIN_SUM:
        add("kernel_min_sum", {"delta": list(delta)}, expected=True)
    return ops


def _gcd_all(values):
    g = 0
    for v in values:
        g = gcd(g, v)
    return g


# ---------------------------------------------------------------------------
# cli


def cli(cat, rng):
    """Subprocess invocations: argv after `python -m arfcurves.cli`, optional
    stdin, expected exit code and the content check."""
    ops = []

    def add(argv, code=0, stdin=None, **check):
        ops.append({"kind": "cli", "args": {"argv": argv, "stdin": stdin},
                    "check": dict(check, code=code)})

    def dumps(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    def tree(d, seq_class, splits):
        return relabel(*random_tree(cat, d, seq_class, splits), rng)

    for _ in range(3):
        while True:
            gens = sorted(rng.sample(range(3, 12), 3))
            if _gcd_all(gens) == 1:
                break
        add(["closure"] + [str(g) for g in gens], closure=gens)
        add(["seq", dumps({"generators": gens})], seq=gens)
        add(["characters", dumps({"generators": gens})], characters=gens)
        prefix = random_sequence(rng, 3)
        add(["unseq", dumps({"prefix": prefix})], unseq=prefix)

    for d, splits in ((2, [1]), (2, [2]), (3, [2, 1])):
        branches, splits = tree(d, (2, 6 + d), splits)
        literal = _tree_dict(branches, splits)
        form = ("ascii", "dot")[d % 2]
        add(["tree", "to-semigroup", dumps(literal)], tree_semigroup=[branches, splits])
        add(["tree", "render", "-", "--format", form], stdin=dumps(literal),
            render=[branches, splits, form])
        add(["tree", "render", dumps(literal), "--format", "json"], tree=[branches, splits])
    # semigroup-side commands take the semigroup of a known tree, given by
    # the node sums of that tree
    for d, splits in ((2, [1]), (3, [1, 2])):
        branches, splits = tree(d, (2, 6 + d), splits)
        lit = _tree_semigroup_literal(branches, splits)
        add(["tree", "from-semigroup", dumps(lit)], tree=[branches, splits])
        add(["check", dumps(lit)], check_verdict=[True, True, True])
        add(["chars", "build", dumps(lit)], chars_build=lit)
        add(["chars", "closure", dumps(_chars_of(lit))], semigroup=lit)
    branches, splits = tree(2, (2, 7), [1])
    other = [s + 1 for s in splits]
    if not _condition_c(branches, other):
        other = list(splits)
    add(["tree", "intersect", dumps(_tree_dict(branches, splits)),
         dumps(_tree_dict(branches, other))],
        tree=[branches, [max(a, b) for a, b in zip(splits, other)]])
    # a candidate with one member removed: check must answer is_good false
    lit = _tree_semigroup_literal(*tree(2, (2, 7), [2]))
    small = [v for v in lit["small_elements"] if any(v) and v != lit["conductor"]]
    victim = small[rng.randrange(len(small))]
    broken = dict(lit, small_elements=[v for v in lit["small_elements"] if v != victim])
    add(["check", dumps(broken)], check_brute=broken)

    # curves whose invariants take milliseconds, so that every call costs
    # about one interpreter start and the percentiles fall inside that bulk
    first = branches_of([(2, 3, False)], cat)[0]
    a, b = noether_coefficients(first, 2, 3, cat)
    pair = [first, (component((2, a)), component((3, b)))]
    gens = present(plane_curve(pair), rng)
    add(["curve", "tree", dumps(curve_literal(gens, 64))], curve_tree=gens, plane=pair)
    add(["curve", "semigroup", "-"], stdin=dumps(curve_literal(gens, 64)), curve_semigroup=gens)
    exps = [3, 5]
    one = present([[component((x, 1))] for x in exps], rng)
    add(["curve", "values", dumps(curve_literal(one, 64)), "--bound", "12"],
        values=[12], exponents=exps, generator_values=generator_values(one))
    add(["curve", "equiv", dumps(curve_literal(gens, 64)),
         dumps(curve_literal(present(gens, rng), 64))], equivalent=True)

    # malformed literals must exit 2, out-of-domain ones 1
    add(["closure", "x"], code=2)
    add(["seq", "{not json"], code=2)
    add(["tree", "render", "[1, 2]"], code=2)
    add(["curve", "tree", dumps({"d": 1, "generators": [["t^2+"]]})], code=2)
    add(["curve", "tree", dumps({"d": 1, "generators": [["x^2"]]})], code=2)
    add(["chars", "build", "{}"], code=2)
    add(["closure", "4", "6"], code=1)
    add(["seq", dumps({"generators": [2, 4]})], code=1)
    add(["unseq", dumps({"prefix": [2, 3]})], code=1)
    not_good = {"d": 2, "conductor": [1, 1], "small_elements": [[0, 0], [0, 1], [1, 1]]}
    add(["check", dumps(not_good)], check_brute=not_good)
    add(["tree", "from-semigroup", dumps({"d": 1, "conductor": [8],
                                          "small_elements": [[0], [3], [5], [6], [8]]})], code=1)
    add(["curve", "values", dumps(curve_literal(one, 8)), "--bound", "12"], code=1)

    # the five literals that end in a traceback instead of exit 2; they do
    # not depend on the seed, so every round fails on exactly these
    for argv in KNOWN_FAULTS:
        add(list(argv), code=2, known_fault=True)
    return ops


KNOWN_FAULTS = (
    ("check", '{"d":"x","conductor":[1,1],"small_elements":[[0,0],[1,1]]}'),
    ("check", '{"d":1,"conductor":3,"small_elements":[[0],[3]]}'),
    ("unseq", '{"prefix":"abc"}'),
    ("seq", '{"generators":["a"]}'),
    ("curve", "tree", '{"d":1,"generators":[["t^2"],["t^3"]],"truncation":"x"}'),
)


def _tree_dict(branches, splits):
    """Node-list literal of a tree, as `arfcurves tree` reads it."""
    d = len(branches)
    top = max([len(b) for b in branches] + [s + 1 for s in splits])
    nodes = []
    previous = {}
    for level in range(top + 1):
        groups = []
        start = 0
        for j in range(d - 1):
            if splits[j] < level:
                groups.append(range(start, j + 1))
                start = j + 1
        groups.append(range(start, d))
        current = {}
        for g in groups:
            vector = [(branches[h][level] if level < len(branches[h]) else 1) if h in g else 0
                      for h in range(d)]
            nodes.append({"level": level, "vector": vector,
                          "parent": previous.get(g[0]) if level else None})
            for h in g:
                current[h] = len(nodes) - 1
        previous = current
    return {"d": d, "nodes": nodes}


def _tree_semigroup_literal(branches, splits):
    """Semigroup literal of a tree from the node sums of its rooted subtrees."""
    d = len(branches)
    # the conductor is at most the sum of each branch's entries through one
    # level past every split and every non-unit entry
    depth = max([len(b) for b in branches] + [s + 1 for s in splits]) + 1
    box = [sum(b[i] if i < len(b) else 1 for i in range(depth)) for b in branches]
    members = tree_members(branches, splits, box)
    delta = list(box)
    for j in range(d):
        while delta[j] > 0:
            trial = delta[:j] + [delta[j] - 1] + delta[j + 1:]
            if all(v in members for v in itertools.product(*(range(trial[h], box[h] + 1) for h in range(d)))):
                delta = trial
            else:
                break
    small = sorted(v for v in members if all(x <= c for x, c in zip(v, delta)))
    return {"d": d, "conductor": delta, "small_elements": [list(v) for v in small]}


def _chars_of(lit):
    """A vector set that determines the semigroup literal: its nonzero
    members in the box [0, conductor + 1]."""
    delta = lit["conductor"]
    small = set(map(tuple, lit["small_elements"]))
    box = itertools.product(*(range(c + 2) for c in delta))
    return {"d": lit["d"], "vectors": [list(v) for v in box if any(v) and tuple(
        min(x, c) for x, c in zip(v, delta)) in small]}


BUILDERS = {
    "cli": cli,
    "curve-trees": curve_trees,
    "curve-values": curve_values,
    "combinatorics": combinatorics,
}


def build(workload, seed):
    return BUILDERS[workload](random.Random("catalog/" + workload),
                              random.Random("%s/%d" % (workload, seed)))
