"""Independent answers for the benchmark's output checks.

Nothing here imports arfcurves.  Each function computes its answer by a
method the package does not use (fixed-point closures, sieves, brute-force
axiom checks, node-set sums over trees), or tests a property every correct
answer must have.  A check returns None when the output passes and a short
reason when it does not.
"""

import itertools
import json
from fractions import Fraction
from math import gcd


# ---------------------------------------------------------------------------
# Numerical semigroups


def sieve(generators, bound):
    """Members of the semigroup generated by `generators` in [0, bound]."""
    member = [False] * (bound + 1)
    member[0] = True
    for n in range(1, bound + 1):
        member[n] = any(g <= n and member[n - g] for g in generators)
    return [n for n in range(bound + 1) if member[n]]


def _conductor_of(members, top):
    """Least c with [c, top] inside `members` (a set)."""
    c = top
    while c > 0 and c - 1 in members:
        c -= 1
    return c


def arf_closure_fixpoint(generators):
    """(conductor, small members) of the smallest Arf semigroup containing G.

    Starts from <G> and adds x + y - z for members x >= y >= z, and sums,
    until nothing changes.  Every integer from the conductor of <G> on is
    already a member, so only members below it can produce new ones.
    """
    gens = sorted({g for g in generators if g > 0})
    g = 0
    for x in gens:
        g = gcd(g, x)
    if g != 1:
        raise ValueError("generators must have gcd 1")
    top = (gens[0] - 1) * (gens[-1] - 1) + 1
    members = set(sieve(gens, top))
    c = _conductor_of(members, top)
    small = {m for m in members if m < c}
    changed = True
    while changed:
        changed = False
        ordered = sorted(small)
        for i, x in enumerate(ordered):
            for j in range(i + 1):
                y = ordered[j]
                for z in ordered[:j + 1]:
                    for new in (x + y - z, x + y):
                        if new < c and new not in small:
                            small.add(new)
                            changed = True
    c = _conductor_of(small | set(range(c, c + 1)), c)
    return c, sorted(m for m in small if m < c)


def subtract_min_sequence(exponents):
    """Multiplicity sequence of the monomial branch t -> (t^a, t^b, ...).

    Take the least exponent as the multiplicity, lower the others by it,
    keep it, and repeat until 1 is an exponent (trailing ones dropped).
    """
    current = set(exponents)
    prefix = []
    while 1 not in current:
        e = min(current)
        prefix.append(e)
        current = {x - e for x in current if x > e} | {e}
    return prefix


def check_closure(generators, output):
    conductor, small = arf_closure_fixpoint(generators)
    if output != {"conductor": conductor, "small_elements": small}:
        return "Arf closure of %r is %r, expected conductor %d, small %r" % (
            generators, output, conductor, small)
    return None


def check_characters(semigroup, characters):
    """Characters must regenerate S, and dropping any one must lose S."""
    target = (semigroup["conductor"], semigroup["small_elements"])
    chars = sorted(characters)
    if not chars or gcd(*chars) != 1 or arf_closure_fixpoint(chars) != target:
        return "characters %r do not regenerate %r" % (chars, target)
    for c in chars:
        rest = [x for x in chars if x != c]
        if rest and gcd(*rest) == 1 and arf_closure_fixpoint(rest) == target:
            return "character %d of %r is not essential" % (c, chars)
    return None


def check_numerical(generators, output):
    """`output` must be <G> as conductor plus small members."""
    top = (min(generators) - 1) * (max(generators) - 1) + 1
    members = set(sieve(generators, top))
    c = _conductor_of(members, top)
    expected = {"conductor": c, "small_elements": sorted(m for m in members if m < c)}
    if output != expected:
        return "semigroup of %r is %r, expected %r" % (generators, output, expected)
    return None


# ---------------------------------------------------------------------------
# Good semigroups in the box representation (conductor delta, members of
# [0, delta]; a vector is a member iff its cap at delta is).


def _capped(v, delta):
    return tuple(min(x, c) for x, c in zip(v, delta))


def good_brute(d, delta, small):
    """Good-semigroup axioms by enumeration: min, sum, pair lifting."""
    delta = tuple(delta)
    small = [tuple(v) for v in small]
    members = set(small)
    if (0,) * d not in members or delta not in members:
        return False
    if any(len(v) != d or any(x < 0 or x > c for x, c in zip(v, delta)) for v in small):
        return False
    for a in small:
        for b in small:
            if tuple(map(min, a, b)) not in members:
                return False
            if _capped(tuple(x + y for x, y in zip(a, b)), delta) not in members:
                return False
    for a, b in itertools.combinations(small, 2):
        for i in range(d):
            if a[i] != b[i]:
                continue
            # witness: coordinate i above a_i, min(a_j, b_j) where a and b
            # differ, at least a_j where they agree; beyond delta_j the
            # cap rule makes every larger value equivalent to delta_j
            ranges = []
            for j in range(d):
                if j == i:
                    lo = a[i] + 1
                elif a[j] == b[j]:
                    lo = a[j]
                else:
                    ranges.append((min(a[j], b[j]),))
                    continue
                ranges.append(range(lo, max(lo, delta[j]) + 1))
            if not any(_capped(e, delta) in members for e in itertools.product(*ranges)):
                return False
    return True


def arf_brute(d, delta, small):
    """Arf property by enumeration: beta + gamma - alpha for beta, gamma >= alpha."""
    delta = tuple(delta)
    small = [tuple(v) for v in small]
    members = set(small)
    for a in small:
        above = [b for b in small if all(x >= y for x, y in zip(b, a))]
        for i, b in enumerate(above):
            for c in above[i:]:
                v = tuple(x + y - z for x, y, z in zip(b, c, a))
                if _capped(v, delta) not in members:
                    return False
    return True


def check_character_vectors(semigroup, vectors):
    """Character vectors are members, and for every branch j the smallest
    Arf semigroup containing their j-th coordinates is the projection of S
    on j, since they carry the Arf characters of every projection."""
    delta = tuple(semigroup["conductor"])
    members = set(tuple(v) for v in semigroup["small_elements"])
    bad = [v for v in vectors if _capped(v, delta) not in members]
    if bad:
        return "character vectors %r are not members" % (bad,)
    for j, cj in enumerate(delta):
        projection = {v[j] for v in members} | {cj}
        conductor = _conductor_of(projection, cj)
        expected = (conductor, sorted(m for m in projection if m < conductor))
        coords = [v[j] for v in vectors if v[j]]
        if conductor and (not coords or gcd(*coords) != 1
                          or arf_closure_fixpoint(coords) != expected):
            return "coordinates %d of the vectors do not generate the projection %r" % (
                j + 1, expected)
    return None


def local_brute(d, delta, small):
    if d == 1:
        return True
    return not any(0 in v and any(v) for v in [tuple(delta)] + [tuple(v) for v in small])


# ---------------------------------------------------------------------------
# Multiplicity trees, given as branch prefixes plus consecutive split levels.


def _entry(prefix, i):
    return prefix[i] if i < len(prefix) else 1


def _pair_split(splits, j, h):
    lo, hi = min(j, h), max(j, h)
    return min(splits[lo:hi])


def tree_members(branches, splits, box):
    """Sums of node vectors over rooted subtrees, inside the box [0, box].

    A rooted subtree is a set of nodes closed under taking parents.  The
    node of branch j at level i is shared with branch h while
    i <= split(j, h); its vector carries the entry of every branch it holds.
    The sums are built down the split hierarchy: a group of branches shares
    its nodes through its shallowest split, where it falls into two groups
    whose subtrees are chosen independently.
    """
    def group(lo, hi, level, room):
        if hi - lo == 1:
            found, total, i = {(0,)}, 0, level
            while True:
                total += _entry(branches[lo], i)
                if total > room[0]:
                    return found
                found.add((total,))
                i += 1
        top = min(splits[lo:hi - 1])
        cut = splits.index(top, lo) + 1
        found = {(0,) * (hi - lo)}
        shared = [0] * (hi - lo)
        for i in range(level, top + 1):
            for h in range(lo, hi):
                shared[h - lo] += _entry(branches[h], i)
            if any(x > r for x, r in zip(shared, room)):
                return found
            found.add(tuple(shared))
        rest = [r - x for r, x in zip(room, shared)]
        left = group(lo, cut, top + 1, rest[:cut - lo])
        right = group(cut, hi, top + 1, rest[cut - lo:])
        for a in left:
            for b in right:
                found.add(tuple(x + y for x, y in zip(shared, a + b)))
        return found

    return group(0, len(branches), 0, tuple(box))


def check_tree_semigroup(branches, splits, output):
    """The semigroup literal must match the node sums on [0, delta + 1]: a
    point of that box is a node sum exactly when its cap at delta is a
    small element.  The points whose cap is a small element s are s with
    every coordinate at delta_j free to be delta_j or delta_j + 1."""
    delta = tuple(output["conductor"])
    small = set(tuple(v) for v in output["small_elements"])
    outside = [v for v in small if any(x < 0 or x > c for x, c in zip(v, delta))]
    if outside:
        return "small elements %r lie outside [0, %r]" % (outside[:3], list(delta))
    members = tree_members(branches, splits, tuple(c + 1 for c in delta))
    for v in members:
        if _capped(v, delta) not in small:
            return "tree %r/%r: node sum %r is missing from the output" % (
                branches, splits, list(v))
    for s in small:
        choices = [(x, x + 1) if x == c else (x,) for x, c in zip(s, delta)]
        for v in itertools.product(*choices):
            if v not in members:
                return "tree %r/%r: %r is in the output but is no node sum" % (
                    branches, splits, list(v))
    return None


def check_good_and_arf(semigroup):
    d, delta, small = semigroup["d"], semigroup["conductor"], semigroup["small_elements"]
    if not good_brute(d, delta, small):
        return "tree semigroup %r is not good" % (delta,)
    if not arf_brute(d, delta, small):
        return "tree semigroup %r is not Arf" % (delta,)
    return None


def interval_preserving_permutation(splits, rng):
    """A random branch order under which every glued group stays an interval.

    Reverses the order of the children below randomly chosen nodes of the
    split hierarchy: cut [lo, hi) at its shallowest split, and flip or keep
    the two sides.
    """
    def order(lo, hi):
        if hi - lo == 1:
            return [lo]
        cut = min(range(lo, hi - 1), key=lambda j: (splits[j], j))
        parts = [order(lo, cut + 1), order(cut + 1, hi)]
        if rng.random() < 0.5:
            parts.reverse()
        return parts[0] + parts[1]

    return order(0, len(splits) + 1)


def permuted_tree(branches, splits, perm):
    """Branches reordered by perm, with the split levels that order induces."""
    new_branches = [branches[p] for p in perm]
    new_splits = [_pair_split(splits, perm[i], perm[i + 1]) for i in range(len(perm) - 1)]
    return new_branches, new_splits


# ---------------------------------------------------------------------------
# Curves.  A component is a list of (exponent, coefficient) terms with
# Fraction coefficients; the benchmark writes them out as series literals.


def poly_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def poly_pow(p, n):
    out = {0: Fraction(1)}
    for _ in range(n):
        out = poly_mul(out, p)
    return out


def intersection_multiplicity(x1, y1, a, c, b, e):
    """Order in t of b^c x1^e - a^e y1^c: the contact of the branch
    (x1(t), y1(t)) with the branch (a u^c, b u^e), whose equation that is;
    None when the two are the same branch."""
    left = poly_pow(x1, e)
    right = poly_pow(y1, c)
    bc, ae = Fraction(b) ** c, Fraction(a) ** e
    total = {k: bc * left.get(k, 0) - ae * right.get(k, 0) for k in set(left) | set(right)}
    total = {k: v for k, v in total.items() if v}
    return min(total) if total else None


def check_values(values, bound, generator_values, sieve_exponents=None):
    """A value set in a box: 0 and the in-box generator values are members,
    it is closed under componentwise min and under addition inside the box,
    and a one-branch monomial curve gives the semigroup of its exponents."""
    members = set(tuple(v) for v in values)
    d = len(bound)
    if (0,) * d not in members:
        return "0 is missing from the value set"
    for g in generator_values:
        if all(x <= b for x, b in zip(g, bound)) and tuple(g) not in members:
            return "generator value %r is missing" % (list(g),)
    for v in members:
        if len(v) != d or any(x < 0 or x > b for x, b in zip(v, bound)):
            return "value %r lies outside the box %r" % (list(v), list(bound))
    for a in members:
        for b in members:
            m = tuple(map(min, a, b))
            if m not in members:
                return "min(%r, %r) is missing" % (list(a), list(b))
            s = tuple(x + y for x, y in zip(a, b))
            if all(x <= c for x, c in zip(s, bound)) and s not in members:
                return "%r + %r is missing" % (list(a), list(b))
    if sieve_exponents is not None:
        expected = {(n,) for n in sieve(sieve_exponents, bound[0])}
        if members != expected:
            return "value set differs from <%r> on [0, %d]: missing %r, extra %r" % (
                sieve_exponents, bound[0], sorted(expected - members), sorted(members - expected))
    return None


# ---------------------------------------------------------------------------
# Command-line output


def canonical_json(text):
    """The parsed object when `text` is one line of canonical JSON, else None."""
    body = text[:-1] if text.endswith("\n") else None
    if body is None or "\n" in body:
        return None
    try:
        data = json.loads(body)
    except ValueError:
        return None
    if json.dumps(data, sort_keys=True, separators=(",", ":")) != body:
        return None
    return data


def check_exit(expected, code, stderr):
    if code != expected:
        return "exit %d, expected %d" % (code, expected)
    if "Traceback" in stderr:
        return "traceback on stderr"
    return None
