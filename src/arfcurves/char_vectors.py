"""Finite character-vector sets of multi-branch Arf semigroups.

A local Arf good semigroup S is pinned down by finitely many members: the
minimal members carrying the Arf characters of each projection, plus one
vector over each branching node that no such member already witnesses.
Conversely, the smallest Arf semigroup containing a finite vector set V is
computed over the branch collection E of per-coordinate Arf closures by
maximizing split levels subject to the membership constraints of V.

Whether V determines S is decided on trees.  Trees and Arf semigroups
correspond one to one, so smallest(V) = S exactly when the closure tree of
V is the tree of S; S is read once, and each vector set tried after that
costs its closure tree, with no semigroup built.
"""

import itertools
from functools import cache

from .errors import (DomainError, ValidationError, echo, literal_fields, literal_int, literal_ints,
                     literal_list)
from .mult_tree import (MultiplicityTree, _condition_c_failure, node_path_sum,
                        semigroup_to_tree, tree_to_semigroup)
from .numerical import _closure_seq, characters_of_seq


class CharacterVectorSet:
    """Finite set of vectors of N^d, stored sorted and deduplicated."""

    __slots__ = ("d", "vectors")

    def __init__(self, d, vectors):
        self.d = int(d)
        if self.d < 1:
            raise ValidationError("d must be >= 1")
        vecs = set()
        for v in vectors:
            vec = tuple(int(x) for x in v)
            if len(vec) != self.d:
                raise DomainError("vector %s has dimension %d, expected %d"
                                  % (echo(list(v)), len(vec), self.d))
            if any(x < 0 for x in vec):
                raise ValidationError("vector entries must be natural numbers: %s"
                                      % echo(list(v)))
            vecs.add(vec)
        self.vectors = tuple(sorted(vecs))

    def __iter__(self):
        return iter(self.vectors)

    def __len__(self):
        return len(self.vectors)

    def __contains__(self, v):
        return tuple(v) in self.vectors

    def __eq__(self, other):
        return (isinstance(other, CharacterVectorSet)
                and self.d == other.d and self.vectors == other.vectors)

    def __hash__(self):
        return hash(("CharacterVectorSet", self.d, self.vectors))

    def __repr__(self):
        return "CharacterVectorSet(%d, %r)" % (self.d, [list(v) for v in self.vectors])


def _minimal_member_with_coordinate(S, j, c):
    """The unique minimal member of S with j-th coordinate c (1-based j).

    Candidates are the boxed members whose j-th coordinate is min(c, delta_j);
    min-closure makes their coordinatewise minimum a member again, so taking
    the minimum over each other coordinate and writing c itself in position j
    yields the minimal such member.
    """
    jj = j - 1
    capped = min(c, S.conductor[jj])
    candidates = [g for g in S.small_elements if g[jj] == capped]
    return tuple(c if h == jj else min(g[h] for g in candidates)
                 for h in range(S.d))


def build_character_vectors(S, witness_node=None):
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

    @cache
    def node_level(v, l):  # k with v == node_path_sum(T, l, k), or None (1-based l)
        seq, target = T.branches[l - 1], v[l - 1]
        k = seq.index_of(target)
        return k if seq.prefix_sum(k + 1) == target and node_path_sum(T, l, k) == v else None

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
            (lvl := node_level(v, l)) is not None and lvl > s
            for v in vectors for l in (j, j + 1))
        if witnessed:
            continue
        level, branch = (witness_node if not override_used
                         else (s + 1, j + 1))
        if branch in (j, j + 1) and level > s:
            override_used = True
        else:
            level, branch = s + 1, j + 1
        v = node_path_sum(T, branch, level)
        if v not in seen:
            seen.add(v)
            vectors.append(v)
    if not override_used:
        raise DomainError("witness node %r does not sit strictly above an "
                          "unwitnessed branching node" % (witness_node,))
    return CharacterVectorSet(S.d, vectors)


def _max_valid_splits(branches, bounds):
    """Pointwise-largest split vector <= bounds satisfying the subtree-sum
    condition.  Valid vectors are closed under pointwise max, so lowering
    each coordinate of a violated window to its cap and maximizing over the
    results reaches the unique maximum.
    """
    memo = {}

    def solve(w):
        if w in memo:
            return memo[w]
        failure = _condition_c_failure(branches, w)
        if failure is None:
            memo[w] = w
            return w
        _, j, h, cap = failure
        best = None
        for a in range(j, h):
            if w[a] > cap:
                cand = solve(w[:a] + (cap,) + w[a + 1:])
                best = cand if best is None else tuple(map(max, best, cand))
        memo[w] = best
        return best

    return solve(tuple(int(b) for b in bounds))


def _closure_tree(d, vectors, closures):
    """Tree of the smallest Arf good semigroup containing the vectors of N^d.

    The branch collection is fixed by the per-coordinate Arf closures; a
    vector whose prefix-sum indices k_j and k_{j+1} differ forces the pair
    to split no later than min(k_j, k_{j+1}), and all branches must be
    distinct one level past the deepest index seen.  The splits are then
    the largest valid levels within those bounds.  `closures` keeps each
    closure by its set of values, across the calls that share it.
    """
    vectors = [v for v in vectors if any(v)]
    if not vectors:
        raise DomainError("at least one nonzero vector is required")
    for v in vectors:
        if 0 in v:
            raise DomainError("vector %s has a zero coordinate; no local "
                              "semigroup contains it" % echo(list(v)))
    branches = []
    for j in range(d):
        values = frozenset(v[j] for v in vectors)
        if values not in closures:
            closures[values] = _closure_seq(values)
        branches.append(closures[values])
    indices = [tuple(seq.index_of(x) for seq, x in zip(branches, v)) for v in vectors]
    N = max(max(m) for m in indices) + 1
    bounds = [N - 1] * (d - 1)
    for m in indices:
        for j in range(d - 1):
            if m[j] != m[j + 1]:
                bounds[j] = min(bounds[j], m[j], m[j + 1])
    T = MultiplicityTree(branches, _max_valid_splits(branches, bounds), validate=False)
    T._verdict = (True, None)  # _max_valid_splits has checked condition c on its splits
    return T


def smallest_arf_containing(V):
    """Smallest Arf good semigroup containing the vectors of V: the semigroup
    of their closure tree."""
    return tree_to_semigroup(_closure_tree(V.d, V.vectors, {}))


def _determines(d, S):
    """Test of "the vectors determine S" on sets W of vectors of N^d.

    smallest_arf_containing(W) == S iff the closure tree of W is the tree of
    S read in coordinate order, since trees and Arf semigroups correspond
    one to one; so S is read once, and each W costs its closure tree alone.
    S has no such tree when it is not Arf, not local or not in glued order,
    and then no W determines it.  Closures are kept across the sets.
    """
    try:
        found = semigroup_to_tree(S)
    except DomainError:  # not local, not Arf, out of glued order, or refused for size
        found = None
    closures = {}

    def determines(vectors):
        try:
            return found is not None and _closure_tree(d, vectors, closures) == found
        except DomainError:
            return False

    return determines


def reduce_characters(V, S):
    """Shrink a determining vector set: drop coordinatewise minima of pairs,
    then greedily drop vectors whose removal keeps smallest_arf_containing = S.

    Each trial compares the closure tree of the remaining vectors with the
    tree of S read once.  That is the same test: a tree and
    its Arf semigroup determine each other, so the closure semigroup is S
    exactly when the closure tree is the tree of S.  No trial builds a
    semigroup, so a trial costs the size of the tree, not of S.
    """
    determines = _determines(V.d, S)
    if not determines(V.vectors):
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
        if determines(trial):
            vectors = trial
    return CharacterVectorSet(V.d, vectors)


def is_minimal_character_set(V, S):
    """True iff V determines S and no V minus one vector does: determination
    is monotone, as W <= U <= V gives S = smallest(W) <= smallest(U) <= S."""
    determines = _determines(V.d, S)
    if not determines(V.vectors):
        return False
    return not any(determines(V.vectors[:i] + V.vectors[i + 1:])
                   for i in range(len(V.vectors)))


def charset_to_dict(V):
    return {"d": V.d, "vectors": [list(v) for v in V.vectors]}


def charset_from_dict(data):
    literal_fields(data, ("d", "vectors"), "character-set")
    return CharacterVectorSet(literal_int(data["d"], "d", 1),
                              [literal_ints(v, "a vector")
                               for v in literal_list(data["vectors"], "vectors")])
