"""Finite character-vector sets of multi-branch Arf semigroups.

A local Arf good semigroup S is pinned down by finitely many members, all
node path sums of its tree: on each branch, the path through each level j
at which no decomposition e_i = e_{i+1} + ... + e_{i+k_i} ends (the Arf
characters of the branch), plus the path through one node over each
branching node that no such vector already witnesses.  No member of S is
read past its tree.
Conversely, the smallest Arf semigroup containing a finite vector set V is
computed over the branch collection E of per-coordinate Arf closures: each
consecutive pair splits at the smaller of its membership bound from V and
its condition-c cap.

Whether V determines S is decided on trees.  Trees and Arf semigroups
correspond one to one, so smallest(V) = S exactly when the closure tree of
V is the tree of S; S is read once, and each vector set tried after that
costs its closure tree, with no semigroup built.
"""

import itertools

from .errors import (DomainError, ValidationError, echo, literal_fields, literal_int, literal_ints,
                     literal_list)
from .mult_tree import _capped_tree, node_path_sum, semigroup_to_tree, tree_to_semigroup
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


def build_character_vectors(S, witness_node=None):
    """Character vectors of a local Arf good semigroup, read off its tree.

    For each branch j of the tree of S and each Arf character c of its
    sequence, the path sum through the node at level index_of(c) on branch
    j is included: the unique minimal member with j-th coordinate c.  Then
    every consecutive pair (j, j+1) must be witnessed by a vector at a node
    strictly above its branching node, on branch j or j+1; when none is
    present one is added, by default the node one level up on branch j+1.
    witness_node=(level, branch) overrides that default; it must sit
    strictly above the branching node of a pair that needs a witness.
    Vectors are kept as nodes (branch, level): the level-k node of branch b
    lies on branch l iff k <= pair_split(b, l), and distinct nodes have
    distinct path sums.
    """
    T = semigroup_to_tree(S)
    nodes = [(j, seq.index_of(c)) for j, seq in enumerate(T.branches, 1)
             for c in characters_of_seq(seq)]
    override_used = witness_node is None
    for j in range(1, S.d):
        s = T.pair_split(j - 1, j)
        if any(k > s and (b == l or k <= T.pair_split(b - 1, l - 1))
               for b, k in nodes for l in (j, j + 1)):
            continue
        level, branch = (witness_node if not override_used
                         else (s + 1, j + 1))
        if branch in (j, j + 1) and level > s:
            override_used = True
        else:
            level, branch = s + 1, j + 1
        nodes.append((branch, level))
    if not override_used:
        raise DomainError("witness node %r does not sit strictly above an "
                          "unwitnessed branching node" % (witness_node,))
    return CharacterVectorSet(S.d, (node_path_sum(T, b, k) for b, k in nodes))


def _closure_tree(d, vectors, closures):
    """Tree of the smallest Arf good semigroup containing the vectors of N^d.

    The branch collection is fixed by the per-coordinate Arf closures; a
    vector whose prefix-sum indices k_j and k_{j+1} differ forces the pair
    to split no later than min(k_j, k_{j+1}), and all branches must be
    distinct one level past the deepest index seen.  Each pair then splits
    at the smaller of that membership bound and its condition-c cap.
    `closures` keeps each closure by its set of values, across the calls
    that share it.
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
    return _capped_tree(branches, bounds)


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
