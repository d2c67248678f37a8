"""Finite character-vector sets of multi-branch Arf semigroups.

A local Arf good semigroup S is pinned down by finitely many members: the
minimal members carrying the Arf characters of each projection, plus one
vector over each branching node that no such member already witnesses.
Conversely, the smallest Arf semigroup containing a finite vector set V is
computed over the branch collection E of per-coordinate Arf closures by
maximizing split levels subject to the membership constraints of V.
"""

import itertools

from .errors import DomainError, ValidationError, echo, literal_int, literal_ints, literal_list
from .mult_tree import (MultiplicityTree, _condition_c_failure, node_path_sum,
                        semigroup_to_tree, tree_to_semigroup)
from .numerical import arf_closure, characters_of_seq, semigroup_to_seq


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


def _node_level(T, v, l):
    """Level k with v == node_path_sum(T, l, k), or None (1-based branch l)."""
    seq, target = T.branches[l - 1], v[l - 1]
    k = next(k for k in itertools.count() if seq.prefix_sum(k + 1) >= target)
    return k if seq.prefix_sum(k + 1) == target and node_path_sum(T, l, k) == v else None


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
            (lvl := _node_level(T, v, l)) is not None and lvl > s
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


def smallest_arf_containing(V):
    """Smallest Arf good semigroup containing the vectors of V.

    The branch collection is fixed by the per-coordinate Arf closures; a
    vector whose prefix-sum indices k_j and k_{j+1} differ forces the pair
    to split no later than min(k_j, k_{j+1}), and all branches must be
    distinct one level past the deepest index seen.  The splits are then
    the largest valid levels within those bounds.
    """
    vectors = [v for v in V.vectors if any(v)]
    if not vectors:
        raise DomainError("at least one nonzero vector is required")
    for v in vectors:
        if 0 in v:
            raise DomainError("vector %s has a zero coordinate; no local "
                              "semigroup contains it" % echo(list(v)))
    d = V.d
    branches = [semigroup_to_seq(arf_closure(v[j] for v in vectors))
                for j in range(d)]

    def index_of(j, value):
        k = 0
        while branches[j].prefix_sum(k + 1) < value:
            k += 1
        return k

    indices = [tuple(index_of(j, v[j]) for j in range(d)) for v in vectors]
    N = max(max(m) for m in indices) + 1
    bounds = [N - 1] * (d - 1)
    for m in indices:
        for j in range(d - 1):
            if m[j] != m[j + 1]:
                bounds[j] = min(bounds[j], m[j], m[j + 1])
    T = MultiplicityTree(branches, _max_valid_splits(branches, bounds), validate=False)
    T._verdict = (True, None)  # _max_valid_splits has checked condition c on its splits
    return tree_to_semigroup(T)


def reduce_characters(V, S):
    """Shrink a determining vector set: drop coordinatewise minima of pairs,
    then greedily drop vectors whose removal keeps smallest_arf_containing = S."""
    try:
        determined = smallest_arf_containing(V) == S
    except DomainError:
        determined = False
    if not determined:
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
        try:
            if smallest_arf_containing(CharacterVectorSet(V.d, trial)) == S:
                vectors = trial
        except DomainError:
            pass
    return CharacterVectorSet(V.d, vectors)


def is_minimal_character_set(V, S):
    """True iff V determines S and no V minus one vector does: determination
    is monotone, as W <= U <= V gives S = smallest(W) <= smallest(U) <= S."""
    def determines(vectors):
        try:
            return smallest_arf_containing(CharacterVectorSet(V.d, vectors)) == S
        except (DomainError, ValidationError):
            return False

    if not determines(V.vectors):
        return False
    return not any(determines(V.vectors[:i] + V.vectors[i + 1:])
                   for i in range(len(V.vectors)))


def charset_to_dict(V):
    return {"d": V.d, "vectors": [list(v) for v in V.vectors]}


def charset_from_dict(data):
    for key in ("d", "vectors"):
        if key not in data:
            raise ValidationError("character-set literal needs d and vectors")
    return CharacterVectorSet(literal_int(data["d"], "d"),
                              [literal_ints(v, "a vector")
                               for v in literal_list(data["vectors"], "vectors")])
