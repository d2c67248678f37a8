"""Multiplicity trees of N^d: validity, tree/semigroup conversion, pinching
order, split profiles, intersection and canonical form.

A tree is encoded by its d branch multiplicity sequences plus the split
levels of the d-1 consecutive branch pairs: splits[j] is the level of the
branching node of branches j+1 and j+2 (1-based), so the pair shares one
node per level i <= splits[j] and is separate afterwards.  Glued branch
groups are intervals of consecutive indices and gluing is downward closed,
hence the split level of an arbitrary pair is the minimum of the
consecutive split levels between them.
"""

import itertools
from contextlib import suppress
from functools import cache, cmp_to_key
from math import inf, prod

from .errors import (DomainError, InputError, ValidationError, echo, literal_fields, literal_int,
                     literal_ints, literal_list)
from .good_semigroup import GoodSemigroup, _project, is_local
from .numerical import (MultiplicitySequence, NumericalSemigroup, decomposition_lengths,
                        semigroup_to_seq)

# Most small elements tree_to_semigroup enumerates before refusing a tree.
MAX_TREE_MEMBERS = 2 ** 20


class MultiplicityTree:
    """Leveled tree of multiplicity vectors encoding a local Arf semigroup of N^d."""

    __slots__ = ("branches", "splits", "_verdict")

    def __init__(self, branches, splits=(), validate=True):
        seqs = tuple(b if isinstance(b, MultiplicitySequence)
                     else MultiplicitySequence(b) for b in branches)
        if not seqs:
            raise ValidationError("a tree needs at least one branch")
        self.branches = seqs
        self.splits = tuple(int(s) for s in splits)
        if len(self.splits) != len(seqs) - 1:
            raise ValidationError("expected %d split levels for %d branches, got %d"
                                  % (len(seqs) - 1, len(seqs), len(self.splits)))
        if any(s < 0 for s in self.splits):
            raise ValidationError("split levels must be natural numbers")
        if validate:
            ok, message = validate_tree(self)
            if not ok:
                raise ValidationError(message)

    @property
    def d(self):
        return len(self.branches)

    @property
    def stable_level(self):
        """First level from which every node vector is a unit vector."""
        return max([len(seq.prefix) for seq in self.branches] + [s + 1 for s in self.splits])

    def pair_split(self, j, h):
        """Level of the branching node of branches j and h (0-based, j != h)."""
        lo, hi = min(j, h), max(j, h)
        return min(self.splits[lo:hi])

    def groups(self, level):
        """Glued branch groups at a level, as 0-based index ranges."""
        out = []
        start = 0
        for j in range(self.d - 1):
            if self.splits[j] < level:
                out.append(range(start, j + 1))
                start = j + 1
        out.append(range(start, self.d))
        return out

    def node_vector(self, level, group):
        return tuple(self.branches[h].entry(level) if h in group else 0
                     for h in range(self.d))

    def __eq__(self, other):
        return (isinstance(other, MultiplicityTree)
                and self.branches == other.branches
                and self.splits == other.splits)

    def __hash__(self):
        return hash(("MultiplicityTree", self.branches, self.splits))

    def __repr__(self):
        return "MultiplicityTree(%r, splits=%r)" % (
            [list(seq.prefix) for seq in self.branches], list(self.splits))


def _condition_c_failure(branches, splits):
    """First (level, j, h, cap) where a node vector is not a rooted-subtree sum.

    A node at level i glued over branches j..h forces subtree depth
    i + k_i per branch; the depths coexist in one subtree iff equal or the
    pair splits no later than cap, the shallower forced depth; cap > i, so
    a pair parted below level i never fails there.  Walking from the smaller k_i
    of a failing pair, the first adjacent pair whose k_i differ fails too, so
    adjacent pairs find the level in O(levels * d); only its pairs are scanned.
    """
    ks = [decomposition_lengths(seq) for seq in branches]
    top = min(max(splits, default=-1), max((len(table) for table in ks), default=0))
    for i in range(top + 1):
        row = [table[i] if i < len(table) else 1 for table in ks]
        if any(a != b and s > i + min(a, b) for a, b, s in zip(row, row[1:], splits)):
            for j in range(len(row) - 1):
                for h, low in enumerate(itertools.accumulate(splits[j:], min), j + 1):
                    if row[j] != row[h] and low > i + min(row[j], row[h]):
                        return (i, j, h, i + min(row[j], row[h]))
    return None


def _capped_tree(branches, bounds):
    """The tree whose pair a splits at min(bounds[a], cap[a]), verdict recorded.

    By the walk in _condition_c_failure, condition c holds iff every
    adjacent pair a passes, that is splits[a] <= cap[a], the least
    i + min(k_i^a, k_i^(a+1)) over the levels i where the two k_i differ.
    The valid split vectors are a box, so these splits are the largest
    valid ones within bounds.
    """
    ks = [decomposition_lengths(seq) for seq in branches]
    splits = []
    for bound, left, right in zip(bounds, ks, ks[1:]):
        rows = itertools.zip_longest(left, right, fillvalue=1)  # past its table every k_i is 1
        splits.append(min([bound] + [i + min(a, b) for i, (a, b) in enumerate(rows) if a != b]))
    T = MultiplicityTree(branches, splits, validate=False)
    T._verdict = (True, None)
    return T


def validate_tree(candidate):
    """Check tree validity; returns (True, None) or (False, message).

    Accepts a MultiplicityTree (checks the subtree-sum condition; the
    encoding guarantees the structural conditions) or a node-list dict,
    which is additionally checked structurally: unit vectors beyond the
    stable level, zero coordinates exactly off-branch, interval gluing,
    consistent parent links.
    """
    if not isinstance(candidate, MultiplicityTree):
        try:
            tree_from_dict(candidate)
        except (DomainError, InputError) as exc:
            return False, str(exc)
        return True, None
    if not hasattr(candidate, "_verdict"):  # condition c is checked once per tree
        failure = _condition_c_failure(candidate.branches, candidate.splits)
        candidate._verdict = (failure is None, failure and "condition c fails at the level-%d "
                              "node of branches %d-%d" % (failure[0], failure[1] + 1, failure[2] + 1))
    return candidate._verdict


def tree_to_semigroup(T):
    """Semigroup of sums over rooted subtrees of the tree.

    A rooted subtree of a glued group's level-i node holds that node and, per
    child group at level i+1, nothing or a rooted subtree of that child.
    Branch j is cut at D_j = max(len(prefix_j) - 1, splits[j-1], splits[j]),
    past which it runs alone through unit vectors: the minimal conductor is
    delta_j = prefix_sum_j(D_j + 1); over MAX_TREE_MEMBERS members are refused.
    """
    ok, message = validate_tree(T)
    if not ok:
        raise ValidationError(message)
    depth = [max([len(seq.prefix) - 1, *T.splits[max(j - 1, 0):j + 1]])
             for j, seq in enumerate(T.branches)]
    if max(depth) >= MAX_TREE_MEMBERS:
        raise DomainError("a branch of depth %d has more than %d small elements"
                          % (max(depth), MAX_TREE_MEMBERS))
    sums = [list(itertools.accumulate((seq.entry(i) for i in range(D + 1)), initial=0))
            for seq, D in zip(T.branches, depth)]

    def subtrees(level, group):
        # the group stays glued through level `last`, then parts into its children
        last = depth[group[0]] if len(group) == 1 else min(T.splits[group[0]:group[-1]])
        out = [tuple(sums[h][m + 1] - sums[h][level] for h in group)
               for m in range(level, last + 1)]
        if len(group) == 1:
            return out
        choices = [[(0,) * len(child)] + subtrees(last + 1, child)
                   for child in T.groups(last + 1) if child[0] in group]
        if prod(map(len, choices)) > MAX_TREE_MEMBERS:
            raise DomainError("the tree semigroup has more than %d small elements"
                              % MAX_TREE_MEMBERS)
        stem = out.pop()
        for parts in itertools.product(*choices):
            out.append(tuple(a + b for a, b in zip(stem, itertools.chain(*parts))))
        return out

    return GoodSemigroup._of(tuple(s[D + 1] for s, D in zip(sums, depth)),
                             [(0,) * T.d] + subtrees(0, range(T.d)))


def _branches_and_splits(S):
    """The multiplicity sequences of the projections of S, and split(j, h)
    for j < h: the first level l with a member whose coordinates j, h are
    min(P_j(l+2), delta_j), min(P_h(l+1), delta_h), P the prefix sums, so
    that the plane projection on j, h has (P_j(l+2), P_h(l+1)); else -1.
    Branch j is read off the values of at[j] below delta_j: the ones past
    the conductor of the projection are the trailing ones a sequence drops."""
    at = [{} for _ in S.conductor]  # at[j][x]: indices of the members with v_j = x
    for i, v in enumerate(S.small_elements):
        for j, x in enumerate(v):
            at[j].setdefault(x, set()).add(i)
    branches = [semigroup_to_seq(NumericalSemigroup(c, [x for x in values if x < c] or [0],
                                                    validate=False))
                for values, c in zip(at, S.conductor)]

    def members(k, level):
        return at[k].get(min(branches[k].prefix_sum(level), S.conductor[k]), set())

    @cache
    def split(j, h):  # P(l) >= l, so from l = max(delta_j, delta_h) on the test is the same
        return next((level for level in range(max(S.conductor[j], S.conductor[h]) + 1)
                     if not members(j, level + 2).isdisjoint(members(h, level + 1))), -1)

    return branches, split


def _glued_order(d, split):
    """Coordinates sorted on the rows of the split matrix, each branch ahead
    of itself, so that the glued branch groups of the tree are intervals."""
    return sorted(range(d), key=lambda j: [-split(min(j, h), max(j, h)) if h != j
                                           else -inf for h in range(d)])


def _arf_tree(S):
    """(order, tree) of a local S whose tree, read with the coordinates in
    that order, has semigroup S, or None: the coordinate order is tried
    first, then for d >= 3 the glued order."""
    branches, split = _branches_and_splits(S)

    def read(R, order):
        with suppress(ValidationError):  # a split of -1, or condition c failing
            T = MultiplicityTree([branches[j] for j in order], validate=False, splits=[
                split(*sorted(pair)) for pair in zip(order, order[1:])])
            if tree_to_semigroup(T) == R:
                return order, T
        return None

    order = list(range(S.d))
    if (found := read(S, order)) or S.d < 3 or (glued := _glued_order(S.d, split)) == order:
        return found
    return read(_project(S, glued), glued)


def semigroup_to_tree(S):
    """Multiplicity tree of a local Arf semigroup; inverse of tree_to_semigroup.

    The tree keeps the coordinate order of S.  When its glued branch groups
    are not intervals of consecutive coordinates but S is Arf, the
    DomainError names the glued order, in which the tree reads off S.
    """
    if not is_local(S):
        raise DomainError("only local semigroups have a multiplicity tree")
    order, T = _arf_tree(S) or (None, None)
    if T is None:
        raise ValidationError("the semigroup is not Arf; it has no multiplicity tree")
    if order != sorted(order):
        raise DomainError("the semigroup is Arf, but its glued branches are not consecutive; "
                          "list its coordinates in the order %s"
                          % ", ".join(str(j + 1) for j in order))
    return T


def node_path_sum(T, j, level):
    """Sum of the node vectors from the root through the level-th node on
    branch j (1-based); always a member of the tree's semigroup."""
    if not 1 <= j <= T.d:
        raise DomainError("branch index %d out of range 1..%d" % (j, T.d))
    l = j - 1  # caps[h] = pair_split(l, h), as running minima outward from l
    caps = [*itertools.accumulate(reversed(T.splits[:l]), min)][::-1] + [level] + [
        *itertools.accumulate(T.splits[l:], min)]
    return tuple(seq.prefix_sum(min(level, cap) + 1) for seq, cap in zip(T.branches, caps))


def split_profile(T, N):
    """Profile (n_1, ..., n_{d-1}) with n_j = N - split level of pair (j, j+1)."""
    if T.splits and N <= max(T.splits):
        raise DomainError("branches are not all distinct at level %d" % (N,))
    return tuple(N - s for s in T.splits)


def pinch(T, j):
    """Merge the two nodes immediately over the branching node of the pair
    (j, j+1), summing their labels: the split level rises by one.  The
    result may fail validate_tree."""
    if not 1 <= j <= T.d - 1:
        raise DomainError("no branch pair %d to pinch" % (j,))
    splits = list(T.splits)
    splits[j - 1] += 1
    return MultiplicityTree(T.branches, splits, validate=False)


def _same_branch_collection(T1, T2):
    if T1.branches != T2.branches:
        raise DomainError("the trees have different branch collections")


def tree_leq(T1, T2):
    """Tree order on a common branch collection: T1 <= T2 iff T1 is reachable
    from T2 by pinchings, iff the semigroup of T1 is contained in that of T2,
    iff every split of T1 is at least the corresponding split of T2."""
    _same_branch_collection(T1, T2)
    return all(a >= b for a, b in zip(T1.splits, T2.splits))


def tree_intersection(T1, T2):
    """Tree of the intersection of the two semigroups: splits are the
    pointwise maxima (profiles the pointwise minima)."""
    _same_branch_collection(T1, T2)
    return MultiplicityTree(T1.branches, tuple(max(a, b) for a, b in zip(T1.splits, T2.splits)))


def canonical_form(T):
    """Minimal representative under branch permutation, plus the witnessing
    permutation p (1-based: canonical branch i is original branch p[i-1]).

    Only permutations that keep every glued group an interval are admissible;
    among those, the lexicographically smallest level-major serialization of
    the node vectors wins, with the permutation itself as tie break.  Each
    glued group sorts its children: x goes first iff x_L + y_L < y_L + x_L
    at the first level L where the two differ, else iff its permutation is
    smaller.  Swapping adjacent children out of that order lowers the
    serialization, so the sorted order is the minimum.
    """
    top = T.stable_level

    def form(level, group):
        # rows[L]: the group's entries inside an ancestor's node for L < level,
        # then its node vectors; perm: its branches in canonical order
        if len(group) == 1:
            prefix = T.branches[group[0]].prefix
            rows = [(e,) for e in prefix] + [(1,)] * (top + 1 - len(prefix))
            return ([(row,) if L >= level else row for L, row in enumerate(rows)],
                    tuple(group))
        last = min(T.splits[group[0]:group[-1]])
        children = sorted((form(last + 1, child) for child in T.groups(last + 1)
                           if child[0] in group), key=cmp_to_key(_sibling_order))
        join = itertools.chain.from_iterable
        rows = [tuple(join(parts)) for parts in zip(*(sub for sub, _ in children))]
        return ([(row,) if level <= L <= last else row for L, row in enumerate(rows)],
                tuple(join(perm for _, perm in children)))

    _, perm = form(0, range(T.d))
    splits = [T.pair_split(perm[i], perm[i + 1]) for i in range(T.d - 1)]
    tree = MultiplicityTree([T.branches[p] for p in perm], splits, validate=False)
    return tree, tuple(p + 1 for p in perm)


def _sibling_order(x, y):
    pairs = list(zip(x[0], y[0]))
    return -1 if ([a + b for a, b in pairs], x[1]) < ([b + a for a, b in pairs], y[1]) else 1


def noether_sum(T, j, h):
    """Sum of e_i^j * e_i^h over the glued levels i of branches j != h (1-based)."""
    for index in (j, h):
        if not 1 <= index <= T.d:
            raise DomainError("branch index %d out of range 1..%d" % (index, T.d))
    if j == h:
        raise DomainError("the two branch indices must differ")
    s = T.pair_split(j - 1, h - 1)
    return sum(T.branches[j - 1].entry(i) * T.branches[h - 1].entry(i)
               for i in range(s + 1))


def tree_to_dict(T):
    """Node-list form: one node per glued group, level-major, parent indices."""
    nodes = []
    previous = {}
    for level in range(T.stable_level + 1):
        current = {}
        for g in T.groups(level):
            index = len(nodes)
            parent = previous.get(g[0]) if level else None
            nodes.append({"level": level,
                          "vector": list(T.node_vector(level, g)),
                          "parent": parent})
            for h in g:
                current[h] = index
        previous = current
    return {"d": T.d, "stable_level": T.stable_level, "nodes": nodes}


def tree_from_dict(data):
    """Parse the node-list form, checking the structural tree conditions and
    condition c."""
    literal_fields(data, ("d", "nodes"), "tree")
    d = literal_int(data["d"], "d", 1)
    by_level = {}
    parsed = []
    for position, node in enumerate(literal_list(data["nodes"], "nodes")):
        if not isinstance(node, dict):
            raise InputError("node %d must be an object, got %s" % (position, echo(node)))
        literal_fields(node, ("level", "vector", "parent"), "node %d" % position)
        level = literal_int(node["level"], "the level of node %d" % position)
        vector = literal_ints(node["vector"], "the vector of node %d" % position)
        parent = node["parent"]
        if parent is not None:
            parent = literal_int(parent, "the parent of node %d" % position)
        if len(vector) != d:
            raise ValidationError("node %d has a vector of dimension %d, expected %d"
                                  % (position, len(vector), d))
        if level < 0 or any(x < 0 for x in vector):
            raise ValidationError("node %d has negative entries" % position)
        support = [h for h, x in enumerate(vector) if x > 0]
        if not support:
            raise ValidationError("node %d has an empty branch set" % position)
        if support != list(range(support[0], support[-1] + 1)):
            raise ValidationError("node %d is glued over non-consecutive branches"
                                  % position)
        parsed.append((level, vector, parent, support))
        by_level.setdefault(level, []).append(position)
    levels = sorted(by_level)
    if not levels:
        raise ValidationError("node list is empty; the root must cover every branch")
    if levels != list(range(len(levels))):
        raise ValidationError("node levels must cover 0..max contiguously")
    top = levels[-1]
    for level in levels:
        covered = []
        for position in by_level[level]:
            covered.extend(parsed[position][3])
        if sorted(covered) != list(range(d)):
            raise ValidationError("level %d nodes do not cover every branch exactly once"
                                  % level)
    if len(by_level[0]) != 1:
        raise ValidationError("the root must cover every branch (local trees only)")
    for position, (level, vector, parent, support) in enumerate(parsed):
        if level == 0:
            if parent is not None:
                raise ValidationError("the root cannot have a parent")
            continue
        if parent is None or not 0 <= parent < len(parsed):
            raise ValidationError("node %d has an invalid parent index" % position)
        plevel, _, _, psupport = parsed[parent]
        if plevel != level - 1 or not set(support) <= set(psupport):
            raise ValidationError("node %d is not attached to a covering node "
                                  "one level down" % position)
    for position in by_level[top]:
        _, vector, _, support = parsed[position]
        if len(support) > 1 or vector[support[0]] != 1:
            raise ValidationError("node list must extend through the stable level; "
                                  "the top row must consist of unit vectors")
    prefixes = [[parsed[position][1][h]
                 for level in levels for position in by_level[level]
                 if h in parsed[position][3]]
                for h in range(d)]
    splits = []
    for j in range(d - 1):
        glued = [level for level in levels
                 for position in by_level[level]
                 if {j, j + 1} <= set(parsed[position][3])]
        if sorted(glued) != list(range(len(glued))):
            raise ValidationError("branches %d and %d are glued on non-contiguous "
                                  "levels" % (j + 1, j + 2))
        splits.append(max(glued))
    return MultiplicityTree(prefixes, splits)


def render_ascii(T):
    """Levels top-down with the root on the last line, one node per group."""
    lines = []
    for level in range(T.stable_level, -1, -1):
        row = "  ".join("(" + ",".join(str(x) for x in T.node_vector(level, g)) + ")"
                        for g in T.groups(level))
        lines.append("level %d: %s" % (level, row))
    width = max(len(line) for line in lines)
    return "\n".join(line.center(width).rstrip() for line in lines)


def render_dot(T):
    """Graphviz form; rankdir BT places the root at the bottom."""
    data = tree_to_dict(T)
    lines = ["digraph multiplicity_tree {", "  rankdir=BT;",
             "  node [shape=plaintext];"]
    for index, node in enumerate(data["nodes"]):
        label = "(" + ",".join(str(x) for x in node["vector"]) + ")"
        lines.append('  n%d [label="%s"];' % (index, label))
    for index, node in enumerate(data["nodes"]):
        if node["parent"] is not None:
            lines.append("  n%d -> n%d;" % (index, node["parent"]))
    lines.append("}")
    return "\n".join(lines)
