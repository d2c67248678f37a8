"""Operations of the workloads: what each one calls, and how its output is
checked.

A runner takes the resolved arguments of one operation, calls the package,
and returns its answer as plain data.  A check takes the operation, its
output and the outputs of the whole round, and returns None or a reason.
Runners look the package functions up on their modules at call time, so
the wrappers that a traced run installs see every call.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

from . import oracles
from .workloads import full_box

CLI_TIMEOUT_S = 120


def _modules():
    from arfcurves import (branch_ring, char_vectors, cli, good_semigroup, kernels,
                           mult_tree, numerical)
    return branch_ring, char_vectors, cli, good_semigroup, kernels, mult_tree, numerical


def _tree_plain(T):
    return {"branches": [list(s.prefix) for s in T.branches], "splits": list(T.splits)}


def _good_plain(S):
    return {"d": S.d, "conductor": list(S.conductor),
            "small_elements": [list(v) for v in S.small_elements]}


class _MeteredPopen(subprocess.Popen):
    """A Popen that reaps its child with wait4 and keeps the child's own
    peak resident set (KiB), apart from any other child of this process."""

    maxrss_kb = 0

    def _try_wait(self, wait_flags):
        try:
            pid, sts, usage = os.wait4(self.pid, wait_flags)
        except ChildProcessError:  # as Popen does: the status is lost
            return self.pid, 0
        if pid == self.pid:
            self.maxrss_kb = usage.ru_maxrss
        return pid, sts


class Runners:
    """One method per operation kind; `src` is the package source directory
    for the command-line invocations, `in_process` runs them through
    arfcurves.cli.main instead of a fresh interpreter.  `cli_maxrss_kb` is
    the largest peak resident set of the invocations so far."""

    def __init__(self, src, in_process=False):
        self.src = src
        self.in_process = in_process
        self.cli_maxrss_kb = 0
        (self.br, self.cv, self.cli_module, self.gs, self.kernels,
         self.mt, self.num) = _modules()

    def _tree(self, t):
        return self.mt.MultiplicityTree(t["branches"], t["splits"])

    def _good(self, s):
        return self.gs.GoodSemigroup(s["d"], s["conductor"], s["small_elements"], validate=False)

    # curves
    def branch_sequence(self, a):
        algebra = self.br.curve_from_dict(a["curve"])
        return list(self.br.branch_multiplicity_sequence(algebra).prefix)

    def curve_tree(self, a):
        return _tree_plain(self.br.multiplicity_tree_of_curve(self.br.curve_from_dict(a["curve"])))

    def curves_equivalent(self, a):
        return self.br.curves_equivalent(self.br.curve_from_dict(a["first"]),
                                         self.br.curve_from_dict(a["second"]))

    def value_set(self, a):
        values = self.br.value_set(self.br.curve_from_dict(a["curve"]), tuple(a["bound"]))
        return [list(v) for v in sorted(values)]

    # numerical semigroups
    def arf_closure(self, a):
        return self.num.semigroup_to_dict(self.num.arf_closure(a["generators"]))

    def from_generators(self, a):
        return self.num.semigroup_to_dict(
            self.num.NumericalSemigroup.from_generators(a["generators"]))

    def arf_characters(self, a):
        S = self.num.arf_closure(a["generators"])
        return sorted(self.num.arf_characters(S))

    # good semigroups and trees
    def tree_to_semigroup(self, a):
        return _good_plain(self.mt.tree_to_semigroup(self._tree(a["tree"])))

    def semigroup_to_tree(self, a):
        return _tree_plain(self.mt.semigroup_to_tree(self._good(a["semigroup"])))

    def canonical_form(self, a):
        tree, perm = self.mt.canonical_form(self._tree(a["tree"]))
        return {"tree": _tree_plain(tree), "perm": list(perm)}

    def tree_intersection(self, a):
        return _tree_plain(self.mt.tree_intersection(self._tree(a["first"]),
                                                     self._tree(a["second"])))

    def is_good(self, a):
        s = a["semigroup"]
        return self.gs.is_good(s["d"], s["conductor"], s["small_elements"])[0]

    def is_arf_good(self, a):
        return self.gs.is_arf_good(self._good(a["semigroup"]))

    def kernel_min_sum(self, a):
        import numpy as np
        delta = tuple(a["delta"])
        small = np.array(full_box(delta), dtype=np.int64)
        dims = tuple(c + 1 for c in delta)
        grid = np.ones(dims, dtype=bool).reshape(-1)
        strides = self.kernels.flat_strides(dims)
        return [int(self.kernels.first_min_violation(small, grid, strides)),
                int(self.kernels.first_sum_violation(small, grid, strides,
                                                     np.array(delta, dtype=np.int64)))]

    def chars_build(self, a):
        V = self.cv.build_character_vectors(self._good(a["semigroup"]))
        return [list(v) for v in V.vectors]

    def chars_reduce(self, a):
        s = a["semigroup"]
        V = self.cv.CharacterVectorSet(s["d"], a["charset"])
        return [list(v) for v in self.cv.reduce_characters(V, self._good(s)).vectors]

    def chars_closure(self, a):
        d = len(a["charset"][0])
        return _good_plain(self.cv.smallest_arf_containing(
            self.cv.CharacterVectorSet(d, a["charset"])))

    # command line
    def cli(self, a):
        if self.in_process:
            return self._cli_in_process(a["argv"], a["stdin"])
        env = dict(os.environ, PYTHONPATH=self.src)
        with _MeteredPopen([sys.executable, "-m", "arfcurves.cli"] + a["argv"],
                           stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, env=env) as proc:
            try:
                stdout, stderr = proc.communicate(a["stdin"] or "", timeout=CLI_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        self.cli_maxrss_kb = max(self.cli_maxrss_kb, proc.maxrss_kb)
        return {"code": proc.returncode, "stdout": stdout, "stderr": stderr}

    def _cli_in_process(self, argv, stdin):
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin or "")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.cli_module.main(argv)
                except Exception as exc:  # a fresh interpreter would print a traceback
                    print("Traceback (most recent call last):\n%s: %s"
                          % (type(exc).__name__, exc), file=sys.stderr)
                    code = 1
        finally:
            sys.stdin = saved
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def resolve(op, outputs):
    """Arguments with {"$out": i} replaced by output i; the is_good
    candidates get their member removed or added here, outside the timing."""
    args = {}
    for key, value in op["args"].items():
        if isinstance(value, dict) and "$out" in value:
            value = outputs[value["$out"]]
            if value is None:
                return None
        args[key] = value
    if "mutate" in args:
        args["semigroup"] = mutate(args["semigroup"], *args["mutate"])
    return args


def mutate(s, how, pick):
    """The semigroup literal with one member removed (neither 0 nor the
    conductor) or one vector of the box added."""
    small = [tuple(v) for v in s["small_elements"]]
    delta = tuple(s["conductor"])
    if how == "remove":
        pool = [v for v in small if any(v) and v != delta]
        if pool:
            victim = pool[pick % len(pool)]
            small = [v for v in small if v != victim]
    else:
        members = set(small)
        pool = [tuple(v) for v in full_box(delta) if tuple(v) not in members]
        if pool:
            small = small + [pool[pick % len(pool)]]
    return {"d": s["d"], "conductor": list(delta), "small_elements": [list(v) for v in small]}


# ---------------------------------------------------------------------------
# Checks


def _fractions(comp):
    return {e: Fraction(c) for e, c in comp}


def _monomial_branches(gens):
    """Exponent lists of the branches whose components are all monomials."""
    d = len(gens[0])
    out = []
    for j in range(d):
        comps = [g[j] for g in gens]
        if all(len(c) == 1 for c in comps):
            out.append(sorted(c[0][0] for c in comps))
    return out


def check_tree_of_curve(gens, tree):
    """Branch sequences of monomial branches follow the subtract-the-minimum
    recursion; every branch starts with its least generator order."""
    branches = [list(b) for b in tree["branches"]]
    firsts = sorted((b[0] if b else 1) for b in branches)
    expected = sorted(min(g[j][0][0] for g in gens) for j in range(len(gens[0])))
    if firsts != expected:
        return "branch multiplicities %r, expected %r" % (firsts, expected)
    remaining = list(branches)
    for exps in _monomial_branches(gens):
        seq = oracles.subtract_min_sequence(exps)
        if seq not in remaining:
            return "no branch has the sequence %r of the monomial branch %r" % (seq, exps)
        remaining.remove(seq)
    return None


def check_contacts(plane, tree):
    """Noether's formula: the pairwise sums of e_i^j e_i^h over shared
    levels equal the intersection multiplicities of the branches, as
    multisets (the tree may list branches in another order).  `plane`
    gives each branch's (x, y) components; of every pair one is monomial."""
    expected = []
    for j in range(len(plane)):
        for h in range(j + 1, len(plane)):
            (xm, ym), (x1, y1) = sorted((plane[j], plane[h]), key=lambda b: len(b[0]) + len(b[1]))
            (c, a), (e, b) = xm[0], ym[0]
            expected.append(oracles.intersection_multiplicity(
                _fractions(x1), _fractions(y1), Fraction(a), c, Fraction(b), e))
    branches, splits = tree["branches"], tree["splits"]
    entry = lambda b, i: b[i] if i < len(b) else 1
    got = [sum(entry(branches[j], i) * entry(branches[h], i)
               for i in range(min(splits[j:h]) + 1))
           for j in range(len(branches)) for h in range(j + 1, len(branches))]
    if sorted(got) != sorted(expected):
        return "Noether sums %r, intersection multiplicities %r" % (sorted(got), sorted(expected))
    return None


def check(op, output, outputs):
    kind, c, a = op["kind"], op["check"], op["args"]
    if "same_as" in c:
        other = outputs[c["same_as"]]
        mine = output["tree"] if kind == "canonical_form" else output
        theirs = other["tree"] if kind == "canonical_form" else other
        if mine != theirs:
            return "differs from operation %d: %r vs %r" % (c["same_as"], mine, theirs)
    if kind == "branch_sequence":
        expected = oracles.subtract_min_sequence(c["exponents"])
        if output != expected:
            return "sequence %r, expected %r" % (output, expected)
    elif kind == "curve_tree":
        reason = check_tree_of_curve(c["gens"], output)
        if reason is None and "plane" in c:
            reason = check_contacts(c["plane"], output)
        return reason
    elif kind == "curves_equivalent":
        if output is not c["expected"]:
            return "equivalence %r, expected %r" % (output, c["expected"])
    elif kind == "value_set":
        return oracles.check_values(output, a["bound"], c["generator_values"],
                                    c.get("exponents"))
    elif kind == "arf_closure":
        return oracles.check_closure(a["generators"], output)
    elif kind == "from_generators":
        return oracles.check_numerical(a["generators"], output)
    elif kind == "arf_characters":
        conductor, small = oracles.arf_closure_fixpoint(a["generators"])
        return oracles.check_characters({"conductor": conductor, "small_elements": small},
                                        output)
    elif kind == "tree_to_semigroup":
        return check_tree_semigroup_op(c, output, outputs)
    elif kind == "semigroup_to_tree":
        if output != c["tree"]:
            return "round trip gave %r, expected %r" % (output, c["tree"])
    elif kind in ("is_good", "is_arf_good"):
        return check_verdict(kind, c, resolve(op, outputs)["semigroup"], output)
    elif kind == "kernel_min_sum":
        # a full box holds every min and every capped sum of its members
        if output != [-1, -1]:
            return "full box %r reported violations %r" % (a["delta"], output)
    elif kind == "chars_closure":
        if output != outputs[c["equals"]]:
            return "closure of the character vectors is %r, not the semigroup" % (output,)
    elif kind == "chars_reduce":
        if not set(map(tuple, output)) <= set(map(tuple, outputs[c["subset_of"]])):
            return "reduced set %r is not a subset of the built set" % (output,)
    elif kind == "cli":
        return check_cli(op, output)
    return None


def check_tree_semigroup_op(c, output, outputs):
    if "intersection_of" in c:
        first, second = (outputs[i] for i in c["intersection_of"])
        return check_intersection(first, second, output)
    tree = c["tree"]
    return (oracles.check_tree_semigroup(tree["branches"], tree["splits"], output)
            or oracles.check_good_and_arf(output))


def check_intersection(first, second, output, max_volume=100000):
    """The semigroup of the intersection tree is the intersection of the two
    semigroups: compared on every point of the box spanned by the three
    conductors when it is small enough, else on the members of all three."""
    import itertools
    import math

    sets = [set(map(tuple, s["small_elements"])) for s in (first, second, output)]
    deltas = [tuple(s["conductor"]) for s in (first, second, output)]

    def member(k, v):
        return tuple(min(x, c) for x, c in zip(v, deltas[k])) in sets[k]

    box = [max(x) for x in zip(*deltas)]
    if math.prod(b + 1 for b in box) <= max_volume:
        points = itertools.product(*(range(b + 1) for b in box))
    else:
        points = sets[0] | sets[1] | sets[2]
    for v in points:
        if member(2, v) != (member(0, v) and member(1, v)):
            return "intersection semigroup disagrees at %r" % (list(v),)
    return None


def check_verdict(kind, c, semigroup, output):
    if c.get("brute"):
        d, delta, small = semigroup["d"], semigroup["conductor"], semigroup["small_elements"]
        if kind == "is_good":
            expected = oracles.good_brute(d, delta, small)
        else:
            expected = oracles.arf_brute(d, delta, small)
    else:
        expected = c["expected"]
    if output is not expected:
        return "%s verdict %r, expected %r" % (kind, output, expected)
    return None


def check_cli(op, out):
    c = op["check"]
    reason = oracles.check_exit(c["code"], out["code"], out["stderr"])
    if reason is not None or c["code"] != 0:
        if reason is None and out["stdout"]:
            return "output on stdout for a failing invocation"
        return reason
    if "render" in c:
        branches, splits, form = c["render"]
        return check_render(branches, splits, form, out["stdout"])
    data = oracles.canonical_json(out["stdout"])
    if data is None:
        return "stdout is not one line of canonical JSON: %r" % (out["stdout"][:200],)
    return check_cli_content(c, data)


def _tree_from_nodes(data):
    """Branch prefixes and splits of a node-list tree literal."""
    d = data["d"]
    nodes = data["nodes"]
    branches = [[] for _ in range(d)]
    splits = [0] * (d - 1)
    for n in nodes:
        support = [h for h, x in enumerate(n["vector"]) if x]
        for h in support:
            branches[h].append((n["level"], n["vector"][h]))
        for j in range(d - 1):
            if j in support and j + 1 in support:
                splits[j] = max(splits[j], n["level"])
    prefixes = []
    for entries in branches:
        seq = [x for _, x in sorted(entries)]
        while seq and seq[-1] == 1:
            seq.pop()
        prefixes.append(seq)
    return prefixes, splits


def check_cli_content(c, data):
    if "closure" in c:
        return oracles.check_closure(c["closure"], data)
    if "seq" in c:
        conductor, small = oracles.arf_closure_fixpoint(c["seq"])
        members = small + [conductor]
        expected = [b - a for a, b in zip(members, members[1:])]
        while expected and expected[-1] == 1:
            expected.pop()
        if data != {"prefix": expected}:
            return "seq %r, expected %r" % (data, expected)
    elif "characters" in c:
        conductor, small = oracles.arf_closure_fixpoint(c["characters"])
        return oracles.check_characters({"conductor": conductor, "small_elements": small},
                                        data.get("characters", []))
    elif "unseq" in c:
        sums = [sum(c["unseq"][:n]) for n in range(len(c["unseq"]) + 1)]
        expected = {"conductor": sums[-1], "small_elements": sums[:-1]}
        if data != expected:
            return "unseq %r, expected %r" % (data, expected)
    elif "tree_semigroup" in c:
        return oracles.check_tree_semigroup(*c["tree_semigroup"], data)
    elif "tree" in c:
        branches, splits = c["tree"]
        got = _tree_from_nodes(data)
        if got != (branches, splits):
            return "tree %r, expected %r" % (got, (branches, splits))
    elif "check_verdict" in c:
        good, local, arf = c["check_verdict"]
        if (data["is_good"], data["is_local"], data["is_arf"]) != (good, local, arf):
            return "check verdict %r, expected %r" % (data, c["check_verdict"])
    elif "check_brute" in c:
        s = c["check_brute"]
        expected = oracles.good_brute(s["d"], s["conductor"], s["small_elements"])
        if data["is_good"] is not expected:
            return "is_good %r, brute force says %r" % (data["is_good"], expected)
    elif "chars_build" in c:
        return oracles.check_character_vectors(c["chars_build"], data["vectors"])
    elif "semigroup" in c:
        if data != c["semigroup"]:
            return "closure %r, expected %r" % (data, c["semigroup"])
    elif "curve_tree" in c:
        got = _tree_from_nodes(data)
        tree = {"branches": got[0], "splits": got[1]}
        return check_tree_of_curve(c["curve_tree"], tree) or check_contacts(c["plane"], tree)
    elif "curve_semigroup" in c:
        reason = oracles.check_good_and_arf(data)
        if reason is None and not oracles.local_brute(data["d"], data["conductor"],
                                                      data["small_elements"]):
            return "curve semigroup is not local"
        return reason
    elif "values" in c:
        return oracles.check_values(data["values"], c["values"], c["generator_values"],
                                    c["exponents"])
    elif "equivalent" in c:
        if data != {"equivalent": c["equivalent"]}:
            return "equiv %r, expected %r" % (data, c["equivalent"])
    return None


def check_render(branches, splits, form, text):
    """ascii: one line per level, root last; dot: one node line per node and
    one edge per non-root node.  Node count from the tree's group structure."""
    from .workloads import _tree_dict
    nodes = _tree_dict(branches, splits)["nodes"]
    if not text.endswith("\n"):
        return "render output does not end with a newline"
    lines = text[:-1].split("\n")
    if form == "ascii":
        levels = max(n["level"] for n in nodes) + 1
        if len(lines) != levels or not lines[-1].strip().startswith("level 0:"):
            return "ascii render has %d lines, expected %d" % (len(lines), levels)
        count = sum(line.count("(") for line in lines)
    else:
        if lines[0] != "digraph multiplicity_tree {" or lines[-1] != "}":
            return "dot render is not one digraph"
        count = sum(1 for line in lines if "[label=" in line)
        edges = sum(1 for line in lines if "->" in line)
        if edges != len(nodes) - 1:
            return "dot render has %d edges for %d nodes" % (edges, len(nodes))
    if count != len(nodes):
        return "render shows %d nodes, expected %d" % (count, len(nodes))
    return None


def digest(outputs):
    """Outputs as canonical JSON, without stderr text, for comparing runs."""
    plain = [({"code": o["code"], "stdout": o["stdout"]} if isinstance(o, dict) and "stderr" in o
              else o) for o in outputs]
    return json.dumps(plain, sort_keys=True, separators=(",", ":"))
