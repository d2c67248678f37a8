"""Planted-error test of the benchmark's own output checks.

Runs one round of every workload (seed 1, command-line operations in
process), requires every check to pass on the real outputs, except the
known command-line faults, and then feeds every kind of check wrong
answers -- a missing member, a split off by one, a wrong Noether sum,
non-canonical JSON, exit 1 where 2 is expected, and others -- and requires
each to be rejected, so that no check passes vacuously.

Run from the root of a source checkout:

    python3 -m pytest -q arfbench/test_checks.py
"""

import copy
import itertools
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from arfbench import execute, oracles, workloads  # noqa: E402


def runners():
    return execute.Runners(os.path.join(ROOT, "src"), in_process=True)


def one_round(workload):
    ops = workloads.build(workload, 1)
    run = runners()
    outputs = []
    for op in ops:
        outputs.append(getattr(run, op["kind"])(execute.resolve(op, outputs)))
    return ops, outputs


ROUNDS = {}


def round_of(workload):
    if workload not in ROUNDS:
        ROUNDS[workload] = one_round(workload)
    return ROUNDS[workload]


KNOWN = {tuple(argv) for argv in workloads.KNOWN_FAULTS}


def is_known_fault(op):
    return op["kind"] == "cli" and tuple(op["args"]["argv"]) in KNOWN


def bump_split(tree):
    wrong = copy.deepcopy(tree)
    wrong["splits"][0] += 1
    return wrong


def drop_member(seq):
    """The list without its last nonzero entry."""
    victim = [v for v in seq if (any(v) if isinstance(v, list) else v)][-1]
    return [v for v in seq if v != victim]


def wrong_semigroup(out):
    """A missing member, or a conductor one too high when 0 is the only one."""
    if any(any(v) if isinstance(v, list) else v for v in out["small_elements"]):
        return "missing member", dict(out, small_elements=drop_member(out["small_elements"]))
    conductor = out["conductor"]
    bumped = [c + 1 for c in conductor] if isinstance(conductor, list) else conductor + 1
    return "conductor off by one", dict(out, conductor=bumped)


def plant(op, out):
    """Wrong answers for the operation: (label, output) pairs."""
    kind = op["kind"]
    if kind == "branch_sequence":
        return [("wrong multiplicity", [out[0] + 1] + out[1:])]
    if kind == "curve_tree":
        wrong = [("split off by one", bump_split(out))] if out["splits"] else []
        entries = copy.deepcopy(out)
        entries["branches"][-1] = [entries["branches"][-1][0] + 1] + entries["branches"][-1][1:]
        return wrong + [("wrong branch entry", entries)]
    if kind == "curves_equivalent":
        return [("negated", not out)]
    if kind == "value_set":
        return [("missing member", drop_member(out))]
    if kind in ("arf_closure", "from_generators", "tree_to_semigroup", "chars_closure"):
        return [wrong_semigroup(out)]
    if kind == "arf_characters":
        return [("missing character", out[:-1]), ("extra character", out + [out[-1] + 1])]
    if kind == "semigroup_to_tree":
        return [("split off by one", bump_split(out))]
    if kind == "canonical_form":
        wrong = copy.deepcopy(out)
        wrong["tree"] = bump_split(out["tree"])
        return [("split off by one", wrong)]
    if kind in ("is_good", "is_arf_good"):
        return [("negated", not out)]
    if kind == "kernel_min_sum":
        return [("spurious violation", [0, -1])]
    if kind == "chars_reduce":
        return [("vector outside the built set", out + [[10 ** 6] * len(out[0])])]
    if kind == "chars_build":
        return [("all vectors but one dropped", out[:1])]
    if kind == "tree_intersection":
        return [("split off by one", bump_split(out))]
    if kind == "cli":
        return plant_cli(op, out)
    raise AssertionError("no planted error for %s" % kind)


def plant_cli(op, out):
    wrong = []
    if op["check"]["code"] != 0:
        wrong.append(("exit 1 where %d is expected" % op["check"]["code"],
                      dict(out, code=1 if op["check"]["code"] != 1 else 2)))
        wrong.append(("traceback", dict(out, stderr="Traceback (most recent call last):\n")))
        return wrong
    wrong.append(("exit 1", dict(out, code=1)))
    if "render" in op["check"]:
        lines = out["stdout"].split("\n")
        wrong.append(("render missing a line", dict(out, stdout="\n".join(lines[1:]))))
        return wrong
    data = json.loads(out["stdout"])
    wrong.append(("non-canonical JSON", dict(out, stdout=json.dumps(data) + "\n")))
    wrong.append(("no trailing newline", dict(out, stdout=out["stdout"].rstrip("\n"))))
    content = plant_content(data)
    if content is not None:
        text = json.dumps(content, sort_keys=True, separators=(",", ":")) + "\n"
        wrong.append(("wrong content", dict(out, stdout=text)))
    return wrong


def plant_content(data):
    """The parsed answer with one member, vector, entry or verdict wrong."""
    data = copy.deepcopy(data)
    if "small_elements" in data:
        return wrong_semigroup(data)[1]
    if "vectors" in data:
        data["vectors"] = data["vectors"][:1]
        return data
    for key in ("values", "characters"):
        if key in data:
            data[key] = drop_member(data[key])
            return data
    if "prefix" in data:
        data["prefix"] = [data["prefix"][0] + 1] + data["prefix"][1:]
        return data
    if "nodes" in data:
        data["nodes"][-1]["vector"] = [x * 2 for x in data["nodes"][-1]["vector"]]
        return data
    for key in ("is_good", "equivalent"):
        if key in data:
            data[key] = not data[key]
            return data
    return None


def rejected(ops, outputs, i, wrong):
    """Whether the round rejects output i replaced by `wrong`: operations
    that take it as input are run again on it, and the checks of every
    operation it reaches, or that compares against one of those, run."""
    run = runners()
    trial = list(outputs)
    trial[i] = wrong
    reached = {i}
    for j in range(i + 1, len(ops)):
        if any(isinstance(v, dict) and v.get("$out") in reached for v in ops[j]["args"].values()):
            try:
                trial[j] = getattr(run, ops[j]["kind"])(execute.resolve(ops[j], trial))
            except Exception:  # the wrong input makes a later operation fail
                return True
            reached.add(j)

    def compares(op):
        refs = [op["check"].get(k) for k in ("same_as", "equals", "subset_of")]
        refs += op["check"].get("intersection_of", [])
        return any(r in reached for r in refs if r is not None)

    return any(execute.check(op, trial[j], trial) is not None
               for j, op in enumerate(ops) if j in reached or compares(op))


def signature(op):
    return (op["kind"], tuple(sorted(k for k in op["check"] if k not in ("code",))),
            op["check"].get("code"))


WORKLOADS = ("cli", "curve-trees", "curve-values", "combinatorics")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_real_outputs_pass(workload):
    ops, outputs = round_of(workload)
    failures = []
    for i, op in enumerate(ops):
        reason = execute.check(op, outputs[i], outputs)
        if (reason is None) == is_known_fault(op):
            failures.append((i, op["kind"], reason))
    assert not failures


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_errors_are_rejected(workload):
    ops, outputs = round_of(workload)
    seen = set()
    planted = 0
    for i, op in enumerate(ops):
        if is_known_fault(op) or signature(op) in seen:
            continue
        seen.add(signature(op))
        for label, wrong in plant(op, outputs[i]):
            assert rejected(ops, outputs, i, wrong), (workload, i, op["kind"], label)
            planted += 1
    assert planted >= len(seen)


def test_tree_semigroups_at_every_d_are_checked_by_node_sums():
    # the node-sum oracle alone, on the d = 4..6 trees that the round-level
    # planted errors (first operation of each kind, a d = 2 tree) miss
    ops, outputs = round_of("combinatorics")
    large = [i for i, op in enumerate(ops) if op["kind"] == "tree_to_semigroup"
             and "tree" in op["check"] and len(op["check"]["tree"]["branches"]) >= 4]
    assert {outputs[i]["d"] for i in large} == {4, 5, 6}
    for i in large:
        out = outputs[i]
        tree = ops[i]["check"]["tree"]
        small = set(map(tuple, out["small_elements"]))
        extra = next(v for v in itertools.product(*(range(c + 1) for c in out["conductor"]))
                     if v not in small)
        for wrong in (wrong_semigroup(out)[1],
                      dict(out, small_elements=out["small_elements"] + [list(extra)])):
            assert oracles.check_tree_semigroup(tree["branches"], tree["splits"], wrong)


def test_noether_sum_check_rejects_a_wrong_sum():
    # (t^2, t^3) against (u^3, u^2): intersection multiplicity 4 = 2*2
    plane = [[[[2, "1"]], [[3, "1"]]], [[[3, "1"]], [[2, "1"]]]]
    assert oracles.intersection_multiplicity({2: 1}, {3: 1}, 1, 3, 1, 2) == 4
    assert execute.check_contacts(plane, {"branches": [[2], [2]], "splits": [0]}) is None
    assert execute.check_contacts(plane, {"branches": [[2], [2]], "splits": [1]}) is not None
    assert execute.check_contacts(plane, {"branches": [[3], [2]], "splits": [0]}) is not None


def test_cli_contract_checks():
    assert oracles.canonical_json('{"a":1,"b":[1,2]}\n') == {"a": 1, "b": [1, 2]}
    assert oracles.canonical_json('{"b":1,"a":2}\n') is None
    assert oracles.canonical_json('{"a": 1}\n') is None
    assert oracles.check_exit(2, 1, "") is not None
    assert oracles.check_exit(2, 2, "Traceback (most recent call last):") is not None
    assert oracles.check_exit(2, 2, "error: bad literal") is None


def test_value_set_check_rejects_a_missing_member():
    bound = [12]
    values = [[v] for v in oracles.sieve([3, 5], 12)]
    assert oracles.check_values(values, bound, [[3], [5]], [3, 5]) is None
    assert oracles.check_values(values[:-1], bound, [[3], [5]], [3, 5]) is not None
    # (2,3) and (3,2) are values, so their min (2,2) must be one too
    assert oracles.check_values([[0, 0], [2, 3], [3, 2], [4, 6], [6, 4]], [6, 6],
                                [[2, 3], [3, 2]]) is not None
