"""Fuzz of the CLI contract: whatever the arguments, `main` returns 0, 1 or
2, never lets an exception out (a traceback in a real run), and on exit 0
prints canonical JSON (or a tree drawing when one is asked for).

Literals are drawn near their real shape, with any field swapped for
arbitrary JSON now and then; sizes stay small (d <= 3, at most three
generators, truncation and conductors <= 64) so that an example runs in
well under a second.  A second test passes the path of a file holding
arbitrary bytes, or such a literal with arbitrary bytes spliced in.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from arfcurves.cli import dumps, main
from arfcurves.errors import DomainError
from arfcurves.good_semigroup import good_to_dict
from arfcurves.mult_tree import (MultiplicityTree, tree_from_dict, tree_to_dict,
                                 tree_to_semigroup)

JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 70) | st.floats(-3, 70)
    | st.text("tuv^*+-/0123 ", max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["d", "nodes", "level", "x"]), inner, max_size=3),
    max_leaves=6)


def field(strategy):
    """Mostly the well-typed field, one time in eight arbitrary JSON."""
    return st.integers(0, 7).flatmap(lambda i: JUNK if i == 0 else strategy)


SMALL = st.integers(0, 12)
D = st.integers(1, 3)


@st.composite
def vectors(draw, d, entries=SMALL, max_size=5):
    length = draw(st.sampled_from([d, d, d, d + 1, max(d - 1, 0)]))
    return draw(st.lists(st.lists(entries, min_size=length, max_size=length),
                         max_size=max_size))


@st.composite
def numerical(draw):
    if draw(st.booleans()):
        return {"generators": draw(field(st.lists(st.integers(0, 64), min_size=1,
                                                  max_size=3)))}
    conductor = draw(st.integers(0, 64))
    small = sorted(draw(st.sets(st.integers(1, conductor), max_size=6)) | {0}) \
        if conductor else [0]
    return {"conductor": draw(field(st.just(conductor))),
            "small_elements": draw(field(st.just(small)))}


# multiplicity sequences, without their trailing ones
SEQUENCES = [[], [2], [2, 2], [3], [3, 2], [3, 3], [4, 2, 2], [4, 3], [5, 3, 2], [6, 4, 2, 2]]


@st.composite
def valid_tree(draw):
    """A tree literal from a few sequences and splits, or None when those
    break a tree condition."""
    d = draw(D)
    branches = [draw(st.sampled_from(SEQUENCES)) + [1] for _ in range(d)]
    splits = draw(st.lists(st.integers(0, 4), min_size=d - 1, max_size=d - 1))
    try:
        return tree_to_dict(MultiplicityTree(branches, splits))
    except DomainError:
        return None


@st.composite
def good(draw):
    literal = draw(valid_tree())
    if literal is not None and draw(st.booleans()):
        return good_to_dict(tree_to_semigroup(tree_from_dict(literal)))
    d = draw(D)
    conductor = draw(st.lists(st.integers(0, 8), min_size=d, max_size=d))
    small = draw(vectors(d, st.integers(0, 8)))
    if draw(st.booleans()):
        small = [[0] * d] + small + [conductor]
    return {"d": draw(field(st.just(d))), "conductor": draw(field(st.just(conductor))),
            "small_elements": draw(field(st.just(small)))}


@st.composite
def tree(draw):
    literal = draw(valid_tree())
    if literal is not None and draw(st.booleans()):
        return literal
    d = draw(D)
    nodes = []
    for index in range(draw(st.integers(0, 5))):
        nodes.append(draw(field(st.fixed_dictionaries({
            "level": field(st.integers(0, 3)),
            "vector": field(st.lists(st.integers(0, 4), min_size=d, max_size=d)),
            "parent": field(st.none() | st.integers(-1, index)),
        }))))
    return {"d": draw(field(st.just(d))), "nodes": draw(field(st.just(nodes)))}


@st.composite
def charset(draw):
    d = draw(D)
    return {"d": draw(field(st.just(d))), "vectors": draw(field(vectors(d, max_size=3)))}


@st.composite
def series_text(draw, variable):
    """Mostly a leading term t^a, a in 1..8, and up to two higher terms."""
    exponents = sorted(draw(st.sets(st.integers(1, 24), min_size=1, max_size=3)))
    if exponents[0] > 8 or draw(st.integers(0, 9)) == 0:
        exponents[0] = draw(st.integers(0, 70))
    terms = [variable + "^%d" % exponents[0]] + [
        "%s%s^%d" % (draw(st.sampled_from(["", "2", "-1", "3/2*", "-1/3*"])), variable, e)
        for e in exponents[1:]]
    text = "+".join(terms).replace("+-", "-")
    return draw(st.integers(0, 9).flatmap(
        lambda i: st.just(text) if i > 1 else st.just("0") if i == 1
        else st.text("tuvx^*+-/0123 ", max_size=6)))


@st.composite
def curve(draw):
    d = draw(D)
    variables = ["t", "u", "v"][:d]
    generators = [[draw(series_text(variables[j])) for j in range(d)]
                  for _ in range(draw(st.integers(1, 3)))]
    literal = {"d": draw(field(st.just(d))), "generators": draw(field(st.just(generators))),
               "truncation": draw(field(st.integers(24, 64) | st.integers(1, 64)))}
    if draw(st.booleans()):
        literal["variables"] = draw(field(st.just(variables)))
    return literal


def literal(strategy):
    return strategy.map(dumps)


def options(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


TRUNCATION = options("--truncation", st.integers(-1, 64).map(str))
BOUND = st.lists(st.integers(-1, 8), min_size=1, max_size=4)

COMMANDS = [[c] for c in ("closure", "seq", "characters", "unseq", "check", "tree", "chars",
                           "curve")]

ARGV = st.one_of(
    st.lists(st.one_of(st.integers(-2, 64).map(str), st.sampled_from(["x", "2.5"])),
             max_size=3).map(lambda gens: ["closure"] + gens),
    st.tuples(st.sampled_from(["seq", "characters"]), literal(numerical())).map(list),
    literal(st.fixed_dictionaries({"prefix": field(st.lists(st.integers(0, 8), max_size=6))})
            ).map(lambda text: ["unseq", text]),
    literal(good()).map(lambda text: ["check", text]),
    literal(good()).map(lambda text: ["tree", "from-semigroup", text]),
    literal(tree()).map(lambda text: ["tree", "to-semigroup", text]),
    st.tuples(literal(tree()), literal(tree())).map(lambda p: ["tree", "intersect", *p]),
    st.tuples(literal(tree()), options("--format", st.sampled_from(["json", "ascii", "dot", "x"]))
              ).map(lambda p: ["tree", "render", p[0]] + p[1]),
    st.tuples(literal(good()), options("--witness-node", st.sampled_from(["0:1", "1:2", "2:0", "x"]))
              ).map(lambda p: ["chars", "build", p[0]] + p[1]),
    st.tuples(literal(charset()), literal(good())).map(lambda p: ["chars", "reduce", *p]),
    literal(charset()).map(lambda text: ["chars", "closure", text]),
    st.tuples(st.sampled_from(["tree", "semigroup"]), literal(curve()), TRUNCATION
              ).map(lambda p: ["curve", p[0], p[1]] + p[2]),
    st.tuples(literal(curve()), BOUND, TRUNCATION).map(
        lambda p: ["curve", "values", p[0], "--bound", ",".join(map(str, p[1]))] + p[2]),
    st.tuples(literal(curve()), literal(curve()), TRUNCATION
              ).map(lambda p: ["curve", "equiv", p[0], p[1]] + p[2]),
    st.lists(JUNK.map(json.dumps), max_size=3),
)


# subcommands that read one literal, from a path when it is not inline
PATH_COMMANDS = [["seq"], ["characters"], ["unseq"], ["check"], ["tree", "from-semigroup"],
                 ["tree", "to-semigroup"], ["tree", "render"], ["chars", "build"],
                 ["chars", "closure"], ["curve", "tree"], ["curve", "semigroup"]]

# file contents: arbitrary bytes, or a literal with arbitrary bytes spliced in
FILE_BYTES = st.one_of(
    st.binary(max_size=40),
    st.tuples(st.one_of(literal(numerical()), literal(good()), literal(tree()), literal(curve())),
              st.integers(0, 200), st.binary(max_size=4)).map(
        lambda p: p[0].encode()[:p[1]] + p[2] + p[0].encode()[p[1]:]))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ARGV)
def test_cli_keeps_its_contract(argv):
    assert_contract(argv)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(PATH_COMMANDS), FILE_BYTES)
def test_cli_keeps_its_contract_on_file_bytes(command, data):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "input")
        with open(path, "wb") as handle:
            handle.write(data)
        assert_contract(command + [path])


def assert_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    words = argv[:2] if argv[:1] in (["tree"], ["chars"], ["curve"]) else argv[:1]
    event("%s exit %s" % (" ".join(words) if argv[:1] in COMMANDS else "junk", code))
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0 and not (argv[:2] == ["tree", "render"] and "json" not in argv):
        text = out.getvalue()
        assert text.endswith("\n")
        assert dumps(json.loads(text)) == text[:-1]
    elif code != 0:
        assert out.getvalue() == "" and err.getvalue()
