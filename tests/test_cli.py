import io
import json
import os
import subprocess
import sys
import time
from unittest import mock

import pytest

import arfcurves
from arfcurves import good_semigroup
from arfcurves.branch_ring import _variable_names, curve_from_dict
from arfcurves.char_vectors import charset_from_dict
from arfcurves.cli import main
from arfcurves.errors import InputError, echo, literal_fields
from arfcurves.good_semigroup import good_from_dict
from arfcurves.mult_tree import MultiplicityTree, tree_from_dict, tree_to_dict
from arfcurves.numerical import semigroup_from_dict

EX1 = '{"d":2,"conductor":[8,4],"small_elements":[[0,0],[4,2],[6,4],[8,4]]}'
EX2 = '{"d":2,"conductor":[4,6],"small_elements":[[0,0],[2,3],[3,5],[4,6]]}'
CURVE_U = '{"d":2,"generators":[["t^4","u^2"],["t^9","u^4"],["t^6","u^5"]]}'
CURVE_A = '{"d":2,"generators":[["t^4","u^3"],["t^6+t^7","u^2"]]}'
CURVE_B = '{"d":2,"generators":[["t^4","u^2"],["t^6+t^7","u^3"]]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_closure_goldens(capsys):
    code, out = run(capsys, "closure", "4", "6", "13")
    assert code == 0
    assert out == '{"conductor":12,"small_elements":[0,4,6,8,10]}\n'
    code, out = run(capsys, "closure", "1")
    assert code == 0
    assert out == '{"conductor":0,"small_elements":[0]}\n'


def test_seq_takes_the_closure(capsys):
    code, out = run(capsys, "seq", '{"generators":[4,6,13]}')
    assert code == 0
    assert out == '{"prefix":[4,2,2,2,2]}\n'


def test_unseq_round_trip(capsys):
    _, literal = run(capsys, "closure", "10", "15", "18", "19")
    code, out = run(capsys, "seq", literal.strip())
    assert code == 0
    code, back = run(capsys, "unseq", out.strip())
    assert code == 0
    assert back == literal


def test_characters_golden(capsys):
    code, out = run(capsys, "characters", '{"generators":[6,9,16,17]}')
    assert code == 0
    assert out == '{"characters":[6,9,16]}\n'


def test_check_reports_status(capsys):
    code, out = run(capsys, "check", EX1)
    assert code == 0
    assert json.loads(out) == {"is_good": True, "is_local": True,
                               "is_arf": True, "reason": None}
    # (1,1) and (2,3) with no common minimum member violates closure under min.
    bad = '{"d":2,"conductor":[2,3],"small_elements":[[0,0],[1,1],[2,3]]}'
    code, out = run(capsys, "check", bad)
    assert code == 0
    report = json.loads(out)
    assert report["is_good"] is False
    assert report["is_local"] is None and report["is_arf"] is None
    assert report["reason"]


def test_check_runs_the_axiom_check_once(capsys):
    not_good = '{"d":2,"conductor":[2,3],"small_elements":[[0,0],[1,1],[2,3]]}'
    # good, but the conductor 4 would do as well as 5
    loose = '{"d":1,"conductor":[5],"small_elements":[[0],[4],[5]]}'
    cases = (
        (EX1, 0, '{"is_arf":true,"is_good":true,"is_local":true,"reason":null}\n', ""),
        (not_good, 0, '{"is_arf":null,"is_good":false,"is_local":null,"reason":'
                      '"not closed under addition: [1, 1] + [1, 1] is missing"}\n', ""),
        (loose, 1, "", "error: conductor is not componentwise minimal: "
                       "coordinate 1 can decrease\n"),
    )
    real = good_semigroup._axiom_failure
    for literal, code, out, err in cases:
        with mock.patch.object(good_semigroup, "_axiom_failure", side_effect=real) as axioms:
            assert main(["check", literal]) == code
        assert axioms.call_count == 1
        assert capsys.readouterr() == (out, err)


def test_check_natural_numbers_squared(capsys):
    code, out = run(capsys, "check", '{"d":2,"conductor":[0,0],"small_elements":[[0,0]]}')
    assert code == 0
    assert out == '{"is_arf":true,"is_good":true,"is_local":false,"reason":null}\n'


def test_tree_from_even_numerical_semigroup(capsys):
    # conductor 1600 with the 801 even members: the Arf test must not be cubic
    literal = json.dumps({"d": 1, "conductor": [1600],
                          "small_elements": [[m] for m in range(0, 1601, 2)]})
    code, out = run(capsys, "tree", "from-semigroup", literal)
    assert code == 0
    tree = json.loads(out)
    assert tree["stable_level"] == 800
    assert [node["vector"] for node in tree["nodes"]] == [[2]] * 800 + [[1]]
    assert out.endswith(',"stable_level":800}\n')


@pytest.mark.parametrize("argv", [
    ("closure", "2", "1000000001"),
    ("seq", '{"generators":[2,1000000001]}'),
    ("characters", '{"generators":[1048577,1048578]}'),
    ("unseq", '{"prefix":[4000000]}'),
    ("seq", '{"conductor":1000000000,"small_elements":[0]}'),
    ("tree", "to-semigroup", '{"d":1,"nodes":[{"level":0,"vector":[1000000000],'
                             '"parent":null},{"level":1,"vector":[1],"parent":0}]}'),
])
def test_oversized_generators_are_refused(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "limit" in captured.err and "Traceback" not in captured.err


# the tree semigroup of [[2],[2],[3]] with splits (3, 0), coordinates 1, 3, 2
GLUED_APART = ('{"d":3,"conductor":[5,3,5],'
               '"small_elements":[[0,0,0],[2,3,2],[3,3,3],[4,3,4],[5,3,5]]}')


@pytest.mark.parametrize("argv", [
    ("tree", "from-semigroup", GLUED_APART),
    ("chars", "build", GLUED_APART),
])
def test_arf_semigroup_with_glued_branches_apart(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "is Arf" in captured.err and "order 1, 3, 2" in captured.err
    code, out = run(capsys, "check", GLUED_APART)
    assert code == 0
    assert json.loads(out)["is_arf"] is True


def test_huge_generator_with_small_conductor(capsys):
    code, out = run(capsys, "seq", '{"generators":[2,3,1000000000]}')
    assert code == 0
    assert out == '{"prefix":[2]}\n'


def run_python(script, *args):
    """Run `script` in a fresh interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(arfcurves.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True)


def test_cli_import_loads_no_numpy():
    # importing the CLI, checking the axioms and reading a semigroup literal
    # all run without numpy
    script = """
import sys
import arfcurves.cli
assert 'numpy' not in sys.modules, 'import'
for argv in (["check"], ["tree", "from-semigroup"], ["chars", "build"]):
    assert arfcurves.cli.main(argv + [sys.argv[1]]) == 0, argv
    assert 'numpy' not in sys.modules, argv
"""
    result = run_python(script, EX1)
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("\n") == 3


def test_each_subcommand_loads_only_its_modules():
    # a process compiles only the modules its subcommand runs: the package
    # itself loads none, and the numerical and good-semigroup commands never
    # load the series layer
    script = """
import sys

def loaded(*names):
    return [n for n in names if n in sys.modules]

import arfcurves
assert not [n for n in sys.modules if n.startswith('arfcurves.')], sorted(sys.modules)
from arfcurves.cli import main
assert main(['closure', '4', '6', '13']) == 0
assert not loaded('arfcurves.series', 'arfcurves.branch_ring', 'arfcurves.mult_tree',
                  'arfcurves.good_semigroup', 'arfcurves.char_vectors', 'fractions'), 'closure'
assert main(['check', sys.argv[1]]) == 0
assert not loaded('arfcurves.series', 'arfcurves.branch_ring', 'fractions'), 'check'
"""
    result = run_python(script, EX1)
    assert result.returncode == 0, result.stderr
    assert result.stdout.count("\n") == 2


def test_tree_semigroup_round_trip(capsys):
    code, tree = run(capsys, "tree", "from-semigroup", EX1)
    assert code == 0
    code, literal = run(capsys, "tree", "to-semigroup", tree.strip())
    assert code == 0
    assert json.loads(literal) == json.loads(EX1)
    code, again = run(capsys, "tree", "from-semigroup", literal.strip())
    assert code == 0
    assert again == tree


def test_tree_reads_stdin(capsys, monkeypatch):
    _, tree = run(capsys, "tree", "from-semigroup", EX1)
    monkeypatch.setattr("sys.stdin", io.StringIO(tree))
    code, literal = run(capsys, "tree", "to-semigroup", "-")
    assert code == 0
    assert json.loads(literal) == json.loads(EX1)


def test_tree_render_formats(capsys):
    _, tree = run(capsys, "tree", "from-semigroup", EX2)
    code, ascii_art = run(capsys, "tree", "render", tree.strip())
    assert code == 0
    assert "level 0: (2,3)" in ascii_art
    code, dot = run(capsys, "tree", "render", tree.strip(), "--format", "dot")
    assert code == 0
    assert dot.startswith("digraph")
    code, canonical = run(capsys, "tree", "render", tree.strip(), "--format", "json")
    assert code == 0
    assert canonical == tree


def test_tree_intersect_picks_the_later_split(capsys):
    _, left = run(capsys, "curve", "tree", CURVE_A)
    _, right = run(capsys, "curve", "tree", CURVE_B)
    code, out = run(capsys, "tree", "intersect", left.strip(), right.strip())
    assert code == 0
    assert out == right


def test_chars_pipeline(capsys):
    code, out = run(capsys, "chars", "build", EX1)
    assert code == 0
    assert out == '{"d":2,"vectors":[[4,2],[6,4],[6,5],[9,4]]}\n'
    code, out = run(capsys, "chars", "reduce", out.strip(), EX1)
    assert code == 0
    assert out == '{"d":2,"vectors":[[4,2],[6,5],[9,4]]}\n'
    code, out = run(capsys, "chars", "closure", out.strip())
    assert code == 0
    assert json.loads(out) == json.loads(EX1)


def test_chars_witness_choices(capsys):
    code, out = run(capsys, "chars", "build", EX2)
    assert code == 0
    assert out == '{"d":2,"vectors":[[2,3],[3,5],[4,7]]}\n'
    code, out = run(capsys, "chars", "build", EX2, "--witness-node", "4:1")
    assert code == 0
    assert out == '{"d":2,"vectors":[[2,3],[3,5],[6,6]]}\n'
    code, out = run(capsys, "chars", "closure", out.strip())
    assert code == 0
    assert json.loads(out) == json.loads(EX2)
    assert run(capsys, "chars", "build", EX2, "--witness-node", "2:1")[0] == 1


def test_curve_tree_and_semigroup(capsys):
    code, out = run(capsys, "curve", "tree",
                    '{"d":2,"generators":[["t^2","u^2"],["0","u^3"],["t^3","0"]]}')
    assert code == 0
    assert json.loads(out) == {
        "d": 2, "stable_level": 2,
        "nodes": [{"level": 0, "parent": None, "vector": [2, 2]},
                  {"level": 1, "parent": 0, "vector": [1, 1]},
                  {"level": 2, "parent": 1, "vector": [1, 0]},
                  {"level": 2, "parent": 1, "vector": [0, 1]}]}
    code, out = run(capsys, "curve", "semigroup", CURVE_U)
    assert code == 0
    assert json.loads(out) == json.loads(EX1)
    code, out = run(capsys, "curve", "tree", CURVE_B, "--format", "ascii")
    assert code == 0
    assert "level 0: (4,2)" in out


def test_curve_values(capsys):
    code, out = run(capsys, "curve", "values",
                    '{"d":1,"generators":[["t^4"],["t^6+t^7"]]}', "--bound", "20")
    assert code == 0
    assert json.loads(out) == {
        "values": [[0], [4], [6], [8], [10], [12], [13], [14],
                   [16], [17], [18], [19], [20]]}


def test_curve_equiv_golden(capsys, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    first.write_text(CURVE_A)
    second.write_text(CURVE_B)
    code, out = run(capsys, "curve", "equiv", str(first), str(second))
    assert code == 0
    assert out == '{"equivalent":false}\n'
    code, out = run(capsys, "curve", "equiv", str(second), str(second))
    assert code == 0
    assert out == '{"equivalent":true}\n'


def test_truncation_flag_overrides_literal(capsys):
    code, _ = run(capsys, "curve", "tree",
                  '{"d":2,"truncation":3,"generators":[["t^4","u^2"],["t^9","u^4"],["t^6","u^5"]]}')
    assert code == 2
    code, out = run(capsys, "curve", "tree",
                    '{"d":2,"truncation":3,"generators":[["t^4","u^2"],["t^9","u^4"],["t^6","u^5"]]}',
                    "--truncation", "64")
    assert code == 0
    assert json.loads(out)["stable_level"] == 3


def test_exit_codes(capsys):
    assert run(capsys, "seq", '{"generators":[4,6')[0] == 2
    assert run(capsys, "frobenius")[0] == 2
    assert run(capsys, "curve", "values", CURVE_B)[0] == 2
    assert run(capsys, "seq", "/tmp/no-such-file.json")[0] == 2
    assert run(capsys, "unseq", '{"prefix":[2,4]}')[0] == 1
    assert run(capsys, "curve", "tree", '{"d":2,"generators":[["t","u"]]}')[0] == 1
    assert run(capsys, "unseq", '{"steps":[4,2]}')[0] == 2
    assert run(capsys, "curve", "values", CURVE_B, "--bound", "4;2")[0] == 2
    # the axiom checks follow the members, so a huge conductor box costs
    # nothing; the Arf check refuses a conductor above its limit
    huge = '{"d":2,"conductor":[100000,100000],"small_elements":[[0,0],[100000,100000]]}'
    start = time.perf_counter()
    code, out = run(capsys, "check", huge)
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert out == '{"is_arf":true,"is_good":true,"is_local":true,"reason":null}\n'
    beyond = json.dumps({"d": 3, "conductor": [2000000] * 3,
                         "small_elements": [[0] * 3, [2000000] * 3]})
    code = main(["check", beyond])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "the conductor exceeds the limit of 1048576" in captured.err
    assert "Traceback" not in captured.err


def test_unreadable_inputs_exit_2(capsys, tmp_path):
    undecodable = tmp_path / "bad.bin"
    undecodable.write_bytes(b"\xff\xfe{")
    deep = '{"a": ' + "[" * 100000 + "]" * 100000 + "}"
    nested = tmp_path / "deep.json"
    nested.write_text(deep)
    for argv, message in [
            (["seq", str(undecodable)],
             "cannot read %s: 'utf-8' codec can't decode" % echo(str(undecodable))),
            (["seq", deep], "nested too deeply"),
            (["curve", "tree", str(nested)], "invalid JSON in %s: nested too deeply" % echo(str(nested)))]:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv[:2]
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert "Traceback" not in captured.err


def test_long_inline_literal_gives_a_short_error(capsys, monkeypatch):
    # an inline literal, a path or `-` is named by a short prefix
    literal = '{"d":2,"conductor":[4,6' + " " * 50000
    monkeypatch.setattr(sys, "stdin", io.StringIO(literal))
    for source, name in ((literal, repr(literal[:40]) + "..."), ("-", "'-'")):
        code = main(["check", source])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: invalid JSON in %s: Expecting" % name)
        assert len(captured.err) < 200 and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


def test_long_or_huge_arguments_give_a_short_error(capsys):
    # --bound and --witness-node are named by a short prefix too, and an
    # integer longer than Python's limit on int() of a string names it
    huge = "7" * 5000
    limit = sys.get_int_max_str_digits()
    for argv, message in [
            (["curve", "values", CURVE_B, "--bound", "1," * 20000 + "x"],
             "bound must be comma-separated integers, got %r..." % ("1," * 20,)),
            (["curve", "values", CURVE_B, "--bound", huge + ",3"],
             "bound must be comma-separated integers of at most %d digits each, got %r..."
             % (limit, huge[:40])),
            (["chars", "build", EX2, "--witness-node", "1:" * 20000],
             "witness node must be LEVEL:BRANCH, got %r..." % ("1:" * 20,)),
            (["chars", "build", EX2, "--witness-node", huge + ":1"],
             "witness node must be LEVEL:BRANCH of at most %d digits each" % limit),
            (["check", '{"d":1,"conductor":[%s],"small_elements":[[0]]}' % huge],
             "invalid JSON in %r...: Exceeds the limit (%d digits)"
             % ('{"d":1,"conductor":[' + huge[:20], limit))]:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv[:2]
        assert captured.out == ""
        assert captured.err.startswith("error: " + message)
        assert len(captured.err) < 300 and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
    # argparse converts GEN and --truncation, and prints its usage first
    for argv, message in [
            (["closure", "4", huge], "argument GEN: expected an integer of at most %d digits, "
                                     "got %r..." % (limit, huge[:40])),
            (["closure", "4", "x"], "argument GEN: expected an integer, got 'x'"),
            (["curve", "tree", CURVE_B, "--truncation", "8" * 50000],
             "argument --truncation: expected an integer of at most %d digits, got %r..."
             % (limit, "8" * 40)),
            (["curve", "tree", CURVE_B, "--truncation", "6" * 45 + "x"],
             "argument --truncation: expected an integer, got %r..." % ("6" * 40,))]:
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv[:2]
        assert captured.out == ""
        assert captured.err.startswith("usage: arfcurves ")
        assert captured.err.endswith(" error: " + message + "\n")
        assert len(captured.err) < 400
        assert "Traceback" not in captured.err


def test_huge_series_numbers_give_a_short_error(capsys, tmp_path):
    # an exponent or coefficient past Python's limit on int() of a string
    # is refused with its position, not with a traceback
    limit = sys.get_int_max_str_digits()
    for generator, position in ((["t^" + "9" * 5000], 3), (["1" + "0" * 5000 + "*t^6"], 1)):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"d": 1, "generators": [["t^4"], generator]}))
        code = main(["curve", "tree", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: a number of ")
        assert captured.err.endswith(" digits exceeds the limit of %d digits (at position %d)\n"
                                     % (limit, position))
        assert len(captured.err) < 300 and "Traceback" not in captured.err


def test_long_series_tokens_give_a_short_error(capsys, tmp_path):
    # a token that a series message quotes, or an exponent it names, is cut
    # to its first 40 characters
    for generator, message in (
            ("t^4 " + "9" * 4000, "expected '+' or '-' between terms, got %r..." % ("9" * 40,)),
            ("1/" + "0" * 4000, "zero denominator in %r..." % ("1/" + "0" * 38,)),
            ("t^" + "9" * 4000,
             "exponent %s... is not below the truncation order 64" % ("9" * 40,)),
            ("x" * 4000 + "^2", "unknown variable %r... (expected 't')" % ("x" * 40,))):
        path = tmp_path / "long.json"
        path.write_text(json.dumps({"d": 1, "generators": [["t^4"], [generator]]}))
        code = main(["curve", "tree", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: " + message + " (at position ")
        assert len(captured.err.encode()) < 200 and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


def test_long_literal_fields_give_a_short_error(capsys):
    # a field of the wrong type is quoted by its first 40 characters; a
    # short one is quoted whole, as before
    for literal, message in (
            ({"d": "7" * 3000, "generators": [["t^4"]]},
             "d must be an integer, got %r..." % ("7" * 40,)),
            ({"d": 1, "conductor": [4], "small_elements": "[0]" * 1000},
             "small_elements must be a list, got %r..." % ("[0]" * 13 + "[",)),
            ({"d": [1] * 1000, "generators": [["t^4"]]},
             "d must be an integer, got %s..." % (repr([1] * 1000)[:40],)),
            ({"d": "7", "generators": [["t^4"]]}, "d must be an integer, got '7'\n"),
            ({"d": 1, "conductor": [4], "small_elements": {"a": 1}},
             "small_elements must be a list, got {'a': 1}\n")):
        command = "check" if "conductor" in literal else "curve"
        argv = [command, json.dumps(literal)]
        if command == "curve":
            argv[1:1] = ["values"]
            argv += ["--bound", "4"]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: " + message)
        assert len(captured.err.encode()) < 200 and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


def test_long_literal_values_give_a_short_error(capsys):
    # a variable list, a tree node or a semigroup vector is quoted by its
    # first 40 characters, and a path by its first 40 without the OS's copy;
    # so is a vector of 2,000 coordinates with one bad coordinate, also in
    # the reason that `check` reports
    name, node, vector = "x" * 3000, "n" * 3000, [1] * 2000
    negative, zero, two = ([1] * 1999 + [x] for x in (-1, 0, 2))

    def semigroup(*small):
        return json.dumps({"d": 2000, "conductor": vector, "small_elements": [[0] * 2000, *small]})

    def reason(message):
        return '{"is_arf":null,"is_good":false,"is_local":null,"reason":"%s"}' % message

    for argv, status, message in (
            (["check", semigroup(negative)], 0,
             reason("vector coordinates must be natural numbers: %s" % echo(negative))),
            (["check", semigroup(vector, two)], 0,
             reason("element %s lies outside the conductor box" % echo(two))),
            (["tree", "from-semigroup", semigroup(negative)],
             1, "vector coordinates must be natural numbers: %s" % echo(negative)),
            (["chars", "closure", json.dumps({"d": 2000, "vectors": [negative]})],
             1, "vector entries must be natural numbers: %s" % echo(negative)),
            (["chars", "closure", json.dumps({"d": 2000, "vectors": [zero]})],
             1, "vector %s has a zero coordinate; no local semigroup contains it" % echo(zero)),
            (["curve", "values", json.dumps({"d": 2000, "generators": [_variable_names(2000)]}),
              "--bound", ",".join(map(str, negative))],
             1, "bound coordinates must be natural numbers: %s" % echo(negative)),
            (["curve", "tree", json.dumps({"d": 2, "variables": [name],
                                           "generators": [["t^2", "u^2"]]})],
             2, "variables must be 2 distinct names, got %s" % echo([name])),
            (["tree", "render", json.dumps({"d": 1, "nodes": [node]})],
             2, "node 0 must be an object, got %s" % echo(node)),
            (["tree", "from-semigroup", json.dumps({"d": 2, "conductor": [4, 6],
                                                    "small_elements": [[0, 0], vector]})],
             1, "expected a vector of dimension 2, got %s" % echo(vector)),
            (["seq", "[3, -" + "9" * 4000 + "]"],
             2, "cannot read %s: File name too long" % echo("[3, -" + "9" * 4000 + "]"))):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == status, argv[:2]
        if status:
            assert captured.out == ""
            assert captured.err == "error: " + message + "\n"
        else:
            assert captured.out == message + "\n" and captured.err == ""
        assert len((captured.out + captured.err).encode()) < 200
        assert "Traceback" not in captured.err


def test_truncation_order_has_a_limit(capsys):
    # a sparse quotient stops with its remainder, so the largest allowed
    # order answers at once; one more is refused before any series is built
    cusp = '{"d":1,"generators":[["t^3"],["t^5"]]}'
    code, out = run(capsys, "curve", "tree", cusp, "--truncation", str(2 ** 20))
    assert code == 0
    assert json.loads(out)["stable_level"] == 2
    for argv in (["curve", "tree", cusp, "--truncation", str(2 ** 20 + 1)],
                 ["curve", "semigroup", cusp, "--truncation", "1000000000000"],
                 ["curve", "tree", '{"d":1,"generators":[["t^3"],["t^5"]],'
                                   '"truncation":1000000000000}']):
        start = time.perf_counter()
        code = main(argv)
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: the truncation order exceeds the limit of 1048576\n"


def test_infinite_index_branch_stops_at_its_fixed_point(capsys):
    # k[[t^2]] blows up to itself; the walk stops there instead of blowing
    # it up once per unit of truncation, each blowup a division of that length
    start = time.perf_counter()
    code = main(["curve", "tree", '{"d":1,"generators":[["t^2"]],"truncation":32000}'])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "does not reach 1 within the truncation order" in captured.err
    assert elapsed < 5.0


def test_tree_to_semigroup_scales_with_members(capsys):
    # a heavy root over two unit leaves: two small elements in a 10^10 box
    heavy = json.dumps({"d": 2, "nodes": [
        {"level": 0, "vector": [100000, 100000], "parent": None},
        {"level": 1, "vector": [1, 0], "parent": 0},
        {"level": 1, "vector": [0, 1], "parent": 0}]})
    code, out = run(capsys, "tree", "to-semigroup", heavy)
    assert code == 0
    assert out == ('{"conductor":[100000,100000],"d":2,'
                   '"small_elements":[[0,0],[100000,100000]]}\n')
    # six branches of fifteen 2s parted at the root: 15**6 = 11,390,625 small elements
    wide = json.dumps(tree_to_dict(MultiplicityTree([[2] * 15] * 6, splits=(0,) * 5)))
    code = main(["tree", "to-semigroup", wide])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ("check", '{"d":"x","conductor":[1,1],"small_elements":[[0,0],[1,1]]}'),
    ("check", '{"d":1,"conductor":3,"small_elements":[[0],[3]]}'),
    ("unseq", '{"prefix":"abc"}'),
    ("seq", '{"generators":["a"]}'),
    ("curve", "tree", '{"d":1,"generators":[["t^2"],["t^3"]],"truncation":"x"}'),
    ("tree", "to-semigroup", '{"d":1,"nodes":[5]}'),
    ("tree", "to-semigroup", '{"d":1,"nodes":[{"level":"a","vector":[1],"parent":null}]}'),
    ("tree", "to-semigroup", '{"d":1,"nodes":[{"level":1.5,"vector":[1],"parent":null}]}'),
    ("tree", "to-semigroup", '{"d":1,"nodes":[{"level":0,"vector":[1],"parent":"x"}]}'),
    ("curve", "tree", '{"d":1,"generators":[["-"]]}'),
    ("curve", "tree", '{"d":1,"generators":[["t^2+1/0*t^3"]]}'),
])
def test_mistyped_literals_exit_2(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def read_sequence(data):
    return literal_fields(data, ("prefix",), "sequence")


@pytest.mark.parametrize("reader, argv, literal, message", [
    (semigroup_from_dict, ("seq",), '{"conductor":4}',
     "semigroup literal needs either generators or conductor + small_elements"),
    (semigroup_from_dict, ("characters",), "[4,6]", "semigroup literal must be an object"),
    (good_from_dict, ("check",), '{"d":2,"conductor":[8,4]}',
     "semigroup literal is missing small_elements"),
    (good_from_dict, ("tree", "from-semigroup"), '{"small_elements":[]}',
     "semigroup literal is missing d, conductor"),
    (good_from_dict, ("chars", "build"), "[]", "semigroup literal must be an object"),
    (tree_from_dict, ("tree", "render"), '{"d":1}', "tree literal is missing nodes"),
    (tree_from_dict, ("tree", "to-semigroup"), "5", "tree literal must be an object"),
    (charset_from_dict, ("chars", "closure"), '{"vectors":[[1,1]]}',
     "character-set literal is missing d"),
    (charset_from_dict, ("chars", "closure"), '"x"', "character-set literal must be an object"),
    (curve_from_dict, ("curve", "tree"), '{"d":1}', "curve literal is missing generators"),
    (curve_from_dict, ("curve", "semigroup"), "null", "curve literal must be an object"),
    (read_sequence, ("unseq",), '{"steps":[4,2]}', "sequence literal is missing prefix"),
    (read_sequence, ("unseq",), "[4,2]", "sequence literal must be an object"),
    # a tree node is a literal of its own, and d < 1 is malformed in every literal
    (tree_from_dict, ("tree", "render"), '{"d":1,"nodes":[{"level":0}]}',
     "node 0 literal is missing vector, parent"),
    (tree_from_dict, ("tree", "render"), '{"d":0,"nodes":[]}', "d must be at least 1, got 0"),
    (charset_from_dict, ("chars", "closure"), '{"d":0,"vectors":[]}',
     "d must be at least 1, got 0"),
    (curve_from_dict, ("curve", "tree"), '{"d":0,"generators":[["t^2"]]}',
     "d must be at least 1, got 0"),
    (good_from_dict, ("check",), '{"d":0,"conductor":[],"small_elements":[]}',
     "d must be at least 1, got 0"),
])
def test_each_literal_has_one_reader(capsys, monkeypatch, reader, argv, literal, message):
    # the library reader and the command refuse a literal alike; a non-object,
    # read from stdin, stops at the command's JSON reader first
    with pytest.raises(InputError) as raised:
        reader(json.loads(literal))
    assert str(raised.value).startswith(message)
    monkeypatch.setattr(sys, "stdin", io.StringIO(literal))
    code = main([*argv, "-"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    if literal.startswith("{"):
        assert captured.err == "error: %s\n" % raised.value
    else:
        assert captured.err == "error: expected a JSON object in '-'\n"


def test_outputs_are_deterministic(capsys):
    first = run(capsys, "chars", "build", EX1)
    second = run(capsys, "chars", "build", EX1)
    assert first == second
