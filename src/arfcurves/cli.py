"""Command-line front end exposing every library operation.

Machine output is canonical JSON (sorted keys, compact separators) so
golden tests can compare bytes; tree renderings are plain text.  Inputs
are file paths, inline JSON objects, or ``-`` for standard input.  Exit
codes: 0 on success, 1 on a domain error, 2 on malformed input or
arguments.
"""

import argparse
import json
import sys

from .errors import DomainError, InputError, echo, literal_fields, literal_ints


def dumps(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def read_json(source):
    """JSON object from a path, an inline literal, or stdin when `-`.

    Messages name the source by its first LITERAL_ECHO characters, and a
    read error by its reason alone, so a long argument gives a short line."""
    name = echo(source)
    if source.lstrip().startswith("{"):
        text = source
    else:
        try:
            if source == "-":
                text = sys.stdin.read()
            else:
                with open(source, "r", encoding="utf-8") as handle:
                    text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:  # strerror leaves out the path
            raise InputError("cannot read %s: %s" % (name, getattr(exc, "strerror", None) or exc))
    try:
        data = json.loads(text)
    except RecursionError:
        raise InputError("invalid JSON in %s: nested too deeply" % (name,))
    except ValueError as exc:  # a JSONDecodeError, or an integer past Python's digit limit
        raise InputError("invalid JSON in %s: %s" % (name, exc))
    if not isinstance(data, dict):
        raise InputError("expected a JSON object in %s" % (name,))
    return data


def read_curve(source, truncation=None):
    from .branch_ring import curve_from_dict

    data = read_json(source)
    if truncation is not None:
        data = dict(data, truncation=truncation)
    return curve_from_dict(data)


def _integers(parts, form, text):
    """The parts of the argument text as ints, or an InputError that names
    the expected form and the text by its prefix.  When a part is longer
    than Python's limit on int() of a string (0 for none; absent before
    3.10.7), the message names that limit."""
    try:
        return tuple(int(part) for part in parts)
    except ValueError:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and any(len(part) > limit for part in parts):
            form = "%s of at most %d digits%s" % (form, limit, " each" if len(parts) > 1 else "")
        raise InputError("%s, got %s" % (form, echo(text)))


def integer_argument(text):
    """argparse type of an integer argument.  argparse would repeat a value
    that type=int rejects in full; this message names its prefix instead."""
    try:
        return _integers([text], "expected an integer", text)[0]
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_bound(text):
    return _integers(text.split(","), "bound must be comma-separated integers", text)


def parse_witness(text):
    form = "witness node must be LEVEL:BRANCH"
    parts = text.split(":")
    if len(parts) != 2:
        raise InputError("%s, got %s" % (form, echo(text)))
    return _integers(parts, form, text)


def render_tree(tree, form):
    from .mult_tree import render_ascii, render_dot, tree_to_dict

    if form == "ascii":
        return render_ascii(tree)
    if form == "dot":
        return render_dot(tree)
    return dumps(tree_to_dict(tree))


def closed(S):
    """S itself when Arf, otherwise its Arf closure.

    The multiplicity sequence and the characters of a semigroup are those
    of its blowup chain, which the Arf closure shares, so both commands
    accept any numerical semigroup.
    """
    from .numerical import arf_closure, is_arf

    if is_arf(S):
        return S
    generators = [s for s in S.small_elements if s]
    generators.extend(S.conductor + i for i in range(S.multiplicity()))
    return arf_closure(generators)


def cmd_closure(args):
    from .numerical import arf_closure, semigroup_to_dict

    return dumps(semigroup_to_dict(arf_closure(args.generators)))


def cmd_seq(args):
    from .numerical import semigroup_from_dict, semigroup_to_seq

    seq = semigroup_to_seq(closed(semigroup_from_dict(read_json(args.input))))
    return dumps({"prefix": list(seq.prefix)})


def cmd_unseq(args):
    from .numerical import MultiplicitySequence, semigroup_to_dict, seq_to_semigroup

    data = literal_fields(read_json(args.input), ("prefix",), "sequence")
    prefix = literal_ints(data["prefix"], "prefix")
    return dumps(semigroup_to_dict(seq_to_semigroup(MultiplicitySequence(prefix))))


def cmd_characters(args):
    from .numerical import arf_characters, semigroup_from_dict

    S = closed(semigroup_from_dict(read_json(args.input)))
    return dumps({"characters": sorted(arf_characters(S))})


def cmd_check(args):
    from .good_semigroup import GoodSemigroup, good_literal, is_arf_good, is_good, is_local

    literal = good_literal(read_json(args.input))
    good, reason = is_good(*literal)
    report = {"is_good": good, "is_local": None, "is_arf": None, "reason": reason}
    if good:
        # the axioms hold, so only the conductor's minimality is left to check
        S = GoodSemigroup(*literal, validate=False)
        S.require_minimal_conductor()
        report["is_local"] = is_local(S)
        report["is_arf"] = is_arf_good(S)
    return dumps(report)


def cmd_tree_from_semigroup(args):
    from .good_semigroup import good_from_dict
    from .mult_tree import semigroup_to_tree, tree_to_dict

    return dumps(tree_to_dict(semigroup_to_tree(good_from_dict(read_json(args.input)))))


def cmd_tree_to_semigroup(args):
    from .good_semigroup import good_to_dict
    from .mult_tree import tree_from_dict, tree_to_semigroup

    return dumps(good_to_dict(tree_to_semigroup(tree_from_dict(read_json(args.input)))))


def cmd_tree_intersect(args):
    from .mult_tree import tree_from_dict, tree_intersection, tree_to_dict

    return dumps(tree_to_dict(tree_intersection(tree_from_dict(read_json(args.first)),
                                                tree_from_dict(read_json(args.second)))))


def cmd_tree_render(args):
    from .mult_tree import tree_from_dict

    return render_tree(tree_from_dict(read_json(args.input)), args.format)


def cmd_chars_build(args):
    from .char_vectors import build_character_vectors, charset_to_dict
    from .good_semigroup import good_from_dict

    witness = parse_witness(args.witness_node) if args.witness_node else None
    V = build_character_vectors(good_from_dict(read_json(args.input)), witness_node=witness)
    return dumps(charset_to_dict(V))


def cmd_chars_reduce(args):
    from .char_vectors import charset_from_dict, charset_to_dict, reduce_characters
    from .good_semigroup import good_from_dict

    V = reduce_characters(charset_from_dict(read_json(args.charset)),
                          good_from_dict(read_json(args.semigroup)))
    return dumps(charset_to_dict(V))


def cmd_chars_closure(args):
    from .char_vectors import charset_from_dict, smallest_arf_containing
    from .good_semigroup import good_to_dict

    return dumps(good_to_dict(smallest_arf_containing(charset_from_dict(read_json(args.input)))))


def cmd_curve_tree(args):
    from .branch_ring import multiplicity_tree_of_curve

    tree = multiplicity_tree_of_curve(read_curve(args.input, args.truncation))
    return render_tree(tree, args.format)


def cmd_curve_semigroup(args):
    from .branch_ring import arf_closure_value_semigroup
    from .good_semigroup import good_to_dict

    S = arf_closure_value_semigroup(read_curve(args.input, args.truncation))
    return dumps(good_to_dict(S))


def cmd_curve_values(args):
    from .branch_ring import value_set

    values = value_set(read_curve(args.input, args.truncation), parse_bound(args.bound))
    return dumps({"values": [list(v) for v in sorted(values)]})


def cmd_curve_equiv(args):
    from .branch_ring import curves_equivalent

    equivalent = curves_equivalent(read_curve(args.first, args.truncation),
                                   read_curve(args.second, args.truncation))
    return dumps({"equivalent": equivalent})


def _add_format(parser, default):
    parser.add_argument("--format", choices=("json", "ascii", "dot"), default=default,
                        help="output form (default %(default)s)")


def _add_truncation(parser):
    parser.add_argument("--truncation", type=integer_argument, default=None,
                        help="override the truncation order of the curve literal")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="arfcurves",
        description="Arf semigroups, multiplicity trees and equivalence of algebroid curves.")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("closure", help="Arf closure of a numerical semigroup")
    sub.add_argument("generators", type=integer_argument, nargs="+", metavar="GEN")
    sub.set_defaults(handler=cmd_closure)

    sub = commands.add_parser("seq", help="multiplicity sequence of a numerical semigroup, via its Arf closure")
    sub.add_argument("input")
    sub.set_defaults(handler=cmd_seq)

    sub = commands.add_parser("unseq", help="Arf semigroup of a multiplicity sequence")
    sub.add_argument("input")
    sub.set_defaults(handler=cmd_unseq)

    sub = commands.add_parser("characters", help="Arf characters of a numerical semigroup, via its Arf closure")
    sub.add_argument("input")
    sub.set_defaults(handler=cmd_characters)

    sub = commands.add_parser("check", help="good/local/Arf status of a semigroup of N^d")
    sub.add_argument("input")
    sub.set_defaults(handler=cmd_check)

    tree = commands.add_parser("tree", help="multiplicity-tree operations").add_subparsers(
        dest="tree_command", required=True)
    sub = tree.add_parser("from-semigroup", help="tree of an Arf good semigroup")
    sub.add_argument("input")
    sub.set_defaults(handler=cmd_tree_from_semigroup)
    sub = tree.add_parser("to-semigroup", help="good semigroup of a tree")
    sub.add_argument("input")
    sub.set_defaults(handler=cmd_tree_to_semigroup)
    sub = tree.add_parser("intersect", help="tree of the intersection semigroup")
    sub.add_argument("first")
    sub.add_argument("second")
    sub.set_defaults(handler=cmd_tree_intersect)
    sub = tree.add_parser("render", help="draw a tree")
    sub.add_argument("input")
    _add_format(sub, "ascii")
    sub.set_defaults(handler=cmd_tree_render)

    chars = commands.add_parser("chars", help="character-vector operations").add_subparsers(
        dest="chars_command", required=True)
    sub = chars.add_parser("build", help="character vectors of an Arf good semigroup")
    sub.add_argument("input")
    sub.add_argument("--witness-node", default=None, metavar="LEVEL:BRANCH",
                     help="node for the added pair witness, when one is needed")
    sub.set_defaults(handler=cmd_chars_build)
    sub = chars.add_parser("reduce", help="drop vectors the rest already determine")
    sub.add_argument("charset")
    sub.add_argument("semigroup")
    sub.set_defaults(handler=cmd_chars_reduce)
    sub = chars.add_parser("closure", help="smallest Arf semigroup containing the vectors")
    sub.add_argument("input")
    sub.set_defaults(handler=cmd_chars_closure)

    curve = commands.add_parser("curve", help="parametrized-curve operations").add_subparsers(
        dest="curve_command", required=True)
    sub = curve.add_parser("tree", help="multiplicity tree of a curve")
    sub.add_argument("input")
    _add_truncation(sub)
    _add_format(sub, "json")
    sub.set_defaults(handler=cmd_curve_tree)
    sub = curve.add_parser("semigroup", help="value semigroup of the Arf closure")
    sub.add_argument("input")
    _add_truncation(sub)
    sub.set_defaults(handler=cmd_curve_semigroup)
    sub = curve.add_parser("values", help="value set of the curve inside a box")
    sub.add_argument("input")
    sub.add_argument("--bound", required=True, metavar="a,b",
                     help="far corner of the value box, comma-separated")
    _add_truncation(sub)
    sub.set_defaults(handler=cmd_curve_values)
    sub = curve.add_parser("equiv", help="decide equivalence of two curves")
    sub.add_argument("first")
    sub.add_argument("second")
    _add_truncation(sub)
    sub.set_defaults(handler=cmd_curve_equiv)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code is None else int(exc.code)
    try:
        output = args.handler(args)
    except InputError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2
    except DomainError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 1
    if output is not None:
        print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
