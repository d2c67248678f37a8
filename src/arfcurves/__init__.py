"""Equivalence classes of algebroid curves via Arf semigroups.

One-branch tools (multiplicity sequences, Arf closures, characters), good
semigroups of N^d with their multiplicity trees, finite character-vector
sets, and blowup-based multiplicity trees of parametrized curve branches
over exact rationals.

The public names are loaded on first access (PEP 562): `import arfcurves`
imports no submodule, so a command-line process compiles only the modules
its subcommand runs.
"""

import importlib

_EXPORTS = {
    "branch_ring": """DEFAULT_TRUNCATION LocalAlgebra arf_closure_value_semigroup blowup
        branch_multiplicity_sequence curve_from_dict curve_to_dict curves_equivalent
        is_local_ring multiplicity_tree_of_curve value_set""",
    "char_vectors": """CharacterVectorSet build_character_vectors charset_from_dict
        charset_to_dict is_minimal_character_set reduce_characters smallest_arf_containing""",
    "errors": "DomainError InputError TruncationError ValidationError",
    "good_semigroup": """GoodSemigroup fine_multiplicity good_from_dict good_to_dict
        is_arf_good is_good is_local plane_projection projection residue""",
    "mult_tree": """MultiplicityTree canonical_form node_path_sum noether_sum pinch
        render_ascii render_dot semigroup_to_tree split_profile tree_from_dict
        tree_intersection tree_leq tree_to_dict tree_to_semigroup validate_tree""",
    "numerical": """MultiplicitySequence NumericalSemigroup arf_characters arf_closure arfrank
        blowup_chain decomposition_lengths is_arf restriction_numbers semigroup_from_dict
        semigroup_to_dict semigroup_to_seq seq_to_semigroup""",
    "series": "SeriesTuple TruncatedSeries parse_series valuation",
}

# public name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    # An unknown name raises AttributeError, so `from arfcurves import
    # branch_ring` still falls back to importing the submodule.
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
