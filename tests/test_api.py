"""Pin the public surface: the names `gardner` exports and every CLI option.

A simplification must not drop a public name or an option silently; a
deliberate change to either updates the snapshot here.
"""
import argparse
import importlib

import pytest

import gardner
from gardner.cli import build_parser

PUBLIC_NAMES = [
    "AffineSubspace", "BoardDocument", "BoardParseError", "BudgetExceededError",
    "CountingPolynomial", "FACTORIAL_GUARD", "FStarVector", "FactorialGuardError",
    "FastCheck", "GMatrix", "GaleDualPair", "GalePairReport", "GorensteinReport",
    "HDescription", "HalfOpenSimplex", "Labeling", "LatticeSimplex", "Permutation",
    "RootsReport", "SquareMatrix", "Vertex", "Witness", "affine_hull_residual",
    "all_vertices", "barycentric", "binom", "birkhoff_hull", "boards",
    "cell_intersection", "circuit_check", "col_vertex", "compose", "compressed_check",
    "counting", "decompose_canonical", "dual_subspace", "duality", "f_star",
    "f_star_by_enumeration", "g_bruteforce", "g_formula_1", "g_formula_2", "g_formula_3",
    "g_labeling_oracle", "gale_pair_check", "gale_pair_from_recipe", "gardner_hull",
    "gorenstein_check", "halfopen_cells", "halfopen_contains", "halfopen_simplex_count",
    "interior_count_bruteforce", "interpolate", "is_doubly_stochastic",
    "is_g_matrix_bruteforce", "is_g_matrix_fast", "linalg", "locate", "matrix",
    "open_simplex_count", "pairing", "permutation_matrix", "permutation_sum",
    "permutations_of", "polytope", "project_pi", "roots_check", "row_vertex", "scale",
    "simplex_count", "triangulation_cells", "trick_generate", "unimodularity_check",
    "vertex_matrix",
]

# Per subcommand, in order: the option strings of each option, or the
# destination of each positional.
CLI_ARGUMENTS = {
    "trick": [("-h", "--help"), "d", "value", ("--mode",), ("--seed",), ("--labels",),
              ("--json",)],
    "verify": [("-h", "--help"), "file", ("--json",)],
    "count": [("-h", "--help"), "d", "value", ("--formula",), ("--oracle",), ("--json",)],
    "poly": [("-h", "--help"), "d", ("--json",)],
    "roots": [("-h", "--help"), "d", ("--tol",), ("--json",)],
    "decompose": [("-h", "--help"), "file", ("--json",)],
    "locate": [("-h", "--help"), "file", ("--json",)],
    "duality": [("-h", "--help"), "d", ("--samples",), ("--seed",), ("--json",)],
}


def _arguments(parser: argparse.ArgumentParser) -> list:
    return [tuple(a.option_strings) or a.dest for a in parser._actions]


def test_public_names_are_unchanged():
    assert sorted(gardner.__all__) == PUBLIC_NAMES


def test_public_names_resolve_to_their_submodule_objects():
    # counting, polytope and duality load on first use of a name, which is then bound.
    modules = {m: importlib.import_module(f"gardner.{m}")
               for m in ("boards", "counting", "duality", "linalg", "matrix", "polytope")}
    for name in gardner.__all__:
        value = getattr(gardner, name)
        assert vars(gardner)[name] is value
        homes = [modules[name]] if name in modules else [
            vars(m)[name] for m in modules.values() if name in vars(m)]
        assert homes and all(home is value for home in homes), name


def test_star_import_and_dir_list_every_public_name():
    namespace: dict = {}
    exec("from gardner import *", namespace)
    assert all(namespace[name] is getattr(gardner, name) for name in gardner.__all__)
    assert set(gardner.__all__) <= set(dir(gardner))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        gardner.no_such_name
    assert not hasattr(gardner, "Scalar")  # defined in matrix, but not public


def test_cli_arguments_are_unchanged():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(commands.choices) == list(CLI_ARGUMENTS)
    assert {name: _arguments(p) for name, p in commands.choices.items()} == CLI_ARGUMENTS
