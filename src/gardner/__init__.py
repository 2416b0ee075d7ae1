"""Exact-arithmetic toolkit for constant-rook-sum boards (G-matrices):
validation, label decomposition, board generation, lattice-point counting
via three closed formulas with brute-force oracles, the unimodular
triangulation and half-open decomposition of the underlying polytope, and
the Gale duality with the Birkhoff polytope of doubly stochastic matrices."""

from .boards import BoardDocument, BoardParseError
from .matrix import (FACTORIAL_GUARD, BudgetExceededError, FactorialGuardError, FastCheck,
                     GMatrix, Labeling, SquareMatrix, Witness, compose, decompose_canonical,
                     is_g_matrix_bruteforce, is_g_matrix_fast, permutation_sum, scale,
                     trick_generate)

__version__ = "0.1.0"

# matrix loads linalg for SquareMatrix's clear; these load on first use of a name (PEP 562).
_LAZY = {
    "counting": """CountingPolynomial FStarVector RootsReport binom f_star f_star_by_enumeration
        g_bruteforce g_formula_1 g_formula_2 g_formula_3 g_labeling_oracle halfopen_simplex_count
        interior_count_bruteforce interpolate open_simplex_count roots_check simplex_count""",
    "duality": """Permutation birkhoff_hull compressed_check gale_pair_from_recipe gorenstein_check
        AffineSubspace GaleDualPair HDescription dual_subspace gardner_hull pairing permutations_of
        GalePairReport GorensteinReport gale_pair_check is_doubly_stochastic permutation_matrix""",
    "polytope": """HalfOpenSimplex LatticeSimplex Vertex all_vertices affine_hull_residual
        barycentric cell_intersection circuit_check col_vertex halfopen_cells halfopen_contains
        locate project_pi row_vertex triangulation_cells unimodularity_check vertex_matrix""",
}
_HOME = {name: module for module, names in _LAZY.items() for name in names.split()}
__all__ = sorted({*_LAZY, *_HOME, *(name for name in dir() if not name.startswith("_"))})


def __getattr__(name: str):
    if name not in _LAZY and name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f"{__name__}.{_HOME.get(name, name)}")
    globals()[name] = value = module if name in _LAZY else getattr(module, name)
    return value  # bound above, so the next lookup of name never reaches __getattr__


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
