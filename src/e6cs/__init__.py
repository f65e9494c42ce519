"""Exact E6 irreducible characters and Clebsch-Gordan series, computed with
the kappa=1 Calogero-Sutherland operator in fundamental-character variables."""

from .characters import Character, character, character_annihilator, character_recursion
from .hamiltonian import apply_delta, eigenvalue, energy
from .lattice import (conjugate, dominant_weights_below, inner_product,
                      positive_roots, to_root_basis, weyl_dimension,
                      weyl_vector_in_root_basis)
from .ring import SparsePolynomial, parse_polynomial
from .tensor import CGSeries, monomial_decompose, tensor_decompose

__all__ = [
    "CGSeries",
    "Character",
    "SparsePolynomial",
    "apply_delta",
    "character",
    "character_annihilator",
    "character_recursion",
    "conjugate",
    "dominant_weights_below",
    "eigenvalue",
    "energy",
    "inner_product",
    "monomial_decompose",
    "parse_polynomial",
    "positive_roots",
    "tensor_decompose",
    "to_root_basis",
    "weyl_dimension",
    "weyl_vector_in_root_basis",
]

__version__ = "0.1.0"
