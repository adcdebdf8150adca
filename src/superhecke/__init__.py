"""Exact Coxeter groupoids and Iwahori-Hecke type algebras for the Lie
superalgebra families A(m,n), B(m,n), C(n), D(m,n)."""

from .domains import CDDomain, Family, act, enumerate_domains
from .groupoid import ZERO, CoxeterGroupoid, Element, Word, dimension_formula, groupoid_for
from .hecke import HeckeAlgebra, hecke_poly
from .roots import RootSystem, root_system
from .scalars import LaurentPoly
from .weylgroups import WeylType, is_semisimple, poincare
from .weylreps import Irrep, irreps, split_regular_module, split_regular_weyl

__all__ = [
    "CDDomain",
    "CoxeterGroupoid",
    "Element",
    "Family",
    "HeckeAlgebra",
    "Irrep",
    "LaurentPoly",
    "RootSystem",
    "WeylType",
    "Word",
    "ZERO",
    "act",
    "dimension_formula",
    "enumerate_domains",
    "groupoid_for",
    "hecke_poly",
    "irreps",
    "is_semisimple",
    "poincare",
    "root_system",
    "split_regular_module",
    "split_regular_weyl",
]

__version__ = "0.1.0"
