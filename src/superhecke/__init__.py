"""Exact Coxeter groupoids and Iwahori-Hecke type algebras for the Lie
superalgebra families A(m,n), B(m,n), C(n), D(m,n)."""

__version__ = "0.1.0"
