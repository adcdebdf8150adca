"""Finite classical Weyl groups as signed permutations, with Coxeter lengths,
Poincare polynomials, and the regular modules of their Hecke algebras.

Generator conventions follow the root data used throughout the package: for
S_n the generators are the adjacent transpositions (i, i+1); for W(B_n) they
are those together with the sign flip of the LAST coordinate (index n); for
W(D_n) the last generator swaps-and-negates the last two coordinates.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .domains import UsageError
from .linalg import Matrix
from .roots import SignedPerm, sp_compose, sp_identity
from .scalars import LaurentPoly


class WeylType(namedtuple("WeylType", "kind n")):
    """kind "A": the symmetric group S_n.  kind "B"/"D": W(B_n) / W(D_n)."""

    __slots__ = ()

    def __new__(cls, kind: str, n: int):
        if kind not in ("A", "B", "D"):
            raise UsageError(f"unknown Weyl type {kind!r}")
        if kind == "A" and n < 1:
            raise UsageError("S_n needs n >= 1")
        if kind in ("B", "D") and n < 0:
            raise UsageError("W(B_n)/W(D_n) need n >= 0")
        return super().__new__(cls, kind, n)

    def name(self) -> str:
        if self.kind == "A":
            return f"S_{self.n}"
        return f"W({self.kind}_{self.n})"


def group_order(wt: WeylType) -> int:
    if wt.kind == "A":
        return factorial(wt.n)
    if wt.kind == "B":
        return 2**wt.n * factorial(wt.n)
    if wt.n == 0:
        return 1
    return 2 ** (wt.n - 1) * factorial(wt.n)


def generators(wt: WeylType) -> tuple[SignedPerm, ...]:
    n = wt.n
    gens: list[SignedPerm] = []

    def transposition(k: int) -> SignedPerm:
        imgs = list(range(1, n + 1))
        imgs[k - 1], imgs[k] = imgs[k], imgs[k - 1]
        return tuple(imgs)

    if wt.kind == "A":
        for k in range(1, n):
            gens.append(transposition(k))
        return tuple(gens)
    if n == 0:
        return ()
    for k in range(1, n):
        gens.append(transposition(k))
    if wt.kind == "B":
        imgs = list(range(1, n + 1))
        imgs[n - 1] = -n
        gens.append(tuple(imgs))
    else:  # D
        if n == 1:
            return ()
        imgs = list(range(1, n + 1))
        imgs[n - 2], imgs[n - 1] = -n, -(n - 1)
        gens.append(tuple(imgs))
    return tuple(gens)


@lru_cache(maxsize=None)
def elements_with_length(wt: WeylType) -> dict[SignedPerm, int]:
    """BFS over the Cayley graph; graph distance equals Coxeter length."""
    gens = generators(wt)
    ident = sp_identity(max(wt.n, 0)) if wt.n else ()
    out = {ident: 0}
    frontier = [ident]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for w in frontier:
            for g in gens:
                u = sp_compose(g, w)
                if u not in out:
                    out[u] = depth
                    nxt.append(u)
        frontier = nxt
    assert len(out) == group_order(wt), (wt, len(out))
    return out


@lru_cache(maxsize=None)
def sorted_elements(wt: WeylType) -> tuple[SignedPerm, ...]:
    lens = elements_with_length(wt)
    return tuple(sorted(lens, key=lambda w: (lens[w], w)))


def qint(k: int) -> LaurentPoly:
    """The q-integer [k] = 1 + q + ... + q^(k-1)."""
    return LaurentPoly(tuple((e, 1) for e in range(k)))


def poincare_closed(wt: WeylType) -> LaurentPoly:
    """Closed-form Poincare polynomial of the group."""
    out = LaurentPoly.one()
    if wt.kind == "A":
        for r in range(1, wt.n):
            out = out * qint(r + 1)
    elif wt.kind == "B":
        for r in range(1, wt.n + 1):
            out = out * qint(2 * r)
    else:
        if wt.n >= 1:
            out = out * qint(wt.n)
            for r in range(1, wt.n):
                out = out * qint(2 * r)
    return out


def poincare(wt: WeylType, q=None):
    """The Poincare polynomial, or its exact value at the rational q."""
    p = poincare_closed(wt)
    return p if q is None else p.evaluate(Fraction(q))


def is_semisimple(wt: WeylType, q0) -> bool:
    q0 = Fraction(q0)
    return q0 != 0 and poincare(wt, q0) != 0


def canonical_words(wt: WeylType) -> dict[SignedPerm, tuple[int, ...]]:
    """A fixed reduced word per element (letters are generator indices, 0-based)."""
    gens = generators(wt)
    lens = elements_with_length(wt)
    ident = next(w for w, l in lens.items() if l == 0)
    words = {ident: ()}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for gi, g in enumerate(gens):
                u = sp_compose(g, w)
                if lens[u] == lens[w] + 1 and u not in words:
                    words[u] = (gi,) + words[w]
                    nxt.append(u)
        frontier = nxt
    return words


def hecke_regular_matrices(wt: WeylType, q0: Fraction) -> tuple[list[Matrix], list[Matrix]]:
    """(left, right) multiplication matrices of the generators T_i on the
    regular module, in the sorted element basis.  Entries are exact."""
    q0 = Fraction(q0)
    basis = sorted_elements(wt)
    index = {w: k for k, w in enumerate(basis)}
    lens = elements_with_length(wt)
    gens = generators(wt)
    size = len(basis)
    lefts: list[Matrix] = []
    rights: list[Matrix] = []
    for g in gens:
        lm = [[Fraction(0)] * size for _ in range(size)]
        rm = [[Fraction(0)] * size for _ in range(size)]
        for w in basis:
            col = index[w]
            sw = sp_compose(g, w)
            if lens[sw] > lens[w]:
                lm[index[sw]][col] = Fraction(1)
            else:
                lm[col][col] = q0 - 1
                lm[index[sw]][col] = q0
            ws = sp_compose(w, g)
            if lens[ws] > lens[w]:
                rm[index[ws]][col] = Fraction(1)
            else:
                rm[col][col] = q0 - 1
                rm[index[ws]][col] = q0
        lefts.append(lm)
        rights.append(rm)
    return lefts, rights
