"""Independent references and fixtures shared by the tests.

The program never calls these.  Each recomputes something the program
builds another way (a Poincare polynomial by enumeration, a braid-move
closure, standard tableaux by their own recursion, a matrix product over
Fraction, the Hecke structure constants over Q at q0) or makes a
deliberately broken input for a checker.
"""

from __future__ import annotations

import copy
from fractions import Fraction

from superhecke.domains import Family
from superhecke.groupoid import CoxeterGroupoid, SizeCapExceeded, Word, groupoid_for
from superhecke.roots import RootSystem, reflection_for_root
from superhecke.scalars import LaurentPoly
from superhecke.weylgroups import WeylType, elements_with_length


def perm_one_based(t: tuple[int, ...]) -> list[int]:
    return [v + 1 for v in t]


def inversions(t: tuple[int, ...]) -> int:
    return sum(1 for i in range(len(t)) for j in range(i + 1, len(t)) if t[i] > t[j])


def mat_mul(a, b):
    """The schoolbook product of two matrices of integers or Fractions, as
    Fractions."""
    m = len(b[0]) if b else 0
    return [
        [sum((a[i][t] * b[t][j] for t in range(len(b))), Fraction(0)) for j in range(m)]
        for i in range(len(a))
    ]


def laurent_from_json(data) -> LaurentPoly:
    """The inverse of scalars.laurent_to_json."""
    return LaurentPoly(tuple((int(e), int(c)) for e, c in data))


def poincare_enum(wt: WeylType) -> LaurentPoly:
    """Sum of q^length over the group, by direct enumeration."""
    counts: dict[int, int] = {}
    for length in elements_with_length(wt).values():
        counts[length] = counts.get(length, 0) + 1
    return LaurentPoly(tuple(sorted(counts.items())))


def standard_tableaux(shape: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """The standard Young tableaux of a partition, by where the largest
    entry sits: in a corner of the shape."""
    n = sum(shape)
    if n == 0:
        return [()]
    out = []
    for r, part in enumerate(shape):
        if r + 1 < len(shape) and shape[r + 1] == part:
            continue  # not a corner
        sub = tuple(p - (k == r) for k, p in enumerate(shape) if p - (k == r))
        for t in standard_tableaux(sub):
            rows = [list(row) for row in t] + [[]]
            rows[r].append(n)
            out.append(tuple(tuple(row) for row in rows if row))
    return sorted(out)


def braid_reaches_repeat(G: CoxeterGroupoid, word: Word, cap: int = 200_000) -> bool:
    """Whether some braid-move sequence yields adjacent equal letters.

    This is the computational content of the statement that a non-reduced
    word is braid-equivalent to one with a repeated adjacent letter.
    """

    def has_repeat(ls):
        return any(ls[k] == ls[k + 1] for k in range(len(ls) - 1))

    if has_repeat(word.letters):
        return True
    seen = {word.letters}
    stack = [word.letters]
    while stack:
        cur = stack.pop()
        for moved in G.braid_moves(Word(word.base, cur)):
            ls = moved.letters
            if ls in seen:
                continue
            if has_repeat(ls):
                return True
            if len(seen) >= cap:
                raise SizeCapExceeded("braid closure exceeded the cap")
            seen.add(ls)
            stack.append(ls)
    return False


def mutated_alpha(rs: RootSystem, i: int, a, root) -> RootSystem:
    """A copy of rs with alpha_{i,a} replaced by root and its reflection by
    root's, for the axiom checker to reject."""
    other = copy.copy(rs)
    other._simple = dict(rs._simple)
    other._reflection = dict(rs._reflection)
    other._coxeter = {}
    other._simple[(i, a)] = root
    other._reflection[(i, a)] = reflection_for_root(root, rs.dim)
    return other


def mutated_negated_alpha(rs: RootSystem, i: int, a) -> RootSystem:
    """A copy of rs with alpha_{i,a} and its reflection negated."""
    return mutated_alpha(rs, i, a, tuple(-c for c in rs.simple_root(i, a)))


def structure_constants_at(fam: Family, q0) -> dict:
    """The Hecke structure constants c^w_{u,v} at q = q0 != 0, computed over
    Q: the length-layer recursion f(u) f(v) = T_i (f(u') f(v)), with
    i = first[u] and u' = lgen[i][u], on Fraction scalars.  Rows are keyed by
    basis indices (u, v) and hold the nonzero (w, value) pairs, w ascending,
    as `structconst --scalar eval` writes them."""
    q0 = Fraction(q0)
    T = groupoid_for(fam).tables()

    def lmul(i, a, row):
        # T_{i,a} f(k) = f(s_i k) if that is longer or i moves a, else
        # (q0 - 1) f(k) + q0 f(s_i k)
        out: dict[int, Fraction] = {}
        for k, c in row:
            sk = T.lgen[i][k]
            if T.length[sk] > T.length[k] or T.tgt[sk] != a:
                out[sk] = out.get(sk, 0) + c
            else:
                out[k] = out.get(k, 0) + c * (q0 - 1)
                out[sk] = out.get(sk, 0) + c * q0
        return tuple(sorted((w, c) for w, c in out.items() if c))

    table = {}
    for u, a in enumerate(T.src):
        for v, b in enumerate(T.tgt):
            if b != a:
                continue
            if T.length[u] == 0:
                table[(u, v)] = ((v, Fraction(1)),)
            else:
                i = T.first[u]
                r = T.lgen[i][u]
                table[(u, v)] = lmul(i, T.tgt[r], table[(r, v)])
    return table
