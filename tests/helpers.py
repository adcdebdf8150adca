"""Independent references and fixtures shared by the tests.

The program never calls these.  Each recomputes something the program
builds another way (a Poincare polynomial by enumeration, a braid-move
closure, standard tableaux by their own recursion, a matrix product over
Fraction, Hecke products over Z[q, q^-1] and the structure constants over Q
at q0), states a definition of the paper that the program reads off the
root data instead (the block-sorting permutations tau+ / tau-; the groupoid's
multiplication, inverse, length and descents by counting roots, where the
program steps on integer keys and tests one simple root), or makes a
deliberately broken input for a checker.
"""

from __future__ import annotations

import copy
from fractions import Fraction
from functools import lru_cache
from math import lcm

from superhecke.domains import CDDomain, Domain, Family, act
from superhecke.groupoid import (
    CoxeterGroupoid,
    Element,
    SizeCapExceeded,
    Tables,
    Word,
    groupoid_for,
)
from superhecke.roots import (
    RootSystem,
    reflection_for_root,
    sp_apply,
    sp_compose,
    sp_identity,
    sp_invert,
)
from superhecke.scalars import LaurentPoly
from superhecke.weylgroups import WeylType, elements_with_length


# ---- the groupoid by its root-count definitions ----

# the zero of the groupoid semigroup: the product of elements whose inner
# domains differ
ZERO = None


def identity(G: CoxeterGroupoid, a: Domain) -> Element:
    return Element(a, a, sp_identity(G.roots.dim))


def generator(G: CoxeterGroupoid, i: int, a: Domain) -> Element:
    return Element(a, act(G.family, i, a), G.roots.reflection(i, a))


def multiply(x, y):
    """Product xy; ZERO when the inner domains differ."""
    if x is ZERO or y is ZERO or x.source != y.target:
        return ZERO
    return Element(y.source, x.target, sp_compose(x.smap, y.smap))


def inverse(w: Element) -> Element:
    return Element(w.target, w.source, sp_invert(w.smap))


def length(G: CoxeterGroupoid, w: Element) -> int:
    """Number of positive roots of the source sent to negative roots."""
    pos_t = G.roots.positive_roots(w.target)
    return sum(
        tuple(-c for c in sp_apply(w.smap, beta)) in pos_t
        for beta in G.roots.positive_roots(w.source)
    )


def right_descent(G: CoxeterGroupoid, w: Element, j: int) -> bool:
    """True iff w(alpha_{j, source}) is a negative root of the target."""
    img = sp_apply(w.smap, G.roots.simple_root(j, w.source))
    return tuple(-c for c in img) in G.roots.positive_roots(w.target)


def left_descent(G: CoxeterGroupoid, w: Element, i: int) -> bool:
    return right_descent(G, inverse(w), i)


def canonical_word(G: CoxeterGroupoid, w: Element) -> Word:
    """The reduced word that strips the smallest left descent first."""
    letters = []
    for _ in range(length(G, w)):
        i = next(i for i in range(1, G.family.rank + 1) if left_descent(G, w, i))
        letters.append(i)
        w = multiply(generator(G, i, w.target), w)
    return Word(w.source, tuple(letters))


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


def int_generators(mats) -> tuple[int, list]:
    """Fraction matrices as (D, [D g]), integers over their least common
    denominator D: the form the oracle's steps take their generators in."""
    d = lcm(*{x.denominator for g in mats for row in g for x in row})
    return d, [[[int(x * d) for x in row] for row in g] for g in mats]


def fraction_gens(rep) -> list:
    """An Irrep's generator matrices as Fractions, gens[k] / D."""
    return [[[Fraction(x, rep.D) for x in row] for row in g] for g in rep.gens]


# the classical types, q0 and oracle runs of the irreps sweep: pinned as one
# digest in test_golden.py, and checked for the integer form in test_weylreps.py
IRREPS_SWEEP_TYPES = [("A", n) for n in range(1, 7)] + [("B", n) for n in range(6)] + [
    ("D", n) for n in range(7)
]
IRREPS_SWEEP_Q0 = ["2", "1/3", "-2"]
IRREPS_SWEEP_ORACLE = [("A", 3), ("B", 2), ("D", 3)]  # seeds 0-2 at the default q0 = 2


def _blocks(family: Family) -> tuple[int, int]:
    if family.kind == "A":
        return family.m + 1, family.n + 1
    return family.m, family.n


def _parities_of(a: Domain) -> tuple[int, ...]:
    return a.parities if isinstance(a, CDDomain) else a


def tau_plus(family: Family, d: Domain) -> tuple[int, ...]:
    """Minimal-length permutation placing the sorted pattern 0..0 1..1 onto d.

    Returned 0-based: tau[i] is the image position of i.  Positions 0..m'-1 go
    to the zero positions of d in increasing order, the rest to the ones.
    """
    p = _parities_of(d)
    m1, n1 = _blocks(family)
    zeros = [k for k, v in enumerate(p) if v == 0]
    ones = [k for k, v in enumerate(p) if v == 1]
    if len(zeros) != m1 or len(ones) != n1:
        raise ValueError(f"domain {d} does not match block sizes ({m1}, {n1})")
    return tuple(zeros + ones)


def tau_minus(family: Family, d: Domain) -> tuple[int, ...]:
    """Minimal-length permutation placing the pattern 1..1 0..0 onto d.

    Positions 0..n'-1 go to the one positions of d in increasing order, the
    remaining n'..n'+m'-1 to the zero positions.
    """
    p = _parities_of(d)
    m1, n1 = _blocks(family)
    zeros = [k for k, v in enumerate(p) if v == 0]
    ones = [k for k, v in enumerate(p) if v == 1]
    if len(zeros) != m1 or len(ones) != n1:
        raise ValueError(f"domain {d} does not match block sizes ({m1}, {n1})")
    return tuple(ones + zeros)


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


@lru_cache(maxsize=None)
def positions(G: CoxeterGroupoid) -> dict:
    """Element -> its position in G.elements() and in G.tables(), for tests
    that name elements; the program reads positions off the tables alone."""
    return {w: k for k, w in enumerate(G.elements())}


def lmul(T: Tables, i: int, a: int, terms, q) -> dict:
    """T_{i,a} applied to (basis index, scalar) pairs at q, a Fraction or
    LaurentPoly.q(): f(k) of target a goes to f(s_i k) if that is longer or i
    moves a, else to (q - 1) f(k) + q f(s_i k).  Zeros are dropped."""
    out: dict = {}
    for k, c in terms:
        if T.tgt[k] != a:
            continue
        sk = T.lgen[i][k]
        if T.length[sk] > T.length[k] or T.tgt[sk] != a:
            out[sk] = out.get(sk, 0) + c
        else:
            out[k] = out.get(k, 0) + c * (q - 1)
            out[sk] = out.get(sk, 0) + c * q
    return {w: c for w, c in out.items() if c}


class Combination(dict):
    """An element of the Hecke algebra: {basis index: nonzero LaurentPoly}."""

    @property
    def is_zero(self) -> bool:
        return not self

    def __add__(self, other: "Combination") -> "Combination":
        out = Combination(self)
        for k, c in other.items():
            out[k] = out.get(k, 0) + c
            if not out[k]:
                del out[k]
        return out

    def scaled(self, c) -> "Combination":
        return Combination({k: y for k, x in self.items() if (y := x * c)})


class HeckeReference:
    """H_q(W) of one family over Z[q, q^-1], multiplied by `lmul` on the
    groupoid's tables: f(u) f(v) is u's canonical reduced word, from root
    counts, applied to f(v)."""

    def __init__(self, fam: Family):
        self.family = fam
        self.groupoid = G = groupoid_for(fam)
        self.tables = G.tables()
        self.q = LaurentPoly.q()
        self._domain = {a: j for j, a in enumerate(G.roots.domains)}

    def f(self, w) -> Combination:
        return Combination({positions(self.groupoid)[w]: LaurentPoly.one()})

    def e(self, a) -> Combination:
        return self.f(identity(self.groupoid, a))

    def t(self, i: int, a) -> Combination:
        return self.f(generator(self.groupoid, i, a))

    def unit(self) -> Combination:
        """Sum of all idempotents E_a."""
        out = Combination()
        for a in self.groupoid.roots.domains:
            out += self.e(a)
        return out

    def apply_word(self, word: Word, x: Combination) -> Combination:
        """Left-multiply x by T_{i1} ... T_{im, base}, the rightmost first."""
        doms = self.groupoid.word_domains(word)
        terms = x.items()
        for i, d in reversed(list(zip(word.letters, doms))):
            terms = lmul(self.tables, i, self._domain[d], terms, self.q).items()
        return Combination(terms)

    def product(self, x: Combination, y: Combination) -> Combination:
        T = self.tables
        total = Combination()
        for u, c in x.items():
            z = Combination({v: d for v, d in y.items() if T.tgt[v] == T.src[u]})
            word = canonical_word(self.groupoid, self.groupoid.elements()[u])
            total += self.apply_word(word, z).scaled(c)
        return total


def structure_constants_at(fam: Family, q0) -> dict:
    """The Hecke structure constants c^w_{u,v} at q = q0 != 0, computed over
    Q: the length-layer recursion f(u) f(v) = T_i (f(u') f(v)), with
    i = first[u] and u' = lgen[i][u], on Fraction scalars.  Rows are keyed by
    basis indices (u, v) and hold the nonzero (w, value) pairs, w ascending,
    as `structconst --scalar eval` writes them."""
    q0 = Fraction(q0)
    T = groupoid_for(fam).tables()
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
                table[(u, v)] = tuple(sorted(lmul(T, i, T.tgt[r], table[(r, v)], q0).items()))
    return table
