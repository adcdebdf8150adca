"""Irreducible representations of the classical Iwahori-Hecke algebras
H_q(S_n), H_q(W(B_n)), H_q(W(D_n)), as integer matrices over one denominator.

Type B is built in seminormal form on standard bitableaux, and type A as
type B on (lam, ()) without its special generator; type D restricts the
two-parameter type-B construction at its first parameter set to 1 and splits
each symmetric label (lam, lam) into the two eigenspaces of the swap
(S, T) -> (T, S) of its bitableaux.  An independent
oracle, split_regular_module, decomposes the right regular module by minimal
polynomial kernels of random left multiplications, with the minimal
polynomial factored over Q by factor.factor_list; the two routes are
compared up to equivalence in the test-suite.

An Irrep's gens[k] is D times generator k, for the least such D.  Fractions
become integers once per irrep, in _type_b_seminormal, and once per oracle
run, for the regular module, and come back only when cli prints the
matrices; a step that changes the scale (type A dropping u_0, type D's
u v u, a restriction) returns to the least D.  Products of generator words
multiply these integers, so a word of length l gives D^l times its true
product, and only a trace is divided back.
The oracle's word basis, its Burnside test and its spin-up are one span
closure, linalg.closure, over the products of generator words.  The random
element, its local minimal polynomial, the factors applied to it, their
kernels, every subspace basis and restriction to it, and the multiplicities
are integer computations in linalg.  A subspace basis is kept as integer
rows, each vector times one factor common to the whole basis: that factor
changes no restricted matrix and no spun-up span, where a factor per vector
would conjugate the matrices.

Inside a piece the oracle handles each irreducible once: a random vector in
the span of the irreducibles already found there is passed over, without a
spin-up, a restriction, a Burnside test or a trace vector.  That is sound:
the span is a direct sum of simple modules, so any simple submodule of the
vector's spin-up is isomorphic to one of them and has the key, dimension and
trace vector, of a class already kept.  The vector ends its slice's draws as
a spun-up one does, so the random draws, and the output, stay the same.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from typing import NamedTuple, Sequence

from .domains import UsageError
from .factor import factor_list
from .linalg import (
    IntEchelon,
    IntMatrix,
    Matrix,
    closure,
    int_coordinates,
    int_identity,
    int_local_minimal_polynomial,
    int_mat_apply_poly,
    int_mat_mul,
    int_nullspace,
    to_int_matrix,
)
from .tableaux import (
    BiTableau,
    bipartitions,
    bitab_position,
    is_standard,
    partitions,
    standard_bitableaux,
    swap_entries,
)
from .weylgroups import (
    WeylType,
    canonical_words,
    hecke_regular_matrices,
    is_semisimple,
    qint,
)


class Irrep(NamedTuple):
    """One irreducible representation: a label, its dimension, and one
    integer matrix per algebra generator (indices 1..rank, special node last
    for B/D): generator k is gens[k] / D, gcd(D, every entry) = 1.  Fractions
    cross only where it is built, from seminormal coefficients or the regular
    module, and where cli prints it."""

    label: object
    dim: int
    q0: Fraction
    D: int
    gens: tuple[IntMatrix, ...]


class SplitComponent(NamedTuple):
    irrep: Irrep
    multiplicity: int


def coxeter_matrix(wt: WeylType) -> dict[tuple[int, int], int]:
    """Braid exponents m(i,j) of the generators, special-node-last convention."""
    n = wt.n
    rank = n - 1 if wt.kind == "A" else (n if n else 0)
    if wt.kind == "D" and n == 1:
        rank = 0
    m: dict[tuple[int, int], int] = {}
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            m[(i, j)] = 2
    if wt.kind == "A":
        for i in range(1, rank):
            m[(i, i + 1)] = 3
    elif wt.kind == "B":
        for i in range(1, rank - 1):
            m[(i, i + 1)] = 3
        if rank >= 2:
            m[(rank - 1, rank)] = 4
    else:
        for i in range(1, rank - 1):
            m[(i, i + 1)] = 3
        if rank >= 3:
            m[(rank - 2, rank)] = 3
    return m


def _block_coeff(d: int, q0: Fraction) -> Fraction:
    """Diagonal seminormal coefficient (q-1) ct(i+1) / (ct(i+1) - ct(i)) for
    contents in the ratio ct(i+1) / ct(i) = q0^d, d != 0, with the common
    factor q0 - 1 cancelled: q0^d / [d] for d > 0 and -1 / [-d] for d < 0.
    At q0 = 1 this is 1/d."""
    if d > 0:
        return q0**d / qint(d).evaluate(q0)
    return -1 / qint(-d).evaluate(q0)


def _bitab_content(bt: BiTableau, k: int, Q: Fraction, q0: Fraction) -> Fraction:
    comp, r, c = bitab_position(bt, k)
    base = q0 ** (c - r)
    return Q * base if comp == 0 else -base


def _type_b_seminormal(pair, Q: Fraction, q0: Fraction) -> tuple[int, tuple[int, tuple]]:
    """Two-parameter seminormal matrices on standard bitableaux of (lam, mu),
    as (dim, (D, [D g])) over their least common denominator D.

    Returns generators in special-first order u_0, u_1, ..., u_{n-1} where u_0
    satisfies (u_0 - Q)(u_0 + 1) = 0 and acts on entry 1, and u_i swaps the
    entries i, i+1.
    """
    n = sum(pair[0]) + sum(pair[1])
    if n == 0:
        return 1, (1, ())
    tabs = standard_bitableaux(pair)
    index = {t: k for k, t in enumerate(tabs)}
    dim = len(tabs)
    # the coefficients are Fractions, the zeros and the -1 entries ints
    u0 = [[0] * dim for _ in range(dim)]
    for t in tabs:
        comp, _, _ = bitab_position(t, 1)
        u0[index[t]][index[t]] = Q if comp == 0 else -1
    gens: list[Matrix] = [u0]
    for i in range(1, n):
        mat = [[0] * dim for _ in range(dim)]
        for t in tabs:
            col = index[t]
            ci = bitab_position(t, i)
            cj = bitab_position(t, i + 1)
            if ci[0] == cj[0] and ci[1] == cj[1]:
                mat[col][col] = q0
                continue
            if ci[0] == cj[0] and ci[2] == cj[2]:
                mat[col][col] = -1
                continue
            if ci[0] == cj[0]:
                a = _block_coeff((cj[2] - cj[1]) - (ci[2] - ci[1]), q0)
            else:
                # contents of opposite signs: the denominator stays nonzero at q0 = 1
                ct_i = _bitab_content(t, i, Q, q0)
                ct_j = _bitab_content(t, i + 1, Q, q0)
                a = (q0 - 1) * ct_j / (ct_j - ct_i)
            t2 = swap_entries(t, i, i + 1)
            assert is_standard(t2[0]) and is_standard(t2[1])
            mat[col][col] = a
            mat[index[t2]][col] = 1 + a
        gens.append(mat)
    # here they become integers over one denominator, once
    d, rows = to_int_matrix([row for g in gens for row in g])
    return dim, (d, tuple(rows[k:k + dim] for k in range(0, len(rows), dim)))


def _least_denominator(d: int, gens: Sequence[IntMatrix]) -> tuple[int, tuple[IntMatrix, ...]]:
    """Integer matrices over d, as the same matrices over their least common
    denominator: d and every entry divided by their gcd."""
    g = gcd(d, *(x for m in gens for row in m for x in row))
    if g > 1:
        gens = [[[x // g for x in row] for row in m] for m in gens]
    return d // g, tuple(gens)


def _special_last_order(gens_special_first: Sequence[IntMatrix]) -> tuple[IntMatrix, ...]:
    """Relabel u_0,...,u_{n-1} into the package convention T_1..T_n, where the
    special generator sits at the last index (sign flip of the last coordinate)."""
    if not gens_special_first:
        return ()
    return tuple(list(gens_special_first[1:])[::-1] + [gens_special_first[0]])


def _require_semisimple(wt: WeylType, q0: Fraction) -> None:
    if not is_semisimple(wt, q0):
        raise UsageError(f"H_q({wt.name()}) is not semisimple at q0 = {q0}")


def irreps(wt: WeylType, q0: Fraction) -> list[Irrep]:
    """A complete set of pairwise non-equivalent irreducibles at generic q0."""
    q0 = Fraction(q0)
    _require_semisimple(wt, q0)
    out: list[Irrep] = []
    if wt.kind == "A":
        for lam in partitions(wt.n):
            # on (lam, ()) every entry lies in the first component, where
            # u_1 ... u_{n-1} are the S_n seminormal matrices
            dim, (d, gens) = _type_b_seminormal((lam, ()), q0, q0)
            out.append(Irrep(lam, dim, q0, *_least_denominator(d, gens[1:])))
        return out
    if wt.kind == "B":
        for pair in bipartitions(wt.n):
            dim, (d, gens) = _type_b_seminormal(pair, q0, q0)
            out.append(Irrep(pair, dim, q0, d, _special_last_order(gens)))
        return out
    return _type_d_irreps(wt.n, q0)


def _type_d_gens(pair, q0: Fraction) -> tuple[int, tuple[int, tuple[IntMatrix, ...]]]:
    """W(D_n) generator matrices on the (lam, mu) bitableau module at Q = 1,
    as (dim, (D, [D g])) over their least common denominator D."""
    n = sum(pair[0]) + sum(pair[1])
    dim, (d, special_first) = _type_b_seminormal(pair, Fraction(1), q0)
    b = _special_last_order(special_first)  # D b for the B_n generators T_1..T_n at Q = 1
    # the last generator u b_(n-1) u is (d u)(d b_(n-1))(d u) over d^3
    u, v = b[n - 1], b[n - 2]
    gens = [[[d * d * x for x in row] for row in g] for g in b[: n - 1]]
    return dim, _least_denominator(d**3, gens + [int_mat_mul(int_mat_mul(u, v), u)])


def _type_d_irreps(n: int, q0: Fraction) -> list[Irrep]:
    if n == 0:
        return [Irrep((((), ()), ""), 1, q0, 1, ())]
    if n == 1:
        return [Irrep((((1,), ()), ""), 1, q0, 1, ())]
    out: list[Irrep] = []
    seen_pairs = set()
    for pair in bipartitions(n):
        lam, mu = pair
        if (mu, lam) in seen_pairs:
            continue
        seen_pairs.add(pair)
        dim, scaled = _type_d_gens(pair, q0)
        if lam != mu:
            out.append(Irrep((pair, ""), dim, q0, *scaled))
        else:
            for tag, (subdim, subscaled) in zip("+-", _split_in_two(pair, scaled)):
                out.append(Irrep((pair, tag), subdim, q0, *subscaled))
    return out


def _split_in_two(pair, scaled: tuple[int, Sequence[IntMatrix]]):
    """The two halves of the (lam, lam) module: the eigenspaces of the swap
    J: (S, T) -> (T, S) of the two tableaux, for -1 and then +1.

    At Q = 1 the swap negates every content, and the type-B coefficients of
    u_1 ... u_{n-1} depend only on content ratios, while J u_0 J = -u_0; so J
    commutes with every W(D_n) generator, and with I it spans the commutant
    (Hoefsmit 1974), so the halves are irreducible and inequivalent.  No
    bitableau is fixed by J, so each half has half the dimension.  Each
    generator is checked to commute with J; the restriction checks that each
    half is invariant.  Generators and halves come as (D, [D g])."""
    tabs = standard_bitableaux(pair)
    index = {t: k for k, t in enumerate(tabs)}
    swap = [index[t[1], t[0]] for t in tabs]
    for g in scaled[1]:
        if any(g[swap[r]][swap[c]] != x for r, row in enumerate(g) for c, x in enumerate(row)):
            raise RuntimeError(f"the tableau swap does not commute with a generator of {pair}")
    d = len(tabs)
    halves = []
    for s in (-1, 1):
        # J - s I: 1 at column J r of row r, and -s at column r
        rows = [[int(c == swap[r]) - s * int(c == r) for c in range(d)] for r in range(d)]
        halves.append(_restrict(scaled, int_nullspace(rows)[1]))
    return halves


def _restrict(scaled: tuple[int, Sequence[IntMatrix]], rows: IntMatrix):
    """Restrict operators to the column span of the given basis vectors,
    written in that basis: column j of a generator's matrix holds the
    coordinates of its image of b_j.

    The operators g come as integers over one denominator, (D, [G = D g]),
    and the basis as integer rows B, the basis vectors times one common
    positive factor, which changes no coordinate.  The columns of G B^T are
    then the images D g b_j in the scale of B, and linalg.int_coordinates
    reads their coordinates in the rows of B over one denominator L, so each
    entry is an integer over L D, returned over the least denominator.  The
    same call checks exactly, on integers, that every image lies in the
    span; a span that is not invariant raises RuntimeError."""
    k = len(rows)
    d, ints = scaled
    cols = [list(col) for col in zip(*rows)]
    images = [list(col) for g in ints for col in zip(*int_mat_mul(g, cols))]
    den, coords = int_coordinates(rows, images)
    if any(c is None for c in coords):
        raise RuntimeError("subspace is not invariant")
    # coords[t k + j] is column j of generator t's matrix
    mats = [[list(row) for row in zip(*coords[t * k:(t + 1) * k])] for t in range(len(ints))]
    return k, _least_denominator(den * d, mats)


# ---- verification helpers ----


def verify_irrep_relations(wt: WeylType, rep: Irrep) -> bool:
    """Quadratic plus braid relations, matrix-exactly, on the integer
    generators t = D g.  With q0 = a / b the quadratic relation reads
    b t^2 = (a - b) D t + a D^2 I; both sides of a braid relation carry
    D^m."""
    a, b = rep.q0.numerator, rep.q0.denominator
    d, ts = rep.D, rep.gens
    for t in ts:
        rhs = [
            [(a - b) * d * x + (a * d * d if r == c else 0) for c, x in enumerate(row)]
            for r, row in enumerate(t)
        ]
        if [[b * x for x in row] for row in int_mat_mul(t, t)] != rhs:
            return False
    for (i, j), m in coxeter_matrix(wt).items():
        ti, tj = ts[i - 1], ts[j - 1]
        x = y = int_identity(rep.dim)
        for k in range(m):
            x = int_mat_mul(x, ti if k % 2 == 0 else tj)
            y = int_mat_mul(y, tj if k % 2 == 0 else ti)
        if x != y:
            return False
    return True


def words_up_to(rank: int, maxlen: int):
    out = [()]
    layer = [()]
    for _ in range(maxlen):
        nxt = []
        for w in layer:
            for i in range(rank):
                nxt.append(w + (i,))
        out.extend(nxt)
        layer = nxt
    return out


def _trace(m: IntMatrix) -> int:
    return sum(row[k] for k, row in enumerate(m))


def trace_vector(rep: Irrep, words) -> tuple[Fraction, ...]:
    """Traces of the generator products over the words.

    Each product is the product of its word's prefix times one generator, so
    a prefix-closed list costs one product per word; a word whose prefix was
    not seen yet is multiplied out in full."""
    d, gens = rep.D, rep.gens
    prods: dict[tuple[int, ...], IntMatrix] = {(): int_identity(rep.dim)}
    traces = []
    for w in words:
        w = tuple(w)
        m = prods.get(w)
        if m is None:
            m = prods.get(w[:-1])
            start = len(w) - 1
            if m is None:
                m, start = prods[()], 0
            for i in w[start:]:
                m = int_mat_mul(m, gens[i])
            prods[w] = m
        traces.append(Fraction(_trace(m), d ** len(w)))
    return tuple(traces)


def pairwise_distinct_traces(reps: list[Irrep], rank: int, maxlen: int = 2) -> bool:
    """Distinguish representations by trace vectors, extending the word length
    on collision; False only if separation fails outright."""
    limit = max(maxlen, 1)
    while limit <= 6:
        words = words_up_to(rank, limit)
        vecs = [(rep.dim, trace_vector(rep, words)) for rep in reps]
        if len(set(vecs)) == len(vecs):
            return True
        limit += 1
    return False


def character_on_group(wt: WeylType, rep: Irrep) -> tuple[Fraction, ...]:
    """Traces over one fixed reduced word per group element; a complete
    equivalence invariant for semisimple specializations."""
    return trace_vector(rep, sorted(canonical_words(wt).values()))


# ---- the regular-module splitting oracle ----


def split_regular_module(
    left_mults: Sequence[Matrix],
    right_mults: Sequence[Matrix],
    q0: Fraction,
    seed: int = 0,
) -> list[SplitComponent]:
    """Decompose the right regular module into irreducibles.

    left_mults/right_mults are the generator multiplication matrices on the
    regular module.  Splitting uses kernels of minimal-polynomial factors of a
    random left multiplication (these commute with the right action, so the
    kernels are submodules), then isolates one irreducible inside each piece
    via generator eigenspace slices; classes are merged by trace equality.

    The words spanning the right action, and the regular trace over them, do
    not depend on the random element: they are computed once per call and
    shared by every attempt, and so are the generators, which become integers
    over each action's least common denominator here, once.
    Each retry's reason is logged at DEBUG on the "superhecke" logger.
    Raises SplittingBudgetExceeded when _MAX_RETRIES random elements all
    fail.
    """
    q0 = Fraction(q0)
    if not left_mults:
        triv = Irrep("trivial", 1, q0, 1, ())
        return [SplitComponent(triv, 1)]
    # imported here so that commands without the oracle do not load logging
    import logging

    log = logging.getLogger("superhecke")
    dim = len(left_mults[0])
    # the regular module's Fraction matrices become integers here, once
    left, right = (to_int_matrix([row for g in mats for row in g]) for mats in (left_mults, right_mults))
    left, right = ((d, [rows[k:k + dim] for k in range(0, len(rows), dim)]) for d, rows in (left, right))
    words, reg_trace = _algebra_word_basis(right, dim)
    rng = random.Random(seed)
    last_error: Exception | None = None
    for attempt in range(1, _MAX_RETRIES + 1):
        try:
            return _split_once(left, right, q0, rng, dim, words, reg_trace)
        except _RetrySplit as exc:
            log.debug("splitting oracle: attempt %d retries: %s", attempt, exc)
            last_error = exc
    raise SplittingBudgetExceeded(
        f"the splitting oracle gave up after {_MAX_RETRIES} random elements "
        f"(the last: {last_error})"
    )


class SplittingBudgetExceeded(UsageError):
    """No random element split the module within the oracle's budget."""


class _RetrySplit(RuntimeError):
    pass


_MAX_RETRIES = 8  # random elements the oracle tries before it gives up
_MAX_WORD = 3  # the longest word in a random left element


def _random_left_element(left, rng, dim) -> tuple[IntMatrix, int]:
    """scale + sum of c_t times random generator words, as the integer matrix
    D^_MAX_WORD times it and that denominator, for the generators scaled as
    left = (D, [D g]): a word of length l enters as D^(_MAX_WORD - l) times
    its scaled product."""
    d, gens = left
    top = d**_MAX_WORD
    scale = rng.randint(1, 5)
    out = [[scale * top if r == c else 0 for c in range(dim)] for r in range(dim)]
    for _ in range(2 * len(gens) + 2):
        word_len = rng.randint(1, _MAX_WORD)
        m = int_identity(dim)
        for _ in range(word_len):
            m = int_mat_mul(m, gens[rng.randrange(len(gens))])
        c = rng.randint(-4, 4)
        if not c:
            continue
        f = c * d ** (_MAX_WORD - word_len)
        out = [[a + f * b for a, b in zip(ra, rb)] for ra, rb in zip(out, m)]
    return out, top


def _one_domain(gens: Sequence[IntMatrix]) -> dict:
    """Generators as linalg.closure takes them, letters 0, 1, ... on one
    domain 0."""
    return {i: {0: (0, g)} for i, g in enumerate(gens)}


def _algebra_word_basis(scaled, dim) -> tuple[list[tuple[int, ...]], list[Fraction]]:
    """Words whose products span the image algebra of the generators, found by
    linalg.closure, plus the exact trace of each product.  Traces over these
    words are a complete equivalence invariant for semisimple modules.  The
    word list is prefix-closed.

    The closure runs on the transposes of the generators, which come as
    scaled = (D, [D g]): the product g_1 ... g_l of a word is the transpose
    of g_l^T ... g_1^T, a product of left factors, and transposing permutes
    the flattened entries and keeps the trace.  So the words, their order and
    their traces are those of the products g_1 ... g_l, each D^l times its
    true product; the echelon is projective, so it takes the same words as on
    the true products.  It stops once the products span all dim x dim
    matrices."""
    d, gens = scaled
    transposed = [[list(col) for col in zip(*g)] for g in gens]
    words: list[tuple[int, ...]] = []
    traces: list[Fraction] = []
    for w, _, _, m in closure([(0, int_identity(dim))], _one_domain(transposed), dim * dim):
        words.append(w)
        traces.append(Fraction(_trace(m), d ** len(w)))
    return words, traces


def _split_once(left, right, q0, rng, dim, words, reg_trace) -> list[SplitComponent]:
    """One attempt with a fresh random element.  left and right are the
    generators of the two actions as (D, [D g]); words and reg_trace are the
    right action's word basis and the regular module's traces over it.

    The element is a = m / den for an integer m, and the pieces are found on
    integers: p(m) probe = 0 for the local minimal polynomial p of m, so
    p(den x) is that of a, which is factored; a factor h of degree K is
    applied as den^K h(a) = sum h_k den^(K-k) m^k."""
    m, den = _random_left_element(left, rng, dim)
    probe = [rng.randint(-9, 9) for _ in range(dim)]
    rel = int_local_minimal_polynomial(m, probe)
    pieces: list[IntMatrix] = []
    for h, mult in factor_list([c * den**k for k, c in enumerate(rel)]):
        deg = len(h) - 1
        g = int_mat_apply_poly(m, [c * den ** (deg - k) for k, c in enumerate(h)])
        power = g
        for _ in range(mult - 1):
            power = int_mat_mul(power, g)
        _, kernel = int_nullspace(power)
        if kernel:
            pieces.append(kernel)
    if sum(len(p) for p in pieces) != dim:
        # the probe vector missed part of the spectrum
        raise _RetrySplit("primary components do not span the module")
    # collect pairwise inequivalent irreducibles from all pieces
    classes: dict[tuple, Irrep] = {}
    for basis in pieces:
        for _, rep in _extract_irreducibles(basis, right, q0, rng):
            key = (rep.dim, trace_vector(rep, words))
            classes.setdefault(key, rep)
    if sum(rep.dim**2 for rep in classes.values()) != dim:
        raise _RetrySplit(
            "extracted classes are incomplete "
            f"(sum of squares {sum(r.dim ** 2 for r in classes.values())} != {dim})"
        )
    # multiplicities from the exact character system against the regular
    # trace, all over one denominator
    keys = sorted(classes)
    _, (*chars, reg) = to_int_matrix([list(key[1]) for key in keys] + [reg_trace])
    den, (mults,) = int_coordinates(chars, [reg])
    if mults is None or any(c % den or c <= 0 for c in mults):
        raise _RetrySplit("character system has no positive integer solution")
    comps = [SplitComponent(classes[key], mult // den) for key, mult in zip(keys, mults)]
    if sum(c.irrep.dim * c.multiplicity for c in comps) != dim:
        raise _RetrySplit("component dimensions do not add up")
    comps.sort(key=lambda c: (c.irrep.dim, c.multiplicity))
    return [
        SplitComponent(c.irrep._replace(label=("split", idx)), c.multiplicity)
        for idx, c in enumerate(comps)
    ]


def _is_irreducible_split(scaled, dim: int) -> bool:
    """Burnside test: the image algebra of the generators, scaled = (D,
    [D g]), spans the full matrix algebra."""
    if dim == 1:
        return True
    if not scaled[1]:
        return False
    words, _ = _algebra_word_basis(scaled, dim)
    return len(words) == dim * dim


def _extract_irreducibles(basis, right, q0, rng) -> list[tuple[list, Irrep]]:
    """Irreducible submodules found inside the span of the basis vectors, a
    piece: each as its basis, in coordinates of the piece's basis, and the
    Irrep it carries.

    Generator eigenspace slices are spun up from random vectors; candidates
    passing the Burnside irreducibility test are kept.  A random vector in
    the span of the irreducibles found so far is passed over: every simple
    submodule of its spin-up is isomorphic to one found, so _split_once,
    which keeps the first Irrep of each class, would drop it (see the module
    docstring).  The irreducibles returned form a direct sum.  At least one
    is found, or the caller retries with a fresh random element.
    """
    k = len(basis)
    d, gens = scaled = _restrict(right, basis)[1]
    if not gens:
        if not k:
            return []
        # with no generators, any line is an irreducible submodule
        return [([[int(i == 0) for i in range(k)]], Irrep(("piece",), 1, q0, 1, ()))]
    # each slice's basis, and so each random vector, is taken on integers,
    # times one constant per slice: the spin-up's span and the matrices
    # written in its basis do not change with that constant
    slices: list[IntMatrix] = []
    for g in gens:
        for ev in (q0, Fraction(-1)):
            # g - ev, times D and the denominator of ev
            shifted = [
                [ev.denominator * x - (d * ev.numerator if i == j else 0) for j, x in enumerate(row)]
                for i, row in enumerate(g)
            ]
            _, sl = int_nullspace(shifted)
            if sl:
                slices.append(sl)
    slices.sort(key=len)
    slices.append([[rng.randint(-3, 3) for _ in range(k)] for _ in range(3)])
    found: list[tuple[list, Irrep]] = []
    span = IntEchelon(k)  # the irreducibles found so far
    for sl in slices:
        for _ in range(3):
            coeffs = [rng.randint(-3, 3) for _ in sl]
            v = [sum(c * row[idx] for c, row in zip(coeffs, sl)) for idx in range(k)]
            if not any(v):
                continue
            if not span.contains(v):
                _, sub = _spin_up(v, scaled)
                subdim, subscaled = _restrict(scaled, sub)
                if _is_irreducible_split(subscaled, subdim):
                    found.append((sub, Irrep(("piece",), subdim, q0, *subscaled)))
                    for b in sub:
                        span.insert(b)
            break
    if not found:
        raise _RetrySplit("no irreducible slice found")
    return found


def _spin_up(v: Sequence[int], scaled) -> tuple[int, IntMatrix]:
    """Smallest submodule containing the integer vector v, as an explicit
    basis: v, then each image of a basis vector under a generator that
    enlarges the span, found by linalg.closure on v as a column.

    The generators come scaled by their denominator, scaled = (D, [D g]), so
    the image under a word of length l is one integer column over D^l.  The
    basis is returned as integer rows over one denominator, D^l for the
    longest word: every row is its vector times that same factor."""
    d, gens = scaled
    found = list(closure([(0, [[x] for x in v])], _one_domain(gens), len(v)))
    top = len(found[-1][0])
    return d**top, [[x * d ** (top - len(w)) for (x,) in col] for w, _, _, col in found]


def split_regular_weyl(wt: WeylType, q0: Fraction, seed: int = 0) -> list[SplitComponent]:
    """The oracle applied to a classical Hecke algebra's regular module, which
    splits only where H_q(W) is semisimple: elsewhere a UsageError, as from
    irreps, before any splitting."""
    q0 = Fraction(q0)
    _require_semisimple(wt, q0)
    lefts, rights = hecke_regular_matrices(wt, q0)
    try:
        return split_regular_module(lefts, rights, q0, seed=seed)
    except SplittingBudgetExceeded as exc:
        raise SplittingBudgetExceeded(f"H_q({wt.name()}) at q0 = {q0}: {exc}") from None
