"""Exact linear algebra over Q, on integer matrices.

Every routine here takes and returns integer matrices (IntMatrix); a result
over Q comes as integers over one common denominator, (L, rows).  Fractions
cross at two functions only: to_int_matrix brings a Fraction matrix in as
integers over its least common denominator (for a representation, once where
weylreps builds it: its seminormal irreducibles and its regular module), and
from_int_matrix takes integers back out.  rank_exact and nullspace accept
Fraction matrices too, each as one call of the integer kernel between those
edges.

There is one elimination kernel, IntEchelon: it eliminates fraction-free,
keeping each row gcd-reduced so intermediate growth stays bounded (the
integer-preserving scheme of Bareiss, 1968).  Rank, nullspaces, coordinates
and local minimal polynomials all run through it, and _reduced clears each
pivot from the other rows on integers; everything is exact.  There is one
span closure, closure: breadth first over words in block generators, one
IntEchelon per (target, source) pair of domains, keeping the products that
enlarge their pair's span.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

Matrix = list[list[Fraction]]
IntMatrix = list[list[int]]


def to_int_matrix(a: Matrix) -> tuple[int, IntMatrix]:
    """(D, D a) with D the least common denominator of a's entries."""
    d = lcm(*{x.denominator for row in a for x in row})
    if d == 1:
        return 1, [[x.numerator for x in row] for row in a]
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in a]


def from_int_matrix(a: IntMatrix, d: int) -> Matrix:
    """The Fraction matrix a / d."""
    zero = Fraction(0)
    return [[Fraction(x, d) if x else zero for x in row] for row in a]


def int_identity(n: int) -> IntMatrix:
    return [[int(r == c) for c in range(n)] for r in range(n)]


def int_mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """a b, built row by row as combinations of b's rows: a's zero entries
    cost nothing, which suits a sparse left factor such as a generator."""
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * width
        for x, brow in zip(row, b):
            if x:
                acc = [u + x * y for u, y in zip(acc, brow)]
        out.append(acc)
    return out


def kron(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The Kronecker product: entry (i rb + k, j cb + l) is a[i][j] b[k][l]."""
    return [[x * y for x in arow for y in brow] for arow in a for brow in b]


def _primitive(v: list[int]) -> list[int]:
    """v divided by the gcd of its entries (v itself when that is 0 or 1)."""
    g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


def _eliminate(v: list[int], row: list[int], p: int) -> list[int]:
    """The primitive integer combination of v and row that is zero at column p."""
    a, b = row[p], v[p]
    g = gcd(a, b)
    ca, cb = a // g, b // g
    # gcd-reduce after each elimination to keep entries bounded
    return _primitive([ca * x - cb * y for x, y in zip(v, row)])


class IntEchelon:
    """Incremental row echelon over Z (projectively), for rank and span tests.

    Rows are kept integer and gcd-reduced; insert() returns True when the
    vector enlarged the span.  Each row is also kept as its list of nonzero
    (column, entry) pairs, so eliminating with it costs its nonzeros, plus
    one pass over the vector when the vector must be scaled first.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []
        self._nonzeros: list[list[tuple[int, int]]] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, v: list[int]) -> list[int]:
        """v reduced by every row in insertion order, in place; the result
        is zero exactly when v is in the span."""
        for row, nonzeros, p in zip(self.rows, self._nonzeros, self.pivots):
            b = v[p]
            if b:
                a = row[p]
                g = gcd(a, b)
                ca, cb = a // g, b // g
                if ca != 1:
                    v = [ca * x for x in v]
                for c, y in nonzeros:
                    v[c] -= cb * y
                if ca != 1:
                    # v was scaled up: divide out its content again
                    v = _primitive(v)
        return v

    def insert(self, vec: Sequence[int]) -> bool:
        v = self._reduce(list(vec))
        for p, x in enumerate(v):
            if x:
                v = _primitive(v)
                if x < 0:
                    v = [-y for y in v]
                self.rows.append(v)
                self.pivots.append(p)
                self._nonzeros.append([(c, y) for c, y in enumerate(v) if y])
                return True
        return False

    def contains(self, vec: Sequence[int]) -> bool:
        return not any(self._reduce(list(vec)))


def closure(
    seeds: Iterable[tuple[Hashable, IntMatrix]],
    gens: Mapping[Hashable, Mapping[Hashable, tuple] | Sequence[tuple]],
    width: int,
) -> Iterator[tuple[tuple, Hashable, Hashable, IntMatrix]]:
    """Breadth-first span closure of the products of block generators.

    Each seed (a, m) is the product of the empty word from domain a to a.
    A product m from source a to target b is multiplied on the left by every
    letter's generator at b, gens[i][b] = (c, t) (gens[i] may be a list by
    domain position), letters in mapping order, giving the product t m of
    word + (i,) from a to c.  The products of one
    (target, source) pair, flattened to width entries, share one IntEchelon; a
    pair whose span is full is skipped before anything is multiplied.  Yields
    (word, target, source, product) for each product that enlarges its pair's
    span, seeds first; only those products are multiplied further.
    """
    echs: dict[tuple[Hashable, Hashable], IntEchelon] = {}

    def enlarges(target, source, m: IntMatrix) -> bool:
        return echs[target, source].insert([x for row in m for x in row])

    def open_pair(target, source) -> bool:
        return echs.setdefault((target, source), IntEchelon(width)).rank < width

    frontier = []
    for a, m in seeds:
        if open_pair(a, a) and enlarges(a, a, m):
            frontier.append(((), a, a, m))
            yield (), a, a, m
    while frontier:
        nxt = []
        for word, b, a, m in frontier:
            for i, per in gens.items():
                c, t = per[b]
                if open_pair(c, a):
                    prod = int_mat_mul(t, m)
                    if enlarges(c, a, prod):
                        nxt.append((word + (i,), c, a, prod))
                        yield nxt[-1]
        frontier = nxt


def _echelon(mat: IntMatrix) -> IntEchelon:
    """One IntEchelon holding every row of an integer matrix."""
    ech = IntEchelon(len(mat[0]) if mat else 0)
    for row in mat:
        ech.insert(row)
    return ech


def rank_exact(rows: Matrix) -> int:
    """The rank of a Fraction (or integer) matrix."""
    return _echelon(to_int_matrix(rows)[1]).rank


def _reduced(ech: IntEchelon) -> tuple[IntMatrix, list[int]]:
    """The echelon's rows and pivots, each pivot cleared from the other rows,
    last-inserted pivot first, so no cleared pivot is filled again.  Every
    row stays a primitive integer row with a positive pivot entry."""
    rows, pivots = ech.rows, ech.pivots
    for k in range(len(rows) - 1, 0, -1):
        p = pivots[k]
        for i in range(k):
            if rows[i][p]:
                rows[i] = _eliminate(rows[i], rows[k], p)
    return rows, pivots


def nullspace(mat: Matrix) -> list[list[Fraction]]:
    """Basis of the right kernel {x : mat @ x = 0} of a nonempty Fraction
    matrix: the basis of int_nullspace."""
    den, rows = int_nullspace(to_int_matrix(mat)[1])
    return from_int_matrix(rows, den)


def int_nullspace(mat: IntMatrix) -> tuple[int, IntMatrix]:
    """Basis of the right kernel of a nonempty integer matrix, as integer
    rows over one denominator L, the lcm of the reduced rows' pivot entries:
    one vector per free column c, L at c, 0 at the other free columns, and
    -row[c] L / row[p] at each pivot p."""
    cols = len(mat[0])
    rows, pivots = _reduced(_echelon(mat))
    den = lcm(*(row[p] for row, p in zip(rows, pivots)))
    pivot_set = set(pivots)
    basis = []
    for fc in range(cols):
        if fc in pivot_set:
            continue
        vec = [0] * cols
        vec[fc] = den
        for row, pc in zip(rows, pivots):
            if row[fc]:
                vec[pc] = -row[fc] * (den // row[pc])
        basis.append(vec)
    return den, basis


def int_coordinates(
    basis: IntMatrix, vecs: IntMatrix
) -> tuple[int, list[list[int] | None]]:
    """Coordinates of integer vectors in the row span of integer basis rows,
    over one common denominator: (L, X) with vecs[t] = sum_j X[t][j] basis[j] / L,
    and X[t] None when vecs[t] is not in the span.

    The basis is reduced once, keeping the transform: each row [basis[j] | e_j]
    goes into one IntEchelon and is reduced, giving rows [R_r | T_r] with
    R_r = T_r basis, a positive entry p_r at the pivot column P_r and zero at
    the other pivots.  A vector v in the span is sum_r v[P_r] / p_r R_r, so its
    coordinates are read at the pivot columns, and membership is checked
    exactly, on integers, at the other columns.  Rows whose pivot falls among
    the unit columns record dependencies of the basis and are left out, so a
    dependent basis gives one of the solutions.
    """
    k = len(basis)
    n = len(basis[0]) if k else 0
    ech = IntEchelon(n + k)
    for j, row in enumerate(basis):
        ech.insert([*row, *(int(i == j) for i in range(k))])
    rows, pivots = _reduced(ech)
    kept = [(row, p) for row, p in zip(rows, pivots) if p < n]
    if not kept:
        # the span is zero
        return 1, [None if any(v) else [0] * k for v in vecs]
    den = lcm(*(row[p] for row, p in kept))
    pivot_set = {p for _, p in kept}
    free = [c for c in range(n) if c not in pivot_set]
    # one product gives each vector's combination of the R_r at the free
    # columns (to check) and of the T_r (its coordinates), all times den
    combine = [[row[c] for c in free] + row[n:] for row, _ in kept]
    weights = [[v[p] * (den // row[p]) for row, p in kept] for v in vecs]
    out: list[list[int] | None] = []
    for v, comb in zip(vecs, int_mat_mul(weights, combine)):
        inside = all(x == den * v[c] for x, c in zip(comb, free))
        out.append(comb[len(free):] if inside else None)
    return den, out


def int_mat_apply_poly(mat: IntMatrix, coeffs: Sequence[int]) -> IntMatrix:
    """coeffs[0] + coeffs[1] M + ... evaluated at M = mat (ascending), on
    integers: the powers of M are built one product at a time."""
    n = len(mat)
    out = [[0] * n for _ in range(n)]
    power = int_identity(n)
    for k, c in enumerate(coeffs):
        if c:
            out = [[u + c * y for u, y in zip(ou, pu)] for ou, pu in zip(out, power)]
        if k < len(coeffs) - 1:
            power = int_mat_mul(power, mat)
    return out


def int_local_minimal_polynomial(mat: IntMatrix, vec: Sequence[int]) -> list[int]:
    """The polynomial p of least degree with p(mat) vec = 0, a divisor of the
    minimal polynomial of mat (equal to it for generic vec), as the primitive
    integer multiple with a positive leading coefficient, ascending.

    The Krylov vectors vec, mat vec, ... stay integers.  Each goes into one
    IntEchelon followed by a unit vector that records it; the first that
    depends on the earlier ones reduces to zero ahead of the unit columns,
    and its stored row holds the relation, which is p."""
    n = len(vec)
    ech = IntEchelon(2 * n + 1)
    cur = list(vec)
    for k in range(n + 1):
        ech.insert(cur + [int(i == k) for i in range(n + 1)])
        if ech.pivots[-1] >= n:
            break  # at the latest at k = n: n + 1 vectors in dimension n
        cur = [sum(x * y for x, y in zip(row, cur) if y) for row in mat]
    rel = ech.rows[-1][n:n + k + 1]
    return rel if rel[-1] > 0 else [-x for x in rel]
