"""The one elimination kernel: nullspace and int_coordinates on
IntEchelon; the integer matrix helpers against schoolbook references; the
span closure against the brute-force rank of all word products."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from superhecke.linalg import (
    IntEchelon,
    closure,
    from_int_matrix,
    int_coordinates,
    int_local_minimal_polynomial,
    int_mat_apply_poly,
    int_mat_mul,
    int_nullspace,
    nullspace,
    rank_exact,
    to_int_matrix,
)

from helpers import mat_mul

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 5))


@st.composite
def matrices(draw):
    """Small rational matrices; some rows are combinations of earlier ones."""
    cols = draw(st.integers(1, 6))
    row = st.lists(rationals, min_size=cols, max_size=cols)
    rows = draw(st.lists(row, min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        s, t = draw(rationals), draw(rationals)
        rows.append([s * x + t * y for x, y in zip(a, b)])
    return draw(st.permutations(rows))


def _vector_for(mat, data):
    """A vector in the row span of mat, or an arbitrary one."""
    if data.draw(st.booleans()):
        coeffs = [data.draw(rationals) for _ in mat]
        return [sum((c * r[j] for c, r in zip(coeffs, mat)), Fraction(0)) for j in range(len(mat[0]))]
    return data.draw(st.lists(rationals, min_size=len(mat[0]), max_size=len(mat[0])))


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_nullspace_annihilated_and_rank_nullity(mat):
    basis = nullspace(mat)
    for vec in basis:
        assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in mat)
    cols = len(mat[0])
    assert rank_exact(mat) + len(basis) == cols
    if basis:
        assert rank_exact(basis) == len(basis)


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_int_coordinates_reconstruct_or_reject(mat, data):
    # integer rows, possibly dependent; several vectors share one denominator
    basis = [[x.numerator for x in row] for row in mat]
    vecs = []
    for _ in range(data.draw(st.integers(1, 3))):
        vec = _vector_for(basis, data)
        scale = math.lcm(*(x.denominator for x in vec))
        vecs.append([int(x * scale) for x in vec])
    den, coords = int_coordinates(basis, vecs)
    assert den > 0 and len(coords) == len(vecs)
    for vec, x in zip(vecs, coords):
        if x is None:
            assert rank_exact(basis + [vec]) == rank_exact(basis) + 1
        else:
            assert len(x) == len(basis)
            assert [sum(c * r[j] for c, r in zip(x, basis)) for j in range(len(vec))] == [den * v for v in vec]


def test_int_coordinates_of_an_empty_or_zero_basis():
    assert int_coordinates([], [[], []]) == (1, [[], []])
    assert int_coordinates([[0, 0]], [[0, 0], [0, 1]]) == (1, [[0], None])


@settings(max_examples=200, deadline=None)
@given(matrices(), st.integers(1, 30))
def test_int_nullspace_is_the_nullspace_of_the_scaled_matrix(mat, scale):
    lcm = math.lcm(scale, *(x.denominator for row in mat for x in row))
    den, rows = int_nullspace([[int(x * lcm) for x in row] for row in mat])
    assert from_int_matrix(rows, den) == nullspace(mat)


@settings(max_examples=200, deadline=None)
@given(matrices(), st.integers(1, 30))
def test_integer_rows_span_like_their_fractions(mat, scale):
    # insert on integer multiples of the rows, all by one factor, gives the
    # same echelon decisions, rank and membership as insert on each row over
    # its own denominator
    lcm = math.lcm(scale, *(x.denominator for row in mat for x in row))
    exact, ints = IntEchelon(len(mat[0])), IntEchelon(len(mat[0]))
    for row in mat:
        as_ints = [int(x * lcm) for x in row]
        assert ints.insert(as_ints) == exact.insert(to_int_matrix([row])[1][0])
        assert as_ints == [int(x * lcm) for x in row]  # the input is not modified
    assert ints.rank == exact.rank == rank_exact(mat)
    assert ints.rows == exact.rows


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_int_mat_mul_is_mat_mul(mat, data):
    ints = [[x.numerator for x in row] for row in mat]
    other = data.draw(st.lists(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        min_size=len(ints[0]), max_size=len(ints[0]),
    ))
    expect = mat_mul([[Fraction(x) for x in row] for row in ints], [[Fraction(x) for x in row] for row in other])
    assert int_mat_mul(ints, other) == expect


sparse_integers = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-10**6, 10**6))


def _int_matrix(rows, cols):
    return st.lists(st.lists(sparse_integers, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.lists(sparse_integers, max_size=4), st.data())
def test_int_mat_apply_poly_is_schoolbook(n, coeffs, data):
    a = data.draw(_int_matrix(n, n))
    expect = [[Fraction(0)] * n for _ in range(n)]
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in coeffs:
        expect = [[e + c * p for e, p in zip(er, pr)] for er, pr in zip(expect, power)]
        power = mat_mul(power, a)
    out = int_mat_apply_poly(a, coeffs)
    assert out == expect
    assert all(type(x) is int for row in out for x in row)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.data())
def test_int_local_minimal_polynomial_annihilates_and_is_minimal(n, data):
    a = data.draw(_int_matrix(n, n))
    vec = data.draw(st.lists(sparse_integers, min_size=n, max_size=n))
    poly = int_local_minimal_polynomial(a, vec)
    # the primitive integer multiple of the monic polynomial
    assert poly[-1] > 0 and math.gcd(*poly) == 1
    krylov = [vec]
    for _ in range(len(poly) - 1):
        krylov.append([sum(x * y for x, y in zip(row, krylov[-1])) for row in a])
    # p(A) vec = 0, and the Krylov vectors below its degree are independent
    assert all(sum(c * v[i] for c, v in zip(poly, krylov)) == 0 for i in range(n))
    assert rank_exact(krylov[:-1]) == len(poly) - 1


def _schoolbook_rank(vectors) -> int:
    """Rank by Gaussian elimination over Fraction, without IntEchelon."""
    rows = [[Fraction(x) for x in v] for v in set(map(tuple, vectors))]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][c] / rows[rank][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@st.composite
def block_generators(draw):
    """One or two domains, d x d integer blocks with d <= 2, one or two
    letters, each sending every domain to a drawn target; one seed per domain,
    the identity or a drawn block (possibly zero)."""
    domains = list(range(draw(st.integers(1, 2))))
    d = draw(st.integers(1, 2))
    block = st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d), min_size=d, max_size=d)
    ident = [[int(r == c) for c in range(d)] for r in range(d)]
    gens = {
        i: {b: (draw(st.sampled_from(domains)), draw(block)) for b in domains}
        for i in range(1, draw(st.integers(1, 2)) + 1)
    }
    seeds = [(a, draw(st.one_of(st.just(ident), block))) for a in domains]
    return domains, d, gens, seeds


@settings(max_examples=150, deadline=None)
@given(block_generators())
def test_closure_counts_the_rank_of_all_word_products(case):
    domains, d, gens, seeds = case
    found = list(closure(seeds, gens, d * d))
    # every yielded product is its word's product, applied left to right
    seed_of = dict(seeds)
    for word, target, source, prod in found:
        dom, m = source, seed_of[source]
        for i in word:
            dom, t = gens[i][dom]
            m = mat_mul(t, m)
        assert (target, prod) == (dom, m)
    # brute force: all words up to the length by which every source's span
    # (of dimension <= |domains| d^2) must have stopped growing, with equal
    # (target, product) pairs merged since they have the same future
    products: dict[tuple, list] = {}
    for a, m in seeds:
        layer = {(a, tuple(map(tuple, m)))}
        for _ in range(len(domains) * d * d + 1):
            for b, m in layer:
                products.setdefault((b, a), []).append([x for row in m for x in row])
            layer = {
                (gens[i][b][0], tuple(map(tuple, mat_mul(gens[i][b][1], m))))
                for b, m in layer
                for i in gens
            }
    for pair, vectors in products.items():
        kept = [[x for row in p for x in row] for _, t, s, p in found if (t, s) == pair]
        assert len(kept) == _schoolbook_rank(kept) == _schoolbook_rank(vectors)
    assert {(t, s) for _, t, s, _ in found} <= set(products)


def test_closure_yields_seeds_first_and_nothing_into_a_full_pair():
    # width 1: each pair is full after its first product; (2,) from x is the
    # zero product, so only (1,) from y adds a pair, (x, y)
    gens = {1: {"x": ("x", [[3]]), "y": ("x", [[1]])}, 2: {"x": ("y", [[0]]), "y": ("y", [[5]])}}
    found = list(closure([("x", [[1]]), ("y", [[2]])], gens, 1))
    assert found == [((), "x", "x", [[1]]), ((), "y", "y", [[2]]), ((1,), "x", "y", [[2]])]
