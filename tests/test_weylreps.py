"""Classical Weyl groups, Poincare polynomials, seminormal irreducibles, and
the regular-module splitting oracle."""

import logging
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superhecke import weylreps
from superhecke.linalg import (
    IntEchelon,
    from_int_matrix,
    int_identity,
    int_mat_mul,
    int_nullspace,
    rank_exact,
    to_int_matrix,
)
from superhecke.scalars import LaurentPoly
from superhecke.tableaux import (
    bipartitions,
    partitions,
    standard_bitableaux,
)
from superhecke.weylgroups import (
    WeylType,
    elements_with_length,
    group_order,
    hecke_regular_matrices,
    is_semisimple,
    poincare,
    poincare_closed,
)
from superhecke.weylreps import (
    character_on_group,
    irreps,
    pairwise_distinct_traces,
    split_regular_weyl,
    trace_vector,
    verify_irrep_relations,
    words_up_to,
)

from helpers import (
    IRREPS_SWEEP_ORACLE,
    IRREPS_SWEEP_Q0,
    IRREPS_SWEEP_TYPES,
    fraction_gens,
    int_generators,
    mat_mul,
    poincare_enum,
    standard_tableaux,
)

Q = LaurentPoly.q()


def test_group_orders():
    assert group_order(WeylType("A", 4)) == 24
    assert group_order(WeylType("B", 3)) == 48
    assert group_order(WeylType("D", 4)) == 192
    assert group_order(WeylType("B", 0)) == 1
    assert group_order(WeylType("D", 1)) == 1
    for wt in [WeylType("A", 3), WeylType("B", 2), WeylType("D", 3)]:
        assert len(elements_with_length(wt)) == group_order(wt)


def test_poincare_closed_forms():
    # S3: (1+q)(1+q+q^2)
    assert poincare_closed(WeylType("A", 3)) == (1 + Q) * (1 + Q + Q**2)
    # W(B2): (1+q)^2 (1+q^2)
    assert poincare_closed(WeylType("B", 2)) == (1 + Q) * (1 + Q) * (1 + Q**2)
    # trivial groups
    assert poincare_closed(WeylType("D", 1)) == LaurentPoly.one()
    assert poincare_closed(WeylType("B", 0)) == LaurentPoly.one()
    assert poincare_closed(WeylType("A", 1)) == LaurentPoly.one()


def test_poincare_matches_enumeration():
    cases = [("A", 2), ("A", 3), ("A", 4), ("B", 1), ("B", 2), ("B", 3),
             ("D", 2), ("D", 3), ("D", 4)]
    for kind, n in cases:
        wt = WeylType(kind, n)
        closed = poincare_closed(wt)
        assert closed == poincare_enum(wt)
        # nonnegative coefficients, degree = number of positive roots
        assert all(c > 0 for _, c in closed.items())
        assert closed.evaluate(Fraction(1)) == group_order(wt)


def test_degree_is_positive_root_count():
    assert poincare_closed(WeylType("A", 4)).items()[-1][0] == 6
    assert poincare_closed(WeylType("B", 3)).items()[-1][0] == 9
    assert poincare_closed(WeylType("D", 4)).items()[-1][0] == 12


def test_semisimplicity():
    assert is_semisimple(WeylType("A", 3), Fraction(2))
    assert poincare(WeylType("A", 3), Fraction(2)) == 21
    assert not is_semisimple(WeylType("A", 3), Fraction(-1))
    assert not is_semisimple(WeylType("A", 3), Fraction(0))


def test_tableau_counts():
    assert len(standard_tableaux((2, 1))) == 2
    assert len(standard_tableaux((3, 1))) == 3
    assert [len(standard_tableaux(p)) for p in partitions(4)] == [1, 3, 2, 3, 1]
    assert len(bipartitions(2)) == 5
    assert len(standard_bitableaux(((1,), (1,)))) == 2


def _assert_least_integer_form(rep):
    assert type(rep.D) is int and rep.D >= 1
    entries = [x for g in rep.gens for row in g for x in row]
    assert all(type(x) is int for x in entries)
    assert gcd(rep.D, *entries) == 1
    assert len(rep.gens) == 0 or all(len(g) == len(g[0]) == rep.dim for g in rep.gens)


@pytest.mark.parametrize("kind, n", IRREPS_SWEEP_TYPES)
def test_irreps_are_integers_over_their_least_denominator(kind, n):
    # generator k is gens[k] / D with gcd(D, every entry) = 1
    for q0 in IRREPS_SWEEP_Q0:
        for rep in irreps(WeylType(kind, n), Fraction(q0)):
            _assert_least_integer_form(rep)


@pytest.mark.parametrize("kind, n", IRREPS_SWEEP_ORACLE)
def test_oracle_irreps_are_integers_over_their_least_denominator(kind, n):
    for seed in range(3):
        for comp in split_regular_weyl(WeylType(kind, n), Fraction(2), seed=seed):
            _assert_least_integer_form(comp.irrep)


IRREP_CASES = [
    ("A", 2, 2), ("A", 3, 6), ("A", 4, 24),
    ("B", 1, 2), ("B", 2, 8),
    ("D", 1, 1), ("D", 2, 4), ("D", 3, 24),
]


@pytest.mark.parametrize("kind,n,order", IRREP_CASES)
def test_irreps_complete_and_exact(kind, n, order):
    wt = WeylType(kind, n)
    reps = irreps(wt, Fraction(2))
    assert sum(r.dim**2 for r in reps) == order
    for r in reps:
        assert verify_irrep_relations(wt, r)
    rank = max((len(r.gens) for r in reps), default=0)
    assert pairwise_distinct_traces(reps, rank)


def test_s2_irreps_explicit():
    reps = irreps(WeylType("A", 2), Fraction(2))
    values = sorted(Fraction(r.gens[0][0][0], r.D) for r in reps)
    assert values == [Fraction(-1), Fraction(2)]


def test_s3_dims_and_b2_dims():
    assert sorted(r.dim for r in irreps(WeylType("A", 3), Fraction(2))) == [1, 1, 2]
    assert sorted(r.dim for r in irreps(WeylType("B", 2), Fraction(2))) == [1, 1, 1, 1, 2]


def test_dims_equal_tableau_counts():
    for lam, rep in zip(partitions(4), irreps(WeylType("A", 4), Fraction(2))):
        assert rep.label == lam
        assert rep.dim == len(standard_tableaux(lam))
    for pair, rep in zip(bipartitions(2), irreps(WeylType("B", 2), Fraction(2))):
        assert rep.label == pair
        assert rep.dim == len(standard_bitableaux(pair))


def test_d_restriction_dims():
    # unordered pairs, halved when the two partitions agree
    reps = irreps(WeylType("D", 2), Fraction(2))
    assert [r.dim for r in reps] == [1, 1, 1, 1]
    tags = [r.label[1] for r in reps if r.label[0] == ((1,), (1,))]
    assert sorted(tags) == ["+", "-"]
    reps3 = irreps(WeylType("D", 3), Fraction(2))
    assert sorted(r.dim for r in reps3) == [1, 1, 2, 3, 3]


@pytest.mark.parametrize("pair", [((2,), (2,)), ((1, 1), (1, 1))], ids=str)
def test_split_refuses_generators_that_do_not_commute_with_the_swap(pair):
    # one diagonal entry of one W(D_4) generator moved: the swap check, not
    # the invariance check of _restrict, must refuse it
    _, (d, gens) = weylreps._type_d_gens(pair, Fraction(2))
    for t in range(len(gens)):
        broken = [[list(row) for row in g] for g in gens]
        broken[t][0][0] += 1
        with pytest.raises(RuntimeError, match="the tableau swap does not commute"):
            weylreps._split_in_two(pair, (d, broken))


@pytest.mark.parametrize(
    "n, q0", [(4, Fraction(2)), (4, Fraction(5, 7)), (6, Fraction(2))], ids=str
)
def test_swap_halves_are_irreducible_and_inequivalent(n, q0):
    # what the swap split takes from the theory and does not check at run
    # time: each half has half the dimension and passes the Burnside test, and
    # the two halves of a pair differ in their traces; W(D_6)'s 40-dimensional
    # halves are left out for the cost of their Burnside test
    halves: dict = {}
    for rep in irreps(WeylType("D", n), q0):
        if rep.label[1] and rep.dim <= 10:
            halves.setdefault(rep.label[0], []).append(rep)
    assert len(halves) == 2
    words = words_up_to(n, 3)
    for pair, (plus, minus) in halves.items():
        full = len(standard_bitableaux(pair))
        assert (plus.label[1], minus.label[1]) == ("+", "-")
        for half in (plus, minus):
            assert half.dim == full // 2
            assert weylreps._is_irreducible_split((half.D, half.gens), half.dim)
        assert trace_vector(plus, words) != trace_vector(minus, words)


def test_irreps_requires_semisimple():
    with pytest.raises(ValueError):
        irreps(WeylType("A", 3), Fraction(-1))


def test_irreps_at_other_generic_points():
    for q0 in (Fraction(3), Fraction(5, 7)):
        reps = irreps(WeylType("B", 2), q0)
        assert sum(r.dim**2 for r in reps) == 8
        for r in reps:
            assert verify_irrep_relations(WeylType("B", 2), r)


@pytest.mark.parametrize("kind, n", [("A", 3), ("A", 4), ("B", 3), ("D", 4)])
def test_irreps_at_q1(kind, n):
    # q0 = 1 is semisimple: the seminormal matrices are the group's own
    # (Young's form, diagonal 1/d), square to 1 and satisfy the braid relations
    wt = WeylType(kind, n)
    assert is_semisimple(wt, Fraction(1))
    reps = irreps(wt, Fraction(1))
    assert sum(r.dim**2 for r in reps) == group_order(wt)
    for r in reps:
        assert verify_irrep_relations(wt, r)
        ident = [[Fraction(int(i == j)) for j in range(r.dim)] for i in range(r.dim)]
        for g in fraction_gens(r):
            assert mat_mul(g, g) == ident


ORACLE_CASES = [("A", 2), ("A", 3), ("A", 4), ("B", 1), ("B", 2), ("D", 2), ("D", 3)]


@pytest.mark.parametrize("kind,n", ORACLE_CASES)
def test_split_oracle_agrees_with_seminormal(kind, n):
    _assert_oracle_agrees(WeylType(kind, n), Fraction(2), seed=7)


def _assert_oracle_agrees(wt, q0, seed):
    comps = split_regular_weyl(wt, q0, seed=seed)
    reps = irreps(wt, q0)
    # regular module: every class appears with multiplicity = its dimension
    assert all(c.multiplicity == c.irrep.dim for c in comps)
    assert sum(c.irrep.dim * c.multiplicity for c in comps) == group_order(wt)
    # equivalence matching through characters over one word per group element
    built = sorted((r.dim, character_on_group(wt, r)) for r in reps)
    split = sorted((c.irrep.dim, character_on_group(wt, c.irrep)) for c in comps)
    assert built == split
    # oracle output itself satisfies the defining relations
    for c in comps:
        assert verify_irrep_relations(wt, c.irrep)


def test_split_oracle_trivial_algebra():
    comps = split_regular_weyl(WeylType("A", 1), Fraction(2))
    assert len(comps) == 1
    assert comps[0].irrep.dim == 1 and comps[0].multiplicity == 1


def test_split_oracle_seed_determinism():
    a = split_regular_weyl(WeylType("B", 2), Fraction(2), seed=11)
    b = split_regular_weyl(WeylType("B", 2), Fraction(2), seed=11)
    assert [(c.irrep.dim, c.multiplicity, c.irrep.gens) for c in a] == [
        (c.irrep.dim, c.multiplicity, c.irrep.gens) for c in b
    ]


def test_oracle_word_basis_once_per_call(monkeypatch, caplog):
    # S_4 at seed 0 retries once, and both attempts share one word basis
    calls = []
    inner = weylreps._algebra_word_basis

    def counted(mats, dim):
        calls.append(dim)
        return inner(mats, dim)

    monkeypatch.setattr(weylreps, "_algebra_word_basis", counted)
    caplog.set_level(logging.DEBUG, logger="superhecke")
    split_regular_weyl(WeylType("A", 4), Fraction(2), seed=0)
    assert calls.count(24) == 1
    assert len(caplog.records) == 1


def test_oracle_logs_each_retry(caplog, capsys):
    caplog.set_level(logging.DEBUG, logger="superhecke")
    split_regular_weyl(WeylType("A", 4), Fraction(2), seed=0)
    assert [r.levelno for r in caplog.records] == [logging.DEBUG]
    assert "sum of squares 23 != 24" in caplog.records[0].getMessage()
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("kind, n", [("A", 4), ("D", 3)])
def test_oracle_finds_each_piece_irreducibles_as_a_direct_sum(monkeypatch, kind, n):
    # a vector in the span of the irreducibles found so far in a piece is
    # passed over, so no irreducible subspace is found twice
    calls = []
    inner = weylreps._extract_irreducibles

    def recorded(*args):
        found = inner(*args)
        calls.append([sub for sub, _ in found])
        return found

    monkeypatch.setattr(weylreps, "_extract_irreducibles", recorded)
    split_regular_weyl(WeylType(kind, n), Fraction(2), seed=0)
    assert calls
    for subs in calls:
        assert rank_exact([b for sub in subs for b in sub]) == sum(len(sub) for sub in subs)


def test_oracle_burnside_tests_on_s4(monkeypatch):
    # S_4 at seed 0 keeps 5 classes: one Burnside test per irreducible found
    # in each piece, not one per random vector
    calls = []
    inner = weylreps._is_irreducible_split

    def counted(gens, dim):
        calls.append(dim)
        return inner(gens, dim)

    monkeypatch.setattr(weylreps, "_is_irreducible_split", counted)
    comps = split_regular_weyl(WeylType("A", 4), Fraction(2), seed=0)
    assert len(comps) == 5
    assert len(calls) <= 25


def _s3_lines():
    """The trivial and the sign line of the right regular module of H_q(S_3)
    at q0 = 2, as integer rows: the common eigenvectors of the generators
    for q0 and -1."""
    rights = S3_RIGHT[Fraction(2)]
    lines = []
    for ev in (Fraction(2), Fraction(-1)):
        rows = [[x - ev * (i == j) for j, x in enumerate(row)] for g in rights for i, row in enumerate(g)]
        lines += int_nullspace(to_int_matrix(rows)[1])[1]
    return lines


def test_restrict_writes_each_image_in_the_basis():
    # g B^T = B^T R for every generator g and its restriction R, on a basis
    # from nullspaces and on one from a spin-up
    rights = S3_RIGHT[Fraction(2)]
    scaled = int_generators(rights)
    _, spun = weylreps._spin_up([3, -6, 0, 1, 0, 0], scaled)
    for basis in (_s3_lines(), spun):
        k, (d, restricted) = weylreps._restrict(scaled, basis)
        assert k == len(basis) and len(restricted) == len(rights)
        cols = [list(c) for c in zip(*basis)]
        for g, r in zip(rights, restricted):
            assert mat_mul(g, cols) == mat_mul(cols, from_int_matrix(r, d))


@pytest.mark.parametrize("delta", [Fraction(1), Fraction(-1, 3)], ids=str)
def test_restrict_refuses_a_subspace_that_is_not_invariant(delta):
    # one entry of the trivial + sign basis perturbed by delta, on the basis
    # times delta's denominator: the only invariant plane through the sign
    # line is this one, so the span is no longer a submodule, and the exact
    # check must say so
    scaled = int_generators(S3_RIGHT[Fraction(2)])
    for j in range(2):
        for c in range(6):
            basis = [[delta.denominator * x for x in b] for b in _s3_lines()]
            basis[j][c] += delta.numerator
            with pytest.raises(RuntimeError, match="subspace is not invariant"):
                weylreps._restrict(scaled, basis)


def _per_word_traces(rep, words):
    out = []
    gens = fraction_gens(rep)
    for w in words:
        m = [[Fraction(int(i == j)) for j in range(rep.dim)] for i in range(rep.dim)]
        for i in w:
            m = mat_mul(m, gens[i])
        out.append(sum(m[k][k] for k in range(rep.dim)))
    return tuple(out)


TRACE_REPS = irreps(WeylType("B", 3), Fraction(1, 3)) + irreps(WeylType("D", 4), Fraction(5, 7))


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(TRACE_REPS),
    st.lists(st.lists(st.integers(0, 2), max_size=6).map(tuple), max_size=12),
    st.randoms(use_true_random=False),
)
def test_trace_vector_is_per_word_product(rep, words, rnd):
    # arbitrary word lists: prefixes missing, repeated, or after their words
    words = list(words) + words_up_to(len(rep.gens), 2)
    rnd.shuffle(words)
    assert trace_vector(rep, words) == _per_word_traces(rep, words)


@pytest.mark.parametrize("q0", [Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(5, 7)], ids=str)
@pytest.mark.parametrize("kind, n", [("A", 3), ("B", 2), ("D", 3)])
def test_split_oracle_agrees_with_irreps_across_q0(kind, n, q0):
    _assert_oracle_agrees(WeylType(kind, n), q0, seed=0)


def _right_bfs_word_basis(mats, dim):
    """Reference word basis: breadth first over the words w + (i,), whose
    product m g_i takes the generator on the right, keeping a word when its
    product enlarges the span; each trace is that of the scaled product over
    D^length."""
    d = lcm(*{x.denominator for g in mats for row in g for x in row})
    gens = [[[int(x * d) for x in row] for row in g] for g in mats]
    ech = IntEchelon(dim * dim)
    words, traces = [], []
    candidates = [((), int_identity(dim))]
    while candidates:
        kept = []
        for w, m in candidates:
            if ech.insert([x for row in m for x in row]):
                words.append(w)
                traces.append(Fraction(sum(m[k][k] for k in range(dim)), d ** len(w)))
                kept.append((w, m))
        candidates = [(w + (i,), int_mat_mul(m, g)) for w, m in kept for i, g in enumerate(gens)]
    return words, traces


def _rational_matrices(n, count):
    """count n x n rational matrices, about half their entries zero."""
    entry = st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
    square = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    return st.lists(square, min_size=count, max_size=count)


@pytest.mark.parametrize("q0", [Fraction(2), Fraction(1, 3)], ids=str)
def test_word_basis_is_the_right_multiplication_closure_on_s4(q0):
    # T_w -> T_{w^-1} reverses words and keeps the regular trace, so this pins
    # the order and the traces but not the side a generator multiplies on
    _, rights = hecke_regular_matrices(WeylType("A", 4), q0)
    words, traces = weylreps._algebra_word_basis(int_generators(rights), 24)
    assert len(words) == 24  # the right action spans a copy of H, |S_4| = 24
    assert (words, traces) == _right_bfs_word_basis(rights, 24)


def test_word_basis_multiplies_words_left_to_right():
    # a = E_31 and b = E_23: ab = 0 but ba = E_21, so (0, 1) is dropped and (1, 0) kept
    def unit(r, c):
        return [[int((i, j) == (r, c)) for j in range(3)] for i in range(3)]

    basis = weylreps._algebra_word_basis((1, [unit(2, 0), unit(1, 2)]), 3)
    assert basis == ([(), (0,), (1,), (1, 0)], [3, 0, 0, 0])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.data())
def test_word_basis_is_the_right_multiplication_closure(n, count, data):
    mats = data.draw(_rational_matrices(n, count))
    assert weylreps._algebra_word_basis(int_generators(mats), n) == _right_bfs_word_basis(mats, n)


S3_RIGHT = {q0: hecke_regular_matrices(WeylType("A", 3), q0)[1] for q0 in (Fraction(2), Fraction(1, 3))}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_spin_up_is_the_submodule_generated_by_v(data):
    if data.draw(st.booleans()):
        mats = S3_RIGHT[data.draw(st.sampled_from(sorted(S3_RIGHT)))]
    else:
        n = data.draw(st.integers(1, 4))
        mats = data.draw(_rational_matrices(n, data.draw(st.integers(1, 2))))
    n = len(mats[0])
    v = data.draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n).filter(any))
    den, rows = weylreps._spin_up(v, int_generators(mats))
    basis = from_int_matrix(rows, den)
    assert basis[0] == v
    assert rank_exact(basis) == len(basis)
    def mat_vec(g, u):
        return [sum(x * y for x, y in zip(row, u)) for row in g]

    # every generator maps the span into itself ...
    for g in mats:
        assert all(rank_exact(basis + [mat_vec(g, b)]) == len(basis) for b in basis)
    # ... and it is no larger than the span of all word images of v
    images, layer = [v], [v]
    for _ in range(n):
        layer = [mat_vec(g, u) for u in layer for g in mats]
        images += layer
    assert rank_exact(images) == len(basis)
