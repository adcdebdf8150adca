"""Groupoid elements, multiplication, length, words, and braid moves."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superhecke.domains import Family, act
from superhecke.groupoid import (
    ZERO,
    CoxeterGroupoid,
    SizeCapExceeded,
    Word,
    dimension_formula,
    element_to_json,
    groupoid_for,
    word_to_json,
)

from helpers import braid_reaches_repeat

SMALL = [Family("A", 1, 1), Family("B", 1, 1), Family("B", 0, 2), Family("CD", 1, 1)]

DIM_CASES = [
    (Family("A", 1, 1), 144),
    (Family("A", 2, 1), 1200),
    (Family("A", 1, 2), 1200),
    (Family("B", 1, 1), 16),
    (Family("B", 1, 2), 144),
    (Family("B", 0, 2), 8),
    (Family("B", 2, 1), 144),
    (Family("CD", 1, 1), 18),
    (Family("CD", 2, 1), 128),
    (Family("CD", 1, 2), 200),
]


def test_identity_and_generator():
    G = groupoid_for(Family("A", 1, 1))
    d_e = (0, 0, 1, 1)
    e = G.identity(d_e)
    assert e.source == e.target == d_e
    g1 = G.generator(1, d_e)
    assert g1.target == d_e  # parities 1, 2 equal
    g2 = G.generator(2, d_e)
    assert g2.target == (0, 1, 0, 1)
    # s_{i, i>a} s_{i, a} = e_a
    assert G.multiply(G.generator(2, g2.target), g2) == e


def test_zero_and_multiplication():
    G = groupoid_for(Family("A", 1, 1))
    a, b = (0, 0, 1, 1), (0, 1, 0, 1)
    assert G.multiply(G.identity(a), G.identity(b)) is ZERO
    assert G.multiply(ZERO, G.identity(a)) is ZERO
    # any letter sequence from a valid base is nonzero
    rng = random.Random(0)
    for _ in range(50):
        letters = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 8)))
        assert G.evaluate(Word(a, letters)) is not ZERO


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SMALL), st.data())
def test_multiplication_associative(fam, data):
    G = groupoid_for(fam)
    els = G.elements()
    x = data.draw(st.sampled_from(els))
    y = data.draw(st.sampled_from(els))
    z = data.draw(st.sampled_from(els))
    lhs = G.multiply(G.multiply(x, y), z)
    rhs = G.multiply(x, G.multiply(y, z))
    assert lhs == rhs or (lhs is ZERO and rhs is ZERO)


@pytest.mark.parametrize("fam,expected", DIM_CASES)
def test_enumeration_matches_formula(fam, expected):
    G = groupoid_for(fam)
    assert G.order() == expected == dimension_formula(fam)


def test_enumeration_cap():
    G = CoxeterGroupoid(Family("A", 2, 1))
    with pytest.raises(SizeCapExceeded):
        G.elements(100)


def test_counting_factorization():
    # |W \ 0| = |A|^2 |e_a W e_a| for each family at desk scale
    for fam, _ in DIM_CASES:
        G = groupoid_for(fam)
        doms = G.roots.domains
        a0 = doms[0]
        loops = sum(1 for w in G.elements() if w.source == w.target == a0)
        assert G.order() == len(doms) ** 2 * loops


def test_longest_element_reverses_positives():
    from superhecke.roots import sp_apply

    for fam in SMALL:
        G = groupoid_for(fam)
        rs = G.roots
        npos = len(rs.positive_roots(rs.domains[0]))
        for w in G.elements():
            if G.length(w) != npos:
                continue
            pos_t = rs.positive_roots(w.target)
            for beta in rs.positive_roots(w.source):
                img = sp_apply(w.smap, beta)
                assert tuple(-c for c in img) in pos_t


def test_length_basics():
    for fam in SMALL:
        G = groupoid_for(fam)
        for a in G.roots.domains:
            assert G.length(G.identity(a)) == 0
            for i in range(1, fam.rank + 1):
                assert G.length(G.generator(i, a)) == 1


def test_longest_element_inverts_all_roots():
    for fam in SMALL:
        G = groupoid_for(fam)
        npos = len(G.roots.positive_roots(G.roots.domains[0]))
        tops = [w for w in G.elements() if G.length(w) == npos]
        assert tops, "no longest element found"
        assert max(G.length(w) for w in G.elements()) == npos


def test_length_inverse_sign_exhaustive():
    for fam in SMALL:
        G = groupoid_for(fam)
        for w in G.elements():
            assert G.length(G.inverse(w)) == G.length(w)
            assert G.inverse(G.inverse(w)) == w


def test_descent_trivial_examples():
    G = groupoid_for(Family("B", 1, 1))
    for a in G.roots.domains:
        for j in range(1, 3):
            # a generator has its own index as a right descent; the identity has none
            assert G.right_descent(G.generator(j, a), j)
            assert not G.right_descent(G.identity(a), j)


def test_faithfulness_equal_maps_distinct_domains():
    # identities share the identity map but stay distinct elements
    G = groupoid_for(Family("A", 1, 1))
    maps = {}
    for w in G.elements():
        maps.setdefault(w.smap, []).append(w)
    idsmap = G.identity((0, 0, 1, 1)).smap
    assert len(maps[idsmap]) == len(G.roots.domains)


def test_sign_constant_over_words():
    G = groupoid_for(Family("CD", 1, 1))
    rng = random.Random(8)
    doms = G.roots.domains
    for _ in range(300):
        base = doms[rng.randrange(len(doms))]
        letters = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 7)))
        w = G.evaluate(Word(base, letters))
        assert G.length(w) % 2 == len(letters) % 2


def test_descents_match_length_changes():
    for fam in SMALL:
        G = groupoid_for(fam)
        for w in G.elements():
            lw = G.length(w)
            for j in range(1, fam.rank + 1):
                ws = G.multiply(w, G.generator(j, act(fam, j, w.source)))
                assert ws is not ZERO
                assert G.length(ws) - lw in (-1, 1)
                assert (G.length(ws) == lw - 1) == G.right_descent(w, j)
                sw = G.multiply(G.generator(j, w.target), w)
                assert (G.length(sw) == lw - 1) == G.left_descent(w, j)


def test_subadditivity_exhaustive_small():
    for fam in SMALL:
        G = groupoid_for(fam)
        els = G.elements()
        for u in els:
            lu = G.length(u)
            for v in els:
                uv = G.multiply(u, v)
                if uv is not ZERO:
                    assert G.length(uv) <= lu + G.length(v)


def test_canonical_word_round_trip():
    for fam in SMALL:
        G = groupoid_for(fam)
        for w in G.elements():
            word = G.canonical_reduced_word(w)
            assert len(word.letters) == G.length(w)
            assert G.evaluate(word) == w


def test_all_reduced_words_against_brute_force():
    G = groupoid_for(Family("A", 1, 1))
    w0 = max(G.elements(), key=G.length)
    mine = {w.letters for w in G.all_reduced_words(w0)}
    brute = {
        letters
        for letters in itertools.product(range(1, 4), repeat=G.length(w0))
        if G.evaluate(Word(w0.source, letters)) == w0
    }
    assert mine == brute
    # a generator has exactly one reduced word
    g = G.generator(2, (0, 0, 1, 1))
    assert len(G.all_reduced_words(g)) == 1
    # a commuting pair has exactly two
    w = G.multiply(G.generator(3, act(G.family, 1, (0, 1, 0, 1))), G.generator(1, (0, 1, 0, 1)))
    assert G.length(w) == 2
    assert len(G.all_reduced_words(w)) == 2


def test_braid_moves_preserve_evaluation():
    G = groupoid_for(Family("CD", 2, 1))
    rng = random.Random(3)
    doms = G.roots.domains
    for _ in range(200):
        base = doms[rng.randrange(len(doms))]
        letters = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 7)))
        word = Word(base, letters)
        val = G.evaluate(word)
        for moved in G.braid_moves(word):
            assert len(moved.letters) == len(letters)
            assert G.evaluate(moved) == val


def test_braid_connected_everywhere_small():
    for fam in SMALL:
        G = groupoid_for(fam)
        for w in G.elements():
            assert G.braid_connected(w)


def test_nonreduced_words_reach_adjacent_repeat():
    # the reducibility-by-braid-moves statement on random non-reduced words
    rng = random.Random(99)
    for fam in SMALL:
        G = groupoid_for(fam)
        doms = G.roots.domains
        found = 0
        while found < 100:
            base = doms[rng.randrange(len(doms))]
            length = rng.randint(2, 7)
            letters = tuple(rng.randint(1, fam.rank) for _ in range(length))
            word = Word(base, letters)
            if G.length(G.evaluate(word)) == length:
                continue
            found += 1
            assert braid_reaches_repeat(G, word)


def test_json_forms():
    G = groupoid_for(Family("CD", 1, 1))
    w = G.elements()[4]
    data = element_to_json(w)
    assert set(data) == {"source", "target", "perm"}
    assert word_to_json(G.canonical_reduced_word(w))["letters"] == list(
        G.canonical_reduced_word(w).letters
    )


# every family at a size where the whole groupoid enumerates in well under a second
ALL_FAMILIES = SMALL + [Family("A", 0, 2), Family("A", 2, 1), Family("B", 1, 2), Family("B", 2, 1),
                        Family("B", 0, 3), Family("CD", 2, 1), Family("CD", 1, 2)]


@pytest.mark.parametrize("fam", SMALL + [Family("CD", 2, 1), Family("B", 0, 3)])
def test_tables_match_root_definitions(fam):
    G = groupoid_for(fam)
    els = G.elements()
    T = G.tables()
    doms = G.roots.domains
    assert [T.index[w] for w in els] == list(range(len(els)))
    for k, w in enumerate(els):
        assert (doms[T.src[k]], doms[T.tgt[k]]) == (w.source, w.target)
        assert T.length[k] == G.length(w)
        for i in range(1, fam.rank + 1):
            assert els[T.lgen[i][k]] == G.multiply(G.generator(i, w.target), w)
        descents = [i for i in range(1, fam.rank + 1) if G.left_descent(w, i)]
        assert T.first[k] == (descents[0] if descents else 0)
        assert T.canonical_letters(k) == G.canonical_reduced_word(w).letters


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ALL_FAMILIES), st.data())
def test_random_word_length_in_tables(fam, data):
    # the table length of a word's element is at most the word's length, with
    # the same parity, and equals the number of inverted positive roots
    G = groupoid_for(fam)
    T = G.tables()
    base = data.draw(st.sampled_from(G.roots.domains))
    letters = data.draw(st.lists(st.integers(1, fam.rank), max_size=14))
    w = G.evaluate(Word(base, tuple(letters)))
    length = T.length[T.index[w]]
    assert length <= len(letters)
    assert (len(letters) - length) % 2 == 0
    assert length == G.length(w)
