"""Groupoid elements, multiplication, length, words, and braid moves."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superhecke.domains import Family, act
from superhecke.groupoid import (
    CoxeterGroupoid,
    SizeCapExceeded,
    Word,
    dimension_formula,
    element_to_json,
    groupoid_for,
    word_to_json,
)

from helpers import (
    ZERO,
    braid_reaches_repeat,
    generator,
    identity,
    inverse,
    left_descent,
    length,
    multiply,
    positions,
    right_descent,
)

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
    e = identity(G, d_e)
    assert e.source == e.target == d_e
    g1 = generator(G, 1, d_e)
    assert g1.target == d_e  # parities 1, 2 equal
    g2 = generator(G, 2, d_e)
    assert g2.target == (0, 1, 0, 1)
    # s_{i, i>a} s_{i, a} = e_a
    assert multiply(generator(G, 2, g2.target), g2) == e


def test_zero_and_multiplication():
    G = groupoid_for(Family("A", 1, 1))
    a, b = (0, 0, 1, 1), (0, 1, 0, 1)
    assert multiply(identity(G, a), identity(G, b)) is ZERO
    assert multiply(ZERO, identity(G, a)) is ZERO
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
    lhs = multiply(multiply(x, y), z)
    rhs = multiply(x, multiply(y, z))
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
            if length(G, w) != npos:
                continue
            pos_t = rs.positive_roots(w.target)
            for beta in rs.positive_roots(w.source):
                img = sp_apply(w.smap, beta)
                assert tuple(-c for c in img) in pos_t


def test_length_basics():
    for fam in SMALL:
        G = groupoid_for(fam)
        for a in G.roots.domains:
            assert length(G, identity(G, a)) == 0
            for i in range(1, fam.rank + 1):
                assert length(G, generator(G, i, a)) == 1


def test_longest_element_inverts_all_roots():
    for fam in SMALL:
        G = groupoid_for(fam)
        npos = len(G.roots.positive_roots(G.roots.domains[0]))
        tops = [w for w in G.elements() if length(G, w) == npos]
        assert tops, "no longest element found"
        assert max(length(G, w) for w in G.elements()) == npos


def test_length_inverse_sign_exhaustive():
    for fam in SMALL:
        G = groupoid_for(fam)
        for w in G.elements():
            assert length(G, inverse(w)) == length(G, w)
            assert inverse(inverse(w)) == w


def test_descent_trivial_examples():
    G = groupoid_for(Family("B", 1, 1))
    for a in G.roots.domains:
        for j in range(1, 3):
            # a generator has its own index as a right descent; the identity has none
            assert right_descent(G, generator(G, j, a), j)
            assert not right_descent(G, identity(G, a), j)


def test_faithfulness_equal_maps_distinct_domains():
    # identities share the identity map but stay distinct elements
    G = groupoid_for(Family("A", 1, 1))
    maps = {}
    for w in G.elements():
        maps.setdefault(w.smap, []).append(w)
    idsmap = identity(G, (0, 0, 1, 1)).smap
    assert len(maps[idsmap]) == len(G.roots.domains)


def test_sign_constant_over_words():
    G = groupoid_for(Family("CD", 1, 1))
    rng = random.Random(8)
    doms = G.roots.domains
    for _ in range(300):
        base = doms[rng.randrange(len(doms))]
        letters = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 7)))
        w = G.evaluate(Word(base, letters))
        assert length(G, w) % 2 == len(letters) % 2


def test_descents_match_length_changes():
    for fam in SMALL:
        G = groupoid_for(fam)
        for w in G.elements():
            lw = length(G, w)
            for j in range(1, fam.rank + 1):
                ws = multiply(w, generator(G, j, act(fam, j, w.source)))
                assert ws is not ZERO
                assert length(G, ws) - lw in (-1, 1)
                assert (length(G, ws) == lw - 1) == right_descent(G, w, j)
                sw = multiply(generator(G, j, w.target), w)
                assert (length(G, sw) == lw - 1) == left_descent(G, w, j)


def test_descents_match_root_definitions():
    # the program's one descent test, on integer keys, against the root count
    for fam in SMALL:
        G = groupoid_for(fam)
        for w in G.elements():
            key = (G.domain_index[w.source], G.domain_index[w.target], w.smap)
            assert G.descents(*key) == [left_descent(G, w, i) for i in range(1, fam.rank + 1)]


def test_subadditivity_exhaustive_small():
    for fam in SMALL:
        G = groupoid_for(fam)
        els = G.elements()
        for u in els:
            lu = length(G, u)
            for v in els:
                uv = multiply(u, v)
                if uv is not ZERO:
                    assert length(G, uv) <= lu + length(G, v)


def test_canonical_word_round_trip():
    for fam in SMALL:
        G = groupoid_for(fam)
        for w in G.elements():
            word = G.canonical_reduced_word(w)
            assert len(word.letters) == length(G, w)
            assert G.evaluate(word) == w


def test_all_reduced_words_against_brute_force():
    G = groupoid_for(Family("A", 1, 1))
    w0 = max(G.elements(), key=lambda w: length(G, w))
    mine = {w.letters for w in G.all_reduced_words(w0)}
    brute = {
        letters
        for letters in itertools.product(range(1, 4), repeat=length(G, w0))
        if G.evaluate(Word(w0.source, letters)) == w0
    }
    assert mine == brute
    # a generator has exactly one reduced word
    g = generator(G, 2, (0, 0, 1, 1))
    assert len(G.all_reduced_words(g)) == 1
    # a commuting pair has exactly two
    w = multiply(generator(G, 3, act(G.family, 1, (0, 1, 0, 1))), generator(G, 1, (0, 1, 0, 1)))
    assert length(G, w) == 2
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
            n = rng.randint(2, 7)
            letters = tuple(rng.randint(1, fam.rank) for _ in range(n))
            word = Word(base, letters)
            if length(G, G.evaluate(word)) == n:
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
    assert len(set(els)) == len(els)
    for k, w in enumerate(els):
        assert (doms[T.src[k]], doms[T.tgt[k]], T.smap[k]) == w
        assert T.length[k] == length(G, w)
        for i in range(1, fam.rank + 1):
            assert els[T.lgen[i][k]] == multiply(generator(G, i, w.target), w)
        descents = [i for i in range(1, fam.rank + 1) if left_descent(G, w, i)]
        assert T.first[k] == (descents[0] if descents else 0)
        assert T.canonical_letters(k) == G.canonical_reduced_word(w).letters
    assert G.length_theory()


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
    lw = T.length[positions(G)[w]]
    assert lw <= len(letters)
    assert (len(letters) - lw) % 2 == 0
    assert lw == length(G, w)


# sha256 of elements() and every Tables field, recorded while enumeration
# sorted Element-keyed dicts; every family with |W \ 0| <= 15 000
ENUMERATION_DIGESTS = {
    ("A", 0, 0): "0198854abb5ff79c88a93665106dac354ed3ef91ef67883180992e5d20a404fc",
    ("A", 0, 1): "d33ab5a12f2c8a0d9f2d31ae633cfe50556706b9bb69e840acf1abe61a97908a",
    ("A", 0, 2): "6a87df6b14bc8097253444b5061cd8de71da15e9f44997481a6989578cf2b3da",
    ("A", 0, 3): "78ec7c164b445849587aa9b2d5a9cc0efd6f185b6bd86ff5d2d60370221a49a8",
    ("A", 0, 4): "380ba0f3917ec26ca5acbfd14072bf1b48bbd668672a0ac081e28247bf083f14",
    ("A", 1, 0): "184b536c952ef2eb86d28202fd34a246965537327aff074dc956d96a9d0c0b29",
    ("A", 1, 1): "a3880a6a5cb95bbff055853675bb6e287e6abe67c59ecfb6aca54b37b2690f5f",
    ("A", 1, 2): "248cd28a4c8c53d3bd015b34d274fb2eb9b4ce8346692cb091720aa0b62a6284",
    ("A", 1, 3): "9c06fe16b352446dc120cfc75aaee1a3c9e3363419c9ddcd4e80314e7d1565e7",
    ("A", 2, 0): "bfc71e2c01adf37171b4c3a846db68a95d15c90941f9b2eadb4abe3183b983c5",
    ("A", 2, 1): "965dfc896e99b4bed63a528356ee6901750e0cab8096c35621dee732fe4dc980",
    ("A", 2, 2): "05078bf0bc53601021b6ed1d2151812dbebddf47198012af41d91e3e0de037db",
    ("A", 3, 0): "77cdb5f5d3b409855fa339ae3804b6f1267245a05afcde887eeca49aa5db15ef",
    ("A", 3, 1): "28e206450b7b4ec64d9e2a9e1e39ff878de557b129d546f7ca04167a973f54ed",
    ("A", 4, 0): "ed1b0b31c5d32363d7c042f97e89ecff47bc24864919fc86ebf519a9af2e34e9",
    ("B", 0, 1): "c2492535b79f36060605f75168e8a133e4913aa3cf6d1e1440ee13fc98608ae9",
    ("B", 0, 2): "6d55cc1c45116d9fddeea6f4ae60cb1be205ade65b2b1888da193e1feb07c636",
    ("B", 0, 3): "0e2ccb9531b47ea1eede824e1ba1ec2f41ed9fc68e9775536bf312606b01d658",
    ("B", 0, 4): "264aacc824a4245b36666e2c234f5d7f718c40e3341927f423edcd348692428f",
    ("B", 0, 5): "ec85172fa4c5a2b801f32ace2ada5a12bf41ba19afaaff17ee7051e7770838b3",
    ("B", 1, 1): "e215699d3a08dd8348085d007f73da785d16f028c0314b4dda294d497b0cc0f8",
    ("B", 1, 2): "c11dbeb425cc93da27a2a12323c238f87ae5d2696aa37e7a6579524381c39fd7",
    ("B", 1, 3): "45cf798c26c03e0ed3f5881136af04d6aa5c31c7fcb57f88862ef437b28e80ba",
    ("B", 2, 1): "32acd1a6721bf23fd8595351108ec557be742a278f7a9c9a6de550daf73d7841",
    ("B", 2, 2): "d9c3ca3439e9252eb8e15f4c5dd904c858bf5d8776e297ec35293a0e04ab3c77",
    ("B", 3, 1): "701c4796f13f60d46a2bc85ad9ee159154e7694e7881731726c2d496bbb655cc",
    ("CD", 1, 1): "29eb168eeeacfed79c5a06de7bd32f32f078bc1d0db53e846b7bb41ea18efb9f",
    ("CD", 1, 2): "b1a6555332b890965f69d11a9f89fd356099fdda99f88a84706f212b151bcf02",
    ("CD", 1, 3): "7d0b94e950639cd3235ee18ba70c62b37569d786aa31d81e3a3c058f5b63d9b4",
    ("CD", 2, 1): "1735e5d08e6253bdd8f2924f637e7beb733051f9ce5f56aa335810e95564c8f0",
    ("CD", 2, 2): "d031d6e267e158dc0b785483ad3c0ed0a0e89ea7df0ada317b072b9b04a7339e",
    ("CD", 3, 1): "8a898f1ced362db8a161b16600ffe15725b8308cae9f81392f3b438d6c83d5d9",
    ("CD", 4, 1): "8b89bb13768c1d0b901357dbb998907c5cd45463d63cf62cadbda650acd4b070",
}


def _enumeration_digest(G) -> str:
    els = G.elements()
    T = G.tables()
    h = hashlib.sha256()
    h.update(repr(els).encode())
    # the bytes the Element-keyed index fed the hash: its size and its values,
    # which are the positions
    h.update(repr((len(els), tuple(range(len(els))))).encode())
    for field in (T.src, T.tgt, T.length, T.first):
        h.update(repr(tuple(field)).encode())
    h.update(repr(tuple(tuple(row) for row in T.lgen)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("key", sorted(ENUMERATION_DIGESTS), ids=lambda k: "%s(%d,%d)" % k)
def test_enumeration_pinned(key):
    fam = Family(*key)
    G = CoxeterGroupoid(fam)
    assert G.order() == len(G.elements()) == dimension_formula(fam)
    assert _enumeration_digest(G) == ENUMERATION_DIGESTS[key]
