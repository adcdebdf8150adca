"""factor_list against sympy's factor_list: the same irreducible factors over
Q, the same multiplicities, the same normalisation and the same order.  The
splitting oracle takes its pieces in this order, so any difference would
change its output bytes."""

import random
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superhecke import weylreps
from superhecke.factor import factor_list
from superhecke.weylgroups import WeylType

sympy = pytest.importorskip("sympy")


def reference(coeffs):
    """sympy's factor list of sum(coeffs[k] x^k), constant terms first."""
    x = sympy.Symbol("x")
    rationals = [sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) for c in coeffs]
    _, factors = sympy.Poly(rationals[::-1], x).factor_list()
    return [([int(c) for c in fac.all_coeffs()[::-1]], mult) for fac, mult in factors]


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] += x * y
    return out


# a factor of degree 1-4 with a leading coefficient of either sign, not only 1
factors = st.tuples(
    st.lists(st.integers(-20, 20), min_size=1, max_size=4),
    st.integers(-5, 5).filter(bool),
).map(lambda t: t[0] + [t[1]])


@st.composite
def products(draw):
    f = [draw(st.fractions(-5, 5, max_denominator=7).filter(bool))]
    for g in draw(st.lists(factors, max_size=4)):
        for _ in range(draw(st.integers(1, 3))):
            f = poly_mul(f, g)
    return [Fraction(0)] * draw(st.integers(0, 3)) + f


@settings(max_examples=200, deadline=None)
@given(products())
def test_factor_list_matches_sympy(coeffs):
    assert factor_list(coeffs) == reference(coeffs)


SWINNERTON_DYER_8 = [576, 0, -960, 0, 352, 0, -40, 0, 1]  # minimal polynomial of sqrt2+sqrt3+sqrt5


@pytest.mark.parametrize(
    "coeffs, expected",
    [
        # irreducible over Q, but split into factors of degree <= 2 mod every prime
        ([1, 0, 0, 0, 1], [([1, 0, 0, 0, 1], 1)]),
        (SWINNERTON_DYER_8, [(SWINNERTON_DYER_8, 1)]),
        # same degree and multiplicity: ordered by coefficients from the leading one down
        (poly_mul([1, 2], [-1, 3]), [([1, 2], 1), ([-1, 3], 1)]),
        (poly_mul(poly_mul([1, 1, 1], [1, 1, 1]), [1, 1, 1]), [([1, 1, 1], 3)]),
        ([Fraction(3, 4)], []),
        ([5], []),
    ],
    ids=["x^4+1", "swinnerton-dyer-8", "(2x+1)(3x-1)", "cube-of-quadratic", "constant-3/4", "constant-5"],
)
def test_factor_list_hard_cases(coeffs, expected):
    assert factor_list(coeffs) == expected
    assert reference(coeffs) == expected


@pytest.mark.parametrize(
    "kind, n, q0, seed",
    [
        # the irreps --oracle pins in test_golden.py
        ("A", 4, Fraction(2), 0),
        ("D", 3, Fraction(2), 0),
        ("A", 3, Fraction(2), 5),
        ("B", 2, Fraction(2), 5),
        ("B", 2, Fraction(1, 3), 0),
        ("A", 3, Fraction(5, 7), 3),
    ],
)
def test_oracle_factorisations_match_sympy(monkeypatch, kind, n, q0, seed):
    calls = []

    def recording(coeffs):
        calls.append((list(coeffs), factor_list(coeffs)))
        return calls[-1][1]

    monkeypatch.setattr(weylreps, "factor_list", recording)
    weylreps.split_regular_weyl(WeylType(kind, n), q0, seed=seed)
    assert calls
    for coeffs, factors in calls:
        assert factors == reference(coeffs)


def test_factoring_draws_nothing_from_the_oracle_stream(monkeypatch):
    # the oracle's output is fixed by its seed's random stream; factoring
    # must leave that stream as sympy's factors leave it (S_4 at seed 0
    # retries once, so a second random element is drawn after factoring)
    draws = []

    class Recording(random.Random):
        def getrandbits(self, k):
            draws.append(super().getrandbits(k))
            return draws[-1]

    monkeypatch.setattr(weylreps, "random", types.SimpleNamespace(Random=Recording))
    ours = weylreps.split_regular_weyl(WeylType("A", 4), Fraction(2), seed=0)
    ours_draws, draws[:] = list(draws), []
    monkeypatch.setattr(weylreps, "factor_list", reference)
    theirs = weylreps.split_regular_weyl(WeylType("A", 4), Fraction(2), seed=0)
    assert ours_draws and draws == ours_draws
    assert [(c.irrep.gens, c.multiplicity) for c in ours] == [
        (c.irrep.gens, c.multiplicity) for c in theirs
    ]
