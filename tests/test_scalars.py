"""Exact scalar arithmetic: examples, ring axioms, evaluation at q0."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superhecke.cli import _rational
from superhecke.scalars import CoefficientRing, LaurentPoly, laurent_to_json, rational_to_string

from helpers import laurent_from_json

Q = LaurentPoly.q()


def test_rational_examples():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert _rational("5/6") == Fraction(5, 6)
    assert rational_to_string(Fraction(-7, 2)) == "-7/2"
    assert rational_to_string(Fraction(4)) == "4"


def test_laurent_examples():
    assert (Q - 1) * (Q + 1) == Q**2 - 1
    assert (Q - 1) * (Q + 1) != Q**2
    assert LaurentPoly({-1: 1}) * Q == LaurentPoly.one()


def test_evaluate_examples():
    assert (Q**2 - 1).evaluate(Fraction(2)) == 3
    assert LaurentPoly({-1: 1}).evaluate(Fraction(2)) == Fraction(1, 2)
    assert (Q - 1).evaluate(Fraction(1)) == 0


def test_zero_division_reported():
    with pytest.raises(ZeroDivisionError):
        LaurentPoly({-1: 1}).evaluate(Fraction(0))


def test_json_round_trip():
    p = Q**3 - 2 * Q + LaurentPoly({-2: 5})
    data = laurent_to_json(p)
    assert data == [[-2, "5"], [1, "-2"], [3, "1"]]
    assert laurent_from_json(data) == p


laurents = st.builds(
    LaurentPoly,
    st.lists(
        st.tuples(st.integers(-4, 4), st.integers(-9, 9)), max_size=5
    ).map(tuple),
)
rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 20))


@settings(max_examples=150, deadline=None)
@given(laurents, laurents, laurents)
def test_laurent_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=150, deadline=None)
@given(laurents, laurents, st.sampled_from([Fraction(2), Fraction(3), Fraction(5, 7), Fraction(-2)]))
def test_eval_is_ring_homomorphism(a, b, q0):
    assert (a * b).evaluate(q0) == a.evaluate(q0) * b.evaluate(q0)
    assert (a + b).evaluate(q0) == a.evaluate(q0) + b.evaluate(q0)


@settings(max_examples=150, deadline=None)
@given(st.lists(laurents, min_size=1, max_size=6))
def test_coefficient_ring_interns_and_memoises(polys):
    ring = CoefficientRing()
    ids = [ring.intern(p) for p in polys]
    for a, x in zip(polys, ids):
        assert ring.polys[x] == a
        assert (x == 0) == (not a)
        for b, y in zip(polys, ids):
            # ids are equal exactly when the polynomials are
            assert (x == y) == (a == b)
            # sums and products agree with LaurentPoly's own, memoised or not
            for _ in range(2):
                assert ring.polys[ring.add(x, y)] == a + b
                assert ring.polys[ring.mul(x, y)] == a * b
        # a cancelling sum is id 0
        assert ring.add(x, ring.intern(-a)) == 0
    assert len(ring.polys) == len(set(ring.polys))
