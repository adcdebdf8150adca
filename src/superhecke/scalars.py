"""Exact scalar arithmetic: rationals and Laurent polynomials in q.

The Hecke algebra computes over the Laurent polynomial ring Z[q, q^-1]
only; no division occurs there.  It holds each coefficient as an id of a
`CoefficientRing`, which interns the few distinct polynomials a table has
and memoises their sums and products.  `structconst --scalar eval` specialises
that table at a rational q0 with `LaurentPoly.evaluate`, one distinct
coefficient at a time.  The representations work at a rational q0 of their
own, on integer matrices (see linalg).  Nothing computes in the fraction
field Q(q): specializing q can only lower a rank, so full rank at one q0
already proves full rank over Q(q).

All values are immutable after construction and safe to share between threads.
Division by zero raises ZeroDivisionError.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping


def rational_to_string(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


class LaurentPoly:
    """Laurent polynomial in q with integer coefficients.

    Stored as a sorted tuple of (exponent, coefficient) pairs with no zero
    coefficients; the zero polynomial is the empty tuple.  This makes equal
    values structurally identical, so equality and hashing are cheap.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        acc: dict[int, int] = {}
        items = coeffs.items() if hasattr(coeffs, "items") else coeffs
        for e, c in items:
            if c:
                acc[e] = acc.get(e, 0) + c
                if not acc[e]:
                    del acc[e]
        self._c = tuple(sorted(acc.items()))

    @classmethod
    def _raw(cls, c: tuple[tuple[int, int], ...]) -> "LaurentPoly":
        """From pairs already sorted by exponent, with no zero coefficient."""
        out = object.__new__(cls)
        out._c = c
        return out

    @classmethod
    def _from_dict(cls, d: dict[int, int]) -> "LaurentPoly":
        return cls._raw(tuple(sorted((e, c) for e, c in d.items() if c)))

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls(((0, 1),))

    @classmethod
    def q(cls) -> "LaurentPoly":
        return cls(((1, 1),))

    @classmethod
    def from_int(cls, k: int) -> "LaurentPoly":
        return cls(((0, k),)) if k else cls()

    def items(self) -> tuple[tuple[int, int], ...]:
        return self._c

    @property
    def min_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no exponents")
        return self._c[0][0]

    def _coerce(self, other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly.from_int(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = dict(self._c)
        for e, c in o._c:
            d[e] = d.get(e, 0) + c
        return LaurentPoly._from_dict(d)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw(tuple((e, -c) for e, c in self._c))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._c, o._c
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # a monomial: shift and scale, no sorting or cancellation needed
            e1, c1 = a[0]
            return LaurentPoly._raw(tuple((e1 + e2, c1 * c2) for e2, c2 in b))
        d: dict[int, int] = {}
        for e1, c1 in a:
            for e2, c2 in b:
                e = e1 + e2
                d[e] = d.get(e, 0) + c1 * c2
        return LaurentPoly._from_dict(d)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers leave the ring")
        out = LaurentPoly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def evaluate(self, q0: Fraction) -> Fraction:
        """Exact substitution q -> q0.  Needs q0 != 0 if negative exponents occur."""
        q0 = Fraction(q0)
        total = Fraction(0)
        for e, c in self._c:
            total += c * q0**e
        return total

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._c == o._c

    def __hash__(self):
        return hash(self._c)

    def __bool__(self):
        return bool(self._c)

    def __repr__(self):
        return f"LaurentPoly({self._c!r})"

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for e, c in reversed(self._c):
            mag = abs(c)
            if e == 0:
                term = str(mag)
            else:
                var = "q" if e == 1 else f"q^{e}"
                term = var if mag == 1 else f"{mag}*{var}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


class CoefficientRing:
    """The Laurent polynomials one computation meets, each interned as a
    small int id, with sums and products memoised per pair of ids.

    `polys[k]` is the polynomial of id k; id 0 is zero, so an id is falsy
    exactly when its polynomial is.  Ids are equal exactly when their
    polynomials are.  Sums and products of ids are dictionary lookups after
    the first time a pair is met.
    """

    __slots__ = ("polys", "_ids", "_sums", "_products")

    def __init__(self):
        self.polys: list[LaurentPoly] = [LaurentPoly()]
        self._ids: dict[LaurentPoly, int] = {self.polys[0]: 0}
        self._sums: dict[tuple[int, int], int] = {}
        self._products: dict[tuple[int, int], int] = {}

    def intern(self, p: LaurentPoly) -> int:
        k = self._ids.get(p)
        if k is None:
            k = self._ids[p] = len(self.polys)
            self.polys.append(p)
        return k

    def add(self, a: int, b: int) -> int:
        s = self._sums.get((a, b))
        if s is None:
            s = self._sums[(a, b)] = self.intern(self.polys[a] + self.polys[b])
        return s

    def add_to(self, terms: dict, k, c: int) -> None:
        """terms[k] += c, storing no zero: terms can cancel."""
        if k in terms:
            c = self.add(terms[k], c)
            if not c:
                del terms[k]
                return
        terms[k] = c

    def mul(self, a: int, b: int) -> int:
        s = self._products.get((a, b))
        if s is None:
            s = self._products[(a, b)] = self.intern(self.polys[a] * self.polys[b])
        return s


def laurent_to_json(p: LaurentPoly) -> list[list]:
    """Encode as [[exponent, coefficient-string], ...], exponents ascending."""
    return [[e, str(c)] for e, c in p.items()]
