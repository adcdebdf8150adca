"""Factorisation of rational polynomials in one variable into irreducibles
over Q, for the splitting oracle's minimal polynomials.

The algorithm is Zassenhaus's (H. Zassenhaus, "On Hensel factorization I",
J. Number Theory 1 (1969) 291-311) as given in J. von zur Gathen and
J. Gerhard, *Modern Computer Algebra*, chapters 14 and 15:

1. clear denominators, take the primitive part, split off x^j and take the
   squarefree part by a gcd with the derivative;
2. pick the smallest odd prime p that does not divide the leading
   coefficient and keeps the polynomial squarefree mod p, and factor it mod p
   by distinct-degree and equal-degree splitting (Algorithms 14.3 and 14.8);
3. Hensel-lift the modular factors to p^k > 2 |lc| 2^n ||f||_2, a Mignotte
   bound on the coefficients of a factor times |lc|, by Algorithm 15.10 on
   the two halves of the factor list, recursively (Algorithm 15.17);
4. recombine: try products of subsets of the lifted factors, smallest first,
   by exact trial division over Z;
5. count each factor's multiplicity by repeated exact division.

Polynomials are lists of coefficients, constant term first.  Every factor
that factor_list returns is primitive in Z[x] with a positive leading
coefficient, and the list is sorted by (degree, multiplicity, coefficients
from the leading one down): the order of sympy's factor_list, so that the
oracle, which takes its pieces in this order, keeps its output bytes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm
from typing import Sequence

Poly = list[int]


def factor_list(coeffs: Sequence[Fraction | int]) -> list[tuple[Poly, int]]:
    """Irreducible factors over Q of sum(coeffs[k] x^k), each with its
    multiplicity.  The rational content is dropped, so a constant gives []."""
    den = lcm(*(Fraction(c).denominator for c in coeffs))
    f = _trim([int(Fraction(c) * den) for c in coeffs])
    if len(f) < 2:
        return []
    j = next(k for k, c in enumerate(f) if c)
    f = _primitive(f[j:])
    factors = [([0, 1], j)] if j else []
    if len(f) > 1:
        for h in _zassenhaus(_squarefree_part(f)):
            mult = 0
            while (q := _exact_quo(f, h)) is not None:
                f, mult = q, mult + 1
            factors.append((h, mult))
    factors.sort(key=lambda fm: (len(fm[0]), fm[1], fm[0][::-1]))
    return factors


# -- polynomials over Z ------------------------------------------------------


def _trim(a: Poly) -> Poly:
    while a and not a[-1]:
        a.pop()
    return a


def _primitive(a: Poly) -> Poly:
    """a divided by its content, with a positive leading coefficient."""
    c = gcd(*a)
    if a[-1] < 0:
        c = -c
    return [x // c for x in a]


def _exact_quo(f: Poly, g: Poly) -> Poly | None:
    """f / g in Z[x], or None when g does not divide f there."""
    dg = len(g) - 1
    if len(f) <= dg:
        return None
    r = list(f)
    q = [0] * (len(f) - dg)
    for i in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[i + dg], g[-1])
        if rem:
            return None
        q[i] = c
        if c:
            for k, y in enumerate(g):
                r[i + k] -= c * y
    return None if any(r[:dg]) else q


def _derivative(a: Poly) -> Poly:
    return [k * c for k, c in enumerate(a)][1:]


def _squarefree_part(f: Poly) -> Poly:
    """f / gcd(f, f'), by a primitive remainder sequence over Z."""
    a, b = f, _primitive(_derivative(f))
    while len(b) > 1:
        r = list(a)
        while len(r) >= len(b):
            c, shift = r[-1], len(r) - len(b)
            r = [b[-1] * x for x in r]
            for k, y in enumerate(b):
                r[shift + k] -= c * y
            _trim(r)
        a, b = b, _primitive(r) if r else []
    # b == [] leaves the gcd in a; a constant b means the gcd is 1
    return f if b else _exact_quo(f, a)


# -- polynomials over Z/m ----------------------------------------------------


def _mul(a: Poly, b: Poly, m: int) -> Poly:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b):
                out[i + k] += x * y
    return _trim([c % m for c in out])


def _add(a: Poly, b: Poly, m: int, s: int = 1) -> Poly:
    """a + s*b mod m."""
    if len(a) < len(b):
        a = a + [0] * (len(b) - len(a))
    out = list(a)
    for k, y in enumerate(b):
        out[k] += s * y
    return _trim([c % m for c in out])


def _divmod(a: Poly, b: Poly, m: int) -> tuple[Poly, Poly]:
    """Quotient and remainder mod m; b's leading coefficient is a unit."""
    inv = pow(b[-1], -1, m)
    r = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + len(b) - 1] * inv % m
        q[i] = c
        if c:
            for k, y in enumerate(b):
                r[i + k] = (r[i + k] - c * y) % m
    return _trim(q), _trim(r[: len(b) - 1])


def _monic(a: Poly, p: int) -> Poly:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gcd(a: Poly, b: Poly, p: int) -> Poly:
    """Monic gcd over F_p."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p)


def _gcdex(a: Poly, b: Poly, p: int) -> tuple[Poly, Poly]:
    """s, t with s a + t b = 1 over F_p, for coprime a and b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _add(s0, _mul(q, s1, p), p, -1)
        t0, t1 = t1, _add(t0, _mul(q, t1, p), p, -1)
    inv = pow(r0[0], -1, p)  # r0 is a nonzero constant
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _powmod(a: Poly, e: int, f: Poly, p: int) -> Poly:
    """a^e mod (f, p)."""
    out, a = [1], _divmod(a, f, p)[1]
    while e:
        if e & 1:
            out = _divmod(_mul(out, a, p), f, p)[1]
        a = _divmod(_mul(a, a, p), f, p)[1]
        e >>= 1
    return out


# -- Zassenhaus ----------------------------------------------------------------


def _odd_primes():
    p = 3
    while True:
        if all(p % d for d in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 2


def _zassenhaus(f: Poly) -> list[Poly]:
    """Irreducible factors of a squarefree primitive f with f(0) != 0."""
    n = len(f) - 1
    df = _derivative(f)
    for p in _odd_primes():
        if f[-1] % p and len(_gcd([c % p for c in f], _trim([c % p for c in df]), p)) == 1:
            break
    modular = _factor_mod_p(_monic([c % p for c in f], p), p)
    if len(modular) == 1:
        return [f]
    bound = 2 * f[-1] * 2**n * (isqrt(sum(c * c for c in f)) + 1)
    pk = p
    while pk <= bound:
        pk *= p
    return _recombine(f, _hensel_lift(f, modular, p, pk), pk)


def _factor_mod_p(f: Poly, p: int) -> list[Poly]:
    """Monic irreducible factors of a monic squarefree f over F_p: the
    distinct-degree factorisation, each part split by equal-degree
    (Cantor-Zassenhaus) splitting.  Its random choices come from a fixed
    Random(0), so they touch no caller's random stream."""
    rng = random.Random(0)
    out: list[Poly] = []
    h = [0, 1]
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _powmod(h, p, f, p)
        g = _gcd(f, _add(h, [0, 1], p, -1), p)
        if len(g) > 1:
            out += _equal_degree(g, d, p, rng)
            f = _divmod(f, g, p)[0]
            h = _divmod(h, f, p)[1]
    if len(f) > 1:
        out.append(f)
    return out


def _equal_degree(f: Poly, d: int, p: int, rng: random.Random) -> list[Poly]:
    """Factors of a monic f over F_p (p odd) whose irreducible factors all
    have degree d."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        g = _gcd(f, a, p)
        if len(g) == 1:
            b = _powmod(a, (p**d - 1) // 2, f, p)
            g = _gcd(f, _add(b, [1], p, -1), p)
        if 1 < len(g) <= n:
            break
    return _equal_degree(g, d, p, rng) + _equal_degree(_divmod(f, g, p)[0], d, p, rng)


def _hensel_lift(f: Poly, factors: list[Poly], p: int, pk: int) -> list[Poly]:
    """Monic u_i with f = lc(f) prod u_i mod pk and u_i = factors[i] mod p,
    given f = lc(f) prod factors mod p with coprime factors: the first half
    of the factors times lc(f), and the second half, are lifted together by
    Hensel steps, then each half on its own."""
    if len(factors) == 1:
        return [_monic([c % pk for c in f], pk)]
    k = len(factors) // 2
    g = [f[-1] % p]
    for u in factors[:k]:
        g = _mul(g, u, p)
    h = [1]
    for u in factors[k:]:
        h = _mul(h, u, p)
    s, t = _gcdex(g, h, p)
    m = p
    while m < pk:
        m = min(m * m, pk)
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
    return _hensel_lift(g, factors[:k], p, pk) + _hensel_lift(h, factors[k:], p, pk)


def _hensel_step(m, f, g, h, s, t):
    """Algorithm 15.10: given f = g h and s g + t h = 1 modulo some m0 with
    m0 | m | m0^2, and h monic, the lifted g, h, s, t with the same
    congruences modulo m."""
    e = _add(f, _mul(g, h, m), m, -1)
    q, r = _divmod(_mul(s, e, m), h, m)
    g = _add(_add(g, _mul(t, e, m), m), _mul(q, g, m), m)
    h = _add(h, r, m)
    b = _add(_add(_mul(s, g, m), _mul(t, h, m), m), [1], m, -1)
    c, d = _divmod(_mul(s, b, m), h, m)
    s = _add(s, d, m, -1)
    t = _add(_add(t, _mul(t, b, m), m, -1), _mul(c, g, m), m, -1)
    return g, h, s, t


def _recombine(f: Poly, lifted: list[Poly], pk: int) -> list[Poly]:
    """The irreducible factors of f: each is lc(f) times the product of a
    subset of the lifted factors, in symmetric residues mod pk, made
    primitive.  Subsets are tried smallest first, so a factor found is
    irreducible, and once no subset of at most half the factors left
    divides, what is left is irreducible."""
    found = []
    s = 1
    while 2 * s <= len(lifted):
        for subset in combinations(range(len(lifted)), s):
            g = [f[-1]]
            for i in subset:
                g = _mul(g, lifted[i], pk)
            g = _primitive([c - pk if 2 * c > pk else c for c in g])
            q = _exact_quo(f, g)
            if q is not None:
                found.append(g)
                f = q
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            s += 1
    return found + [f]
