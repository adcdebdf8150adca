"""Coxeter groupoids through their faithful signed-permutation representation.

An element is the triple (source domain, target domain, signed permutation);
the representation is faithful, so equality of triples is equality in the
groupoid and multiplication is composition when the domains match, the zero
element otherwise.  Length, descents, reduced words, and the braid-move
machinery of single elements all reduce to exact root bookkeeping.

Enumeration is one breadth-first search from the identities on integer
keys: an element is an id, given in discovery order, with the indices of its
source and target in `roots.domains` and its signed map, and s_i·w is one
table lookup per coordinate of the map.  An element's length is its minimal
word length, the depth at which the search first reaches it
(Heckenberger-Yamane, Math. Z. 259, 2008).  `order` is the size of the
search.  The flat integer tables (`Tables`) are built only when asked, from
one sort of the ids, and `elements` only from the tables; bulk work on every
element, `length_theory`'s proof of the tables included, reads the tables
instead of recomputing roots.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable
from functools import lru_cache
from itertools import pairwise
from math import factorial, inf
from typing import NamedTuple

from .domains import Domain, Family, UsageError, act, domain_to_json
from .roots import (
    RootSystem,
    SignedPerm,
    root_system,
    sp_apply,
    sp_compose,
    sp_identity,
    sp_invert,
)


class Element(NamedTuple):
    source: Domain
    target: Domain
    smap: SignedPerm


class _Zero:
    """The zero element of the groupoid semigroup (absorbing)."""

    __slots__ = ()

    def __repr__(self):
        return "ZERO"

    def __bool__(self):
        return False


ZERO = _Zero()


class Word(NamedTuple):
    """Letters i1..im read as the product s_{i1} ... s_{im, base}."""

    base: Domain
    letters: tuple[int, ...]


class SizeCapExceeded(UsageError):
    """More elements, or reduced words, than a cap allows."""


def alternating(i: int, j: int, m: int) -> tuple[int, ...]:
    """The m letters alternating between i and j that end (rightmost) in i."""
    return tuple(i if t % 2 == 0 else j for t in range(m))[::-1]


# the most reduced words all_reduced_words lists for one element
_REDUCED_WORDS_CAP = 1_000_000


class Tables(NamedTuple):
    """Integer tables over the elements, indexed by position.  They are the
    search's records put in (length, source, target, map) order by one sort
    of its ids, so the identity of the domain at position a of
    `roots.domains` is at position a, and the element lgen[first[k]][k]
    comes before k.  `CoxeterGroupoid.elements()` lists the same elements in
    the same order.

    - src, tgt: positions in `roots.domains` of the source and target;
    - smap: the signed map;
    - length: minimal word length, the depth of the enumeration's search;
    - lgen[i][k]: position of s_{i, tgt}·w_k, for letters i >= 1 (lgen[0]
      is empty);
    - first[k]: the smallest i with length[lgen[i][k]] < length[k], the
      first letter of the canonical reduced word; 0 at the identities.
    """

    src: tuple[int, ...]
    tgt: tuple[int, ...]
    smap: tuple[SignedPerm, ...]
    length: tuple[int, ...]
    lgen: tuple[tuple[int, ...], ...]
    first: tuple[int, ...]

    def canonical_letters(self, k: int) -> tuple[int, ...]:
        """Letters of the canonical reduced word of element k."""
        letters = []
        while self.length[k]:
            i = self.first[k]
            letters.append(i)
            k = self.lgen[i][k]
        return tuple(letters)


class _Search(NamedTuple):
    """The enumeration's breadth-first search, indexed by id in discovery
    order: source and target positions in `roots.domains`, signed map,
    depth, and nbrs[i - 1][k], the id of s_i·w_k."""

    src: list[int]
    tgt: list[int]
    smap: list[SignedPerm]
    depth: list[int]
    nbrs: list[list[int]]


class CoxeterGroupoid:
    def __init__(self, family: Family):
        self.family = family
        self.roots: RootSystem = root_system(family)
        self._order: int | None = None
        self._search: _Search | None = None
        self._elements: tuple[Element, ...] | None = None
        self._tables: Tables | None = None
        self._reduced_words: dict[Element, tuple[tuple[int, ...], ...]] = {}

    # ---- basic elements ----

    def identity(self, a: Domain) -> Element:
        return Element(a, a, sp_identity(self.roots.dim))

    def generator(self, i: int, a: Domain) -> Element:
        return Element(a, act(self.family, i, a), self.roots.reflection(i, a))

    def multiply(self, x, y):
        """Product xy; ZERO when the inner domains differ."""
        if x is ZERO or y is ZERO:
            return ZERO
        if x.source != y.target:
            return ZERO
        return Element(y.source, x.target, sp_compose(x.smap, y.smap))

    def inverse(self, w: Element) -> Element:
        return Element(w.target, w.source, sp_invert(w.smap))

    def length(self, w: Element) -> int:
        """Number of positive roots of the source sent to negative roots."""
        pos_t = self.roots.positive_roots(w.target)
        count = 0
        for beta in self.roots.positive_roots(w.source):
            img = sp_apply(w.smap, beta)
            if tuple(-c for c in img) in pos_t:
                count += 1
        return count

    # ---- descents ----

    def right_descent(self, w: Element, j: int) -> bool:
        """True iff w(alpha_{j, source}) is a negative root of the target."""
        img = sp_apply(w.smap, self.roots.simple_root(j, w.source))
        return tuple(-c for c in img) in self.roots.positive_roots(w.target)

    def left_descent(self, w: Element, i: int) -> bool:
        return self.right_descent(self.inverse(w), i)

    # ---- enumeration ----

    def order(self, max_elements: float = inf) -> int:
        """|W \\ {0}|, by the search alone.

        Raises SizeCapExceeded past max_elements, whether or not an earlier
        call already enumerated the groupoid; with no max_elements there is
        no cap.
        """
        if self._order is None:
            self._search = self._breadth_first(max_elements)
            self._order = len(self._search.smap)
        elif self._order > max_elements:
            raise SizeCapExceeded(f"more than {max_elements} elements")
        return self._order

    def elements(self, max_elements: float = inf) -> tuple[Element, ...]:
        """All nonzero elements, closed under generator multiplication, built
        from the tables on the first call: only code that prints or walks
        elements asks for them.

        Ordered by (length, source, target, map) so output is reproducible.
        Capped as `order` is.
        """
        self.order(max_elements)
        if self._elements is None:
            T = self.tables()
            doms = self.roots.domains
            self._elements = tuple(
                Element(doms[s], doms[t], m) for s, t, m in zip(T.src, T.tgt, T.smap)
            )
        return self._elements

    def tables(self) -> Tables:
        """The integer tables over the elements, enumerating first if needed."""
        self.order()
        if self._tables is None:
            self._sort()
        return self._tables

    def _steps(self) -> list[list[tuple[int, Callable[[int], int]]]]:
        """steps[a][i - 1]: for the domain at position a and letter i, the
        position of act(i, a) and a lookup of the reflection's signed values,
        so sigma_{i,a}∘smap is `tuple(map(lookup, smap))`."""
        doms = self.roots.domains
        r = self.roots.dim
        dom_index = {a: j for j, a in enumerate(doms)}
        lookups: dict[SignedPerm, Callable[[int], int]] = {}  # one per distinct reflection
        steps = []
        for a in doms:
            row = []
            for i in range(1, self.family.rank + 1):
                g = self.roots.reflection(i, a)
                if g not in lookups:
                    # table[v] is the image of the signed value v, 0 < |v| <= r
                    table = [0] * (2 * r + 1)
                    for v in range(1, r + 1):
                        table[v], table[-v] = g[v - 1], -g[v - 1]
                    lookups[g] = table.__getitem__
                row.append((dom_index[act(self.family, i, a)], lookups[g]))
            steps.append(row)
        return steps

    def _breadth_first(self, cap: float) -> _Search:
        """Breadth-first search from the identities on integer keys.

        Each s_i·w is one `_steps` lookup per coordinate of w's map, looked
        up among the ids found with its source and target.  Each domain's
        identity is an element, so more domains than the cap are refused
        before anything is built."""
        nd = len(self.roots.domains)
        if nd > cap:
            raise SizeCapExceeded(f"more than {cap} elements")
        steps = self._steps()
        ident = sp_identity(self.roots.dim)
        src, tgt, smap = list(range(nd)), list(range(nd)), [ident] * nd
        depth = [0] * nd
        nbrs: list[list[int]] = [[] for _ in range(self.family.rank)]
        # the ids of each (source, target) pair reached, by signed map
        seen: defaultdict[int, dict[SignedPerm, int]] = defaultdict(dict)
        for j in range(nd):
            seen[j * nd + j][ident] = j
        lo, hi, d = 0, nd, 0
        while lo < hi:
            d += 1
            for k in range(lo, hi):
                s, m = src[k], smap[k]
                for row, (t, lookup) in zip(nbrs, steps[tgt[k]]):
                    u = tuple(map(lookup, m))
                    bucket = seen[s * nd + t]
                    uid = bucket.get(u)
                    if uid is None:
                        uid = len(smap)
                        if uid >= cap:
                            raise SizeCapExceeded(f"more than {cap} elements")
                        bucket[u] = uid
                        src.append(s)
                        tgt.append(t)
                        smap.append(u)
                        depth.append(d)
                    row.append(uid)
            lo, hi = hi, len(smap)
        return _Search(src, tgt, smap, depth, nbrs)

    def _sort(self):
        """Sort the search's ids by (depth, source, target, map) and build
        `tables()` in that order, then drop the search.  `roots.domains` is
        sorted by `domain_sort_key`, so source and target indices compare as
        their domains do."""
        src, tgt, smap, depth, nbrs = self._search
        order = sorted(range(len(smap)), key=lambda k: (depth[k], src[k], tgt[k], smap[k]))
        # one int object per position, shared by pos and lgen
        pos = [0] * len(order)
        for p, k in enumerate(order):
            pos[k] = p
        length = tuple(depth[k] for k in order)
        lgen = ((),) + tuple(tuple(pos[row[k]] for k in order) for row in nbrs)
        first = tuple(
            next((i for i in range(1, len(lgen)) if length[lgen[i][p]] < lp), 0)
            for p, lp in enumerate(length)
        )
        self._tables = Tables(
            src=tuple(src[k] for k in order),
            tgt=tuple(tgt[k] for k in order),
            smap=tuple(smap[k] for k in order),
            length=length,
            lgen=lgen,
            first=first,
        )
        self._search = None

    def length_theory(self) -> bool:
        """The tables against the root data, one pass over the edges (k, i):
        - the positions are strictly increasing in (length, source, target,
          map), so distinct, and the first |domains| are the identities;
        - lgen[i][k] has k's source, target act(i, tgt) and map
          sigma_{i,tgt}∘smap[k], and its length is length[k] + 1 if
          smap[k]^-1(alpha_{i,tgt}) is positive at the source, length[k] - 1
          otherwise (Heckenberger-Yamane, Math. Z. 259, 2008);
        - first[k] is the smallest letter that lowers the length, and 0
          exactly at the identities.
        Following `first` from k lowers the length by one at each step, down
        to an identity, so by induction up that path the length of k is its
        number of inverted positive roots, first[k] its smallest left
        descent, and its canonical word evaluates to it.  Every element is
        reached from the identities along `lgen`, so the positions are the
        groupoid's elements."""
        src, tgt, smap, length, lgen, first = self.tables()
        rs = self.roots
        nd = len(rs.domains)
        ident = sp_identity(rs.dim)
        if any((src[a], tgt[a], smap[a], length[a]) != (a, a, ident, 0) for a in range(nd)):
            return False
        if not all(x < y for x, y in pairwise(zip(length, src, tgt, smap))):
            return False
        positive = [rs.positive_roots(a) for a in rs.domains]
        # per domain and letter: the target, the reflection lookup, and the
        # simple root's nonzero coordinates
        edges = [
            [(i, t, lookup, [(p, c) for p, c in enumerate(rs.simple_root(i, a)) if c])
             for i, (t, lookup) in enumerate(row, 1)]
            for a, row in zip(rs.domains, self._steps())
        ]
        for k, (s, m, lk) in enumerate(zip(src, smap, length)):
            inv = sp_invert(m)
            descent = 0
            for i, t, lookup, alpha in edges[tgt[k]]:
                j = lgen[i][k]
                if src[j] != s or tgt[j] != t or smap[j] != tuple(map(lookup, m)):
                    return False
                beta = [0] * len(m)  # smap[k]^-1(alpha_{i,tgt})
                for p, c in alpha:
                    v = inv[p]
                    beta[abs(v) - 1] += c if v > 0 else -c
                if tuple(beta) in positive[s]:
                    if length[j] != lk + 1:
                        return False
                elif length[j] != lk - 1:
                    return False
                elif not descent:
                    descent = i
            if first[k] != descent or (descent == 0) != (k < nd):
                return False
        return True

    # ---- words ----

    def evaluate(self, word: Word) -> Element:
        cur = self.identity(word.base)
        for letter in reversed(word.letters):
            cur = self.multiply(self.generator(letter, cur.target), cur)
        return cur

    def word_domains(self, word: Word) -> list[Domain]:
        """Domain at which each letter applies (indexed like word.letters)."""
        doms = [word.base] * len(word.letters)
        dom = word.base
        for k in range(len(word.letters) - 1, -1, -1):
            doms[k] = dom
            dom = act(self.family, word.letters[k], dom)
        return doms

    def canonical_reduced_word(self, w: Element) -> Word:
        """Deterministic reduced word: strip the smallest left descent first."""
        letters: list[int] = []
        cur = w
        for _ in range(self.length(w)):
            for i in range(1, self.family.rank + 1):
                if self.left_descent(cur, i):
                    letters.append(i)
                    cur = self.multiply(self.generator(i, cur.target), cur)
                    break
            else:
                raise AssertionError("no left descent on a positive-length element")
        return Word(w.source, tuple(letters))

    def all_reduced_words(self, w: Element) -> tuple[Word, ...]:
        """Every reduced word for w, by descent recursion; sorted."""
        letters = self._all_reduced_letters(w)
        return tuple(Word(w.source, ls) for ls in letters)

    def _all_reduced_letters(self, w: Element) -> tuple[tuple[int, ...], ...]:
        cached = self._reduced_words.get(w)
        if cached is not None:
            return cached
        if self.length(w) == 0:
            out: tuple[tuple[int, ...], ...] = ((),)
        else:
            acc = []
            for i in range(1, self.family.rank + 1):
                if self.left_descent(w, i):
                    rest = self.multiply(self.generator(i, w.target), w)
                    for tail in self._all_reduced_letters(rest):
                        acc.append((i,) + tail)
                        if len(acc) > _REDUCED_WORDS_CAP:
                            raise SizeCapExceeded("too many reduced words")
            out = tuple(sorted(acc))
        self._reduced_words[w] = out
        return out

    # ---- braid moves ----

    def braid_moves(self, word: Word) -> list[Word]:
        """All words obtained by one braid-relation substitution.

        A segment of letters alternating between i and j, of length exactly
        m_{i,j;b} where b is the domain at the segment's rightmost letter, is
        replaced by the swapped alternation.
        """
        letters = word.letters
        out = []
        # end: the rightmost index of the segment
        for end, (i, b) in enumerate(zip(letters, self.word_domains(word))):
            for j in range(1, self.family.rank + 1):
                if j == i:
                    continue
                m = self.roots.coxeter_entry(i, j, b)
                start = end - m + 1
                if start >= 0 and letters[start : end + 1] == alternating(i, j, m):
                    swapped = letters[:start] + alternating(j, i, m) + letters[end + 1 :]
                    out.append(Word(word.base, swapped))
        return out

    def braid_connected(self, w: Element) -> bool:
        """Whether braid moves connect all reduced words of w (the word-problem
        connectivity statement)."""
        words = {word.letters for word in self.all_reduced_words(w)}
        if len(words) <= 1:
            return True
        start = next(iter(words))
        seen = {start}
        stack = [start]
        while stack:
            cur = stack.pop()
            for moved in self.braid_moves(Word(w.source, cur)):
                ls = moved.letters
                if ls in words and ls not in seen:
                    seen.add(ls)
                    stack.append(ls)
        return seen == words


@lru_cache(maxsize=None)
def groupoid_for(family: Family) -> CoxeterGroupoid:
    return CoxeterGroupoid(family)


def dimension_formula(family: Family) -> int:
    """Closed-form |W \\ {0}| for each family."""
    m, n = family.m, family.n
    if family.kind == "A":
        return factorial(m + n + 2) ** 2 // (factorial(m + 1) * factorial(n + 1))
    if family.kind == "B":
        return 2 ** (m + n) * factorial(m + n) ** 2 // (factorial(m) * factorial(n))
    return (
        2 ** (m + n - 1)
        * (factorial(m + n - 1) * (m + 2 * n)) ** 2
        // (factorial(m) * factorial(n))
    )


def element_to_json(w: Element):
    return {
        "source": domain_to_json(w.source),
        "target": domain_to_json(w.target),
        "perm": [[abs(v), 1 if v > 0 else -1] for v in w.smap],
    }


def word_to_json(word: Word):
    return {"base": domain_to_json(word.base), "letters": list(word.letters)}
