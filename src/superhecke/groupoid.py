"""Coxeter groupoids through their faithful signed-permutation representation.

An element is the triple (source domain, target domain, signed permutation);
the representation is faithful, so equality of triples is equality in the
groupoid.  Every layer walks elements on the integer key (s, t, m): the
indices of the source and target in `roots.domains` and the signed map.  Two
helpers do all the stepping and all the descent tests:
- `row(a)`, built on first use, gives for each letter i at the domain of
  index a the target index and two lookups, one that turns m into
  sigma_{i,a}∘m and one that turns it into m^-1(alpha_{i,a}); so a single
  word touches only the domains it passes through;
- `descents(s, t, m)` tells, for each letter i, whether s_{i,t}·w is shorter
  than w, that is whether m^-1(alpha_{i,t}) is a negative root at s
  (Heckenberger-Yamane, Math. Z. 259, 2008).
A word's element, its canonical and all its reduced words follow the letters
and the descents from its key alone, so `words` never enumerates.

Enumeration is one breadth-first search from the identities on the keys,
with ids given in discovery order.  An element's length is its minimal word
length, the depth at which the search first reaches it.  `order` is the size
of the search.  The flat integer tables (`Tables`) are built only when
asked, from one sort of the ids, and `elements` only from the tables; bulk
work on every element, `length_theory`'s proof of the tables included,
reads the tables.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable
from functools import lru_cache
from itertools import pairwise
from math import factorial, inf
from typing import NamedTuple

from .domains import Domain, Family, UsageError, act, domain_to_json
from .roots import RootSystem, SignedPerm, root_system, sp_identity


class Element(NamedTuple):
    source: Domain
    target: Domain
    smap: SignedPerm


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


# letter i at one domain, a plain tuple so that it unpacks fast: the target
# position, and the lookups of the reflection and the simple root (see
# `CoxeterGroupoid.row`)
_Edge = tuple[int, Callable[[int], int], Callable[[int], int]]


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
        # position in `roots.domains` of each domain
        self.domain_index: dict[Domain, int] = {a: j for j, a in enumerate(self.roots.domains)}
        self._rows: list[list[_Edge] | None] = [None] * len(self.roots.domains)
        self._lookups: dict[tuple[int, ...], Callable[[int], int]] = {}
        self._order: int | None = None
        self._search: _Search | None = None
        self._elements: tuple[Element, ...] | None = None
        self._tables: Tables | None = None
        self._reduced_words: dict[tuple[int, int, SignedPerm], tuple[tuple[int, ...], ...]] = {}

    # ---- one step on the key (s, t, m) ----

    def _signed(self, x: tuple[int, ...]) -> Callable[[int], int]:
        """The lookup v -> sign(v)·x[|v| - 1], for 0 < |v| <= len(x); one per
        distinct x."""
        lookup = self._lookups.get(x)
        if lookup is None:
            table = [0] * (2 * len(x) + 1)
            for v, c in enumerate(x, 1):
                table[v], table[-v] = c, -c
            lookup = self._lookups[x] = table.__getitem__
        return lookup

    def row(self, a: int) -> list[_Edge]:
        """row[i - 1] for the domain at position a and letter i: the position
        of act(i, a), and `_signed` lookups of the reflection sigma_{i,a} and
        of alpha_{i,a}; sigma_{i,a}∘m is `tuple(map(lookup, m))`.  Built on
        first use."""
        row = self._rows[a]
        if row is None:
            rs = self.roots
            d = rs.domains[a]
            row = self._rows[a] = [
                (
                    self.domain_index[act(self.family, i, d)],
                    self._signed(rs.reflection(i, d)),
                    self._signed(rs.simple_root(i, d)),
                )
                for i in range(1, self.family.rank + 1)
            ]
        return row

    def descents(self, s: int, t: int, m: SignedPerm) -> list[bool]:
        """For each letter i, whether i is a left descent of w = (s, t, m):
        whether m^-1(alpha_{i,t}) is a negative root at the source s, so that
        s_{i,t}·w is one shorter than w, and otherwise one longer.  The
        inverse of a signed permutation is its transpose, so m^-1(alpha) is
        `tuple(map(alpha_lookup, m))`."""
        positive = self.roots.positive_roots(self.roots.domains[s])
        return [tuple(map(alpha, m)) not in positive for _, _, alpha in self.row(t)]

    def _key(self, w: Element) -> tuple[int, int, SignedPerm]:
        return self.domain_index[w.source], self.domain_index[w.target], w.smap

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

    def _breadth_first(self, cap: float) -> _Search:
        """Breadth-first search from the identities on integer keys.

        Each s_i·w is one `row` lookup per coordinate of w's map, looked up
        among the ids found with its source and target.  Each domain's
        identity is an element, so more domains than the cap are refused
        before anything is built."""
        nd = len(self.roots.domains)
        if nd > cap:
            raise SizeCapExceeded(f"more than {cap} elements")
        rows = [self.row(a) for a in range(nd)]
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
                for nb, (t, lookup, _) in zip(nbrs, rows[tgt[k]]):
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
                    nb.append(uid)
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
        nd = len(self.roots.domains)
        ident = sp_identity(self.roots.dim)
        if any((src[a], tgt[a], smap[a], length[a]) != (a, a, ident, 0) for a in range(nd)):
            return False
        if not all(x < y for x, y in pairwise(zip(length, src, tgt, smap))):
            return False
        for k, (s, t, m, lk) in enumerate(zip(src, tgt, smap, length)):
            descent = 0
            steps = zip(self.row(t), self.descents(s, t, m))
            for i, ((u, lookup, _), down) in enumerate(steps, 1):
                j = lgen[i][k]
                if src[j] != s or tgt[j] != u or smap[j] != tuple(map(lookup, m)):
                    return False
                if length[j] != (lk - 1 if down else lk + 1):
                    return False
                if down and not descent:
                    descent = i
            if first[k] != descent or (descent == 0) != (k < nd):
                return False
        return True

    # ---- words ----

    def evaluate(self, word: Word) -> Element:
        t = self.domain_index[word.base]
        m = sp_identity(self.roots.dim)
        for i in reversed(word.letters):
            t, lookup, _ = self.row(t)[i - 1]
            m = tuple(map(lookup, m))
        return Element(word.base, self.roots.domains[t], m)

    def word_domains(self, word: Word) -> list[Domain]:
        """Domain at which each letter applies (indexed like word.letters)."""
        doms = [word.base] * len(word.letters)
        t = self.domain_index[word.base]
        for k in range(len(word.letters) - 1, -1, -1):
            doms[k] = self.roots.domains[t]
            t = self.row(t)[word.letters[k] - 1][0]
        return doms

    def canonical_reduced_word(self, w: Element) -> Word:
        """Deterministic reduced word: strip the smallest left descent first,
        down to the identity, the one element with no left descent."""
        s, t, m = self._key(w)
        letters: list[int] = []
        while True:
            down = self.descents(s, t, m)
            if True not in down:
                return Word(w.source, tuple(letters))
            i = down.index(True) + 1
            letters.append(i)
            t, lookup, _ = self.row(t)[i - 1]
            m = tuple(map(lookup, m))

    def all_reduced_words(self, w: Element) -> tuple[Word, ...]:
        """Every reduced word for w, by descent recursion; sorted."""
        letters = self._all_reduced_letters(*self._key(w))
        return tuple(Word(w.source, ls) for ls in letters)

    def _all_reduced_letters(self, s: int, t: int, m: SignedPerm) -> tuple[tuple[int, ...], ...]:
        cached = self._reduced_words.get((s, t, m))
        if cached is not None:
            return cached
        acc = []
        steps = zip(self.row(t), self.descents(s, t, m))
        for i, ((u, lookup, _), down) in enumerate(steps, 1):
            if down:
                for tail in self._all_reduced_letters(s, u, tuple(map(lookup, m))):
                    acc.append((i,) + tail)
                    if len(acc) > _REDUCED_WORDS_CAP:
                        raise SizeCapExceeded("too many reduced words")
        # no left descent: w is an identity, whose one reduced word is empty
        out = tuple(sorted(acc)) or ((),)
        self._reduced_words[s, t, m] = out
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
