"""The Iwahori-Hecke type algebra H_q(W) on the standard basis f(w).

The algebra is realized concretely through left-multiplication operators on
the basis indexed by nonzero groupoid elements; associativity is not assumed
but verified exhaustively at desk scale by the test-suite.  Products work over
Z[q, q^-1] (Laurent polynomials in q, no division ever happens), the ring the
algebra is defined over.  A table at a rational q0 is this one specialised
at q0 (see `cli`), and a relation proved over Z[q, q^-1] holds at every
q0 != 0.

Inside the algebra an element is a dict {basis index: coefficient id}.  A
basis index is a position in the groupoid's integer tables, which start
with the identities in the order of the domains, and left multiplication by
a generator reads the tables (`lgen`, `length`).  The algebra builds no
groupoid element: a failure message builds the one it names.  A
coefficient id is a key of the algebra's `CoefficientRing`: a table has few
distinct coefficients, so `_lmul`, the one generator rule that both the
table and the presentation check multiply through, adds and multiplies by
memoised lookups.  LaurentPoly appears only at the edges: in the q and
q - 1 that the relations intern, and in the rows that
`structure_constants()` yields.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from functools import lru_cache
from typing import NamedTuple

from .domains import Domain, Family, domain_to_json
from .groupoid import CoxeterGroupoid, Tables, alternating, groupoid_for
from .roots import root_system
from .scalars import CoefficientRing, LaurentPoly, laurent_to_json


class StructureConstants(Mapping):
    """The table c^w_{u,v}, read-only: (u, v) -> sparse row of (w, LaurentPoly),
    in (u, v) order.  It is stored once, as `rows` of (w, coefficient id)
    beside the ring's `polys`; a LaurentPoly row is built when it is read."""

    __slots__ = ("rows", "polys")

    def __init__(
        self, rows: dict[tuple[int, int], tuple[tuple[int, int], ...]], polys: list[LaurentPoly]
    ):
        self.rows = rows
        self.polys = polys

    def __getitem__(self, key: tuple[int, int]) -> tuple[tuple[int, LaurentPoly], ...]:
        polys = self.polys
        return tuple((w, polys[c]) for w, c in self.rows[key])

    def __contains__(self, key) -> bool:
        return key in self.rows

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


class RelationInstance(NamedTuple):
    name: str
    base: Domain
    left: tuple[int, ...]
    right: tuple[int, ...]


class PresentationReport(NamedTuple):
    family: Family
    checked: int
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures


def _braid_instance(name: str, i: int, j: int, a: Domain, m: int) -> RelationInstance:
    return RelationInstance(name, a, alternating(i, j, m), alternating(j, i, m))


def family_braid_instances(fam: Family) -> list[RelationInstance]:
    """The family presentation lists, written as word pairs: they need only
    the family and its domains, not the algebra."""
    rs = root_system(fam)
    l = fam.rank
    out: list[RelationInstance] = []
    if fam.kind == "A":
        for a in rs.domains:
            for i in range(1, l + 1):
                for j in range(i + 1, l + 1):
                    if j == i + 1:
                        out.append(_braid_instance("HArel9", i, j, a, 3))
                    else:
                        out.append(_braid_instance("HArel10", i, j, a, 2))
        return out
    if fam.kind == "B":
        for a in rs.domains:
            if l >= 2:
                out.append(_braid_instance("HBrel9", l - 1, l, a, 4))
            for i in range(1, l - 1):
                out.append(_braid_instance("HBrel10", i, i + 1, a, 3))
            for i in range(1, l + 1):
                for j in range(i + 2, l + 1):
                    if (i, j) != (l - 1, l):
                        out.append(_braid_instance("HBrel11", i, j, a, 2))
        return out
    for a in rs.domains:
        p, tag = a.parities, a.tag
        covered: set[tuple[int, int]] = set()

        def add(name, i, j, m):
            covered.add((i, j))
            out.append(_braid_instance(name, i, j, a, m))

        if l >= 2:
            if tag in ("C+", "C-") and p[l - 2] == p[l - 1]:
                add("HCDrel9", l - 1, l, 4)
            elif tag == "D" and p[l - 2] == p[l - 1]:
                add("HCDrel10", l - 1, l, 2)
            else:
                add("HCDrel11", l - 1, l, 3)
        for i in range(1, l - 2):
            add("HCDrel12", i, i + 1, 3)
        if l >= 3:
            if tag == "C+":
                add("HCDrel13", l - 2, l - 1, 3)
            if tag == "C-":
                add("HCDrel14", l - 2, l, 3)
            if tag == "D":
                add("HCDrel15", l - 2, l - 1, 3)
                add("HCDrel15", l - 2, l, 3)
        for i in range(1, l + 1):
            for j in range(i + 1, l + 1):
                if (i, j) not in covered:
                    add("HCDrel16", i, j, 2)
    return out


class HeckeAlgebra:
    """H_q(W) for one family, over Z[q, q^-1]."""

    # the scalar mode of the table, named in the benchmark's spans
    mode = "poly"

    def __init__(self, family: Family):
        self.family = family
        self.q = LaurentPoly.q()
        self.ring = CoefficientRing()
        self._one = self.ring.intern(LaurentPoly.one())
        self._q = self.ring.intern(self.q)
        self._qm1 = self.ring.intern(self.q - 1)
        self.groupoid: CoxeterGroupoid = groupoid_for(family)
        self.tables: Tables = self.groupoid.tables()
        self._table: StructureConstants | None = None

    # ---- left multiplication by generators ----

    def _lmul(self, i: int, a: int, terms) -> dict[int, int]:
        """T_{i,a} applied to the (index, coefficient id) pairs of terms: the
        one generator rule of the algebra, on memoised ring operations."""
        T = self.tables
        tgt, length, gen = T.tgt, T.length, T.lgen[i]
        add_to, mul = self.ring.add_to, self.ring.mul
        q, qm1 = self._q, self._qm1
        out: dict[int, int] = {}
        for k, c in terms:
            if tgt[k] != a:
                continue
            sk = gen[k]
            if length[sk] > length[k] or tgt[sk] != a:  # longer, or i moves a
                add_to(out, sk, c)
            else:
                add_to(out, k, mul(c, qm1))
                add_to(out, sk, mul(c, q))
        return out

    # ---- structure constants ----

    def structure_constants(self) -> StructureConstants:
        """Complete table c^w_{u,v}, keyed by basis indices, sparse rows, in
        (u, v) order.

        Basis order starts with length, so the row of u' = lgen[i][u], with
        i = first[u], is in the table before u's, and
        f(u) f(v) = T_{i, tgt(u')} (f(u') f(v)) costs one generator product.
        """
        if self._table is not None:
            return self._table
        T = self.tables
        by_target: list[list[int]] = [[] for _ in self.groupoid.roots.domains]
        for v, a in enumerate(T.tgt):
            by_target[a].append(v)
        rows: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}
        one = self._one
        for u, a in enumerate(T.src):
            if T.length[u] == 0:
                for v in by_target[a]:
                    rows[(u, v)] = ((v, one),)
                continue
            i = T.first[u]
            r = T.lgen[i][u]
            b = T.tgt[r]
            for v in by_target[a]:
                z = self._lmul(i, b, rows[(r, v)])
                if z:
                    rows[(u, v)] = tuple(sorted(z.items()))
        self._table = StructureConstants(rows, self.ring.polys)
        return self._table

    def structconst_header(self) -> dict:
        """The structure-constant document without its entries."""
        T = self.tables
        domains = self.groupoid.roots.domains
        return {
            "schema_version": 1,
            "family": self.family._asdict(),
            "mode": self.mode,
            "basis": [
                {"base": domain_to_json(domains[a]), "letters": list(T.canonical_letters(k))}
                for k, a in enumerate(T.src)
            ],
        }

    def structure_constants_json(self):
        entries = [
            {
                "u": u,
                "v": v,
                "terms": [{"w": w, "poly": laurent_to_json(c)} for w, c in row],
            }
            for (u, v), row in self.structure_constants().items()
        ]
        return {**self.structconst_header(), "entries": entries}

    # ---- presentation ----

    def braid_instances_from_coxeter(self) -> list[RelationInstance]:
        """Braid relation instances derived from the Definition-4 entries."""
        rs = self.groupoid.roots
        out = []
        for a in rs.domains:
            for i in range(1, self.family.rank + 1):
                for j in range(i + 1, self.family.rank + 1):
                    m = rs.coxeter_entry(i, j, a)
                    out.append(_braid_instance("coxeter", i, j, a, m))
        return out

    def verify_presentation(self) -> PresentationReport:
        """Check every defining relation instance in the left regular module.

        Each side is a dict {basis index: coefficient id}.  A generator acts
        by `_lmul`; E_a on the left keeps the terms of target a, on the right
        those of source a.  The relations intern q and q - 1 themselves
        rather than read the rule's `_q` and `_qm1`, so a wrong rule cannot
        agree with itself."""
        G = self.groupoid
        T = self.tables
        fam = self.family
        lmul, one = self._lmul, self._one
        q, qm1 = self.ring.intern(self.q), self.ring.intern(self.q - 1)
        domains = G.roots.domains
        rows = [G.row(a) for a in range(len(domains))]
        E = [{a: one} for a in range(len(domains))]  # the identities lead the tables
        checked = 0
        failures: list[str] = []

        def check(ok: bool, msg: str, *args):
            # the message is formatted only for a failure
            nonlocal checked
            checked += 1
            if not ok:
                failures.append(msg.format(*args))

        def position(*key) -> int:
            # of the element keyed (length, source, target, map), in the order of the tables
            at = lambda k: (T.length[k], T.src[k], T.tgt[k], T.smap[k])
            return bisect_left(range(len(T.src)), key, key=at)

        def left(a: int, x: dict[int, int]) -> dict[int, int]:  # E_a x
            return {k: c for k, c in x.items() if T.tgt[k] == a}

        def right(x: dict[int, int], a: int) -> dict[int, int]:  # x E_a
            return {k: c for k, c in x.items() if T.src[k] == a}

        def word(letters: tuple[int, ...], a: int) -> dict[int, int]:
            # the element T_{i1} ... T_{im, a} for the domain at position a,
            # the rightmost letter first
            x = E[a]
            for i in reversed(letters):
                x = lmul(i, a, x.items())
                a = rows[a][i - 1][0]
            return x

        # idempotent relations
        for a in range(len(domains)):
            check(right(E[a], a) == E[a], "E_a^2 != E_a at {}", domains[a])
            for b in range(len(domains)):
                if b != a:
                    check(not right(E[a], b), "E_a E_b != 0 at {}, {}", domains[a], domains[b])
        # sum of idempotents is the unit: on the left it keeps every term of
        # f(w); on the right it is E_source(w), on which f(w)'s canonical
        # letters act, letter i from position a to position rows[a][i - 1][0]
        for k, a in enumerate(T.src):
            ok = word(T.canonical_letters(k), a) == {k: one}
            check(ok, "sum of E_a is not the unit on {}", None if ok else G.elements()[k])
        # generator relations
        for a, d in enumerate(domains):
            for i in range(1, fam.rank + 1):
                b = rows[a][i - 1][0]
                g = position(1, a, b, G.roots.reflection(i, d))  # s_{i,a}
                tia = {g: one}
                check(
                    left(b, lmul(i, a, E[a].items())) == tia,
                    "E_(i>a) T_(i,a) E_a != T_(i,a) at i={}, a={}",
                    i,
                    d,
                )
                if b == a:
                    check(
                        lmul(i, a, tia.items()) == {g: qm1, a: q},
                        "quadratic relation fails at i={}, a={}",
                        i,
                        d,
                    )
                else:
                    check(
                        lmul(i, b, tia.items()) == E[a],
                        "isotropic relation T_(i,i>a) T_(i,a) != E_a at i={}, a={}",
                        i,
                        d,
                    )
        # braid relations: family lists, and agreement with the coxeter-derived set
        fam_list = family_braid_instances(fam)
        cox_list = self.braid_instances_from_coxeter()

        def key(inst: RelationInstance):
            return (inst.base, min(inst.left, inst.right), max(inst.left, inst.right))

        fam_keys = {key(r) for r in fam_list}
        cox_keys = {key(r) for r in cox_list}
        check(
            fam_keys == cox_keys,
            "family relation list differs from the Definition-4 braid list: "
            "only-family={} only-coxeter={}",
            sorted(fam_keys - cox_keys)[:3],
            sorted(cox_keys - fam_keys)[:3],
        )
        for inst in fam_list + cox_list:
            a = G.domain_index[inst.base]
            check(
                word(inst.left, a) == word(inst.right, a),
                "{} fails at base={}, {} vs {}",
                inst.name,
                inst.base,
                inst.left,
                inst.right,
            )
        return PresentationReport(fam, checked, failures)


@lru_cache(maxsize=None)
def hecke_poly(family: Family) -> HeckeAlgebra:
    return HeckeAlgebra(family)
