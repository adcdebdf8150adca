"""The Iwahori-Hecke type algebra H_q(W) on the standard basis f(w).

The algebra is realized concretely through left-multiplication operators on
the basis indexed by nonzero groupoid elements; associativity is not assumed
but verified exhaustively at desk scale by the test-suite.  Products work over
Z[q, q^-1] (Laurent polynomials in q, no division ever happens), the ring the
algebra is defined over.  A table at a rational q0 is this one specialised
at q0 (see `cli`), and a relation proved over Z[q, q^-1] holds at every
q0 != 0.

Inside the algebra a basis element is its position in the groupoid's
`elements()`, and left multiplication by a generator reads the groupoid's
integer tables (`lgen`, `length`); groupoid elements appear only where the
API takes or returns them (`f`, `e`, `t`, JSON).  Likewise a coefficient is
its id in the algebra's `CoefficientRing`: a table has few distinct
coefficients, so `_lmul`, the one generator rule, adds and multiplies by
memoised lookups.  LaurentPoly appears only at the edges: in
`HeckeElement.items()`, in `scaled`'s argument, and in the rows that
`structure_constants()` yields.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from typing import NamedTuple

from .domains import Domain, Family, act, domain_to_json
from .groupoid import CoxeterGroupoid, Element, Tables, Word, groupoid_for
from .roots import root_system
from .scalars import CoefficientRing, LaurentPoly, laurent_to_json


class HeckeElement:
    """Finite scalar combination of basis elements f(w), keyed by basis
    index; immutable.  It takes ownership of terms, a dict from basis index
    to the nonzero coefficient's id in ring; `items()` gives the
    coefficients as LaurentPoly."""

    __slots__ = ("_terms", "_ring")

    def __init__(self, terms: dict[int, int], ring: CoefficientRing):
        self._terms = terms
        self._ring = ring

    def items(self) -> list[tuple[int, LaurentPoly]]:
        polys = self._ring.polys
        return [(k, polys[c]) for k, c in self._terms.items()]

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        add_to = self._ring.add_to
        d = dict(self._terms)
        for w, c in other._terms.items():
            add_to(d, w, c)
        return HeckeElement(d, self._ring)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + other.scaled(-1)

    def scaled(self, c: int | LaurentPoly) -> "HeckeElement":
        ring = self._ring
        k = ring.intern(c if isinstance(c, LaurentPoly) else LaurentPoly.from_int(c))
        if not k:
            return HeckeElement({}, ring)
        return HeckeElement({w: ring.mul(x, k) for w, x in self._terms.items()}, ring)

    def __eq__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        if self._ring is other._ring:
            return self._terms == other._terms
        return dict(self.items()) == dict(other.items())

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __repr__(self):
        if not self._terms:
            return "HeckeElement(0)"
        return "HeckeElement(" + ", ".join(f"{c}*f[{k}]" for k, c in self.items()) + ")"


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
    # side ending (rightmost) in i, and the swapped side ending in j
    side_i = tuple((i if t % 2 == 0 else j) for t in range(m))[::-1]
    side_j = tuple((j if t % 2 == 0 else i) for t in range(m))[::-1]
    return RelationInstance(name, a, side_i, side_j)


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
        self.one = LaurentPoly.one()
        self.ring = CoefficientRing()
        self._one = self.ring.intern(self.one)
        self._q = self.ring.intern(self.q)
        self._qm1 = self.ring.intern(self.q - 1)
        self.groupoid: CoxeterGroupoid = groupoid_for(family)
        self.basis: tuple[Element, ...] = self.groupoid.elements()
        self.tables: Tables = self.groupoid.tables()
        self.index: dict[Element, int] = self.tables.index
        self._domain: dict[Domain, int] = {a: j for j, a in enumerate(self.groupoid.roots.domains)}
        self._table: StructureConstants | None = None

    # ---- basis elements ----

    def f(self, w: Element) -> HeckeElement:
        return HeckeElement({self.index[w]: self._one}, self.ring)

    def e(self, a: Domain) -> HeckeElement:
        return self.f(self.groupoid.identity(a))

    def t(self, i: int, a: Domain) -> HeckeElement:
        return self.f(self.groupoid.generator(i, a))

    def unit(self) -> HeckeElement:
        """Sum of all idempotents E_a: the unit of the algebra."""
        return HeckeElement(
            {self.index[self.groupoid.identity(a)]: self._one for a in self.groupoid.roots.domains},
            self.ring,
        )

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

    def _lmul_basis(self, u: int, terms: dict[int, int]) -> dict[int, int]:
        """f(u) applied to terms supported on target source(u): the letters of
        u's canonical word, the rightmost first."""
        T = self.tables
        steps = []
        while T.length[u]:
            i = T.first[u]
            u = T.lgen[i][u]
            steps.append((i, T.tgt[u]))
        for i, a in reversed(steps):
            terms = self._lmul(i, a, terms.items())
        return terms

    def apply_word(self, word: Word, x: HeckeElement) -> HeckeElement:
        """Left-multiply x by T_{i1} ... T_{im, base} (no source projection)."""
        doms = self.groupoid.word_domains(word)
        terms = x._terms
        for k in range(len(word.letters) - 1, -1, -1):
            terms = self._lmul(word.letters[k], self._domain[doms[k]], terms.items())
            if not terms:
                break
        return HeckeElement(terms, self.ring)

    def element_of_word(self, word: Word) -> HeckeElement:
        """The algebra element T_{i1} ... T_{im, base} itself."""
        return self.apply_word(word, self.e(word.base))

    # ---- products ----

    def product(self, x: HeckeElement, y: HeckeElement) -> HeckeElement:
        """Bilinear product; the left factor is decomposed by canonical words.
        y is split by target domain once, so each term f(u) of x meets only
        the part of y that f(u) can multiply."""
        T = self.tables
        add_to, mul = self.ring.add_to, self.ring.mul
        by_target: dict[int, dict[int, int]] = {}
        for v, c in y._terms.items():
            by_target.setdefault(T.tgt[v], {})[v] = c
        total: dict[int, int] = {}
        for u, cu in x._terms.items():
            z = by_target.get(T.src[u])
            if z is None:
                continue
            for w, c in self._lmul_basis(u, z).items():
                add_to(total, w, mul(c, cu))
        return HeckeElement(total, self.ring)

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
        by_target: list[list[int]] = [[] for _ in self._domain]
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
        return {
            "schema_version": 1,
            "family": {"kind": self.family.kind, "m": self.family.m, "n": self.family.n},
            "mode": self.mode,
            "basis": [
                {"base": domain_to_json(w.source), "letters": list(T.canonical_letters(k))}
                for k, w in enumerate(self.basis)
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
        """Check every defining relation instance as a HeckeElement identity."""
        G = self.groupoid
        rs = G.roots
        fam = self.family
        checked = 0
        failures: list[str] = []

        def check(ok: bool, msg: str, *args):
            # the message is formatted only for a failure
            nonlocal checked
            checked += 1
            if not ok:
                failures.append(msg.format(*args))

        domains = rs.domains
        # idempotent relations
        for a in domains:
            ea = self.e(a)
            check(self.product(ea, ea) == ea, "E_a^2 != E_a at {}", a)
            for b in domains:
                if b != a:
                    check(self.product(ea, self.e(b)).is_zero, "E_a E_b != 0 at {}, {}", a, b)
        # sum of idempotents is the unit
        unit = self.unit()
        for w in self.basis:
            fw = self.f(w)
            check(
                self.product(unit, fw) == fw and self.product(fw, unit) == fw,
                "sum of E_a is not the unit on {}",
                w,
            )
        # generator relations
        for a in domains:
            for i in range(1, fam.rank + 1):
                b = act(fam, i, a)
                tia = self.t(i, a)
                check(
                    self.product(self.product(self.e(b), tia), self.e(a)) == tia,
                    "E_(i>a) T_(i,a) E_a != T_(i,a) at i={}, a={}",
                    i,
                    a,
                )
                if b == a:
                    lhs = self.product(tia, tia)
                    rhs = self.t(i, a).scaled(self.q - 1) + self.e(a).scaled(self.q)
                    check(lhs == rhs, "quadratic relation fails at i={}, a={}", i, a)
                else:
                    check(
                        self.product(self.t(i, b), tia) == self.e(a),
                        "isotropic relation T_(i,i>a) T_(i,a) != E_a at i={}, a={}",
                        i,
                        a,
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
            lhs = self.element_of_word(Word(inst.base, inst.left))
            rhs = self.element_of_word(Word(inst.base, inst.right))
            check(
                lhs == rhs,
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
