"""Box-tensor representations of H_q(W) and machine verification of the
semisimplicity / isomorphism theorems.

A block representation lives on one copy of V (x) W per domain.  Generators
whose node is isotropic transport blocks identically; even nodes act through
a classical Hecke irreducible on the left or right tensor factor, with the
block-sorting permutations translating generator indices.  The direct sum
over all label pairs is checked to be an isomorphism onto the matrix-algebra
product by exact rank computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .domains import (
    Domain,
    Family,
    act,
    enumerate_domains,
    invert_perm,
    tau_minus,
    tau_plus,
)
from .groupoid import CoxeterGroupoid, Element, dimension_formula, groupoid_for
from .hecke import HeckeAlgebra, hecke_poly
from .linalg import IntEchelon, Matrix, flatten, kron, mat_identity, mat_mul
from .weylgroups import WeylType, is_semisimple
from .weylreps import Irrep, irreps


def factor_types(family: Family) -> tuple[WeylType, WeylType]:
    """Classical Weyl types of the left and right tensor factors."""
    if family.kind == "A":
        return WeylType("A", family.m + 1), WeylType("A", family.n + 1)
    if family.kind == "B":
        return WeylType("B", family.m), WeylType("B", family.n)
    return WeylType("D", family.m), WeylType("B", family.n)


@dataclass
class BlockRep:
    """One box-tensor representation: block data per generator and domain.

    blocks[i][a] = (target domain, matrix) describing T_{i,a} as a map from
    the a-block to the target block; E_a acts as the projector onto block a.
    """

    family: Family
    q0: Fraction
    left: Irrep
    right: Irrep
    domains: tuple[Domain, ...]
    block_dim: int
    blocks: dict[int, dict[Domain, tuple[Domain, Matrix]]]

    @property
    def total_dim(self) -> int:
        return len(self.domains) * self.block_dim

    def domain_index(self, a: Domain) -> int:
        return self.domains.index(a)

    def matrix_e(self, a: Domain) -> Matrix:
        n = self.total_dim
        out = [[Fraction(0)] * n for _ in range(n)]
        k = self.domain_index(a) * self.block_dim
        for t in range(self.block_dim):
            out[k + t][k + t] = Fraction(1)
        return out

    def matrix_t(self, i: int, a: Domain) -> Matrix:
        n = self.total_dim
        out = [[Fraction(0)] * n for _ in range(n)]
        b, block = self.blocks[i][a]
        row0 = self.domain_index(b) * self.block_dim
        col0 = self.domain_index(a) * self.block_dim
        for r in range(self.block_dim):
            for c in range(self.block_dim):
                if block[r][c]:
                    out[row0 + r][col0 + c] = block[r][c]
        return out


def _tensor_left(mat: Matrix, right_dim: int) -> Matrix:
    return kron(mat, mat_identity(right_dim))


def _tensor_right(left_dim: int, mat: Matrix) -> Matrix:
    return kron(mat_identity(left_dim), mat)


def box_tensor(family: Family, left: Irrep, right: Irrep) -> BlockRep:
    """The box-tensor representation of H_q(W) built from classical irreps."""
    if family.kind == "A":
        return box_A(family, left, right)
    if family.kind == "B":
        return box_B(family, left, right)
    return box_CD(family, left, right)


def _check_ranks(family: Family, left: Irrep, right: Irrep):
    lt, rt = factor_types(family)
    expect_l = lt.n - 1 if lt.kind == "A" else lt.n
    expect_r = rt.n - 1 if rt.kind == "A" else rt.n
    if lt.kind == "D" and lt.n == 1:
        expect_l = 0
    if len(left.gens) != max(expect_l, 0):
        raise ValueError(
            f"left factor has {len(left.gens)} generators, expected {expect_l}"
        )
    if len(right.gens) != max(expect_r, 0):
        raise ValueError(
            f"right factor has {len(right.gens)} generators, expected {expect_r}"
        )
    if left.q0 != right.q0:
        raise ValueError("left and right factors must share q0")


def box_A(family: Family, left: Irrep, right: Irrep) -> BlockRep:
    """gl-family: even nodes act by l(T_k) or r(T_k) with k read off tau+-."""
    _check_ranks(family, left, right)
    domains = enumerate_domains(family)
    ldim, rdim = left.dim, right.dim
    blocks: dict[int, dict[Domain, tuple[Domain, Matrix]]] = {}
    for i in range(1, family.rank + 1):
        per: dict[Domain, tuple[Domain, Matrix]] = {}
        for d in domains:
            b = act(family, i, d)
            if b != d:
                per[d] = (b, mat_identity(ldim * rdim))
            elif d[i - 1] == 0:
                k = invert_perm(tau_plus(family, d))[i - 1] + 1
                per[d] = (d, _tensor_left(left.gens[k - 1], rdim))
            else:
                k = invert_perm(tau_minus(family, d))[i - 1] + 1
                per[d] = (d, _tensor_right(ldim, right.gens[k - 1]))
        blocks[i] = per
    return BlockRep(family, left.q0, left, right, domains, ldim * rdim, blocks)


def box_B(family: Family, left: Irrep, right: Irrep) -> BlockRep:
    """osp(2m+1|2n): the last node acts by l(T_m) or r(T_n) according to the
    last parity; other even nodes act through tau+-."""
    _check_ranks(family, left, right)
    domains = enumerate_domains(family)
    l = family.rank
    ldim, rdim = left.dim, right.dim
    blocks: dict[int, dict[Domain, tuple[Domain, Matrix]]] = {}
    for i in range(1, l + 1):
        per: dict[Domain, tuple[Domain, Matrix]] = {}
        for d in domains:
            b = act(family, i, d)
            if b != d:
                per[d] = (b, mat_identity(ldim * rdim))
            elif i <= l - 1 and d[i - 1] == 0:
                k = invert_perm(tau_plus(family, d))[i - 1] + 1
                per[d] = (d, _tensor_left(left.gens[k - 1], rdim))
            elif i <= l - 1:
                k = invert_perm(tau_minus(family, d))[i - 1] + 1
                per[d] = (d, _tensor_right(ldim, right.gens[k - 1]))
            elif d[l - 1] == 0:
                per[d] = (d, _tensor_left(left.gens[family.m - 1], rdim))
            else:
                per[d] = (d, _tensor_right(ldim, right.gens[family.n - 1]))
        blocks[i] = per
    return BlockRep(family, left.q0, left, right, domains, ldim * rdim, blocks)


def box_CD(family: Family, left: Irrep, right: Irrep) -> BlockRep:
    """osp(2m|2n): the eight-case table, including the C+/C- swap of the roles
    of the last two generators."""
    _check_ranks(family, left, right)
    domains = enumerate_domains(family)
    l = family.rank
    m, n = family.m, family.n
    ldim, rdim = left.dim, right.dim
    blocks: dict[int, dict[Domain, tuple[Domain, Matrix]]] = {}
    for i in range(1, l + 1):
        per: dict[Domain, tuple[Domain, Matrix]] = {}
        for a in domains:
            p, tag = a.parities, a.tag
            b = act(family, i, a)
            if b != a:
                per[a] = (b, mat_identity(ldim * rdim))
                continue
            if i <= l - 1 and p[i - 1] == 0 and p[i] == 0:
                k = invert_perm(tau_plus(family, p))[i - 1] + 1
                # crossing D <-> C- reverses the orientation of the 0-block,
                # which acts on W(D_m) as the diagram automorphism swapping
                # the two fork generators; the right factor's twist is the
                # C+/C- swap of the last two rows below.
                if tag == "C-" and k == m - 1:
                    k = m
                per[a] = (a, _tensor_left(left.gens[k - 1], rdim))
            elif i == l and p[l - 1] == 0:
                per[a] = (a, _tensor_left(left.gens[m - 1], rdim))
            elif i <= l - 2 and p[i - 1] == 1 and p[i] == 1:
                k = invert_perm(tau_minus(family, p))[i - 1] + 1
                per[a] = (a, _tensor_right(ldim, right.gens[k - 1]))
            elif i == l - 1 and tag == "C+" and p[l - 2] == 1 and p[l - 1] == 1:
                per[a] = (a, _tensor_right(ldim, right.gens[n - 2]))
            elif i == l - 1 and tag == "C-" and p[l - 1] == 1:
                per[a] = (a, _tensor_right(ldim, right.gens[n - 1]))
            elif i == l and tag == "C+" and p[l - 1] == 1:
                per[a] = (a, _tensor_right(ldim, right.gens[n - 1]))
            elif i == l and tag == "C-" and p[l - 2] == 1 and p[l - 1] == 1:
                per[a] = (a, _tensor_right(ldim, right.gens[n - 2]))
            else:
                raise AssertionError(f"uncovered case i={i}, a={a}")
        blocks[i] = per
    return BlockRep(family, left.q0, left, right, domains, ldim * rdim, blocks)


@dataclass
class BigMap:
    """Direct sum of all box-tensor representations over label pairs."""

    family: Family
    q0: Fraction
    summands: list[BlockRep]

    def block_dims(self) -> list[int]:
        return [s.total_dim for s in self.summands]

    def generator_matrices(self, i: int, a: Domain) -> list[Matrix]:
        return [s.matrix_t(i, a) for s in self.summands]

    def idempotent_matrices(self, a: Domain) -> list[Matrix]:
        return [s.matrix_e(a) for s in self.summands]


def big_map(family: Family, q0: Fraction) -> BigMap:
    """Assemble the direct-sum representation over all label pairs (lambda, mu)."""
    q0 = Fraction(q0)
    lt, rt = factor_types(family)
    if q0 == 0 or not is_semisimple(lt, q0) or not is_semisimple(rt, q0):
        raise ValueError(
            f"q0 = {q0} violates q P_left(q) P_right(q) != 0 for {family.name()}"
        )
    lefts = irreps(lt, q0)
    rights = irreps(rt, q0)
    summands = [box_tensor(family, l, r) for l in lefts for r in rights]
    return BigMap(family, q0, summands)


@dataclass
class IsoReport:
    family: Family
    q0: Fraction
    dim_formula: int
    dim_enumerated: int
    summand_dims: list[int]
    relations_checked: int
    relation_failures: list[str]
    summand_surjective: list[bool]
    basis_rank: int
    closure_rank: int
    pairwise_distinct: bool

    @property
    def passed(self) -> bool:
        return (
            not self.relation_failures
            and all(self.summand_surjective)
            and self.dim_formula
            == self.dim_enumerated
            == self.basis_rank
            == self.closure_rank
            == sum(d * d for d in self.summand_dims)
            and self.pairwise_distinct
        )


def _relation_word_matrices(rep: BlockRep, base: Domain, letters: tuple[int, ...]) -> Matrix:
    out = mat_identity(rep.total_dim)
    dom = base
    mats = []
    for letter in reversed(letters):
        mats.append(rep.matrix_t(letter, dom))
        dom = act(rep.family, letter, dom)
    for m in mats:
        out = mat_mul(m, out)
    return out


def verify_block_rep(rep: BlockRep, H: HeckeAlgebra) -> list[str]:
    """Every defining relation instance of the presentation, in matrices."""
    fails: list[str] = []
    fam = rep.family
    q0 = rep.q0
    domains = rep.domains
    n = rep.total_dim
    # idempotents: orthogonal projectors summing to the identity
    total = [[Fraction(0)] * n for _ in range(n)]
    for a in domains:
        ea = rep.matrix_e(a)
        if mat_mul(ea, ea) != ea:
            fails.append(f"E^2 != E at {a}")
        for b in domains:
            if b != a and any(
                x for row in mat_mul(ea, rep.matrix_e(b)) for x in row
            ):
                fails.append(f"E_a E_b != 0 at {a}, {b}")
        for r in range(n):
            for c in range(n):
                total[r][c] += ea[r][c]
    if total != mat_identity(n):
        fails.append("sum of idempotents is not the identity")
    for a in domains:
        for i in range(1, fam.rank + 1):
            b = act(fam, i, a)
            t = rep.matrix_t(i, a)
            sandwich = mat_mul(rep.matrix_e(b), mat_mul(t, rep.matrix_e(a)))
            if sandwich != t:
                fails.append(f"E T E != T at i={i}, a={a}")
            if b == a:
                lhs = mat_mul(t, t)
                rhs = [
                    [
                        (q0 - 1) * t[r][c] + q0 * rep.matrix_e(a)[r][c]
                        for c in range(n)
                    ]
                    for r in range(n)
                ]
                if lhs != rhs:
                    fails.append(f"quadratic fails at i={i}, a={a}")
            else:
                if mat_mul(rep.matrix_t(i, b), t) != rep.matrix_e(a):
                    fails.append(f"isotropic relation fails at i={i}, a={a}")
    for inst in H.family_braid_instances():
        lhs = _relation_word_matrices(rep, inst.base, inst.left)
        rhs = _relation_word_matrices(rep, inst.base, inst.right)
        if lhs != rhs:
            fails.append(f"{inst.name} fails at base={inst.base}")
    return fails


def _basis_image_vectors(bm: BigMap, G: CoxeterGroupoid) -> list[list[Fraction]]:
    """Flattened big-map image of every basis element f(w), via canonical words."""
    images: dict[Element, list[Matrix]] = {}
    for a in G.roots.domains:
        images[G.identity(a)] = bm.idempotent_matrices(a)
    order = sorted(G.elements(), key=G.length)
    for w in order:
        if w in images:
            continue
        word = G.canonical_reduced_word(w)
        i = word.letters[0]
        rest = G.multiply(G.generator(i, w.target), w)
        gen_mats = bm.generator_matrices(i, rest.target)
        images[w] = [
            mat_mul(g, m) for g, m in zip(gen_mats, images[rest])
        ]
    return [[x for m in images[w] for x in flatten(m)] for w in G.elements()]


def _closure_rank(bm: BigMap) -> tuple[int, list[bool]]:
    """Rank of the span closure of products of generator images, per summand."""
    full = []
    per_summand: list[bool] = []
    for s in bm.summands:
        n = s.total_dim
        gens = []
        for a in s.domains:
            gens.append(s.matrix_e(a))
            for i in range(1, s.family.rank + 1):
                gens.append(s.matrix_t(i, a))
        ech = IntEchelon(n * n)
        frontier = []
        for g in gens:
            if ech.insert(flatten(g)):
                frontier.append(g)
        while frontier and ech.rank < n * n:
            nxt = []
            for m in frontier:
                for g in gens:
                    prod = mat_mul(g, m)
                    if ech.insert(flatten(prod)):
                        nxt.append(prod)
                        if ech.rank >= n * n:
                            break
                if ech.rank >= n * n:
                    break
            frontier = nxt
        per_summand.append(ech.rank == n * n)
        full.append(ech.rank)
    return sum(full), per_summand


def verify_isomorphism(family: Family, q0: Fraction) -> IsoReport:
    """Check that the direct sum of box-tensor representations is an
    isomorphism at q0: relations hold, the image algebra is everything, and
    the basis images are linearly independent."""
    q0 = Fraction(q0)
    bm = big_map(family, q0)
    G = groupoid_for(family)
    H = hecke_poly(family)
    relation_failures: list[str] = []
    checked = 0
    for s in bm.summands:
        fails = verify_block_rep(s, H)
        checked += 1
        relation_failures.extend(
            f"({s.left.label} x {s.right.label}): {msg}" for msg in fails
        )
    closure, per_summand = _closure_rank(bm)
    vectors = _basis_image_vectors(bm, G)
    ech = IntEchelon(len(vectors[0]))
    for v in vectors:
        ech.insert(v)
    basis_rank = ech.rank
    # pairwise non-equivalence of summands by trace vectors over words
    words: list[tuple] = [()]
    gens_idx = [
        (i, a) for a in G.roots.domains for i in range(1, family.rank + 1)
    ]
    words += [(g,) for g in gens_idx] + [
        (g, h) for g in gens_idx for h in gens_idx
    ]
    sigs = set()
    for s in bm.summands:
        sig = []
        for word in words:
            m = mat_identity(s.total_dim)
            for i, a in word:
                m = mat_mul(s.matrix_t(i, a), m)
            sig.append(sum(m[k][k] for k in range(s.total_dim)))
        sigs.add((s.total_dim, tuple(sig)))
    return IsoReport(
        family=family,
        q0=q0,
        dim_formula=dimension_formula(family),
        dim_enumerated=G.order(),
        summand_dims=bm.block_dims(),
        relations_checked=checked,
        relation_failures=relation_failures,
        summand_surjective=per_summand,
        basis_rank=basis_rank,
        closure_rank=closure,
        pairwise_distinct=len(sigs) == len(bm.summands),
    )


def iso_report_json(report: IsoReport):
    return {
        "schema_version": 1,
        "family": {
            "kind": report.family.kind,
            "m": report.family.m,
            "n": report.family.n,
        },
        "q0": f"{report.q0.numerator}/{report.q0.denominator}",
        "dim_formula": report.dim_formula,
        "dim_enumerated": report.dim_enumerated,
        "summand_dims": report.summand_dims,
        "sum_of_squares": sum(d * d for d in report.summand_dims),
        "basis_rank": report.basis_rank,
        "closure_rank": report.closure_rank,
        "relation_failures": report.relation_failures,
        "summands_surjective": report.summand_surjective,
        "pairwise_distinct": report.pairwise_distinct,
        "passed": report.passed,
    }
