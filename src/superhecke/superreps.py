"""Box-tensor representations of H_q(W) and machine verification of the
semisimplicity / isomorphism theorems.

A block representation lives on one copy of V (x) W per domain.  Generators
whose node is isotropic transport blocks identically; even nodes act through
a classical Hecke irreducible on the left or right tensor factor, with the
block-sorting permutations translating generator indices.

The isomorphism H_q(g) -> (+)_s End(V_s), the direct sum over all label
pairs, is proved at q0 by a Wedderburn certificate of four exact checks:

- the defining relations hold on every summand, so each V_s is an H-module;
- the algebra each summand's generators span has dimension dim(V_s)^2, so it
  is End(V_s) and V_s is irreducible (Burnside);
- the summands have distinct trace signatures, so they are pairwise
  non-isomorphic;
- sum_s dim(V_s)^2 = |W\0|.

By the density theorem the image of H is then all of (+)_s End(V_s), of
dimension |W\0|.  H is spanned by the |W\0| elements T_w (Matsumoto's
theorem for Weyl groupoids, Heckenberger-Yamane, Math. Z. 259, 2008), so the
map is bijective and the basis images f(w) have rank sum_s dim(V_s)^2 without
being computed.  When a check does not go through, the joint rank of the
f(w) is computed exactly instead; on a signature tie it also decides whether
the summands are pairwise non-isomorphic (they are exactly when that rank is
sum_s dim(V_s)^2).

The verification is block-sparse.  Each T_{i,a} is one d x d block from
block a to block act(i, a), so every word in the generators, and every basis
image f(w), is one d x d block per summand.  The relations, closures and
trace signatures run on the blocks scaled to integers by one common
denominator D; the relations are multiplied through by powers of D.
Relations multiply blocks along their words; the closure and basis-image
ranks split into one small echelon per (target, source) pair of domains,
since images with different supports are independent; trace signatures skip
words that do not close into a loop.  No (|domains| d)-sized matrix is ever
built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .domains import (
    Domain,
    Family,
    act,
    enumerate_domains,
    invert_perm,
    tau_minus,
    tau_plus,
)
from .groupoid import CoxeterGroupoid, dimension_formula, groupoid_for
from .hecke import HeckeAlgebra, hecke_poly
from .linalg import (
    IntEchelon,
    IntMatrix,
    Matrix,
    flatten,
    int_identity,
    int_mat_mul,
    kron,
    mat_identity,
    mat_mul,
)
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

    blocks[i][a] = (target domain, matrix) describing T_{i,a} as a d x d map
    from the a-block to the target block; E_a is the identity on block a.
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


def require_semisimple(family: Family, q0: Fraction) -> None:
    """Raise ValueError unless q0 P_left(q0) P_right(q0) != 0, the condition
    under which the box tensors are built and the isomorphism can hold."""
    lt, rt = factor_types(family)
    if q0 == 0 or not is_semisimple(lt, q0) or not is_semisimple(rt, q0):
        raise ValueError(
            f"q0 = {q0} violates q P_left(q) P_right(q) != 0 for {family.name()}"
        )


def big_map(family: Family, q0: Fraction) -> BigMap:
    """Assemble the direct-sum representation over all label pairs (lambda, mu)."""
    q0 = Fraction(q0)
    require_semisimple(family, q0)
    lt, rt = factor_types(family)
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


@dataclass
class ScaledRep:
    """A BlockRep's generators times a common denominator D, as integers:
    gens[i][a] = (target domain, D T_{i,a}).  D is a multiple of q0's
    denominator, so D q0 is an integer too."""

    rep: BlockRep
    D: int
    gens: dict[int, dict[Domain, tuple[Domain, IntMatrix]]]


def common_denominator(q0: Fraction, reps: list[BlockRep]) -> int:
    """The lcm of q0's denominator and of every block entry's denominator."""
    dens = {x.denominator for rep in reps for per in rep.blocks.values()
            for _, m in per.values() for row in m for x in row}
    return lcm(q0.denominator, *dens)


def scale_rep(rep: BlockRep, D: int) -> ScaledRep:
    """rep's blocks times D, a multiple of every entry's denominator."""
    gens = {
        i: {a: (b, [[x.numerator * (D // x.denominator) for x in row] for row in m])
            for a, (b, m) in per.items()}
        for i, per in rep.blocks.items()
    }
    return ScaledRep(rep, D, gens)


def _word_block(sr: ScaledRep, base: Domain, letters: tuple[int, ...]) -> tuple[Domain, IntMatrix]:
    """D^m T_{i1} ... T_{im} on block base, letters applied right to left, as
    its (target domain, d x d integer matrix)."""
    rep = sr.rep
    dom, out = base, int_identity(rep.block_dim)
    for letter in reversed(letters):
        out = int_mat_mul(sr.gens[letter][dom][1], out)
        dom = act(rep.family, letter, dom)
    return dom, out


def verify_block_rep(rep: BlockRep, H: HeckeAlgebra, scaled: ScaledRep | None = None) -> list[str]:
    """Every defining relation instance of the presentation, on d x d blocks.

    The idempotent and E T E relations hold exactly when the block data is
    well formed: the domains are distinct (so the E_a are orthogonal
    projectors summing to the identity) and each T_{i,a} is one d x d block
    from block a to block act(i, a).  The quadratic, isotropic and braid
    relations multiply the integer blocks t = D T of `scaled` (by default
    rep scaled by its own common denominator), each relation multiplied
    through by a power of D: the quadratic one reads
    t^2 = D(q0 - 1) t + q0 D^2 I, the isotropic one t' t = D^2 I.  They are
    checked only on well-formed data.
    """
    fails: list[str] = []
    fam = rep.family
    sr = scaled or scale_rep(rep, common_denominator(rep.q0, [rep]))
    D = sr.D
    Dq = rep.q0.numerator * (D // rep.q0.denominator)
    d = rep.block_dim
    DDI = [[D * D * x for x in row] for row in int_identity(d)]
    if len(set(rep.domains)) != len(rep.domains):
        fails.append("sum of idempotents is not the identity")
    well_formed = not fails
    for a in rep.domains:
        for i in range(1, fam.rank + 1):
            b = act(fam, i, a)
            target, t = sr.gens[i][a]
            if target != b or len(t) != d or any(len(row) != d for row in t):
                fails.append(f"E T E != T at i={i}, a={a}")
                well_formed = False
                continue
            if b == a:
                rhs = [
                    [(Dq - D) * x + (Dq * D if r == c else 0) for c, x in enumerate(row)]
                    for r, row in enumerate(t)
                ]
                if int_mat_mul(t, t) != rhs:
                    fails.append(f"quadratic fails at i={i}, a={a}")
            elif int_mat_mul(sr.gens[i][b][1], t) != DDI:
                fails.append(f"isotropic relation fails at i={i}, a={a}")
    if not well_formed:
        return fails
    for inst in H.family_braid_instances():
        lhs_target, lhs = _word_block(sr, inst.base, inst.left)
        rhs_target, rhs = _word_block(sr, inst.base, inst.right)
        if len(inst.left) != len(inst.right):  # each side carries D^(its length)
            lhs = [[x * D ** len(inst.right) for x in row] for row in lhs]
            rhs = [[x * D ** len(inst.left) for x in row] for row in rhs]
        if (lhs_target, lhs) != (rhs_target, rhs):
            fails.append(f"{inst.name} fails at base={inst.base}")
    return fails


def _basis_rank(bm: BigMap, G: CoxeterGroupoid) -> int:
    """Rank of the big-map images f(w) of the basis, via canonical words.

    f(w) is one d x d block per summand, from block source(w) to block
    target(w), so images with different (target, source) have disjoint
    supports: the rank is the sum of the ranks of those groups.  Each f(w) is
    T_i f(s_i w) for the first letter i of w's canonical word (its smallest
    left descent, `first` in the groupoid's tables); only the previous
    length's images are kept.
    """
    width = sum(s.block_dim ** 2 for s in bm.summands)
    T = G.tables()
    domains = G.roots.domains
    groups: dict[tuple[int, int], IntEchelon] = {}
    prev: dict[int, list[Matrix]] = {}
    cur: dict[int, list[Matrix]] = {}
    length = 0
    for k in range(len(T.length)):  # ordered by length
        if T.length[k] != length:
            length, prev, cur = T.length[k], cur, {}
        if length == 0:
            images = [mat_identity(s.block_dim) for s in bm.summands]
        else:
            i = T.first[k]
            rest = T.lgen[i][k]
            if rest not in prev:
                raise ValueError(f"groupoid tables: element {rest} is not one length below element {k}")
            a = domains[T.tgt[rest]]
            images = [mat_mul(s.blocks[i][a][1], m) for s, m in zip(bm.summands, prev[rest])]
        cur[k] = images
        ech = groups.setdefault((T.tgt[k], T.src[k]), IntEchelon(width))
        if ech.rank < width:
            ech.insert([x for m in images for x in flatten(m)])
    return sum(ech.rank for ech in groups.values())


def _closure_rank(sr: ScaledRep) -> int:
    """Dimension of the algebra generated by the E_a and T_{i,a}.

    Every product of generators is one d x d block from some block a to some
    block b, so the span splits over (b, a): one echelon of width d^2 per
    pair, grown by multiplying each new product by the generators whose
    source is its target, until nothing new appears or the span is full.
    The products are of the integer blocks D T, which span the same spaces.
    """
    rep = sr.rep
    d = rep.block_dim
    full = len(rep.domains) ** 2 * d * d
    letters = range(1, rep.family.rank + 1)
    echs: dict[tuple[Domain, Domain], IntEchelon] = {}
    rank = 0

    def is_full(target: Domain, source: Domain) -> bool:
        ech = echs.get((target, source))
        return ech is not None and ech.rank == d * d

    def insert(target: Domain, source: Domain, m: IntMatrix) -> bool:
        nonlocal rank
        ech = echs.setdefault((target, source), IntEchelon(d * d))
        if ech.rank == d * d or not ech.insert_int([x for row in m for x in row]):
            return False
        rank += 1
        return True

    frontier = []
    for a in rep.domains:
        gens = [(a, int_identity(d))] + [sr.gens[i][a] for i in letters]
        frontier += [(b, a, m) for b, m in gens if insert(b, a, m)]
    while frontier and rank < full:
        nxt = []
        for b, a, m in frontier:
            for i in letters:
                c, t = sr.gens[i][b]
                if is_full(c, a):
                    continue
                prod = int_mat_mul(t, m)
                if insert(c, a, prod):
                    nxt.append((c, a, prod))
        frontier = nxt
    return rank


def _trace_signature(sr: ScaledRep) -> tuple:
    """The nonzero traces of every generator T_{i,a} and every product of two
    of them, times D and D^2.  A word that does not compose, or whose product
    does not map a block to itself, has trace 0 and is left out.  Summands
    scaled by one D have equal signatures exactly when their unscaled
    traces agree."""
    rep = sr.rep
    letters = range(1, rep.family.rank + 1)
    sig = []
    for a in rep.domains:
        for i in letters:
            b, t = sr.gens[i][a]
            if b == a:
                sig.append(((i, a), sum(t[k][k] for k in range(rep.block_dim))))
            for j in letters:
                c, u = sr.gens[j][b]
                if c == a:
                    tr = sum(x * t[k][r] for r, row in enumerate(u) for k, x in enumerate(row))
                    sig.append(((i, a, j), tr))
    return rep.total_dim, tuple(x for x in sig if x[1])


def verify_isomorphism(family: Family, q0: Fraction) -> IsoReport:
    """Check that the direct sum of box-tensor representations is an
    isomorphism at q0 onto the product of the End(V_s).

    Relations, closures and trace signatures run on the summands' blocks
    scaled to integers by one common denominator D.  When the relations
    hold, every closure is End(V_s), the signatures are distinct and
    sum d^2 = |W\\0|, the basis rank is sum d^2 by the density theorem (see
    the module docstring) and is not computed.  Otherwise the exact joint
    rank _basis_rank is computed; on a signature tie it also decides
    pairwise_distinct, which holds exactly when that rank is sum d^2.
    """
    q0 = Fraction(q0)
    bm = big_map(family, q0)
    G = groupoid_for(family)
    H = hecke_poly(family)
    D = common_denominator(q0, bm.summands)
    scaled = [scale_rep(s, D) for s in bm.summands]
    relation_failures: list[str] = []
    for s, sr in zip(bm.summands, scaled):
        relation_failures.extend(
            f"({s.left.label} x {s.right.label}): {msg}" for msg in verify_block_rep(s, H, sr)
        )
    closure = [_closure_rank(sr) for sr in scaled]
    surjective = [r == s.total_dim ** 2 for r, s in zip(closure, bm.summands)]
    squares = sum(d * d for d in bm.block_dims())
    distinct = len({_trace_signature(sr) for sr in scaled}) == len(scaled)
    if not relation_failures and all(surjective) and distinct and squares == G.order():
        basis_rank = squares
    else:
        basis_rank = _basis_rank(bm, G)
        distinct = distinct or basis_rank == squares
    return IsoReport(
        family=family,
        q0=q0,
        dim_formula=dimension_formula(family),
        dim_enumerated=G.order(),
        summand_dims=bm.block_dims(),
        relations_checked=len(bm.summands),
        relation_failures=relation_failures,
        summand_surjective=surjective,
        basis_rank=basis_rank,
        closure_rank=sum(closure),
        pairwise_distinct=distinct,
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
