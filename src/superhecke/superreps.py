"""Box-tensor representations of H_q(W) and machine verification of the
semisimplicity / isomorphism theorems.

A block representation lives on one copy of V (x) W per domain.  Generators
whose node is isotropic transport blocks identically; even nodes act through
a classical Hecke irreducible on the left or right tensor factor.  The
factor and its generator T_k are read off the root data, once per family:
the reflection of T_{i,a}, carried back to the base domain by odd
reflections, is a generator of one factor's Weyl group (_even_generators).
Each summand is built once, as integer blocks: the generators times one
common denominator D, the lcm of q0's denominator and of every classical
irrep entry's denominator.

The isomorphism H_q(g) -> (+)_s End(V_s), the direct sum over all label
pairs, is proved at q0 by a Wedderburn certificate of four exact checks:

- the defining relations hold on every summand, so each V_s is an H-module;
- the algebra each summand's generators span has dimension dim(V_s)^2, so it
  is End(V_s) and V_s is irreducible (Burnside);
- the summands have distinct trace signatures, so they are pairwise
  non-isomorphic;
- sum_s dim(V_s)^2 = |W\\0|.

By the density theorem the image of H is then all of (+)_s End(V_s), of
dimension |W\\0|.  H is spanned by the |W\\0| elements T_w (Matsumoto's
theorem for Weyl groupoids, Heckenberger-Yamane, Math. Z. 259, 2008), so the
map is bijective and the basis images f(w) have rank sum_s dim(V_s)^2 without
being computed.  When a check does not go through, the joint rank of the
f(w) is computed exactly instead; on a signature tie it also decides whether
the summands are pairwise non-isomorphic (they are exactly when that rank is
sum_s dim(V_s)^2).

The verification is block-sparse.  The blocks are indexed by the positions
of the domains in the groupoid's rows, and each T_{i,a} is one d x d block
from position a to position G.row(a)[i - 1][0], so every word in the
generators, and every basis image f(w), is one d x d block per summand.
Every check multiplies the integer blocks D T; a word of length l carries
D^l, and the relations are multiplied through by powers of D.  Relations
multiply blocks along their words; the closure and basis-image ranks keep
one small echelon per (target, source) pair of domains, since images with
different supports are independent (the closure rank is linalg.closure's
count of kept products); trace signatures skip words that do not close into
a loop.  No (|domains| d)-sized matrix is ever built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import NamedTuple

from .domains import Family, UsageError, domain_str
from .groupoid import CoxeterGroupoid, dimension_formula, groupoid_for
from .hecke import family_braid_instances
from .linalg import IntEchelon, IntMatrix, closure, int_identity, int_mat_mul, kron, scale_to_int
from .roots import SignedPerm, root_system, sp_compose, sp_identity, sp_invert
from .weylgroups import WeylType, generators, is_semisimple
from .weylreps import Irrep, irreps


def factor_types(family: Family) -> tuple[WeylType, WeylType]:
    """Classical Weyl types of the left and right tensor factors."""
    if family.kind == "A":
        return WeylType("A", family.m + 1), WeylType("A", family.n + 1)
    if family.kind == "B":
        return WeylType("B", family.m), WeylType("B", family.n)
    return WeylType("D", family.m), WeylType("B", family.n)


class BlockRep(NamedTuple):
    """One box-tensor representation as integer blocks per generator and
    domain, the domains by their positions in the groupoid's rows.

    blocks[i][a] = (G.row(a)[i - 1][0], D T_{i,a}): the target position and
    the d x d integer matrix of T_{i,a} from the block at position a to the
    target block, times D; E_a is the identity on block a.  D is a multiple
    of q0's denominator, so D q0 is an integer too.
    """

    family: Family
    q0: Fraction
    left: Irrep
    right: Irrep
    block_dim: int
    D: int
    blocks: dict[int, list[tuple[int, IntMatrix]]]

    @property
    def total_dim(self) -> int:
        return len(self.blocks[1]) * self.block_dim


def _check_ranks(family: Family, left: Irrep, right: Irrep):
    for side, rep, wt in zip(("left", "right"), (left, right), factor_types(family)):
        expect = len(generators(wt))
        if len(rep.gens) != expect:
            raise ValueError(f"{side} factor has {len(rep.gens)} generators, expected {expect}")
    if left.q0 != right.q0:
        raise ValueError("left and right factors must share q0")


@lru_cache(maxsize=None)
def _even_generators(family: Family) -> dict[tuple[int, int], tuple[str, int]]:
    """The classical generator through which each even node acts, read off
    the root data: (i, a) -> ("left", k) for l(T_k) (x) 1 or ("right", k) for
    1 (x) r(T_k), for every letter i that fixes the domain at position a.

    A breadth-first tree of odd moves along the groupoid's rows from a0 =
    domains[0] gives x_a, the product of odd reflections from a0 to a.  The
    loop x_a^-1 sigma_{i,a} x_a at a0 is looked up among the factors'
    generators, placed on a0's zero coordinates (left) or one coordinates
    (right) in increasing order.  The transports carry CD's fork swap at C-
    domains and the C+ / C- twist of the right factor.  A loop that is no
    classical generator, or a generator that no even node reaches, is a
    fault of the program and raises.
    """
    rs = root_system(family)
    G = groupoid_for(family)
    a0 = rs.domains[0]
    p0 = a0.parities if family.kind == "CD" else a0
    classical: dict[SignedPerm, tuple[str, int]] = {}
    for side, wt, parity in zip(("left", "right"), factor_types(family), (0, 1)):
        coords = [j for j, v in enumerate(p0) if v == parity]
        for k, h in enumerate(generators(wt), start=1):
            g = list(sp_identity(rs.dim))
            for c, v in zip(coords, h):
                g[c] = (coords[abs(v) - 1] + 1) * (1 if v > 0 else -1)
            classical[tuple(g)] = (side, k)
    x = {0: sp_identity(rs.dim)}
    out: dict[tuple[int, int], tuple[str, int]] = {}
    queue = [0]
    for a in queue:  # breadth first: the loop reads what it appends
        d = rs.domains[a]
        for i, (b, _, _) in enumerate(G.row(a), 1):
            if b != a:
                if b not in x:
                    x[b] = sp_compose(rs.reflection(i, d), x[a])
                    queue.append(b)
                continue
            loop = sp_compose(sp_invert(x[a]), sp_compose(rs.reflection(i, d), x[a]))
            if loop not in classical:
                raise RuntimeError(
                    f"even node (i, a) = ({i}, {domain_str(d)}): its loop {loop} at "
                    f"{domain_str(a0)} is not a classical generator"
                )
            out[i, a] = classical[loop]
    missing = set(classical.values()) - set(out.values())
    if missing:
        raise RuntimeError(f"no even node of {family.name()} acts by the generators {sorted(missing)}")
    return out


def box_tensor(family: Family, left: Irrep, right: Irrep, D: int) -> BlockRep:
    """The box-tensor representation of H_q(W) built from classical irreps,
    as integer blocks times D, a multiple of q0's denominator and of every
    entry's denominator in both irreps."""
    _check_ranks(family, left, right)
    if D % left.q0.denominator:
        raise ValueError(f"{D} is not a multiple of the denominator of q0 = {left.q0}")
    G = groupoid_for(family)
    d = left.dim * right.dim
    transport = [[D if r == c else 0 for c in range(d)] for r in range(d)]
    factors = {
        "left": [kron(scale_to_int(g, D), int_identity(right.dim)) for g in left.gens],
        "right": [kron(int_identity(left.dim), scale_to_int(g, D)) for g in right.gens],
    }
    even = _even_generators(family)
    blocks: dict[int, list[tuple[int, IntMatrix]]] = {i: [] for i in range(1, family.rank + 1)}
    for a in range(len(G.roots.domains)):
        for i, (b, _, _) in enumerate(G.row(a), 1):
            if b != a:
                blocks[i].append((b, transport))
            else:
                side, k = even[i, a]
                blocks[i].append((a, factors[side][k - 1]))
    return BlockRep(family, left.q0, left, right, d, D, blocks)


class BigMap(NamedTuple):
    """Direct sum of all box-tensor representations over label pairs."""

    family: Family
    q0: Fraction
    summands: list[BlockRep]

    def block_dims(self) -> list[int]:
        return [s.total_dim for s in self.summands]


def require_semisimple(family: Family, q0: Fraction) -> None:
    """Raise UsageError unless q0 P_left(q0) P_right(q0) != 0, the condition
    under which the box tensors are built and the isomorphism can hold."""
    lt, rt = factor_types(family)
    if not is_semisimple(lt, q0) or not is_semisimple(rt, q0):
        raise UsageError(
            f"q0 = {q0} violates q P_left(q) P_right(q) != 0 for {family.name()}"
        )


def big_map(family: Family, q0: Fraction) -> BigMap:
    """Assemble the direct-sum representation over all label pairs (lambda, mu),
    every summand's blocks over one D: the lcm of q0's denominator and of
    every entry's denominator in the irreps of both factors."""
    q0 = Fraction(q0)
    require_semisimple(family, q0)
    lt, rt = factor_types(family)
    lefts = irreps(lt, q0)
    rights = irreps(rt, q0)
    D = lcm(q0.denominator, *{
        x.denominator for r in lefts + rights for g in r.gens for row in g for x in row
    })
    summands = [box_tensor(family, l, r, D) for l in lefts for r in rights]
    return BigMap(family, q0, summands)


class IsoReport(NamedTuple):
    family: Family
    q0: Fraction
    dim_formula: int
    dim_enumerated: int
    summand_dims: list[int]
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


def _word_block(rep: BlockRep, base: int, letters: tuple[int, ...]) -> tuple[int, IntMatrix]:
    """D^m T_{i1} ... T_{im} on the block at position base, letters applied
    right to left, as its (target position, d x d integer matrix)."""
    dom, out = base, int_identity(rep.block_dim)
    for letter in reversed(letters):
        dom, t = rep.blocks[letter][dom]
        out = int_mat_mul(t, out)
    return dom, out


def verify_block_rep(rep: BlockRep) -> list[str]:
    """Every defining relation instance of the presentation, on d x d blocks.

    The idempotent and E T E relations hold exactly when the block data is
    well formed: every letter has one block per domain (so the E_a are
    orthogonal projectors summing to the identity) and each T_{i,a} is one
    d x d block from position a to position G.row(a)[i - 1][0].  The
    quadratic, isotropic and braid relations multiply the integer blocks
    t = D T, each relation multiplied through by a power of D: the quadratic
    one reads t^2 = D(q0 - 1) t + q0 D^2 I, the isotropic one t' t = D^2 I,
    and the two sides of a braid relation, words of one length m, both carry
    D^m.  They are checked only on well-formed data.
    """
    fam = rep.family
    G = groupoid_for(fam)
    domains = G.roots.domains
    if any(len(rep.blocks[i]) != len(domains) for i in range(1, fam.rank + 1)):
        return ["sum of idempotents is not the identity"]
    fails: list[str] = []
    D = rep.D
    Dq = rep.q0.numerator * (D // rep.q0.denominator)
    d = rep.block_dim
    DDI = [[D * D * x for x in row] for row in int_identity(d)]
    well_formed = True
    for a, dom in enumerate(domains):
        for i, (b, _, _) in enumerate(G.row(a), 1):
            target, t = rep.blocks[i][a]
            if target != b or len(t) != d or any(len(row) != d for row in t):
                fails.append(f"E T E != T at i={i}, a={dom}")
                well_formed = False
                continue
            if b == a:
                rhs = [
                    [(Dq - D) * x + (Dq * D if r == c else 0) for c, x in enumerate(row)]
                    for r, row in enumerate(t)
                ]
                if int_mat_mul(t, t) != rhs:
                    fails.append(f"quadratic fails at i={i}, a={dom}")
            elif int_mat_mul(rep.blocks[i][b][1], t) != DDI:
                fails.append(f"isotropic relation fails at i={i}, a={dom}")
    if not well_formed:
        return fails
    for inst in family_braid_instances(fam):
        base = G.domain_index[inst.base]
        lhs_target, lhs = _word_block(rep, base, inst.left)
        rhs_target, rhs = _word_block(rep, base, inst.right)
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
    length's images are kept.  The images are products of the integer
    blocks D T, so every summand's block of f(w) carries the same D^length(w):
    each row is f(w) times a nonzero scalar, which leaves the rank unchanged.
    """
    width = sum(s.block_dim ** 2 for s in bm.summands)
    T = G.tables()
    groups: dict[tuple[int, int], IntEchelon] = {}
    prev: dict[int, list[IntMatrix]] = {}
    cur: dict[int, list[IntMatrix]] = {}
    length = 0
    for k in range(len(T.length)):  # ordered by length
        if T.length[k] != length:
            length, prev, cur = T.length[k], cur, {}
        if length == 0:
            images = [int_identity(s.block_dim) for s in bm.summands]
        else:
            i = T.first[k]
            rest = T.lgen[i][k]
            if rest not in prev:
                raise ValueError(f"groupoid tables: element {rest} is not one length below element {k}")
            a = T.tgt[rest]
            images = [int_mat_mul(s.blocks[i][a][1], m) for s, m in zip(bm.summands, prev[rest])]
        cur[k] = images
        ech = groups.setdefault((T.tgt[k], T.src[k]), IntEchelon(width))
        if ech.rank < width:
            ech.insert([x for m in images for row in m for x in row])
    return sum(ech.rank for ech in groups.values())


def _closure_rank(rep: BlockRep) -> int:
    """Dimension of the algebra generated by the E_a and T_{i,a}: the number
    of products linalg.closure keeps, starting from the identity on each
    block.  Every product is one d x d block from some block a to some block
    b, so the span splits into one echelon of width d^2 per pair (b, a).  The
    products are of the integer blocks D T, which span the same spaces."""
    d = rep.block_dim
    seeds = [(a, int_identity(d)) for a in range(len(rep.blocks[1]))]
    return sum(1 for _ in closure(seeds, rep.blocks, d * d))


def _trace_signature(rep: BlockRep) -> tuple:
    """The nonzero traces of every generator T_{i,a} and every product of two
    of them, times D and D^2.  A word that does not compose, or whose product
    does not map a block to itself, has trace 0 and is left out.  Summands
    over one D have equal signatures exactly when their unscaled traces
    agree."""
    letters = range(1, rep.family.rank + 1)
    sig = []
    for a in range(len(rep.blocks[1])):
        for i in letters:
            b, t = rep.blocks[i][a]
            if b == a:
                sig.append(((i, a), sum(t[k][k] for k in range(rep.block_dim))))
            for j in letters:
                c, u = rep.blocks[j][b]
                if c == a:
                    tr = sum(x * t[k][r] for r, row in enumerate(u) for k, x in enumerate(row))
                    sig.append(((i, a, j), tr))
    return rep.total_dim, tuple(x for x in sig if x[1])


def verify_isomorphism(family: Family, q0: Fraction) -> IsoReport:
    """Check that the direct sum of box-tensor representations is an
    isomorphism at q0 onto the product of the End(V_s).

    Relations, closures and trace signatures run on the summands' integer
    blocks, all over one common denominator D.  When the relations
    hold, every closure is End(V_s), the signatures are distinct and
    sum d^2 = |W\\0|, the basis rank is sum d^2 by the density theorem (see
    the module docstring) and is not computed.  Otherwise the exact joint
    rank _basis_rank is computed; on a signature tie it also decides
    pairwise_distinct, which holds exactly when that rank is sum d^2.
    """
    q0 = Fraction(q0)
    bm = big_map(family, q0)
    G = groupoid_for(family)
    relation_failures: list[str] = []
    for s in bm.summands:
        relation_failures.extend(
            f"({s.left.label} x {s.right.label}): {msg}" for msg in verify_block_rep(s)
        )
    closure = [_closure_rank(s) for s in bm.summands]
    surjective = [r == s.total_dim ** 2 for r, s in zip(closure, bm.summands)]
    squares = sum(d * d for d in bm.block_dims())
    distinct = len({_trace_signature(s) for s in bm.summands}) == len(bm.summands)
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
        relation_failures=relation_failures,
        summand_surjective=surjective,
        basis_rank=basis_rank,
        closure_rank=sum(closure),
        pairwise_distinct=distinct,
    )


def iso_report_json(report: IsoReport):
    return {
        "schema_version": 1,
        "family": report.family._asdict(),
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
