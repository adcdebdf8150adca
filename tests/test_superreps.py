"""Box-tensor representations and the isomorphism verification machinery."""

import contextlib
import hashlib
import io
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superhecke import cli, superreps
from superhecke.domains import CDDomain, Family, act, domain_str, enumerate_domains
from superhecke.groupoid import groupoid_for
from superhecke.linalg import int_identity, int_mat_mul, kron, scale_to_int
from superhecke.roots import RootSystem
from superhecke.superreps import (
    BigMap,
    _basis_rank,
    _even_generators,
    big_map,
    box_tensor,
    factor_types,
    iso_report_json,
    verify_block_rep,
    verify_isomorphism,
)
from superhecke.weylgroups import WeylType, generators, poincare
from superhecke.weylreps import irreps


def test_factor_types():
    assert factor_types(Family("A", 2, 1)) == (WeylType("A", 3), WeylType("A", 2))
    assert factor_types(Family("B", 1, 2)) == (WeylType("B", 1), WeylType("B", 2))
    assert factor_types(Family("CD", 2, 1)) == (WeylType("D", 2), WeylType("B", 1))


def test_trivial_box_dims():
    # trivial (x) trivial: every block is one-dimensional, total dim = |A|
    fam = Family("A", 1, 1)
    lt, rt = factor_types(fam)
    l = irreps(lt, Fraction(2))[0]
    r = irreps(rt, Fraction(2))[0]
    rep = box_tensor(fam, l, r, 1)
    assert rep.block_dim == 1
    assert rep.total_dim == len(enumerate_domains(fam))


def test_box_tensor_rejects_a_scale_that_leaves_fractions():
    # D must clear q0's denominator, even where no irrep entry has it (S_1
    # has no generators), and every irrep entry's denominator
    fam = Family("A", 0, 0)
    l, r = (irreps(wt, Fraction(1, 3))[0] for wt in factor_types(fam))
    assert box_tensor(fam, l, r, 3).D == 3
    with pytest.raises(ValueError):
        box_tensor(fam, l, r, 1)
    fam = Family("A", 2, 1)
    lt, rt = factor_types(fam)
    l = next(r for r in irreps(lt, Fraction(2)) if r.dim == 2)
    r = irreps(rt, Fraction(2))[0]
    assert box_tensor(fam, l, r, 3).D == 3
    with pytest.raises(ValueError):
        box_tensor(fam, l, r, 1)
    # the factors swapped: S_2's irrep on the left of A(2,1) has one generator
    with pytest.raises(ValueError, match="left factor has 1 generators, expected 2"):
        box_tensor(fam, r, l, 3)


def _families_up_to_rank(top: int) -> list[Family]:
    fams = [Family("A", m, r - 1 - m) for r in range(1, top + 1) for m in range(r)]
    fams += [Family("B", m, r - m) for r in range(1, top + 1) for m in range(r)]
    fams += [Family("CD", m, r - m) for r in range(2, top + 1) for m in range(1, r)]
    return fams


RANK_6 = _families_up_to_rank(6)  # 21 A, 21 B and 15 CD families


@pytest.mark.parametrize("fam", RANK_6, ids=[f.name() for f in RANK_6])
def test_even_generator_case_table_is_complete(fam):
    # the lookup read off the root data gives every fixed (i, a) a classical
    # generator of the right factor, in range, and every generator of both
    # factors acts somewhere
    ranks = {side: len(generators(wt)) for side, wt in zip(("left", "right"), factor_types(fam))}
    even = _even_generators(fam)
    used = set()
    for a, dom in enumerate(groupoid_for(fam).roots.domains):
        for i in range(1, fam.rank + 1):
            if act(fam, i, dom) == dom:
                side, k = even[i, a]
                assert 1 <= k <= ranks[side], (i, dom, side, k)
                used.add((side, k))
    assert used == {(side, k) for side, n in ranks.items() for k in range(1, n + 1)}


def test_even_generator_map_matches_the_hand_table():
    # sha256 over the 1 445 even (family, i, a, side, k) of the rank <= 6
    # families, recorded with the hand-written case table the lookup replaced;
    # the map keys domains by position, hashed as the domains they index
    entries = sorted(
        f"{fam.name()} {i} {domain_str(groupoid_for(fam).roots.domains[a])} {side} {k}"
        for fam in RANK_6
        for (i, a), (side, k) in _even_generators(fam).items()
    )
    assert len(entries) == 1445
    digest = hashlib.sha256("\n".join(entries).encode()).hexdigest()
    assert digest == "5555d158efd2fc5d45790ace68764b8351b37ce7105d2a3bc3220b2538c596b1"


def test_a_wrong_reflection_stops_the_box_tensor(monkeypatch, capsys):
    # hand the C- fork node 2 of osp(4|2) the other fork node's reflection:
    # its loop at the base domain mixes an even and an odd coordinate, so no
    # box tensor is built and nothing prints PASS
    fam = Family("CD", 2, 1)
    bad = CDDomain((0, 0, 1), "C-")
    rs = RootSystem(fam)  # a private copy: the cached root data stays sound
    reflection = rs.reflection
    monkeypatch.setattr(rs, "reflection", lambda i, a: reflection(3 if (i, a) == (2, bad) else i, a))
    monkeypatch.setattr(superreps, "root_system", lambda f: rs)
    monkeypatch.setattr(superreps, "_even_generators", _even_generators.__wrapped__)
    with pytest.raises(RuntimeError, match=r"\(i, a\) = \(2, \(0,0,1\)\^C-\)"):
        cli.main(["reps", "--family", "CD", "--m", "2", "--n", "1", "--q", "2"])
    assert "PASS" not in capsys.readouterr().out


def test_a_factor_generator_no_even_node_reaches_is_refused(monkeypatch):
    # an extra "generator" of S_3, the left factor of A(2,1): the identity is
    # the loop of no even node
    real = superreps.generators
    extra = {3: ((1, 2, 3),)}
    monkeypatch.setattr(superreps, "generators", lambda wt: real(wt) + extra.get(wt.n, ()))
    with pytest.raises(RuntimeError, match=r"A\(2,1\) acts by the generators \[\('left', 3\)\]"):
        _even_generators.__wrapped__(Family("A", 2, 1))


def test_block_rep_is_homomorphism():
    for fam in [Family("A", 1, 1), Family("B", 1, 1), Family("B", 0, 2), Family("CD", 1, 1)]:
        bm = big_map(fam, Fraction(2))
        for s in bm.summands:
            assert verify_block_rep(s) == []


def test_worked_braid_chain_in_matrices():
    # a domain with pattern (0, 0, 1) at positions i, i+1, i+2: the two
    # three-step braid products agree and equal the closed-form single factor
    fam = Family("A", 2, 1)
    lt, rt = factor_types(fam)
    l = next(r for r in irreps(lt, Fraction(2)) if r.dim == 2)
    r = irreps(rt, Fraction(2))[0]
    D = big_map(fam, Fraction(2)).summands[0].D
    assert D > 1
    rep = box_tensor(fam, l, r, D)
    d = (0, 0, 1, 0, 1)
    i = 1
    assert d[i - 1] == 0 and d[i] == 0 and d[i + 1] == 1

    G = groupoid_for(fam)

    def chain(letters):
        # D^3 T_{letters} on block d, rightmost letter first: (target, block)
        dom, out = G.domain_index[d], int_identity(rep.block_dim)
        for letter in reversed(letters):
            dom, block = rep.blocks[letter][dom]
            out = int_mat_mul(block, out)
        return dom, out

    lhs_target, lhs = chain((i, i + 1, i))
    rhs_target, rhs = chain((i + 1, i, i + 1))
    assert lhs == rhs
    # closed form: transport to d3 composed with the left generator action
    from helpers import tau_plus

    d3 = act(fam, i, act(fam, i + 1, act(fam, i, d)))
    assert lhs_target == rhs_target == G.domain_index[d3]
    k = tau_plus(fam, d).index(i - 1)
    assert lhs == kron(scale_to_int(l.gens[k], D**3), int_identity(r.dim))


def test_b_edge_case_m0():
    # left factor trivial: blocks carry only the right representation
    fam = Family("B", 0, 2)
    bm = big_map(fam, Fraction(2))
    assert [s.total_dim for s in bm.summands] == [1, 1, 2, 1, 1]


def test_cd_edge_case_m1():
    # W(D_1) trivial: osp(2|2n) blocks carry only the right factor
    fam = Family("CD", 1, 1)
    bm = big_map(fam, Fraction(2))
    assert [s.total_dim for s in bm.summands] == [3, 3]


def test_cd_tag_symmetry():
    # swapping C+ <-> C- swaps the roles of the last two generators on
    # domains with two trailing odd directions
    fam = Family("CD", 1, 2)
    bm = big_map(fam, Fraction(2))
    G = groupoid_for(fam)
    l = fam.rank
    for s in bm.summands:
        for a, dom in enumerate(G.roots.domains):
            if not isinstance(dom, CDDomain) or dom.tag != "C+":
                continue
            p = dom.parities
            if not (p[l - 2] == 1 and p[l - 1] == 1):
                continue
            twin = G.domain_index[CDDomain(p, "C-")]
            tgt1, blk1 = s.blocks[l - 1][a]
            tgt2, blk2 = s.blocks[l][twin]
            assert tgt1 == a and tgt2 == twin and blk1 == blk2
            tgt3, blk3 = s.blocks[l][a]
            tgt4, blk4 = s.blocks[l - 1][twin]
            assert blk3 == blk4


def test_big_map_summand_shapes():
    bm = big_map(Family("A", 1, 1), Fraction(2))
    assert [s.total_dim for s in bm.summands] == [6, 6, 6, 6]
    bm2 = big_map(Family("CD", 2, 1), Fraction(2))
    assert [s.total_dim for s in bm2.summands] == [4] * 8


def test_big_map_semisimplicity_guard():
    with pytest.raises(ValueError):
        big_map(Family("A", 1, 1), Fraction(-1))
    with pytest.raises(ValueError):
        big_map(Family("A", 1, 1), Fraction(0))


ISO_CASES = [
    (Family("A", 1, 1), Fraction(2), 144),
    (Family("A", 1, 1), Fraction(3), 144),
    (Family("A", 1, 1), Fraction(5, 7), 144),
    (Family("B", 1, 1), Fraction(2), 16),
    (Family("B", 0, 2), Fraction(2), 8),
    (Family("CD", 1, 1), Fraction(2), 18),
    (Family("CD", 2, 1), Fraction(2), 128),
    (Family("A", 2, 1), Fraction(2), 1200),
    (Family("CD", 1, 2), Fraction(1, 3), 200),
    (Family("B", 2, 2), Fraction(2), 2304),
    (Family("CD", 2, 2), Fraction(1, 3), 2592),
]


@pytest.mark.parametrize("fam,q0,expected", ISO_CASES)
def test_isomorphism(fam, q0, expected):
    report = verify_isomorphism(fam, q0)
    assert report.passed, report.relation_failures[:3]
    assert report.dim_formula == expected
    assert report.basis_rank == expected
    assert report.closure_rank == expected
    assert sum(d * d for d in report.summand_dims) == expected
    data = iso_report_json(report)
    assert data["passed"] is True


def _spied_basis_rank(monkeypatch) -> list:
    """Record every call of the exact joint rank inside verify_isomorphism."""
    calls = []

    def spy(bm, G):
        calls.append(bm.family)
        return _basis_rank(bm, G)

    monkeypatch.setattr(superreps, "_basis_rank", spy)
    return calls


SWEEP_CASES = [
    (fam, q0)
    for fam in [Family("A", 1, 1), Family("B", 1, 1), Family("CD", 1, 1), Family("B", 0, 2)]
    for q0 in [Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(5, 7)]
]


@pytest.mark.parametrize("fam,q0", [(f, q) for f, q, _ in ISO_CASES] + SWEEP_CASES)
def test_certified_basis_rank_is_the_joint_rank(monkeypatch, fam, q0):
    # the density certificate stands in for the joint rank; compute that rank
    # anyway and compare
    calls = _spied_basis_rank(monkeypatch)
    report = verify_isomorphism(fam, q0)
    assert report.passed, report.relation_failures[:3]
    assert calls == []
    assert report.basis_rank == _basis_rank(big_map(fam, q0), groupoid_for(fam))


def test_signature_tie_falls_back_to_the_joint_rank(monkeypatch):
    # equal trace signatures prove nothing: the joint rank decides, and PASS
    calls = _spied_basis_rank(monkeypatch)
    monkeypatch.setattr(superreps, "_trace_signature", lambda sr: 0)
    fam = Family("A", 1, 1)
    report = verify_isomorphism(fam, Fraction(2))
    assert calls == [fam]
    assert report.pairwise_distinct is True
    assert report.basis_rank == 144
    assert report.passed is True


def test_entry_moved_by_one_over_d_breaks_the_quadratic():
    # the integer check is exact at the scale D: 1/D on one entry is seen
    fam = Family("A", 2, 1)
    q0 = Fraction(5, 7)
    bm = big_map(fam, q0)
    lt, rt = factor_types(fam)
    D = math.lcm(q0.denominator, *(
        x.denominator for r in irreps(lt, q0) + irreps(rt, q0)
        for g in r.gens for row in g for x in row
    ))
    assert D > q0.denominator
    assert {s.D for s in bm.summands} == {D}
    rep = max(bm.summands, key=lambda s: s.block_dim)
    i, a = next((i, a) for i, per in rep.blocks.items() for a, (b, _) in enumerate(per) if b == a)
    b, block = rep.blocks[i][a]
    moved = [list(row) for row in block]
    moved[0][0] += 1
    rep.blocks[i][a] = (b, moved)
    fails = verify_block_rep(rep)
    assert fails[0] == f"quadratic fails at i={i}, a={groupoid_for(fam).roots.domains[a]}"


def test_injectivity_is_basis_independence():
    fam = Family("B", 1, 1)
    report = verify_isomorphism(fam, Fraction(2))
    assert report.basis_rank == groupoid_for(fam).order()


def _scaled(rep, i, a, c):
    """Replace the block of T_{i,a} by c times itself."""
    b, block = rep.blocks[i][a]
    rep.blocks[i][a] = (b, [[c * x for x in row] for row in block])


def test_scaled_even_block_breaks_quadratic_and_braids():
    fam = Family("A", 1, 1)
    rep = big_map(fam, Fraction(2)).summands[0]
    i, a = next((i, a) for i, per in rep.blocks.items() for a, (b, _) in enumerate(per) if b == a)
    _scaled(rep, i, a, 2)
    fails = verify_block_rep(rep)
    assert fails[0] == f"quadratic fails at i={i}, a={groupoid_for(fam).roots.domains[a]}"
    assert len(fails) > 1
    assert all(f.startswith("HArel") for f in fails[1:])


def test_broken_isotropic_block_is_rejected():
    fam = Family("B", 1, 1)
    rep = big_map(fam, Fraction(2)).summands[0]
    i, a = next((i, a) for i, per in rep.blocks.items() for a, (b, _) in enumerate(per) if b != a)
    _scaled(rep, i, a, 2)
    fails = verify_block_rep(rep)
    dom = groupoid_for(fam).roots.domains[a]
    assert f"isotropic relation fails at i={i}, a={dom}" in fails
    assert f"isotropic relation fails at i={i}, a={act(fam, i, dom)}" in fails


def test_block_to_the_wrong_domain_is_not_well_formed():
    # T_{i,a} sent to a domain other than G.row(a)[i - 1][0]: the E T E
    # relation fails, and no braid relation is read on the broken blocks
    fam = Family("B", 1, 1)
    rep = big_map(fam, Fraction(2)).summands[0]
    domains = groupoid_for(fam).roots.domains
    i, a, b = next((i, a, b) for i, per in rep.blocks.items() for a, (b, _) in enumerate(per))
    c = next(c for c in range(len(domains)) if c != b)
    rep.blocks[i][a] = (c, rep.blocks[i][a][1])
    assert verify_block_rep(rep) == [f"E T E != T at i={i}, a={domains[a]}"]


def test_a_missing_block_breaks_the_sum_of_idempotents():
    # a letter with no block at one domain: the E_a do not sum to the
    # identity, and nothing else is read
    rep = big_map(Family("B", 1, 1), Fraction(2)).summands[0]
    rep.blocks[1].pop()
    assert verify_block_rep(rep) == ["sum of idempotents is not the identity"]


def test_dropped_summand_loses_rank(monkeypatch):
    fam = Family("A", 1, 1)
    bm = big_map(fam, Fraction(2))
    monkeypatch.setattr(superreps, "big_map", lambda f, q0: BigMap(f, q0, bm.summands[1:]))
    report = verify_isomorphism(fam, Fraction(2))
    assert report.basis_rank < report.dim_formula
    assert report.passed is False


def test_duplicated_summand_is_not_distinct(monkeypatch):
    fam = Family("B", 1, 1)
    bm = big_map(fam, Fraction(2))
    monkeypatch.setattr(
        superreps, "big_map", lambda f, q0: BigMap(f, q0, bm.summands + bm.summands[:1])
    )
    report = verify_isomorphism(fam, Fraction(2))
    assert report.pairwise_distinct is False
    assert report.passed is False


SWEEP_FAMILIES = [Family("A", 1, 1), Family("B", 1, 1), Family("CD", 1, 1), Family("B", 0, 2)]
small_nonzero = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 4))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SWEEP_FAMILIES), small_nonzero)
@example(Family("A", 1, 1), Fraction(-1))
@example(Family("B", 0, 2), Fraction(-1))
def test_isomorphism_exactly_when_semisimple(fam, q0):
    lt, rt = factor_types(fam)
    args = ["reps", "--family", fam.kind, "--m", str(fam.m), "--n", str(fam.n), "--q", str(q0)]
    if q0 * poincare(lt, q0) * poincare(rt, q0) != 0:
        report = verify_isomorphism(fam, q0)
        assert report.passed, report.relation_failures[:3]
        assert report.basis_rank == report.dim_formula
    else:
        with pytest.raises(ValueError):
            big_map(fam, q0)
        # bad input is an exit-2 error before any output, never a FAIL line
        for command in ("reps", "verify-all"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                assert cli.main([command, *args[1:]]) == 2
            assert out.getvalue() == ""
            assert err.getvalue() == f"error: q0 = {q0} violates q P_left(q) P_right(q) != 0 for {fam.name()}\n"
