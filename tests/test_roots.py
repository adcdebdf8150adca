"""Root systems: simple roots, Coxeter entries, theta, axioms, diagrams."""

import hashlib

import pytest

from superhecke.domains import CDDomain, Family, act, domain_str
from superhecke.roots import (
    dynkin_dot,
    dynkin_json,
    root_system,
    sp_compose,
    sp_identity,
)

from helpers import mutated_alpha, mutated_negated_alpha

DESK = [
    Family("A", 1, 1),
    Family("A", 2, 1),
    Family("A", 1, 2),
    Family("B", 1, 1),
    Family("B", 1, 2),
    Family("B", 0, 2),
    Family("B", 2, 1),
    Family("CD", 1, 1),
    Family("CD", 2, 1),
    Family("CD", 1, 2),
]


def test_positive_root_counts():
    rs = root_system(Family("A", 1, 1))
    for a in rs.domains:
        assert len(rs.positive_roots(a)) == 6
    rsb = root_system(Family("B", 1, 1))
    for a in rsb.domains:
        assert len(rsb.positive_roots(a)) == 4  # e1-e2, e1+e2, e1, e2


def test_cd_simple_roots():
    rs = root_system(Family("CD", 3, 1))
    cplus = CDDomain((0, 0, 0, 1), "C+")
    cminus = CDDomain((0, 0, 0, 1), "C-")
    assert rs.simple_root(4, cplus) == (0, 0, 0, 2)
    assert rs.simple_root(3, cminus) == (0, 0, 0, -2)
    assert rs.simple_root(4, cminus) == (0, 0, 1, 1)
    d = CDDomain((1, 0, 0, 0), "D")
    assert rs.simple_root(4, d) == (0, 0, 1, 1)


def test_coxeter_entries():
    rs = root_system(Family("A", 1, 1))
    for a in rs.domains:
        assert rs.coxeter_entry(1, 3, a) == 2
        assert rs.coxeter_entry(1, 2, a) == 3
        assert rs.coxeter_entry(2, 3, a) == 3
        assert rs.coxeter_entry(1, 2, a) == rs.coxeter_entry(2, 1, a)
    rsb = root_system(Family("B", 1, 2))
    for a in rsb.domains:
        assert rsb.coxeter_entry(2, 3, a) == 4
    rscd = root_system(Family("CD", 3, 1))
    for a in rscd.domains:
        p = a.parities
        if a.tag == "D" and p[2] == p[3]:
            assert rscd.coxeter_entry(3, 4, a) == 2
        elif p[2] != p[3]:
            assert rscd.coxeter_entry(3, 4, a) == 3
        else:  # C-tagged with p3 = p4 = 1
            assert rscd.coxeter_entry(3, 4, a) == 4
    # m = 4 at C-tagged domains with two trailing ones
    rs22 = root_system(Family("CD", 2, 2))
    for a in rs22.domains:
        if a.tag in ("C+", "C-") and a.parities[-2] == a.parities[-1] == 1:
            assert rs22.coxeter_entry(3, 4, a) == 4


def test_coxeter_entry_matches_bounded_search():
    # the count over R_a against a brute-force search of c1 alpha_i + c2 alpha_j
    # with 0 <= c1, c2 <= 10, not both zero
    bound = 10
    for fam in [Family("A", 1, 1), Family("B", 1, 2), Family("CD", 2, 1), Family("CD", 1, 2)]:
        rs = root_system(fam)
        for a in rs.domains:
            for i in range(1, fam.rank + 1):
                for j in range(1, fam.rank + 1):
                    if i == j:
                        continue
                    ai, aj = rs.simple_root(i, a), rs.simple_root(j, a)
                    found = {
                        tuple(c1 * x + c2 * y for x, y in zip(ai, aj))
                        for c1 in range(bound + 1)
                        for c2 in range(bound + 1)
                        if c1 or c2
                    }
                    pos = rs.positive_roots(a)
                    roots = [v for v in found if v in pos or tuple(-c for c in v) in pos]
                    assert rs.coxeter_entry(i, j, a) == len(roots)


def test_theta_examples_and_divisibility():
    rs = root_system(Family("A", 1, 1))
    d_e = (0, 0, 1, 1)
    assert rs.theta(1, 3, d_e) == 1
    assert rs.theta(1, 2, (0, 1, 0, 1)) == 3
    for fam in DESK:
        r = root_system(fam)
        for a in r.domains:
            for i in range(1, fam.rank + 1):
                for j in range(i + 1, fam.rank + 1):
                    th = r.theta(i, j, a)
                    assert th == r.theta(j, i, a)
                    assert r.coxeter_entry(i, j, a) % th == 0
                    if act(fam, i, a) == a and act(fam, j, a) == a:
                        assert th == 1


def test_axioms_pass_everywhere():
    for fam in DESK:
        report = root_system(fam).check_axioms()
        assert report.passed, (fam, report.failures)


def test_mutated_system_fails_axiom_5():
    rs = root_system(Family("A", 1, 1))
    bad = mutated_negated_alpha(rs, 1, (0, 1, 0, 1))
    report = bad.check_axioms()
    assert not report.passed
    assert 5 in {f.axiom for f in report.failures}
    witness = [f for f in report.failures if f.axiom == 5]
    assert witness and witness[0].description


def test_reflections_involutive_across_domains():
    for fam in DESK:
        rs = root_system(fam)
        for a in rs.domains:
            for i in range(1, fam.rank + 1):
                b = act(fam, i, a)
                composed = sp_compose(rs.reflection(i, b), rs.reflection(i, a))
                assert composed == sp_identity(rs.dim)


def test_gl_reflections_preserve_sum_zero():
    rs = root_system(Family("A", 2, 1))
    for a in rs.domains:
        for i in range(1, 5):
            sig = rs.reflection(i, a)
            # permutation without signs keeps coordinate sums
            assert all(v > 0 for v in sig)


def test_dynkin_diagram_examples():
    rs = root_system(Family("A", 1, 1))
    diag = rs.dynkin((0, 0, 1, 1))
    assert [n.crossed for n in diag.nodes] == [False, True, False]
    assert all(not n.filled for n in diag.nodes)
    assert diag.edges == [(1, 2, 3), (2, 3, 3)]

    rsb = root_system(Family("B", 1, 2))
    diag = rsb.dynkin((1, 1, 0))
    assert [n.crossed for n in diag.nodes] == [False, True, False]
    assert [n.filled for n in diag.nodes] == [False, False, False]
    diag2 = rsb.dynkin((0, 1, 1))
    assert [n.crossed for n in diag2.nodes] == [True, False, False]
    assert [n.filled for n in diag2.nodes] == [False, False, True]
    assert (2, 3, 4) in diag2.edges

    rscd = root_system(Family("CD", 3, 1))
    diag3 = rscd.dynkin(CDDomain((0, 0, 0, 1), "C+"))
    assert [n.crossed for n in diag3.nodes] == [False, False, True, False]
    assert (3, 4, 3) in diag3.edges


def test_dot_and_json_serialization():
    dot = dynkin_dot(Family("A", 1, 1))
    assert dot.count("graph ") == 7  # six domains + orbit
    data = dynkin_json(Family("CD", 1, 1))
    assert data["schema_version"] == 1
    assert len(data["diagrams"]) == 3


def _mutated_systems(fam):
    """Broken copies of the family's root system, each with a name: every
    simple root negated, or scaled by 2, -1 or 3, one at a time, and, at
    rank 3 and more, the third simple root made the sum of the first two at
    the first domain, so that the simple roots are dependent.  (Two equal
    simple roots would be dependent too, but the Coxeter entry of axiom (7)
    cannot count over a pair of equal roots.)"""
    rs = root_system(fam)
    for a in rs.domains:
        for i in range(1, fam.rank + 1):
            where = f"i={i} a={domain_str(a)}"
            yield f"negated {where}", mutated_negated_alpha(rs, i, a)
            for c in (2, -1, 3):
                scaled = tuple(c * x for x in rs.simple_root(i, a))
                yield f"scaled by {c} {where}", mutated_alpha(rs, i, a, scaled)
    if fam.rank >= 3:
        a = rs.domains[0]
        total = tuple(x + y for x, y in zip(rs.simple_root(1, a), rs.simple_root(2, a)))
        yield "alpha_3 = alpha_1 + alpha_2", mutated_alpha(rs, 3, a, total)


def test_dependent_simple_pair_fails_the_axioms_without_raising():
    # alpha_2 := alpha_1 at one domain: no nonzero 2 x 2 minor for the pair
    rs = root_system(Family("A", 1, 1))
    a = rs.domains[0]
    bad = mutated_alpha(rs, 2, a, rs.simple_root(1, a))
    report = bad.check_axioms()
    assert not report.passed
    assert 2 in {f.axiom for f in report.failures}
    assert any(
        f.axiom == 7 and f.description.startswith("alpha_1 and alpha_2 are dependent")
        for f in report.failures
    )
    with pytest.raises(ValueError, match="alpha_1 and alpha_2 are dependent"):
        bad.coxeter_entry(1, 2, a)


def test_axiom_failure_descriptions_are_pinned():
    # every failure line of every broken system, in the order the checker
    # reports it, recorded while axioms (2) and (3) still solved over Fraction
    lines = []
    for fam in [Family("A", 1, 1), Family("B", 1, 1), Family("CD", 1, 1), Family("CD", 2, 1)]:
        for name, rs in _mutated_systems(fam):
            report = rs.check_axioms()
            assert not report.passed, (fam, name)
            lines += [f"{fam.name()} {name}: ({f.axiom}) {f.description}" for f in report.failures]
    assert any(line.endswith("simple roots not independent at a=(0,0,1,1)") for line in lines)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "88d47620c16e24799a7f655658277b01bee1817ef1640be1c6c79d209de2f3e9"
