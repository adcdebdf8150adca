"""The value records and reports: immutable named tuples that callers can
compare, hash, print and cache on, built without the `dataclasses` machinery."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from superhecke.domains import Family
from superhecke.groupoid import CoxeterGroupoid, Word, groupoid_for
from superhecke.hecke import family_braid_instances, hecke_poly
from superhecke.roots import root_system
from superhecke.superreps import big_map, verify_isomorphism
from superhecke.weylgroups import WeylType, sorted_elements
from superhecke.weylreps import irreps, split_regular_weyl

from helpers import mutated_negated_alpha

ROOT = Path(__file__).resolve().parent.parent


def test_cli_import_leaves_out_dataclasses():
    # every CLI process pays for what the import pulls in; -S keeps the
    # interpreter's own site hooks out of the count
    probe = "import sys, superhecke.cli; print('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, cwd=ROOT, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (("A", -1, 0), "family A needs m, n >= 0, got (-1, 0)"),
        (("B", 1, 0), "family B needs m >= 0, n >= 1, got (1, 0)"),
        (("CD", 0, 1), "family CD needs m, n >= 1, got (0, 1)"),
        (("E", 1, 1), "unknown family kind 'E'"),
    ],
)
def test_family_rejects_bad_input(args, message):
    with pytest.raises(ValueError) as exc:
        Family(*args)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "args, message",
    [
        (("E", 3), "unknown Weyl type 'E'"),
        (("A", 0), "S_n needs n >= 1"),
        (("B", -1), "W(B_n)/W(D_n) need n >= 0"),
        (("D", -1), "W(B_n)/W(D_n) need n >= 0"),
    ],
)
def test_weyl_type_rejects_bad_input(args, message):
    with pytest.raises(ValueError) as exc:
        WeylType(*args)
    assert str(exc.value) == message


def test_keyword_construction_is_checked_too():
    assert Family(kind="A", m=1, n=1) == Family("A", 1, 1)
    with pytest.raises(ValueError):
        Family(kind="B", m=1, n=0)
    assert WeylType(kind="B", n=2) == WeylType("B", 2)


def test_equal_fields_give_equal_objects_and_cache_keys():
    f, g = Family("A", 1, 1), Family("A", 1, 1)
    assert f == g and hash(f) == hash(g) and f is not g
    assert root_system(f) is root_system(g)
    assert groupoid_for(f) is groupoid_for(g)
    assert hecke_poly(f) is hecke_poly(g)
    assert Family("A", 1, 1) != Family("A", 1, 2)
    u, v = WeylType("B", 2), WeylType("B", 2)
    assert u == v and hash(u) == hash(v)
    assert sorted_elements(u) is sorted_elements(v)
    assert Word((0, 1), (1,)) == Word((0, 1), (1,))
    assert hash(Word((0, 1), (1,))) == hash(Word((0, 1), (1,)))


def test_reprs_are_unchanged():
    assert repr(Family("A", 1, 1)) == "Family(kind='A', m=1, n=1)"
    assert repr(Family("CD", 2, 1)) == "Family(kind='CD', m=2, n=1)"
    assert repr(WeylType("B", 2)) == "WeylType(kind='B', n=2)"
    assert repr(Word((0, 1), (1, 2))) == "Word(base=(0, 1), letters=(1, 2))"
    report = mutated_negated_alpha(root_system(Family("A", 1, 1)), 1, (0, 1, 0, 1)).check_axioms()
    assert repr(report.failures[0]).startswith("AxiomFailure(axiom=")


def test_records_are_tuples():
    # a deliberate difference from the former dataclasses: a record equals
    # the plain tuple of its fields and unpacks like one
    assert Family("A", 1, 1) == ("A", 1, 1)
    kind, m, n = Family("B", 2, 1)
    assert (kind, m, n) == ("B", 2, 1)
    assert tuple(WeylType("D", 3)) == ("D", 3)


def test_tables_compare_by_value():
    # Tables used to compare by identity; two enumerations of one family now
    # give equal tables
    fam = Family("A", 0, 1)
    assert CoxeterGroupoid(fam).tables() == CoxeterGroupoid(fam).tables()


def test_reports_share_no_failure_list():
    reports = [hecke_poly(Family(*f)).verify_presentation() for f in (("A", 0, 1), ("B", 0, 1))]
    assert all(r.passed and r.failures == [] for r in reports)
    assert reports[0].failures is not reports[1].failures
    axioms = [root_system(Family(*f)).check_axioms() for f in (("A", 0, 1), ("B", 0, 1))]
    assert axioms[0].failures is not axioms[1].failures


def _every_record():
    fam = Family("A", 0, 1)
    G = groupoid_for(fam)
    rs = root_system(fam)
    alg = hecke_poly(fam)
    bm = big_map(fam, Fraction(2))
    mutated = mutated_negated_alpha(rs, 1, rs.domains[0]).check_axioms()
    diagram = rs.dynkin(rs.domains[0])
    return [
        fam,
        WeylType("A", 3),
        G.canonical_reduced_word(G.elements()[-1]),
        G.tables(),
        family_braid_instances(fam)[0],
        alg.verify_presentation(),
        mutated.failures[0],
        mutated,
        diagram.nodes[0],
        diagram,
        bm.summands[0],
        bm,
        verify_isomorphism(fam, Fraction(2)),
        irreps(WeylType("A", 3), Fraction(2))[0],
        split_regular_weyl(WeylType("A", 3), Fraction(2))[0],
    ]


def test_fields_cannot_be_assigned():
    records = _every_record()
    assert len({type(r) for r in records}) == len(records) == 15
    for record in records:
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_split_components_are_labelled_in_order():
    comps = split_regular_weyl(WeylType("A", 3), Fraction(2))
    assert [c.irrep.label for c in comps] == [("split", k) for k in range(len(comps))]
    assert [(c.irrep.dim, c.multiplicity) for c in comps] == [(1, 1), (1, 1), (2, 2)]
