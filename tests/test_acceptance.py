"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything is exact arithmetic; the default specialization point is q0 = 2.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

from superhecke.domains import CDDomain, Family, act
from superhecke.groupoid import Word, dimension_formula, groupoid_for
from superhecke.hecke import hecke_poly
from superhecke.roots import dynkin_dot, root_system
from superhecke.scalars import LaurentPoly
from superhecke.superreps import verify_isomorphism
from superhecke.weylgroups import WeylType, group_order, poincare_closed
from superhecke.weylreps import (
    character_on_group,
    irreps,
    pairwise_distinct_traces,
    split_regular_weyl,
    verify_irrep_relations,
)

from helpers import (
    braid_reaches_repeat,
    generator,
    inverse,
    left_descent,
    length,
    multiply,
    mutated_negated_alpha,
    perm_one_based,
    poincare_enum,
    right_descent,
    structure_constants_at,
    tau_minus,
    tau_plus,
)

GOLDEN = Path(__file__).resolve().parent / "golden"

CRITERION_1_CASES = [
    (Family("A", 1, 1), 144),
    (Family("A", 2, 1), 1200),
    (Family("A", 1, 2), 1200),
    (Family("B", 1, 1), 16),
    (Family("B", 1, 2), 144),
    (Family("B", 0, 2), 8),
    (Family("B", 2, 1), 144),
    (Family("CD", 1, 1), 18),
    (Family("CD", 2, 1), 128),
    (Family("CD", 1, 2), 200),
]

BRAID_FAMILIES = [
    Family("A", 1, 1),
    Family("B", 1, 1),
    Family("B", 0, 2),
    Family("CD", 1, 1),
]


def _report(number: int, name: str, ok: bool, start: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    tail = f"  [{detail}]" if detail else ""
    print(f"criterion {number:2d} {status}  {name}  ({time.time() - start:.1f}s){tail}")
    assert ok, f"criterion {number} failed: {name} {detail}"


def test_criterion_01_dimension_formulas():
    t0 = time.time()
    ok = True
    details = []
    for fam, expected in CRITERION_1_CASES:
        count = groupoid_for(fam).order()
        good = count == expected == dimension_formula(fam)
        ok = ok and good
        if not good:
            details.append(f"{fam.name()}: {count} != {expected}")
    _report(1, "dimension formulas", ok, t0, "; ".join(details))


def test_criterion_02_presentation_relations():
    t0 = time.time()
    ok = True
    details = []
    total = 0
    for fam, _ in CRITERION_1_CASES:
        report = hecke_poly(fam).verify_presentation()
        total += report.checked
        if not report.passed:
            ok = False
            details.append(f"{fam.name()}: {report.failures[:2]}")
    _report(2, "Hecke presentation relations", ok, t0,
            "; ".join(details) or f"{total} instances")


def _assoc_via_table(table, triples, zero):
    for ui, vi, wi in triples:
        left: dict = {}
        for xi, c in table.get((ui, vi), ()):
            for yi, d in table.get((xi, wi), ()):
                left[yi] = left.get(yi, zero) + c * d
        right: dict = {}
        for xi, c in table.get((vi, wi), ()):
            for yi, d in table.get((ui, xi), ()):
                right[yi] = right.get(yi, zero) + c * d
        if {k: v for k, v in left.items() if v} != {k: v for k, v in right.items() if v}:
            return False
    return True


def test_criterion_03_associativity():
    t0 = time.time()
    ok = True
    for fam in [Family("B", 1, 1), Family("CD", 1, 1)]:
        H = hecke_poly(fam)
        table = H.structure_constants()
        dim = len(H.tables.src)
        triples = itertools.product(range(dim), repeat=3)
        ok = ok and _assoc_via_table(table, triples, LaurentPoly())
    H = hecke_poly(Family("A", 1, 1))
    table = H.structure_constants()
    rng = random.Random(20240 + 1)
    triples = (
        (rng.randrange(144), rng.randrange(144), rng.randrange(144))
        for _ in range(100_000)
    )
    ok = ok and _assoc_via_table(table, triples, LaurentPoly())
    _report(3, "associativity (16^3, 18^3 exhaustive; 1e5 random on A(1,1))", ok, t0)


def test_criterion_04_braid_word_problem():
    t0 = time.time()
    ok = True
    details = []
    for fam in BRAID_FAMILIES:
        G = groupoid_for(fam)
        if not all(G.braid_connected(w) for w in G.elements()):
            ok = False
            details.append(f"{fam.name()}: braid graph disconnected")
        rng = random.Random(616)
        doms = G.roots.domains
        checked = 0
        while checked < 1000:
            base = doms[rng.randrange(len(doms))]
            n = rng.randint(2, 8)
            letters = tuple(rng.randint(1, fam.rank) for _ in range(n))
            word = Word(base, letters)
            if length(G, G.evaluate(word)) == n:
                continue
            checked += 1
            if not braid_reaches_repeat(G, word):
                ok = False
                details.append(f"{fam.name()}: no adjacent repeat from {word}")
                break
    _report(4, "reduced-word braid connectivity + non-reduced reduction", ok, t0,
            "; ".join(details))


def _length_pair_check(fam: Family) -> bool:
    """Exhaustive l(uv) <= l(u) + l(v) via packed root-image tables."""
    G = groupoid_for(fam)
    rs = G.roots
    els = G.elements()
    pos_index = {a: {b: i for i, b in enumerate(sorted(rs.positive_roots(a)))}
                 for a in rs.domains}
    lengths = {w: length(G, w) for w in els}
    # encode w as (perm of root indices, negativity bitmask)
    from superhecke.roots import sp_apply

    enc = {}
    for w in els:
        src = sorted(rs.positive_roots(w.source))
        tgt = pos_index[w.target]
        perm = []
        mask = 0
        for k, beta in enumerate(src):
            img = sp_apply(w.smap, beta)
            if img in tgt:
                perm.append(tgt[img])
            else:
                neg = tuple(-c for c in img)
                perm.append(tgt[neg])
                mask |= 1 << k
        enc[w] = (tuple(perm), mask)
    by_target: dict = {}
    for v in els:
        by_target.setdefault(v.target, []).append(v)
    for u in els:
        perm_u, mask_u = enc[u]
        lu = lengths[u]
        for v in by_target.get(u.source, ()):
            perm_v, mask_v = enc[v]
            # l(uv): count indices where the composite lands negative
            count = 0
            for k, j in enumerate(perm_v):
                if ((mask_v >> k) & 1) ^ ((mask_u >> j) & 1):
                    count += 1
            if count > lu + lengths[v]:
                return False
    return True


def test_criterion_05_length_theory():
    t0 = time.time()
    ok = True
    details = []
    for fam, _ in CRITERION_1_CASES:
        G = groupoid_for(fam)
        for w in G.elements():
            lw = length(G, w)
            if length(G, inverse(w)) != lw:
                ok = False
                details.append(f"{fam.name()}: l(w) != l(w^-1)")
                break
            for j in range(1, fam.rank + 1):
                ws = multiply(w, generator(G, j, act(fam, j, w.source)))
                delta = length(G, ws) - lw
                if delta not in (-1, 1) or (delta == -1) != right_descent(G, w, j):
                    ok = False
                    details.append(f"{fam.name()}: right descent mismatch")
                    break
                sw = multiply(generator(G, j, w.target), w)
                if (length(G, sw) - lw == -1) != left_descent(G, w, j):
                    ok = False
                    details.append(f"{fam.name()}: left descent mismatch")
                    break
        if ok and not _length_pair_check(fam):
            ok = False
            details.append(f"{fam.name()}: subadditivity fails")
    _report(5, "length theory (inverse, subadditivity, descents)", ok, t0,
            "; ".join(details))


def test_criterion_06_poincare_polynomials():
    t0 = time.time()
    ok = True
    for kind, ns in [("A", [2, 3, 4]), ("B", [1, 2, 3]), ("D", [2, 3, 4])]:
        for n in ns:
            wt = WeylType(kind, n)
            if poincare_closed(wt) != poincare_enum(wt):
                ok = False
    _report(6, "Poincare polynomials closed = enumerated", ok, t0)


def test_criterion_07_classical_irreps():
    t0 = time.time()
    ok = True
    details = []
    cases = [("A", 2), ("A", 3), ("A", 4), ("B", 1), ("B", 2), ("B", 2), ("D", 2), ("D", 3)]
    for kind, n in cases:
        wt = WeylType(kind, n)
        reps = irreps(wt, Fraction(2))
        if sum(r.dim**2 for r in reps) != group_order(wt):
            ok = False
            details.append(f"{wt.name()}: sum of squares")
        if not all(verify_irrep_relations(wt, r) for r in reps):
            ok = False
            details.append(f"{wt.name()}: relations")
        rank = max((len(r.gens) for r in reps), default=0)
        if not pairwise_distinct_traces(reps, rank):
            ok = False
            details.append(f"{wt.name()}: trace separation")
        comps = split_regular_weyl(wt, Fraction(2), seed=7)
        if any(c.multiplicity != c.irrep.dim for c in comps):
            ok = False
            details.append(f"{wt.name()}: oracle multiplicities")
        built = sorted((r.dim, character_on_group(wt, r)) for r in reps)
        split = sorted((c.irrep.dim, character_on_group(wt, c.irrep)) for c in comps)
        if built != split:
            ok = False
            details.append(f"{wt.name()}: oracle disagrees")
    _report(7, "classical irreps (seminormal vs splitting oracle)", ok, t0,
            "; ".join(details))


def test_criterion_08_isomorphism_theorems():
    t0 = time.time()
    ok = True
    details = []
    cases = [
        (Family("A", 1, 1), Fraction(2)),
        (Family("A", 1, 1), Fraction(3)),
        (Family("A", 1, 1), Fraction(5, 7)),
        (Family("B", 1, 1), Fraction(2)),
        (Family("B", 0, 2), Fraction(2)),
        (Family("CD", 1, 1), Fraction(2)),
        (Family("CD", 2, 1), Fraction(2)),
        (Family("A", 2, 1), Fraction(2)),
        (Family("CD", 1, 2), Fraction(1, 3)),
        (Family("B", 2, 2), Fraction(2)),
        (Family("CD", 2, 2), Fraction(1, 3)),
    ]
    for fam, q0 in cases:
        report = verify_isomorphism(fam, q0)
        if not report.passed:
            ok = False
            details.append(f"{fam.name()}@{q0}: {report.relation_failures[:1]}")
    _report(8, "isomorphism theorems (rank = formula = |W\\0|)", ok, t0,
            "; ".join(details))


def test_criterion_09_integral_structure_constants():
    t0 = time.time()
    ok = True
    details = []
    for fam in [Family("A", 1, 1), Family("B", 1, 1)]:
        tp = hecke_poly(fam).structure_constants()
        te = structure_constants_at(fam, 2)
        for key, row in tp.items():
            for wi, c in row:
                if c.min_exp < 0:
                    ok = False
                    details.append(f"{fam.name()}: negative exponent at {key}")
            specialized = tuple(
                (wi, c.evaluate(Fraction(2)))
                for wi, c in row
                if c.evaluate(Fraction(2))
            )
            if specialized != te.get(key, ()):
                ok = False
                details.append(f"{fam.name()}: specialization mismatch at {key}")
    _report(9, "Z[q] integrality + specialization agreement", ok, t0,
            "; ".join(details[:3]))


def test_criterion_10_root_system_axioms():
    t0 = time.time()
    ok = True
    details = []
    for fam, _ in CRITERION_1_CASES:
        report = root_system(fam).check_axioms()
        if not report.passed:
            ok = False
            details.append(f"{fam.name()}: {report.failures[:1]}")
    bad = mutated_negated_alpha(root_system(Family("A", 1, 1)), 1, (0, 1, 0, 1))
    mutated = bad.check_axioms()
    if mutated.passed or 5 not in {f.axiom for f in mutated.failures}:
        ok = False
        details.append("mutated system not rejected through axiom 5")
    _report(10, "root-system axioms + mutation witness", ok, t0, "; ".join(details))


EXPECTED_TAUS = {
    (0, 0, 1, 1): ([1, 2, 3, 4], [3, 4, 1, 2]),
    (0, 1, 0, 1): ([1, 3, 2, 4], [2, 4, 1, 3]),
    (1, 0, 0, 1): ([2, 3, 1, 4], [1, 4, 2, 3]),
    (0, 1, 1, 0): ([1, 4, 2, 3], [2, 3, 1, 4]),
    (1, 0, 1, 0): ([2, 4, 1, 3], [1, 3, 2, 4]),
    (1, 1, 0, 0): ([3, 4, 1, 2], [1, 2, 3, 4]),
}

# orbit graphs of the three published diagram figures, hand-transcribed:
# node -> (crossed nodes, filled nodes), edge list (a, b, generator)
FIGURE_A11 = {
    "nodes": {
        (0, 0, 1, 1): ({2}, set()),
        (0, 1, 0, 1): ({1, 2, 3}, set()),
        (1, 0, 0, 1): ({1, 3}, set()),
        (0, 1, 1, 0): ({1, 3}, set()),
        (1, 0, 1, 0): ({1, 2, 3}, set()),
        (1, 1, 0, 0): ({2}, set()),
    },
    "edges": {
        frozenset({(0, 0, 1, 1), (0, 1, 0, 1)}): 2,
        frozenset({(0, 1, 0, 1), (1, 0, 0, 1)}): 1,
        frozenset({(0, 1, 0, 1), (0, 1, 1, 0)}): 3,
        frozenset({(1, 0, 0, 1), (1, 0, 1, 0)}): 3,
        frozenset({(0, 1, 1, 0), (1, 0, 1, 0)}): 1,
        frozenset({(1, 0, 1, 0), (1, 1, 0, 0)}): 2,
    },
}

FIGURE_B12 = {
    "nodes": {
        (0, 1, 1): ({1}, {3}),
        (1, 0, 1): ({1, 2}, {3}),
        (1, 1, 0): ({2}, set()),
    },
    "edges": {
        frozenset({(0, 1, 1), (1, 0, 1)}): 1,
        frozenset({(1, 0, 1), (1, 1, 0)}): 2,
    },
}

FIGURE_D31 = {
    "nodes": {
        CDDomain((1, 0, 0, 0), "D"): ({1}, set()),
        CDDomain((0, 1, 0, 0), "D"): ({1, 2}, set()),
        CDDomain((0, 0, 1, 0), "D"): ({2, 3, 4}, set()),
        CDDomain((0, 0, 0, 1), "C+"): ({3}, set()),
        CDDomain((0, 0, 0, 1), "C-"): ({4}, set()),
    },
    "edges": {
        frozenset({CDDomain((1, 0, 0, 0), "D"), CDDomain((0, 1, 0, 0), "D")}): 1,
        frozenset({CDDomain((0, 1, 0, 0), "D"), CDDomain((0, 0, 1, 0), "D")}): 2,
        frozenset({CDDomain((0, 0, 1, 0), "D"), CDDomain((0, 0, 0, 1), "C+")}): 3,
        frozenset({CDDomain((0, 0, 1, 0), "D"), CDDomain((0, 0, 0, 1), "C-")}): 4,
    },
}


def _orbit_structure(fam: Family):
    rs = root_system(fam)
    nodes = {}
    for a in rs.domains:
        diag = rs.dynkin(a)
        nodes[a] = (
            {n.index for n in diag.nodes if n.crossed},
            {n.index for n in diag.nodes if n.filled},
        )
    edges = {frozenset({a, b}): i for a, b, i in rs.orbit_edges()}
    return {"nodes": nodes, "edges": edges}


def test_criterion_11_worked_example_regression():
    t0 = time.time()
    ok = True
    details = []
    fam = Family("A", 1, 1)
    for d, (plus, minus) in EXPECTED_TAUS.items():
        if perm_one_based(tau_plus(fam, d)) != plus or perm_one_based(tau_minus(fam, d)) != minus:
            ok = False
            details.append(f"tau mismatch at {d}")
    figure_cases = [
        (Family("A", 1, 1), FIGURE_A11, "dynkin_A_1_1.dot"),
        (Family("B", 1, 2), FIGURE_B12, "dynkin_B_1_2.dot"),
        (Family("CD", 3, 1), FIGURE_D31, "dynkin_CD_3_1.dot"),
    ]
    for family, figure, golden_name in figure_cases:
        structure = _orbit_structure(family)
        if structure != figure:
            ok = False
            details.append(f"{family.name()}: orbit graph differs from the figure")
        golden = (GOLDEN / golden_name).read_text()
        if dynkin_dot(family) != golden:
            ok = False
            details.append(f"{family.name()}: DOT output differs from golden file")
    _report(11, "worked-example regression (taus + diagram golden files)", ok, t0,
            "; ".join(details))
