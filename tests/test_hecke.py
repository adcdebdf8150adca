"""The Hecke algebra on the f(w) basis: generator rules, products, relations,
structure constants over Z[q, q^-1] and their specialisation at q0."""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superhecke import cli
from superhecke.domains import Family, act
from superhecke.hecke import HeckeAlgebra, family_braid_instances, hecke_poly
from superhecke.scalars import LaurentPoly, rational_to_string

from helpers import (
    HeckeReference,
    generator,
    identity,
    length,
    multiply,
    positions,
    structure_constants_at,
)

SMALL = [Family("A", 1, 1), Family("B", 1, 1), Family("B", 0, 2), Family("CD", 1, 1)]


def _f(H, w) -> dict:
    """f(w) as the algebra's dict {basis index: coefficient id}."""
    return {positions(H.groupoid)[w]: H._one}


def _plus(H, x: dict, y: dict) -> dict:
    out = dict(x)
    for k, c in y.items():
        H.ring.add_to(out, k, c)
    return out


def _scaled(H, x: dict, c: int) -> dict:
    return {k: p for k, d in x.items() if (p := H.ring.mul(d, c))}


def _product(H, x: dict, y: dict) -> dict:
    """x y on the algebra's dicts: f(u) y is E_source(u) y with u's canonical
    letters, read off the tables, applied by `_lmul`, the rightmost first."""
    T = H.tables
    out: dict = {}
    for u, c in x.items():
        z = {v: d for v, d in y.items() if T.tgt[v] == T.src[u]}
        steps = []
        k = u
        while T.length[k]:
            i = T.first[k]
            k = T.lgen[i][k]
            steps.append((i, T.tgt[k]))
        for i, a in reversed(steps):
            z = H._lmul(i, a, z.items())
        out = _plus(H, out, _scaled(H, z, c))
    return out


def test_idempotent_rules():
    H = HeckeAlgebra(Family("A", 1, 1))
    G = H.groupoid
    a, b = (0, 0, 1, 1), (0, 1, 0, 1)
    e = lambda d: _f(H, identity(G, d))
    assert _product(H, e(a), e(a)) == e(a)
    assert _product(H, e(a), e(b)) == {}
    unit = {}
    for d in G.roots.domains:
        unit = _plus(H, unit, e(d))
    for w in G.elements()[:20]:
        assert _product(H, unit, _f(H, w)) == _f(H, w)
        assert _product(H, _f(H, w), unit) == _f(H, w)


def test_lmul_rules():
    # the relations intern q and q - 1 themselves, so a wrong rule cannot
    # agree with itself
    H = HeckeAlgebra(Family("A", 1, 1))
    G = H.groupoid
    q, qm1 = H.ring.intern(LaurentPoly.q()), H.ring.intern(LaurentPoly.q() - 1)
    a = (0, 0, 1, 1)
    ia = G.domain_index[a]
    t1, e = _f(H, generator(G, 1, a)), _f(H, identity(G, a))
    # T e_a = t(i, a)
    assert H._lmul(1, ia, e.items()) == t1
    # isotropic: T_{i, i>a} T_{i, a} = E_a
    b = act(H.family, 2, a)
    assert H._lmul(2, G.domain_index[b], _f(H, generator(G, 2, a)).items()) == e
    # quadratic: T^2 = (q-1) T + q E when the node is even
    assert H._lmul(1, ia, t1.items()) == _plus(H, _scaled(H, t1, qm1), _scaled(H, e, q))


def test_quadratic_operator_identity_on_basis():
    # (L - q L_E)(L + L_E) = 0 on the E_a-column, in operator form
    for fam in [Family("B", 1, 1), Family("CD", 1, 1)]:
        H = HeckeAlgebra(fam)
        q, qm1 = H.ring.intern(LaurentPoly.q()), H.ring.intern(LaurentPoly.q() - 1)
        for a in H.groupoid.roots.domains:
            ia = H.groupoid.domain_index[a]
            for i in range(1, fam.rank + 1):
                if act(fam, i, a) != a:
                    continue
                for k in range(len(H.tables.src)):
                    x = {k: H._one}
                    tx = H._lmul(i, ia, x.items())
                    ttx = H._lmul(i, ia, tx.items())
                    ex = {j: c for j, c in x.items() if H.tables.tgt[j] == ia}
                    assert ttx == _plus(H, _scaled(H, tx, qm1), _scaled(H, ex, q))


def test_product_left_unit_and_zero():
    H = HeckeAlgebra(Family("B", 1, 1))
    G = H.groupoid
    for u in G.elements():
        assert _product(H, _f(H, u), _f(H, identity(G, u.source))) == _f(H, u)
        assert _product(H, _f(H, identity(G, u.target)), _f(H, u)) == _f(H, u)
        for a in G.roots.domains:
            if a != u.source:
                assert _product(H, _f(H, u), _f(H, identity(G, a))) == {}


def test_presentation_all_families():
    for fam in SMALL + [Family("B", 1, 2), Family("CD", 2, 1)]:
        report = hecke_poly(fam).verify_presentation()
        assert report.passed, (fam, report.failures[:3])
        assert report.checked > 0


def _structconst_at(fam: Family, q0: Fraction) -> dict:
    """The rows of `structconst --scalar eval --q q0`, as the reference
    structure_constants_at keys and holds them."""
    argv = ["structconst", "--family", fam.kind, "--m", str(fam.m), "--n", str(fam.n)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv + ["--scalar", "eval", f"--q={rational_to_string(q0)}"]) == 0
    doc = json.loads(out.getvalue())
    assert doc["mode"] == "eval"
    return {
        (e["u"], e["v"]): tuple((t["w"], Fraction(t["poly"])) for t in e["terms"])
        for e in doc["entries"]
    }


def test_presentation_eval_mode():
    # the one Z[q, q^-1] proof of the relations, for verify --scalar eval
    argv = ["verify", "--family", "B", "--m", "1", "--n", "1", "--format", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv + ["--scalar", "eval", "--q", "2"]) == 0
    doc = json.loads(out.getvalue())
    assert doc["relations_passed"] and doc["relations_checked"] > 0


@pytest.mark.parametrize("fam", [Family("A", 1, 1), Family("B", 1, 1)])
def test_presentation_and_table_at_q1(fam):
    # at q0 = 1 the quadratic rule's T-coefficient q0 - 1 vanishes: the table
    # at q0 = 1 stores no zeros, and is the poly table specialised there
    one = Fraction(1)
    te = _structconst_at(fam, one)
    assert te == structure_constants_at(fam, one)
    for key, row in hecke_poly(fam).structure_constants().items():
        specialized = tuple((wi, c.evaluate(one)) for wi, c in row if c.evaluate(one))
        assert specialized == te[key]
    assert all(c for row in te.values() for _, c in row)


def test_presentation_fails_on_a_corrupted_generator_table():
    # T_1 f(k) redirected to another element of the same length, source and
    # target: the unit relation breaks, and nothing but the report says so
    fam = Family("B", 1, 2)
    H = HeckeAlgebra(fam)
    T = H.tables
    shape = lambda j: (T.length[j], T.src[j], T.tgt[j])
    k, other = next(
        (k, j)
        for k, t in enumerate(T.lgen[1])
        for j in range(len(T.src))
        if j != t and shape(j) == shape(t)
    )
    lgen = [list(row) for row in T.lgen]
    lgen[1][k] = other
    H.tables = T._replace(lgen=tuple(tuple(row) for row in lgen))
    report = H.verify_presentation()
    assert report.passed is False
    assert len(report.failures) == 14
    assert any(f.startswith("sum of E_a is not the unit") for f in report.failures)
    # the count and every failure line, byte for byte
    assert _report_digest(report) == (
        "30ed09c5a871a9172ea21ca542e82d1c198ae75ad33c4683565d09662a1163a4"
    )


def test_presentation_fails_on_a_wrong_quadratic_coefficient():
    # the generator rule multiplies by q where q - 1 belongs: every quadratic
    # line fails, since the relation's q - 1 is not the rule's
    H = HeckeAlgebra(Family("B", 1, 2))
    H._qm1 = H._q
    report = H.verify_presentation()
    fam, domains = H.family, H.groupoid.roots.domains
    even = [(i, a) for a in domains for i in range(1, fam.rank + 1) if act(fam, i, a) == a]
    assert len(report.failures) == len(even) > 0
    assert all(f.startswith("quadratic relation fails") for f in report.failures)
    assert _report_digest(report) == (
        "bd220168ad7552a372ffe3d8f221b47c5393be763775c2747fbfd71a36212e33"
    )


def _report_digest(report) -> str:
    """sha256 over a presentation report's count and failure lines."""
    text = "\n".join([str(report.checked), *report.failures])
    return hashlib.sha256(text.encode()).hexdigest()


def test_family_list_matches_coxeter_braids():
    for fam in SMALL + [Family("CD", 1, 2), Family("B", 2, 1)]:
        H = hecke_poly(fam)
        key = lambda r: (r.base, min(r.left, r.right), max(r.left, r.right))
        fam_keys = {key(r) for r in family_braid_instances(fam)}
        cox_keys = {key(r) for r in H.braid_instances_from_coxeter()}
        assert fam_keys == cox_keys


def test_structure_constants_integral_with_degree_bound():
    for fam in [Family("B", 1, 1), Family("CD", 1, 1)]:
        H = hecke_poly(fam)
        table = H.structure_constants()
        G = H.groupoid
        for (ui, vi), row in table.items():
            u = G.elements()[ui]
            for wi, c in row:
                assert c.min_exp >= 0
                assert c.items()[-1][0] <= length(G, u)


def test_structure_constants_q1_degeneration():
    # at q = 1 the product degenerates to the groupoid multiplication, which
    # also gives the only provable form of the length-parity statement
    for fam in [Family("B", 1, 1), Family("CD", 1, 1)]:
        H = hecke_poly(fam)
        G = H.groupoid
        els = G.elements()
        for (ui, vi), row in H.structure_constants().items():
            u, v = els[ui], els[vi]
            uv = multiply(u, v)
            for wi, c in row:
                w = els[wi]
                c1 = c.evaluate(Fraction(1))
                assert c1 == (1 if w == uv else 0)
                if (length(G, w) - length(G, u) - length(G, v)) % 2:
                    assert c1 == 0


def test_isotropic_pair_gives_unit_coefficient():
    # f(s_{i, i>a}) f(s_{i, a}) has coefficient 1 on the identity of a
    H = hecke_poly(Family("CD", 1, 1))
    G = H.groupoid
    one = LaurentPoly.one()
    table = H.structure_constants()
    for a in G.roots.domains:
        for i in range(1, H.family.rank + 1):
            b = act(H.family, i, a)
            if b == a:
                continue
            ui = positions(G)[generator(G, i, b)]
            vi = positions(G)[generator(G, i, a)]
            assert table[(ui, vi)] == ((positions(G)[identity(G, a)], one),)


def test_identity_rows_of_table():
    H = hecke_poly(Family("B", 1, 1))
    table = H.structure_constants()
    one = LaurentPoly.one()
    els = H.groupoid.elements()
    for ui, u in enumerate(els):
        if length(H.groupoid, u) == 0:
            for vi, v in enumerate(els):
                row = table.get((ui, vi))
                if v.target == u.source:
                    assert row == ((vi, one),)
                else:
                    assert row is None


def test_specialization_commutes():
    fam = Family("B", 1, 1)
    tp = hecke_poly(fam).structure_constants()
    te = structure_constants_at(fam, 2)
    for key, row in tp.items():
        specialized = tuple(
            (wi, c.evaluate(Fraction(2))) for wi, c in row if c.evaluate(Fraction(2))
        )
        assert specialized == te.get(key, ())


def _triple_products(table, ui, vi, wi, zero):
    """(f(u) f(v)) f(w) and f(u) (f(v) f(w)) from the table, without zeros."""
    left = {}
    for xi, c in table.get((ui, vi), ()):
        for yi, d in table.get((xi, wi), ()):
            left[yi] = left.get(yi, zero) + c * d
    right = {}
    for xi, c in table.get((vi, wi), ()):
        for yi, d in table.get((ui, xi), ()):
            right[yi] = right.get(yi, zero) + c * d
    return (
        {k: v for k, v in left.items() if v},
        {k: v for k, v in right.items() if v},
    )


def test_associativity_exhaustive_b11():
    H = hecke_poly(Family("B", 1, 1))
    table = H.structure_constants()
    dim = len(H.tables.src)
    zero = LaurentPoly()
    for ui in range(dim):
        for vi in range(dim):
            for wi in range(dim):
                left, right = _triple_products(table, ui, vi, wi, zero)
                assert left == right


def test_associativity_random_triples_a21():
    # seeded composable triples of the A(2,1) poly table (1 200 basis elements)
    H = hecke_poly(Family("A", 2, 1))
    T = H.tables
    table = H.structure_constants()
    by_target = {}
    for k, a in enumerate(T.tgt):
        by_target.setdefault(a, []).append(k)
    keys = list(table)
    rng = random.Random(21)
    zero = LaurentPoly()
    for _ in range(300):
        ui, vi = keys[rng.randrange(len(keys))]
        wi = rng.choice(by_target[T.src[vi]])
        left, right = _triple_products(table, ui, vi, wi, zero)
        assert left and left == right


@pytest.mark.parametrize("fam", [Family("A", 1, 1), Family("B", 1, 1)])
@pytest.mark.parametrize("q", [None, Fraction(2), Fraction(1, 3)])
def test_table_rows_match_products_through_canonical_words(fam, q):
    # the length-layer recursion, of the program over Z[q, q^-1] or of the
    # Fraction reference at q, against the definition: f(u) f(v) is the
    # canonical word of u, from its root-count descents, applied to f(v)
    H = hecke_poly(fam)
    R = HeckeReference(fam)
    G = H.groupoid
    table = H.structure_constants() if q is None else structure_constants_at(fam, q)
    pairs = 0
    for ui, u in enumerate(G.elements()):
        word = G.canonical_reduced_word(u)
        for vi, v in enumerate(G.elements()):
            row = table.get((ui, vi))
            if v.target != u.source:
                assert row is None
                continue
            pairs += 1
            product = sorted(R.apply_word(word, R.f(v)).items())
            if q is not None:
                product = [(wi, c.evaluate(q)) for wi, c in product if c.evaluate(q)]
            assert row == tuple(product)
    assert pairs == len(table)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(SMALL),
    st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool),
)
@example(SMALL[0], Fraction(1))
@example(SMALL[1], Fraction(1))
@example(SMALL[2], Fraction(1))
@example(SMALL[3], Fraction(1))
def test_eval_table_is_poly_table_at_q0(fam, q0):
    # structconst --scalar eval, the poly table specialised at q0, against
    # the length-layer recursion over Fraction at q0
    assert _structconst_at(fam, q0) == structure_constants_at(fam, q0)


def test_product_bilinear_random():
    # in each argument, with the terms of x = f(u) + c f(v) in both orders;
    # half of the draws take v = s_i u, so that on the right _lmul meets two
    # terms that one letter sends onto each other
    H = HeckeAlgebra(Family("CD", 1, 1))
    T = H.tables
    c = H.ring.intern(LaurentPoly.q() + 3)
    rng = random.Random(5)
    for _ in range(60):
        u, w = rng.randrange(len(T.src)), rng.randrange(len(T.src))
        v = T.lgen[rng.randint(1, H.family.rank)][u] if rng.random() < 0.5 else rng.randrange(len(T.src))
        fu, cfv, fw = {u: H._one}, {v: c}, {w: H._one}
        for x in (_plus(H, fu, cfv), _plus(H, cfv, fu)):
            assert _product(H, x, fw) == _plus(H, _product(H, fu, fw), _product(H, cfv, fw))
            assert _product(H, fw, x) == _plus(H, _product(H, fw, fu), _product(H, fw, cfv))


@pytest.mark.parametrize("fam", [Family("A", 1, 1), Family("CD", 1, 1)])
def test_structure_constants_are_a_read_only_mapping(fam):
    # the Mapping over the id rows against the reference's products through
    # canonical words
    H = HeckeAlgebra(fam)
    R = HeckeReference(fam)
    G = H.groupoid
    reference = {}
    for ui, u in enumerate(G.elements()):
        word = G.canonical_reduced_word(u)
        for vi, v in enumerate(G.elements()):
            if v.target == u.source:
                reference[(ui, vi)] = tuple(sorted(R.apply_word(word, R.f(v)).items()))
    table = H.structure_constants()
    assert len(table) == len(reference)
    assert table == reference
    assert dict(table.items()) == reference
    assert list(table.values()) == [reference[k] for k in table]
    for key, row in reference.items():
        assert key in table and table[key] == row
        assert all(isinstance(c, LaurentPoly) for _, c in table[key])
    assert (len(H.tables.src), 0) not in table
    with pytest.raises(TypeError):
        table[next(iter(table))] = ()


def test_structconst_json_shape():
    H = hecke_poly(Family("B", 1, 1))
    data = H.structure_constants_json()
    assert data["schema_version"] == 1
    assert len(data["basis"]) == 16
    assert all({"u", "v", "terms"} <= set(e) for e in data["entries"])
