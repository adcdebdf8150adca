"""Output checkers built apart from the program.

Every check here is a closed form or a property the mathematics requires,
computed from the command's output with this module's own arithmetic; none
compares against a stored copy of an earlier output.  Each checker returns a
list of error strings, empty when the output is accepted.

Conventions follow the program's documented JSON encodings
(docs/schemas/common.md): Laurent polynomials are [exponent, "coefficient"]
pairs, rationals are "num/den" strings, a groupoid element is
{"source", "target", "perm": [[image, sign], ...]}, and a word's rightmost
letter applies first.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, factorial

# ---- closed forms ----


def factor_types(kind: str, m: int, n: int) -> tuple[tuple[str, int], tuple[str, int]]:
    """Classical Weyl types of the two tensor factors of a family."""
    if kind == "A":
        return ("A", m + 1), ("A", n + 1)
    if kind == "B":
        return ("B", m), ("B", n)
    return ("D", m), ("B", n)


def weyl_order(kind: str, n: int) -> int:
    if kind == "A":
        return factorial(n)
    if kind == "B":
        return 2**n * factorial(n)
    return 1 if n == 0 else 2 ** (n - 1) * factorial(n)


def domain_count(kind: str, m: int, n: int) -> int:
    """Parity sequences: A has m+n+2 places with n+1 odd, B has m+n with n
    odd; CD sequences ending in 0 carry the tag D, those ending in 1 carry
    C+ or C-."""
    if kind == "A":
        return comb(m + n + 2, n + 1)
    if kind == "B":
        return comb(m + n, n)
    return comb(m + n - 1, n) + 2 * comb(m + n - 1, n - 1)


def family_order(kind: str, m: int, n: int) -> int:
    """|W \\ 0| = (domain count)^2 |W_left| |W_right|."""
    left, right = factor_types(kind, m, n)
    return domain_count(kind, m, n) ** 2 * weyl_order(*left) * weyl_order(*right)


def partitions(k: int, largest: int | None = None) -> list[tuple[int, ...]]:
    largest = k if largest is None else largest
    if k == 0:
        return [()]
    out = []
    for first in range(min(k, largest), 0, -1):
        out += [(first,) + rest for rest in partitions(k - first, first)]
    return out


def hook_count(shape) -> int:
    """Standard tableaux of a shape, by the hook-length formula."""
    shape = list(shape)
    cols = [sum(1 for r in shape if r > j) for j in range(shape[0])] if shape else []
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j - 1) + (cols[j] - i - 1) + 1
    return factorial(sum(shape)) // hooks


def irrep_dims(kind: str, n: int) -> dict:
    """Label -> dimension of the irreducibles of H_q(W) at generic q.

    S_n: partitions.  W(B_n): ordered pairs (lam, mu), dimension
    C(n, |lam|) f^lam f^mu.  W(D_n): unordered pairs; a pair lam = mu splits
    into two halves tagged + and -.  Labels of D are (sorted pair, tag).
    """
    if kind == "A":
        return {lam: hook_count(lam) for lam in partitions(n)}
    pairs = {}
    for k in range(n + 1):
        for lam in partitions(k):
            for mu in partitions(n - k):
                pairs[(lam, mu)] = comb(n, k) * hook_count(lam) * hook_count(mu)
    if kind == "B":
        return pairs
    if n <= 1:
        return {(((), (1,) * n), ""): 1}
    out = {}
    for (lam, mu), d in pairs.items():
        key = tuple(sorted((lam, mu)))
        if lam != mu:
            out[(key, "")] = d
        else:
            out[(key, "+")] = out[(key, "-")] = d // 2
    return out


def coxeter_matrix(kind: str, n: int) -> dict[tuple[int, int], int]:
    """m_ij for generators 1..rank: S_n chain; B_n with the 4-bond at the
    special last node; D_n whose last node joins node n-2."""
    rank = n - 1 if kind == "A" else n
    m = {}
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            if kind == "D" and j == n:
                m[(i, j)] = 3 if i == n - 2 else 2
            elif kind == "B" and (i, j) == (n - 1, n):
                m[(i, j)] = 4
            else:
                m[(i, j)] = 3 if j == i + 1 else 2
    return m


def square_words(n: int) -> int:
    """Reduced words of the longest element of W(B_n): SYT of the n x n square."""
    return hook_count((n,) * n)


def staircase_words(n: int) -> int:
    """Reduced words of the longest element of S_n: SYT of the staircase."""
    return hook_count(tuple(range(n - 1, 0, -1)))


# ---- exact arithmetic ----


def poly(data) -> dict[int, int]:
    """A Laurent polynomial as {exponent: integer coefficient}."""
    return {int(e): int(c) for e, c in data}


def poly_add(acc: dict, p: dict, scale: dict | None = None) -> None:
    """acc += scale * p, dropping zero coefficients."""
    scale = scale or {0: 1}
    for e1, c1 in scale.items():
        for e2, c2 in p.items():
            e = e1 + e2
            c = acc.get(e, 0) + c1 * c2
            if c:
                acc[e] = c
            else:
                acc.pop(e, None)


def poly_at(p: dict, q0: Fraction) -> Fraction:
    return sum((Fraction(c) * q0**e for e, c in p.items()), Fraction(0))


def mat(data) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in data]


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def identity(d: int):
    return [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]


# ---- groupoid elements from `enumerate` ----


def domain_key(d) -> str:
    return json.dumps(d, sort_keys=True)


def element_key(source, target, perm) -> tuple:
    return (domain_key(source), domain_key(target), tuple(img * sign for img, sign in perm))


class Elements:
    """The enumerated elements, indexed as the program indexes its basis."""

    def __init__(self, doc):
        self.items = doc["elements"]
        self.keys = [element_key(e["source"], e["target"], e["perm"]) for e in self.items]
        self.index = {k: i for i, k in enumerate(self.keys)}
        self.by_source: dict[str, list[int]] = {}
        for i, k in enumerate(self.keys):
            self.by_source.setdefault(k[0], []).append(i)

    def compose(self, u: int, v: int) -> int | None:
        """Index of u*v (v applies first), None when the domains differ."""
        su, tu, pu = self.keys[u]
        sv, tv, pv = self.keys[v]
        if tv != su:
            return None
        perm = []
        for x in pv:
            y = pu[abs(x) - 1]
            perm.append(y if x > 0 else -y)
        return self.index.get((sv, tu, tuple(perm)), -1)


def check_enumerate(doc, kind: str, m: int, n: int) -> list[str]:
    errs = []
    order = family_order(kind, m, n)
    els = Elements(doc)
    if doc.get("count") != order or len(els.items) != order:
        errs.append(f"enumerate: {doc.get('count')} elements, closed form {order}")
    if len(els.index) != len(els.keys):
        errs.append("enumerate: repeated elements")
    identities = [e for e in els.items if e["length"] == 0]
    if len(identities) != domain_count(kind, m, n):
        errs.append(f"enumerate: {len(identities)} length-0 elements, expected one per domain")
    for e in identities:
        if e["source"] != e["target"] or any(
            p != [j + 1, 1] for j, p in enumerate(e["perm"])
        ):
            errs.append("enumerate: a length-0 element is not an identity")
            break
    return errs


# ---- structure constants ----


def _table(doc, scalar):
    return {
        (e["u"], e["v"]): {t["w"]: scalar(t["poly"]) for t in e["terms"]}
        for e in doc["entries"]
    }


def poly_table(doc) -> dict:
    return _table(doc, poly)


def eval_table(doc) -> dict:
    return _table(doc, Fraction)


def check_structconst_poly(doc, els: Elements, triples: list[tuple[int, int, int]]) -> list[str]:
    """Z[q] integrality, the q = 1 degeneration to the groupoid algebra, the
    zero pattern, and associativity on the given triples."""
    errs = []
    if doc.get("mode") != "poly":
        return [f"structconst: mode {doc.get('mode')!r}, expected poly"]
    basis = doc["basis"]
    if len(basis) != len(els.items):
        return [f"structconst: basis of {len(basis)}, enumerate gave {len(els.items)}"]
    for b, e in zip(basis, els.items):
        if b["base"] != e["source"] or len(b["letters"]) != e["length"]:
            return ["structconst: basis order differs from the enumerated elements"]
    table = poly_table(doc)
    expected_pairs = {
        (u, v) for v, kv in enumerate(els.keys) for u in els.by_source.get(kv[1], ())
    }
    if set(table) != expected_pairs:
        errs.append(
            f"structconst: {len(table)} nonzero products, "
            f"{len(expected_pairs)} composable pairs"
        )
    for (u, v), row in table.items():
        if any(e < 0 or c == 0 for p in row.values() for e, c in p.items()) or any(
            not p for p in row.values()
        ):
            errs.append(f"structconst: ({u},{v}) has a coefficient outside Z[q] or a zero term")
            break
        at_one = {w: sum(p.values()) for w, p in row.items()}
        at_one = {w: c for w, c in at_one.items() if c}
        if at_one != {els.compose(u, v): 1}:
            errs.append(f"structconst: ({u},{v}) at q = 1 is {at_one}, not f(u*v)")
            break
    for u, v, w in triples:
        lhs: dict[int, dict] = {}
        for x, c in table.get((u, v), {}).items():
            for y, d in table.get((x, w), {}).items():
                poly_add(lhs.setdefault(y, {}), d, c)
        rhs: dict[int, dict] = {}
        for y, c in table.get((v, w), {}).items():
            for z, d in table.get((u, y), {}).items():
                poly_add(rhs.setdefault(z, {}), d, c)
        lhs = {k: p for k, p in lhs.items() if p}
        rhs = {k: p for k, p in rhs.items() if p}
        if lhs != rhs:
            errs.append(f"structconst: (f{u} f{v}) f{w} != f{u} (f{v} f{w})")
            break
    return errs


def sample_triples(els: Elements, rng, count: int) -> list[tuple[int, int, int]]:
    """Random composable triples (u, v, w): w first, then v, then u."""
    out = []
    for _ in range(count):
        w = rng.randrange(len(els.keys))
        v = rng.choice(els.by_source[els.keys[w][1]])
        u = rng.choice(els.by_source[els.keys[v][1]])
        out.append((u, v, w))
    return out


def check_structconst_eval(doc, poly_doc, q0: Fraction) -> list[str]:
    """The eval table equals the poly table evaluated at q0, exactly."""
    if doc.get("mode") != "eval":
        return [f"structconst: mode {doc.get('mode')!r}, expected eval"]
    if doc["basis"] != poly_doc["basis"]:
        return ["structconst eval: basis differs from the poly table's"]
    ev = eval_table(doc)
    po = poly_table(poly_doc)
    for key in set(ev) | set(po):
        want = {w: poly_at(p, q0) for w, p in po.get(key, {}).items()}
        want = {w: c for w, c in want.items() if c}
        got = {w: c for w, c in ev.get(key, {}).items() if c}
        if got != want:
            return [f"structconst eval: row {key} differs from the poly row at q0 = {q0}"]
    return []


# ---- verify, words ----


def check_verify(doc, kind: str, m: int, n: int) -> list[str]:
    rank = {"A": m + n + 1}.get(kind, m + n)
    errs = []
    if not (doc["axioms_passed"] and doc["relations_passed"]):
        errs.append("verify: a check failed")
    if doc["axiom_failures"] or doc["relation_failures"]:
        errs.append("verify: failures listed")
    # every generator at every domain has its quadratic or isotropic relation
    if doc["relations_checked"] < domain_count(kind, m, n) * rank:
        errs.append(f"verify: only {doc['relations_checked']} relation instances")
    return errs


def b_generator(i: int, n: int) -> tuple[int, ...]:
    """W(B_n) generators as signed images of e_1..e_n: s_i swaps i, i+1 and
    s_n negates the last coordinate."""
    img = list(range(1, n + 1))
    if i < n:
        img[i - 1], img[i] = img[i], img[i - 1]
    else:
        img[n - 1] = -n
    return tuple(img)


def apply_word(letters, gens: dict[int, tuple[int, ...]], n: int) -> tuple[int, ...]:
    cur = tuple(range(1, n + 1))
    for letter in reversed(letters):
        g = gens[letter]
        cur = tuple(g[abs(x) - 1] * (1 if x > 0 else -1) for x in cur)
    return cur


def check_words_longest_b(doc, n: int) -> list[str]:
    """The longest element of W(B_n) is -1; its reduced words are the SYT of
    the n x n square, all braid-connected."""
    errs = []
    gens = {i: b_generator(i, n) for i in range(1, n + 1)}
    longest = tuple(-j for j in range(1, n + 1))
    perm = tuple(img * sign for img, sign in doc["element"]["perm"])
    if perm != longest or doc["length"] != n * n or not doc["reduced"]:
        errs.append("words: the word is not the reduced longest element")
    words = [tuple(w["letters"]) for w in doc["reduced_words"]]
    if len(words) != square_words(n) or len(set(words)) != len(words):
        errs.append(f"words: {len(words)} reduced words, hook-length count {square_words(n)}")
    for ls in words:
        if len(ls) != n * n or apply_word(ls, gens, n) != longest:
            errs.append(f"words: {ls} is not a reduced word of the longest element")
            break
    if tuple(doc["canonical_word"]["letters"]) not in set(words):
        errs.append("words: the canonical word is not among the reduced words")
    if doc["braid_connected"] is not True:
        errs.append("words: reduced words reported not braid-connected")
    return errs


# ---- representations ----


def check_reps(doc, kind: str, m: int, n: int) -> list[str]:
    """Basis rank = sum of squares = |W \\ 0|, summands of dimension
    (domain count) * dim(left) * dim(right)."""
    errs = []
    order = family_order(kind, m, n)
    left, right = factor_types(kind, m, n)
    dcount = domain_count(kind, m, n)
    expected = sorted(
        dcount * a * b for a in irrep_dims(*left).values() for b in irrep_dims(*right).values()
    )
    if doc["passed"] is not True or doc["relation_failures"]:
        errs.append("reps: the report does not pass")
    if sorted(doc["summand_dims"]) != expected:
        errs.append(f"reps: summand dimensions {sorted(doc['summand_dims'])}, expected {expected}")
    squares = sum(d * d for d in doc["summand_dims"])
    if not (doc["basis_rank"] == squares == order == doc["dim_formula"]):
        errs.append(
            f"reps: basis rank {doc['basis_rank']}, sum of squares {squares}, closed form {order}"
        )
    return errs


def hecke_relation_errors(gens, kind: str, n: int, q0: Fraction) -> list[str]:
    """(T - q0)(T + 1) = 0 for every generator and the braid relations."""
    if not gens:
        return []
    d = len(gens[0])
    one = identity(d)
    for k, t in enumerate(gens, start=1):
        lhs = mat_mul(
            [[x - q0 * e for x, e in zip(r, ro)] for r, ro in zip(t, one)],
            [[x + e for x, e in zip(r, ro)] for r, ro in zip(t, one)],
        )
        if any(any(row) for row in lhs):
            return [f"generator {k} fails (T - q)(T + 1) = 0"]
    for (i, j), mij in coxeter_matrix(kind, n).items():
        a, b = one, one
        for step in range(mij):
            a = mat_mul(a, gens[i - 1] if step % 2 == 0 else gens[j - 1])
            b = mat_mul(b, gens[j - 1] if step % 2 == 0 else gens[i - 1])
        if a != b:
            return [f"braid relation ({i},{j}) of length {mij} fails"]
    return []


def check_oracle(doc, kind: str, n: int) -> list[str]:
    """Components match the (bi)partition dimensions, each multiplicity equals
    its dimension, sum of squares = |W|, and every component satisfies the
    Hecke relations."""
    errs = []
    q0 = Fraction(doc["q"])
    comps = doc["components"]
    rank = n - 1 if kind == "A" else n
    dims = sorted(c["dim"] for c in comps)
    expected = sorted(irrep_dims(kind, n).values())
    if dims != expected:
        errs.append(f"oracle: component dimensions {dims}, expected {expected}")
    if any(c["multiplicity"] != c["dim"] for c in comps):
        errs.append("oracle: a multiplicity differs from its dimension")
    if sum(c["dim"] ** 2 for c in comps) != weyl_order(kind, n):
        errs.append("oracle: sum of squares is not |W|")
    for c in comps:
        gens = [mat(g) for g in c["generators"]]
        if len(gens) != rank and c["dim"] > 0:
            errs.append(f"oracle: {len(gens)} generator matrices, rank {rank}")
            break
        if any(len(g) != c["dim"] for g in gens):
            errs.append("oracle: a generator matrix has the wrong size")
            break
        errs += hecke_relation_errors(gens, kind, n, q0)
    return errs


def _label_key(kind: str, label):
    if kind == "A":
        return tuple(label)
    if kind == "B":
        return tuple(tuple(x) for x in label)
    pair, tag = label
    return (tuple(sorted(tuple(x) for x in pair)), tag)


def check_irreps(doc, kind: str, n: int) -> list[str]:
    """Seminormal irreducibles: the labels and dimensions of the closed form,
    and the Hecke relations."""
    errs = []
    q0 = Fraction(doc["q"])
    expected = irrep_dims(kind, n)
    got = {_label_key(kind, r["label"]): r["dim"] for r in doc["irreps"]}
    if got != expected or len(doc["irreps"]) != len(expected):
        errs.append("irreps: labels or dimensions differ from the closed form")
    for r in doc["irreps"]:
        errs += hecke_relation_errors([mat(g) for g in r["generators"]], kind, n, q0)
    return errs
