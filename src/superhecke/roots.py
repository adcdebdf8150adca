"""Multi-domains root systems for the three families.

For every domain a the system carries simple roots alpha_{i,a}, a positive
root set R+_a, and reflections sigma_{i,a}; the reflections are stored as
signed permutations of the coordinate axes, which is exact and fast (every
reflection in these families permutes the +-epsilon basis).

The seven defining axioms of a multi-domains root system can be checked
exhaustively with check_axioms(); a deliberately corrupted system is rejected
with a witness.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .domains import (
    Domain,
    Family,
    act,
    domain_sort_key,
    domain_str,
    domain_to_json,
    enumerate_domains,
)
from .linalg import int_coordinates, rank_exact

Root = tuple[int, ...]
SignedPerm = tuple[int, ...]  # smap[j] = +-(k+1): epsilon_j -> sign * epsilon_k (0-based j, k)


def sp_identity(r: int) -> SignedPerm:
    return tuple(range(1, r + 1))


def sp_compose(f: SignedPerm, g: SignedPerm) -> SignedPerm:
    """Composite f o g (g applied first)."""
    out = []
    for v in g:
        w = f[abs(v) - 1]
        out.append(w if v > 0 else -w)
    return tuple(out)


def sp_invert(f: SignedPerm) -> SignedPerm:
    out = [0] * len(f)
    for j, v in enumerate(f):
        k = abs(v) - 1
        out[k] = (j + 1) if v > 0 else -(j + 1)
    return tuple(out)


def sp_apply(f: SignedPerm, root: Root) -> Root:
    out = [0] * len(root)
    for j, c in enumerate(root):
        if c:
            v = f[j]
            k = abs(v) - 1
            out[k] += c if v > 0 else -c
    return tuple(out)


def reflection_for_root(alpha: Root, r: int) -> SignedPerm:
    """Orthogonal reflection in alpha, for the root shapes of these families."""
    nz = [(i, c) for i, c in enumerate(alpha) if c]
    imgs = list(range(1, r + 1))
    if len(nz) == 1:
        i, _ = nz[0]
        imgs[i] = -(i + 1)
    elif len(nz) == 2:
        (i, ci), (j, cj) = nz
        if abs(ci) != abs(cj):
            raise ValueError(f"unsupported root shape {alpha}")
        if ci * cj < 0:
            imgs[i], imgs[j] = j + 1, i + 1
        else:
            imgs[i], imgs[j] = -(j + 1), -(i + 1)
    else:
        raise ValueError(f"unsupported root shape {alpha}")
    return tuple(imgs)


def _ratio(v: Root, alpha: Root) -> Fraction | None:
    """The rational r with v = r alpha, or None if there is none; alpha is
    nonzero."""
    ratio = None
    for x, a in zip(v, alpha):
        if a == 0:
            if x:
                return None
            continue
        r = Fraction(x, a)
        if ratio is None:
            ratio = r
        elif r != ratio:
            return None
    return ratio


def _nonzero_minor(u: Root, v: Root) -> tuple[int, int] | None:
    """Columns r < s with u[r] v[s] != u[s] v[r]; None if u, v are dependent."""
    pairs = ((r, s) for r in range(len(u)) for s in range(r + 1, len(u)))
    return next(((r, s) for r, s in pairs if u[r] * v[s] != u[s] * v[r]), None)


def _unit(r: int, i: int, c: int = 1) -> Root:
    v = [0] * r
    v[i - 1] = c
    return tuple(v)


class AxiomFailure(NamedTuple):
    axiom: int
    description: str


class AxiomReport(NamedTuple):
    family: Family
    passed: bool
    failures: list[AxiomFailure]


class RootSystem:
    """Root data of one family: simple roots, positive roots, reflections."""

    def __init__(self, family: Family):
        self.family = family
        self.domains = enumerate_domains(family)
        self.rank = family.rank
        self.dim = family.space_dim
        # the root data is built on first use, so a run the element cap
        # declines builds none of it
        self._simple: dict[tuple[int, Domain], Root] = {}
        self._reflection: dict[tuple[int, Domain], SignedPerm] = {}
        self._positive: dict[Domain | None, frozenset[Root]] = {}
        self._coxeter: dict[tuple[int, int, Domain], int] = {}

    # ---- construction ----

    def _build_positive(self, a: Domain) -> list[Root]:
        fam = self.family
        r = self.dim
        roots: list[Root] = []
        if fam.kind == "A":
            for i in range(1, r + 1):
                for j in range(i + 1, r + 1):
                    v = [0] * r
                    v[i - 1], v[j - 1] = 1, -1
                    roots.append(tuple(v))
            return roots
        for i in range(1, r + 1):
            for j in range(i + 1, r + 1):
                for s in (-1, 1):
                    v = [0] * r
                    v[i - 1], v[j - 1] = 1, s
                    roots.append(tuple(v))
        if fam.kind == "B":
            for i in range(1, r + 1):
                roots.append(_unit(r, i))
        else:
            # R+_a is the N0-cone of pi_a inside R_a; at a C- tagged domain the
            # last simple root is -2*eps_l, so that sign is the positive one.
            p = a.parities
            for k in range(1, r + 1):
                if p[k - 1] == 1:
                    if a.tag == "C-" and k == r:
                        roots.append(_unit(r, k, -2))
                    else:
                        roots.append(_unit(r, k, 2))
        return roots

    def _build_simple(self, i: int, a: Domain) -> Root:
        fam = self.family
        r = self.dim
        l = fam.rank
        if fam.kind == "A":
            v = [0] * r
            v[i - 1], v[i] = 1, -1
            return tuple(v)
        if fam.kind == "B":
            if i <= l - 1:
                v = [0] * r
                v[i - 1], v[i] = 1, -1
                return tuple(v)
            return _unit(r, l)
        tag = a.tag
        if (tag in ("D", "C+") and i <= l - 1) or (tag == "C-" and i <= l - 2):
            v = [0] * r
            v[i - 1], v[i] = 1, -1
            return tuple(v)
        if tag == "D" and i == l:
            v = [0] * r
            v[l - 2], v[l - 1] = 1, 1
            return tuple(v)
        if tag == "C+" and i == l:
            return _unit(r, l, 2)
        if tag == "C-" and i == l - 1:
            return _unit(r, l, -2)
        if tag == "C-" and i == l:
            v = [0] * r
            v[l - 2], v[l - 1] = 1, 1
            return tuple(v)
        raise AssertionError(f"no simple root for ({i}, {a})")

    # ---- queries ----

    def simple_root(self, i: int, a: Domain) -> Root:
        alpha = self._simple.get((i, a))
        if alpha is None:
            alpha = self._simple[i, a] = self._build_simple(i, a)
        return alpha

    def reflection(self, i: int, a: Domain) -> SignedPerm:
        sig = self._reflection.get((i, a))
        if sig is None:
            sig = self._reflection[i, a] = reflection_for_root(self.simple_root(i, a), self.dim)
        return sig

    def positive_roots(self, a: Domain) -> frozenset[Root]:
        # in families A and B every domain has the same positive roots
        key = a if self.family.kind == "CD" else None
        pos = self._positive.get(key)
        if pos is None:
            pos = self._positive[key] = frozenset(self._build_positive(a))
        return pos

    def coxeter_entry(self, i: int, j: int, a: Domain) -> int:
        """|(N0 alpha_i + N0 alpha_j) cap R_a|, counted over the finite set R_a."""
        if i == j:
            raise ValueError("coxeter_entry needs i != j")
        key = (min(i, j), max(i, j), a)
        cached = self._coxeter.get(key)
        if cached is not None:
            return cached
        ai, aj = self.simple_root(i, a), self.simple_root(j, a)
        # coordinates in (alpha_i, alpha_j) by Cramer's rule on a nonzero 2 x 2
        # minor, then checked on every entry
        minor = _nonzero_minor(ai, aj)
        if minor is None:
            raise ValueError(f"alpha_{i} and alpha_{j} are dependent at a={domain_str(a)}")
        r, s = minor
        det = ai[r] * aj[s] - ai[s] * aj[r]
        count = 0
        for pos in self.positive_roots(a):
            for beta in (pos, tuple(-c for c in pos)):
                c1, x = divmod(beta[r] * aj[s] - beta[s] * aj[r], det)
                c2, y = divmod(ai[r] * beta[s] - ai[s] * beta[r], det)
                if x == y == 0 and c1 >= 0 and c2 >= 0 and beta == tuple(
                    c1 * u + c2 * v for u, v in zip(ai, aj)
                ):
                    count += 1
        self._coxeter[key] = count
        return count

    def theta(self, i: int, j: int, a: Domain) -> int:
        """Size of the two-generator orbit, via the alternating-word recursion."""
        if i == j:
            raise ValueError("theta needs i != j")
        fam = self.family
        am, bm = a, a
        for step in range(1, 4 * len(self.domains) + 4):
            am, bm = act(fam, i, bm), act(fam, j, am)
            if am == bm:
                return step
        raise AssertionError("theta recursion did not terminate at desk scale")

    # ---- axiom checking ----

    def check_axioms(self) -> AxiomReport:
        fam = self.family
        failures: list[AxiomFailure] = []

        def fail(axiom: int, msg: str):
            failures.append(AxiomFailure(axiom, msg))

        # (1) transitive involutive action
        seen = {self.domains[0]}
        frontier = [self.domains[0]]
        while frontier:
            nxt = []
            for a in frontier:
                for i in range(1, self.rank + 1):
                    b = act(fam, i, a)
                    if act(fam, i, b) != a:
                        fail(1, f"action not involutive at i={i}, a={domain_str(a)}")
                    if b not in seen:
                        seen.add(b)
                        nxt.append(b)
            frontier = nxt
        if seen != set(self.domains):
            fail(1, "action is not transitive on the domain set")

        for a in self.domains:
            pos = self.positive_roots(a)
            pi = [self.simple_root(i, a) for i in range(1, self.rank + 1)]
            # (2) simple roots lie in R+_a and form a basis of V0
            for i, alpha in enumerate(pi, start=1):
                if alpha not in pos and tuple(-c for c in alpha) not in pos:
                    fail(2, f"alpha_{i} not in R_a at a={domain_str(a)}")
            expected_rank = self.rank if fam.kind != "A" else self.dim - 1
            if rank_exact(pi) != expected_rank:
                fail(2, f"simple roots not independent at a={domain_str(a)}")
            # (3) every positive root is a nonnegative integer combination of pi
            for beta in pos:
                if not self._in_nonneg_cone(beta, pi):
                    fail(3, f"{beta} not in N0-cone of pi at a={domain_str(a)}")
            # (4) R alpha cap R_a = {alpha, -alpha}
            for i, alpha in enumerate(pi, start=1):
                for beta in pos:
                    if _ratio(beta, alpha) is not None and beta not in (
                        alpha,
                        tuple(-c for c in alpha),
                    ):
                        fail(4, f"extra multiple {beta} of alpha_{i} at a={domain_str(a)}")
            for i in range(1, self.rank + 1):
                b = act(fam, i, a)
                sig = self.reflection(i, a)
                # (5) sigma maps R_a onto R_b, negates alpha_i, shifts the others
                image = {sp_apply(sig, beta) for beta in pos}
                target = set(self.positive_roots(b)) | {
                    tuple(-c for c in beta) for beta in self.positive_roots(b)
                }
                if not image <= target or len(image) != len(pos):
                    fail(5, f"sigma_{i} does not map R_a to R_b at a={domain_str(a)}")
                alpha_ia = self.simple_root(i, a)
                alpha_ib = self.simple_root(i, b)
                if sp_apply(sig, alpha_ia) != tuple(-c for c in alpha_ib):
                    fail(
                        5,
                        f"sigma_{i}(alpha_{i}) != -alpha_{i} across a={domain_str(a)}",
                    )
                for j in range(1, self.rank + 1):
                    if j == i:
                        continue
                    img = sp_apply(sig, self.simple_root(j, a))
                    diff = tuple(
                        x - y for x, y in zip(img, self.simple_root(j, b))
                    )
                    r = _ratio(diff, alpha_ib)
                    if r is None or r.denominator != 1 or r < 0:
                        fail(
                            5,
                            f"sigma_{i}(alpha_{j}) not in alpha_{j} + N0 alpha_{i} "
                            f"at a={domain_str(a)}",
                        )
                # (6) sigma_{i, i>a} sigma_{i, a} = id
                sig_back = self.reflection(i, b)
                if sp_compose(sig_back, sig) != sp_identity(self.dim):
                    fail(6, f"sigma_{i} not involutive across a={domain_str(a)}")
                # (7) theta divides the coxeter entry
                for j in range(1, self.rank + 1):
                    if j <= i:
                        continue
                    if _nonzero_minor(alpha_ia, self.simple_root(j, a)) is None:
                        fail(7, f"alpha_{i} and alpha_{j} are dependent at a={domain_str(a)}")
                        continue
                    d = self.coxeter_entry(i, j, a)
                    th = self.theta(i, j, a)
                    if d % th:
                        fail(
                            7,
                            f"theta={th} does not divide m={d} at "
                            f"(i,j)=({i},{j}), a={domain_str(a)}",
                        )
        return AxiomReport(fam, not failures, failures)

    def _in_nonneg_cone(self, beta: Root, pi: list[Root]) -> bool:
        """Whether beta = sum c_j pi_j with integers c_j >= 0: its
        coordinates over their denominator L must be multiples of L, and
        nonnegative."""
        den, (coeffs,) = int_coordinates(pi, [beta])
        return coeffs is not None and all(c >= 0 and c % den == 0 for c in coeffs)

    # ---- Dynkin diagrams ----

    def dynkin(self, a: Domain) -> "DynkinDiagram":
        fam = self.family
        nodes = []
        for i in range(1, self.rank + 1):
            crossed = act(fam, i, a) != a
            filled = (
                fam.kind == "B"
                and i == self.rank
                and a[self.rank - 1] == 1
            )
            nodes.append(DynkinNode(i, crossed, filled))
        edges = []
        for i in range(1, self.rank + 1):
            for j in range(i + 1, self.rank + 1):
                m = self.coxeter_entry(i, j, a)
                if m > 2:
                    edges.append((i, j, m))
        return DynkinDiagram(a, nodes, edges)

    def orbit_edges(self) -> list[tuple[Domain, Domain, int]]:
        """Edges of the domain-orbit graph, labelled by the moving generator."""
        edges = []
        for a in self.domains:
            for i in range(1, self.rank + 1):
                b = act(self.family, i, a)
                if b != a and domain_sort_key(a) < domain_sort_key(b):
                    edges.append((a, b, i))
        return edges


class DynkinNode(NamedTuple):
    index: int
    crossed: bool
    filled: bool


class DynkinDiagram(NamedTuple):
    domain: Domain
    nodes: list[DynkinNode]
    edges: list[tuple[int, int, int]]

    def to_json(self):
        return {
            "domain": domain_to_json(self.domain),
            "nodes": [
                {"index": n.index, "cross": n.crossed, "filled": n.filled}
                for n in self.nodes
            ],
            "edges": [{"i": i, "j": j, "m": m} for i, j, m in self.edges],
        }


@lru_cache(maxsize=None)
def root_system(family: Family) -> RootSystem:
    return RootSystem(family)


def dynkin_dot(family: Family) -> str:
    """DOT document: one graph per domain plus the domain-orbit graph."""
    rs = root_system(family)
    lines: list[str] = []
    tag = family.name().replace("(", "_").replace(")", "").replace(",", "_").replace("|", "_")
    diagrams = [rs.dynkin(a) for a in rs.domains]
    for idx, diag in enumerate(diagrams):
        lines.append(f"graph diagram_{idx} {{")
        lines.append(f'  label="{domain_str(diag.domain)}";')
        for n in diag.nodes:
            cross = "true" if n.crossed else "false"
            filled = "true" if n.filled else "false"
            lines.append(f'  n{n.index} [label="{n.index}", cross="{cross}", filled="{filled}"];')
        for i, j, m in diag.edges:
            lines.append(f'  n{i} -- n{j} [label="{m}"];')
        lines.append("}")
    lines.append(f"graph orbit_{tag} {{")
    index = {a: k for k, a in enumerate(rs.domains)}
    for k, diag in enumerate(diagrams):
        cross = ",".join(str(n.index) for n in diag.nodes if n.crossed)
        filled = ",".join(str(n.index) for n in diag.nodes if n.filled)
        lines.append(
            f'  a{k} [label="{domain_str(diag.domain)}", cross="{cross}", filled="{filled}"];'
        )
    for a, b, i in rs.orbit_edges():
        lines.append(f'  a{index[a]} -- a{index[b]} [label="{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def dynkin_json(family: Family):
    rs = root_system(family)
    return {
        "family": family._asdict(),
        "diagrams": [rs.dynkin(a).to_json() for a in rs.domains],
        "orbit_edges": [
            {"a": domain_to_json(a), "b": domain_to_json(b), "generator": i}
            for a, b, i in rs.orbit_edges()
        ],
    }
