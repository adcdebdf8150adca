"""Run one superhecke CLI operation in this process, with spans around the
calls it makes into the package's public functions.

    python3 perfbench/traced.py SPANS.json CLI-ARGS...
    python3 perfbench/traced.py SPANS.json oracle-setup KIND N Q0

The first form warms the cached layers one span at a time (domains, root
system, groupoid enumeration, canonical words), wraps the public functions
the command calls next, then runs `superhecke.cli.main` on CLI-ARGS inside a
`cli.main` span, so that span's self time is the CLI's own parsing, encoding
and writing.  Poly-mode `structconst` is followed by a probe span that
evaluates every coefficient of the table at q0 = 2.

The second form is the oracle workload's set-up: the import with sympy and
the regular-module matrices of one classical type; when traced, it adds
probe spans for the two elimination paths of `linalg` on those matrices.

Spans (name, start, end, parent) and counters stay in memory and are
written to SPANS.json when the process ends; SPANS.json "-" records
nothing.  The exit code is the command's.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from superhecke import cli, superreps, weylreps
from superhecke.domains import Family, enumerate_domains
from superhecke.groupoid import CoxeterGroupoid, groupoid_for
from superhecke.hecke import HeckeAlgebra, hecke_poly
from superhecke.linalg import nullspace, rank_exact
from superhecke.roots import RootSystem, root_system
from superhecke.weylgroups import WeylType, hecke_regular_matrices

# spans of work the benchmark adds; the tracing overhead excludes them
PROBES = ("scalars.evaluate", "linalg.rank", "linalg.nullspace")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def count(self, name: str, k: int):
        self.counters[name] = self.counters.get(name, 0) + k

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def wrap(self, owner, attr: str, name, counter=None):
        """Replace owner.attr by a wrapper that opens a span per call.

        name is a span name or a function of the call's arguments; counter,
        if given, is called with the tracer and the call's result."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name(*args) if callable(name) else name):
                out = fn(*args, **kwargs)
            if counter is not None:
                counter(self, out)
            return out

        setattr(owner, attr, wrapper)

    def dump(self, path: str):
        probe_s = sum(end - start for name, start, end, _ in self.spans if name in PROBES)
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters, "probe_s": probe_s}, fh)


def _install(tr: Tracer):
    """Spans around the public calls the CLI makes after the cached layers."""

    def words_count(t, out):
        if not t.inside("groupoid.braid_connected"):
            t.count("groupoid.reduced_words", len(out))

    tr.wrap(
        HeckeAlgebra,
        "structure_constants",
        lambda alg: "hecke.structconst" if alg.mode == "poly" else "hecke.structconst_eval",
    )
    tr.wrap(HeckeAlgebra, "structure_constants_json", "hecke.encode")
    tr.wrap(
        HeckeAlgebra,
        "verify_presentation",
        "hecke.presentation",
        lambda t, rep: t.count("hecke.relations", rep.checked),
    )
    tr.wrap(RootSystem, "check_axioms", "roots.axioms")
    tr.wrap(CoxeterGroupoid, "all_reduced_words", "groupoid.reduced_words", words_count)
    tr.wrap(CoxeterGroupoid, "braid_connected", "groupoid.braid_connected")
    tr.wrap(
        cli,
        "verify_isomorphism",
        "superreps.verify",
        lambda t, rep: t.count("superreps.basis_rank", rep.basis_rank),
    )
    tr.wrap(
        superreps,
        "big_map",
        "superreps.big_map",
        lambda t, bm: t.count("superreps.summands", len(bm.summands)),
    )
    tr.wrap(superreps, "verify_block_rep", "superreps.relations")
    tr.wrap(superreps, "irreps", "weylreps.irreps")
    tr.wrap(cli, "irreps", "weylreps.irreps")
    tr.wrap(
        cli,
        "split_regular_weyl",
        "weylreps.split",
        lambda t, comps: t.count("weylreps.components", len(comps)),
    )
    tr.wrap(weylreps, "hecke_regular_matrices", "weylgroups.regular")


def _warm_family(tr: Tracer, args):
    fam = Family(args.family, args.m, args.n)
    with tr.span("domains.enumerate"):
        enumerate_domains(fam)
    with tr.span("roots.build"):
        root_system(fam)
    G = groupoid_for(fam)
    with tr.span("groupoid.enumerate"):
        els = G.elements()
    tr.count("groupoid.elements", len(els))
    if args.command in ("structconst", "verify", "reps"):
        with tr.span("groupoid.canonical_words"):
            for w in els:
                G.canonical_reduced_word(w)
    return fam


def _evaluate_probe(tr: Tracer, fam: Family):
    """LaurentPoly.evaluate over every coefficient of the poly table."""
    table = hecke_poly(fam).structure_constants()
    tr.count("hecke.entries", len(table))
    coeffs = [c for row in table.values() for _, c in row]
    q0 = Fraction(2)
    with tr.span("scalars.evaluate"):
        for c in coeffs:
            c.evaluate(q0)
    tr.count("scalars.terms", sum(len(c.items()) for c in coeffs))


def run_cli(tr: Tracer, argv: list[str]) -> int:
    args = cli.build_parser().parse_args(argv)
    fam = _warm_family(tr, args) if hasattr(args, "family") else None
    _install(tr)
    with tr.span("cli.main"):
        rc = cli.main(argv)
        sys.stdout.flush()
    if rc == 0 and args.command == "structconst" and args.scalar == "poly":
        _evaluate_probe(tr, fam)
    return rc


def oracle_setup(tr: Tracer | None, kind: str, n: int, q0: str) -> int:
    import sympy  # noqa: F401  (the oracle's factorisation backend)

    q = Fraction(q0)
    if tr is None:
        hecke_regular_matrices(WeylType(kind, n), q)
        return 0
    with tr.span("weylgroups.regular"):
        lefts, rights = hecke_regular_matrices(WeylType(kind, n), q)
    mats = lefts + rights
    shifted = [[[x - q if i == j else x for j, x in enumerate(row)] for i, row in enumerate(m)] for m in mats]
    with tr.span("linalg.rank"):
        for m in mats:
            rank_exact(m)
    with tr.span("linalg.nullspace"):
        for m in shifted:
            nullspace(m)
    return 0


def main(argv: list[str]) -> int:
    path, rest = argv[0], argv[1:]
    tr = None if path == "-" else Tracer()
    if rest[0] == "oracle-setup":
        rc = oracle_setup(tr, rest[1], int(rest[2]), rest[3])
    elif tr is None:
        rc = cli.main(rest)
    else:
        rc = run_cli(tr, rest)
    if tr is not None:
        tr.dump(path)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
