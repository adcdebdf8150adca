"""Command-line front end.

Subcommands expose every capability with machine-readable output: domains,
dynkin, enumerate, dim, words, verify, structconst, poincare, irreps, reps,
verify-all.  Each subcommand computes its JSON document and its text, and
one writer puts one of them on stdout or --output: the JSON, schema version
first, under --format json or when there is no text, else the text;
structconst alone streams its table as it is encoded.  Output is
deterministic for fixed flags and seed.  Exit codes:
0 success, 1 verification failure, 2 invalid arguments, or a run the
program declines (element cap, oracle budget), 141 (128 + SIGPIPE) when the
reader closes the output pipe early.  Past argparse, exit 2 has one path: a
UsageError, printed as one "error:" line.  Any other exception is a fault
of the program and ends in a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction

from .domains import (
    Family,
    UsageError,
    domain_from_json,
    domain_str,
    domain_to_json,
    enumerate_domains,
)
from .groupoid import (
    CoxeterGroupoid,
    Word,
    dimension_formula,
    element_to_json,
    groupoid_for,
    word_to_json,
)
from .hecke import HeckeAlgebra, hecke_poly
from .roots import dynkin_dot, dynkin_json, root_system
from .scalars import laurent_to_json, rational_to_string
from .superreps import iso_report_json, require_semisimple, verify_isomorphism
from .weylgroups import WeylType, is_semisimple, poincare
from .weylreps import irreps, split_regular_weyl


# the --max-elements default: the only cap on groupoid enumeration
MAX_ELEMENTS = 500_000


def _parse_family(args) -> Family:
    """The family named by --family/--m/--n, after every shared input check."""
    kind = args.family
    m, n = args.m, args.n
    if kind == "C":
        # C(n) = osp(2|2(n-1)) is the CD family at m = 1
        if m is not None:
            raise UsageError("--family C takes no --m: C(n) is the CD family at m = 1")
        if n is None or n < 2:
            raise UsageError("--family C needs --n >= 2 (C(n) with n >= 2)")
        family = Family("CD", 1, n - 1)
    else:
        if m is None or n is None:
            raise UsageError("--m and --n are required")
        family = Family(kind, m, n)
    if getattr(args, "scalar", "poly") == "eval" and args.q == 0:
        raise UsageError("eval mode needs q0 != 0")
    return family


def _capped_groupoid(args, fam: Family) -> CoxeterGroupoid:
    """The family's groupoid, counted under --max-elements before any other
    work, so a family past the cap fails fast with exit 2."""
    G = groupoid_for(fam)
    G.order(args.max_elements)
    return G


@contextmanager
def _writer(args):
    """The write function of --output, or of stdout.  An --output that
    cannot be opened is a usage error."""
    if getattr(args, "output", None):
        try:
            fh = open(args.output, "w")
        except OSError as exc:
            raise UsageError(f"cannot write --output {args.output}: {exc.strerror}") from None
        with fh:
            yield fh.write
    else:
        yield sys.stdout.write


# what a subcommand returns to main: its exit code, its JSON document
# without the schema version (or None) and its text output (or None)
Output = tuple[int, dict | None, str | None]


def _json_dump(doc: dict) -> str:
    """A command's document as the CLI writes it: the schema version first."""
    return json.dumps({"schema_version": 1, **doc}, indent=2, sort_keys=False) + "\n"


def cmd_domains(args) -> Output:
    fam = _parse_family(args)
    doms = enumerate_domains(fam)
    doc = {
        "family": fam._asdict(),
        "count": len(doms),
        "domains": [domain_to_json(a) for a in doms],
    }
    lines = [domain_str(a) for a in doms]
    return 0, doc, "\n".join(lines + [f"count: {len(doms)}"]) + "\n"


def cmd_dynkin(args) -> Output:
    fam = _parse_family(args)
    if args.format == "json":
        return 0, dynkin_json(fam), None
    if args.format == "dot":
        return 0, None, dynkin_dot(fam)
    rs = root_system(fam)
    lines = []
    for a in rs.domains:
        diag = rs.dynkin(a)
        cross = ",".join(str(n.index) for n in diag.nodes if n.crossed)
        filled = ",".join(str(n.index) for n in diag.nodes if n.filled)
        edges = " ".join(f"{i}-{j}:{m}" for i, j, m in diag.edges)
        lines.append(f"{domain_str(a)} cross=[{cross}] filled=[{filled}] edges: {edges}")
    return 0, None, "\n".join(lines) + "\n"


def cmd_enumerate(args) -> Output:
    fam = _parse_family(args)
    G = groupoid_for(fam)
    els = G.elements(args.max_elements)
    doc = None
    if args.format == "json":
        length = G.tables().length
        doc = {
            "family": fam._asdict(),
            "count": len(els),
            "elements": [
                {**element_to_json(w), "length": length[k]} for k, w in enumerate(els)
            ],
        }
    return 0, doc, f"{len(els)}\n"


def cmd_dim(args) -> Output:
    fam = _parse_family(args)
    G = groupoid_for(fam)
    count = G.order(args.max_elements)
    formula = dimension_formula(fam)
    doc = {
        "family": fam._asdict(),
        "dimension": count,
        "formula": formula,
        "match": count == formula,
    }
    return 0 if count == formula else 1, doc, f"{count}\n"


def cmd_words(args) -> Output:
    fam = _parse_family(args)
    G = groupoid_for(fam)
    word = _parse_word(G, args)
    w = G.evaluate(word)
    canonical = G.canonical_reduced_word(w)
    length = len(canonical.letters)
    doc = {
        "word": word_to_json(word),
        "element": element_to_json(w),
        "length": length,
        "reduced": length == len(word.letters),
        "canonical_word": word_to_json(canonical),
        "reduced_words": [word_to_json(u) for u in G.all_reduced_words(w)],
        "braid_connected": G.braid_connected(w),
    }
    text = (
        f"length {doc['length']} reduced {doc['reduced']} "
        f"#reduced_words {len(doc['reduced_words'])} "
        f"braid_connected {doc['braid_connected']}\n"
    )
    return 0, doc, text


def _parse_word(G: CoxeterGroupoid, args) -> Word:
    """--base and --letters, checked against the family's domains and rank."""
    fam = G.family
    try:
        base = domain_from_json(fam, json.loads(args.base))
    except (ValueError, TypeError, KeyError, RecursionError):  # RecursionError: nested too deep
        base = None
    if base not in G.domain_index:
        raise UsageError(f"--base {args.base} is not a domain of {fam.name()}")
    try:
        # "" is the empty word; an empty item anywhere else is a typo
        letters = tuple(int(x) for x in args.letters.split(",")) if args.letters else ()
    except ValueError:
        raise UsageError(f"--letters {args.letters!r} is not a comma-separated list of integers")
    for x in letters:
        if not 1 <= x <= fam.rank:
            raise UsageError(f"--letters: generator {x} is outside 1..{fam.rank} for {fam.name()}")
    return Word(base, letters)


def cmd_verify(args) -> Output:
    fam = _parse_family(args)
    _capped_groupoid(args, fam)
    axioms = root_system(fam).check_axioms()
    # the relations hold over Z[q, q^-1], so at every q0 != 0 as well: the
    # proof is the same for --scalar eval
    pres = hecke_poly(fam).verify_presentation()
    doc = {
        "family": fam._asdict(),
        "axioms_passed": axioms.passed,
        "axiom_failures": [f.description for f in axioms.failures],
        "relations_checked": pres.checked,
        "relations_passed": pres.passed,
        "relation_failures": pres.failures,
    }
    ok = axioms.passed and pres.passed
    text = ("PASS" if ok else "FAIL") + f" ({pres.checked} relation instances)\n"
    return 0 if ok else 1, doc, text


def cmd_structconst(args) -> Output:
    fam = _parse_family(args)
    _capped_groupoid(args, fam)
    with _writer(args) as write:
        _write_structconst(hecke_poly(fam), write, args.q if args.scalar == "eval" else None)
    return 0, None, None


# The structure-constant document as json.dumps(indent=2) lays it out: basis
# items and entries at depth 2, a basis item's "base" at depth 3 and its
# letters at depth 4, an entry's terms at depth 4 and "poly" values at 5.
_HEAD = (
    '{\n  "schema_version": 1,\n  "family": %s,\n  "mode": %s,\n'
    '  "basis": [\n%s\n  ],\n  "entries": [\n'
)
_BASIS_ITEM = '    {\n      "base": %s,\n      "letters": %s\n    }'
_ENTRY_HEAD = '    {\n      "u": %d,\n      "v": '
_ROW_HEAD = ',\n      "terms": [\n'
_TERM_HEAD = '        {\n          "w": '
_TERM_TAIL = ',\n          "poly": %s\n        }'
_ROW_TAIL = "\n      ]\n    }"
_TAIL = "\n  ]\n}\n"
# the writer writes once it holds this many entries, about a megabyte
_CHUNK = 1000


def _indented(value, depth: int) -> str:
    """json.dumps(value, indent=2) as it sits at the given depth."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def _structconst_head(alg: HeckeAlgebra, mode: str) -> str:
    """The document up to its first entry: alg.structconst_header() with
    the mode, as _json_dump lays it out, from templates.  Only the family and
    the few domains go through json.dumps; letters are integers."""
    T = alg.tables
    bases = [_indented(domain_to_json(d), 3) for d in alg.groupoid.roots.domains]
    items = []
    for k, a in enumerate(T.src):
        letters = ",\n        ".join(map(str, T.canonical_letters(k)))
        text = f"[\n        {letters}\n      ]" if letters else "[]"
        items.append(_BASIS_ITEM % (bases[a], text))
    return _HEAD % (_indented(alg.family._asdict(), 1), json.dumps(mode), ",\n".join(items))


def _write_structconst(alg: HeckeAlgebra, write, q0: Fraction | None = None) -> None:
    """The structure-constant document, byte for byte as _json_dump of
    alg.structure_constants_json(), written _CHUNK entries at a time as it
    is encoded.  Each coefficient id is encoded once, into the text that
    follows a term's "w", and each distinct row once, into the text that
    follows an entry's "v".  The table is never empty: it holds the identity
    rows.  With q0, mode "eval", it is specialised at q0, without the terms
    that vanish there (at q0 = 1)."""
    table = alg.structure_constants()
    # coefficient id -> the text after a term's "w", or None if it vanishes at q0
    tails: list[str | None] = []
    for c in table.polys:
        if q0 is None:
            text = _indented(laurent_to_json(c), 5)
        else:
            x = c.evaluate(q0)
            text = json.dumps(rational_to_string(x)) if x else None
        tails.append(None if text is None else _TERM_TAIL % text)
    # row id -> the text after an entry's "v"
    texts = [
        _ROW_HEAD
        + ",\n".join([_TERM_HEAD + str(w) + tails[c] for w, c in row if tails[c] is not None])
        + _ROW_TAIL
        for row in table.rows
    ]
    # what goes before the next written entry: the head, then a separator
    before = _structconst_head(alg, alg.mode if q0 is None else "eval")
    chunk: list[str] = []
    for u, ids in enumerate(table.ids):
        head = _ENTRY_HEAD % u
        for v, k in zip(table.partners(u), ids):
            if k:
                chunk.append(f"{head}{v}{texts[k]}")
                if len(chunk) >= _CHUNK:
                    write(before + ",\n".join(chunk))
                    before = ",\n"
                    chunk.clear()
    write(before + ",\n".join(chunk) + _TAIL if chunk else _TAIL)


def cmd_poincare(args) -> Output:
    wt = WeylType(args.type, args.n)
    if args.q is None:
        p = poincare(wt)
        return 0, {"type": wt._asdict(), "poincare": laurent_to_json(p)}, f"{p}\n"
    q0 = args.q
    val = rational_to_string(poincare(wt, q0))
    doc = {
        "type": wt._asdict(),
        "q": rational_to_string(q0),
        "value": val,
        "semisimple": is_semisimple(wt, q0),
    }
    return 0, doc, f"{val}\n"


def _matrices_json(rep) -> list:
    """A representation's generator matrices, every entry x / D of its
    integers over D as a rational string, each distinct entry encoded once."""
    values = {x for g in rep.gens for row in g for x in row}
    text = {x: rational_to_string(Fraction(x, rep.D)) for x in values}
    return [[[text[x] for x in row] for row in g] for g in rep.gens]


def cmd_irreps(args) -> Output:
    wt = WeylType(args.type, args.n)
    if args.oracle:
        comps = split_regular_weyl(wt, args.q, seed=args.seed)
        key = "components"
        text = f"components (dim, multiplicity): {[(c.irrep.dim, c.multiplicity) for c in comps]}\n"
        heads = [(c.irrep, {"dim": c.irrep.dim, "multiplicity": c.multiplicity}) for c in comps]
    else:
        reps = irreps(wt, args.q)
        key, text = "irreps", f"dims: {[r.dim for r in reps]}\n"
        heads = [(r, {"label": _label_json(r.label), "dim": r.dim}) for r in reps]
    if args.format != "json":
        return 0, None, text  # the matrices are encoded for JSON only
    entries = [{**head, "generators": _matrices_json(rep)} for rep, head in heads]
    return 0, {"type": wt._asdict(), "q": rational_to_string(args.q), key: entries}, text


def _label_json(label):
    if isinstance(label, tuple):
        return [_label_json(x) for x in label]
    return label


def cmd_reps(args) -> Output:
    # build mode writes JSON only; verify mode defaults to text
    if args.mode == "build" and args.format == "text":
        raise UsageError("reps --mode build writes JSON only; --format text is not available")
    fam = _parse_family(args)
    q0 = args.q
    _capped_groupoid(args, fam)
    if args.mode == "build":
        from .superreps import big_map

        bm = big_map(fam, q0)
        doc = {
            "family": fam._asdict(),
            "q0": rational_to_string(q0),
            "summands": [
                {
                    "left_label": _label_json(s.left.label),
                    "right_label": _label_json(s.right.label),
                    "block_dim": s.block_dim,
                    "total_dim": s.total_dim,
                }
                for s in bm.summands
            ],
        }
        return 0, doc, None
    report = verify_isomorphism(fam, q0)
    text = (
        ("PASS" if report.passed else "FAIL")
        + f"  rank {report.basis_rank} = formula {report.dim_formula}\n"
    )
    return 0 if report.passed else 1, iso_report_json(report), text


# verify-all checks braid connectivity and the Z[q] structure constants only
# for groupoids with at most this many elements
_BRAID_CAP = 200
_STRUCTCONST_CAP = 200


def cmd_verify_all(args) -> Output:
    fam = _parse_family(args)
    q0 = args.q
    lines = []
    ok = True

    def report(name: str, passed: bool, detail: str = ""):
        nonlocal ok
        ok = ok and passed
        tail = f"  {detail}" if detail else ""
        lines.append(f"{'PASS' if passed else 'FAIL'}  {name}{tail}")

    G = _capped_groupoid(args, fam)
    require_semisimple(fam, q0)
    count = G.order()
    formula = dimension_formula(fam)
    report("dimension formula", count == formula, f"|W\\0| = {count}, formula = {formula}")
    axioms = root_system(fam).check_axioms()
    report("root system axioms", axioms.passed)
    pres = hecke_poly(fam).verify_presentation()
    report("presentation relations", pres.passed, f"{pres.checked} instances")
    report("length theory", G.length_theory())
    if count <= _BRAID_CAP:
        braid_ok = all(G.braid_connected(w) for w in G.elements())
        report("braid connectivity", braid_ok, f"{count} elements")
    else:
        lines.append(f"SKIP  braid connectivity  ({count} > cap {_BRAID_CAP})")
    iso = verify_isomorphism(fam, q0)
    report("isomorphism", iso.passed, f"rank {iso.basis_rank} = formula {iso.dim_formula}")
    if count <= _STRUCTCONST_CAP:
        alg = hecke_poly(fam)
        table = alg.structure_constants()
        integral = all(c.min_exp >= 0 for row in table.values() for _, c in row)
        report("Z[q] structure constants", integral, f"{len(table)} products")
    else:
        lines.append(f"SKIP  Z[q] structure constants  ({count} > cap {_STRUCTCONST_CAP})")
    return 0 if ok else 1, None, "\n".join(lines) + ("\nOK\n" if ok else "\nFAILED\n")


def _rational(text: str) -> Fraction:
    """The argparse type of --q: "num/den" or "num"."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a rational number") from None


def _positive_int(text: str) -> int:
    """The argparse type of --max-elements: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superhecke",
        description=__doc__,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family_opts(p, formats, *reads, format_default="text"):
        """--family, --m, --n and --output; --format with the given choices,
        if any, and default; and those of --scalar, --q and --max-elements
        that the subcommand reads."""
        p.add_argument("--family", choices=["A", "B", "CD", "C"], required=True)
        p.add_argument("--m", type=int)
        p.add_argument("--n", type=int)
        if formats:
            p.add_argument("--format", choices=formats, default=format_default)
        p.add_argument("--output")
        if "--scalar" in reads:
            p.add_argument("--scalar", choices=["poly", "eval"], default="poly",
                           help="eval: structconst writes the Z[q, q^-1] table at q = --q; "
                           "verify's proof over Z[q, q^-1] holds at every q0 != 0")
        if "--q" in reads:
            p.add_argument("--q", type=_rational, default="2")
        if "--max-elements" in reads:
            p.add_argument("--max-elements", dest="max_elements", type=_positive_int, default=MAX_ELEMENTS)

    text_json = ("json", "text")

    p = sub.add_parser("domains", help="list the domain set")
    add_family_opts(p, text_json)
    p.set_defaults(func=cmd_domains)

    p = sub.add_parser("dynkin", help="per-domain diagrams and the orbit graph")
    add_family_opts(p, ("json", "dot", "text"))
    p.set_defaults(func=cmd_dynkin)

    p = sub.add_parser("enumerate", help="all nonzero groupoid elements")
    add_family_opts(p, text_json, "--max-elements")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("dim", help="|W \\ 0| against the closed formula")
    add_family_opts(p, text_json, "--max-elements")
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("words", help="length / reduced words / braid check of a word")
    add_family_opts(p, text_json)
    p.add_argument("--base", required=True, help="domain as JSON")
    p.add_argument("--letters", required=True, help="comma-separated generator indices")
    p.set_defaults(func=cmd_words)

    p = sub.add_parser("verify", help="root-system axioms and presentation relations")
    add_family_opts(p, text_json, "--scalar", "--q", "--max-elements")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("structconst", help="structure-constant table as JSON")
    add_family_opts(p, (), "--scalar", "--q", "--max-elements")
    p.set_defaults(func=cmd_structconst)

    p = sub.add_parser("poincare", help="Poincare polynomial of a classical group")
    p.add_argument("--type", choices=["A", "B", "D"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=_rational)
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--output")
    p.set_defaults(func=cmd_poincare)

    p = sub.add_parser("irreps", help="irreducible representations of a classical Hecke algebra")
    p.add_argument("--type", choices=["A", "B", "D"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=_rational, default="2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--oracle", action="store_true", help="use the regular-module splitting oracle")
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.add_argument("--output")
    p.set_defaults(func=cmd_irreps)

    p = sub.add_parser("reps", help="box-tensor representations: build summands or verify the isomorphism")
    # no --format default: verify mode writes text and build mode JSON
    add_family_opts(p, text_json, "--q", "--max-elements", format_default=None)
    p.add_argument("--mode", choices=["build", "verify"], default="verify")
    p.set_defaults(func=cmd_reps)

    p = sub.add_parser("verify-all", help="full verification suite for one family")
    add_family_opts(p, (), "--q", "--max-elements")
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, doc, text = args.func(args)
        if doc is not None and (text is None or getattr(args, "format", None) == "json"):
            text = _json_dump(doc)
        if text is not None:  # None: the command wrote its own stream
            with _writer(args) as write:
                write(text)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe: send the rest of the output to devnull
        # so the flush at exit cannot raise again, and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
