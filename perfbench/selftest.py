"""Self-test of the output checkers: each must accept a small real output of
the program and reject a corrupted copy of it.

    python3 perfbench/selftest.py        # from the repository root

Exits 1 when any checker accepts a corrupted output or rejects a good one.
"""

from __future__ import annotations

import copy
import json
import random
import subprocess
import sys
from fractions import Fraction

import checks
from run import ROOT, child_env, command, fam

failures = 0


def cli_json(*args: str):
    proc = subprocess.run(command(list(args)), cwd=ROOT, env=child_env(), capture_output=True, check=True)
    return json.loads(proc.stdout)


def expect(name: str, good: list[str], bad: list[str]):
    """good: errors on the real output (must be none); bad: errors on the
    corrupted copy (must be some)."""
    global failures
    ok = not good and bool(bad)
    failures += not ok
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + ("" if ok else f"  good={good[:2]} bad={bad[:2]}"))


def closed_forms():
    global failures
    facts = {
        "S_5 longest element: 768 reduced words": checks.staircase_words(5) == 768,
        "W(B_4) longest element: 24024 reduced words": checks.square_words(4) == 24024,
        "|W\\0| of A(1,1), A(2,1), A(2,2)": [checks.family_order("A", m, n) for m, n in ((1, 1), (2, 1), (2, 2))]
        == [144, 1200, 14400],
        "|W\\0| of B(2,2), osp(4|4), osp(2|4)": [checks.family_order(k, m, n) for k, m, n in
                                                ((("B", 2, 2), ("CD", 2, 2), ("CD", 1, 2)))]
        == [2304, 2592, 200],
        "sum of squared irrep dimensions is |W|": all(
            sum(d * d for d in checks.irrep_dims(k, n).values()) == checks.weyl_order(k, n)
            for k, n in (("A", 5), ("B", 3), ("D", 4), ("D", 5))
        ),
    }
    for name, ok in facts.items():
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}")


def structure_constants():
    f = ("A", 1, 1)
    edoc = cli_json("enumerate", *fam(*f), "--format", "json")
    bad = copy.deepcopy(edoc)
    bad["elements"].pop()
    bad["count"] -= 1
    expect("enumerate: closed-form count", checks.check_enumerate(edoc, *f), checks.check_enumerate(bad, *f))

    els = checks.Elements(edoc)
    pdoc = cli_json("structconst", *fam(*f))
    triples = checks.sample_triples(els, random.Random(0), 100)
    good = checks.check_structconst_poly(pdoc, els, triples)

    def corrupt(change):
        doc = copy.deepcopy(pdoc)
        entry = next(e for e in doc["entries"] if len(e["terms"]) > 1)
        change(entry)
        return doc, (entry["u"], entry["v"])

    doc, _ = corrupt(lambda e: e["terms"][0]["poly"].insert(0, [-1, "1"]))
    expect("structconst: Z[q] integrality", good, checks.check_structconst_poly(doc, els, []))
    def drop_product(entry):  # the term that survives at q = 1
        entry["terms"] = [t for t in entry["terms"] if sum(int(c) for _, c in t["poly"]) == 0]

    doc, _ = corrupt(drop_product)
    expect("structconst: q = 1 degeneration", good, checks.check_structconst_poly(doc, els, []))

    # adding q - 1 keeps integrality and the q = 1 value; associativity must catch it
    def add_q_minus_one(entry):  # + q^10 - q^9 on one term
        entry["terms"][0]["poly"] += [[9, "-1"], [10, "1"]]

    doc, (u, v) = corrupt(add_q_minus_one)
    hits = [(u, v, w) for w in range(len(els.keys)) if els.keys[w][1] == els.keys[v][0]]
    expect("structconst: associativity", good, checks.check_structconst_poly(doc, els, hits))

    q0 = Fraction(2)
    vdoc = cli_json("structconst", *fam(*f), "--scalar", "eval", "--q", "2")
    bad = copy.deepcopy(vdoc)
    bad["entries"][3]["terms"][0]["poly"] = "7/3"
    expect("structconst eval = poly at q0", checks.check_structconst_eval(vdoc, pdoc, q0),
           checks.check_structconst_eval(bad, pdoc, q0))


def words_and_verify():
    doc = cli_json("verify", *fam("A", 1, 1), "--format", "json")
    bad = dict(doc, relations_passed=False)
    expect("verify: passes with every relation", checks.check_verify(doc, "A", 1, 1),
           checks.check_verify(bad, "A", 1, 1))
    doc = cli_json("words", *fam("B", 0, 3), "--base", "[1,1,1]", "--letters", "1,2,3,1,2,3,1,2,3",
                   "--format", "json")
    bad = copy.deepcopy(doc)
    bad["reduced_words"].pop()
    expect("words: hook-length count of reduced words", checks.check_words_longest_b(doc, 3),
           checks.check_words_longest_b(bad, 3))


def representations():
    doc = cli_json("reps", *fam("CD", 1, 2), "--format", "json")
    bad = dict(doc, summand_dims=[5, 5, 5, 5, 10, 0])
    expect("reps: summand dimensions and rank", checks.check_reps(doc, "CD", 1, 2),
           checks.check_reps(bad, "CD", 1, 2))
    doc = cli_json("irreps", "--type", "A", "--n", "3", "--oracle", "--format", "json")
    bad = copy.deepcopy(doc)
    big = next(c for c in bad["components"] if c["dim"] == 2)
    big["generators"][0][0][1] = "5"
    expect("oracle: Hecke relations of components", checks.check_oracle(doc, "A", 3),
           checks.check_oracle(bad, "A", 3))
    bad = copy.deepcopy(doc)
    bad["components"][0]["multiplicity"] += 1
    expect("oracle: multiplicity = dimension", checks.check_oracle(doc, "A", 3), checks.check_oracle(bad, "A", 3))
    doc = cli_json("irreps", "--type", "D", "--n", "3", "--format", "json")
    bad = copy.deepcopy(doc)
    bad["irreps"].pop()
    expect("irreps: labels and dimensions", checks.check_irreps(doc, "D", 3), checks.check_irreps(bad, "D", 3))


if __name__ == "__main__":
    closed_forms()
    structure_constants()
    words_and_verify()
    representations()
    sys.exit(1 if failures else 0)
