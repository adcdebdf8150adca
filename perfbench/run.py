"""End-to-end and per-layer benchmark of the superhecke verifier.

    python3 perfbench/run.py --workload algebra|isomorphism|oracle \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Every operation is a cold `superhecke` CLI
process (`python3 -m superhecke.cli` on `src/`), one at a time.  A run repeats
whole passes over the workload's operations, with three timed set-ups before
each pass, until set-ups and passes add up to at least S seconds, checking
every output with `checks.py`.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics: setup_s (median set-up), heavy_s
and light_s (sums of per-operation medians over the passes), their sum
total_s, and peak_rss_mb (highest peak RSS of any operation process).
--trace 1 runs one plain pass and one pass in which each operation runs under
`traced.py`, and reports self time per layer, the layers' counters, and the
tracing overhead.

The workload seed reaches the program only as generated inputs: `--seed` of
the small-type oracle runs, and the triples the associativity checker samples.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3  # set-ups before each pass
TRIPLES = 200  # associativity triples per poly table and pass


@dataclass
class Op:
    name: str
    argv: list[str]
    check: Callable[[dict, dict], list[str]]
    heavy: bool = False


@dataclass
class Workload:
    setup: list[str]  # arguments of `command`; must exit 0
    setup_check: Callable[[str], list[str]]
    ops: list[Op]

    def timed(self) -> list[Op]:
        """The pass the end-to-end metrics time: the heavy operation after the
        first half of the light ones and again at the end, so that its
        samples spread over the run as the light ones do."""
        heavy = [op for op in self.ops if op.heavy]
        light = [op for op in self.ops if not op.heavy]
        half = len(light) // 2
        return light[:half] + heavy + light[half:] + heavy


def command(args: list[str], spans: Path | None = None) -> list[str]:
    """A cold CLI process, or a `traced.py` process when spans are recorded
    or the arguments name one of its own set-ups."""
    if spans is None and args[0] != "oracle-setup":
        return [sys.executable, "-m", "superhecke.cli", *args]
    return [sys.executable, str(HERE / "traced.py"), str(spans or "-"), *args]


def fam(kind: str, m: int, n: int) -> list[str]:
    return ["--family", kind, "--m", str(m), "--n", str(n)]


def dim_check(kind: str, m: int, n: int):
    def check(stdout: str) -> list[str]:
        want = checks.family_order(kind, m, n)
        return [] if stdout.strip() == str(want) else [f"dim: {stdout.strip()} != closed form {want}"]

    return check


# ---- workloads ----
#
# Every operation takes at most a few seconds, so that a run repeats each one
# several times and its metrics are medians over samples spread across the
# run: on a shared host the speed moves in phases of seconds, and one sample
# of a 20-second operation is one draw of that noise.

LADDER = [("A", 1, 1), ("CD", 2, 1), ("B", 1, 2), ("CD", 1, 2)]  # poly structconst
HEAVY_FAMILY = ("CD", 1, 2)  # osp(2|4), 200 elements
EVAL = [(("B", 1, 2), "2"), (("CD", 2, 1), "1/3")]  # eval structconst at q0


def algebra(seed: int) -> Workload:
    rng = random.Random(seed)
    eval_families = {f for f, _ in EVAL}

    def enumerate_check(f):
        def check(doc, ctx):
            errs = checks.check_enumerate(doc, *f)
            ctx[("els", f)] = checks.Elements(doc)
            return errs

        return check

    def poly_check(f):
        def check(doc, ctx):
            els = ctx.get(("els", f))
            if els is None:
                return ["no enumerate output to check against"]
            if f in eval_families:
                ctx[("poly", f)] = doc
            return checks.check_structconst_poly(doc, els, checks.sample_triples(els, rng, TRIPLES))

        return check

    def eval_check(f, q0):
        def check(doc, ctx):
            poly = ctx.get(("poly", f))
            if poly is None:
                return ["no poly table to check against"]
            return checks.check_structconst_eval(doc, poly, Fraction(q0))

        return check

    ops = [Op("verify osp(4|4)", ["verify", *fam("CD", 2, 2), "--format", "json"],
              lambda doc, ctx: checks.check_verify(doc, "CD", 2, 2))]
    ops += [Op(f"enumerate {f}", ["enumerate", *fam(*f), "--format", "json"], enumerate_check(f)) for f in LADDER]
    ops += [
        Op(f"structconst {f}", ["structconst", *fam(*f)], poly_check(f), heavy=f == HEAVY_FAMILY)
        for f in LADDER
    ]
    ops += [
        Op(f"structconst eval {f} q={q0}", ["structconst", *fam(*f), "--scalar", "eval", "--q", q0], eval_check(f, q0))
        for f, q0 in EVAL
    ]
    ops += [
        Op("words B03 longest", ["words", *fam("B", 0, 3), "--base", "[1,1,1]",
                                  "--letters", ",".join(["1,2,3"] * 3), "--format", "json"],
           lambda doc, ctx: checks.check_words_longest_b(doc, 3)),
        # fails on every run: at q0 = 1 lmul_t stores zero coefficients
        Op("verify eval A11 q=1", ["verify", *fam("A", 1, 1), "--scalar", "eval", "--q", "1", "--format", "json"],
           lambda doc, ctx: checks.check_verify(doc, "A", 1, 1)),
    ]
    return Workload(["dim", *fam("CD", 2, 2)], dim_check("CD", 2, 2), ops)


REPS = [("A", 1, 1, "2"), ("B", 2, 1, "2"), ("CD", 1, 2, "2"), ("CD", 1, 2, "1/3"), ("A", 0, 2, "2"),
        ("B", 1, 2, "2"), ("CD", 2, 1, "2"), ("B", 0, 3, "1/3")]
HEAVY_REPS = ("CD", 1, 2, "1/3")  # osp(2|4) at q0 = 1/3: the largest family, with denominators


def isomorphism(seed: int) -> Workload:
    def check(f):
        return lambda doc, ctx: checks.check_reps(doc, *f)

    ops = [
        Op(f"reps {k}({m},{n}) q={q0}", ["reps", *fam(k, m, n), "--q", q0, "--format", "json"],
           check((k, m, n)), heavy=(k, m, n, q0) == HEAVY_REPS)
        for k, m, n, q0 in REPS
    ]
    return Workload(["dim", *fam("CD", 1, 2)], dim_check("CD", 1, 2), ops)


def oracle(seed: int) -> Workload:
    # S_4 and W(D_3) split with the CLI's default seed 0: the number of random
    # elements the oracle tries depends on its seed, and on these types a
    # retry costs a second or more.  The workload seed drives the two smallest
    # types, where a retry costs little.
    runs = [("A", 4, 0), ("D", 3, 0), ("A", 3, seed), ("B", 2, seed)]

    def check(kind, n):
        return lambda doc, ctx: checks.check_oracle(doc, kind, n)

    ops = [
        Op(f"oracle {kind}{n} seed={s}",
           ["irreps", "--type", kind, "--n", str(n), "--oracle", "--seed", str(s), "--format", "json"],
           check(kind, n), heavy=(kind, n) == ("A", 4))
        for kind, n, s in runs
    ]
    ops += [Op(f"irreps {kind}{n}", ["irreps", "--type", kind, "--n", str(n), "--format", "json"],
               lambda doc, ctx, kind=kind, n=n: checks.check_irreps(doc, kind, n))
            for kind, n in (("D", 4), ("B", 4))]
    return Workload(["oracle-setup", "A", "4", "2"], lambda stdout: [], ops)


WORKLOADS = {"algebra": algebra, "isomorphism": isomorphism, "oracle": oracle}


# ---- running ----


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # CD domains carry string tags; fix set orders
    return env


def spawn(cmd: list[str], stdout_path: Path) -> tuple[float, int, float]:
    """Run one process to completion: (wall seconds, exit code, peak RSS MiB)."""
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.PIPE, cwd=ROOT, env=child_env())
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.stderr.close()
    rc = proc.returncode = os.waitstatus_to_exitcode(status)
    if rc != 0 and err:
        sys.stderr.write(err.decode(errors="replace")[-2000:])
    return wall, rc, usage.ru_maxrss / 1024


class Run:
    def __init__(self, workload: Workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.peak_rss = 0.0

    def setup_once(self, spans: Path | None = None) -> float:
        cmd = command(self.w.setup, spans)
        stdout = OUT / "setup.out"
        wall, rc, _ = spawn(cmd, stdout)
        if rc != 0:
            raise SystemExit(f"set-up failed with exit code {rc}: {' '.join(cmd)}")
        self.errors += self.w.setup_check(stdout.read_text())
        return wall

    def one_pass(self, ops: list[Op], trace_dir: Path | None = None) -> list[tuple[Op, float, int]]:
        """Each operation in turn: (operation, wall seconds, output bytes)."""
        ctx: dict = {}
        out = []
        for k, op in enumerate(ops):
            path = OUT / f"op{k}.out"
            spans = None if trace_dir is None else trace_dir / f"op{k}.json"
            wall, rc, rss = spawn(command(op.argv, spans), path)
            self.attempted += 1
            self.peak_rss = max(self.peak_rss, rss)
            print(f"  {op.name}: {wall:.3f} s, exit {rc}", file=sys.stderr)
            if rc != 0:
                self.failed += 1
            else:
                with open(path) as fh:
                    doc = json.load(fh)
                self.errors += [f"{op.name}: {e}" for e in op.check(doc, ctx)]
            out.append((op, wall, path.stat().st_size))
            path.unlink()
        return out


def end_to_end(run: Run, seconds: float) -> dict:
    """Passes until set-ups and passes add up to `seconds`; before each pass,
    SETUP_REPEATS set-ups.  Each operation's time is its median over the
    passes, so that the samples spread over the whole run."""
    setups: list[float] = []
    samples: dict[str, list[float]] = {op.name: [] for op in run.w.ops}
    measured = 0.0
    passes = 0
    while measured < seconds or not passes:
        batch = [run.setup_once() for _ in range(SETUP_REPEATS)]
        setups += batch
        measured += sum(batch)
        for op, wall, _ in run.one_pass(run.w.timed()):
            samples[op.name].append(wall)
            measured += wall
        passes += 1
    heavy = sum(statistics.median(samples[op.name]) for op in run.w.ops if op.heavy)
    light = sum(statistics.median(samples[op.name]) for op in run.w.ops if not op.heavy)
    print(f"  {passes} passes, {len(setups)} set-ups", file=sys.stderr)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "total_s": (heavy + light, "s"),
        "heavy_s": (heavy, "s"),
        "light_s": (light, "s"),
        "peak_rss_mb": (run.peak_rss, "MiB"),
    }


# per-layer metric -> span names whose self times it sums
SPAN_METRICS = {
    "domains.enumerate_s": ["domains.enumerate"],
    "roots.build_s": ["roots.build"],
    "roots.axioms_s": ["roots.axioms"],
    "groupoid.enumerate_s": ["groupoid.enumerate"],
    "groupoid.canonical_words_s": ["groupoid.canonical_words"],
    "groupoid.reduced_words_s": ["groupoid.reduced_words", "groupoid.braid_connected"],
    "hecke.structconst_s": ["hecke.structconst"],
    "hecke.structconst_eval_s": ["hecke.structconst_eval"],
    "hecke.presentation_s": ["hecke.presentation"],
    "hecke.encode_s": ["hecke.encode"],
    "scalars.evaluate_s": ["scalars.evaluate"],
    "cli.emit_s": ["cli.main"],
    "weylreps.irreps_s": ["weylreps.irreps"],
    "weylgroups.regular_s": ["weylgroups.regular"],
    "weylreps.split_s": ["weylreps.split"],
    "superreps.big_map_s": ["superreps.big_map"],
    "superreps.relations_s": ["superreps.relations"],
    "superreps.verify_s": ["superreps.verify"],
    "linalg.rank_s": ["linalg.rank"],
    "linalg.nullspace_s": ["linalg.nullspace"],
}
COUNTERS = [
    "groupoid.elements", "groupoid.reduced_words", "hecke.entries", "hecke.relations",
    "scalars.terms", "weylreps.components", "superreps.summands", "superreps.basis_rank",
]


def self_times(spans: list[list]) -> dict[str, float]:
    """Span duration minus the part its direct children cover, per name."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), covered in zip(spans, child):
        out[name] = out.get(name, 0.0) + (end - start) - covered
    return out


def per_layer(run: Run) -> dict:
    run.setup_once()
    plain = run.one_pass(run.w.ops)
    trace_dir = OUT / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    for old in trace_dir.glob("*.json"):
        old.unlink()
    run.setup_once(trace_dir / "setup.json")
    traced = run.one_pass(run.w.ops, trace_dir)
    selfs: dict[str, float] = {}
    counters: dict[str, int] = {}
    probe_s = 0.0
    for path in sorted(trace_dir.glob("*.json")):
        data = json.loads(path.read_text())
        for name, s in self_times(data["spans"]).items():
            selfs[name] = selfs.get(name, 0.0) + s
        for name, k in data["counters"].items():
            counters[name] = counters.get(name, 0) + k
        if path.name != "setup.json":
            probe_s += data["probe_s"]
    metrics = {
        name: (sum(selfs.get(s, 0.0) for s in spans), "s") for name, spans in SPAN_METRICS.items()
    }
    metrics.update({name: (counters.get(name, 0), "count") for name in COUNTERS})
    metrics["cli.output_mb"] = (sum(size for _, _, size in traced) / 2**20, "MiB")
    plain_total = sum(wall for _, wall, _ in plain)
    traced_total = sum(wall for _, wall, _ in traced) - probe_s
    metrics["trace.overhead_s"] = (traced_total - plain_total, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "superhecke" / "cli.py").is_file():
        print(f"error: no superhecke sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # compile the package once so no timed process pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "superhecke")],
                   check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    run = Run(WORKLOADS[args.workload](args.seed))
    metrics = per_layer(run) if args.trace else end_to_end(run, args.seconds)
    for e in run.errors:
        print(f"INCORRECT {e}", file=sys.stderr)
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
