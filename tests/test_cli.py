"""The command-line surface: outputs, exit codes, determinism, schemas."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

ROOT = Path(__file__).resolve().parent.parent
SCHEMAS = ROOT / "docs" / "schemas"


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "superhecke.cli", *argv],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    return proc


def validate(data, schema_name):
    import referencing

    schema = json.loads((SCHEMAS / schema_name).read_text())
    defs = json.loads((SCHEMAS / "defs.json").read_text())
    registry = referencing.Registry().with_resources(
        [
            ("defs.json", referencing.Resource.from_contents(defs)),
            (schema_name, referencing.Resource.from_contents(schema)),
        ]
    )
    validator = jsonschema.Draft7Validator(schema, registry=registry)
    validator.validate(data)


def test_dim_text():
    proc = run_cli("dim", "--family", "A", "--m", "1", "--n", "1")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "144"


def test_dim_alias_c_family():
    proc = run_cli("dim", "--family", "C", "--n", "2")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "18"


def test_poincare_value():
    proc = run_cli("poincare", "--type", "B", "--n", "2", "--q", "1")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "8"


def test_invalid_arguments_exit_2():
    proc = run_cli("dim", "--family", "B", "--m", "1", "--n", "0")
    assert proc.returncode == 2
    proc = run_cli("dim", "--family", "Z", "--m", "1", "--n", "1")
    assert proc.returncode == 2  # argparse rejects the choice
    proc = run_cli("structconst", "--family", "A", "--m", "1", "--n", "1",
                   "--scalar", "eval", "--q", "0")
    assert proc.returncode == 2


def test_domains_json_schema():
    proc = run_cli("domains", "--family", "CD", "--m", "2", "--n", "1", "--format", "json")
    data = json.loads(proc.stdout)
    validate(data, "domains.schema.json")
    assert data["count"] == 4


def test_enumerate_json_schema():
    proc = run_cli("enumerate", "--family", "B", "--m", "1", "--n", "1", "--format", "json")
    data = json.loads(proc.stdout)
    validate(data, "enumerate.schema.json")
    assert data["count"] == 16


def test_structconst_json_schema():
    proc = run_cli("structconst", "--family", "B", "--m", "1", "--n", "1")
    data = json.loads(proc.stdout)
    validate(data, "structconst.schema.json")


def test_dynkin_json_schema():
    proc = run_cli("dynkin", "--family", "CD", "--m", "3", "--n", "1", "--format", "json")
    data = json.loads(proc.stdout)
    validate(data, "dynkin.schema.json")


def test_irreps_json_schema():
    proc = run_cli("irreps", "--type", "B", "--n", "2", "--format", "json")
    data = json.loads(proc.stdout)
    validate(data, "irreps.schema.json")
    assert sorted(r["dim"] for r in data["irreps"]) == [1, 1, 1, 1, 2]
    proc = run_cli("irreps", "--type", "A", "--n", "3", "--format", "json", "--oracle")
    data = json.loads(proc.stdout)
    validate(data, "irreps.schema.json")


def test_dim_json_schema():
    proc = run_cli("dim", "--family", "C", "--n", "3", "--format", "json")
    data = json.loads(proc.stdout)
    validate(data, "dim.schema.json")
    assert data["dimension"] == data["formula"] == 200 and data["match"] is True


def test_words_json_schema():
    proc = run_cli("words", "--family", "CD", "--m", "1", "--n", "2", "--base",
                   '{"p":[1,0,1],"tag":"C+"}', "--letters", "1,2,3,2,2", "--format", "json")
    data = json.loads(proc.stdout)
    validate(data, "words.schema.json")
    assert data["length"] == 3 and data["reduced"] is False


def test_verify_json_schema():
    proc = run_cli("verify", "--family", "A", "--m", "1", "--n", "1", "--format", "json")
    data = json.loads(proc.stdout)
    validate(data, "verify.schema.json")
    assert data["relations_passed"] is True and data["relations_checked"] > 0


def test_poincare_json_schema():
    proc = run_cli("poincare", "--type", "D", "--n", "4", "--format", "json")
    poly = json.loads(proc.stdout)
    validate(poly, "poincare.schema.json")
    proc = run_cli("poincare", "--type", "D", "--n", "4", "--q", "-1", "--format", "json")
    value = json.loads(proc.stdout)
    validate(value, "poincare.schema.json")
    assert value["semisimple"] is False
    # a document is one shape or the other, not both
    with pytest.raises(jsonschema.ValidationError):
        validate({**poly, **value}, "poincare.schema.json")


def test_reps_build_json_schema():
    proc = run_cli("reps", "--family", "CD", "--m", "2", "--n", "1", "--mode", "build")
    data = json.loads(proc.stdout)
    validate(data, "reps-build.schema.json")
    assert sum(s["total_dim"] ** 2 for s in data["summands"]) == 128


def test_dynkin_text_mode():
    proc = run_cli("dynkin", "--family", "B", "--m", "1", "--n", "2")
    assert proc.returncode == 0
    assert "cross=[1]" in proc.stdout and "filled=[3]" in proc.stdout


def test_words_nonreduced():
    proc = run_cli(
        "words", "--family", "B", "--m", "1", "--n", "1",
        "--base", "[0,1]", "--letters", "1,1", "--format", "json",
    )
    data = json.loads(proc.stdout)
    assert data["length"] == 0
    assert data["reduced"] is False
    assert data["canonical_word"]["letters"] == []


def test_words_empty_letters_is_the_empty_word():
    proc = run_cli(
        "words", "--family", "A", "--m", "1", "--n", "1",
        "--base", "[0,0,1,1]", "--letters", "", "--format", "json",
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["word"]["letters"] == [] and data["length"] == 0


def test_words_command():
    proc = run_cli(
        "words", "--family", "A", "--m", "1", "--n", "1",
        "--base", "[0,1,0,1]", "--letters", "1,2,1", "--format", "json",
    )
    data = json.loads(proc.stdout)
    assert data["length"] == 3
    assert data["reduced"] is True
    assert data["braid_connected"] is True


def test_verify_command():
    proc = run_cli("verify", "--family", "CD", "--m", "1", "--n", "1")
    assert proc.returncode == 0
    assert proc.stdout.startswith("PASS")


@pytest.mark.parametrize("fam", [["A", "1", "1"], ["B", "1", "2"]])
def test_verify_eval_prints_the_poly_bytes(fam, capsys):
    # the relations are proved once, over Z[q, q^-1]; that proof holds at
    # every q0 != 0, so --scalar eval changes nothing in the output
    from superhecke import cli

    argv = ["verify", "--family", fam[0], "--m", fam[1], "--n", fam[2], "--format", "json"]
    assert cli.main(argv) == 0
    poly = capsys.readouterr()
    for q0 in ("1", "1/3", "-2"):
        assert cli.main(argv + ["--scalar", "eval", f"--q={q0}"]) == 0
        assert capsys.readouterr() == poly


def test_verify_all_small():
    proc = run_cli("verify-all", "--family", "B", "--m", "1", "--n", "1")
    assert proc.returncode == 0
    assert proc.stdout.rstrip().endswith("OK")


def test_reps_command():
    proc = run_cli("reps", "--family", "B", "--m", "1", "--n", "1", "--format", "json")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    validate(data, "report.schema.json")
    assert data["passed"] is True
    proc = run_cli("reps", "--family", "CD", "--m", "1", "--n", "1", "--mode", "build")
    data = json.loads(proc.stdout)
    assert [s["total_dim"] for s in data["summands"]] == [3, 3]


def test_output_deterministic():
    a = run_cli("enumerate", "--family", "CD", "--m", "1", "--n", "1", "--format", "json")
    b = run_cli("enumerate", "--family", "CD", "--m", "1", "--n", "1", "--format", "json")
    assert a.stdout == b.stdout
    c = run_cli("irreps", "--type", "D", "--n", "2", "--format", "json", "--oracle", "--seed", "3")
    d = run_cli("irreps", "--type", "D", "--n", "2", "--format", "json", "--oracle", "--seed", "3")
    assert c.stdout == d.stdout


@pytest.mark.parametrize(
    "family, base, letters",
    [
        (["A", "--m", "1", "--n", "1"], "[0,1,1,1]", "1"),  # wrong number of ones
        (["A", "--m", "1", "--n", "1"], "[0,1,1]", "1"),  # wrong length
        (["A", "--m", "1", "--n", "1"], "not json", "1"),
        (["A", "--m", "1", "--n", "1"], "[0,0,1,1]", "4"),  # rank is 3
        (["A", "--m", "1", "--n", "1"], "[0,0,1,1]", "0,1"),
        (["A", "--m", "1", "--n", "1"], "[0,0,1,1]", "1,x"),
        (["CD", "--m", "1", "--n", "1"], '{"p": [0, 1], "tag": "E"}', "1"),  # unknown tag
        (["CD", "--m", "1", "--n", "1"], "[0,1]", "1"),
        (["A", "--m", "1", "--n", "1"], "[1e400,0,1,1]", "1"),  # int() of infinity overflows
        (["A", "--m", "1", "--n", "1"], "[0,0,1,1]", "1,,2"),  # empty item
        (["A", "--m", "1", "--n", "1"], "[0,0,1,1]", "1,"),  # trailing empty item
        # parities are the JSON integers 0 and 1, not values int() maps there
        (["A", "--m", "0", "--n", "0"], "[0.9,1]", "1"),
        (["A", "--m", "0", "--n", "0"], "[true,false]", "1"),
        (["A", "--m", "0", "--n", "0"], '["0","1"]', "1"),
        (["CD", "--m", "1", "--n", "1"], '{"p": [0.2, 1], "tag": "C+"}', "1"),
        (["CD", "--m", "1", "--n", "1"], '{"p": [0, 1], "tag": ["C+"]}', "1"),  # unhashable tag
        pytest.param(["A", "--m", "0", "--n", "0"], "[" * 50000 + "]" * 50000, "1", id="nested-too-deep"),
    ],
)
def test_words_bad_input_exit_2(family, base, letters):
    proc = run_cli("words", "--family", *family, "--base", base, "--letters", letters)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.strip().splitlines()) == 1


def test_words_integer_parities_exit_0():
    proc = run_cli("words", "--family", "A", "--m", "0", "--n", "0", "--base", "[0,1]", "--letters", "1")
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_max_elements_does_not_leak_between_calls(capsys):
    # the groupoid is cached per family; a cap given to one command must not
    # stay on the cached object and fail a later command
    from superhecke import cli

    fam = ["--family", "A", "--m", "1", "--n", "1"]
    assert cli.main(["enumerate", *fam, "--max-elements", "10"]) == 2
    assert cli.main(["verify", *fam]) == 0
    assert cli.main(["dim", *fam]) == 0
    # a cap below |W \ 0| still fails once the elements are cached
    assert cli.main(["dim", *fam, "--max-elements", "143"]) == 2
    assert cli.main(["dim", *fam, "--max-elements", "144"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["verify", "structconst", "reps", "verify-all"])
def test_max_elements_caps_every_family_command(command):
    # A(1,1) has 144 elements: past the cap the command exits 2 before any work
    proc = run_cli(command, "--family", "A", "--m", "1", "--n", "1", "--max-elements", "10")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: more than 10 elements\n"


def test_max_elements_above_the_default_lifts_the_cap(monkeypatch, uncached, capsys):
    # the default cap lowered to 100 in this process, below A(1,1)'s 144
    # elements, together with any cap the groupoid applies by default: a
    # --max-elements of 200 must hold for the whole run, and without the
    # option the lowered default still refuses the family
    from superhecke import cli, groupoid

    monkeypatch.setattr(cli, "MAX_ELEMENTS", 100)
    for name in ("elements", "tables", "order"):
        fn = getattr(groupoid.CoxeterGroupoid, name)
        if fn.__defaults__ and isinstance(fn.__defaults__[-1], int):
            monkeypatch.setattr(fn, "__defaults__", (100,))
    fam = ["--family", "A", "--m", "1", "--n", "1"]
    for command in ("verify", "structconst", "reps", "verify-all"):
        assert cli.main([command, *fam, "--max-elements", "200"]) == 0, command
    capsys.readouterr()
    assert cli.main(["verify", *fam]) == 2
    assert capsys.readouterr() == ("", "error: more than 100 elements\n")


def test_more_domains_than_the_cap_are_declined_before_any_root(monkeypatch, capsys):
    # A(7,7) has 12 870 domains, each with its identity element: past a cap
    # of 10 it is refused before any simple or positive root is built
    from superhecke import cli
    from superhecke.roots import RootSystem

    built = []
    for name in ("_build_positive", "_build_simple"):
        monkeypatch.setattr(RootSystem, name, lambda *args, name=name: built.append(name))
    assert cli.main(["dim", "--family", "A", "--m", "7", "--n", "7", "--max-elements", "10"]) == 2
    assert capsys.readouterr() == ("", "error: more than 10 elements\n")
    assert built == []


CD21 = ["--family", "CD", "--m", "2", "--n", "1"]  # osp(4|2), 128 elements
CD22 = ["--family", "CD", "--m", "2", "--n", "2"]  # osp(4|4), 2 592 elements


@pytest.mark.parametrize("command", ["dim", "enumerate", "verify"])
def test_max_elements_one_below_the_order_is_refused(command, uncached, capsys):
    # refused while the search runs, twice, since a refused search caches
    # nothing; at exactly |W \ 0| the command runs, and once the groupoid
    # is cached the cap below it is still refused
    from superhecke import cli

    for _ in range(2):
        assert cli.main([command, *CD21, "--max-elements", "127"]) == 2
        assert capsys.readouterr() == ("", "error: more than 127 elements\n")
    assert cli.main([command, *CD21, "--max-elements", "128"]) == 0
    capsys.readouterr()
    assert cli.main([command, *CD21, "--max-elements", "127"]) == 2
    assert capsys.readouterr() == ("", "error: more than 127 elements\n")


def test_uncapped_dim_then_capped_enumerate_is_refused(uncached, capsys):
    # dim caches only the count of the search; enumerate still checks it
    from superhecke import cli

    assert cli.main(["dim", *CD21]) == 0
    assert cli.main(["enumerate", *CD21, "--max-elements", "127"]) == 2
    assert capsys.readouterr() == ("128\n", "error: more than 127 elements\n")


def test_dim_counts_the_search_without_sorting_it(monkeypatch, uncached, capsys):
    # dim never sorts the search into elements and tables; a verify after
    # it in the same process sorts that same search instead of searching again
    from superhecke import cli
    from superhecke.groupoid import CoxeterGroupoid

    searches = []
    search = CoxeterGroupoid._breadth_first
    monkeypatch.setattr(
        CoxeterGroupoid, "_breadth_first", lambda self, cap: searches.append(cap) or search(self, cap)
    )

    def refuse(self):
        raise AssertionError("dim sorted the search")

    with monkeypatch.context() as patch:
        patch.setattr(CoxeterGroupoid, "_sort", refuse)
        assert cli.main(["dim", *CD22]) == 0
    assert capsys.readouterr() == ("2592\n", "")
    assert cli.main(["verify", *CD22]) == 0
    assert len(searches) == 1
    capsys.readouterr()


FAMILY = ["--family", "A", "--m", "1", "--n", "1"]
# the subcommands that read --q or --max-elements, with their required options
READERS = {
    "--q": {
        **{c: FAMILY for c in ("verify", "structconst", "reps", "verify-all")},
        "poincare": ["--type", "A", "--n", "3"],
        "irreps": ["--type", "A", "--n", "3"],
    },
    "--max-elements": {
        c: FAMILY for c in ("enumerate", "dim", "verify", "structconst", "reps", "verify-all")
    },
}
BAD_VALUES = {
    "--q": [("1/0", "'1/0' is not a rational number"), ("abc", "'abc' is not a rational number")],
    "--max-elements": [("0", "must be at least 1, got 0"), ("-5", "must be at least 1, got -5")],
}


@pytest.mark.parametrize(
    "command, option, value, message",
    [
        (c, o, v, msg)
        for o, readers in READERS.items()
        for c in readers
        for v, msg in BAD_VALUES[o]
    ],
)
def test_bad_q_and_max_elements_are_usage_errors(command, option, value, message, capsys):
    # argparse refuses them with a message naming the option, before any work
    from superhecke import cli

    with pytest.raises(SystemExit) as exc:
        cli.main([command, *READERS[option][command], option, value])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == f"superhecke {command}: error: argument {option}: {message}"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-all", "--format", "json"],
        ["dim", "--q", "1/0"],
        ["verify-all", "--braid-cap", "500"],
        ["verify-all", "--structconst-cap", "500"],
    ],
)
def test_option_the_command_does_not_read_exits_2(argv):
    # argparse refuses it before any work: verify-all prints only text and
    # its caps are fixed, and dim never evaluates q
    proc = run_cli(*argv[:1], "--family", "A", "--m", "1", "--n", "1", *argv[1:])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in proc.stderr


@pytest.mark.parametrize("command", ["dim", "structconst"])
@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_output_that_cannot_be_opened_exits_2(tmp_path, command, target):
    # a usage error with one line naming the path, not a traceback and exit 1
    path = tmp_path if target == "directory" else tmp_path / "missing" / "out.json"
    proc = run_cli(command, "--family", "A", "--m", "1", "--n", "1", "--output", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [proc.stderr.strip()]
    assert proc.stderr.startswith(f"error: cannot write --output {path}: ")


# the family subcommands' options that each one never reads
UNREAD = {
    "domains": ["--scalar", "--q", "--max-elements"],
    "dynkin": ["--scalar", "--q", "--max-elements"],
    "enumerate": ["--scalar", "--q"],
    "dim": ["--scalar", "--q"],
    "words": ["--scalar", "--q", "--max-elements"],
    "verify": [],
    "structconst": ["--format"],
    "reps": ["--scalar"],
    "verify-all": ["--scalar", "--format"],
}
VALUES = {"--scalar": "poly", "--q": "2", "--max-elements": "10", "--format": "json", "--seed": "0"}


@pytest.mark.parametrize(
    "command, option",
    [(c, o) for c, opts in UNREAD.items() for o in ["--seed", *opts]],
)
def test_family_commands_take_only_the_options_they_read(command, option, capsys):
    from superhecke import cli

    argv = [command, "--family", "A", "--m", "1", "--n", "1", option, VALUES[option]]
    if command == "words":
        argv += ["--base", "[0,1,0,1]", "--letters", "1"]
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["domains", "enumerate", "dim", "words", "verify", "reps"])
def test_dot_format_is_dynkin_only(command, capsys):
    from superhecke import cli

    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args([command, "--family", "A", "--m", "1", "--n", "1", "--format", "dot"])
    assert exc.value.code == 2
    assert "invalid choice: 'dot'" in capsys.readouterr().err


def test_closed_output_pipe_exits_quietly():
    # the reader closes the pipe before the output is written: the
    # (multi-megabyte) table that structconst streams, and the 536 KB element
    # list that cli.main writes in one piece
    for argv in (
        ["structconst", "--family", "A", "--m", "1", "--n", "1", "--scalar", "eval", "--q", "1"],
        ["enumerate", "--family", "A", "--m", "2", "--n", "1", "--format", "json"],
    ):
        proc = subprocess.Popen(
            [sys.executable, "-m", "superhecke.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=ROOT,
        )
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 141
        assert stderr == b""


A11 = ["--family", "A", "--m", "1", "--n", "1"]
A11_WORD = ["--base", "[0,1,0,1]", "--letters", "2,1,3,2,1"]
# every subcommand in every output format, on small inputs
ONE_WRITER = [
    *[[c, *A11, "--format", f]
      for c in ("domains", "enumerate", "dim", "verify") for f in ("json", "text")],
    *[["dynkin", *A11, "--format", f] for f in ("json", "dot", "text")],
    *[["words", *A11, *A11_WORD, "--format", f] for f in ("json", "text")],
    ["structconst", *A11],
    ["structconst", *A11, "--scalar", "eval", "--q", "1/3"],
    *[["poincare", "--type", "B", "--n", "3", *q, "--format", f]
      for q in ([], ["--q", "2"]) for f in ("json", "text")],
    *[["irreps", "--type", "B", "--n", "2", *o, "--format", f]
      for o in ([], ["--oracle"]) for f in ("json", "text")],
    *[["reps", *A11, *f] for f in ([], ["--format", "json"], ["--mode", "build"])],
    ["verify-all", *A11],
]


@pytest.mark.parametrize("argv", ONE_WRITER, ids=" ".join)
def test_output_file_gets_the_stdout_bytes(argv, tmp_path, capsys):
    from superhecke import cli

    code = cli.main(argv)
    stdout = capsys.readouterr().out
    out = tmp_path / "out"
    assert cli.main([*argv, "--output", str(out)]) == code
    assert capsys.readouterr() == ("", "")
    assert stdout and out.read_bytes() == stdout.encode()


@pytest.fixture
def uncached():
    # a test that corrupts a cached groupoid's tables must not leave it, or an
    # algebra built on it, in the caches for later tests
    from superhecke.groupoid import groupoid_for
    from superhecke.hecke import hecke_poly

    groupoid_for.cache_clear()
    hecke_poly.cache_clear()
    yield groupoid_for
    groupoid_for.cache_clear()
    hecke_poly.cache_clear()


@pytest.mark.parametrize("field", ["length", "first", "lgen", "smap"])
def test_verify_all_fails_on_a_corrupted_table_entry(uncached, monkeypatch, capsys, field):
    # "length theory" checks every edge (k, i) of the tables against the root
    # data, so one wrong entry is a FAIL and exit 1.  Element 143 of B(1,2)
    # has length 9 and every letter as a left descent, so a first of 2 is a
    # descent but not the smallest; s_3 w_143 is element 140, and element 139
    # has the same length, source and target, so only the maps tell them apart
    from superhecke import cli
    from superhecke.domains import Family

    G = uncached(Family("B", 1, 2))
    T = G.tables()
    k = 143
    assert (len(T.src), T.length[k], T.first[k], T.lgen[3][k]) == (144, 9, 1, 140)
    assert (T.length[139], T.src[139], T.tgt[139]) == (T.length[140], T.src[140], T.tgt[140])
    put = lambda values, value: values[:k] + (value,) + values[k + 1 :]
    if field == "lgen":
        corrupted = T._replace(lgen=T.lgen[:3] + (put(T.lgen[3], 139),) + T.lgen[4:])
    else:
        value = {"length": 11, "first": 2, "smap": T.smap[140]}[field]
        corrupted = T._replace(**{field: put(getattr(T, field), value)})
    monkeypatch.setattr(G, "_tables", corrupted)
    assert cli.main(["verify-all", "--family", "B", "--m", "1", "--n", "2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  length theory" in out.splitlines()
    assert out.endswith("FAILED\n")


@pytest.mark.parametrize("scalar", [[], ["--scalar", "eval", "--q=-2/3"]])
def test_streamed_structconst_is_the_json_dump(tmp_path, scalar):
    # the streamed writer against json.dumps of the whole document; at q0,
    # of the document built from the Fraction reference of the table
    from fractions import Fraction

    from superhecke import cli
    from superhecke.domains import Family
    from superhecke.hecke import hecke_poly
    from superhecke.scalars import rational_to_string

    from helpers import structure_constants_at

    fam = Family("CD", 2, 1)
    out = tmp_path / "table.json"
    argv = ["structconst", "--family", "CD", "--m", "2", "--n", "1", *scalar, "--output", str(out)]
    assert cli.main(argv) == 0
    alg = hecke_poly(fam)
    if scalar:
        entries = [
            {"u": u, "v": v, "terms": [{"w": w, "poly": rational_to_string(c)} for w, c in row]}
            for (u, v), row in structure_constants_at(fam, Fraction(-2, 3)).items()
        ]
        doc = {**alg.structconst_header(), "mode": "eval", "entries": entries}
    else:
        doc = alg.structure_constants_json()
    text = out.read_text()
    expected = json.dumps(doc, indent=2) + "\n"
    # a bool, not the strings: a diff of two megabyte documents takes minutes
    same = text == expected
    assert same, f"first difference at offset {len(os.path.commonprefix([text, expected]))}"


def test_oracle_runs_without_sympy(monkeypatch, capsys):
    # the oracle factors its minimal polynomials in-house: with sympy
    # unimportable it exits 0 with the bytes pinned in test_golden.py
    from superhecke import cli

    argv = ["irreps", "--type", "A", "--n", "3", "--oracle", "--seed", "5", "--format", "json"]
    monkeypatch.setitem(sys.modules, "sympy", None)
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "db478dc26d08a3c88b54ea76a8c2245f5ea8120e1da7215b555520b988f72200"
    # and a fresh oracle process never imports it
    probe = (
        "import sys\n"
        "from superhecke import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "assert 'sympy' not in sys.modules, 'the oracle imported sympy'\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--type", "A", "--n", "3", "--q", "-1"], "H_q(S_3) is not semisimple at q0 = -1"),
        (["--type", "A", "--n", "3", "--q", "0"], "H_q(S_3) is not semisimple at q0 = 0"),
        (["--type", "B", "--n", "3", "--q", "-1"], "H_q(W(B_3)) is not semisimple at q0 = -1"),
    ],
)
def test_oracle_at_a_non_semisimple_q0_is_a_usage_error(argv, message):
    # the regular module does not split there: exit 2 with one line before
    # any splitting, as irreps without --oracle does
    proc = run_cli("irreps", *argv, "--oracle")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


def test_oracle_that_runs_out_of_random_elements_is_declined(monkeypatch, capsys):
    # every random element fails to split: exit 2 with one line naming the
    # type and the number of elements tried, not a traceback
    from superhecke import cli, weylreps

    def always_retry(*args):
        raise weylreps._RetrySplit("no irreducible slice found")

    monkeypatch.setattr(weylreps, "_split_once", always_retry)
    assert cli.main(["irreps", "--type", "A", "--n", "3", "--oracle", "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "error: H_q(S_3) at q0 = 2: the splitting oracle gave up after 8 random "
        "elements (the last: no irreducible slice found)\n"
    )


def test_reps_verify_writes_text_by_default():
    proc = run_cli("reps", *A11)
    assert proc.returncode == 0
    assert proc.stdout.startswith("PASS  rank ")
    assert proc.stderr == ""


def test_reps_build_writes_json_by_default():
    proc = run_cli("reps", *A11, "--mode", "build")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["summands"]


def test_reps_build_refuses_text_format():
    proc = run_cli("reps", *A11, "--mode", "build", "--format", "text")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: reps --mode build writes JSON only; --format text is not available\n"


def test_an_internal_value_error_is_not_a_usage_error(monkeypatch):
    # only a UsageError means exit 2: a ValueError from inside the program is
    # a fault, and leaves cli.main with its traceback
    from superhecke import cli, superreps

    def boom(*args):
        raise ValueError("boom")

    monkeypatch.setattr(superreps, "big_map", boom)
    with pytest.raises(ValueError, match="boom") as exc:
        cli.main(["reps", *A11])
    assert type(exc.value) is ValueError


def test_verify_all_lets_an_internal_fault_through(monkeypatch):
    # a ValueError from the isomorphism check is a fault of the program, not
    # a FAIL line: it leaves cli.main with its traceback
    from superhecke import cli

    def boom(*args):
        raise ValueError("boom")

    monkeypatch.setattr(cli, "verify_isomorphism", boom)
    with pytest.raises(ValueError, match="boom"):
        cli.main(["verify-all", *A11])


@pytest.mark.parametrize(
    "argv, message",
    [
        (["irreps", "--type", "A", "--n", "0"], "S_n needs n >= 1"),
        (["poincare", "--type", "A", "--n", "0"], "S_n needs n >= 1"),
        (["reps", *A11, "--q", "-1"], "q0 = -1 violates q P_left(q) P_right(q) != 0 for A(1,1)"),
        (["verify-all", *A11, "--q", "0"], "q0 = 0 violates q P_left(q) P_right(q) != 0 for A(1,1)"),
        (["enumerate", "--family", "A", "--m", "2", "--n", "1", "--max-elements", "10"],
         "more than 10 elements"),
        (["structconst", *A11, "--scalar", "eval", "--q", "0"], "eval mode needs q0 != 0"),
        (["verify", *A11, "--scalar", "eval", "--q", "0"], "eval mode needs q0 != 0"),
        # C(n) has no m: --m is refused, not dropped
        (["dim", "--family", "C", "--m", "5", "--n", "3"],
         "--family C takes no --m: C(n) is the CD family at m = 1"),
    ],
)
def test_usage_errors_exit_2_with_one_line(argv, message, capsys):
    from superhecke import cli

    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
