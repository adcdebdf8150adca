"""Pinned CLI outputs: sha256 of the whole document, recorded before the
groupoid tables and the streamed structure-constant writer replaced the
element-keyed code, so any change to a byte of these outputs shows here.
The irreps pins were recorded on the Fraction-matrix splitting oracle, before
it moved to integer kernels: the same seed must give the same bytes.  The
reps and verify-all pins were recorded while each box tensor was still built
as Fraction blocks and scaled to integers afterwards.  The osp(4|2)
structconst and osp(4|4) verify pins were recorded while the Hecke layer
still computed on LaurentPoly objects, before it moved to coefficient ids.
The osp(6|2) and osp(2|6) reps pins, the first to reach a W(D_m) fork with
m >= 3 and a right factor of rank n >= 3, were recorded while the box tensor
still read its classical generators off a hand-written case table."""

import hashlib

import pytest

from superhecke import cli

FAMILIES = {
    "A(1,1)": ["--family", "A", "--m", "1", "--n", "1"],
    "B(1,2)": ["--family", "B", "--m", "1", "--n", "2"],
    "osp(2|4)": ["--family", "CD", "--m", "1", "--n", "2"],
    "A(0,2)": ["--family", "A", "--m", "0", "--n", "2"],
    "A(2,1)": ["--family", "A", "--m", "2", "--n", "1"],
    "B(0,3)": ["--family", "B", "--m", "0", "--n", "3"],
    "B(1,1)": ["--family", "B", "--m", "1", "--n", "1"],
    "B(2,1)": ["--family", "B", "--m", "2", "--n", "1"],
    "B(2,2)": ["--family", "B", "--m", "2", "--n", "2"],
    "osp(2|2)": ["--family", "CD", "--m", "1", "--n", "1"],
    "osp(4|2)": ["--family", "CD", "--m", "2", "--n", "1"],
    "osp(4|4)": ["--family", "CD", "--m", "2", "--n", "2"],
    "osp(6|2)": ["--family", "CD", "--m", "3", "--n", "1"],
    "osp(2|6)": ["--family", "CD", "--m", "1", "--n", "3"],
}
EVAL = ["--scalar", "eval", "--q"]
REPS = ["reps", "--format", "json", "--q"]

GOLDEN = [
    ("A(1,1)", ["structconst"], "dc4fe45438a9faf8950e54e64eb8cead6ba6e71ea576c7ef235692fe48335149"),
    ("A(1,1)", ["structconst", *EVAL, "2"], "dbc689aed9a6d0bd91ae5b65d5c56f67ce65e7facb2805bdbbde91a298c5c289"),
    ("A(1,1)", ["structconst", *EVAL, "1/3"], "cd661cab7cba4465c9789b5e62a80ed4b0f97e1d992a8937c333071e1da8b59f"),
    ("A(1,1)", ["structconst", *EVAL, "1"], "b3afe64ae422a122b43b566b9659b06b2d18be9306eeb2600ece599f7d875207"),
    ("A(1,1)", ["enumerate", "--format", "json"], "348cdd15cd228a59a7e87fc2edfb91bf34886e2489dd2fe46bb59ecf91f1008d"),
    ("B(1,2)", ["structconst"], "ee2ef25721cbbc8a6b530d0455661ac1e91bb99d07daa87225d55e61c4a4bbda"),
    ("B(1,2)", ["structconst", *EVAL, "2"], "0b1f664859bfc3d70da81feeb1330df0cc950f1eb675ba6075b8120dc7eddbd2"),
    ("B(1,2)", ["structconst", *EVAL, "1/3"], "feeeb860a589202d6debdaac2534198de60ab902f5b7a0e27f96834676106d16"),
    ("B(1,2)", ["structconst", *EVAL, "1"], "b3139545b921a9a12c6e81235a6106ad05de308c68742bfc506274201720438a"),
    ("B(1,2)", ["enumerate", "--format", "json"], "e72927380ca5b3cc90810d5d8f6727793fd660bb89c7d18dcd42d720e956ef5f"),
    ("osp(2|4)", ["structconst"], "d4c40070b440ba227ecbe930ecce88a5aeb308c6a5737d0fc20155b90a6f672e"),
    ("osp(2|4)", ["structconst", *EVAL, "2"], "f4693a87649fe098bb0bb680d73d34ae11f3baf1fe170eb69f2e2b0ffc1e77f6"),
    ("osp(2|4)", ["structconst", *EVAL, "1/3"], "5db4deed276384aa8fdab18741b8027e84f4fa511cc87688eb5a92f3c8d98fb6"),
    ("osp(2|4)", ["structconst", *EVAL, "1"], "34d711721240326a1a6fb47712bdec3de8361dabcc64fe7d3cb0e9edc87a89f3"),
    ("osp(2|4)", ["enumerate", "--format", "json"], "66569a80d4f74ee8e908affbcac0ebdf5c7cdd23fb82c611b9b7e567db42f494"),
    ("osp(4|2)", ["structconst"], "91d779552d1b5e911f21e2d233181f6f1fb91f57d0cc38ec5ff37fc23b623174"),
    ("osp(4|2)", ["structconst", *EVAL, "1/3"], "7321ceca66cc9d9af1b3af4bf15040ae6f69ae64f0e54e32d26b45032b29b417"),
    ("osp(4|4)", ["verify", "--format", "json"], "039ff83f23c46e72fc0488d4b88e274cf9f35ac4a6b33074e0eeee473dc35cf5"),
    ("A(1,1)", [*REPS, "2"], "ddb14c8b6a6c99e3d5fe5616748bb7bb535662ebde2d09d3859057fd0be679f4"),
    ("B(2,1)", [*REPS, "2"], "3522b61b63dd1d2979e7bcd643a5b79de7b8ecc5b1499bb43a70cdc57b700e3c"),
    ("osp(2|4)", [*REPS, "2"], "8074eb882ff6c644d8caf248e852129dd423cea5c3ee4921fcde1658fef2c411"),
    ("osp(2|4)", [*REPS, "1/3"], "61545f7353318bc67b37fbbbbcfb8a70352dc58eebf0492affcd2e3f99b65cdc"),
    ("A(0,2)", [*REPS, "2"], "28b6667118df2aef111de8a0ca1f2e353b38b94f7fd3ad944135b5249b8680e0"),
    ("B(1,2)", [*REPS, "2"], "780a6b142440df5b1b8b2da671c59b356a029b86af8f69f92049115980ac52a0"),
    ("osp(4|2)", [*REPS, "2"], "03e47cd26b4319d8df6c17f07890828dc9c33f6d59e38e93cbee0eb95ecbf4b3"),
    ("B(0,3)", [*REPS, "1/3"], "8031695ca97fc22eb7a6a0b0d20175116ac6d1aff7e3e812aecb57337000f9d0"),
    ("A(2,1)", [*REPS, "2"], "48f5a16c72c080dfad0db0b8dba0bb0dbb404aa8225f4b061f262752445895c7"),
    ("B(2,2)", [*REPS, "2"], "ee744ab567a8384106d70dfb1a697eb948e199707649d51e1933f20004c26eca"),
    ("osp(4|4)", [*REPS, "1/3"], "eae7b12193e9a8a1fca23d8400d10bf1f64246995e49b8c176714bc6d96e58a4"),
    ("osp(6|2)", [*REPS, "1/3"], "755c1d4d76ca839862d0b05e8ae7b90eb76490ea80cc6a9d25f3bcedaa49a96c"),
    ("osp(2|6)", [*REPS, "1/3"], "4d8d575b53608821e1c265d8c4da587862b060ee7d2e4e72d878002f25f7e3ac"),
    ("A(1,1)", ["reps", "--mode", "build"], "b4ace4884f918e8318ed00db879e9869f9a0caa5d8a3a0dd9ba983f44e099907"),
    ("osp(2|4)", ["reps", "--mode", "build"], "31c589e61dcaaad1f32cfbce7f812eb18a213edf62cd8660596e67e51a848ab9"),
    ("A(1,1)", ["verify-all"], "a363f86fd7f7652816612ba2cec61b22b045a4d38bac19cd8147578bed553f6d"),
    ("B(1,1)", ["verify-all"], "8d9b81fb711c6045dcc5301285cb231c552c25fee257b4f2f754dbcce67fc7cc"),
    ("A(2,1)", ["verify-all"], "32d149473b0c95a9c9c5d3bd27b6955d0aa88ce6c3490cfbf342338f94983dbe"),
    ("osp(2|2)", ["verify-all"], "a9068eae31982acba6e16be7dde4effc79923d143cf050c14a2e0e0554e7fd83"),
]


@pytest.mark.parametrize(
    "family, argv, digest", GOLDEN, ids=[f"{f} {' '.join(a)}" for f, a, _ in GOLDEN]
)
def test_cli_output_matches_pinned_checksum(tmp_path, family, argv, digest):
    out = tmp_path / "out.json"
    command, rest = argv[0], argv[1:]
    assert cli.main([command, *FAMILIES[family], *rest, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# verify, structconst and verify-all past the braid check's 200-element cap
# read only the groupoid's integer tables: they build no Element and walk none
# through the single-element entry points
TABLE_ONLY = [
    (f, a, d) for f, a, d in GOLDEN
    if (f, a[0]) in {("A(2,1)", "verify-all"), ("osp(4|4)", "verify"), ("osp(4|2)", "structconst")}
]


@pytest.mark.parametrize(
    "family, argv, digest", TABLE_ONLY, ids=[f"{f} {' '.join(a)}" for f, a, _ in TABLE_ONLY]
)
def test_verify_paths_build_no_element(monkeypatch, tmp_path, family, argv, digest):
    from superhecke.groupoid import CoxeterGroupoid

    def refuse(*args, **kwargs):
        raise AssertionError("a verify path built or walked an Element")

    for name in ("elements", "evaluate", "canonical_reduced_word", "all_reduced_words", "braid_connected"):
        monkeypatch.setattr(CoxeterGroupoid, name, refuse)
    test_cli_output_matches_pinned_checksum(tmp_path, family, argv, digest)


IRREPS_GOLDEN = [
    (["--type", "A", "--n", "4", "--oracle", "--seed", "0"], "06a762552bd67ca0302a444e9a11b2837fae40dc89208281eb4d71b2a442a0e7"),
    (["--type", "D", "--n", "3", "--oracle", "--seed", "0"], "7b376e7c1d0aabf1e02fe86c11895627eb1e7c26806cd6fd387f70621adecc0e"),
    (["--type", "A", "--n", "3", "--oracle", "--seed", "5"], "db478dc26d08a3c88b54ea76a8c2245f5ea8120e1da7215b555520b988f72200"),
    (["--type", "B", "--n", "2", "--oracle", "--seed", "5"], "5bbfa2ba9149a296e576b3875395cad6ecdf47731133e1e42a18ea9649ea43a0"),
    (["--type", "B", "--n", "2", "--oracle", "--q", "1/3"], "aafa24ba1960318953d14c3a60e9bde468020e918e3e27f5b5a39fcfb5d2d251"),
    (["--type", "A", "--n", "3", "--oracle", "--q", "5/7", "--seed", "3"], "c9223904b9fee433226db932b0613a8da28da1b7edd8f5f0b0a49e87b481d61f"),
    (["--type", "D", "--n", "4"], "3a8ce82b7ac068351814a90e9ef969b0d30e92f1b4c0a3357367d25d612bcc73"),
    (["--type", "B", "--n", "4"], "9496e2944a10e844bc491a4967332dd8e70a0e851915b7d8af105aefcb587807"),
    (["--type", "A", "--n", "4", "--q", "1/3"], "af686652a30c27a749da7bfd211e17d783fa2a60f57f46cbf799c7832850ad73"),
    # recorded while the halves of (lam, lam) were split by a commutant search
    (["--type", "D", "--n", "6"], "f7464ca872700179be5cf536f7608641d9399b7b530723fc18984e7281d290e2"),
]


@pytest.mark.parametrize("argv, digest", IRREPS_GOLDEN, ids=[" ".join(a) for a, _ in IRREPS_GOLDEN])
def test_irreps_output_matches_pinned_checksum(tmp_path, argv, digest):
    out = tmp_path / "out.json"
    assert cli.main(["irreps", *argv, "--format", "json", "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# The oracle's output over a sweep of types, q0 and seeds, as one digest of
# the concatenated JSON documents, in the order of the loops below; recorded
# while the oracle still tested every repeated irreducible of a piece and
# split its pieces on Fraction matrices.
SWEEP_TYPES = [("A", 2), ("A", 3), ("B", 2), ("D", 2), ("D", 3)]
SWEEP_Q0 = ["2", "1/3", "-2"]
SWEEP_DIGEST = "2bf3b7952ca3ed1e767d7d7e71c62f18cd0fab4b24e9189560bfcc34fa048bf7"


def test_oracle_sweep_matches_pinned_checksum(tmp_path):
    out = tmp_path / "out.json"
    digest = hashlib.sha256()
    for kind, n in SWEEP_TYPES:
        for q0 in SWEEP_Q0:
            for seed in range(4):
                argv = ["--type", kind, "--n", str(n), "--q", q0, "--seed", str(seed), "--oracle"]
                assert cli.main(["irreps", *argv, "--format", "json", "--output", str(out)]) == 0
                digest.update(out.read_bytes())
    assert digest.hexdigest() == SWEEP_DIGEST


# `words --format json` over a fixed-seed sweep, as one digest of the
# concatenated documents in the order of WORDS_FAMILIES; recorded while `words`
# still multiplied Element objects and counted inverted roots.  Each family
# gets the empty word, a non-reduced word with a repeated letter and random
# words of up to 7 letters at random bases; A(7,7), with 12 870 domains, is
# far too large to enumerate.
WORDS_FAMILIES = {
    **FAMILIES,
    "osp(6|4)": ["--family", "CD", "--m", "3", "--n", "2"],
    "A(7,7)": ["--family", "A", "--m", "7", "--n", "7"],
}
WORDS_DIGEST = "fbacce2eb285ca22e1b03c9cf07c93538d4c3499c03d9484e9485fde38f95148"


def words_sweep():
    """The (family argv, base JSON, letters) of the sweep, in order."""
    import json
    import random

    from superhecke.domains import Family, domain_to_json, enumerate_domains

    for seed, argv in enumerate(WORDS_FAMILIES.values()):
        fam = Family(argv[1], int(argv[3]), int(argv[5]))
        rng = random.Random(seed)
        doms = enumerate_domains(fam)
        i = rng.randint(1, fam.rank)
        words = [(), (i, i)] + [
            tuple(rng.randint(1, fam.rank) for _ in range(rng.randint(1, 7))) for _ in range(10)
        ]
        for letters in words:
            base = json.dumps(domain_to_json(rng.choice(doms)))
            yield argv, base, ",".join(map(str, letters))


def test_words_sweep_matches_pinned_checksum(tmp_path):
    out = tmp_path / "out.json"
    digest = hashlib.sha256()
    for argv, base, letters in words_sweep():
        cmd = ["words", *argv, "--base", base, "--letters", letters, "--format", "json"]
        assert cli.main([*cmd, "--output", str(out)]) == 0
        digest.update(out.read_bytes())
    assert digest.hexdigest() == WORDS_DIGEST


# one word of A(7,7), recorded with the sweep; the CI step "Words without
# enumeration" pins the same bytes
WORDS_A77 = [
    "words", *WORDS_FAMILIES["A(7,7)"], "--base", "[0,0,0,0,0,0,0,0,1,1,1,1,1,1,1,1]",
    "--letters", "8,7,9,8,1,15,14,8,9", "--format", "json",
]
WORDS_A77_DIGEST = "a1620c967e4c764436e6010182302e5c542978436be2fa14c3105eed85dbe4a9"


def test_words_never_enumerates(monkeypatch, tmp_path):
    from superhecke.groupoid import CoxeterGroupoid

    def refuse(*args, **kwargs):
        raise AssertionError("words ran the groupoid's search")

    monkeypatch.setattr(CoxeterGroupoid, "_breadth_first", refuse)
    out = tmp_path / "out.json"
    assert cli.main([*WORDS_A77, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == WORDS_A77_DIGEST


# The outputs that no pin above covers, as one digest over (argv, exit code,
# stdout) in the order of uncovered_outputs(); recorded while each subcommand
# still wrote its own output, before cli.main became the one writer.
UNCOVERED_WORDS = {
    "A(1,1)": ["--base", "[0,1,0,1]", "--letters", "2,1,3,2,1"],
    "osp(2|4)": ["--base", '{"p":[1,0,1],"tag":"C+"}', "--letters", "1,2,3,2"],
}
UNCOVERED_DIGEST = "f95a5970f89828629fb4f699a761caef0db64b56616356ac0e6ac70a8c5a26cf"


def uncovered_outputs():
    """The argv of every output in the uncovered-outputs digest, in order."""
    for name, word in UNCOVERED_WORDS.items():
        fam = FAMILIES[name]
        for fmt in ("text", "json"):
            yield ["domains", *fam, "--format", fmt]
            yield ["dynkin", *fam, "--format", fmt]
            yield ["dim", *fam, "--format", fmt]
            yield ["words", *fam, *word, "--format", fmt]
        yield ["enumerate", *fam]
        yield ["verify", *fam]
        for q0 in ("2", "1/3"):
            yield ["reps", *fam, "--q", q0]
    for kind, n in (("A", "4"), ("B", "3"), ("D", "4")):
        for q in ([], ["--q", "1"], ["--q", "2"], ["--q", "-1"]):
            for fmt in ("text", "json"):
                yield ["poincare", "--type", kind, "--n", n, *q, "--format", fmt]
    for kind, n in (("A", "3"), ("B", "2"), ("D", "4")):
        yield ["irreps", "--type", kind, "--n", n]
    yield ["irreps", "--type", "A", "--n", "3", "--oracle", "--seed", "0"]


def test_uncovered_outputs_match_pinned_checksum(capsys):
    import json

    digest = hashlib.sha256()
    for argv in uncovered_outputs():
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert err == ""
        digest.update(json.dumps([argv, code, out]).encode() + b"\n")
    assert digest.hexdigest() == UNCOVERED_DIGEST
