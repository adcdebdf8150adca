"""Pinned CLI outputs: sha256 of the whole document, recorded before the
groupoid tables and the streamed structure-constant writer replaced the
element-keyed code, so any change to a byte of these outputs shows here.
The irreps pins were recorded on the Fraction-matrix splitting oracle, before
it moved to integer kernels: the same seed must give the same bytes."""

import hashlib

import pytest

from superhecke import cli

FAMILIES = {
    "A(1,1)": ["--family", "A", "--m", "1", "--n", "1"],
    "B(1,2)": ["--family", "B", "--m", "1", "--n", "2"],
    "osp(2|4)": ["--family", "CD", "--m", "1", "--n", "2"],
}
EVAL = ["--scalar", "eval", "--q"]

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
]


@pytest.mark.parametrize(
    "family, argv, digest", GOLDEN, ids=[f"{f} {' '.join(a)}" for f, a, _ in GOLDEN]
)
def test_cli_output_matches_pinned_checksum(tmp_path, family, argv, digest):
    out = tmp_path / "out.json"
    command, rest = argv[0], argv[1:]
    assert cli.main([command, *FAMILIES[family], *rest, "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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
]


@pytest.mark.parametrize("argv, digest", IRREPS_GOLDEN, ids=[" ".join(a) for a, _ in IRREPS_GOLDEN])
def test_irreps_output_matches_pinned_checksum(tmp_path, argv, digest):
    out = tmp_path / "out.json"
    assert cli.main(["irreps", *argv, "--format", "json", "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
