"""Pinned CLI outputs: sha256 of the whole document, recorded before the
groupoid tables and the streamed structure-constant writer replaced the
element-keyed code, so any change to a byte of these outputs shows here."""

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
