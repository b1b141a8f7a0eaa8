"""Pinned ``keysift decrypt --no-timings`` reports.

Each case fixes the exit code and the sha256 of the JSON and text reports for
one fixture and scan mode, so a change that alters any byte of a report fails
here. A deliberate report change (for example, band-by-band search changing
``winner_index`` and ``attempted``) updates these digests in the same change
and says why.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from keysift.capture import NonceStyle
from keysift.cli import main
from keysift.fixtures import FixtureLayout, Filler, FixtureSpec, generate_fixture
from keysift.memscan import MB

# (fixture, mode) -> (exit code, sha256 of the JSON report, sha256 of the text report)
PINNED = {
    ("key_block_fixture", "auto"): (
        0,
        "fa2d8d615e86cdcf3f220eb786b2194c3bbc7bf4bf01ebcbdcf0d44957e3ea32",
        "20e7b1d496ab635a76a58f033f998fe0f3f69e2416495f32dbf664527b40fcff",
    ),
    ("key_block_fixture", "standard"): (
        0,
        "323f58b29e4ceb4fe40bdf5feb2fcb3380b106534c479b366f8e4ec2ae8fdeae",
        "55a21b9fea14a487c8663db47faa7d52ea26b32537ac19ba406736b9e9db9c7d",
    ),
    ("key_block_fixture", "windows"): (
        2,
        "40940f4e4d8ff6a704557aac9cb83ba154d90fea5435bb02f1c9d655bca39155",
        "b45a46c1cb39a46a3db3e2b2aee225a4b87eb89e40f259aeb5598f01704557f5",
    ),
    ("windows_fixture_16", "auto"): (
        0,
        "872dc9ce93f1e9c3ee2db26869d963277a7ac1b41faea144cea35571e3f6d977",
        "2b818238226c4c651ee88dd889a712b7357ddf0152f70743797fd9ce35150619",
    ),
    ("windows_fixture_16", "standard"): (
        2,
        "e2cfcccaff44058067c63fa9dd6ec8ae060610fea5d40ee48dca1a0697837a0d",
        "dc457114f560847c21ea1ab3b7659954a20136f4e5b99d829770dd25b79473c1",
    ),
    ("windows_fixture_16", "windows"): (
        0,
        "171322e4ccfb01f1f53b020c4c18714c6bb92605868b15b1c690ee6c48d88219",
        "d65474f1e7f21f5b860ab0fb1be0cf04d807f6e5f703b67873fe31fc8fbfd120",
    ),
    ("windows_fixture_32", "auto"): (
        0,
        "b6fb9f17800aadc350288d80dee84554f5ae1156bd9e3401a6e1b30b305ccda7",
        "330d6abb3369a63f1aee2a8e6f757420903c2de749fc7aa3dd64d3e3928f2cf8",
    ),
    ("windows_fixture_32", "standard"): (
        2,
        "e2cfcccaff44058067c63fa9dd6ec8ae060610fea5d40ee48dca1a0697837a0d",
        "dc457114f560847c21ea1ab3b7659954a20136f4e5b99d829770dd25b79473c1",
    ),
    ("windows_fixture_32", "windows"): (
        0,
        "1899878a1af17cac02312a78055ca56d18b0ea6564ca44e2f6b7c39d579bc195",
        "492d437e8975f22c19809ab6676dce659f7d02227216e653bc78b5844ddbd631",
    ),
}


@pytest.fixture(scope="module")
def key_block_fixture(tmp_path_factory):
    spec = FixtureSpec(
        rng_seed=51,
        key_len_bytes=32,
        layout=FixtureLayout.GENERIC_KEY_BLOCK,
        filler=Filler.ZERO,
        explicit_nonce_style=NonceStyle.RANDOM_LIKE,
        extract_sizes=(2 * MB,),
    )
    paths, truth = generate_fixture(spec, tmp_path_factory.mktemp("keyblock"))
    return spec, paths, truth


def _report(paths, mode, fmt, out):
    code = main([
        "decrypt", "--extracts", str(paths.extract_dir), "--capture", str(paths.root),
        "--mode", mode, "--format", fmt, "--no-timings", "--output", str(out),
    ])
    return code, out.read_bytes()


@pytest.mark.parametrize("fixture, mode", sorted(PINNED))
def test_no_timings_reports_match_pinned_digests(request, tmp_path, fixture, mode):
    _, paths, _ = request.getfixturevalue(fixture)
    code, json_report = _report(paths, mode, "json", tmp_path / "report.json")
    text_code, text_report = _report(paths, mode, "text", tmp_path / "report.txt")
    got = (code, hashlib.sha256(json_report).hexdigest(), hashlib.sha256(text_report).hexdigest())
    payload = json.loads(json_report)
    assert text_code == code
    assert got == PINNED[fixture, mode], (
        f"trials: {payload['trials']}\nmaterial: {payload['material']}\ngot: {got}"
    )
