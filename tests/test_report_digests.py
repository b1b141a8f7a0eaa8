"""Pinned ``keysift decrypt --no-timings`` reports.

Each case fixes the exit code and the sha256 of the JSON and text reports for
one fixture and scan mode, so a change that alters any byte of a report fails
here. A deliberate report change updates these digests in the same change
and says why. The comment on each case gives the report's
``candidates.bands_scanned``.
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
    ("key_block_fixture", "auto"): (  # bands_scanned [1]
        0,
        "7cf42a818ec83bb601245f46a84653951e866df1b90cdb33427d590b53f2f27d",
        "a7562e7563df1ac1f9862695232bd586b256bdff147933fd0ecaa5b54afed3d3",
    ),
    ("key_block_fixture", "standard"): (  # bands_scanned [1]
        0,
        "cbb983268c717b7388e32f8a46540930d48ba00c0e52b63037e21fdcfa454a5e",
        "464e937b1266d1a1619c20e047ad0dfcd8dad91bddefd98a74192a411cf2d31d",
    ),
    ("key_block_fixture", "windows"): (  # bands_scanned [1, 2, 3]
        2,
        "dc4afa409896319735b2dfa962488394b5a24d7ca229c372f824ed4178fdd479",
        "3bc457eb2c42b96fbe093fd2b64500e2d16dde7c5e62b1368d3296f1a3da601b",
    ),
    ("windows_fixture_16", "auto"): (  # bands_scanned [1]
        0,
        "65355aa81bc240ec420fbe2b1537f7a7931bab5f0410cb5300e3d4ab284e4454",
        "3400ee50b1b8ab55975adc206dda4189bb82b29a5421183b0b4713bfee09b5c6",
    ),
    ("windows_fixture_16", "standard"): (  # bands_scanned [1, 2, 3]
        2,
        "b901fc2fd348fc7178905863cf7960f28bfc4e5ad883670622d9516950dc368b",
        "c302e035f2dcb7b4333197718e57a9e5f104ed21753ac0f09ba299be7842bebc",
    ),
    ("windows_fixture_16", "windows"): (  # bands_scanned [1]
        0,
        "ccb50e60236befa0d2c72ee0a75a736bba6ef4806769bab996535bf49a99eaf7",
        "eabc441cd3125910bbf287ea9de2f0a21b526f16db4cfe4715f69fbc135f1f8c",
    ),
    ("windows_fixture_32", "auto"): (  # bands_scanned [1]
        0,
        "08ce66dc5623de8c24b3d5ac6973067356e4fa29de15e6d31533055f2b9a9a39",
        "8db99e109d4135a14360732d8b91f87ab7ef3e8538d331ef4d33d0150db2feee",
    ),
    ("windows_fixture_32", "standard"): (  # bands_scanned [1, 2, 3]
        2,
        "b901fc2fd348fc7178905863cf7960f28bfc4e5ad883670622d9516950dc368b",
        "c302e035f2dcb7b4333197718e57a9e5f104ed21753ac0f09ba299be7842bebc",
    ),
    ("windows_fixture_32", "windows"): (  # bands_scanned [1]
        0,
        "a59c5c4f8cb04f8ddc57aed83981b808a51ea33b3d98dbef561a8f7b508f4889",
        "25b2e95651323fe2c170372ac7b4663d8c518accb59dc803172da52cc50b6415",
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
