"""Acceptance criteria, one test per criterion. The terminal summary prints a
pass/fail line for each (see conftest)."""

import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from keysift import gcm_ref
from keysift.capture import NonceStyle, parse_capture
from keysift.cli import EXIT_OK, main, run_pipeline
from keysift.decrypt import decrypt_record
from keysift.entropy import shannon_entropy
from keysift.errors import AuthFailure
from keysift.fixtures import (
    FixtureLayout,
    Filler,
    FixtureSpec,
    generate_fixture,
    reference_encrypt,
)
from keysift.memscan import (
    MB,
    BlockHypothesis,
    ScanConfig,
    load_extracts,
    scan_standard,
    scan_windows,
)
from keysift.report import render_json

from conftest import oracle_windows_scan


# ---------------------------------------------------------------------------
# 1. end-to-end oracle recovery, 50/50 seeded marker fixtures


def test_criterion_1_end_to_end_recovery(tmp_path):
    failures = []
    for seed in range(50):
        key_len = 16 if seed % 2 else 32
        spec = FixtureSpec(
            rng_seed=seed,
            key_len_bytes=key_len,
            layout=FixtureLayout.WINDOWS_MARKERS,
            extract_sizes=(256 * 1024, 2 * MB + (seed % 8) * 256 * 1024, 8 * MB),
            decoy_markers=3 + seed % 3,
            decoy_high_entropy_regions=2,
        )
        root = tmp_path / f"seed{seed:02d}"
        paths, truth = generate_fixture(spec, root)
        out = root / "report.json"
        code = main([
            "decrypt",
            "--extracts", str(paths.extract_dir),
            "--capture", str(paths.root),
            "--mode", "windows",
            "--output", str(out),
        ])
        report = json.loads(out.read_text()) if out.exists() else {}
        ok = (
            code == EXIT_OK
            and report.get("outcome") == "decrypted"
            and report["material"]["client_key"] == truth.client_key.hex()
            and report["material"]["client_iv"] == truth.client_iv.hex()
            and report["material"]["server_key"] == truth.server_key.hex()
            and report["material"]["server_iv"] == truth.server_iv.hex()
        )
        if ok:
            plaintexts = [r["plaintext_hex"] for r in report["session"]["records"]]
            ok = (
                truth.plaintext_client.hex() in plaintexts
                and truth.plaintext_server.hex() in plaintexts
                and not report["session"]["partial"]
            )
        if not ok:
            failures.append(seed)
    assert not failures, f"recovery failed for seeds {failures}"


# ---------------------------------------------------------------------------
# 2. candidate-set envelope on realistically shaped fixtures


def test_criterion_2_candidate_envelope(tmp_path):
    for seed in range(100, 105):
        key_len = 16 if seed % 2 else 32
        spec = FixtureSpec(
            rng_seed=seed,
            key_len_bytes=key_len,
            layout=FixtureLayout.WINDOWS_MARKERS,
            extract_sizes=(3 * MB,),
            decoy_markers=5,
            filler=Filler.LOW_ENTROPY_TEXT,
        )
        paths, truth = generate_fixture(spec, tmp_path / f"seed{seed}")
        extract_set = load_extracts(paths.extract_dir)
        cfg = ScanConfig(key_len_bytes=key_len)
        keys, ivs = scan_windows(extract_set, cfg)

        assert len(keys) <= 10, f"seed {seed}: {len(keys)} key candidates"
        assert len(ivs) <= 600, f"seed {seed}: {len(ivs)} IV candidates"
        assert any(k.value == truth.client_key for k in keys)
        assert any(v.value == truth.client_iv for v in ivs)

        # exact counts cross-checked against an independent rescan
        oracle_keys, oracle_ivs = oracle_windows_scan(extract_set, cfg)
        assert [(k.value, k.extract_id, k.offset) for k in keys] == [t[:3] for t in oracle_keys]
        assert [(v.value, v.extract_id, v.offset) for v in ivs] == [t[:3] for t in oracle_ivs]


# ---------------------------------------------------------------------------
# 3. timing envelope on a 73 MB extract set


def test_criterion_3_timing_envelope(tmp_path):
    sizes = (3 * MB,) + (272 * 1024,) * 264  # one key-bearing file among many small ones
    spec = FixtureSpec(
        rng_seed=777,
        key_len_bytes=32,
        extract_sizes=sizes,
        decoy_markers=8,
        decoy_high_entropy_regions=4,
    )
    paths, truth = generate_fixture(spec, tmp_path)
    extract_set = load_extracts(paths.extract_dir)
    assert len(extract_set.extracts) == 265
    assert extract_set.total_bytes == pytest.approx(73.2 * MB, rel=0.02)

    report = run_pipeline(paths.extract_dir, paths.root, mode="windows")
    assert report.outcome == "decrypted"
    assert report.material["client_key"] == truth.client_key.hex()
    memory_secs = report.timings["memory_analysis_secs"]
    decrypt_secs = report.timings["decrypt_analysis_secs"]
    assert memory_secs >= 0.0 and decrypt_secs >= 0.0
    assert memory_secs + decrypt_secs <= 5.0, f"analysis took {memory_secs + decrypt_secs:.2f}s"


# ---------------------------------------------------------------------------
# 4. standard-scan equivalence and pruning behavior


def test_criterion_4_standard_scan_recovers_plantings(tmp_path):
    for seed in range(200, 220):
        key_len = 16 if seed % 2 else 32
        hypothesis = (
            BlockHypothesis.IV_WAS_CLIENT if seed % 4 < 2 else BlockHypothesis.IV_WAS_SERVER
        )
        spec = FixtureSpec(
            rng_seed=seed,
            key_len_bytes=key_len,
            layout=FixtureLayout.GENERIC_KEY_BLOCK,
            filler=Filler.ZERO,
            explicit_nonce_style=NonceStyle.RANDOM_LIKE,
            extract_sizes=(2 * MB,),
            generic_hypothesis=hypothesis,
        )
        paths, truth = generate_fixture(spec, tmp_path / f"seed{seed}")
        capture = parse_capture(paths.root)
        extract_set = load_extracts(paths.extract_dir)
        blocks = scan_standard(extract_set, capture, ScanConfig(key_len_bytes=key_len))
        material = {truth.client_key, truth.server_key}
        assert any(
            {b.client_key, b.server_key} == material for b in blocks
        ), f"seed {seed} ({hypothesis.value}): planted block missing"

        report = run_pipeline(paths.extract_dir, paths.root, mode="standard")
        assert report.outcome == "decrypted", f"seed {seed}: {report.outcome}"
        assert report.material["client_key"] == truth.client_key.hex()


def test_criterion_4_counter_nonce_pruning(tmp_path):
    spec = FixtureSpec(
        rng_seed=4000,
        key_len_bytes=16,
        layout=FixtureLayout.GENERIC_KEY_BLOCK,
        filler=Filler.COUNTERS,
        explicit_nonce_style=NonceStyle.COUNTER_LIKE,
        extract_sizes=(2 * MB,),
        keyblock_copies=6,
        keyblock_copy_gap=250,
    )
    paths, truth = generate_fixture(spec, tmp_path)
    capture = parse_capture(paths.root)
    assert capture.first_explicit_nonce == bytes(7) + b"\x01"
    extract_set = load_extracts(paths.extract_dir)

    sweep = [
        len(scan_standard(extract_set, capture, ScanConfig(key_len_bytes=16, min_artefact_gap=g)))
        for g in (0, 300, 1000, 50_000)
    ]
    unpruned, _, pruned_default, _ = sweep
    assert unpruned > pruned_default > 0
    assert sweep == sorted(sweep, reverse=True)

    blocks = scan_standard(extract_set, capture, ScanConfig(key_len_bytes=16))
    assert any(b.client_key == truth.client_key for b in blocks)


# ---------------------------------------------------------------------------
# 5. AEAD soundness


def test_criterion_5_reference_known_answers_before_pipeline():
    vectors = [
        (
            bytes.fromhex("feffe9928665731c6d6a8f9467308308"),
            bytes.fromhex("cafebabefacedbaddecaf888"),
            bytes.fromhex(
                "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
                "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39"
            ),
            bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2"),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
            "5bc94fbc3221a5db94fae95ae7121a47",
        ),
        (
            bytes.fromhex(
                "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308"
            ),
            bytes.fromhex("cafebabefacedbaddecaf888"),
            bytes.fromhex(
                "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
                "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39"
            ),
            bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2"),
            "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
            "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662"
            "76fc6ece0f4e1768cddf8853bb2d551b",
        ),
    ]
    for key, nonce, plaintext, aad, expected in vectors:
        assert gcm_ref.seal(key, nonce, plaintext, aad).hex() == expected


def test_criterion_5_no_false_accepts():
    key = bytes.fromhex("8e7c9a1b4d2f6351a0b3c5d7e9f80214a6b8cad0e2f4061827394b5d6f708192")
    record = reference_encrypt(
        b"GET /check HTTP/1.1\r\nHost: example.test\r\n\r\n",
        key,
        b"\x11\x22\x33\x44",
        bytes(7) + b"\x01",
        seq=1,
    )
    rng = random.Random(0xACCE55)
    accepts = 0
    for _ in range(10_000):
        wrong = rng.randbytes(32)
        if wrong == key:
            continue
        try:
            decrypt_record(record, wrong, b"\x11\x22\x33\x44", 1)
            accepts += 1
        except AuthFailure:
            pass
    assert accepts == 0


# ---------------------------------------------------------------------------
# 6. entropy oracle


def test_criterion_6_entropy_values():
    assert abs(shannon_entropy(b"\x00" * 16) - 0.0) < 1e-9
    assert abs(shannon_entropy(bytes([1, 2, 3, 4])) - 2.0) < 1e-9
    assert abs(shannon_entropy(bytes(range(32))) - 5.0) < 1e-9
    assert abs(shannon_entropy(bytes(range(23))) - math.log2(23)) < 1e-9
    assert shannon_entropy(bytes(range(23))) > 4.5


@settings(max_examples=500, deadline=None)
@given(st.binary(min_size=16, max_size=16))
def test_criterion_6_16_byte_ceiling(segment):
    assert shannon_entropy(segment) <= 4.0 + 1e-12


def test_criterion_6_16_byte_ceiling_analytic():
    # even the best histogram (16 distinct singletons) only reaches log2(16)
    def max_entropy(n, distinct):
        base, extra = divmod(n, distinct)
        counts = [base + 1] * extra + [base] * (distinct - extra)
        return -sum((c / n) * math.log2(c / n) for c in counts if c)

    assert max(max_entropy(16, d) for d in range(1, 17)) == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# 7. determinism


def test_criterion_7_byte_identical_reports(windows_fixture_16):
    _, paths, _ = windows_fixture_16
    zero_clock = lambda: 0.0
    for mode in ("windows", "auto"):
        runs = [run_pipeline(paths.extract_dir, paths.root, mode=mode, clock=zero_clock) for _ in range(2)]
        rendered = [render_json(r.to_dict()) for r in runs]
        assert len(set(rendered)) == 1, f"mode {mode} reports diverged"


def test_criterion_7_cli_reports_byte_identical(windows_fixture_32, tmp_path):
    _, paths, _ = windows_fixture_32
    outputs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main([
            "decrypt", "--extracts", str(paths.extract_dir), "--capture", str(paths.root),
            "--no-timings", "--output", str(out),
        ])
        assert code == EXIT_OK
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
