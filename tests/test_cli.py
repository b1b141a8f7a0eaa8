import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from keysift.capture import NonceStyle, parse_capture
from keysift.cli import EXIT_ERROR, EXIT_NO_DECRYPT, EXIT_OK, main, run_pipeline
from keysift.fixtures import FixtureLayout, Filler, FixtureSpec, generate_fixture
from keysift.memscan import MB, ScanConfig, load_extracts, scan_windows


def _run(argv):
    return main(argv)


def test_decrypt_windows_fixture(windows_fixture_32, tmp_path):
    _, paths, truth = windows_fixture_32
    out = tmp_path / "report.json"
    code = _run([
        "decrypt",
        "--extracts", str(paths.extract_dir),
        "--capture", str(paths.root),
        "--mode", "windows",
        "--output", str(out),
    ])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["outcome"] == "decrypted"
    assert report["mode_used"] == "windows"
    assert report["material"]["client_key"] == truth.client_key.hex()
    assert report["material"]["server_key"] == truth.server_key.hex()
    plaintexts = {r["plaintext_hex"] for r in report["session"]["records"]}
    assert truth.plaintext_client.hex() in plaintexts
    assert truth.plaintext_server.hex() in plaintexts
    assert report["timings"]["memory_analysis_secs"] >= 0.0
    assert report["timings"]["decrypt_analysis_secs"] >= 0.0


def test_report_counts_match_scanner(windows_fixture_32, tmp_path):
    _, paths, _ = windows_fixture_32
    out = tmp_path / "report.json"
    code = _run([
        "decrypt", "--extracts", str(paths.extract_dir), "--capture", str(paths.root),
        "--mode", "windows", "--output", str(out),
    ])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    capture = parse_capture(paths.root)
    keys, ivs = scan_windows(
        load_extracts(paths.extract_dir), ScanConfig(key_len_bytes=capture.handshake.key_len_bytes)
    )
    assert report["candidates"]["keys"] == len(keys)
    assert report["candidates"]["ivs"] == len(ivs)


def test_auto_mode_counter_uses_windows(windows_fixture_16, tmp_path):
    _, paths, _ = windows_fixture_16
    out = tmp_path / "report.json"
    code = _run([
        "decrypt", "--extracts", str(paths.extract_dir), "--capture", str(paths.root),
        "--mode", "auto", "--output", str(out),
    ])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["nonce_style"] == "counter"
    assert report["mode_used"] == "windows"
    assert report["candidates"]["keys"] <= 6


def test_auto_mode_random_falls_back_to_standard(tmp_path):
    spec = FixtureSpec(
        rng_seed=51,
        key_len_bytes=32,
        layout=FixtureLayout.GENERIC_KEY_BLOCK,
        filler=Filler.ZERO,
        explicit_nonce_style=NonceStyle.RANDOM_LIKE,
        extract_sizes=(2 * MB,),
    )
    paths, truth = generate_fixture(spec, tmp_path / "fix")
    out = tmp_path / "report.json"
    code = _run([
        "decrypt", "--extracts", str(paths.extract_dir), "--capture", str(paths.root),
        "--mode", "auto", "--output", str(out),
    ])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["nonce_style"] == "random"
    assert report["mode_used"] == "standard"
    assert report["material"]["client_key"] == truth.client_key.hex()
    assert report["material"]["hypothesis"] == "iv_was_client"


def test_windows_mode_markerless_extracts_clean_failure(tmp_path):
    (tmp_path / "extracts").mkdir()
    (tmp_path / "extracts" / "blank.bin").write_bytes(bytes(2 * MB))
    spec = FixtureSpec(rng_seed=1, extract_sizes=(1 * MB,))
    paths, _ = generate_fixture(spec, tmp_path / "fix")
    out = tmp_path / "report.json"
    code = _run([
        "decrypt", "--extracts", str(tmp_path / "extracts"), "--capture", str(paths.root),
        "--mode", "windows", "--output", str(out),
    ])
    assert code == EXIT_NO_DECRYPT
    report = json.loads(out.read_text())
    assert report["outcome"] == "no_valid_decrypt"
    assert report["session"] is None


def test_operational_error_exit_code(tmp_path):
    code = _run([
        "decrypt", "--extracts", str(tmp_path / "missing"), "--capture", str(tmp_path / "nope"),
    ])
    assert code == EXIT_ERROR


_DECRYPT = ("decrypt", "--extracts", "{extracts}", "--capture", "{capture}")


@pytest.mark.parametrize("argv", [
    ("decrypt", "--extracts", "{extracts}"),
    _DECRYPT + ("--workers", "2"),
    _DECRYPT + ("--step", "0"),
    _DECRYPT + ("--min-gap", "-1"),
    _DECRYPT + ("--filter", "bogus"),
    _DECRYPT + ("--seq-window", "-1"),
    ("scan", "--extracts", "{extracts}", "--step", "0"),
    ("entropy-profile", "--extracts", "{extracts}", "--window", "0"),
    ("entropy-profile", "--extracts", "{extracts}", "--window", "-4"),
    ("entropy-profile", "--extracts", "{extracts}", "--region-windows", "0"),
], ids=["missing-capture", "workers", "step-0", "negative-gap", "bad-filter", "negative-seq-window", "scan-step-0",
        "profile-window-0", "profile-negative-window", "profile-region-windows-0"])
def test_usage_errors_exit_1_with_one_error_line(windows_fixture_16, capsys, argv):
    _, paths, _ = windows_fixture_16
    code = _run([arg.format(extracts=paths.extract_dir, capture=paths.root) for arg in argv])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        _run(["decrypt", "--help"])
    assert info.value.code == 0
    assert "--extracts" in capsys.readouterr().out


def test_scan_windows_command(windows_fixture_16, capsys):
    _, paths, truth = windows_fixture_16
    code = _run(["scan", "--extracts", str(paths.extract_dir), "--mode", "windows",
                 "--key-size", "16"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "windows"
    values = {entry["value"] for entry in payload["keys"]}
    assert truth.client_key.hex() in values


def test_scan_standard_command(tmp_path, capsys):
    spec = FixtureSpec(
        rng_seed=52,
        key_len_bytes=16,
        layout=FixtureLayout.GENERIC_KEY_BLOCK,
        filler=Filler.ZERO,
        explicit_nonce_style=NonceStyle.RANDOM_LIKE,
        extract_sizes=(2 * MB,),
    )
    paths, truth = generate_fixture(spec, tmp_path)
    code = _run([
        "scan", "--extracts", str(paths.extract_dir), "--mode", "standard",
        "--capture", str(paths.root),
    ])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "standard"
    assert any(b["client_key"] == truth.client_key.hex() for b in payload["key_blocks"])


def test_scan_standard_requires_capture(windows_fixture_16):
    _, paths, _ = windows_fixture_16
    assert _run(["scan", "--extracts", str(paths.extract_dir), "--mode", "standard"]) == EXIT_ERROR


def test_parse_capture_command(windows_fixture_32, capsys):
    _, paths, _ = windows_fixture_32
    code = _run(["parse-capture", "--capture", str(paths.root)])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["cipher_suite"] == "0x009D"
    assert payload["key_len_bytes"] == 32
    assert payload["nonce_style"] == "counter"
    assert payload["records"][0]["seq"] == 0


def test_entropy_profile_command(windows_fixture_16, tmp_path):
    _, paths, _ = windows_fixture_16
    out = tmp_path / "profile.csv"
    code = _run([
        "entropy-profile", "--extracts", str(paths.extract_dir),
        "--window", "32", "--threshold", "4.5", "--output", str(out),
    ])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "extract_name,offset,count"
    assert len(lines) > 1
    name, offset, count = lines[1].split(",")
    assert name.endswith(".bin")
    assert int(offset) == 0
    assert int(count) >= 0


def test_gen_fixture_command(tmp_path, capsys):
    recipe = tmp_path / "spec.json"
    recipe.write_text(json.dumps({"rng_seed": 3, "key_len_bytes": 16,
                                  "extract_sizes": [1048576]}))
    code = _run(["gen-fixture", "--spec", str(recipe), "--out", str(tmp_path / "fix")])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert (tmp_path / "fix" / "groundtruth.json").exists()
    assert payload["extract_dir"].endswith("extracts")
    # the emitted fixture decrypts with the default pipeline
    report = run_pipeline(tmp_path / "fix" / "extracts", tmp_path / "fix", mode="auto")
    assert report.outcome == "decrypted"


def test_gen_fixture_invalid_spec(tmp_path):
    recipe = tmp_path / "spec.json"
    recipe.write_text(json.dumps({"key_len_bytes": 7}))
    assert _run(["gen-fixture", "--spec", str(recipe), "--out", str(tmp_path / "fix")]) == EXIT_ERROR


@pytest.mark.parametrize("text", ['{"rng_seed": 3,', "5", '{"extract_sizes": 3}', '{"extract_sizes": ["x"]}'],
                         ids=["malformed-json", "not-an-object", "sizes-not-a-list", "sizes-not-integers"])
def test_gen_fixture_bad_spec_exits_1_with_one_error_line(tmp_path, capsys, text):
    recipe = tmp_path / "spec.json"
    recipe.write_text(text)
    code = _run(["gen-fixture", "--spec", str(recipe), "--out", str(tmp_path / "fix")])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_gen_fixture_default_recipe(tmp_path, capsys):
    code = _run(["gen-fixture", "--out", str(tmp_path / "fix"), "--seed", "2"])
    assert code == EXIT_OK
    capsys.readouterr()
    root = tmp_path / "fix"
    assert {"extracts", "client.tls", "server.tls", "manifest.json", "groundtruth.json"} <= {
        p.name for p in root.iterdir()
    }
    report = run_pipeline(root / "extracts", root, mode="auto")
    assert report.outcome == "decrypted"


def test_scan_flag_overrides_reach_the_scanner(windows_fixture_16, capsys):
    # shrinking the key search distance below the planted offset hides the key
    _, paths, truth = windows_fixture_16
    code = _run([
        "scan", "--extracts", str(paths.extract_dir), "--mode", "windows",
        "--key-size", "16", "--max-key-distance", "8",
    ])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    values = {entry["value"] for entry in payload["keys"]}
    assert truth.client_key.hex() not in values


def test_both_layout_serves_either_scanner(tmp_path):
    spec = FixtureSpec(
        rng_seed=61, key_len_bytes=16, layout=FixtureLayout.BOTH, extract_sizes=(2 * MB,)
    )
    paths, truth = generate_fixture(spec, tmp_path)
    for mode in ("windows", "standard"):
        report = run_pipeline(paths.extract_dir, paths.root, mode=mode)
        assert report.outcome == "decrypted", mode
        assert report.material["client_key"] == truth.client_key.hex()


def test_no_timings_reports_are_byte_identical(windows_fixture_16, tmp_path):
    _, paths, _ = windows_fixture_16
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = _run([
            "decrypt", "--extracts", str(paths.extract_dir), "--capture", str(paths.root),
            "--no-timings", "--output", str(out),
        ])
        assert code == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_console_entry_point(windows_fixture_16):
    _, paths, _ = windows_fixture_16
    proc = subprocess.run(
        [sys.executable, "-m", "keysift.cli", "parse-capture", "--capture", str(paths.root)],
        env=_subprocess_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["key_len_bytes"] == 16


def test_decrypt_over_pcap(windows_fixture_16, tmp_path):
    from conftest import build_pcap

    _, paths, truth = windows_fixture_16
    pcap = tmp_path / "session.pcap"
    pcap.write_bytes(
        build_pcap(paths.client_records.read_bytes(), paths.server_records.read_bytes())
    )
    out = tmp_path / "report.json"
    code = _run([
        "decrypt", "--extracts", str(paths.extract_dir), "--capture", str(pcap),
        "--capture-format", "pcap", "--output", str(out),
    ])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["material"]["client_key"] == truth.client_key.hex()


def test_decrypt_over_pcap_with_filter(windows_fixture_16, tmp_path):
    from conftest import build_pcap

    _, paths, truth = windows_fixture_16
    client = paths.client_records.read_bytes()
    server = paths.server_records.read_bytes()
    pcap = tmp_path / "two_streams.pcap"
    pcap.write_bytes(build_pcap(client, server, extra_stream=(client, server)))

    # ambiguous without a filter
    code = _run([
        "decrypt", "--extracts", str(paths.extract_dir), "--capture", str(pcap),
        "--capture-format", "pcap",
    ])
    assert code == EXIT_ERROR

    out = tmp_path / "report.json"
    code = _run([
        "decrypt", "--extracts", str(paths.extract_dir), "--capture", str(pcap),
        "--capture-format", "pcap", "--filter", "10.0.0.2:49152,10.0.0.1:443",
        "--output", str(out),
    ])
    assert code == EXIT_OK
    assert json.loads(out.read_text())["material"]["client_key"] == truth.client_key.hex()


def test_text_report_renders(windows_fixture_32, capsys):
    _, paths, _ = windows_fixture_32
    code = _run([
        "decrypt", "--extracts", str(paths.extract_dir), "--capture", str(paths.root),
        "--format", "text",
    ])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "outcome:  decrypted" in text
    assert "|GET /images/" in text  # hex+printable transcript


def _subprocess_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))


def test_auto_fallback_report_keeps_windows_counts(tmp_path):
    # decoy-rich memory paired with an unrelated session: the windows attempt
    # exhausts every pair, then auto mode falls back to a standard scan that
    # finds no key block; the report must still show the windows attempt
    memory = FixtureSpec(
        rng_seed=7, key_len_bytes=32, layout=FixtureLayout.WINDOWS_MARKERS, filler=Filler.RANDOM,
        explicit_nonce_style=NonceStyle.COUNTER_LIKE, decoy_markers=2, extract_sizes=(2 * MB,),
    )
    foreign = FixtureSpec(
        rng_seed=7 + 1_000_003, key_len_bytes=32, filler=Filler.RANDOM,
        explicit_nonce_style=NonceStyle.COUNTER_LIKE, extract_sizes=(MB,),
    )
    memory_paths, _ = generate_fixture(memory, tmp_path / "memory")
    foreign_paths, _ = generate_fixture(foreign, tmp_path / "foreign")
    auto = run_pipeline(memory_paths.extract_dir, foreign_paths.root, mode="auto")
    windows = run_pipeline(memory_paths.extract_dir, foreign_paths.root, mode="windows")
    assert auto.outcome == windows.outcome == "no_valid_decrypt"
    assert windows.candidates["keys"] > 0 and windows.trials["attempted"] > 0
    assert auto.candidates["keys"] == windows.candidates["keys"]
    assert auto.candidates["ivs"] == windows.candidates["ivs"]
    assert auto.candidates["key_blocks"] == 0
    assert auto.trials["attempted"] == windows.trials["attempted"]


def test_run_pipeline_rejects_negative_seq_window(windows_fixture_16, tmp_path):
    # rejected up front, also when no scanner finds a candidate to trial
    _, paths, _ = windows_fixture_16
    zeros = tmp_path / "zeros"
    zeros.mkdir()
    (zeros / "zeros.bin").write_bytes(bytes(2 * MB))
    for extract_dir in (paths.extract_dir, zeros):
        with pytest.raises(ValueError):
            run_pipeline(extract_dir, paths.root, seq_window=-1)


def test_cli_import_does_not_load_numpy():
    probe = "import sys, keysift.cli; print(*[m for m in ('numpy', 'concurrent.futures') if m in sys.modules])"
    done = subprocess.run([sys.executable, "-c", probe], env=_subprocess_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [], f"imported: {done.stdout}"


def test_benchmark_tracer_sees_every_layer(windows_fixture_16, tmp_path):
    # benchmarks/traced.py wraps the names keysift.cli calls through; a
    # refactor that bypasses them would silently zero the per-layer metrics
    _, paths, _ = windows_fixture_16
    traced = Path(__file__).resolve().parent.parent / "benchmarks" / "traced.py"
    trace, out = tmp_path / "trace.json", tmp_path / "report.json"
    done = subprocess.run(
        [sys.executable, str(traced), "full", str(trace), "decrypt", "--extracts", str(paths.extract_dir),
         "--capture", str(paths.root), "--output", str(out)],
        env=_subprocess_env(), capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    recorded = json.loads(trace.read_text())
    names = {span[0] for span in recorded["spans"]}
    assert {"run_pipeline", "scan_windows", "pair_candidates", "trial_decrypt", "decrypt_session"} <= names
    report = json.loads(out.read_text())
    assert recorded["counts"]["trials"] == report["trials"]["attempted"]
    # the tracer reads len() of the pair order, which must stay K x V
    assert recorded["counts"]["pairs"] == report["candidates"]["keys"] * report["candidates"]["ivs"] > 0
    # the tracer's AESGCM proxy has only decrypt: the screen must seal through
    # another binding, and open only its confirmations (client and server)
    # besides the transcript
    assert recorded["counts"]["aead_opens"] <= len(report["session"]["records"]) + 2
