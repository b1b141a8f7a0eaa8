import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from keysift.capture import (
    CONTENT_APPLICATION_DATA,
    CONTENT_CHANGE_CIPHER_SPEC,
    CONTENT_HANDSHAKE,
    Direction,
    EncryptedRecord,
    NonceStyle,
    SessionCapture,
    TlsRecord,
    assemble_session,
    parse_capture,
)
from keysift.cli import (
    EXIT_ERROR,
    EXIT_NO_DECRYPT,
    EXIT_OK,
    UsageError,
    _parse_filter,
    build_parser,
    main,
    run_pipeline,
)
from keysift.decrypt import SEQ_WINDOW, DecryptedSession, TranscriptEntry, TrialResult, decrypt_record
from keysift.entropy import shannon_entropy
from keysift.fixtures import (
    FixtureLayout,
    Filler,
    FixtureSpec,
    generate_fixture,
    reference_encrypt,
    serialize_records,
    serialize_session,
)
from keysift.memscan import (
    MB,
    BlockHypothesis,
    Candidate,
    CandidateKeyBlock,
    ExtractSet,
    ScanConfig,
    load_extracts,
    scan_windows,
)
from keysift.report import render_json


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
    assert report["material"]["hypothesis"] is None  # a pair win has no key-block layout
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
    # the counts cover the bands the staged search reached, not every band
    bands = report["candidates"]["bands_scanned"]
    keys, ivs = scan_windows(
        load_extracts(paths.extract_dir), ScanConfig(key_len_bytes=capture.key_len_bytes), bands
    )
    assert bands == [1]
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


def test_auto_mode_reads_counter_nonces_past_255(windows_fixture_16, tmp_path, capsys):
    # re-seal every record with explicit nonce seq + 1000: the nonces still
    # step by one per record, so auto mode must still run the marker scan
    _, paths, truth = windows_fixture_16
    capture = parse_capture(paths.root)
    material = {Direction.CLIENT_TO_SERVER: (truth.client_key, truth.client_iv),
                Direction.SERVER_TO_CLIENT: (truth.server_key, truth.server_iv)}
    records = [
        reference_encrypt(decrypt_record(rec, *material[rec.direction], rec.seq), *material[rec.direction],
                          (rec.seq + 1000).to_bytes(8, "big"), seq=rec.seq, content_type=rec.content_type,
                          version=rec.record_version, direction=rec.direction)
        for rec in capture.records
    ]
    shifted = tmp_path / "capture"
    shifted.mkdir()
    client, server = serialize_session(assemble_session(capture.cipher_suite, records))
    (shifted / "client.tls").write_bytes(client)
    (shifted / "server.tls").write_bytes(server)
    out = tmp_path / "report.json"
    code = _run(["decrypt", "--extracts", str(paths.extract_dir), "--capture", str(shifted), "--output", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert (report["nonce_style"], report["mode_used"], report["outcome"]) == ("counter", "windows", "decrypted")
    assert _run(["parse-capture", "--capture", str(shifted)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["nonce_style"] == "counter"


def test_auto_mode_random_falls_back_to_standard(tmp_path, capsys):
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
    assert (report["nonce_style"], report["mode_used"], report["outcome"]) == ("random", "standard", "decrypted")
    assert report["material"]["client_key"] == truth.client_key.hex()
    assert report["material"]["hypothesis"] == "iv_was_client"
    # parse-capture names the style that chose the scanner
    assert _run(["parse-capture", "--capture", str(paths.root)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["nonce_style"] == "random"


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


def test_decrypt_over_mixed_traffic_pcap(windows_fixture_16, tmp_path, capsys):
    # other connections' gaps and fragments are not looked at; the session's own early segments are
    # held until the gap before them fills, and a gap that never fills is an error
    from conftest import build_pcap, mixed_traffic_frames

    _, paths, _ = windows_fixture_16
    client = paths.client_records.read_bytes()
    server = paths.server_records.read_bytes()
    decrypt = ["decrypt", "--extracts", str(paths.extract_dir), "--no-timings", "--capture"]
    mixed = tmp_path / "mixed.pcap"
    mixed.write_bytes(build_pcap(client, server, extra_frames=mixed_traffic_frames()))
    out = tmp_path / "report.json"
    assert _run(decrypt + [str(mixed), "--output", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["outcome"] == "decrypted"

    assert len(client) > 300
    reordered = tmp_path / "reordered.pcap"
    reordered.write_bytes(build_pcap(client, server, chunk=100, reorder=True))
    assert _run(decrypt + [str(reordered), "--output", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["outcome"] == "decrypted"

    dropped = tmp_path / "dropped.pcap"
    dropped.write_bytes(build_pcap(client, server, chunk=100, drop=1))
    capsys.readouterr()
    assert _run(decrypt + [str(dropped)]) == EXIT_ERROR
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "TCP stream 10.0.0.2:49152 -> 10.0.0.1:443: bytes 100-199 did not arrive" in err


def test_seq_window_sets_the_trials_per_material(tmp_path):
    # each material is tried at the 2 * SEQ_WINDOW + 1 seqs, nearest first, so a winner at the
    # reconstructed seq is reached after index * (2 * SEQ_WINDOW + 1) + 1 trials
    fixture = tmp_path / "fx"
    assert _run(["gen-fixture", "--seed", "1", "--out", str(fixture)]) == EXIT_OK
    out = tmp_path / "report.json"
    assert _run(["decrypt", "--extracts", str(fixture / "extracts"), "--capture", str(fixture), "--no-timings",
                 "--output", str(out)]) == EXIT_OK
    trials = json.loads(out.read_text())["trials"]
    assert trials["winner_index"] > 0
    assert trials["attempted"] == trials["winner_index"] * (2 * SEQ_WINDOW + 1) + 1


@pytest.mark.parametrize("argv, says", [
    (("decrypt", "--extracts", "{extracts}"), "required: --capture"),
    (_DECRYPT + ("--workers", "2"), "unrecognized arguments: --workers"),
    (_DECRYPT + ("--step", "0"), "unrecognized arguments: --step"),
    (_DECRYPT + ("--min-gap", "-1"), "unrecognized arguments: --min-gap"),
    (_DECRYPT + ("--filter", "bogus"), "argument --filter: "),
    (_DECRYPT + ("--filter", "1.2.3.4:1,5.6.7.8:2"), "selects a pcap session"),
    (_DECRYPT + ("--filter", "10.0.0.2:99999,10.0.0.1:443"), "argument --filter: "),
    (_DECRYPT + ("--filter", "10.0.0.2:-1,10.0.0.1:443"), "argument --filter: "),
    (_DECRYPT + ("--filter", "10.0.0.300:443,10.0.0.2:49152"), "argument --filter: "),
    (_DECRYPT + ("--seq-window", "2"), "unrecognized arguments: --seq-window"),
    (_DECRYPT + ("--iv-entropy", "nan"), "unrecognized arguments: --iv-entropy"),
    (_DECRYPT + ("--counter-bound", "-5"), "unrecognized arguments: --counter-bound"),
    (_DECRYPT + ("--max-key-distance", "64"), "unrecognized arguments: --max-key-distance"),
    (_DECRYPT + ("--capture-format", "pcap"), "unrecognized arguments: --capture-format"),
    (_DECRYPT + ("--key-size", "16"), "unrecognized arguments: --key-size"),
    (_DECRYPT + ("--key-entropy", "3.5"), "unrecognized arguments: --key-entropy"),
    (("scan", "--extracts", "{extracts}", "--step", "0"), "unrecognized arguments: --step"),
    (("scan", "--extracts", "{extracts}", "--key-size", "16"), "unrecognized arguments: --key-size"),
    (("scan", "--extracts", "{extracts}", "--iv-entropy", "2"), "unrecognized arguments: --iv-entropy"),
    (("scan", "--extracts", "{extracts}", "--key-entropy", "3.5"), "unrecognized arguments: --key-entropy"),
    (("scan", "--extracts", "{extracts}", "--min-gap", "500"), "unrecognized arguments: --min-gap"),
    (("scan", "--extracts", "{extracts}", "--counter-bound", "7"), "unrecognized arguments: --counter-bound"),
    (("scan", "--extracts", "{extracts}", "--mode", "auto", "--capture", "{capture}"), "argument --mode: "),
    (("scan", "--extracts", "{extracts}/missing", "--mode", "standard"), "standard scan needs --capture"),
    (("scan", "--extracts", "{extracts}/missing", "--filter", "10.0.0.2:49152,10.0.0.1:443"), "it needs --capture"),
    (("scan", "--extracts", "{extracts}", "--capture", "{capture}", "--capture-format", "pcap"),
     "unrecognized arguments: --capture-format"),
    (("parse-capture", "--capture", "{capture}", "--capture-format", "pcap"), "unrecognized arguments: --capture-format"),
    (("entropy-profile", "--extracts", "{extracts}", "--window", "16"), "unrecognized arguments: --window"),
    (("entropy-profile", "--extracts", "{extracts}", "--threshold", "4.5"), "unrecognized arguments: --threshold"),
    (("entropy-profile", "--extracts", "{extracts}", "--region-windows", "256"),
     "unrecognized arguments: --region-windows"),
], ids=["missing-capture", "workers", "step-0", "negative-gap", "bad-filter", "filter-without-pcap",
        "filter-port-above-range", "filter-negative-port", "filter-bad-address", "seq-window", "iv-entropy-nan",
        "negative-counter-bound", "max-key-distance", "capture-format", "decrypt-key-size", "key-entropy",
        "scan-step-0", "scan-key-size", "scan-iv-entropy", "scan-key-entropy", "scan-min-gap", "scan-counter-bound",
        "scan-auto", "scan-standard-without-capture", "scan-filter-without-capture", "scan-capture-format",
        "parse-capture-format", "profile-window", "profile-threshold", "profile-region-windows"])
def test_usage_errors_exit_1_with_one_error_line(windows_fixture_16, capsys, argv, says):
    # the one line says what is wrong: a malformed --filter is refused by the
    # parser, before any capture is read, and a scan missing --capture before
    # any extract is listed
    _, paths, _ = windows_fixture_16
    code = _run([arg.format(extracts=paths.extract_dir, capture=paths.root) for arg in argv])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert says in err
    assert "Traceback" not in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        _run(["decrypt", "--help"])
    assert info.value.code == 0
    assert "--extracts" in capsys.readouterr().out


def test_scanner_flags_are_refused_and_records_stay_frozen():
    # the key size is the capture's, the gates and the gap ScanConfig's defaults
    parser = build_parser()
    refused = [("--iv-entropy", "1.25"), ("--key-entropy", "3.5"), ("--min-gap", "500")]
    for command in (("decrypt", "--extracts", "e", "--capture", "c"), ("scan", "--extracts", "e")):
        for flag in refused + [("--key-size", "16")]:
            with pytest.raises(UsageError, match="unrecognized arguments"):
                parser.parse_args(command + flag)

    block = CandidateKeyBlock(bytes(16), bytes(16), bytes(4), bytes(4), 0, 0, BlockHypothesis.IV_WAS_CLIENT)
    record = EncryptedRecord(Direction.CLIENT_TO_SERVER, 0, bytes(8), bytes(32), 0x0303, 23)
    result = TrialResult(bytes(16), bytes(4), 1, b"GET /", 0)
    entry = TranscriptEntry(Direction.CLIENT_TO_SERVER, 0, b"GET /")
    extract_set = ExtractSet(())
    records = [
        TlsRecord(23, 0x0303, b""), record, SessionCapture(0x009C, (record,)),
        result, entry, DecryptedSession(bytes(16), bytes(4), None, None, (entry,)),
        extract_set, Candidate(bytes(4), 0, 0), block, ScanConfig(),
    ]
    for rec in records:
        with pytest.raises(AttributeError):
            setattr(rec, rec._fields[0], None)
    # a value its fields fix is a property, which neither setattr nor _replace can make disagree
    assert TranscriptEntry._fields == ("direction", "seq", "plaintext")
    assert ExtractSet._fields == ("extracts",)
    for rec, derived in ((entry, "ok"), (extract_set, "bands"), (result, "orientation_swapped")):
        with pytest.raises(AttributeError):
            setattr(rec, derived, None)
        with pytest.raises(ValueError):
            rec._replace(**{derived: None})
    assert entry.ok and not entry._replace(plaintext=None).ok
    # key blocks key the set of blocks a standard stage returned, and records hash by value
    assert {block: 1, block._replace(offset=0): 2} == {block: 2}
    assert {(record, 2): 1}[record._replace(seq=0), 2] == 1


def test_scan_windows_command(windows_fixture_16, windows_fixture_32, capsys):
    # with no capture to give the key size, the keys of both sizes are listed
    for fixture in (windows_fixture_16, windows_fixture_32):
        _, paths, truth = fixture
        assert _run(["scan", "--extracts", str(paths.extract_dir), "--mode", "windows"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "windows"
        rows = [(entry["extract_id"], entry["offset"], len(entry["value"]) // 2) for entry in payload["keys"]]
        assert rows == sorted(rows)
        assert truth.client_key.hex() in {entry["value"] for entry in payload["keys"]}
    # every 16-byte window of a planted 32-byte key clears the 16-byte gate too
    assert {size for _, _, size in rows} == {16, 32}


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
    assert all(sorted(b) == sorted(CandidateKeyBlock._fields) for b in payload["key_blocks"])


def test_scan_windows_takes_the_key_size_from_the_capture(windows_fixture_16, windows_fixture_32, capsys):
    for fixture in (windows_fixture_16, windows_fixture_32):
        spec, paths, truth = fixture
        scan = ["scan", "--extracts", str(paths.extract_dir), "--mode", "windows"]
        assert _run(scan) == EXIT_OK
        both = json.loads(capsys.readouterr().out)
        assert _run(scan + ["--capture", str(paths.root)]) == EXIT_OK
        sized = json.loads(capsys.readouterr().out)
        assert sized["ivs"] == both["ivs"]
        assert sized["keys"] == [entry for entry in both["keys"] if len(entry["value"]) == 2 * spec.key_len_bytes]
        assert truth.client_key.hex() in {entry["value"] for entry in sized["keys"]}


@pytest.mark.parametrize("capture", [True, False], ids=["raw-records", "no-capture"])
def test_scan_windows_refuses_a_filter_it_cannot_apply(windows_fixture_16, capsys, capture):
    _, paths, _ = windows_fixture_16
    argv = ["scan", "--extracts", str(paths.extract_dir), "--mode", "windows", "--filter", "1.2.3.4:1,5.6.7.8:2"]
    code = _run(argv + (["--capture", str(paths.root)] if capture else []))
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_scan_standard_requires_capture(windows_fixture_16):
    _, paths, _ = windows_fixture_16
    assert _run(["scan", "--extracts", str(paths.extract_dir), "--mode", "standard"]) == EXIT_ERROR


def test_parse_capture_command(windows_fixture_32, capsys):
    _, paths, _ = windows_fixture_32
    code = _run(["parse-capture", "--capture", str(paths.root)])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["cipher_suite"] == "0x009D"
    assert payload["suite_name"].endswith("AES_256_GCM_SHA384")
    assert payload["key_len_bytes"] == 32
    assert payload["nonce_style"] == "counter"
    assert payload["records"][0]["seq"] == 0


def test_entropy_profile_command(windows_fixture_16, tmp_path):
    _, paths, _ = windows_fixture_16
    out = tmp_path / "profile.csv"
    code = _run([
        "entropy-profile", "--extracts", str(paths.extract_dir), "--output", str(out),
    ])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "extract_name,offset,count"
    assert len(lines) > 1
    name, offset, count = lines[1].split(",")
    assert name.endswith(".bin")
    assert int(offset) == 0
    assert int(count) >= 0


def test_entropy_profile_csv_quotes_file_names():
    import csv
    import io

    from keysift.report import entropy_profile_csv

    rows = [("a,b.bin", 0, 3), ('say "hi".bin', 8192, 0), ("two\nlines.bin", 0, 12), ("plain.bin", 0, 1)]
    text = entropy_profile_csv(rows)
    assert text.endswith('\nplain.bin,0,1\n')
    parsed = list(csv.reader(io.StringIO(text, newline="")))
    assert parsed == [["extract_name", "offset", "count"]] + [[name, str(o), str(c)] for name, o, c in rows]


def test_entropy_profile_frees_each_extract_before_the_next(tmp_path, monkeypatch):
    # while the k-th extract is profiled, no earlier extract still holds its bytes
    import keysift.cli as cli
    import keysift.entropy as entropy
    import keysift.memscan as memscan

    extract_dir = tmp_path / "extracts"
    extract_dir.mkdir()
    for name in ("a.bin", "b.bin", "c.bin"):
        (extract_dir / name).write_bytes(bytes(range(256)) * 16)
    loaded, holding, gates = [], [], set()

    def load(directory):
        loaded.append(memscan.load_extracts(directory))
        return loaded[-1]

    def profile(data, *args):
        holding.append([e.name for e in loaded[0].extracts if "data" in vars(e)])
        gates.add(args)
        return entropy.entropy_profile(data, *args)

    monkeypatch.setattr(cli, "load_extracts", load)
    monkeypatch.setattr(cli, "entropy_profile", profile)
    assert _run(["entropy-profile", "--extracts", str(extract_dir), "--output", str(tmp_path / "p.csv")]) == EXIT_OK
    assert holding == [["a.bin"], ["b.bin"], ["c.bin"]]
    # the window and gate are the scanners' 32-byte key gate
    cfg = ScanConfig(key_len_bytes=32)
    assert gates == {(cfg.key_len_bytes, cfg.key_entropy_threshold)}


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
    report = run_pipeline(tmp_path / "fix" / "extracts", parse_capture(tmp_path / "fix"), mode="auto")
    assert report.outcome == "decrypted"


def test_gen_fixture_invalid_spec(tmp_path):
    recipe = tmp_path / "spec.json"
    recipe.write_text(json.dumps({"key_len_bytes": 7}))
    assert _run(["gen-fixture", "--spec", str(recipe), "--out", str(tmp_path / "fix")]) == EXIT_ERROR


@pytest.mark.parametrize("text", ['{"rng_seed": 3,', "5", '{"extract_sizes": 3}', '{"extract_sizes": ["x"]}',
                                  '{"decoy_markers": "3"}', '{"plaintext_client": 5}', '{"keyblock_copies": 2.5}',
                                  '{"rng_seed": "x"}',
                                  '{"extract_sizes": [1048576], "layout": "generic_key_block", "keyblock_copies": 300}',
                                  '{"extract_sizes": [1048576], "decoy_markers": 400}',
                                  b'\xff\xfe{"rng_seed": 1}', '{"keyblock_copy_gap": -1}'],
                         ids=["malformed-json", "not-an-object", "sizes-not-a-list", "sizes-not-integers",
                              "decoy-markers-string", "plaintext-not-a-string", "copies-float", "seed-string",
                              "copies-too-large", "decoys-too-crowded", "not-utf-8", "negative-copy-gap"])
def test_gen_fixture_bad_spec_exits_1_with_one_error_line(tmp_path, capsys, text):
    recipe = tmp_path / "spec.json"
    recipe.write_bytes(text if isinstance(text, bytes) else text.encode())
    code = _run(["gen-fixture", "--spec", str(recipe), "--out", str(tmp_path / "fix")])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_gen_fixture_beyond_free_memory_exits_1_with_one_error_line(tmp_path, capsys, monkeypatch):
    # the filler fails as a 4 GiB extract does under a memory limit, with nothing allocated
    from keysift import fixtures

    def out_of_memory(filler, size, rng):
        raise MemoryError

    monkeypatch.setattr(fixtures, "_filler_buffer", out_of_memory)
    recipe = tmp_path / "spec.json"
    recipe.write_text(json.dumps({"extract_sizes": [2097152, 4294967296]}))
    code = _run(["gen-fixture", "--spec", str(recipe), "--out", str(tmp_path / "fix")])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert f"{2097152 + 4294967296} extract bytes" in err


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS bounds every allocation on Linux")
def test_gen_fixture_beyond_an_address_space_limit_exits_1_with_one_error_line(tmp_path):
    # a real allocation failure: the child alone runs under a 1.5 GB address-space limit,
    # so its 4 GiB extract fails to allocate and nothing near that size is ever mapped
    recipe = tmp_path / "spec.json"
    recipe.write_text(json.dumps({"extract_sizes": [2097152, 4294967296]}))
    limited = ("import resource, sys; from keysift.cli import main; "
               "resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, resource.getrlimit(resource.RLIMIT_AS)[1])); "
               "sys.exit(main(sys.argv[1:]))")
    done = subprocess.run([sys.executable, "-c", limited, "gen-fixture", "--spec", str(recipe),
                           "--out", str(tmp_path / "fix")], env=_subprocess_env(), capture_output=True, text=True)
    assert done.returncode == EXIT_ERROR
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: "), done.stderr
    assert f"{2097152 + 4294967296} extract bytes" in done.stderr


def test_gen_fixture_into_used_extracts_exits_1_and_keeps_them(tmp_path, capsys):
    # a second recipe into the same --out would leave the first run's extracts beside
    # its own, so the scan would see material its ground truth does not list
    out = tmp_path / "fix"
    assert _run(["gen-fixture", "--seed", "1", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    recipe = tmp_path / "spec.json"
    recipe.write_text(json.dumps({"extract_sizes": [2097152], "rng_seed": 2}))
    code = _run(["gen-fixture", "--spec", str(recipe), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert str(out / "extracts") in err
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def test_gen_fixture_default_recipe(tmp_path, capsys):
    code = _run(["gen-fixture", "--out", str(tmp_path / "fix"), "--seed", "2"])
    assert code == EXIT_OK
    capsys.readouterr()
    root = tmp_path / "fix"
    assert {"extracts", "client.tls", "server.tls", "manifest.json", "groundtruth.json"} <= {
        p.name for p in root.iterdir()
    }
    report = run_pipeline(root / "extracts", parse_capture(root), mode="auto")
    assert report.outcome == "decrypted"


def test_scan_flag_overrides_reach_the_scanner(windows_fixture_16, monkeypatch):
    # no flag or field sets a gate: ScanConfig derives both, so a gate changed
    # there reaches the scanner. A 16-byte window scores at most log2(16) =
    # 4.0 bits, so no key clears a strict 4.0 gate
    _, paths, truth = windows_fixture_16
    monkeypatch.setattr(ScanConfig, "key_entropy_threshold", 4.0)
    keys, ivs = scan_windows(load_extracts(paths.extract_dir), ScanConfig(key_len_bytes=16))
    assert keys == []
    assert truth.client_iv in {c.value for c in ivs}


_SALT_AT_IV_GATE = bytes.fromhex("11112233")  # 1.5 bits, as 2.33 % of uniform 4-byte salts score


def _salt_at_iv_gate_fixture(tmp_path, monkeypatch, layout):
    """Seed 1's fixture in ``layout`` with the client implicit IV replaced by a
    salt at exactly the IV gate. The generator redraws such salts, so the
    first 4-byte draw is swapped after it is made, leaving the seeded stream
    as it was."""
    import keysift.fixtures as fixtures

    draw, salts = fixtures._gated_random_bytes, [_SALT_AT_IV_GATE]

    def planted(rng, length, passes):
        value = draw(rng, length, passes)
        return salts.pop() if length == 4 and salts else value

    monkeypatch.setattr(fixtures, "_gated_random_bytes", planted)
    return generate_fixture(FixtureSpec(rng_seed=1, layout=layout), tmp_path)


_GATE_LAYOUTS = pytest.mark.parametrize("layout", [FixtureLayout.WINDOWS_MARKERS, FixtureLayout.GENERIC_KEY_BLOCK],
                                        ids=["windows-markers", "generic-key-block"])


@_GATE_LAYOUTS
def test_salt_at_the_iv_gate_is_planted(tmp_path, monkeypatch, layout):
    # the setup of the xfail below, checked where a failure cannot pass as expected
    paths, truth = _salt_at_iv_gate_fixture(tmp_path, monkeypatch, layout)
    assert truth.client_iv == _SALT_AT_IV_GATE
    assert shannon_entropy(truth.client_iv) == ScanConfig().iv_entropy_threshold
    assert any(_SALT_AT_IV_GATE in path.read_bytes() for path in paths.extract_dir.iterdir())


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: strict IV gate")
@_GATE_LAYOUTS
def test_salt_at_the_iv_gate_decrypts(tmp_path, monkeypatch, layout):
    paths, _ = _salt_at_iv_gate_fixture(tmp_path, monkeypatch, layout)
    assert run_pipeline(paths.extract_dir, parse_capture(paths.root)).outcome == "decrypted"


def test_both_layout_serves_either_scanner(tmp_path):
    spec = FixtureSpec(
        rng_seed=61, key_len_bytes=16, layout=FixtureLayout.BOTH, extract_sizes=(2 * MB,)
    )
    paths, truth = generate_fixture(spec, tmp_path)
    for mode in ("windows", "standard"):
        report = run_pipeline(paths.extract_dir, parse_capture(paths.root), mode=mode)
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


@pytest.mark.parametrize("command", ["parse-capture", "decrypt"])
def test_capture_too_big_for_memory_exits_1_with_one_error_line(windows_fixture_16, tmp_path, monkeypatch, capsys,
                                                                 command):
    from conftest import build_pcap

    _, paths, _ = windows_fixture_16
    pcap = tmp_path / "session.pcap"
    pcap.write_bytes(build_pcap(paths.client_records.read_bytes(), paths.server_records.read_bytes()))
    read_bytes = Path.read_bytes

    def read_bytes_short_of_memory(path):
        if path.name == "client.tls" or path.suffix == ".pcap":
            raise MemoryError
        return read_bytes(path)

    monkeypatch.setattr(Path, "read_bytes", read_bytes_short_of_memory)
    extracts = ["--extracts", str(paths.extract_dir)] if command == "decrypt" else []
    for capture in (paths.root, pcap):
        assert _run([command, *extracts, "--capture", str(capture)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: cannot read capture ")
        assert str(pcap if capture == pcap else paths.client_records) in err
        assert "Traceback" not in err


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
        "--output", str(out),
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
    ])
    assert code == EXIT_ERROR

    out = tmp_path / "report.json"
    code = _run([
        "decrypt", "--extracts", str(paths.extract_dir), "--capture", str(pcap),
        "--filter", "10.0.0.2:49152,10.0.0.1:443",
        "--output", str(out),
    ])
    assert code == EXIT_OK
    assert json.loads(out.read_text())["material"]["client_key"] == truth.client_key.hex()


def test_filter_port_outside_range_is_refused_before_the_pcap_is_read(windows_fixture_16, tmp_path, capsys):
    from conftest import build_pcap

    _, paths, _ = windows_fixture_16
    pcap = tmp_path / "session.pcap"
    pcap.write_bytes(build_pcap(paths.client_records.read_bytes(), paths.server_records.read_bytes()))
    decrypt = ["decrypt", "--extracts", str(paths.extract_dir), "--capture", str(pcap), "--filter"]
    for port in ("65536", "-1"):
        assert _run(decrypt + [f"10.0.0.2:{port},10.0.0.1:443"]) == EXIT_ERROR
        assert capsys.readouterr().err.splitlines() == [
            f"error: argument --filter: filter port must be 0-65535, got {port}"]
    assert _parse_filter("10.0.0.2:0,10.0.0.1:65535") == ("10.0.0.2", 0, "10.0.0.1", 65535)


@pytest.mark.parametrize("argv", [
    ("decrypt", "--extracts", "{extracts}", "--no-timings"),
    ("scan", "--extracts", "{extracts}", "--mode", "standard"),
    ("parse-capture",),
], ids=["decrypt", "scan-standard", "parse-capture"])
def test_pcap_file_reads_like_its_record_directory(windows_fixture_16, tmp_path, capsys, argv):
    # a directory holds raw records and any other path is a pcap: no flag names the format
    from conftest import build_pcap

    _, paths, _ = windows_fixture_16
    pcap = tmp_path / "session.pcap"
    pcap.write_bytes(build_pcap(paths.client_records.read_bytes(), paths.server_records.read_bytes()))
    outputs = []
    for capture in (paths.root, pcap):
        assert _run([arg.format(extracts=paths.extract_dir) for arg in argv] + ["--capture", str(capture)]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["decrypt", "parse-capture", "gen-fixture"])
def test_closed_stdout_pipe_exits_1_with_one_error_line(windows_fixture_16, tmp_path, command):
    # buffered stdout: the report reaches the pipe at the final flush, after the reader has gone
    _, paths, _ = windows_fixture_16
    argv = {
        "decrypt": ["decrypt", "--extracts", str(paths.extract_dir), "--capture", str(paths.root)],
        "parse-capture": ["parse-capture", "--capture", str(paths.root)],
        "gen-fixture": ["gen-fixture", "--out", str(tmp_path / "fix")],
    }[command]
    env = _subprocess_env()
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "keysift.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_ERROR
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: "), proc.stderr


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


def test_render_json_encodes_bytes_and_enums():
    payload = {"value": b"\x00\xff", "hypothesis": BlockHypothesis.IV_WAS_SERVER,
               "rows": [{"value": b"\x00\xff", "hypotheses": [BlockHypothesis.IV_WAS_SERVER]}]}
    assert json.loads(render_json(payload)) == {
        "value": "00ff", "hypothesis": "iv_was_server",
        "rows": [{"value": "00ff", "hypotheses": ["iv_was_server"]}],
    }
    # anything else still fails loudly instead of landing in a report as text
    for stray in (Path("extracts"), {1, 2}):
        with pytest.raises(TypeError):
            render_json({"stray": stray})


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
    auto = run_pipeline(memory_paths.extract_dir, parse_capture(foreign_paths.root), mode="auto")
    windows = run_pipeline(memory_paths.extract_dir, parse_capture(foreign_paths.root), mode="windows")
    assert auto.outcome == windows.outcome == "no_valid_decrypt"
    assert windows.candidates["keys"] > 0 and windows.trials["attempted"] > 0
    assert auto.candidates["keys"] == windows.candidates["keys"]
    assert auto.candidates["ivs"] == windows.candidates["ivs"]
    assert auto.candidates["key_blocks"] == 0
    assert auto.trials["attempted"] == windows.trials["attempted"]


def test_renegotiated_session_decrypts_its_first_epoch_in_auto_mode(tmp_path):
    # each direction renegotiates after its seq-1 record: an encrypted handshake
    # record (seq 2) and ChangeCipherSpec (seq 3) under the first keys, then one
    # record under a second key pair whose explicit nonce restarts at 0 (RFC 5246
    # §6.1); the nonce check reads the first epoch only, so auto mode runs the
    # marker scan and opens the first epoch's records
    from conftest import oracle_pipeline

    paths, truth = generate_fixture(FixtureSpec(rng_seed=1), tmp_path / "fix")
    sides = ((Direction.CLIENT_TO_SERVER, "client.tls", truth.client_key, truth.client_iv),
             (Direction.SERVER_TO_CLIENT, "server.tls", truth.server_key, truth.server_iv))
    for direction, name, key, iv in sides:
        records = [
            reference_encrypt(bytes(16), key, iv, (2).to_bytes(8, "big"), 2, CONTENT_HANDSHAKE, direction=direction),
            reference_encrypt(b"\x01", key, iv, (3).to_bytes(8, "big"), 3, CONTENT_CHANGE_CIPHER_SPEC,
                              direction=direction),
            reference_encrypt(b"GET /next HTTP/1.1\r\n\r\n", key[::-1], iv[::-1], bytes(8), 0, direction=direction),
        ]
        stream = paths.root / name
        stream.write_bytes(stream.read_bytes() + serialize_records(
            [TlsRecord(r.content_type, r.record_version, r.explicit_nonce + r.ciphertext) for r in records]))
    capture = parse_capture(paths.root)
    report = run_pipeline(paths.extract_dir, capture, mode="auto", clock=lambda: 0.0)
    assert (report.nonce_style, report.outcome, report.mode_used) == ("counter", "decrypted_partial", "windows")
    assert report.to_dict() == oracle_pipeline(paths.extract_dir, capture, "auto")
    assert [(r["direction"], r["seq"], r["ok"]) for r in report.session["records"]] == [
        ("client_to_server", 1, True), ("server_to_client", 1, True),
        ("client_to_server", 4, False), ("server_to_client", 4, False),
    ]


def test_run_pipeline_rejects_an_unknown_mode(windows_fixture_16):
    _, paths, _ = windows_fixture_16
    with pytest.raises(ValueError):
        run_pipeline(paths.extract_dir, parse_capture(paths.root), mode="bogus")


def test_cli_import_does_not_load_numpy(windows_fixture_16, tmp_path):
    # neither importing the CLI nor a whole decrypt run may load what only
    # entropy-profile (numpy) or gen-fixture (fixtures, gcm_ref, dataclasses) needs
    _, paths, _ = windows_fixture_16
    unused = ("numpy", "concurrent.futures", "keysift.fixtures", "keysift.gcm_ref", "dataclasses", "inspect")
    show = f"print(*[m for m in {unused!r} if m in sys.modules])"
    decrypt = ["decrypt", "--extracts", str(paths.extract_dir), "--capture", str(paths.root),
               "--output", str(tmp_path / "report.json")]
    for probe, argv in ((f"import sys, keysift.cli; {show}", []),
                        (f"import sys, keysift.cli; assert keysift.cli.main(sys.argv[1:]) == 0; {show}", decrypt)):
        done = subprocess.run([sys.executable, "-c", probe, *argv], env=_subprocess_env(),
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == [], f"imported: {done.stdout}"
    assert json.loads((tmp_path / "report.json").read_text())["outcome"] == "decrypted"


_NAMESPACE_PROBE = """
import sys
import keysift
assert [m for m in sys.modules if m.startswith("keysift.")] == [], "import keysift loaded a submodule"
from keysift import gcm_ref
assert gcm_ref is sys.modules["keysift.gcm_ref"]
"""


def test_package_namespace_resolves_lazily():
    # a fresh interpreter, so the imports this test process already made cannot mask a gap
    done = subprocess.run([sys.executable, "-c", _NAMESPACE_PROBE], env=_subprocess_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_fixtures_import_loads_no_decryptor():
    # the encryptor packs its own additional data, so a wrong layout in the decryptor cannot
    # seal and open every fixture the same wrong way
    probe = ("import sys, keysift.fixtures; "
             "print(*[m for m in sys.modules if m == 'keysift.decrypt' or m.split('.')[0] == 'cryptography'])")
    done = subprocess.run([sys.executable, "-c", probe], env=_subprocess_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_gen_fixture_as_main(tmp_path):
    # `python -m keysift.cli` runs cli.py as __main__; its on-demand fixtures import must still resolve
    out = tmp_path / "fix"
    done = subprocess.run([sys.executable, "-m", "keysift.cli", "gen-fixture", "--out", str(out), "--seed", "2"],
                          env=_subprocess_env(), capture_output=True, text=True)
    assert done.returncode == EXIT_OK, done.stderr
    assert json.loads(done.stdout)["groundtruth"] == str(out / "groundtruth.json")
    assert (out / "groundtruth.json").is_file()


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
    # the tracer sums len() over the pair orders; each stage's orders hold only its
    # new pairs, so over the stages that ran they add up to K x V
    assert recorded["counts"]["pairs"] == report["candidates"]["keys"] * report["candidates"]["ivs"] > 0
    # the tracer's AESGCM proxy has only decrypt: the screen must seal through
    # another binding, and open only its confirmations (client and server)
    # besides the transcript
    assert recorded["counts"]["aead_opens"] <= len(report["session"]["records"]) + 2


# ---------------------------------------------------------------------------
# robustness: damaged captures and odd extract directories


@pytest.fixture(scope="module")
def seed_1_fixture(tmp_path_factory):
    """The seed-1 fixture's paths and its three capture inputs, by name: raw
    client stream, raw server stream, and a pcap of both."""
    from conftest import build_pcap

    paths, _ = generate_fixture(FixtureSpec(rng_seed=1), tmp_path_factory.mktemp("seed1"))
    client, server = paths.client_records.read_bytes(), paths.server_records.read_bytes()
    return paths, {"client": client, "server": server, "pcap": build_pcap(client, server)}


def _damaged(data: bytes, edits) -> bytes:
    """``data`` after each (kind, position, value) edit: an edit xors a byte
    with ``value``, a cut drops ``value`` bytes, an insert adds byte ``value``."""
    out = bytearray(data)
    for kind, position, value in edits:
        at = position % (len(out) + 1)
        if kind == "insert":
            out[at:at] = bytes([value])
        elif kind == "cut":
            del out[at : at + value]
        elif at < len(out):
            out[at] ^= value
    return bytes(out)


def _main_quietly(argv) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _check_ok_records_reopen(report: dict, capture) -> None:
    """Each record the report marks ok opens under the reported material, with
    the reported plaintext, at a seq within SEQ_WINDOW of the record's."""
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM
    from conftest import naive_open

    material = report["material"]
    keys = {
        Direction.CLIENT_TO_SERVER.value: (material["client_key"], material["client_iv"]),
        Direction.SERVER_TO_CLIENT.value: (material["server_key"], material["server_iv"]),
    }
    app_data = [r for r in capture.records if r.content_type == CONTENT_APPLICATION_DATA]
    assert [(r.direction.value, r.seq) for r in app_data] == [
        (entry["direction"], entry["seq"]) for entry in report["session"]["records"]]
    for record, entry in zip(app_data, report["session"]["records"]):
        if not entry["ok"]:
            continue
        key, iv = (bytes.fromhex(value) for value in keys[entry["direction"]])
        plaintexts = {naive_open(AESGCM(key), record, iv, seq)
                      for seq in range(max(0, record.seq - SEQ_WINDOW), record.seq + SEQ_WINDOW + 1)}
        assert bytes.fromhex(entry["plaintext_hex"]) in plaintexts


_edits = st.lists(
    st.tuples(st.sampled_from(("edit", "cut", "insert")), st.integers(min_value=0), st.integers(1, 255)),
    min_size=1, max_size=4,
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(source=st.sampled_from(("client", "server", "pcap")), edits=_edits)
def test_damaged_captures_exit_0_1_or_2_and_only_report_what_verifies(seed_1_fixture, source, edits):
    paths, inputs = seed_1_fixture
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if source == "pcap":
            capture_arg = tmp / "capture.pcap"
            capture_arg.write_bytes(_damaged(inputs["pcap"], edits))
        else:
            capture_arg = tmp
            for name in ("client", "server"):
                data = inputs[name]
                (tmp / f"{name}.tls").write_bytes(_damaged(data, edits) if name == source else data)
        for argv in (["parse-capture", "--capture", str(capture_arg), "--output", str(tmp / "out.json")],
                     ["decrypt", "--extracts", str(paths.extract_dir), "--capture", str(capture_arg),
                      "--no-timings", "--output", str(tmp / "out.json")]):
            code, err = _main_quietly(argv)
            assert code in (EXIT_OK, EXIT_ERROR, EXIT_NO_DECRYPT), argv[0]
            if code == EXIT_ERROR:
                assert len(err.splitlines()) == 1 and err.startswith("error: "), err
            else:
                assert err == ""
            if code == EXIT_OK and argv[0] == "decrypt":
                _check_ok_records_reopen(json.loads((tmp / "out.json").read_text()), parse_capture(capture_arg))


def _odd_entry(directory: Path, kind: str) -> None:
    target = directory / f"odd_{kind}"
    if kind == "subdirectory":
        target.mkdir()
        (target / "inner.bin").write_bytes(os.urandom(64))
    elif kind == "empty-file":
        target.write_bytes(b"")
    elif kind == "dangling-symlink":
        target.symlink_to(directory / "no_such_file")
    elif kind == "directory-symlink":
        target.symlink_to(directory.parent)
    elif kind == "sparse-file":
        with open(target, "wb") as fh:
            fh.truncate(2 * MB)


@pytest.mark.parametrize("kind", ["subdirectory", "empty-file", "dangling-symlink", "directory-symlink",
                                  "sparse-file"])
def test_odd_extract_entries_keep_the_decrypt(seed_1_fixture, tmp_path, kind):
    # an entry that is no regular file, or one of no size, is skipped; a sparse
    # file reads as zeros, with no marker in it
    paths, _ = seed_1_fixture
    extracts = tmp_path / "extracts"
    extracts.mkdir()
    for dump in paths.extract_dir.iterdir():
        (extracts / dump.name).symlink_to(dump)
    _odd_entry(extracts, kind)
    out = tmp_path / "report.json"
    code, err = _main_quietly(["decrypt", "--extracts", str(extracts), "--capture", str(paths.root),
                               "--no-timings", "--output", str(out)])
    assert (code, err) == (EXIT_OK, "")
    report = json.loads(out.read_text())
    assert report["outcome"] == "decrypted"
    _check_ok_records_reopen(report, parse_capture(paths.root))


@pytest.mark.parametrize("kind", [None, "subdirectory", "empty-file", "dangling-symlink", "directory-symlink"])
def test_extract_directory_with_no_extract_exits_1_with_one_error_line(seed_1_fixture, tmp_path, kind):
    paths, _ = seed_1_fixture
    extracts = tmp_path / "extracts"
    extracts.mkdir()
    if kind is not None:
        _odd_entry(extracts, kind)
    code, err = _main_quietly(["decrypt", "--extracts", str(extracts), "--capture", str(paths.root)])
    assert code == EXIT_ERROR
    assert len(err.splitlines()) == 1 and err.startswith("error: no loadable extract files")
