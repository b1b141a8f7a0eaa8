import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import keysift.decrypt as decrypt_module
from keysift.capture import (
    Direction,
    NonceStyle,
    parse_capture,
)
from keysift.decrypt import (
    Validation,
    _seq_candidates,
    decrypt_record,
    decrypt_session,
    trial_decrypt,
    trial_decrypt_blocks,
    validate_plaintext,
)
from keysift.errors import AuthFailure, BadKeyLength, NoValidDecrypt
from keysift.fixtures import (
    FixtureLayout,
    Filler,
    FixtureSpec,
    generate_fixture,
    reference_encrypt,
)
from keysift.memscan import (
    BlockHypothesis,
    Candidate,
    CandidateKeyBlock,
    ScanConfig,
    load_extracts,
    pair_candidates,
    scan_standard,
    scan_windows,
)

from conftest import naive_probe_order

KEY16 = bytes(range(16))
KEY32 = bytes(range(32))
IV = b"\xaa\xbb\xcc\xdd"
NONCE = b"\x00" * 7 + b"\x01"


def _cand(key, iv, extract=0, offset=0):
    return (
        Candidate(key, extract, offset, 4.0),
        Candidate(iv, extract, offset + 100, 2.0),
    )


# ---------------------------------------------------------------------------
# record-level


@pytest.mark.parametrize("key", [KEY16, KEY32])
@pytest.mark.parametrize("seq", [0, 1, 2**32])
def test_roundtrip_reference_encrypt(key, seq):
    record = reference_encrypt(b"attack at dawn", key, IV, NONCE, seq=seq)
    assert decrypt_record(record, key, IV, seq) == b"attack at dawn"


@given(plaintext=st.binary(max_size=300))
@settings(max_examples=30, deadline=None)
def test_roundtrip_random_payload(plaintext):
    record = reference_encrypt(plaintext, KEY32, IV, NONCE, seq=1)
    assert decrypt_record(record, KEY32, IV, 1) == plaintext


def test_bitflipped_key_fails():
    record = reference_encrypt(b"secret", KEY32, IV, NONCE, seq=1)
    bad = bytes([KEY32[0] ^ 0x01]) + KEY32[1:]
    with pytest.raises(AuthFailure):
        decrypt_record(record, bad, IV, 1)


def test_wrong_seq_fails():
    record = reference_encrypt(b"secret", KEY32, IV, NONCE, seq=1)
    with pytest.raises(AuthFailure):
        decrypt_record(record, KEY32, IV, 2)


def test_wrong_iv_fails():
    record = reference_encrypt(b"secret", KEY32, IV, NONCE, seq=1)
    with pytest.raises(AuthFailure):
        decrypt_record(record, KEY32, b"\x00\x00\x00\x01", 1)


def test_bad_key_length():
    record = reference_encrypt(b"secret", KEY32, IV, NONCE, seq=1)
    with pytest.raises(BadKeyLength):
        decrypt_record(record, bytes(24), IV, 1)


def test_plaintext_length_matches_ciphertext():
    record = reference_encrypt(b"x" * 57, KEY32, IV, NONCE, seq=1)
    plaintext = decrypt_record(record, KEY32, IV, 1)
    assert len(plaintext) == len(record.ciphertext) - 16


# ---------------------------------------------------------------------------
# plaintext validation


@pytest.mark.parametrize(
    "plaintext,expected",
    [
        (b"GET /images/abc123/x.jpeg HTTP/1.1\r\nUser-Agent: Mozilla/4.0\r\n", True),
        (b"POST /topic.php HTTP/1.1\r\nAccept: */*\r\n", True),
        (b"HTTP/1.1 200 OK\r\n", True),
        (b"DELETE /thing HTTP/1.1\r\n", True),
        (b"\x8f\x02\xc4garbage-bytes-not-http", False),
        (b"GETX / HTTP/1.1", False),
        (b"", False),
    ],
)
def test_validate_plaintext(plaintext, expected):
    assert validate_plaintext(plaintext) is expected


def test_random_bytes_never_validate():
    import random

    rng = random.Random(0)
    assert not any(validate_plaintext(rng.randbytes(16)) for _ in range(1000))


# ---------------------------------------------------------------------------
# sequence window


def test_seq_candidates_centered():
    assert sorted(_seq_candidates(5, 2)) == [3, 4, 5, 6, 7]
    assert _seq_candidates(5, 2)[0] == 5


def test_seq_candidates_clipped_at_zero_keeps_count():
    candidates = _seq_candidates(1, 2)
    assert sorted(candidates) == [0, 1, 2, 3, 4]
    assert candidates[0] == 1
    assert len(candidates) == 2 * 2 + 1


# ---------------------------------------------------------------------------
# trial loops


@pytest.fixture(scope="module")
def session_capture(tmp_path_factory):
    spec = FixtureSpec(rng_seed=77, key_len_bytes=32, extract_sizes=(2 * (1 << 20),))
    paths, truth = generate_fixture(spec, tmp_path_factory.mktemp("trialfix"))
    return parse_capture(paths.root), truth


def test_trial_decrypt_finds_pair(session_capture):
    capture, truth = session_capture
    pairs = [
        _cand(bytes(32), b"\x01\x02\x03\x04"),
        _cand(truth.client_key, truth.client_iv),
    ]
    result = trial_decrypt(capture, pairs)
    assert result.validation is Validation.TAG_AND_PROTOCOL_VALID
    assert result.index == 1
    assert result.key == truth.client_key
    assert result.plaintext == truth.plaintext_client
    assert result.seq_used == 1


def test_trial_decrypt_exhaustion_counts(session_capture):
    capture, _ = session_capture
    pairs = [_cand(bytes(32), bytes(4)), _cand(bytes([1]) * 32, bytes(4))]
    window = 2
    with pytest.raises(NoValidDecrypt) as info:
        trial_decrypt(capture, pairs, seq_window=window)
    assert info.value.trials == len(pairs) * (2 * window + 1)


def test_trial_decrypt_correct_pair_last(session_capture):
    capture, truth = session_capture
    pairs = [_cand(bytes([i]) * 32, bytes([i, i + 1, i + 2, i + 3])) for i in range(50)]
    pairs.append(_cand(truth.client_key, truth.client_iv))
    result = trial_decrypt(capture, pairs)
    assert result.index == 50
    assert result.trials == 50 * 5 + 1


def test_trial_decrypt_builds_one_cipher_per_key(session_capture, monkeypatch):
    capture, truth = session_capture
    pairs = [_cand(bytes([k]) * 32, bytes([v, v, v, v])) for k in range(10) for v in range(6)]
    pairs.append(_cand(truth.client_key, truth.client_iv))
    built = []
    real_aesgcm = decrypt_module.AESGCM

    def counting_aesgcm(key):
        built.append(key)
        return real_aesgcm(key)

    monkeypatch.setattr(decrypt_module, "AESGCM", counting_aesgcm)
    result = trial_decrypt(capture, pairs)
    assert result.index == 60
    assert result.trials == 60 * 5 + 1
    assert len(built) == len(set(built)) == 11


def test_trial_decrypt_deterministic(session_capture):
    capture, truth = session_capture
    pairs = [_cand(bytes(32), bytes(4)), _cand(truth.client_key, truth.client_iv)]
    first = trial_decrypt(capture, pairs)
    second = trial_decrypt(capture, pairs)
    assert (first.index, first.seq_used, first.trials, first.plaintext) == (
        second.index,
        second.seq_used,
        second.trials,
        second.plaintext,
    )


def _block_for(truth, swapped=False):
    if swapped:
        return CandidateKeyBlock(
            client_key=truth.server_key,
            server_key=truth.client_key,
            client_iv=truth.server_iv,
            server_iv=truth.client_iv,
            extract_id=0,
            offset=0,
            hypothesis=BlockHypothesis.IV_WAS_SERVER,
            iv_hit_offset=0,
        )
    return CandidateKeyBlock(
        client_key=truth.client_key,
        server_key=truth.server_key,
        client_iv=truth.client_iv,
        server_iv=truth.server_iv,
        extract_id=0,
        offset=0,
        hypothesis=BlockHypothesis.IV_WAS_CLIENT,
        iv_hit_offset=0,
    )


def test_trial_blocks_first_trial_wins(session_capture):
    capture, truth = session_capture
    result = trial_decrypt_blocks(capture, [_block_for(truth)])
    assert result.trials == 1
    assert result.index == 0
    assert not result.orientation_swapped
    assert result.validation is Validation.TAG_AND_PROTOCOL_VALID


def test_trial_blocks_swapped_orientation(session_capture):
    capture, truth = session_capture
    result = trial_decrypt_blocks(capture, [_block_for(truth, swapped=True)])
    assert result.orientation_swapped
    assert result.key == truth.client_key
    assert result.implicit_iv == truth.client_iv


def test_trial_blocks_empty_list(session_capture):
    capture, _ = session_capture
    with pytest.raises(NoValidDecrypt) as info:
        trial_decrypt_blocks(capture, [])
    assert info.value.trials == 0


def test_tag_verified_without_protocol_match(tmp_path):
    spec = FixtureSpec(
        rng_seed=5,
        key_len_bytes=16,
        extract_sizes=(2 * (1 << 20),),
        plaintext_client=b"\x00\x01\x02 not http at all",
        plaintext_server=b"binary response",
    )
    paths, truth = generate_fixture(spec, tmp_path)
    capture = parse_capture(paths.root)
    result = trial_decrypt(capture, [_cand(truth.client_key, truth.client_iv)])
    assert result.validation is Validation.TAG_VERIFIED


# ---------------------------------------------------------------------------
# session decryption


def test_decrypt_session_full(session_capture):
    capture, truth = session_capture
    blocks = [_block_for(truth)]
    result = trial_decrypt_blocks(capture, blocks)
    session = decrypt_session(capture, result, blocks=blocks)
    assert not session.partial
    assert session.client_key == truth.client_key
    assert session.server_key == truth.server_key
    plaintexts = [e.plaintext for e in session.transcript]
    assert truth.plaintext_client in plaintexts
    assert truth.plaintext_server in plaintexts
    directions = [e.direction for e in session.transcript]
    assert directions == [Direction.CLIENT_TO_SERVER, Direction.SERVER_TO_CLIENT]


def test_decrypt_session_soundness_whole_direction(session_capture):
    # a tag-verified trial must decrypt every record of its direction
    capture, truth = session_capture
    pairs = [_cand(truth.client_key, truth.client_iv)]
    result = trial_decrypt(capture, pairs)
    session = decrypt_session(capture, result, pairs=pairs)
    for entry in session.transcript:
        if entry.direction is Direction.CLIENT_TO_SERVER:
            assert entry.ok


def test_decrypt_session_pairs_recover_server_direction(session_capture):
    capture, truth = session_capture
    pairs = [
        _cand(truth.client_key, truth.client_iv),
        _cand(truth.server_key, truth.server_iv),
    ]
    result = trial_decrypt(capture, pairs)
    session = decrypt_session(capture, result, pairs=pairs)
    assert not session.partial
    assert session.server_key == truth.server_key


def test_server_probe_starts_next_to_the_winning_pair(session_capture, monkeypatch):
    # the server pair sorts right before the client pair; the probe must not
    # first retry the 50 junk pairs in front of them
    capture, truth = session_capture
    pairs = [_cand(bytes([i]) * 32, bytes([i, i + 1, i + 2, i + 3])) for i in range(50)]
    pairs += [_cand(truth.server_key, truth.server_iv), _cand(truth.client_key, truth.client_iv)]
    window = 2
    result = trial_decrypt(capture, pairs, seq_window=window)
    assert result.index == 51

    opens = []
    real_aesgcm = decrypt_module.AESGCM

    class CountingAESGCM:
        def __init__(self, key):
            self._aead = real_aesgcm(key)

        def decrypt(self, nonce, data, aad):
            opens.append(nonce)
            return self._aead.decrypt(nonce, data, aad)

    monkeypatch.setattr(decrypt_module, "AESGCM", CountingAESGCM)
    session = decrypt_session(capture, result, pairs=pairs, seq_window=window)
    assert session.server_key == truth.server_key and not session.partial
    probe_opens = len(opens) - len(session.transcript)  # one open per transcript record
    assert probe_opens <= 2 * window + 1


def test_decrypt_session_server_unknown_is_partial(session_capture):
    capture, truth = session_capture
    pairs = [_cand(truth.client_key, truth.client_iv)]
    result = trial_decrypt(capture, pairs)
    session = decrypt_session(capture, result, pairs=pairs)
    assert session.partial
    assert session.server_key is None
    for entry in session.transcript:
        if entry.direction is Direction.SERVER_TO_CLIENT:
            assert not entry.ok and entry.plaintext is None


def test_server_probe_order_matches_outward_walk(session_capture, monkeypatch):
    # no pair opens the server record, so the probe tries every pair once (at
    # seq_window=0) and the keys it tries show its whole order
    capture, truth = session_capture
    client_opens = len(capture.app_data(Direction.CLIENT_TO_SERVER))
    tried = []
    real_aesgcm = decrypt_module.AESGCM

    class RecordingAESGCM:
        def __init__(self, key):
            self._key, self._aead = key, real_aesgcm(key)

        def decrypt(self, nonce, data, aad):
            tried.append(self._key)
            return self._aead.decrypt(nonce, data, aad)

    monkeypatch.setattr(decrypt_module, "AESGCM", RecordingAESGCM)
    for count in (1, 2, 3, 4, 7):
        for winner in range(count):
            pairs = [_cand(bytes([i + 1]) * 32, bytes([i, i, i, i])) for i in range(count)]
            pairs[winner] = _cand(truth.client_key, truth.client_iv)
            result = trial_decrypt(capture, pairs, seq_window=0)
            assert result.index == winner
            tried.clear()
            session = decrypt_session(capture, result, pairs=pairs, seq_window=0)
            assert session.server_key is None
            expected = [pairs[index][0].value for index in naive_probe_order(count, winner)]
            assert tried == expected + [truth.client_key] * client_opens, (count, winner)


def test_decrypt_session_without_pairs_or_blocks_is_partial(session_capture):
    capture, truth = session_capture
    pairs = [_cand(bytes(32), bytes(4)), _cand(truth.client_key, truth.client_iv)]
    result = trial_decrypt(capture, pairs)
    session = decrypt_session(capture, result)
    assert session.partial
    assert session.client_key == truth.client_key and session.server_key is None
    assert [e.ok for e in session.transcript] == [
        e.direction is Direction.CLIENT_TO_SERVER for e in session.transcript
    ]


def test_exhausting_pair_walk_does_not_keep_the_pairs(session_capture):
    # an exhausting walk must not end up holding all K x V pair tuples
    # (about 64 bytes each with the list slot)
    capture, _ = session_capture
    keys = [Candidate(bytes([i]) * 32, i % 3, i * 97 % 65_536, 4.0) for i in range(200)]
    ivs = [Candidate(bytes([i]) * 4, i % 3, i * 61 % 65_536, 2.0) for i in range(150)]
    pairs = pair_candidates(keys, ivs)
    tracemalloc.start()
    try:
        with pytest.raises(NoValidDecrypt) as info:
            trial_decrypt(capture, pairs, seq_window=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert info.value.trials == len(pairs) == 30_000
    assert peak < len(pairs) * 64 // 4


def test_decrypt_session_truncated_capture_not_partial(tmp_path):
    # client-only capture: nothing fails, so the session is not partial
    spec = FixtureSpec(rng_seed=21, key_len_bytes=16, extract_sizes=(2 * (1 << 20),))
    paths, truth = generate_fixture(spec, tmp_path)
    client = paths.client_records.read_bytes()
    server = paths.server_records.read_bytes()
    # strip the server ApplicationData record (the last one in the stream)
    from keysift.capture import read_records, serialize_records

    records = read_records(server)
    truncated = serialize_records(records[:-1])
    capture = parse_capture((client, truncated))
    pairs = [_cand(truth.client_key, truth.client_iv)]
    result = trial_decrypt(capture, pairs)
    session = decrypt_session(capture, result, pairs=pairs)
    assert not session.partial
    assert [e.direction for e in session.transcript] == [Direction.CLIENT_TO_SERVER]


def test_negative_seq_window_is_rejected(session_capture):
    # a negative window would make zero trials and pass for "no valid decrypt"
    capture, truth = session_capture
    pairs = [_cand(truth.client_key, truth.client_iv), _cand(truth.server_key, truth.server_iv)]
    blocks = [_block_for(truth)]
    with pytest.raises(ValueError):
        trial_decrypt(capture, pairs, seq_window=-1)
    with pytest.raises(ValueError):
        trial_decrypt_blocks(capture, blocks, seq_window=-1)
    with pytest.raises(ValueError):
        decrypt_session(capture, trial_decrypt(capture, pairs), pairs=pairs, seq_window=-1)
    with pytest.raises(ValueError):
        decrypt_session(capture, trial_decrypt_blocks(capture, blocks), blocks=blocks, seq_window=-1)


# ---------------------------------------------------------------------------
# scanner-to-decryptor integration


def test_windows_scan_feeds_trial(windows_fixture_16):
    _, paths, truth = windows_fixture_16
    capture = parse_capture(paths.root)
    extract_set = load_extracts(paths.extract_dir)
    keys, ivs = scan_windows(extract_set, ScanConfig(key_len_bytes=16))
    pairs = pair_candidates(keys, ivs)
    result = trial_decrypt(capture, pairs)
    session = decrypt_session(capture, result, pairs=pairs)
    assert result.key == truth.client_key
    assert result.implicit_iv == truth.client_iv
    assert not session.partial


def test_standard_scan_feeds_trial(tmp_path):
    spec = FixtureSpec(
        rng_seed=31,
        key_len_bytes=32,
        layout=FixtureLayout.GENERIC_KEY_BLOCK,
        filler=Filler.ZERO,
        explicit_nonce_style=NonceStyle.RANDOM_LIKE,
        extract_sizes=(2 * (1 << 20),),
    )
    paths, truth = generate_fixture(spec, tmp_path)
    capture = parse_capture(paths.root)
    extract_set = load_extracts(paths.extract_dir)
    blocks = scan_standard(extract_set, capture, ScanConfig(key_len_bytes=32))
    result = trial_decrypt_blocks(capture, blocks)
    session = decrypt_session(capture, result, blocks=blocks)
    assert result.key == truth.client_key
    assert not session.partial
    assert session.server_key == truth.server_key
