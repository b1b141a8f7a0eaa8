import tracemalloc
from dataclasses import replace

import pytest
from cryptography.exceptions import InvalidTag
from hypothesis import given, settings, strategies as st

import keysift.decrypt as decrypt_module
from keysift.capture import (
    Direction,
    NonceStyle,
    parse_capture,
)
from keysift.cli import run_pipeline
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
    PairOrder,
    ScanConfig,
    load_extracts,
    pair_candidates,
    scan_standard,
    scan_windows,
)

from conftest import naive_first_opening, naive_pair_order

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


def _count_opens(monkeypatch):
    """Route decrypt's AESGCM through a proxy that records every open's key."""
    opened = []
    real_aesgcm = decrypt_module.AESGCM

    class CountingAESGCM:
        def __init__(self, key):
            self._key, self._aead = key, real_aesgcm(key)

        def decrypt(self, nonce, data, aad):
            opened.append(self._key)
            return self._aead.decrypt(nonce, data, aad)

    monkeypatch.setattr(decrypt_module, "AESGCM", CountingAESGCM)
    return opened


def test_trial_decrypt_screens_each_key_once(session_capture, monkeypatch):
    # one block cipher per distinct key, and one real open: the confirmation
    capture, truth = session_capture
    pairs = [_cand(bytes([k]) * 32, bytes([v, v, v, v])) for k in range(10) for v in range(6)]
    pairs.append(_cand(truth.client_key, truth.client_iv))
    built = []
    real_cipher = decrypt_module.Cipher

    def counting_cipher(algorithm, mode):
        built.append(algorithm.key)
        return real_cipher(algorithm, mode)

    monkeypatch.setattr(decrypt_module, "Cipher", counting_cipher)
    opened = _count_opens(monkeypatch)
    result = trial_decrypt(capture, pairs)
    assert result.index == 60
    assert result.trials == 60 * 5 + 1
    assert len(built) == len(set(built)) == 11
    assert opened == [truth.client_key]


def test_reported_decrypt_needs_a_verified_open(session_capture, monkeypatch):
    # the screen matches the true pair, but only a real open may report it
    capture, truth = session_capture

    class RefusingAESGCM:
        def __init__(self, key):
            pass

        def decrypt(self, nonce, data, aad):
            raise InvalidTag()

    monkeypatch.setattr(decrypt_module, "AESGCM", RefusingAESGCM)
    pairs = [_cand(bytes(32), bytes(4)), _cand(truth.client_key, truth.client_iv)]
    with pytest.raises(NoValidDecrypt) as info:
        trial_decrypt(capture, pairs)
    assert info.value.trials == 2 * 5
    with pytest.raises(NoValidDecrypt):
        trial_decrypt_blocks(capture, [_block_for(truth)])


def test_trial_decrypt_rejects_iv_not_4_bytes(session_capture):
    # J0 blocks are laid end to end, so one short IV would shift every IV after it
    capture, truth = session_capture
    with pytest.raises(ValueError):
        trial_decrypt(capture, [_cand(bytes(32), b"\x01\x02\x03"), _cand(truth.client_key, truth.client_iv)])


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


def test_server_probe_finds_the_server_pair_anywhere(session_capture, monkeypatch):
    # before, after, next to or far from the winner: one screen finds the
    # server pair, and its confirmation is the probe's only open
    capture, truth = session_capture
    junk = [_cand(bytes([i + 1]) * 32, bytes([i, i + 1, i + 2, i + 3])) for i in range(20)]
    client, server = _cand(truth.client_key, truth.client_iv), _cand(truth.server_key, truth.server_iv)
    window = 2
    for winner in (0, 1, 10, 20):
        for where in range(22):
            pairs = list(junk)
            pairs.insert(winner, client)
            pairs.insert(where, server)
            result = trial_decrypt(capture, pairs, seq_window=window)
            assert result.index == pairs.index(client)
            opened = _count_opens(monkeypatch)
            session = decrypt_session(capture, result, pairs=pairs, seq_window=window)
            monkeypatch.undo()
            assert session.server_key == truth.server_key and not session.partial, (winner, where)
            assert len(opened) - len(session.transcript) == 1  # one open per transcript record


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


def test_server_probe_without_a_server_pair_makes_no_opens(session_capture, monkeypatch):
    # no pair opens the server record, so the screen finds nothing to confirm
    # and the only opens are the client transcript's
    capture, truth = session_capture
    client_opens = len(capture.app_data(Direction.CLIENT_TO_SERVER))
    for count in (1, 2, 7):
        for winner in range(count):
            pairs = [_cand(bytes([i + 1]) * 32, bytes([i, i, i, i])) for i in range(count)]
            pairs[winner] = _cand(truth.client_key, truth.client_iv)
            result = trial_decrypt(capture, pairs, seq_window=0)
            assert result.index == winner
            opened = _count_opens(monkeypatch)
            session = decrypt_session(capture, result, pairs=pairs, seq_window=0)
            monkeypatch.undo()
            assert session.server_key is None and session.partial
            assert opened == [truth.client_key] * client_opens, (count, winner)


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


# ---------------------------------------------------------------------------
# the screen against the per-pair loop


@pytest.fixture(scope="module")
def captures(session_capture, tmp_path_factory):
    """Sessions under 32- and 16-byte keys, and one whose records all claim a
    seq two past the one they were sealed under, so its winner sits at the
    fourth seq of a window of 2."""
    capture, truth = session_capture
    spec = FixtureSpec(rng_seed=78, key_len_bytes=16, extract_sizes=(2 * (1 << 20),))
    paths, truth16 = generate_fixture(spec, tmp_path_factory.mktemp("trialfix16"))
    shifted = replace(capture, records=tuple(replace(r, seq=r.seq + 2) for r in capture.records))
    return [(capture, truth), (parse_capture(paths.root), truth16), (shifted, truth)]


def _first_record(capture, direction):
    return capture.app_data(direction)[0][1]


def _agrees_with_loop(capture, trial, materials, probe_materials, seq_window, **session_args):
    """``trial()`` and ``decrypt_session`` must report what the per-pair loop
    finds: the same winner, seq, trial count, plaintext and server material."""
    trials, won = naive_first_opening(_first_record(capture, Direction.CLIENT_TO_SERVER), materials, seq_window)
    if won is None:
        with pytest.raises(NoValidDecrypt) as info:
            trial()
        assert info.value.trials == trials
        return None
    (_, _, index, swapped), seq, plaintext = won
    result = trial()
    assert (result.index, result.orientation_swapped, result.seq_used, result.trials, result.plaintext) == (
        index, swapped, seq, trials, plaintext)
    _, server = naive_first_opening(
        _first_record(capture, Direction.SERVER_TO_CLIENT), probe_materials(index, swapped), seq_window)
    session = decrypt_session(capture, result, seq_window=seq_window, **session_args)
    assert (session.server_key, session.server_iv) == (server[0][:2] if server else (None, None))
    return result


def _check_pairs(capture, pairs, seq_window):
    ordered = naive_pair_order(pairs.keys, pairs.ivs) if isinstance(pairs, PairOrder) else pairs
    materials = [(key.value, iv.value, index, False) for index, (key, iv) in enumerate(ordered)]
    return _agrees_with_loop(capture, lambda: trial_decrypt(capture, pairs, seq_window=seq_window),
                             materials, lambda *_: materials, seq_window, pairs=pairs)


def _check_blocks(capture, blocks, seq_window):
    materials = [
        material
        for index, b in enumerate(blocks)
        for material in ((b.client_key, b.client_iv, index, False), (b.server_key, b.server_iv, index, True))
    ]

    def opposite(winner, swapped):
        return [materials[2 * winner + (not swapped)]]

    return _agrees_with_loop(capture, lambda: trial_decrypt_blocks(capture, blocks, seq_window=seq_window),
                             materials, opposite, seq_window, blocks=blocks)


def _junk_block(i, key_len):
    return CandidateKeyBlock(
        client_key=bytes([i]) * key_len, server_key=bytes([i + 1]) * key_len,
        client_iv=bytes([i, 1, 2, 3]), server_iv=bytes([i, 4, 5, 6]),
        extract_id=0, offset=0, hypothesis=BlockHypothesis.IV_WAS_CLIENT, iv_hit_offset=0,
    )


@pytest.mark.parametrize("seq_window", [0, 2])
def test_screen_agrees_with_per_pair_loop_on_lists(captures, seq_window):
    wins = 0
    for capture, truth in captures:
        n = len(truth.client_key)
        junk = [_cand(bytes([i + 1]) * n, bytes([i, 9, i, 9])) for i in range(12)]
        client, server = _cand(truth.client_key, truth.client_iv), _cand(truth.server_key, truth.server_iv)
        wrong_iv = _cand(truth.client_key, truth.server_iv)
        pair_lists = [
            junk[:5] + [wrong_iv, client] + junk[5:9] + [server] + junk[9:],
            junk[:3] + [server, junk[0], wrong_iv] + junk[3:] + [client, junk[1], client, server],  # duplicates
            [client, server],
            junk + [wrong_iv, server, junk[2]],  # exhausting
        ]
        for pairs in pair_lists:
            wins += _check_pairs(capture, pairs, seq_window) is not None
        blocks = [_junk_block(i, n) for i in range(6)]
        block_lists = [
            blocks[:3] + [_block_for(truth, swapped=True)] + blocks[3:],
            [_block_for(truth)] + blocks + [_block_for(truth, swapped=True)],
            blocks + blocks[:2],  # exhausting
        ]
        for block_list in block_lists:
            wins += _check_blocks(capture, block_list, seq_window) is not None
    assert wins == (15 if seq_window else 10)  # the shifted capture needs the window


@pytest.mark.parametrize("fixture_name", ["windows_fixture_16", "windows_fixture_32"])
def test_screen_agrees_with_per_pair_loop_on_pair_orders(fixture_name, request):
    _, paths, truth = request.getfixturevalue(fixture_name)
    capture = parse_capture(paths.root)
    keys, ivs = scan_windows(load_extracts(paths.extract_dir), ScanConfig(key_len_bytes=len(truth.client_key)))
    pairs = pair_candidates(keys, ivs)
    result = _check_pairs(capture, pairs, 2)
    assert result is not None and result.key == truth.client_key
    # with the true key dropped, every pair of the order is tried and fails
    _check_pairs(capture, pair_candidates([k for k in keys if k.value != truth.client_key], ivs), 2)


def test_screen_agrees_with_per_pair_loop_at_seq_other_than_the_records(captures):
    capture, truth = captures[2]
    result = _check_pairs(capture, [_cand(bytes(32), bytes(4)), _cand(truth.client_key, truth.client_iv)], 2)
    record = _first_record(capture, Direction.CLIENT_TO_SERVER)
    assert result.seq_used == record.seq - 2
    assert result.trials == 5 + _seq_candidates(record.seq, 2).index(result.seq_used) + 1


def test_exhausting_pair_walk_does_not_keep_the_pairs(session_capture):
    # an exhausting trial must not end up holding all K x V pair tuples
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


def test_probe_miss_reports_partial_without_probe_opens(tmp_path, monkeypatch):
    # the server key is overwritten in the dump, so no candidate pair opens
    # the server record: the probe is one screen that confirms nothing
    spec = FixtureSpec(rng_seed=41, key_len_bytes=32, filler=Filler.RANDOM, decoy_markers=3,
                       extract_sizes=(2 * (1 << 20),))
    paths, truth = generate_fixture(spec, tmp_path)
    planted = truth.find("server_key")
    dump = paths.extract_dir / planted.extract_name
    data = bytearray(dump.read_bytes())
    data[planted.offset : planted.offset + len(planted.value)] = bytes(len(planted.value))
    dump.write_bytes(bytes(data))
    opened = _count_opens(monkeypatch)
    report = run_pipeline(paths.extract_dir, paths.root, mode="windows")
    assert report.outcome == "decrypted_partial"
    records = report.session["records"]
    assert [r["ok"] for r in records] == [r["direction"] == "client_to_server" for r in records]
    client_records = sum(r["direction"] == "client_to_server" for r in records)
    assert opened == [truth.client_key] * (1 + client_records)  # the confirmation, then the transcript
