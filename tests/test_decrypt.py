import hashlib
import random
import tracemalloc
import weakref

import pytest
from cryptography.exceptions import InvalidTag
from hypothesis import given, settings, strategies as st

import keysift.decrypt as decrypt_module
from keysift.capture import (
    Direction,
    NonceStyle,
    assemble_session,
    parse_capture,
    parse_raw_streams,
)
from keysift.cli import _material_dict, run_pipeline
from keysift.decrypt import (
    SEQ_WINDOW,
    TagScreen,
    Validation,
    _seq_candidates,
    decrypt_record,
    decrypt_session,
    record_aad,
    trial_decrypt,
    trial_decrypt_blocks,
    validate_plaintext,
)
from keysift.errors import AuthFailure, BadKeyLength, NoValidDecrypt
from keysift.fixtures import (
    FixtureGroundTruth,
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
        Candidate(key, extract, offset),
        Candidate(iv, extract, offset + 100),
    )


def _found(pairs):
    """The (keys, IVs) of a pair order or a pair list, as ``decrypt_session`` looks them up."""
    if isinstance(pairs, PairOrder):
        return [(pairs.keys, pairs.ivs)]
    return [([key for key, _ in pairs], [iv for _, iv in pairs])]


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


def test_ciphertext_shorter_than_the_tag_fails():
    record = reference_encrypt(b"secret", KEY32, IV, NONCE, seq=1)
    with pytest.raises(AuthFailure):
        decrypt_record(record._replace(ciphertext=record.ciphertext[:15]), KEY32, IV, 1)


def test_bad_key_length():
    record = reference_encrypt(b"secret", KEY32, IV, NONCE, seq=1)
    with pytest.raises(BadKeyLength):
        decrypt_record(record, bytes(24), IV, 1)


def test_record_aad_is_the_rfc_layout():
    # seq_num || type || version || length (RFC 5246 §6.2.3.3): 8 + 1 + 2 + 2 bytes, big-endian
    assert record_aad(1, 23, 0x0303, 5) == bytes.fromhex("00000000000000011703030005")


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
    assert sorted(_seq_candidates(5)) == [3, 4, 5, 6, 7]
    assert _seq_candidates(5)[0] == 5


def test_seq_candidates_clipped_at_zero_keeps_count():
    candidates = _seq_candidates(1)
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
    with pytest.raises(NoValidDecrypt) as info:
        trial_decrypt(capture, pairs)
    assert info.value.trials == len(pairs) * (2 * SEQ_WINDOW + 1) == 10


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


def _count_ciphers(monkeypatch, contexts=None):
    """Wrap ``decrypt.Cipher``: the keys it is built for, and the bytes the
    ``update`` calls of its encryptors and of its decryptors receive, by
    direction in ``fed``. A weak reference to each wrapped context, which
    holds the only reference to the real one, goes into ``contexts``."""
    built, fed = [], {"encryptor": 0, "decryptor": 0}
    real_cipher = decrypt_module.Cipher

    class CountingContext:
        def __init__(self, context, direction):
            self._context, self._direction = context, direction
            if contexts is not None:
                contexts.append(weakref.ref(self))

        def update(self, data):
            fed[self._direction] += len(data)
            return self._context.update(data)

    class CountingCipher:
        def __init__(self, algorithm, mode):
            built.append(algorithm.key)
            self._cipher = real_cipher(algorithm, mode)

        def encryptor(self):
            return CountingContext(self._cipher.encryptor(), "encryptor")

        def decryptor(self):
            return CountingContext(self._cipher.decryptor(), "decryptor")

    monkeypatch.setattr(decrypt_module, "Cipher", CountingCipher)
    return built, fed


def test_trial_decrypt_screens_each_key_once(session_capture, monkeypatch):
    # one block cipher per distinct key, used only to decrypt its 2w+1 targets,
    # the same against 10 IVs as against 2 000, and one real open: the confirmation
    capture, truth = session_capture
    built, fed = _count_ciphers(monkeypatch)
    opened = _count_opens(monkeypatch)
    for iv_count in (10, 2_000):
        built.clear()
        opened.clear()
        fed.update(encryptor=0, decryptor=0)
        pairs = [_cand(bytes([k]) * 32, b"\xee" + v.to_bytes(3, "big")) for k in range(10) for v in range(iv_count)]
        pairs.append(_cand(truth.client_key, truth.client_iv))
        result = trial_decrypt(capture, pairs)
        assert result.index == 10 * iv_count
        assert result.trials == 10 * iv_count * 5 + 1
        assert len(built) == len(set(built)) == 11
        assert opened == [truth.client_key]
        assert fed == {"encryptor": 0, "decryptor": 11 * 5 * 16}


def test_trial_decrypt_stops_at_an_early_winner(session_capture, monkeypatch):
    # a winner at position 0 among 10 junk keys: the next key's floor lies past
    # it, so one key is screened and one record opened, however many follow
    capture, truth = session_capture
    built, _ = _count_ciphers(monkeypatch)
    opened = _count_opens(monkeypatch)
    junk = [_cand(bytes([k + 1]) * 32, b"\xee" + v.to_bytes(3, "big")) for k in range(10) for v in range(3)]
    result = trial_decrypt(capture, [_cand(truth.client_key, truth.client_iv)] + junk)
    assert (result.index, result.trials) == (0, 1)
    assert built == [truth.client_key]
    assert opened == [truth.client_key]


def test_each_key_gets_one_cipher_per_record_it_is_screened_against(windows_fixture_32, monkeypatch):
    # two client stages share one screen, so a key the first screened is not
    # screened again by the second; the probe screens the server record with
    # its own, so a key gets at most one Cipher per record
    _, paths, truth = windows_fixture_32
    capture = parse_capture(paths.root)
    keys, ivs = scan_windows(load_extracts(paths.extract_dir), ScanConfig(key_len_bytes=32))
    pairs = pair_candidates(keys, ivs)
    built, _ = _count_ciphers(monkeypatch)
    screen = TagScreen(capture.first_client_record)
    with pytest.raises(NoValidDecrypt):
        trial_decrypt(capture, [(key, Candidate(b"\x00\x01\x02\x03", 0, 0)) for key in keys], screen=screen)
    result = trial_decrypt(capture, pairs, screen=screen)
    assert sorted(built) == sorted({key.value for key in keys})
    built.clear()
    session = decrypt_session(capture, result, found=_found(pairs))
    assert session.server_key == truth.server_key and not session.partial
    assert len(built) == len(set(built))
    assert truth.server_key in built


def test_no_decryptor_outlives_its_screen(session_capture, monkeypatch):
    # the screen keeps each key's needed IVs, not its cipher contexts: once the
    # trial returns, every context it built is gone though the screen lives on
    capture, truth = session_capture
    contexts = []
    built, _ = _count_ciphers(monkeypatch, contexts)
    screen = TagScreen(capture.first_client_record)
    pairs = [_cand(bytes([k + 1]) * 32, b"\xee\xee\xee" + bytes([k])) for k in range(5)]
    pairs.append(_cand(truth.client_key, truth.client_iv))
    result = trial_decrypt(capture, pairs, screen=screen)
    assert result.key == truth.client_key
    assert len(contexts) == len(built) == 6
    assert all(context() is None for context in contexts)
    built.clear()
    assert trial_decrypt(capture, pairs, screen=screen) == result
    assert built == []  # the kept needed IVs answer a second walk


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
    # an implicit IV is 4 bytes (RFC 5288); any other length is a caller's error, not a failed trial
    capture, truth = session_capture
    with pytest.raises(ValueError):
        trial_decrypt(capture, [_cand(bytes(32), b"\x01\x02\x03"), _cand(truth.client_key, truth.client_iv)])
    # the key x IV pairing checks the same
    with pytest.raises(ValueError):
        pair_candidates([Candidate(truth.client_key, 0, 0)], [Candidate(b"\x01\x02\x03", 0, 0)])


def test_pair_candidates_rejects_a_repeated_key_or_iv():
    # the scans give each value once, so a pair order holds each key and IV value at one index
    keys = [Candidate(KEY32, 0, 0), Candidate(bytes(32), 0, 40)]
    ivs = [Candidate(IV, 0, 100), Candidate(b"\x01\x02\x03\x04", 1, 0)]
    assert len(pair_candidates(keys, ivs)) == 4
    with pytest.raises(ValueError):
        pair_candidates(keys + [keys[0]._replace(extract_id=1)], ivs)
    with pytest.raises(ValueError):
        pair_candidates(keys, ivs + [ivs[0]._replace(offset=200)])


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
        )
    return CandidateKeyBlock(
        client_key=truth.client_key,
        server_key=truth.server_key,
        client_iv=truth.client_iv,
        server_iv=truth.server_iv,
        extract_id=0,
        offset=0,
        hypothesis=BlockHypothesis.IV_WAS_CLIENT,
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


def test_block_with_equal_slots_wins_unswapped(session_capture):
    # the orientation is the winning slot's: a repeated material keeps its first, the client slot
    capture, truth = session_capture
    same = _block_for(truth)._replace(server_key=truth.client_key, server_iv=truth.client_iv)
    assert trial_decrypt_blocks(capture, [same]).orientation_swapped is False
    assert trial_decrypt(capture, [_cand(truth.client_key, truth.client_iv)]).orientation_swapped is False


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
    session = decrypt_session(capture, result)
    assert not session.partial
    assert session.client_key == truth.client_key
    assert session.server_key == truth.server_key
    plaintexts = [e.plaintext for e in session.transcript]
    assert truth.plaintext_client in plaintexts
    assert truth.plaintext_server in plaintexts
    directions = [e.direction for e in session.transcript]
    assert directions == [Direction.CLIENT_TO_SERVER, Direction.SERVER_TO_CLIENT]


def _undrawable_found():
    raise AssertionError("a block win drew from found")
    yield


def _decoy_then_winner(truth, swapped):
    """A decoy block whose hypothesis differs from the winner's, then the winning block."""
    winner = _block_for(truth, swapped=swapped)
    other = BlockHypothesis.IV_WAS_CLIENT if swapped else BlockHypothesis.IV_WAS_SERVER
    return [_junk_block(1, len(truth.client_key))._replace(hypothesis=other), winner]


@pytest.mark.parametrize("swapped", [False, True])
def test_block_win_probes_its_block_without_drawing_found(session_capture, swapped):
    # the winning block rides on the result, so the probe looks up its
    # opposite slots and leaves the keys and IVs it is offered undrawn
    capture, truth = session_capture
    blocks = _decoy_then_winner(truth, swapped)
    result = trial_decrypt_blocks(capture, blocks)
    assert result.block is blocks[1] and result.orientation_swapped is swapped
    session = decrypt_session(capture, result, found=_undrawable_found())
    assert session.server_key == truth.server_key and not session.partial


@pytest.mark.parametrize("swapped", [False, True])
def test_material_hypothesis_is_the_winning_blocks(session_capture, swapped):
    capture, truth = session_capture
    blocks = _decoy_then_winner(truth, swapped)
    result = trial_decrypt_blocks(capture, blocks)
    material = _material_dict(result, decrypt_session(capture, result))
    assert material["hypothesis"] == blocks[1].hypothesis.value
    assert material["orientation_swapped"] is swapped
    pair_win = trial_decrypt(capture, [_cand(truth.client_key, truth.client_iv)])
    assert pair_win.block is None
    assert _material_dict(pair_win, decrypt_session(capture, pair_win))["hypothesis"] is None


def test_decrypt_session_soundness_whole_direction(session_capture):
    # a tag-verified trial must decrypt every record of its direction
    capture, truth = session_capture
    pairs = [_cand(truth.client_key, truth.client_iv)]
    result = trial_decrypt(capture, pairs)
    session = decrypt_session(capture, result, found=_found(pairs))
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
    session = decrypt_session(capture, result, found=_found(pairs))
    assert not session.partial
    assert session.server_key == truth.server_key


def test_server_probe_finds_the_server_pair_anywhere(session_capture, monkeypatch):
    # before, after, next to or far from the winner: one screen finds the
    # server pair, and its confirmation is the probe's only open
    capture, truth = session_capture
    junk = [_cand(bytes([i + 1]) * 32, bytes([i, i + 1, i + 2, i + 3])) for i in range(20)]
    client, server = _cand(truth.client_key, truth.client_iv), _cand(truth.server_key, truth.server_iv)
    for winner in (0, 1, 10, 20):
        for where in range(22):
            pairs = list(junk)
            pairs.insert(winner, client)
            pairs.insert(where, server)
            result = trial_decrypt(capture, pairs)
            assert result.index == pairs.index(client)
            opened = _count_opens(monkeypatch)
            session = decrypt_session(capture, result, found=_found(pairs))
            monkeypatch.undo()
            assert session.server_key == truth.server_key and not session.partial, (winner, where)
            assert len(opened) - len(session.transcript) == 1  # one open per transcript record


@pytest.fixture(scope="module")
def windows_win_32(windows_fixture_32):
    """The 32-byte windows fixture's capture, its scan's keys and IVs, the
    client trial's win over their pair order, and the fixture's truth."""
    _, paths, truth = windows_fixture_32
    capture = parse_capture(paths.root)
    keys, ivs = scan_windows(load_extracts(paths.extract_dir), ScanConfig(key_len_bytes=32))
    return capture, keys, ivs, trial_decrypt(capture, pair_candidates(keys, ivs)), truth


@pytest.mark.parametrize("seed", range(5))
def test_server_probe_finds_the_same_pair_in_any_order(windows_win_32, monkeypatch, seed):
    # a record verifies under at most one (key, IV, seq): the order of the keys
    # and IVs changes how many keys are screened, never the pair found
    capture, keys, ivs, result, truth = windows_win_32
    rng = random.Random(seed)
    shuffled = (rng.sample(keys, len(keys)), rng.sample(ivs, len(ivs)))
    opened = _count_opens(monkeypatch)
    session = decrypt_session(capture, result, found=[shuffled])
    assert (session.server_key, session.server_iv) == (truth.server_key, truth.server_iv)
    assert not session.partial
    assert len(opened) - len(session.transcript) == 1  # one open per transcript record


def test_server_probe_takes_a_windows_scan_as_it_is(windows_fixture_32, windows_win_32):
    _, paths, _ = windows_fixture_32
    capture, _, _, result, truth = windows_win_32
    found = [scan_windows(load_extracts(paths.extract_dir), ScanConfig(key_len_bytes=32))]
    session = decrypt_session(capture, result, found=found)
    assert (session.server_key, session.server_iv) == (truth.server_key, truth.server_iv)
    assert not session.partial


def test_server_probe_draws_found_only_until_a_lookup_verifies(windows_win_32):
    capture, keys, ivs, result, truth = windows_win_32

    def found():
        yield keys, ivs
        raise AssertionError("the probe drew past the lookup that verified")

    session = decrypt_session(capture, result, found=found())
    assert session.server_key == truth.server_key and not session.partial


def test_decrypt_session_server_unknown_is_partial(session_capture):
    capture, truth = session_capture
    pairs = [_cand(truth.client_key, truth.client_iv)]
    result = trial_decrypt(capture, pairs)
    session = decrypt_session(capture, result, found=_found(pairs))
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
            result = trial_decrypt(capture, pairs)
            assert result.index == winner
            opened = _count_opens(monkeypatch)
            session = decrypt_session(capture, result, found=_found(pairs))
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


def _hand_built_session(key_len, body_len):
    """A session whose first ApplicationData record each way carries
    ``body_len`` plaintext bytes, sealed by the reference encryptor:
    ``FixtureSpec`` would turn an empty plaintext into its default request."""
    def material(label):
        seed = b"%s %d %d" % (label, key_len, body_len)
        return hashlib.sha256(b"key " + seed).digest()[:key_len], hashlib.sha256(b"iv " + seed).digest()[:4]

    (client_key, client_iv), (server_key, server_iv) = material(b"client"), material(b"server")
    plaintext = bytes(range(body_len))
    records = [
        reference_encrypt(plaintext, key, iv, (1).to_bytes(8, "big"), seq=1, direction=direction)
        for key, iv, direction in (
            (client_key, client_iv, Direction.CLIENT_TO_SERVER), (server_key, server_iv, Direction.SERVER_TO_CLIENT))
    ]
    capture = assemble_session(0x009C if key_len == 16 else 0x009D, records)
    truth = FixtureGroundTruth(
        client_key, server_key, client_iv, server_iv, plaintext, plaintext, records[0].explicit_nonce)
    return capture, truth


@pytest.fixture(scope="module")
def captures(session_capture, tmp_path_factory):
    """Sessions under 32- and 16-byte keys, one whose records all claim a seq
    two past the one they were sealed under, so its winner sits at the fourth
    seq of a window of 2, and hand-built sessions whose record bodies sit at
    the keystream's edges: empty, one byte, and around the block size."""
    capture, truth = session_capture
    spec = FixtureSpec(rng_seed=78, key_len_bytes=16, extract_sizes=(2 * (1 << 20),))
    paths, truth16 = generate_fixture(spec, tmp_path_factory.mktemp("trialfix16"))
    shifted = capture._replace(records=tuple(r._replace(seq=r.seq + 2) for r in capture.records))
    edges = [_hand_built_session(key_len, n) for key_len in (16, 32) for n in (0, 1, 15, 16, 17, 32)]
    return [(capture, truth), (parse_capture(paths.root), truth16), (shifted, truth)] + edges


def _first_record(capture, direction):
    return capture.app_data(direction)[0]


def _agrees_with_loop(capture, trial, materials, probe_materials, **session_args):
    """``trial()`` and ``decrypt_session`` must report what the per-pair loop
    finds: the same winner, seq, trial count, plaintext and server material."""
    trials, won = naive_first_opening(_first_record(capture, Direction.CLIENT_TO_SERVER), materials)
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
        _first_record(capture, Direction.SERVER_TO_CLIENT), probe_materials(index, swapped))
    session = decrypt_session(capture, result, **session_args)
    assert (session.server_key, session.server_iv) == (server[0][:2] if server else (None, None))
    return result


def _check_pairs(capture, pairs):
    ordered = naive_pair_order(pairs.keys, pairs.ivs) if isinstance(pairs, PairOrder) else pairs
    materials = [(key.value, iv.value, index, False) for index, (key, iv) in enumerate(ordered)]
    return _agrees_with_loop(capture, lambda: trial_decrypt(capture, pairs), materials, lambda *_: materials,
                             found=_found(pairs))


def _check_blocks(capture, blocks):
    materials = [
        material
        for index, b in enumerate(blocks)
        for material in ((b.client_key, b.client_iv, index, False), (b.server_key, b.server_iv, index, True))
    ]

    def opposite(winner, swapped):
        return [materials[2 * winner + (not swapped)]]

    return _agrees_with_loop(capture, lambda: trial_decrypt_blocks(capture, blocks), materials, opposite)


def _junk_block(i, key_len):
    return CandidateKeyBlock(
        client_key=bytes([i]) * key_len, server_key=bytes([i + 1]) * key_len,
        client_iv=bytes([i, 1, 2, 3]), server_iv=bytes([i, 4, 5, 6]),
        extract_id=0, offset=0, hypothesis=BlockHypothesis.IV_WAS_CLIENT,
    )


def test_screen_agrees_with_per_pair_loop_on_lists(captures):
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
            wins += _check_pairs(capture, pairs) is not None
        blocks = [_junk_block(i, n) for i in range(6)]
        block_lists = [
            blocks[:3] + [_block_for(truth, swapped=True)] + blocks[3:],
            [_block_for(truth)] + blocks + [_block_for(truth, swapped=True)],
            blocks + blocks[:2],  # exhausting
        ]
        for block_list in block_lists:
            wins += _check_blocks(capture, block_list) is not None
    # five lists win per capture, the shifted capture's at two seqs below its records'
    assert wins == 5 * len(captures)


@pytest.mark.parametrize("fixture_name", ["windows_fixture_16", "windows_fixture_32"])
def test_screen_agrees_with_per_pair_loop_on_pair_orders(fixture_name, request):
    _, paths, truth = request.getfixturevalue(fixture_name)
    capture = parse_capture(paths.root)
    keys, ivs = scan_windows(load_extracts(paths.extract_dir), ScanConfig(key_len_bytes=len(truth.client_key)))
    pairs = pair_candidates(keys, ivs)
    result = _check_pairs(capture, pairs)
    assert result is not None and result.key == truth.client_key
    # with the true key dropped, every pair of the order is tried and fails
    _check_pairs(capture, pair_candidates([k for k in keys if k.value != truth.client_key], ivs))


def test_screen_agrees_with_per_pair_loop_at_seq_other_than_the_records(captures):
    capture, truth = captures[2]
    result = _check_pairs(capture, [_cand(bytes(32), bytes(4)), _cand(truth.client_key, truth.client_iv)])
    record = _first_record(capture, Direction.CLIENT_TO_SERVER)
    assert result.seq_used == record.seq - 2
    assert result.trials == 5 + _seq_candidates(record.seq).index(result.seq_used) + 1


# ---------------------------------------------------------------------------
# two materials that verify one record (the ``colliding`` session is built in conftest)


def test_record_opens_under_both_materials(colliding):
    capture, first, second = colliding
    record = _first_record(capture, Direction.CLIENT_TO_SERVER)
    for key, iv in (first, second):
        assert len(decrypt_record(record, key, iv, seq=1)) == 16  # AuthFailure unless the tag verifies
    with pytest.raises(AuthFailure):
        decrypt_record(record, first[0], second[1], seq=1)


def test_key_screened_first_does_not_win_with_a_later_trial(colliding):
    # the first key's floor comes first, but its verifying pair comes after
    # the second key's: the walk must screen the second key before opening
    capture, first, second = colliding
    for a, b in ((first, second), (second, first)):
        pairs = [_cand(a[0], b"\x99\x99\x99\x99"), _cand(*b), _cand(*a)]
        result = _check_pairs(capture, pairs)
        assert (result.index, result.key) == (1, b[0])


def test_pair_order_screens_keys_by_floor_not_by_index(colliding, monkeypatch):
    # the second key sits alone in an extract without IVs at index 0, and the
    # first key next to its IV at index 1: the first key's floor comes first,
    # its pair wins, and the second key's floor lies past it, so it is never screened
    capture, first, second = colliding
    keys = [Candidate(second[0], 5, 0), Candidate(first[0], 0, 1000)]
    ivs = [Candidate(second[1], 0, 140), Candidate(first[1], 0, 1004)]
    built, _ = _count_ciphers(monkeypatch)
    result = trial_decrypt(capture, PairOrder(keys, ivs))
    assert (result.index, result.key) == (0, first[0])
    assert built == [first[0]]
    monkeypatch.undo()
    assert _check_pairs(capture, PairOrder(keys, ivs)).key == first[0]


def test_hit_after_a_verified_hit_is_not_opened(colliding, monkeypatch):
    # the second key's hit sorts after the first key's, which verified when
    # its key was screened, so the second key's hit is never opened
    capture, first, second = colliding
    junk = b"\x99\x99\x99\x99"
    opened = _count_opens(monkeypatch)
    for a, b in ((first, second), (second, first)):
        opened.clear()
        result = trial_decrypt(capture, [_cand(a[0], junk), _cand(b[0], junk), _cand(*a), _cand(*b)])
        assert (result.index, result.key) == (2, a[0])
        assert opened == [a[0]]


def test_hit_before_a_verified_hit_is_opened_too(colliding, monkeypatch):
    # the first key's hit verifies when its key is screened; the second key's
    # sorts before it, so it is opened as well and wins: one open more than
    # the winner needs, on a record made to verify under both materials
    capture, first, second = colliding
    opened = _count_opens(monkeypatch)
    for a, b in ((first, second), (second, first)):
        opened.clear()
        result = trial_decrypt(capture, [_cand(a[0], b"\x99\x99\x99\x99"), _cand(*b), _cand(*a)])
        assert (result.index, result.key) == (1, b[0])
        assert opened == [a[0], b[0]]


@pytest.mark.parametrize("seed", range(8))
def test_two_verifying_keys_agree_with_per_pair_loop(colliding, seed):
    # random orders of both keys among decoys, each value at one index
    capture, first, second = colliding
    rng = random.Random(seed)
    key_values = [first[0], second[0]] + [bytes([i]) * 32 for i in range(1, 5)]
    iv_values = [first[1], second[1]] + [bytes([i, 0, 0, 1]) for i in range(1, 5)]
    place = lambda value: Candidate(value, rng.randrange(3), rng.randrange(0, 2000, 4))
    keys, ivs = [place(v) for v in key_values], [place(v) for v in iv_values]
    rng.shuffle(keys)
    rng.shuffle(ivs)
    assert _check_pairs(capture, PairOrder(keys, ivs)) is not None


def test_exhausting_pair_walk_does_not_keep_the_pairs(session_capture):
    # an exhausting trial must not end up holding all K x V pair tuples
    # (about 64 bytes each with the list slot)
    capture, _ = session_capture
    keys = [Candidate(bytes([i]) * 32, i % 3, i * 97 % 65_536) for i in range(200)]
    ivs = [Candidate(bytes([i]) * 4, i % 3, i * 61 % 65_536) for i in range(150)]
    pairs = pair_candidates(keys, ivs)
    tracemalloc.start()
    try:
        with pytest.raises(NoValidDecrypt) as info:
            trial_decrypt(capture, pairs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pairs) == 30_000
    assert info.value.trials == len(pairs) * (2 * SEQ_WINDOW + 1) == 150_000
    assert peak < len(pairs) * 64 // 4


def test_decrypt_session_truncated_capture_not_partial(tmp_path):
    # client-only capture: nothing fails, so the session is not partial
    spec = FixtureSpec(rng_seed=21, key_len_bytes=16, extract_sizes=(2 * (1 << 20),))
    paths, truth = generate_fixture(spec, tmp_path)
    client = paths.client_records.read_bytes()
    server = paths.server_records.read_bytes()
    # strip the server ApplicationData record (the last one in the stream)
    from keysift.capture import read_records
    from keysift.fixtures import serialize_records

    records = read_records(server)
    truncated = serialize_records(records[:-1])
    capture = parse_raw_streams(client, truncated)
    pairs = [_cand(truth.client_key, truth.client_iv)]
    result = trial_decrypt(capture, pairs)
    session = decrypt_session(capture, result, found=_found(pairs))
    assert not session.partial
    assert [e.direction for e in session.transcript] == [Direction.CLIENT_TO_SERVER]


# ---------------------------------------------------------------------------
# scanner-to-decryptor integration


def test_windows_scan_feeds_trial(windows_fixture_16):
    _, paths, truth = windows_fixture_16
    capture = parse_capture(paths.root)
    extract_set = load_extracts(paths.extract_dir)
    keys, ivs = scan_windows(extract_set, ScanConfig(key_len_bytes=16))
    pairs = pair_candidates(keys, ivs)
    result = trial_decrypt(capture, pairs)
    session = decrypt_session(capture, result, found=_found(pairs))
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
    session = decrypt_session(capture, result)
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
    report = run_pipeline(paths.extract_dir, parse_capture(paths.root), mode="windows")
    assert report.outcome == "decrypted_partial"
    records = report.session["records"]
    assert [r["ok"] for r in records] == [r["direction"] == "client_to_server" for r in records]
    client_records = sum(r["direction"] == "client_to_server" for r in records)
    assert opened == [truth.client_key] * (1 + client_records)  # the confirmation, then the transcript
