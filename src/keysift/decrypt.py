"""Trial decryption of captured records under the TLS 1.2 AES-GCM record protocol.

The AEAD tag is the primary validator: a verified tag is a far stronger
oracle than any plaintext heuristic. HTTP/1.1 shape is kept as a secondary
label on successful decrypts.

Candidate (key, IV, seq) trials are not opened one by one. A tag screen
derived from GCM's structure tests every IV under a key with one AES-ECB call,
and only its hits are opened with ``AESGCM``, earliest trial first, so a
reported decrypt always means a tag verified and the trial count is still the
one a per-trial loop would have reached. The server-direction probe takes its
hits in the same trial order. A caller that trials material in stages can keep
each record's screen across calls, so no key is sealed twice.
"""

from __future__ import annotations

import struct
from enum import Enum
from itertools import chain
from typing import Callable, Iterable, NamedTuple, Sequence

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers import Cipher, aead, algorithms, modes
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .capture import (
    CONTENT_APPLICATION_DATA,
    GCM_TAG_LEN,
    Direction,
    EncryptedRecord,
    SessionCapture,
)
from .errors import AuthFailure, BadKeyLength, NoValidDecrypt
from .memscan import IV_LEN, Candidate, CandidateKeyBlock, PairOrder


class Validation(Enum):
    TAG_VERIFIED = "tag_verified"
    TAG_AND_PROTOCOL_VALID = "tag_and_protocol_valid"


_HTTP_PREFIXES = (
    b"GET ", b"POST ", b"HEAD ", b"PUT ", b"DELETE ",
    b"OPTIONS ", b"TRACE ", b"CONNECT ", b"PATCH ", b"HTTP/1.",
)


def validate_plaintext(plaintext: bytes) -> bool:
    """True when the plaintext has HTTP/1.x request or response shape."""
    return plaintext.startswith(_HTTP_PREFIXES)


def record_aad(seq: int, content_type: int, record_version: int, plaintext_len: int) -> bytes:
    return struct.pack(">QBHH", seq, content_type, record_version, plaintext_len)


def _checked_key(key: bytes) -> bytes:
    if len(key) not in (16, 32):
        raise BadKeyLength(f"key must be 16 or 32 bytes, got {len(key)}")
    return key


def _cipher_for(key: bytes) -> AESGCM:
    return AESGCM(_checked_key(key))


def _open_record(opener: AESGCM, record: EncryptedRecord, implicit_iv: bytes, seq: int) -> bytes | None:
    nonce = implicit_iv + record.explicit_nonce
    aad = record_aad(seq, record.content_type, record.record_version, len(record.ciphertext) - GCM_TAG_LEN)
    try:
        return opener.decrypt(nonce, record.ciphertext, aad)
    except InvalidTag:
        return None


def decrypt_record(record: EncryptedRecord, key: bytes, implicit_iv: bytes, seq: int) -> bytes:
    """AEAD-open one record; raises AuthFailure when the tag does not verify.

    Nonce is implicit_iv || explicit_nonce; the additional data binds the
    sequence number, content type, record version and plaintext length, so a
    wrong seq fails exactly like a wrong key.
    """
    if len(record.ciphertext) < GCM_TAG_LEN:
        raise AuthFailure("ciphertext shorter than the tag")
    plaintext = _open_record(_cipher_for(key), record, implicit_iv, seq)
    if plaintext is None:
        raise AuthFailure("tag verification failed")
    return plaintext


def _seq_candidates(reconstructed: int, window: int) -> list[int]:
    """The 2*window+1 sequence numbers to try, nearest to the reconstruction first.

    Negative values are replaced by extending the range upward so the trial
    count per pair stays fixed; the window absorbs the ambiguity of whether a
    Finished message consumed sequence number 0. A negative window is rejected.
    """
    if window < 0:
        raise ValueError(f"seq_window must not be negative, got {window}")
    low = max(0, reconstructed - window)
    candidates = list(range(low, low + 2 * window + 1))
    candidates.sort(key=lambda s: (abs(s - reconstructed), s))
    return candidates


class TrialResult(NamedTuple):
    """The first material whose tag verified; ``index`` is its position in the
    list handed to the trial function (a pair index or a key-block index)."""

    key: bytes
    implicit_iv: bytes
    seq_used: int
    plaintext: bytes
    validation: Validation
    index: int
    orientation_swapped: bool = False
    trials: int = 0


def _first_client_record(capture: SessionCapture) -> EncryptedRecord:
    for _, record in capture.app_data(Direction.CLIENT_TO_SERVER):
        return record
    raise NoValidDecrypt(0)


_J0_COUNTER = (1).to_bytes(4, "big")
_ECB = modes.ECB()


class _TagScreen:
    """Which (IV, seq) trials under one key would verify one record's tag.

    The GCM tag is T = GHASH_H(A, C) xor E_K(J0), with J0 = IV || explicit ||
    0x00000001 for a 12-byte nonce (NIST SP 800-38D, RFC 5288). For a fixed key
    and seq the GHASH term is the same for every IV, so sealing once under a
    reference nonce gives it, and one AES-ECB call over the J0 blocks of all IVs
    tests every IV at once. The sealed plaintext is the ciphertext body under the
    reference keystream, so sealing reproduces C exactly; that keystream comes
    from the reference nonce's counter blocks, encrypted by the same ECB cipher.

    A key's targets (the E_K(J0) that each seq needs) do not depend on the IVs,
    so a screen keeps each key's ECB cipher and targets, and a later call for
    the same key only encrypts the new IVs' J0 blocks.

    Sealing and the ECB cipher go through ``aead.AESGCM`` and ``Cipher``, never
    through the module's ``AESGCM``, which opens records and counts as their
    only verifier: a screen hit is a candidate, not a decrypt.
    """

    def __init__(self, record: EncryptedRecord, seq_window: int):
        self.seqs = _seq_candidates(record.seq, seq_window)
        self._body_len = len(record.ciphertext) - GCM_TAG_LEN
        self._body = int.from_bytes(record.ciphertext[: self._body_len], "big")
        self._tag = int.from_bytes(record.ciphertext[self._body_len :], "big")
        self._explicit = record.explicit_nonce
        self._nonce = bytes(IV_LEN) + record.explicit_nonce
        blocks = -(-self._body_len // 16)
        # E_K(J0) of the reference nonce, then its keystream blocks 2, 3, ...
        self._reference = b"".join(self._nonce + ctr.to_bytes(4, "big") for ctr in range(1, blocks + 2))
        self._aads = [
            record_aad(seq, record.content_type, record.record_version, self._body_len) for seq in self.seqs
        ]
        self._keys: dict[bytes, tuple] = {}  # key -> (ECB encryptor, target per seq)

    def blocks(self, ivs: Sequence[bytes]) -> bytes:
        """The ECB input for ``ivs``: one J0 block per IV."""
        if any(len(iv) != IV_LEN for iv in ivs):
            raise ValueError(f"implicit IVs must be {IV_LEN} bytes")
        return b"".join(iv + self._explicit + _J0_COUNTER for iv in ivs)

    def _key_state(self, key: bytes):
        """The ECB encryptor of ``key`` and, per seq, the E_K(J0) an IV must give
        for the tag to match."""
        state = self._keys.get(key)
        if state is None:
            encryptor = Cipher(algorithms.AES(_checked_key(key)), _ECB).encryptor()
            stream = encryptor.update(self._reference)
            body_len = self._body_len
            # T xor E_K(J0_ref); xored with the reference tag it leaves E_K(J0) of a matching IV
            mask = self._tag ^ int.from_bytes(stream[:16], "big")
            keystream = int.from_bytes(stream[16 : 16 + body_len], "big")
            plaintext = (self._body ^ keystream).to_bytes(body_len, "big")
            sealer = aead.AESGCM(key)
            targets = []
            for aad in self._aads:
                reference_tag = int.from_bytes(sealer.encrypt(self._nonce, plaintext, aad)[body_len:], "big")
                targets.append((reference_tag ^ mask).to_bytes(16, "big"))
            state = self._keys[key] = (encryptor, targets)
        return state

    def hits(self, key: bytes, blocks: bytes) -> list[tuple[int, int]]:
        """(IV index, seq index) of every trial under ``key`` whose tag matches,
        for the IVs ``blocks`` was built from."""
        encryptor, targets = self._key_state(key)
        stream = encryptor.update(blocks)
        found = []
        for seq_index, target in enumerate(targets):
            pos = stream.find(target)
            while pos != -1:
                if pos % 16 == 0:
                    found.append((pos // 16, seq_index))
                pos = stream.find(target, pos + 1)
        return found


def _screen_for(record: EncryptedRecord, seq_window: int, screens: dict | None) -> _TagScreen:
    """The screen of ``record``, kept in ``screens`` when the caller passes one
    so that later calls reuse it and its per-key state."""
    if screens is None:
        return _TagScreen(record, seq_window)
    screen = screens.get((record, seq_window))
    if screen is None:
        screen = screens[record, seq_window] = _TagScreen(record, seq_window)
    return screen


# One screen group: a key, the IVs tried with it, and the trial position of the
# pairing with the IV at each index.
_Group = tuple[bytes, Sequence[bytes], Callable[[int], int]]


def _list_groups(materials: Iterable[tuple[bytes, bytes]]) -> tuple[int, list[_Group]]:
    """The count of ``materials`` and their groups by key; a (key, IV) listed
    more than once keeps its first position, where its first trial falls."""
    by_key: dict[bytes, dict[bytes, int]] = {}
    count = 0
    for key, iv in materials:
        by_key.setdefault(key, {}).setdefault(iv, count)
        count += 1
    return count, [(key, list(ivs), list(ivs.values()).__getitem__) for key, ivs in by_key.items()]


def _pair_groups(pairs: PairOrder | Iterable[tuple[Candidate, Candidate]]) -> tuple[int, list[_Group]]:
    """Screen groups of a pair order or of any iterable of pairs. For a
    ``PairOrder`` every key is paired with every IV and positions come from
    ``PairOrder.rank``."""
    if not isinstance(pairs, PairOrder):
        return _list_groups((key.value, iv.value) for key, iv in pairs)
    ivs = [iv.value for iv in pairs.ivs]
    indices: dict[bytes, list[int]] = {}
    for ki, key in enumerate(pairs.keys):
        indices.setdefault(key.value, []).append(ki)
    groups = [
        (key, ivs, lambda vi, kis=kis: min(pairs.rank(ki, vi) for ki in kis)) for key, kis in indices.items()
    ]
    return len(pairs), groups


def _first_verified(
    screen: _TagScreen, record: EncryptedRecord, groups: Iterable[_Group]
) -> tuple[int, int, int, bytes, bytes, bytes] | None:
    """Screen every group against ``record`` and return the first screen hit
    whose tag really verifies, as (position, seq index, seq, key, IV,
    plaintext), or None. Hits are taken in trial order: position, then seq
    nearest the record's."""
    hits = []
    built_for, blocks = None, b""
    for key, ivs, position in groups:
        if ivs is not built_for:  # a pair order shares one IV list across keys
            built_for, blocks = ivs, screen.blocks(ivs)
        hits += [(position(vi), seq_index, key, ivs[vi]) for vi, seq_index in screen.hits(key, blocks)]
    hits.sort(key=lambda hit: hit[:2])
    for position, seq_index, key, iv in hits:
        seq = screen.seqs[seq_index]
        plaintext = _open_record(_cipher_for(key), record, iv, seq)
        if plaintext is not None:
            return position, seq_index, seq, key, iv, plaintext
    return None


def _trial(
    capture: SessionCapture, count: int, groups: Iterable[_Group], seq_window: int, screens: dict | None
) -> TrialResult:
    """Screen ``count`` materials against the first client ApplicationData
    record. ``index`` is the winner's position; trials count as if each
    material were opened at each seq in turn until the winner verified."""
    record = _first_client_record(capture)
    winner = _first_verified(_screen_for(record, seq_window, screens), record, groups)
    per_material = 2 * seq_window + 1
    if winner is None:
        raise NoValidDecrypt(count * per_material)
    position, seq_index, seq, key, implicit_iv, plaintext = winner
    validation = Validation.TAG_AND_PROTOCOL_VALID if validate_plaintext(plaintext) else Validation.TAG_VERIFIED
    return TrialResult(
        key=key,
        implicit_iv=implicit_iv,
        seq_used=seq,
        plaintext=plaintext,
        validation=validation,
        index=position,
        trials=position * per_material + seq_index + 1,
    )


def trial_decrypt(
    capture: SessionCapture,
    pairs: PairOrder | Iterable[tuple[Candidate, Candidate]],
    seq_window: int = 2,
    screens: dict | None = None,
) -> TrialResult:
    """The first (key, IV) pair, in order, whose tag verifies on the first
    client ApplicationData record at some seq of the window, nearest first.

    Every pair is screened at once (one AES-ECB call per distinct key) and only
    screen hits are opened, the earliest first; a reported decrypt always
    passed a real ``AESGCM`` open. ``TrialResult.index`` is the winner's
    position in ``pairs``, counted by ``PairOrder.rank`` for the order from
    ``pair_candidates``, which is never generated. ``trials`` counts the trials
    a loop over the pairs would have made up to the winner; when no pair
    verifies, NoValidDecrypt carries pairs x (2 * seq_window + 1).

    ``screens`` is an optional dict the caller keeps across calls: the record's
    screen is kept there, so a key screened by an earlier call against the
    same record is not sealed again."""
    count, groups = _pair_groups(pairs)
    return _trial(capture, count, groups, seq_window, screens)


def trial_decrypt_blocks(
    capture: SessionCapture,
    blocks: Sequence[CandidateKeyBlock],
    seq_window: int = 2,
    screens: dict | None = None,
) -> TrialResult:
    """Key-block trials through the same screen as ``trial_decrypt``. Each
    block is tried in both orientations, as two one-IV materials at positions
    2b and 2b+1, since a block recovered under the wrong hypothesis holds the
    true material in its opposite slots. ``index`` is the block's index."""
    materials = (
        material
        for block in blocks
        for material in ((block.client_key, block.client_iv), (block.server_key, block.server_iv))
    )
    result = _trial(capture, *_list_groups(materials), seq_window, screens)
    return result._replace(index=result.index // 2, orientation_swapped=result.index % 2 == 1)


class TranscriptEntry(NamedTuple):
    direction: Direction
    seq: int
    plaintext: bytes | None
    ok: bool


class DecryptedSession(NamedTuple):
    client_key: bytes
    client_iv: bytes
    server_key: bytes | None
    server_iv: bytes | None
    transcript: tuple[TranscriptEntry, ...]
    partial: bool


def decrypt_session(
    capture: SessionCapture,
    result: TrialResult,
    blocks: Sequence[CandidateKeyBlock] | None = None,
    pairs: PairOrder | Iterable[tuple[Candidate, Candidate]] | None = None,
    seq_window: int = 2,
    later_pairs: Iterable[PairOrder] = (),
) -> DecryptedSession:
    """Decrypt every ApplicationData record both ways with confirmed material.

    Client material comes from the winning trial. Server material comes from
    one screen of the first server record: over the winning block's opposite
    slots when ``blocks`` are given (``result.index`` names the block), or else
    over every pair of ``pairs``, taking the first verified hit in trial order;
    with neither, no server material is tried. Keys and IVs are distinct values
    and the additional data binds seq, so every hit that verifies carries the
    same (key, IV, seq) and the order only decides how many hits are opened. A
    probe that finds nothing costs that one screen and no opens.

    When ``pairs`` hold no server pair, the probe goes on through
    ``later_pairs``, screening one order after another and stopping at the
    first verified hit, so a lazy iterable is drawn only as far as the probe
    needs; the pipeline passes one that scans a further band for its orders.
    Records that do not authenticate are marked and flip the partial flag.
    """
    first_record = _first_client_record(capture)
    deltas: dict[Direction, int] = {Direction.CLIENT_TO_SERVER: result.seq_used - first_record.seq}
    material: dict[Direction, tuple[bytes, bytes] | None] = {
        Direction.CLIENT_TO_SERVER: (result.key, result.implicit_iv),
        Direction.SERVER_TO_CLIENT: None,
    }

    server_records = capture.app_data(Direction.SERVER_TO_CLIENT)
    if server_records and (blocks is not None or pairs is not None):
        _, probe_record = server_records[0]
        if blocks is not None:
            block = blocks[result.index]
            opposite = (block.client_key, block.client_iv) if result.orientation_swapped else (
                block.server_key, block.server_iv)
            candidates = [_list_groups([opposite])[1]]
        else:
            candidates = (_pair_groups(order)[1] for order in chain([pairs], later_pairs))
        screen = _TagScreen(probe_record, seq_window)
        for groups in candidates:
            found = _first_verified(screen, probe_record, groups)
            if found is not None:
                _, _, seq, key, implicit_iv, _ = found
                material[Direction.SERVER_TO_CLIENT] = (key, implicit_iv)
                deltas[Direction.SERVER_TO_CLIENT] = seq - probe_record.seq
                break

    transcript = []
    partial = False
    for record in capture.records:
        if record.content_type != CONTENT_APPLICATION_DATA:
            continue
        mat = material[record.direction]
        plaintext = None
        if mat is not None:
            plaintext = _open_record(_cipher_for(mat[0]), record, mat[1], record.seq + deltas[record.direction])
        ok = plaintext is not None
        partial = partial or not ok
        transcript.append(TranscriptEntry(record.direction, record.seq, plaintext, ok))

    server_mat = material[Direction.SERVER_TO_CLIENT]
    return DecryptedSession(
        client_key=result.key,
        client_iv=result.implicit_iv,
        server_key=server_mat[0] if server_mat else None,
        server_iv=server_mat[1] if server_mat else None,
        transcript=tuple(transcript),
        partial=partial,
    )
