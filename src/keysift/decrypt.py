"""Trial decryption of captured records under the TLS 1.2 AES-GCM record protocol.

The AEAD tag is the primary validator: a verified tag is a far stronger
oracle than any plaintext heuristic. HTTP/1.1 shape is kept as a secondary
label on successful decrypts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Iterable, Iterator, Sequence

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .capture import (
    CONTENT_APPLICATION_DATA,
    GCM_TAG_LEN,
    Direction,
    EncryptedRecord,
    SessionCapture,
)
from .errors import AuthFailure, BadKeyLength, NoValidDecrypt
from .memscan import Candidate, CandidateKeyBlock


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


def _cipher_for(key: bytes) -> AESGCM:
    if len(key) not in (16, 32):
        raise BadKeyLength(f"key must be 16 or 32 bytes, got {len(key)}")
    return AESGCM(key)


def _open_record(aead: AESGCM, record: EncryptedRecord, implicit_iv: bytes, seq: int) -> bytes | None:
    nonce = implicit_iv + record.explicit_nonce
    aad = record_aad(seq, record.content_type, record.record_version, len(record.ciphertext) - GCM_TAG_LEN)
    try:
        return aead.decrypt(nonce, record.ciphertext, aad)
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


@dataclass(frozen=True)
class TrialResult:
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


# One trial material: (key, implicit IV, index in the caller's list, orientation swapped).
_Material = tuple[bytes, bytes, int, bool]


def _pair_materials(pairs: Sequence[tuple[Candidate, Candidate]], order: Iterable[int]) -> Iterator[_Material]:
    for pair_index in order:
        cand_key, cand_iv = pairs[pair_index]
        yield cand_key.value, cand_iv.value, pair_index, False


def _probe_order(count: int, winner: int | None) -> Iterator[int]:
    """Server-probe pair order: nearest the winning client pair first (lower
    index on ties), the winner itself last; list order without a winner. The
    server's key and IV lie about as far apart as the client's, so their pair
    sorts close to the winner."""
    if winner is None or not 0 <= winner < count:
        yield from range(count)
        return
    for dist in range(1, max(winner, count - 1 - winner) + 1):
        for index in (winner - dist, winner + dist):
            if 0 <= index < count:
                yield index
    yield winner


def _first_opening(
    record: EncryptedRecord, materials: Iterable[_Material], seq_window: int
) -> tuple[int, tuple[_Material, int, bytes] | None]:
    """Try each material against ``record`` at every sequence number of the
    window, nearest first. Returns the trial count and the first
    (material, seq, plaintext) whose tag verifies, or None."""
    seqs = _seq_candidates(record.seq, seq_window)
    trials = 0
    for material in materials:
        aead = _cipher_for(material[0])
        for seq in seqs:
            trials += 1
            plaintext = _open_record(aead, record, material[1], seq)
            if plaintext is not None:
                return trials, (material, seq, plaintext)
    return trials, None


def _trial(capture: SessionCapture, materials: Iterable[_Material], seq_window: int) -> TrialResult:
    """Trial ``materials`` against the first client ApplicationData record."""
    record = _first_client_record(capture)
    trials, winner = _first_opening(record, materials, seq_window)
    if winner is None:
        raise NoValidDecrypt(trials)
    (key, implicit_iv, index, swapped), seq, plaintext = winner
    validation = Validation.TAG_AND_PROTOCOL_VALID if validate_plaintext(plaintext) else Validation.TAG_VERIFIED
    return TrialResult(
        key=key,
        implicit_iv=implicit_iv,
        seq_used=seq,
        plaintext=plaintext,
        validation=validation,
        index=index,
        orientation_swapped=swapped,
        trials=trials,
    )


def trial_decrypt(
    capture: SessionCapture,
    pairs: Sequence[tuple[Candidate, Candidate]],
    seq_window: int = 2,
) -> TrialResult:
    """Try (key, IV) pairs in order against the first client ApplicationData
    record until a tag verifies; raises NoValidDecrypt with the trial count
    when every pair is exhausted."""
    return _trial(capture, _pair_materials(pairs, range(len(pairs))), seq_window)


def trial_decrypt_blocks(
    capture: SessionCapture,
    blocks: Sequence[CandidateKeyBlock],
    seq_window: int = 2,
) -> TrialResult:
    """Key-block trial loop. Each block is tried in both orientations, since a
    block recovered under the wrong hypothesis holds the true material in its
    opposite slots."""
    materials = (
        material
        for block_index, block in enumerate(blocks)
        for material in (
            (block.client_key, block.client_iv, block_index, False),
            (block.server_key, block.server_iv, block_index, True),
        )
    )
    return _trial(capture, materials, seq_window)


@dataclass(frozen=True)
class TranscriptEntry:
    direction: Direction
    seq: int
    plaintext: bytes | None
    ok: bool


@dataclass(frozen=True)
class DecryptedSession:
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
    pairs: Sequence[tuple[Candidate, Candidate]] | None = None,
    seq_window: int = 2,
) -> DecryptedSession:
    """Decrypt every ApplicationData record both ways with confirmed material.

    Client material comes from the winning trial. Server material comes from
    the winning block's opposite slots, or, for pair-based wins, from a second
    trial over the pairs against the first server record, outward from the
    winning pair. ``result.index`` points into ``blocks`` when they are given,
    else into ``pairs``. Records that do not authenticate are marked and flip
    the partial flag.
    """
    first_record = _first_client_record(capture)
    deltas: dict[Direction, int] = {Direction.CLIENT_TO_SERVER: result.seq_used - first_record.seq}
    material: dict[Direction, tuple[bytes, bytes] | None] = {
        Direction.CLIENT_TO_SERVER: (result.key, result.implicit_iv),
        Direction.SERVER_TO_CLIENT: None,
    }

    server_records = capture.app_data(Direction.SERVER_TO_CLIENT)
    if server_records:
        _, probe_record = server_records[0]
        opposite = []
        if blocks is not None:
            block = blocks[result.index]
            if result.orientation_swapped:
                opposite.append((block.client_key, block.client_iv, result.index, False))
            else:
                opposite.append((block.server_key, block.server_iv, result.index, True))
        pairs = pairs or ()
        materials = chain(opposite, _pair_materials(pairs, _probe_order(len(pairs), result.index)))
        _, found = _first_opening(probe_record, materials, seq_window)
        if found is not None:
            (key, implicit_iv, _, _), seq, _ = found
            material[Direction.SERVER_TO_CLIENT] = (key, implicit_iv)
            deltas[Direction.SERVER_TO_CLIENT] = seq - probe_record.seq

    transcript = []
    partial = False
    for record in capture.records:
        if record.content_type != CONTENT_APPLICATION_DATA:
            continue
        mat = material[record.direction]
        plaintext = None
        if mat is not None:
            aead = _cipher_for(mat[0])
            plaintext = _open_record(aead, record, mat[1], record.seq + deltas[record.direction])
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
