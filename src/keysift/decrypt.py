"""Trial decryption of captured records under the TLS 1.2 AES-GCM record protocol.

The AEAD tag is the primary validator: a verified tag is a far stronger
oracle than any plaintext heuristic. HTTP/1.1 shape is kept as a secondary
label on successful decrypts.

Candidate (key, IV, seq) trials are not opened one by one. A tag screen
derived from GCM's structure names, per key and seq, the one IV that would
verify, at a cost that does not grow with the IV count: a few seals under one
reference nonce and one AES-ECB decryption per key. Keys are screened in the
order of their earliest possible trial, and screening stops once no
unscreened key can pair before a hit that verified. Only the candidate
pairings the screen names are opened with ``AESGCM``, each as its key is
screened unless a verified hit comes before it, and the earliest trial that
verifies wins, so a reported decrypt always means a tag verified and the
trial count is still the one a per-trial loop would have reached. A trial
set is a ``PairOrder``, which holds each key and IV value at one index, or
a (key, IV) list. The server-direction probe is a lookup: the same screen
names each key's needed IV, opened if it is a candidate. A ``TagScreen``
keeps each key's needed IVs for its record, so a caller that trials
material in stages keeps one and no key is sealed twice against that
record; no key's cipher contexts outlive the call that screens it.
"""

from __future__ import annotations

import struct
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

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


def _open_record(key: bytes, record: EncryptedRecord, implicit_iv: bytes, seq: int) -> bytes | None:
    opener = AESGCM(_checked_key(key))
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
    plaintext = _open_record(key, record, implicit_iv, seq)
    if plaintext is None:
        raise AuthFailure("tag verification failed")
    return plaintext


# Sequence numbers tried either side of the reconstructed one. RFC 5246 §6.1 resets the
# number to 0 at each ChangeCipherSpec, so the reconstruction is exact for every capture
# the parser accepts; the window only absorbs whether Finished consumed sequence number 0.
SEQ_WINDOW = 2


def _seq_candidates(reconstructed: int) -> list[int]:
    """The 2*SEQ_WINDOW+1 sequence numbers to try, nearest to the reconstruction
    first. Numbers below 0 are replaced by extending the range upward so the
    trial count per material stays fixed.
    """
    low = max(0, reconstructed - SEQ_WINDOW)
    candidates = list(range(low, low + 2 * SEQ_WINDOW + 1))
    candidates.sort(key=lambda s: (abs(s - reconstructed), s))
    return candidates


class TrialResult(NamedTuple):
    """The first material whose tag verified; ``index`` is its position in the
    list handed to the trial function (a pair index or a key-block index), and
    ``block`` the winning key block of a ``trial_decrypt_blocks`` win, else None."""

    key: bytes
    implicit_iv: bytes
    seq_used: int
    plaintext: bytes
    index: int
    trials: int = 0
    block: CandidateKeyBlock | None = None

    @property
    def orientation_swapped(self) -> bool:
        """True when the winner is not its block's client slot, where equal slots win."""
        return self.block is not None and (self.key, self.implicit_iv) != (self.block.client_key, self.block.client_iv)

    @property
    def validation(self) -> Validation:
        return Validation.TAG_AND_PROTOCOL_VALID if validate_plaintext(self.plaintext) else Validation.TAG_VERIFIED


_J0_COUNTER = (1).to_bytes(4, "big")
_ECB = modes.ECB()


class TagScreen:
    """Which (IV, seq) trials under one key would verify one record's tag.

    The GCM tag is T = GHASH_H(A, C) xor E_K(J0), with J0 = IV || explicit ||
    0x00000001 for a 12-byte nonce (NIST SP 800-38D, RFC 5288). For a fixed key
    and seq the GHASH term is the same for every IV, so sealing once under a
    reference nonce gives the E_K(J0) a matching IV must produce. AES is a
    permutation, so one AES-ECB decryption of those 2 * SEQ_WINDOW + 1 targets
    gives the J0, and with it the one IV, that can match at each seq: a key
    costs the same whatever the number of candidate IVs. The sealer gives the
    reference itself: sealing C under the reference nonce returns C xor its
    keystream, the plaintext that seals back to C, and sealing nothing returns
    E_K(J0) of the reference nonce, since GHASH of no data is 0.

    A key's needed IVs do not depend on the candidate IVs, so a screen keeps
    them, about 200 bytes a key, and a later call for the same key seals
    nothing. The key's sealer and ECB decryptor are built for the one call
    that screens it and dropped when it returns, so no cipher context
    outlives its screen.

    Sealing and the ECB decryption go through ``aead.AESGCM`` and ``Cipher``,
    never through the module's ``AESGCM``, which opens records and counts as
    their only verifier: a screen hit is a candidate, not a decrypt.
    """

    def __init__(self, record: EncryptedRecord):
        self.seqs = _seq_candidates(record.seq)
        self._body_len = len(record.ciphertext) - GCM_TAG_LEN
        self._body = record.ciphertext[: self._body_len]
        self._tag = int.from_bytes(record.ciphertext[self._body_len :], "big")
        self._j0_tail = record.explicit_nonce + _J0_COUNTER
        self._nonce = bytes(IV_LEN) + record.explicit_nonce
        self._aads = [
            record_aad(seq, record.content_type, record.record_version, self._body_len) for seq in self.seqs
        ]
        self._keys: dict[bytes, list[bytes | None]] = {}  # key -> needed IV per seq

    def needed_ivs(self, key: bytes) -> list[bytes | None]:
        """Per seq, the implicit IV under which ``key`` would verify the tag,
        or None when no IV can (the J0 does not end in explicit || 1)."""
        needed = self._keys.get(key)
        if needed is None:
            sealer = aead.AESGCM(_checked_key(key))
            body_len = self._body_len
            # sealing C gives C xor keystream: the plaintext that seals back to C
            plaintext = sealer.encrypt(self._nonce, self._body, None)[:body_len]
            # the tag of nothing is E_K(J0_ref); T xor it, xored with a reference tag, is E_K(J0) of a matching IV
            mask = self._tag ^ int.from_bytes(sealer.encrypt(self._nonce, b"", None), "big")
            targets = []
            for aad in self._aads:
                reference_tag = int.from_bytes(sealer.encrypt(self._nonce, plaintext, aad)[body_len:], "big")
                targets.append((reference_tag ^ mask).to_bytes(16, "big"))
            j0s = Cipher(algorithms.AES(key), _ECB).decryptor().update(b"".join(targets))
            needed = self._keys[key] = [
                j0s[i : i + IV_LEN] if j0s[i + IV_LEN : i + 16] == self._j0_tail else None
                for i in range(0, len(j0s), 16)
            ]
        return needed


class _MaterialList:
    """A (key, IV) list as a trial set, with the members a ``PairOrder`` has.
    A (key, IV) listed more than once keeps its first position, where its
    first trial falls; a key's floor is the position of its first material,
    and an order is its own position."""

    def __init__(self, materials: Iterable[tuple[bytes, bytes]]):
        self._materials = list(materials)
        self._first: dict[tuple[bytes, bytes], int] = {}
        floors: dict[bytes, int] = {}
        for position, (key, iv) in enumerate(self._materials):
            if len(iv) != IV_LEN:
                raise ValueError(f"implicit IVs must be {IV_LEN} bytes")
            self._first.setdefault((key, iv), position)
            floors.setdefault(key, position)
        self.by_floor = list(floors.items())

    def __len__(self) -> int:
        return len(self._materials)

    def order(self, key: bytes, iv: bytes) -> int | None:
        return self._first.get((key, iv))

    def position(self, order: int) -> int:
        return order


def _trial_set(pairs: PairOrder | Iterable[tuple[Candidate, Candidate]]) -> PairOrder | _MaterialList:
    """A pair order is its own trial set; any other iterable of pairs is a (key, IV) list."""
    return pairs if isinstance(pairs, PairOrder) else _MaterialList((key.value, iv.value) for key, iv in pairs)


def _trial(capture: SessionCapture, trials: PairOrder | _MaterialList, screen: TagScreen | None) -> TrialResult:
    """Screen ``trials`` against the first client ApplicationData record and
    return the earliest screen hit, in trial order (position, then seq
    nearest the record's), whose tag really verifies. ``index`` is the
    winner's position; trials count as if each material were opened at each
    seq in turn until the winner verified.

    Keys are screened in floor order, and each hit is opened when its key is
    screened, unless a verified hit already comes before it; the walk stops
    once the next key's floor lies past the best verified hit, since no key
    screened later can have an earlier trial. So the keys screened are those
    whose floor comes before the winner, every key when nothing verifies. A
    hit names the one IV that matches the tag, so the winner's is the only
    open unless the record verifies under two materials, as one can be
    crafted to: then a key screened before the winner can cost one more."""
    record = capture.first_client_record
    screen = TagScreen(record) if screen is None else screen
    best = None  # the earliest verified hit so far, as (order, seq index, key, IV, plaintext)
    for key, floor in trials.by_floor:
        if best is not None and best[0] < floor:
            break
        for seq_index, iv in enumerate(screen.needed_ivs(key)):
            order = None if iv is None else trials.order(key, iv)
            if order is None or (best is not None and best[:2] <= (order, seq_index)):
                continue
            plaintext = _open_record(key, record, iv, screen.seqs[seq_index])
            if plaintext is not None:
                best = order, seq_index, key, iv, plaintext
    per_material = 2 * SEQ_WINDOW + 1
    if best is None:
        raise NoValidDecrypt(len(trials) * per_material)
    order, seq_index, key, implicit_iv, plaintext = best
    position = trials.position(order)
    return TrialResult(
        key=key,
        implicit_iv=implicit_iv,
        seq_used=screen.seqs[seq_index],
        plaintext=plaintext,
        index=position,
        trials=position * per_material + seq_index + 1,
    )


def trial_decrypt(
    capture: SessionCapture,
    pairs: PairOrder | Iterable[tuple[Candidate, Candidate]],
    screen: TagScreen | None = None,
) -> TrialResult:
    """The first (key, IV) pair, in order, whose tag verifies on the first
    client ApplicationData record at some seq within ``SEQ_WINDOW`` of the
    reconstructed one, nearest first.

    Keys are screened in the order of their earliest pair (one AES-ECB
    decryption per distinct key names the IV each seq needs, whatever the IV
    count) until no unscreened key can pair earlier than a verified hit, and
    only screen hits are opened, each as its key is screened unless a verified
    hit comes before it; a reported decrypt always passed a real ``AESGCM``
    open. ``TrialResult.index`` is the winner's position in ``pairs``, counted
    by ``PairOrder.rank`` for the order from ``pair_candidates``, which is
    never generated. ``trials`` counts the trials a loop over the pairs would
    have made up to the winner; when no pair verifies, every key is screened
    and NoValidDecrypt carries pairs x (2 * SEQ_WINDOW + 1).

    ``screen`` is an optional ``TagScreen`` of the first client record that
    the caller keeps across calls, so a key an earlier call screened is not
    sealed again; without one, the call screens with its own.
    """
    return _trial(capture, _trial_set(pairs), screen)


def trial_decrypt_blocks(
    capture: SessionCapture,
    blocks: Sequence[CandidateKeyBlock],
    screen: TagScreen | None = None,
) -> TrialResult:
    """Key-block trials through the same screen as ``trial_decrypt``. Each
    block is tried in both orientations, as two one-IV materials at positions
    2b and 2b+1, since a block recovered under the wrong hypothesis holds the
    true material in its opposite slots. ``index`` is the block's index and
    ``block`` the block itself."""
    materials = (
        material
        for block in blocks
        for material in ((block.client_key, block.client_iv), (block.server_key, block.server_iv))
    )
    result = _trial(capture, _MaterialList(materials), screen)
    index = result.index // 2
    return result._replace(index=index, block=blocks[index])


def _server_material(record: EncryptedRecord, lookups: Iterable) -> tuple | None:
    """The first (key, IV, seq offset) whose tag verifies on ``record``, of
    ``lookups``' (key values, IV value set) pairs: each key's needed IVs, at
    seqs nearest the record's first, are opened when they are in the set."""
    screen = TagScreen(record)
    for keys, ivs in lookups:
        for key in keys:
            for seq, iv in zip(screen.seqs, screen.needed_ivs(key)):
                if iv in ivs and _open_record(key, record, iv, seq) is not None:
                    return key, iv, seq - record.seq
    return None


class TranscriptEntry(NamedTuple):
    direction: Direction
    seq: int
    plaintext: bytes | None  # None when the record did not authenticate

    @property
    def ok(self) -> bool:
        return self.plaintext is not None


class DecryptedSession(NamedTuple):
    client_key: bytes
    client_iv: bytes
    server_key: bytes | None
    server_iv: bytes | None
    transcript: tuple[TranscriptEntry, ...]

    @property
    def partial(self) -> bool:
        """True when some record of the transcript did not authenticate."""
        return not all(entry.ok for entry in self.transcript)


def decrypt_session(
    capture: SessionCapture,
    result: TrialResult,
    found: Iterable[tuple[Sequence[Candidate], Sequence[Candidate]]] = (),
) -> DecryptedSession:
    """Decrypt every ApplicationData record both ways with confirmed material.

    Client material comes from the winning trial. Server material comes from
    a lookup on the first server record: each key's needed IV at each seq is
    opened when it is among the IVs. A ``trial_decrypt_blocks`` win looks up
    its block's opposite slots and draws nothing from ``found``; any other
    win draws ``found``, (keys, IVs) lists shaped like ``scan_windows``'
    result, each holding all found so far, only until a lookup verifies. A
    record verifies under at most one (key, IV, seq), since the additional
    data binds seq, so the order of the keys and IVs decides only how many
    keys are screened. A probe that finds nothing screens every key and makes
    no opens. The probe screens the first server record with a ``TagScreen``
    of its own, dropped when the call returns.

    Records that do not authenticate are marked, which makes the session partial.
    """
    client_seq = capture.first_client_record.seq
    # per direction, the (key, IV, seq offset) that opens its records
    material: dict[Direction, tuple[bytes, bytes, int] | None] = {
        Direction.CLIENT_TO_SERVER: (result.key, result.implicit_iv, result.seq_used - client_seq),
        Direction.SERVER_TO_CLIENT: None,
    }

    server_records = capture.app_data(Direction.SERVER_TO_CLIENT)
    if server_records:
        block = result.block
        if block is not None:
            key, iv = (block.client_key, block.client_iv) if result.orientation_swapped else (
                block.server_key, block.server_iv)
            lookups = [([key], {iv})]
        else:
            lookups = (([c.value for c in keys], {c.value for c in ivs}) for keys, ivs in found)
        material[Direction.SERVER_TO_CLIENT] = _server_material(server_records[0], lookups)

    transcript = []
    for record in capture.records:
        if record.content_type != CONTENT_APPLICATION_DATA:
            continue
        mat = material[record.direction]
        plaintext = None if mat is None else _open_record(mat[0], record, mat[1], record.seq + mat[2])
        transcript.append(TranscriptEntry(record.direction, record.seq, plaintext))

    server_key, server_iv, _ = material[Direction.SERVER_TO_CLIENT] or (None, None, None)
    return DecryptedSession(result.key, result.implicit_iv, server_key, server_iv, tuple(transcript))
