"""TLS 1.2 record-layer capture model and parsers.

Two input shapes are supported: raw per-direction record streams (the byte
sequences exactly as they crossed the wire, post TCP reassembly) and classic
pcap files. Raw streams are the primary interface; pcap is an adapter that
recovers the same two byte streams first.
"""

from __future__ import annotations

import struct
from enum import Enum
from itertools import takewhile
from pathlib import Path
from typing import NamedTuple

from .errors import (
    FilterNeedsPcap,
    KeysiftError,
    MalformedRecord,
    NoApplicationData,
    UnsupportedCipherSuite,
)

CONTENT_CHANGE_CIPHER_SPEC = 20
CONTENT_HANDSHAKE = 22
CONTENT_APPLICATION_DATA = 23
_CONTENT_TYPES = frozenset((20, 21, 22, 23))

TLS_1_2 = 0x0303
TLS_1_3 = 0x0304
MAX_RECORD_PAYLOAD = 2**14 + 2048
EXPLICIT_NONCE_LEN = 8
GCM_TAG_LEN = 16

_HS_SERVER_HELLO = 2
_EXT_SUPPORTED_VERSIONS = 43

# A lone client record's nonce below this looks like a sequence number.
_ONE_RECORD_COUNTER_BOUND = 256

# TLS 1.2 AES-GCM suites and their write-key lengths.
GCM_SUITES: dict[int, tuple[str, int]] = {
    0x009C: ("TLS_RSA_WITH_AES_128_GCM_SHA256", 16),
    0x009D: ("TLS_RSA_WITH_AES_256_GCM_SHA384", 32),
    0x009E: ("TLS_DHE_RSA_WITH_AES_128_GCM_SHA256", 16),
    0x009F: ("TLS_DHE_RSA_WITH_AES_256_GCM_SHA384", 32),
    0x00A0: ("TLS_DH_RSA_WITH_AES_128_GCM_SHA256", 16),
    0x00A1: ("TLS_DH_RSA_WITH_AES_256_GCM_SHA384", 32),
    0x00A2: ("TLS_DHE_DSS_WITH_AES_128_GCM_SHA256", 16),
    0x00A3: ("TLS_DHE_DSS_WITH_AES_256_GCM_SHA384", 32),
    0xC02B: ("TLS_ECDHE_ECDSA_WITH_AES_128_GCM_SHA256", 16),
    0xC02C: ("TLS_ECDHE_ECDSA_WITH_AES_256_GCM_SHA384", 32),
    0xC02D: ("TLS_ECDH_ECDSA_WITH_AES_128_GCM_SHA256", 16),
    0xC02E: ("TLS_ECDH_ECDSA_WITH_AES_256_GCM_SHA384", 32),
    0xC02F: ("TLS_ECDHE_RSA_WITH_AES_128_GCM_SHA256", 16),
    0xC030: ("TLS_ECDHE_RSA_WITH_AES_256_GCM_SHA384", 32),
    0xC031: ("TLS_ECDH_RSA_WITH_AES_128_GCM_SHA256", 16),
    0xC032: ("TLS_ECDH_RSA_WITH_AES_256_GCM_SHA384", 32),
}


class Direction(Enum):
    CLIENT_TO_SERVER = "client_to_server"
    SERVER_TO_CLIENT = "server_to_client"


class NonceStyle(Enum):
    COUNTER_LIKE = "counter"
    RANDOM_LIKE = "random"


class TlsRecord(NamedTuple):
    content_type: int
    legacy_version: int
    payload: bytes


class EncryptedRecord(NamedTuple):
    direction: Direction
    seq: int
    explicit_nonce: bytes
    ciphertext: bytes  # includes the 16-byte tag
    record_version: int
    content_type: int


class SessionCapture(NamedTuple):
    """One TLS 1.2 session: the cipher suite its ServerHello chose, which fixes
    the AES key size, and its encrypted records in merged order."""

    cipher_suite: int
    records: tuple[EncryptedRecord, ...]

    @property
    def suite_name(self) -> str:
        return GCM_SUITES[self.cipher_suite][0]

    @property
    def key_len_bytes(self) -> int:
        return suite_key_len(self.cipher_suite)

    def app_data(self, direction: Direction) -> list[EncryptedRecord]:
        """ApplicationData records of one direction, in capture order."""
        return [r for r in self.records if r.direction is direction and r.content_type == CONTENT_APPLICATION_DATA]

    @property
    def first_client_record(self) -> EncryptedRecord:
        """The first client ApplicationData record; raises NoApplicationData when there is none."""
        for record in self.records:
            if record.direction is Direction.CLIENT_TO_SERVER and record.content_type == CONTENT_APPLICATION_DATA:
                return record
        raise NoApplicationData("no client-to-server ApplicationData record")

    @property
    def first_explicit_nonce(self) -> bytes:
        """The explicit nonce of the first client ApplicationData record."""
        return self.first_client_record.explicit_nonce


def suite_key_len(cipher_suite: int) -> int:
    """Write-key length in bytes for a supported suite; raises otherwise."""
    try:
        return GCM_SUITES[cipher_suite][1]
    except KeyError:
        raise UnsupportedCipherSuite(f"cipher suite 0x{cipher_suite:04X} is not TLS 1.2 AES-GCM") from None


def read_records(data: bytes) -> list[TlsRecord]:
    """Split a raw byte stream into TLS records, validating the framing."""
    records = []
    off = 0
    end = len(data)
    while off < end:
        if end - off < 5:
            raise MalformedRecord(f"truncated record header at offset {off}")
        content_type, version, length = struct.unpack_from(">BHH", data, off)
        if content_type not in _CONTENT_TYPES:
            raise MalformedRecord(f"unknown content type {content_type} at offset {off}")
        if version >> 8 != 0x03:
            raise MalformedRecord(f"record version 0x{version:04X} is not TLS")
        if length > MAX_RECORD_PAYLOAD:
            raise MalformedRecord(f"record length {length} exceeds {MAX_RECORD_PAYLOAD}")
        off += 5
        if end - off < length:
            raise MalformedRecord("record payload shorter than its header length")
        records.append(TlsRecord(content_type, version, bytes(data[off : off + length])))
        off += length
    return records


def _handshake_messages(payloads: list[bytes]) -> list[tuple[int, bytes]]:
    """Coalesce handshake record payloads and split them into messages."""
    buf = b"".join(payloads)
    messages = []
    off = 0
    while off < len(buf):
        if len(buf) - off < 4:
            raise MalformedRecord("truncated handshake message header")
        msg_type = buf[off]
        length = int.from_bytes(buf[off + 1 : off + 4], "big")
        off += 4
        if len(buf) - off < length:
            raise MalformedRecord("truncated handshake message body")
        messages.append((msg_type, buf[off : off + length]))
        off += length
    return messages


def _parse_server_hello(body: bytes) -> tuple[int, int]:
    """Pull (version, cipher_suite) out of a ServerHello body."""
    if len(body) < 38:
        raise MalformedRecord("ServerHello too short")
    version = int.from_bytes(body[0:2], "big")
    sid_len = body[34]
    off = 35 + sid_len
    if len(body) < off + 3:
        raise MalformedRecord("ServerHello truncated after session id")
    suite = int.from_bytes(body[off : off + 2], "big")
    off += 3  # suite + compression method
    if len(body) >= off + 2:
        ext_total = int.from_bytes(body[off : off + 2], "big")
        off += 2
        ext_end = off + ext_total
        while off + 4 <= min(ext_end, len(body)):
            ext_type = int.from_bytes(body[off : off + 2], "big")
            ext_len = int.from_bytes(body[off + 2 : off + 4], "big")
            ext_body = body[off + 4 : off + 4 + ext_len]
            if ext_type == _EXT_SUPPORTED_VERSIONS and len(ext_body) >= 2:
                selected = int.from_bytes(ext_body[:2], "big")
                if selected >= TLS_1_3:
                    raise UnsupportedCipherSuite("TLS 1.3 negotiated; no explicit nonce to anchor on")
            off += 4 + ext_len
    return version, suite


def _split_direction(
    records: list[TlsRecord], direction: Direction
) -> tuple[list[bytes], list[EncryptedRecord]]:
    """Walk one direction's records; returns plaintext handshake payloads and
    the encrypted records that follow the ChangeCipherSpec, numbered from 0."""
    handshake_payloads = []
    encrypted = []
    ccs_seen = False
    seq = 0
    for rec in records:
        if not ccs_seen:
            if rec.content_type == CONTENT_CHANGE_CIPHER_SPEC:
                ccs_seen = True
            elif rec.content_type == CONTENT_HANDSHAKE:
                handshake_payloads.append(rec.payload)
            continue
        if len(rec.payload) < EXPLICIT_NONCE_LEN + GCM_TAG_LEN:
            raise MalformedRecord("encrypted record too short for nonce and tag")
        encrypted.append(
            EncryptedRecord(
                direction=direction,
                seq=seq,
                explicit_nonce=rec.payload[:EXPLICIT_NONCE_LEN],
                ciphertext=rec.payload[EXPLICIT_NONCE_LEN:],
                record_version=rec.legacy_version,
                content_type=rec.content_type,
            )
        )
        seq += 1
    return handshake_payloads, encrypted


def parse_raw_streams(client_data: bytes, server_data: bytes) -> SessionCapture:
    """Parse the two per-direction record streams into a SessionCapture."""
    client_records = read_records(client_data)
    server_records = read_records(server_data)

    _, client_encrypted = _split_direction(client_records, Direction.CLIENT_TO_SERVER)
    server_payloads, server_encrypted = _split_direction(server_records, Direction.SERVER_TO_CLIENT)

    server_hello = None
    for msg_type, body in _handshake_messages(server_payloads):
        if msg_type == _HS_SERVER_HELLO:
            server_hello = body
            break
    if server_hello is None:
        raise MalformedRecord("no ServerHello in server stream; cipher suite unknown")

    version, suite = _parse_server_hello(server_hello)
    if version != TLS_1_2:
        raise UnsupportedCipherSuite(f"negotiated version 0x{version:04X}; TLS 1.2 required")
    suite_key_len(suite)  # refuses an unsupported suite while parsing
    return assemble_session(suite, client_encrypted + server_encrypted)


def assemble_session(cipher_suite: int, records: list[EncryptedRecord]) -> SessionCapture:
    """Merge both directions' encrypted records into a SessionCapture of ``cipher_suite``.

    Cross-direction arrival order is not recoverable from two raw streams, so
    records merge by per-direction sequence number, client first on ties. A
    capture with no client ApplicationData record, whose explicit nonce the
    scans anchor on, raises NoApplicationData.
    """
    merged = sorted(records, key=lambda r: (r.seq, r.direction is not Direction.CLIENT_TO_SERVER))
    capture = SessionCapture(cipher_suite, tuple(merged))
    capture.first_client_record  # raises when the capture has none
    return capture


def parse_capture(source, session_filter: tuple | None = None) -> SessionCapture:
    """Parse the captured traffic at path ``source`` into a SessionCapture.

    A directory holds raw records, ``client.tls`` and ``server.tls``; any
    other path is a pcap file. ``session_filter`` is an optional
    ``(ip, port, ip, port)`` tuple selecting one TCP stream of a pcap; given
    with a directory it raises FilterNeedsPcap rather than being ignored.
    Callers holding the bytes parse them with ``parse_raw_streams``, after
    ``pcap.tls_streams_from_pcap`` for a pcap.
    """
    base = Path(source)
    if base.is_dir():
        if session_filter is not None:
            raise FilterNeedsPcap(f"a session filter selects a pcap session; the capture {base} is a directory")
        return parse_raw_streams(_read_capture(base / "client.tls"), _read_capture(base / "server.tls"))

    from .pcap import tls_streams_from_pcap

    return parse_raw_streams(*tls_streams_from_pcap(_read_capture(base), session_filter))


def _read_capture(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except MemoryError as exc:  # a capture larger than free memory
        raise KeysiftError(f"cannot read capture {path}: not enough free memory to hold it") from exc


def explicit_nonce_style(capture: SessionCapture) -> NonceStyle:
    """Classify the client's explicit nonces as counter-like or random-like.

    The Windows crypto library sends each record's sequence number as its
    explicit nonce (RFC 5288 §3 allows it), which is what steers scanner
    selection. The client's encrypted records of the first epoch (Finished
    and every later one, in seq order, up to an encrypted ChangeCipherSpec,
    after which a renegotiated epoch restarts the count at 0, RFC 5246 §6.1)
    are counter-like when each nonce, read big-endian, is one more than the
    one before. A lone client record has no step to read; it is counter-like
    when its nonce is below 256.
    """
    client = (r for r in capture.records if r.direction is Direction.CLIENT_TO_SERVER)
    nonces = [int.from_bytes(r.explicit_nonce, "big")
              for r in takewhile(lambda r: r.content_type != CONTENT_CHANGE_CIPHER_SPEC, client)]
    if len(nonces) > 1:
        counter_like = all(later == earlier + 1 for earlier, later in zip(nonces, nonces[1:]))
    else:
        counter_like = int.from_bytes(capture.first_explicit_nonce, "big") < _ONE_RECORD_COUNTER_BOUND
    return NonceStyle.COUNTER_LIKE if counter_like else NonceStyle.RANDOM_LIKE
