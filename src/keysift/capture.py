"""TLS 1.2 record-layer capture model and parsers.

Two input shapes are supported: raw per-direction record streams (the byte
sequences exactly as they crossed the wire, post TCP reassembly) and classic
pcap files. Raw streams are the primary interface; pcap is an adapter that
recovers the same two byte streams first.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import (
    MalformedRecord,
    NoApplicationData,
    UnsupportedCipherSuite,
)

CONTENT_CHANGE_CIPHER_SPEC = 20
CONTENT_ALERT = 21
CONTENT_HANDSHAKE = 22
CONTENT_APPLICATION_DATA = 23
_CONTENT_TYPES = frozenset((20, 21, 22, 23))

TLS_1_2 = 0x0303
TLS_1_3 = 0x0304
MAX_RECORD_PAYLOAD = 2**14 + 2048
EXPLICIT_NONCE_LEN = 8
GCM_TAG_LEN = 16

_HS_CLIENT_HELLO = 1
_HS_SERVER_HELLO = 2
_EXT_SUPPORTED_VERSIONS = 43

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


class CaptureFormat(Enum):
    PCAP = "pcap"
    RAW_RECORDS = "raw_records"


@dataclass(frozen=True)
class TlsRecord:
    content_type: int
    legacy_version: int
    payload: bytes


@dataclass(frozen=True)
class HandshakeSummary:
    tls_version: int
    cipher_suite: int
    key_len_bytes: int

    @property
    def suite_name(self) -> str:
        return GCM_SUITES[self.cipher_suite][0]


@dataclass(frozen=True)
class EncryptedRecord:
    direction: Direction
    seq: int
    explicit_nonce: bytes
    ciphertext: bytes  # includes the 16-byte tag
    record_version: int
    content_type: int


@dataclass(frozen=True)
class SessionCapture:
    handshake: HandshakeSummary
    records: tuple[EncryptedRecord, ...]
    first_explicit_nonce: bytes

    def app_data(self, direction: Direction) -> list[tuple[int, EncryptedRecord]]:
        """ApplicationData records of one direction with their capture indices."""
        return [
            (i, r)
            for i, r in enumerate(self.records)
            if r.direction is direction and r.content_type == CONTENT_APPLICATION_DATA
        ]


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


def serialize_records(records: list[TlsRecord]) -> bytes:
    out = bytearray()
    for rec in records:
        out += struct.pack(">BHH", rec.content_type, rec.legacy_version, len(rec.payload))
        out += rec.payload
    return bytes(out)


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
    key_len = suite_key_len(suite)
    summary = HandshakeSummary(tls_version=version, cipher_suite=suite, key_len_bytes=key_len)

    return assemble_session(summary, client_encrypted + server_encrypted)


def assemble_session(summary: HandshakeSummary, records: list[EncryptedRecord]) -> SessionCapture:
    """Merge both directions' encrypted records into a SessionCapture.

    Cross-direction arrival order is not recoverable from two raw streams, so
    records merge by per-direction sequence number, client first on ties. The
    first client ApplicationData record supplies the explicit nonce.
    """
    merged = sorted(records, key=lambda r: (r.seq, r.direction is not Direction.CLIENT_TO_SERVER))
    for rec in merged:
        if rec.direction is Direction.CLIENT_TO_SERVER and rec.content_type == CONTENT_APPLICATION_DATA:
            return SessionCapture(handshake=summary, records=tuple(merged), first_explicit_nonce=rec.explicit_nonce)
    raise NoApplicationData("no client-to-server ApplicationData record")


def _client_hello(suite: int, random32: bytes) -> bytes:
    body = struct.pack(">H", TLS_1_2) + random32 + b"\x00"  # version, random, empty session id
    body += struct.pack(">H", 2) + struct.pack(">H", suite)  # one offered suite
    body += b"\x01\x00"  # null compression only
    return bytes([_HS_CLIENT_HELLO]) + len(body).to_bytes(3, "big") + body


def _server_hello(suite: int, random32: bytes) -> bytes:
    body = struct.pack(">H", TLS_1_2) + random32 + b"\x00"
    body += struct.pack(">H", suite) + b"\x00"
    return bytes([_HS_SERVER_HELLO]) + len(body).to_bytes(3, "big") + body


def serialize_session(capture: SessionCapture, handshake_random: bytes = bytes(32)) -> tuple[bytes, bytes]:
    """Render a capture back into the two raw record streams.

    The handshake prefix is the minimal one the parser needs (hello messages
    carrying the suite, then ChangeCipherSpec); reparsing the output yields an
    equal SessionCapture.
    """
    suite = capture.handshake.cipher_suite
    streams = {
        Direction.CLIENT_TO_SERVER: [
            TlsRecord(CONTENT_HANDSHAKE, TLS_1_2, _client_hello(suite, handshake_random)),
            TlsRecord(CONTENT_CHANGE_CIPHER_SPEC, TLS_1_2, b"\x01"),
        ],
        Direction.SERVER_TO_CLIENT: [
            TlsRecord(CONTENT_HANDSHAKE, TLS_1_2, _server_hello(suite, handshake_random)),
            TlsRecord(CONTENT_CHANGE_CIPHER_SPEC, TLS_1_2, b"\x01"),
        ],
    }
    for rec in capture.records:
        streams[rec.direction].append(
            TlsRecord(rec.content_type, rec.record_version, rec.explicit_nonce + rec.ciphertext)
        )
    return (
        serialize_records(streams[Direction.CLIENT_TO_SERVER]),
        serialize_records(streams[Direction.SERVER_TO_CLIENT]),
    )


def parse_capture(
    source,
    capture_format: CaptureFormat | str = CaptureFormat.RAW_RECORDS,
    session_filter: tuple | None = None,
) -> SessionCapture:
    """Parse captured traffic into a SessionCapture.

    raw_records: ``source`` is a directory holding ``client.tls`` and
    ``server.tls``, or a ``(client_bytes, server_bytes)`` pair.
    pcap: ``source`` is a pcap path or its bytes; ``session_filter`` is an
    optional ``(ip, port, ip, port)`` tuple selecting one TCP stream.
    """
    fmt = CaptureFormat(capture_format) if not isinstance(capture_format, CaptureFormat) else capture_format
    if fmt is CaptureFormat.RAW_RECORDS:
        if isinstance(source, tuple):
            client_data, server_data = source
        else:
            base = Path(source)
            client_data = (base / "client.tls").read_bytes()
            server_data = (base / "server.tls").read_bytes()
        return parse_raw_streams(client_data, server_data)

    from .pcap import tls_streams_from_pcap

    data = source if isinstance(source, (bytes, bytearray)) else Path(source).read_bytes()
    client_data, server_data = tls_streams_from_pcap(bytes(data), session_filter)
    return parse_raw_streams(client_data, server_data)


def explicit_nonce_style(capture: SessionCapture, counter_bound: int = 256) -> NonceStyle:
    """Classify the first client ApplicationData nonce.

    Values below ``counter_bound`` (read big-endian) look like a per-record
    counter, which is how the Windows crypto library behaves and what steers
    scanner selection; anything else is treated as random.
    """
    value = int.from_bytes(capture.first_explicit_nonce, "big")
    return NonceStyle.COUNTER_LIKE if value < counter_bound else NonceStyle.RANDOM_LIKE
