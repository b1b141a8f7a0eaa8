import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from keysift.capture import (
    CONTENT_APPLICATION_DATA,
    CONTENT_CHANGE_CIPHER_SPEC,
    CONTENT_HANDSHAKE,
    GCM_SUITES,
    TLS_1_2,
    Direction,
    NonceStyle,
    TlsRecord,
    explicit_nonce_style,
    parse_capture,
    parse_raw_streams,
    read_records,
    suite_key_len,
)
from keysift.errors import (
    AmbiguousStream,
    FilterNeedsPcap,
    MalformedRecord,
    NoApplicationData,
    UnsupportedCipherSuite,
)
from keysift.fixtures import FixtureSpec, generate_fixture, reference_encrypt, serialize_records, serialize_session

from conftest import build_pcap, mixed_traffic_frames, tcp_frame


def _record(content_type, payload, version=TLS_1_2):
    return struct.pack(">BHH", content_type, version, len(payload)) + payload


def _client_hello_record(suite=0x009D):
    body = struct.pack(">H", TLS_1_2) + bytes(32) + b"\x00" + struct.pack(">HH", 2, suite) + b"\x01\x00"
    return _record(CONTENT_HANDSHAKE, bytes([1]) + len(body).to_bytes(3, "big") + body)


def _server_hello_record(suite=0x009D, version=TLS_1_2, extensions=b""):
    body = struct.pack(">H", version) + bytes(32) + b"\x00" + struct.pack(">H", suite) + b"\x00"
    if extensions:
        body += struct.pack(">H", len(extensions)) + extensions
    return _record(CONTENT_HANDSHAKE, bytes([2]) + len(body).to_bytes(3, "big") + body)


def _ccs():
    return _record(CONTENT_CHANGE_CIPHER_SPEC, b"\x01")


def _encrypted(payload_len=40, nonce=b"\x00" * 7 + b"\x01", content_type=CONTENT_APPLICATION_DATA):
    return _record(content_type, nonce + bytes(payload_len))


def _minimal_streams(suite=0x009D, app_nonce=b"\x00" * 7 + b"\x01", finished_nonce=bytes(8)):
    """A session whose client sends Finished (unless ``finished_nonce`` is
    None) and one ApplicationData record, and whose server sends Finished."""
    finished = b"" if finished_nonce is None else _encrypted(28, nonce=finished_nonce, content_type=CONTENT_HANDSHAKE)
    client = _client_hello_record(suite) + _ccs() + finished + _encrypted(64, nonce=app_nonce)
    server = (
        _server_hello_record(suite)
        + _ccs()
        + _encrypted(28, nonce=bytes(8), content_type=CONTENT_HANDSHAKE)
    )
    return client, server


def test_parse_minimal_session_layout():
    capture = parse_raw_streams(*_minimal_streams())
    assert capture.key_len_bytes == 32
    assert capture.cipher_suite == 0x009D
    kinds = [(r.direction, r.seq, r.content_type) for r in capture.records]
    assert kinds == [
        (Direction.CLIENT_TO_SERVER, 0, CONTENT_HANDSHAKE),
        (Direction.SERVER_TO_CLIENT, 0, CONTENT_HANDSHAKE),
        (Direction.CLIENT_TO_SERVER, 1, CONTENT_APPLICATION_DATA),
    ]


def test_first_explicit_nonce_is_the_low_counter():
    capture = parse_raw_streams(*_minimal_streams())
    assert capture.first_explicit_nonce == bytes(7) + b"\x01"
    assert int.from_bytes(capture.first_explicit_nonce, "big") == 1


def test_per_direction_seq_gapless(windows_fixture_32):
    _, paths, _ = windows_fixture_32
    capture = parse_capture(paths.root)
    for direction in Direction:
        seqs = [r.seq for r in capture.records if r.direction is direction]
        assert seqs == list(range(len(seqs)))


@pytest.mark.parametrize("suite,expected", [(s, GCM_SUITES[s][1]) for s in sorted(GCM_SUITES)])
def test_key_len_is_a_pure_function_of_suite(suite, expected):
    assert suite_key_len(suite) == expected
    capture = parse_raw_streams(*_minimal_streams(suite=suite))
    assert capture.key_len_bytes == expected
    assert capture.suite_name == GCM_SUITES[suite][0]


def test_cbc_suite_rejected():
    with pytest.raises(UnsupportedCipherSuite):
        parse_raw_streams(*_minimal_streams(suite=0x003C))


def test_tls13_suite_rejected():
    with pytest.raises(UnsupportedCipherSuite):
        parse_raw_streams(*_minimal_streams(suite=0x1301))


def test_tls13_supported_versions_extension_rejected():
    ext = struct.pack(">HH", 43, 2) + struct.pack(">H", 0x0304)
    client, _ = _minimal_streams()
    server = _server_hello_record(extensions=ext) + _ccs()
    with pytest.raises(UnsupportedCipherSuite):
        parse_raw_streams(client, server)


def test_pre_tls12_version_rejected():
    client, _ = _minimal_streams()
    server = _server_hello_record(version=0x0301) + _ccs()
    with pytest.raises(UnsupportedCipherSuite):
        parse_raw_streams(client, server)


def test_no_application_data():
    client = _client_hello_record() + _ccs() + _encrypted(28, nonce=bytes(8), content_type=CONTENT_HANDSHAKE)
    server = _server_hello_record() + _ccs()
    with pytest.raises(NoApplicationData):
        parse_raw_streams(client, server)


def test_truncated_payload_rejected():
    stream = _record(CONTENT_HANDSHAKE, bytes(10))[:-3]
    with pytest.raises(MalformedRecord):
        read_records(stream)


def test_unknown_content_type_rejected():
    with pytest.raises(MalformedRecord):
        read_records(_record(99, b"x"))


def test_oversize_length_rejected():
    bad = struct.pack(">BHH", CONTENT_HANDSHAKE, TLS_1_2, 2**14 + 2049) + bytes(2**14 + 2049)
    with pytest.raises(MalformedRecord):
        read_records(bad)


def test_missing_server_hello_rejected():
    client, _ = _minimal_streams()
    with pytest.raises(MalformedRecord):
        parse_raw_streams(client, _ccs())


def _handshake_record(msg_type, body, declared_len=None):
    length = len(body) if declared_len is None else declared_len
    return _record(CONTENT_HANDSHAKE, bytes([msg_type]) + length.to_bytes(3, "big") + body)


def test_truncated_record_header_rejected():
    with pytest.raises(MalformedRecord, match="truncated record header"):
        read_records(_ccs() + _ccs()[:3])


def test_non_tls_record_version_rejected():
    with pytest.raises(MalformedRecord, match="is not TLS"):
        read_records(_record(CONTENT_HANDSHAKE, b"x", version=0x0200))


@pytest.mark.parametrize("server_handshake,message", [
    (_record(CONTENT_HANDSHAKE, b"\x02\x00\x00"), "truncated handshake message header"),
    (_handshake_record(2, bytes(10), declared_len=40), "truncated handshake message body"),
    (_handshake_record(2, bytes(37)), "ServerHello too short"),
    (_handshake_record(2, bytes(34) + b"\x20" + bytes(34)), "ServerHello truncated after session id"),
], ids=["message-header", "message-body", "hello-short", "hello-after-session-id"])
def test_truncated_server_handshake_rejected(server_handshake, message):
    client, _ = _minimal_streams()
    with pytest.raises(MalformedRecord, match=message):
        parse_raw_streams(client, server_handshake + _ccs())


def test_encrypted_record_shorter_than_nonce_and_tag_rejected():
    client, server = _minimal_streams()
    with pytest.raises(MalformedRecord, match="too short for nonce and tag"):
        parse_raw_streams(client + _record(CONTENT_APPLICATION_DATA, bytes(23)), server)


def test_server_hello_extension_walk_passes_other_extensions():
    # renegotiation_info comes first; the TLS 1.3 selection after it is still found
    renegotiation_info = struct.pack(">HH", 0xFF01, 1) + b"\x00"
    client, _ = _minimal_streams()
    server = _server_hello_record(extensions=renegotiation_info) + _ccs()
    assert parse_raw_streams(client, server).cipher_suite == 0x009D
    tls13 = struct.pack(">HH", 43, 2) + struct.pack(">H", 0x0304)
    server = _server_hello_record(extensions=renegotiation_info + tls13) + _ccs()
    with pytest.raises(UnsupportedCipherSuite):
        parse_raw_streams(client, server)


@given(payloads=st.lists(st.binary(min_size=0, max_size=300), max_size=8))
@settings(max_examples=50, deadline=None)
def test_record_stream_roundtrip(payloads):
    records = [TlsRecord(CONTENT_APPLICATION_DATA, TLS_1_2, p) for p in payloads]
    assert read_records(serialize_records(records)) == records


@pytest.mark.parametrize("key_len", [16, 32])
@pytest.mark.parametrize("style", [NonceStyle.COUNTER_LIKE, NonceStyle.RANDOM_LIKE])
def test_session_serialize_reparse_roundtrip(tmp_path, key_len, style):
    spec = FixtureSpec(
        rng_seed=42,
        key_len_bytes=key_len,
        explicit_nonce_style=style,
        extract_sizes=(1 << 20,),
    )
    paths, _ = generate_fixture(spec, tmp_path)
    capture = parse_capture(paths.root)
    reparsed = parse_raw_streams(*serialize_session(capture))
    assert reparsed == capture


def test_nonce_style_counter():
    capture = parse_raw_streams(*_minimal_streams())
    assert explicit_nonce_style(capture) is NonceStyle.COUNTER_LIKE


def test_nonce_style_random():
    capture = parse_raw_streams(*_minimal_streams(app_nonce=b"\x9f\x31\xc2\x88\x11\x22\x33\x44"))
    assert explicit_nonce_style(capture) is NonceStyle.RANDOM_LIKE


def test_nonce_style_boundary():
    # the client's nonces in seq order: counter-like when each is one more
    # than the last, whatever their size; a lone record has no step, so its
    # nonce must be below 256
    table = [
        ((0, 1), NonceStyle.COUNTER_LIKE),
        ((0, 255), NonceStyle.RANDOM_LIKE),
        ((1000, 1001), NonceStyle.COUNTER_LIKE),
        ((5, 5), NonceStyle.RANDOM_LIKE),
        ((255,), NonceStyle.COUNTER_LIKE),
        ((256,), NonceStyle.RANDOM_LIKE),
    ]
    for nonces, style in table:
        finished = nonces[0].to_bytes(8, "big") if len(nonces) == 2 else None
        capture = parse_raw_streams(*_minimal_streams(app_nonce=nonces[-1].to_bytes(8, "big"), finished_nonce=finished))
        assert explicit_nonce_style(capture) is style, nonces


def test_reference_encrypt_records_parse_back(tmp_path):
    rec = reference_encrypt(b"hello world", bytes(16), b"\x01\x02\x03\x04", bytes(8), seq=1)
    stream_client = (
        _client_hello_record(0x009C) + _ccs()
        + serialize_records([TlsRecord(rec.content_type, rec.record_version, rec.explicit_nonce + rec.ciphertext)])
    )
    server = _server_hello_record(0x009C) + _ccs()
    capture = parse_raw_streams(stream_client, server)
    assert capture.records[0].ciphertext == rec.ciphertext


# ---------------------------------------------------------------------------
# pcap adapter


def _fixture_streams(windows_fixture_32):
    _, paths, _ = windows_fixture_32
    return paths.client_records.read_bytes(), paths.server_records.read_bytes()


def _pcap_file(tmp_path, pcap: bytes):
    path = tmp_path / "session.pcap"
    path.write_bytes(pcap)
    return path


def test_pcap_equals_raw(windows_fixture_32, tmp_path):
    client, server = _fixture_streams(windows_fixture_32)
    assert parse_capture(_pcap_file(tmp_path, build_pcap(client, server))) == parse_raw_streams(client, server)


@pytest.mark.parametrize("nanosecond,little_endian", [(True, False), (False, True)])
def test_pcap_header_variants(windows_fixture_32, tmp_path, nanosecond, little_endian):
    client, server = _fixture_streams(windows_fixture_32)
    pcap = build_pcap(client, server, nanosecond=nanosecond, little_endian=little_endian)
    assert parse_capture(_pcap_file(tmp_path, pcap)) == parse_raw_streams(client, server)


def test_pcap_duplicate_segment_dropped(windows_fixture_32, tmp_path):
    client, server = _fixture_streams(windows_fixture_32)
    pcap = build_pcap(client, server, chunk=100, duplicate_first=True)
    assert parse_capture(_pcap_file(tmp_path, pcap)) == parse_raw_streams(client, server)


@pytest.mark.parametrize("session_filter", [None, ("10.0.0.1", 443, "10.0.0.2", 49152)])
def test_pcap_mixed_traffic_reads_like_raw_streams(windows_fixture_32, tmp_path, session_filter):
    # another connection's reordered segments and a fragmented datagram are not the session's
    client, server = _fixture_streams(windows_fixture_32)
    pcap = build_pcap(client, server, extra_frames=mixed_traffic_frames())
    assert parse_capture(_pcap_file(tmp_path, pcap), session_filter) == parse_raw_streams(client, server)


def test_pcap_gap_in_an_unselected_tls_stream_is_ignored(windows_fixture_32, tmp_path):
    client, server = _fixture_streams(windows_fixture_32)
    pcap = _pcap_file(tmp_path, build_pcap(client, server, chunk=100, drop=1, extra_stream=(client, server)))
    assert parse_capture(pcap, ("10.9.9.2", 50000, "10.9.9.1", 443)) == parse_raw_streams(client, server)
    with pytest.raises(MalformedRecord, match="bytes 100-199"):
        parse_capture(pcap, ("10.0.0.2", 49152, "10.0.0.1", 443))


def test_pcap_two_streams_ambiguous(windows_fixture_32, tmp_path):
    client, server = _fixture_streams(windows_fixture_32)
    pcap = build_pcap(client, server, extra_stream=(client, server))
    with pytest.raises(AmbiguousStream):
        parse_capture(_pcap_file(tmp_path, pcap))


def test_pcap_filter_selects_stream(windows_fixture_32, tmp_path):
    client, server = _fixture_streams(windows_fixture_32)
    pcap = build_pcap(client, server, extra_stream=(client, server))
    capture = parse_capture(_pcap_file(tmp_path, pcap), session_filter=("10.0.0.2", 49152, "10.0.0.1", 443))
    assert capture == parse_raw_streams(client, server)


def test_session_filter_on_raw_records_is_refused(windows_fixture_32):
    # raw records hold one session, so a filter would be silently ignored
    _, paths, _ = windows_fixture_32
    session_filter = ("1.2.3.4", 1, "5.6.7.8", 2)
    with pytest.raises(FilterNeedsPcap, match="is a directory"):
        parse_capture(paths.root, session_filter)


def test_pcap_garbage_rejected(tmp_path):
    with pytest.raises(MalformedRecord):
        parse_capture(_pcap_file(tmp_path, b"\x00" * 40))


_CLIENT, _SERVER = ("10.0.0.2", 49152), ("10.0.0.1", 443)


def _past_client(client: bytes, payload: bytes = b"\x17\x03\x03\x00\x04junk") -> bytes:
    """A client segment at the seq right after the stream: read, it would lengthen the stream."""
    return tcp_frame(_CLIENT, _SERVER, 1000 + len(client), payload)


def _edited(frame: bytes, offset: int, value: bytes) -> bytes:
    edited = bytearray(frame)
    edited[offset : offset + len(value)] = value
    return bytes(edited)


def _first_record_len(stream: bytes) -> int:
    return 5 + struct.unpack_from(">H", stream, 3)[0]


def _shuffled_pcap(client: bytes, server: bytes, seed: int) -> bytes:
    """Each direction's segments, with some that overlap, repeat, resend a shorter prefix and
    wrap the 32-bit sequence space, all in a random order: the first segment may come last."""
    rng = random.Random(seed)
    frames = []
    for stream, src, dst, isn in ((client, _CLIENT, _SERVER, 0xFFFFFF00), (server, _SERVER, _CLIENT, 9000)):
        cuts = [0] + sorted(rng.sample(range(1, len(stream)), 20)) + [len(stream)]
        segments = [(max(0, start - rng.randrange(0, 8)), end) for start, end in zip(cuts, cuts[1:])]
        segments += rng.sample(segments[1:], 4)
        segments += [(start, (start + end) // 2) for start, end in rng.sample(segments[1:], 8)]
        frames += [tcp_frame(src, dst, (isn + start) & 0xFFFFFFFF, stream[start:end]) for start, end in segments]
    rng.shuffle(frames)
    return build_pcap(b"", b"", extra_frames=tuple(frames))


@pytest.mark.parametrize("make", [
    lambda client, server: build_pcap(client, server, vlan=True),
    lambda client, server: build_pcap(client, server, extra_frames=(
        b"\xff" * 6 + b"\x04" * 6 + struct.pack(">H", 0x0806) + bytes(28),  # ARP
        tcp_frame(_CLIENT, _SERVER, 0, client[:40], proto=17),  # UDP
    )),
    # the client's first segment again after the whole stream, entirely behind it
    lambda client, server: build_pcap(client, server, chunk=100,
                                      extra_frames=(tcp_frame(_CLIENT, _SERVER, 1000, client[:100]),)),
    # the same segment again as a first fragment: the fragment is skipped whole
    lambda client, server: build_pcap(client, server, extra_frames=(
        tcp_frame(_CLIENT, _SERVER, 1000, client[:100], flags_frag=0x2000),)),
    lambda client, server: build_pcap(client, server, extra_frames=(b"\x02" * 10,)),
    lambda client, server: build_pcap(client, server, extra_frames=(
        b"\x02" * 6 + b"\x04" * 6 + struct.pack(">HH", 0x8100, 7),)),  # cut before the inner ethertype
    lambda client, server: build_pcap(client, server, extra_frames=(
        _edited(_past_client(client), 14, b"\x65"),)),  # version nibble 6
    # IHL 4: read as TCP from inside the IPv4 header, the ports and payload would start at
    # the destination address, opening a second TLS-looking stream
    lambda client, server: build_pcap(client, server, extra_frames=(
        _edited(tcp_frame(("10.0.0.9", 1234), ("22.3.1.1", 443), 0, bytes(20)), 14, b"\x44"),)),
    lambda client, server: build_pcap(client, server, extra_frames=(_past_client(client)[: 14 + 20 + 10],)),
    # a copy of the client's first segment with TCP data offset 0: read from inside the TCP
    # header, its payload would be the longer of the two at that seq and displace the real one
    lambda client, server: build_pcap(client, server, chunk=100, extra_frames=(
        _edited(tcp_frame(_CLIENT, _SERVER, 1000, client[:100]), 14 + 20 + 12, b"\x00"),)),
    lambda client, server: build_pcap(client, server, extra_frames=(
        tcp_frame(_SERVER, _CLIENT, 9000 + len(server), b""), tcp_frame(_CLIENT, _SERVER, 1000 + len(client), b""))),
    # a 54-byte pure ACK padded to Ethernet's 60-byte minimum: the padding is not payload
    lambda client, server: build_pcap(client, server, extra_frames=(_past_client(client, b"") + bytes(6),)),
    # an IPv4 total length of 0, as TCP segmentation offload leaves it, reads to the frame's end
    lambda client, server: build_pcap(client[:100], server, extra_frames=(
        _edited(tcp_frame(_CLIENT, _SERVER, 1100, client[100:]), 16, bytes(2)),)),
    # without its ClientHello the client stream opens with ChangeCipherSpec: the earliest talker
    lambda client, server: build_pcap(client[_first_record_len(client):], server),
    # each stream is read from its lowest seq in any arrival order; of two segments at one seq
    # the longer is kept
    lambda client, server: build_pcap(client, server, chunk=100, reorder=True),
    lambda client, server: build_pcap(client, server, chunk=len(client) // 2 + 1, reorder=True),
    lambda client, server: _shuffled_pcap(client, server, 1),
    lambda client, server: _shuffled_pcap(client, server, 2),
    lambda client, server: _shuffled_pcap(client, server, 3),
], ids=["vlan", "non-ipv4-and-non-tcp-skipped", "retransmission-dropped", "ipv4-fragment-skipped", "runt-frame",
        "vlan-cut", "ip-version-6", "ihl-below-5", "tcp-header-cut", "tcp-data-offset-below-5", "pure-ack",
        "ethernet-padding", "zero-ip-length", "no-client-hello", "reordered", "first-segments-swapped", "shuffled-1",
        "shuffled-2", "shuffled-3"])
def test_pcap_frames_that_carry_the_same_session(windows_fixture_32, tmp_path, make):
    client, server = _fixture_streams(windows_fixture_32)
    assert len(client) > 300  # three 100-byte segments for the reordered swap to bite
    assert parse_capture(_pcap_file(tmp_path, make(client, server))) == parse_raw_streams(client, server)


@pytest.mark.parametrize("make,session_filter,message", [
    # the client's second 100 bytes sent only as the first fragment of their packet
    (lambda client, server: build_pcap(client[:100], server, extra_frames=(
        tcp_frame(_CLIENT, _SERVER, 1100, client[100:144], flags_frag=0x2000),
        tcp_frame(_CLIENT, _SERVER, 1200, client[200:]))), None,
     "TCP stream 10.0.0.2:49152 -> 10.0.0.1:443: bytes 100-199 did not arrive"),
    # every 154-byte frame captured 20 bytes short: the client's first gap is its first cut
    (lambda client, server: build_pcap(client, server, chunk=100, snaplen=134), None,
     "TCP stream 10.0.0.2:49152 -> 10.0.0.1:443: bytes 80-99 did not arrive"),
    # the segments after a lost one are held to the end of the file
    (lambda client, server: build_pcap(client, server, chunk=100, drop=1), None,
     "TCP stream 10.0.0.2:49152 -> 10.0.0.1:443: bytes 100-199 did not arrive"),
    (lambda client, server: build_pcap(client, server)[:20], None, "shorter than its global header"),
    # a pcapng file opens with its Section Header Block type, not a pcap magic
    (lambda client, server: b"\x0a\x0d\x0d\x0a" + build_pcap(client, server)[4:], None,
     r"not a classic pcap file \(magic 0x0A0D0D0A\)"),
    (lambda client, server: build_pcap(client, server)[: 24 + 10], None, "truncated pcap packet header"),
    (lambda client, server: build_pcap(client, server)[: 24 + 16 + 10], None, "truncated pcap packet data"),
    (lambda client, server: build_pcap(client, server, linktype=101), None, "link type 101"),
    (lambda client, server: build_pcap(b"GET / HTTP/1.1\r\n\r\n", b"HTTP/1.1 200 OK\r\n\r\n"), None,
     "no TLS-over-TCP stream"),
    (lambda client, server: build_pcap(client, server), ("10.7.7.7", 1, "10.8.8.8", 2),
     "no TLS stream matches filter"),
], ids=["first-fragment-only", "snap-length-cut", "lost-segment", "global-header", "pcapng-magic", "packet-header", "packet-data", "link-type", "no-tls", "filter-misses"])
def test_pcap_input_rejected(windows_fixture_32, tmp_path, make, session_filter, message):
    pcap = make(*_fixture_streams(windows_fixture_32))
    with pytest.raises(MalformedRecord, match=message):
        parse_capture(_pcap_file(tmp_path, pcap), session_filter)
