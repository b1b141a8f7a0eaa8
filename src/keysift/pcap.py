"""Classic-pcap reader: Ethernet/IPv4/TCP frames down to per-direction TLS streams.

One pass over the frames collects each TCP connection's two directions as
segments keyed by sequence number. Once every frame is read, each direction
is assembled from its lowest sequence number, so segments read the same in
any arrival order: duplicates and overlaps are trimmed, and the stream stops
at its first hole. TCP handling is otherwise minimal: with no SYN handling,
a lost first segment reads like a capture that started mid-stream. Only the
session returned has to be whole; gaps in other connections, IPv4 fragments
and non-TCP packets are never looked at.
"""

from __future__ import annotations

import struct

from .errors import AmbiguousStream, MalformedRecord

_MAGIC_TO_BYTEORDER = {
    0xA1B2C3D4: ">",
    0xA1B23C4D: ">",
    0xD4C3B2A1: "<",
    0x4D3CB2A1: "<",
}

_ETHERTYPE_IPV4 = 0x0800
_ETHERTYPE_VLAN = 0x8100
_IPPROTO_TCP = 6

Endpoint = tuple[str, int]
FlowKey = tuple[Endpoint, Endpoint]


def _assemble(segments: dict[int, bytes]) -> tuple[bytes, tuple[int, int] | None]:
    """The stream from the lowest seq of ``segments`` (TCP seq -> payload), and its first
    hole as (stream offset, missing byte count), or None when the segments join up."""
    anchor = next(iter(segments))
    # signed 32-bit distance from the first seq seen, so a wrapped sequence space still sorts
    placed = sorted(
        (((seq - anchor + 0x80000000) & 0xFFFFFFFF) - 0x80000000, payload) for seq, payload in segments.items()
    )
    start = placed[0][0]
    stream = bytearray()
    for at, payload in placed:
        skip = start + len(stream) - at
        if skip < 0:
            return bytes(stream), (len(stream), -skip)
        stream += payload[skip:]  # empty for a retransmission entirely behind the stream
    return bytes(stream), None


def _iter_packets(data: bytes):
    if len(data) < 24:
        raise MalformedRecord("pcap shorter than its global header")
    magic = struct.unpack(">I", data[:4])[0]
    if magic not in _MAGIC_TO_BYTEORDER:
        raise MalformedRecord(f"not a classic pcap file (magic 0x{magic:08X})")
    order = _MAGIC_TO_BYTEORDER[magic]
    linktype = struct.unpack(order + "I", data[20:24])[0]
    if linktype != 1:
        raise MalformedRecord(f"unsupported pcap link type {linktype}; Ethernet required")
    off = 24
    while off < len(data):
        if len(data) - off < 16:
            raise MalformedRecord("truncated pcap packet header")
        _, _, incl_len, _ = struct.unpack(order + "IIII", data[off : off + 16])
        off += 16
        if len(data) - off < incl_len:
            raise MalformedRecord("truncated pcap packet data")
        yield data[off : off + incl_len]
        off += incl_len


def _tcp_payload(frame: bytes):
    """(src, dst, seq, payload) of an unfragmented IPv4/TCP frame that carries data, else None."""
    if len(frame) < 14:
        return None
    ethertype = struct.unpack_from(">H", frame, 12)[0]
    l3_off = 14
    if ethertype == _ETHERTYPE_VLAN:
        if len(frame) < 18:
            return None
        ethertype = struct.unpack_from(">H", frame, 16)[0]
        l3_off = 18
    if ethertype != _ETHERTYPE_IPV4 or len(frame) < l3_off + 20:
        return None
    ver_ihl = frame[l3_off]
    ihl = (ver_ihl & 0x0F) * 4
    total_len, flags_frag = struct.unpack_from(">2xH2xH", frame, l3_off)
    # a fragment (MF set or a non-zero offset) is skipped whole
    if ver_ihl >> 4 != 4 or ihl < 20 or flags_frag & 0x3FFF or frame[l3_off + 9] != _IPPROTO_TCP:
        return None
    l4_off = l3_off + ihl
    # a TCP data offset below 5 words (RFC 9293 §3.1) would start the payload inside the header
    if len(frame) < l4_off + 20 or frame[l4_off + 12] >> 4 < 5:
        return None
    sport, dport, seq = struct.unpack_from(">HHI", frame, l4_off)
    start = l4_off + (frame[l4_off + 12] >> 4) * 4
    # the IPv4 length drops Ethernet padding, and slicing stops at the captured bytes; a
    # length short of the headers (0 under TCP segmentation offload) reads to the frame's end
    end = l3_off + total_len
    payload = frame[start : end if end >= start else None]
    if not payload:
        return None
    src = ".".join(str(b) for b in frame[l3_off + 12 : l3_off + 16])
    dst = ".".join(str(b) for b in frame[l3_off + 16 : l3_off + 20])
    return (src, sport), (dst, dport), seq, payload


def _looks_like_tls(data: bytes) -> bool:
    return len(data) >= 3 and 20 <= data[0] <= 23 and data[1] == 3 and data[2] <= 4


def _is_client_hello(data: bytes) -> bool:
    return len(data) >= 6 and data[0] == 22 and data[5] == 1


def tls_streams_from_pcap(
    data: bytes, session_filter: tuple | None = None
) -> tuple[bytes, bytes]:
    """Reassemble the (client, server) TLS byte streams from a pcap.

    ``session_filter`` is an ``(ip, port, ip, port)`` tuple naming one flow in
    either orientation; it is required when the capture holds more than one
    TLS-over-TCP stream. A gap in either direction of the session returned
    raises ``MalformedRecord`` naming the flow and the missing byte range.
    """
    connections: dict[frozenset, dict[FlowKey, dict[int, bytes]]] = {}
    for frame in _iter_packets(data):
        parsed = _tcp_payload(frame)
        if parsed is None:
            continue
        src, dst, seq, payload = parsed
        segments = connections.setdefault(frozenset((src, dst)), {}).setdefault((src, dst), {})
        if len(payload) > len(segments.get(seq, b"")):
            segments[seq] = payload

    # each connection's flows, earliest talker first, as (stream, first hole)
    streams = {}
    for connection, flows in connections.items():
        assembled = {key: _assemble(segments) for key, segments in flows.items()}
        if any(_looks_like_tls(stream) for stream, _ in assembled.values()):
            streams[connection] = assembled
    if not streams:
        raise MalformedRecord("no TLS-over-TCP stream in capture")

    if session_filter is not None:
        a = (session_filter[0], int(session_filter[1]))
        b = (session_filter[2], int(session_filter[3]))
        wanted = frozenset((a, b))
        if wanted not in streams:
            raise MalformedRecord(f"no TLS stream matches filter {session_filter}")
        selected = streams[wanted]
    elif len(streams) > 1:
        raise AmbiguousStream(f"{len(streams)} TLS streams in capture; a session filter is required")
    else:
        selected = next(iter(streams.values()))

    for (src, dst), (_, gap) in selected.items():
        if gap is not None:
            start, missing = gap
            raise MalformedRecord(
                f"TCP stream {src[0]}:{src[1]} -> {dst[0]}:{dst[1]}: bytes {start}-{start + missing - 1} did not "
                "arrive (a lost segment, an IPv4 fragment, or a packet cut short by the snap length)"
            )
    # the first flow to open with a ClientHello is the client's, else the earliest talker
    client_key = next((key for key, (stream, _) in selected.items() if _is_client_hello(stream)), next(iter(selected)))
    server = selected.get((client_key[1], client_key[0]))
    return selected[client_key][0], server[0] if server is not None else b""
