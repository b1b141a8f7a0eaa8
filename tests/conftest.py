"""Shared helpers: canned fixtures, a minimal pcap builder, and independent
reimplementations of the scanners used as oracles."""

from __future__ import annotations

import math
import re
import struct
from collections import Counter

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from keysift.decrypt import _cipher_for, _open_record, _seq_candidates
from keysift.fixtures import FixtureSpec, generate_fixture
from keysift.memscan import IV_MARKER, KEY_MARKER, IV_LEN

MB = 1 << 20


@pytest.fixture(scope="session")
def windows_fixture_32(tmp_path_factory):
    spec = FixtureSpec(
        rng_seed=1001,
        key_len_bytes=32,
        extract_sizes=(512 * 1024, int(2.5 * MB)),
        decoy_markers=4,
    )
    paths, truth = generate_fixture(spec, tmp_path_factory.mktemp("winfix32"))
    return spec, paths, truth


@pytest.fixture(scope="session")
def windows_fixture_16(tmp_path_factory):
    spec = FixtureSpec(
        rng_seed=1002,
        key_len_bytes=16,
        extract_sizes=(512 * 1024, int(2.5 * MB)),
        decoy_markers=4,
    )
    paths, truth = generate_fixture(spec, tmp_path_factory.mktemp("winfix16"))
    return spec, paths, truth


# ---------------------------------------------------------------------------
# pcap construction

def _tcp_packet(src, dst, seq, payload: bytes) -> bytes:
    eth = b"\x02" * 6 + b"\x04" * 6 + struct.pack(">H", 0x0800)
    total_len = 20 + 20 + len(payload)
    ip = struct.pack(
        ">BBHHHBBH4s4s",
        0x45, 0, total_len, 0, 0x4000, 64, 6, 0,
        bytes(int(x) for x in src[0].split(".")),
        bytes(int(x) for x in dst[0].split(".")),
    )
    tcp = struct.pack(">HHIIBBHHH", src[1], dst[1], seq, 0, 5 << 4, 0x18, 65535, 0, 0)
    return eth + ip + tcp + payload


def build_pcap(
    client_stream: bytes,
    server_stream: bytes,
    client=("10.0.0.2", 49152),
    server=("10.0.0.1", 443),
    chunk: int = 1200,
    nanosecond: bool = False,
    little_endian: bool = False,
    duplicate_first: bool = False,
    reorder: bool = False,
    extra_stream: tuple[bytes, bytes] | None = None,
) -> bytes:
    """Assemble a classic pcap carrying one (or two) TLS-over-TCP streams."""
    order = "<" if little_endian else ">"
    magic = 0xA1B23C4D if nanosecond else 0xA1B2C3D4
    out = bytearray(struct.pack(order + "IHHiIII", magic, 2, 4, 0, 0, 65535, 1))

    def chunks(data):
        return [data[i : i + chunk] for i in range(0, len(data), chunk)]

    def flow_packets(stream, src, dst, isn):
        packets = []
        seq = isn
        for part in chunks(stream):
            packets.append(_tcp_packet(src, dst, seq, part))
            seq = (seq + len(part)) & 0xFFFFFFFF
        return packets

    client_packets = flow_packets(client_stream, client, server, 1000)
    server_packets = flow_packets(server_stream, server, client, 9000)
    if duplicate_first and client_packets:
        client_packets.insert(1, client_packets[0])
    if reorder and len(client_packets) >= 3:
        # mid-stream swap leaves a sequence gap the reassembler must reject
        client_packets[1], client_packets[2] = client_packets[2], client_packets[1]
    elif reorder and len(client_packets) >= 2:
        client_packets[0], client_packets[1] = client_packets[1], client_packets[0]

    frames = []
    for i in range(max(len(client_packets), len(server_packets))):
        if i < len(client_packets):
            frames.append(client_packets[i])
        if i < len(server_packets):
            frames.append(server_packets[i])

    if extra_stream is not None:
        c2 = ("10.9.9.2", 50000)
        s2 = ("10.9.9.1", 443)
        frames += flow_packets(extra_stream[0], c2, s2, 100)
        frames += flow_packets(extra_stream[1], s2, c2, 200)

    for frame in frames:
        out += struct.pack(order + "IIII", 0, 0, len(frame), len(frame))
        out += frame
    return bytes(out)


# ---------------------------------------------------------------------------
# independent scanner oracles

def naive_entropy(segment: bytes) -> float:
    n = len(segment)
    counts = Counter(segment)
    return -sum((c / n) * math.log2(c / n) for c in counts.values())


def naive_find_all(data: bytes, pattern: bytes) -> list[int]:
    """Quadratic scan with slice compares; overlapping matches included."""
    return [
        i for i in range(len(data) - len(pattern) + 1) if data[i : i + len(pattern)] == pattern
    ]


def _regex_find_all(data: bytes, pattern: bytes) -> list[int]:
    # lookahead keeps overlapping matches; markers do not self-overlap anyway
    return [m.start() for m in re.finditer(b"(?=" + re.escape(pattern) + b")", data)]


def oracle_windows_scan(extract_set, cfg):
    """Marker scan recounted through the regex engine and a Counter-based
    entropy, mirroring the production semantics window for window."""
    keys: dict[bytes, tuple] = {}
    ivs: dict[bytes, tuple] = {}
    for extract in [extract_set.extracts[i] for band in (1, 2, 3) for i in extract_set.bands[band]]:
        data = extract.data
        if not _regex_find_all(data, KEY_MARKER):
            continue
        for marker in _regex_find_all(data, IV_MARKER):
            base = marker + len(IV_MARKER)
            for dist in range(0, cfg.max_iv_distance + 1, cfg.step):
                window = data[base + dist : base + dist + IV_LEN]
                if len(window) < IV_LEN:
                    break
                ent = naive_entropy(window)
                if ent > cfg.iv_entropy_threshold:
                    ivs.setdefault(bytes(window), (extract.id, base + dist, ent))
        for marker in _regex_find_all(data, KEY_MARKER):
            base = marker + len(KEY_MARKER)
            for dist in range(0, cfg.max_key_distance + 1, cfg.step):
                window = data[base + dist : base + dist + cfg.key_len_bytes]
                if len(window) < cfg.key_len_bytes:
                    break
                ent = naive_entropy(window)
                if ent > cfg.key_entropy_threshold:
                    keys.setdefault(bytes(window), (extract.id, base + dist, ent))
    key_list = sorted(
        [(value,) + where for value, where in keys.items()], key=lambda t: (t[1], t[2])
    )
    iv_list = sorted(
        [(value,) + where for value, where in ivs.items()], key=lambda t: (t[1], t[2])
    )
    return key_list, iv_list


def oracle_standard_scan(extract_set, capture, cfg):
    """Standard scan recounted with the quadratic search and Counter-based
    entropy: gate the 4 bytes in front of every nonce hit, hypothesise both
    key-block layouts at every recurrence of a gated value, keep a hypothesis
    when both key windows clear the key gate, then prune hits greedily per
    extract. Returns (extract_id, offset, hypothesis, client_key, server_key,
    client_iv, server_iv, hit offset) tuples in the scanner's order."""
    nonce = capture.first_explicit_nonce
    k = cfg.key_len_bytes
    gated = set()
    for extract in extract_set.extracts:
        for off in naive_find_all(extract.data, nonce):
            if off < IV_LEN:
                continue
            segment = extract.data[off - IV_LEN : off]
            if naive_entropy(segment) > cfg.iv_entropy_threshold:
                gated.add(segment)

    found = []
    for extract in extract_set.extracts:
        data = extract.data
        per_hit: dict[int, list[tuple]] = {}
        for value in gated:
            for hit in naive_find_all(data, value):
                for shift, hypothesis in ((0, "iv_was_client"), (IV_LEN, "iv_was_server")):
                    start = hit - 2 * k - shift
                    ivs = start + 2 * k
                    if start < 0 or ivs + 2 * IV_LEN > len(data):
                        continue
                    client_key, server_key = data[start : start + k], data[start + k : ivs]
                    if min(naive_entropy(client_key), naive_entropy(server_key)) > cfg.key_entropy_threshold:
                        per_hit.setdefault(hit, []).append((
                            extract.id, start, hypothesis, client_key, server_key,
                            data[ivs : ivs + IV_LEN], data[ivs + IV_LEN : ivs + 2 * IV_LEN], hit,
                        ))
        last_kept = None
        for hit in sorted(per_hit):
            if last_kept is None or hit - last_kept >= cfg.min_artefact_gap:
                last_kept = hit
                found += per_hit[hit]
    return sorted(found, key=lambda t: t[:3])


def naive_pair_order(keys, ivs):
    """The eagerly sorted key x IV cross product: same-extract pairs first, then
    |offset delta|, then key index, then IV index."""
    pairs = [
        (0 if k.extract_id == v.extract_id else 1, abs(k.offset - v.offset), ki, vi)
        for ki, k in enumerate(keys)
        for vi, v in enumerate(ivs)
    ]
    pairs.sort()
    return [(keys[ki], ivs[vi]) for _, _, ki, vi in pairs]


def naive_first_opening(record, materials, seq_window):
    """The per-pair trial loop: try each (key, iv, index, swapped) material
    against ``record`` at every sequence number of the window, nearest first,
    with one ``AESGCM.decrypt`` per trial. Returns the trial count and the
    first (material, seq, plaintext) whose tag verifies, or None."""
    seqs = _seq_candidates(record.seq, seq_window)
    ciphers: dict[bytes, AESGCM] = {}
    trials = 0
    for material in materials:
        aead = ciphers.get(material[0])
        if aead is None:
            aead = ciphers[material[0]] = _cipher_for(material[0])
        for seq in seqs:
            trials += 1
            plaintext = _open_record(aead, record, material[1], seq)
            if plaintext is not None:
                return trials, (material, seq, plaintext)
    return trials, None


# ---------------------------------------------------------------------------
# acceptance reporting

_ACCEPTANCE_RESULTS: dict[int, str] = {}
_CRITERION_RE = re.compile(r"test_criterion_(\d+)")


def pytest_runtest_logreport(report):
    match = _CRITERION_RE.search(report.nodeid)
    if not match or report.when != "call":
        return
    criterion = int(match.group(1))
    outcome = "PASS" if report.passed else "FAIL"
    # a criterion spread over several tests fails if any piece fails
    if _ACCEPTANCE_RESULTS.get(criterion) != "FAIL":
        _ACCEPTANCE_RESULTS[criterion] = outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for criterion in sorted(_ACCEPTANCE_RESULTS):
        terminalreporter.write_line(
            f"  criterion {criterion}: {_ACCEPTANCE_RESULTS[criterion]}"
        )
