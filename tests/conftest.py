"""Shared helpers: canned fixtures, a minimal pcap builder, and independent
reimplementations of the scanners used as oracles."""

from __future__ import annotations

import hashlib
import math
import re
import struct
from collections import Counter

import pytest
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from keysift.capture import (
    CONTENT_APPLICATION_DATA,
    GCM_TAG_LEN,
    TLS_1_2,
    Direction,
    EncryptedRecord,
    NonceStyle,
    assemble_session,
)
from keysift.decrypt import validate_plaintext
from keysift.fixtures import FixtureSpec, generate_fixture, reference_encrypt
from keysift.gcm_ref import _encrypt_block, _expand_key, _gmult
from keysift.memscan import (
    BANDS, IV_LEN, IV_MARKER, KEY_MARKER, MAX_IV_DISTANCE, MAX_KEY_DISTANCE, STEP, Candidate, ScanConfig,
    load_extracts,
)
from keysift.report import printable

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

def tcp_frame(src, dst, seq, payload: bytes, vlan: bool = False, proto: int = 6, flags_frag: int = 0x4000) -> bytes:
    """An Ethernet/IPv4/TCP frame; ``vlan`` adds an 802.1Q tag, and ``proto``
    and ``flags_frag`` set the IPv4 protocol and flags/fragment-offset fields."""
    eth = b"\x02" * 6 + b"\x04" * 6 + (struct.pack(">HH", 0x8100, 7) if vlan else b"") + struct.pack(">H", 0x0800)
    total_len = 20 + 20 + len(payload)
    ip = struct.pack(
        ">BBHHHBBH4s4s",
        0x45, 0, total_len, 0, flags_frag, 64, proto, 0,
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
    drop: int | None = None,
    extra_stream: tuple[bytes, bytes] | None = None,
    vlan: bool = False,
    linktype: int = 1,
    extra_frames: tuple[bytes, ...] = (),
    snaplen: int = 65535,
) -> bytes:
    """Assemble a classic pcap carrying one (or two) TLS-over-TCP streams,
    then ``extra_frames`` as given; a frame longer than ``snaplen`` is captured
    cut to it, its original length kept in the packet header. ``reorder``
    swaps two client segments, and ``drop`` leaves out the client segment at
    that index, a gap that never fills."""
    order = "<" if little_endian else ">"
    magic = 0xA1B23C4D if nanosecond else 0xA1B2C3D4
    out = bytearray(struct.pack(order + "IHHiIII", magic, 2, 4, 0, 0, snaplen, linktype))

    def chunks(data):
        return [data[i : i + chunk] for i in range(0, len(data), chunk)]

    def flow_packets(stream, src, dst, isn):
        packets = []
        seq = isn
        for part in chunks(stream):
            packets.append(tcp_frame(src, dst, seq, part, vlan=vlan))
            seq = (seq + len(part)) & 0xFFFFFFFF
        return packets

    client_packets = flow_packets(client_stream, client, server, 1000)
    server_packets = flow_packets(server_stream, server, client, 9000)
    if duplicate_first and client_packets:
        client_packets.insert(1, client_packets[0])
    if reorder and len(client_packets) >= 3:
        # a mid-stream swap; with only two segments, the first arrives second
        client_packets[1], client_packets[2] = client_packets[2], client_packets[1]
    elif reorder and len(client_packets) >= 2:
        client_packets[0], client_packets[1] = client_packets[1], client_packets[0]
    if drop is not None:
        del client_packets[drop]

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

    for frame in frames + list(extra_frames):
        out += struct.pack(order + "IIII", 0, 0, min(len(frame), snaplen), len(frame))
        out += frame[:snaplen]
    return bytes(out)


def mixed_traffic_frames() -> tuple[bytes, ...]:
    """Frames a host sends next to a TLS session: a plain-HTTP connection whose
    request segments arrive out of order, and a UDP datagram in two IPv4 fragments."""
    browser, web = ("10.0.0.2", 40000), ("93.184.216.34", 80)
    request = b"GET /index.html HTTP/1.1\r\nHost: example.com\r\n\r\n"
    resolver, stub = ("10.0.0.53", 53), ("10.0.0.2", 5353)
    return (
        tcp_frame(browser, web, 5000, request[:16]),
        tcp_frame(browser, web, 5032, request[32:]),  # ahead of the bytes 16-31 sent next
        tcp_frame(browser, web, 5016, request[16:32]),
        tcp_frame(web, browser, 7000, b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"),
        tcp_frame(resolver, stub, 0, bytes(range(44)), proto=17, flags_frag=0x2000),  # MF, offset 0
        tcp_frame(resolver, stub, 0, bytes(range(24)), proto=17, flags_frag=0x0008),  # offset 64 bytes
    )


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
    # each search restarts one byte past the last match, so overlapping matches are kept
    compiled = re.compile(re.escape(pattern))
    hits = []
    match = compiled.search(data)
    while match:
        hits.append(match.start())
        match = compiled.search(data, match.start() + 1)
    return hits


def oracle_windows_scan(extract_set, cfg, bands=BANDS):
    """Marker scan over the extracts of ``bands`` recounted through the regex
    engine and a Counter-based entropy, mirroring the production semantics
    window for window."""
    keys: dict[bytes, tuple] = {}
    ivs: dict[bytes, tuple] = {}
    for extract in [extract_set.extracts[i] for band in bands for i in extract_set.bands[band]]:
        data = extract.data
        if not _regex_find_all(data, KEY_MARKER):
            continue
        for marker in _regex_find_all(data, IV_MARKER):
            base = marker + len(IV_MARKER)
            for dist in range(0, MAX_IV_DISTANCE + 1, STEP):
                window = data[base + dist : base + dist + IV_LEN]
                if len(window) < IV_LEN:
                    break
                if naive_entropy(window) > cfg.iv_entropy_threshold:
                    ivs.setdefault(bytes(window), (extract.id, base + dist))
        for marker in _regex_find_all(data, KEY_MARKER):
            base = marker + len(KEY_MARKER)
            for dist in range(0, MAX_KEY_DISTANCE + 1, STEP):
                window = data[base + dist : base + dist + cfg.key_len_bytes]
                if len(window) < cfg.key_len_bytes:
                    break
                if naive_entropy(window) > cfg.key_entropy_threshold:
                    keys.setdefault(bytes(window), (extract.id, base + dist))
    key_list = sorted(
        [(value,) + where for value, where in keys.items()], key=lambda t: (t[1], t[2])
    )
    iv_list = sorted(
        [(value,) + where for value, where in ivs.items()], key=lambda t: (t[1], t[2])
    )
    return key_list, iv_list


def oracle_standard_scan(extract_set, capture, cfg, bands=BANDS, find_all=naive_find_all):
    """Standard scan over the extracts of ``bands`` recounted with the
    quadratic search (or ``find_all``) and Counter-based entropy: gate the 4
    bytes in front of every nonce hit, hypothesise both key-block layouts at
    every recurrence of a gated value, keep a hypothesis when both key windows
    clear the key gate, then prune hits greedily per extract. Returns
    (extract_id, offset, hypothesis, client_key, server_key, client_iv,
    server_iv) tuples in the scanner's order."""
    nonce = capture.first_explicit_nonce
    k = cfg.key_len_bytes
    extracts = [extract_set.extracts[i] for band in bands for i in extract_set.bands[band]]
    gated = set()
    for extract in extracts:
        for off in find_all(extract.data, nonce):
            if off < IV_LEN:
                continue
            segment = extract.data[off - IV_LEN : off]
            if naive_entropy(segment) > cfg.iv_entropy_threshold:
                gated.add(segment)

    found = []
    for extract in extracts:
        data = extract.data
        per_hit: dict[int, list[tuple]] = {}
        for value in gated:
            for hit in find_all(data, value):
                for shift, hypothesis in ((0, "iv_was_client"), (IV_LEN, "iv_was_server")):
                    start = hit - 2 * k - shift
                    ivs = start + 2 * k
                    if start < 0 or ivs + 2 * IV_LEN > len(data):
                        continue
                    client_key, server_key = data[start : start + k], data[start + k : ivs]
                    if min(naive_entropy(client_key), naive_entropy(server_key)) > cfg.key_entropy_threshold:
                        per_hit.setdefault(hit, []).append((
                            extract.id, start, hypothesis, client_key, server_key,
                            data[ivs : ivs + IV_LEN], data[ivs + IV_LEN : ivs + 2 * IV_LEN],
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


def _aad(seq, content_type, version, length):
    # seq_num || type || version || length, RFC 5246 §6.2.3.3
    return seq.to_bytes(8, "big") + bytes([content_type]) + version.to_bytes(2, "big") + length.to_bytes(2, "big")


def naive_open(aead, record, implicit_iv, seq):
    """``record`` opened under ``aead`` with ``implicit_iv`` at ``seq``, the nonce and
    additional data packed here and not by the decryptor; None when the tag does not verify."""
    aad = _aad(seq, record.content_type, record.record_version, len(record.ciphertext) - GCM_TAG_LEN)
    try:
        return aead.decrypt(implicit_iv + record.explicit_nonce, record.ciphertext, aad)
    except InvalidTag:
        return None


def naive_first_opening(record, materials):
    """The per-pair trial loop: try each (key, iv, index, swapped) material
    against ``record`` at the 5 sequence numbers within 2 of its own, nearest
    first and the lower first on a tie, the range shifted up when it would
    reach below 0, with one ``AESGCM.decrypt`` per trial. Returns the trial
    count and the first (material, seq, plaintext) whose tag verifies, or None."""
    low = max(0, record.seq - 2)
    seqs = sorted(range(low, low + 5), key=lambda seq: (abs(seq - record.seq), seq))
    ciphers: dict[bytes, AESGCM] = {}
    trials = 0
    for material in materials:
        aead = ciphers.get(material[0])
        if aead is None:
            aead = ciphers[material[0]] = AESGCM(material[0])
        for seq in seqs:
            trials += 1
            plaintext = naive_open(aead, record, material[1], seq)
            if plaintext is not None:
                return trials, (material, seq, plaintext)
    return trials, None


def oracle_pipeline(extract_dir, capture, mode):
    """The ``--no-timings`` report dict of ``run_pipeline``, recomputed with
    the oracles above: each stage's candidates from the scan oracles over the
    bands so far, minus what earlier stages found; each stage's new pairs
    sorted eagerly (new keys x every IV so far, then earlier keys x new IVs);
    and every trial, server probe and transcript record opened one by one.
    After a pair win the probe tries each stage's pairs in the order they
    were sorted, then scans each later band for its new pairs. The nonce
    style is worked out here too, without ``explicit_nonce_style``."""
    cfg = ScanConfig(key_len_bytes=capture.key_len_bytes)
    extract_set = load_extracts(extract_dir)
    # counter-like: the client's nonces before its first encrypted ChangeCipherSpec
    # (content type 20) step by one per record in seq order; a lone client record
    # counts when its nonce is below 256
    client_records = [r for r in capture.records if r.direction is Direction.CLIENT_TO_SERVER]
    epoch_end = min((r.seq for r in client_records if r.content_type == 20), default=math.inf)
    client = sorted((r.seq, struct.unpack(">Q", r.explicit_nonce)[0]) for r in client_records if r.seq < epoch_end)
    if len(client) == 1:
        counter_like = client[0][1] < 256
    else:
        counter_like = all(client[i + 1][1] - client[i][1] == 1 for i in range(len(client) - 1))
    if mode == "auto":
        attempts = ["windows", "standard"] if counter_like else ["standard"]
    else:
        attempts = [mode]
    candidates = {"keys": None, "ivs": None, "key_blocks": None, "bands_scanned": []}
    report = {
        "mode_requested": mode,
        "mode_used": None,
        "nonce_style": (NonceStyle.COUNTER_LIKE if counter_like else NonceStyle.RANDOM_LIKE).value,
        "candidates": candidates,
        "timings": {"memory_analysis_secs": 0.0, "decrypt_analysis_secs": 0.0},
        "outcome": "no_valid_decrypt",
        "trials": None,
        "material": None,
        "session": None,
    }
    keys, ivs, pair_lists, returned = [], [], [], set()

    def new_pair_lists(band):
        found_keys, found_ivs = oracle_windows_scan(extract_set, cfg, BANDS[:band])
        known = {c.value for c in keys + ivs}
        new_keys = [Candidate(*t) for t in found_keys if t[0] not in known]
        new_ivs = [Candidate(*t) for t in found_ivs if t[0] not in known]
        old_keys = list(keys)
        keys.extend(new_keys)
        ivs.extend(new_ivs)
        candidates.update(keys=len(keys), ivs=len(ivs))
        new = [
            [(k.value, v.value, i, False) for i, (k, v) in enumerate(naive_pair_order(some_keys, some_ivs))]
            for some_keys, some_ivs in ((new_keys, ivs), (old_keys, new_ivs))
            if some_keys and some_ivs
        ]
        pair_lists.extend(new)
        return new

    def new_blocks(band):
        new = [b for b in oracle_standard_scan(extract_set, capture, cfg, BANDS[:band], _regex_find_all)
               if b not in returned]
        returned.update(new)
        candidates["key_blocks"] = len(returned)
        return new

    def probe_pair_lists(band):
        yield from list(pair_lists)
        for later in BANDS[band:]:
            candidates["bands_scanned"].append(later)
            yield from new_pair_lists(later)

    client_record = capture.app_data(Direction.CLIENT_TO_SERVER)[0]
    server_records = capture.app_data(Direction.SERVER_TO_CLIENT)
    tried = dict.fromkeys(attempts, 0)
    attempted = 0
    for band in BANDS:
        candidates["bands_scanned"].append(band)
        for attempt in attempts:
            if attempt == "windows":
                stage = new_pair_lists(band)
            else:
                blocks = new_blocks(band)
                stage = [[m for i, b in enumerate(blocks) for m in ((b[3], b[5], i, False), (b[4], b[6], i, True))]]
                stage = stage if blocks else []
            for materials in stage:
                trials, won = naive_first_opening(client_record, materials)
                if won is None:
                    attempted += trials
                    tried[attempt] += len(blocks) if attempt == "standard" else len(materials)
                    continue
                (key, iv, index, swapped), seq, plaintext = won
                if attempt == "windows":
                    probe_sets = probe_pair_lists(band)
                else:
                    block = blocks[index]
                    probe_sets = [[(block[3], block[5], index, True) if swapped else (block[4], block[6], index, True)]]
                material = {Direction.CLIENT_TO_SERVER: (key, iv, seq - client_record.seq),
                            Direction.SERVER_TO_CLIENT: None}
                for probe_materials in probe_sets if server_records else ():
                    _, server = naive_first_opening(server_records[0], probe_materials)
                    if server is not None:
                        (server_key, server_iv, _, _), server_seq, _ = server
                        material[Direction.SERVER_TO_CLIENT] = (server_key, server_iv,
                                                                server_seq - server_records[0].seq)
                        break
                records = []
                for record in capture.records:
                    if record.content_type != CONTENT_APPLICATION_DATA:
                        continue
                    mat = material[record.direction]
                    opened = None if mat is None else naive_open(
                        AESGCM(mat[0]), record, mat[1], record.seq + mat[2])
                    records.append({
                        "direction": record.direction.value,
                        "seq": record.seq,
                        "ok": opened is not None,
                        "plaintext_hex": None if opened is None else opened.hex(),
                        "plaintext_printable": None if opened is None else printable(opened),
                    })
                partial = not all(r["ok"] for r in records)
                server_material = material[Direction.SERVER_TO_CLIENT] or (None, None)
                report.update(
                    mode_used=attempt,
                    outcome="decrypted_partial" if partial else "decrypted",
                    trials={
                        "attempted": attempted + trials,
                        "winner_index": tried[attempt] + index,
                        "seq_used": seq,
                        "validation": "tag_and_protocol_valid" if validate_plaintext(plaintext) else "tag_verified",
                    },
                    material={
                        "client_key": key.hex(),
                        "client_iv": iv.hex(),
                        "server_key": server_material[0] and server_material[0].hex(),
                        "server_iv": server_material[1] and server_material[1].hex(),
                        "hypothesis": blocks[index][2] if attempt == "standard" else None,
                        "orientation_swapped": swapped,
                    },
                    session={"partial": partial, "records": records},
                )
                return report
    report["trials"] = {"attempted": attempted, "winner_index": None, "seq_used": None, "validation": None}
    return report


# ---------------------------------------------------------------------------
# two materials that verify one record


def _gf_inverse(x):
    """x^(2^128 - 2), the inverse of a nonzero x in GCM's field."""
    result, power, exponent = 1 << 127, x, (1 << 128) - 2  # 1 << 127 is the field's one
    while exponent:
        if exponent & 1:
            result = _gmult(result, power)
        power = _gmult(power, power)
        exponent >>= 1
    return result


def record_both_open(first, second, explicit, seq):
    """A one-block client ApplicationData record whose tag verifies under both
    (key, IV) materials at ``seq``. Its tag under a key is C·H^2 xor the rest
    of GHASH and E_K(J0), so C·(H_a^2 xor H_b^2) = rest_a xor rest_b fixes the
    one ciphertext block C that gives both keys the same tag."""
    aad = _aad(seq, CONTENT_APPLICATION_DATA, TLS_1_2, 16)
    aad_block = int.from_bytes(aad.ljust(16, b"\x00"), "big")
    lengths = (len(aad) * 8 << 64) | 128
    terms = []
    for key, iv in (first, second):
        round_keys = _expand_key(key)
        h = int.from_bytes(_encrypt_block(round_keys, bytes(16)), "big")
        mask = int.from_bytes(_encrypt_block(round_keys, iv + explicit + (1).to_bytes(4, "big")), "big")
        h2 = _gmult(h, h)
        terms.append((h2, mask ^ _gmult(aad_block, _gmult(h2, h)) ^ _gmult(lengths, h)))
    (h2_a, rest_a), (h2_b, rest_b) = terms
    block = _gmult(rest_a ^ rest_b, _gf_inverse(h2_a ^ h2_b))
    tag = _gmult(block, h2_a) ^ rest_a
    ciphertext = block.to_bytes(16, "big") + tag.to_bytes(16, "big")
    return EncryptedRecord(Direction.CLIENT_TO_SERVER, seq, explicit, ciphertext, TLS_1_2, CONTENT_APPLICATION_DATA)


@pytest.fixture(scope="session")
def colliding():
    """A session whose first client record opens under two materials, and
    whose server record opens under the second."""
    first = (hashlib.sha256(b"first key").digest(), b"\x11\x12\x13\x14")
    second = (hashlib.sha256(b"second key").digest(), b"\x21\x22\x23\x24")
    explicit = (1).to_bytes(8, "big")
    server = reference_encrypt(b"HTTP/1.1 200 OK\r\n\r\n", *second, explicit, seq=1,
                               direction=Direction.SERVER_TO_CLIENT)
    capture = assemble_session(0x009D, [record_both_open(first, second, explicit, 1), server])
    return capture, first, second


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
