"""Synthetic fixtures: memory extracts with planted key material plus a
matching encrypted session, so every scanner and the decryptor can be
verified end to end against known ground truth.

Two layouts are fabricated. WindowsMarkers mimics the crypto-library
structures: the implicit IV a short distance after '3LLS' and the key after
'KSSM'. GenericKeyBlock plants a contiguous client_key || server_key ||
client_iv || server_iv expansion block plus a separate salt || explicit-nonce
buffer for the standard scan to anchor on. Everything is deterministic under
the recipe's seed; emitted files self-check against the recorded ground
truth before the generator returns.
"""

from __future__ import annotations

import json
import random
import string
import struct
from dataclasses import asdict, dataclass, field, fields
from enum import Enum
from pathlib import Path

from . import gcm_ref
from .capture import (
    _HS_SERVER_HELLO,
    CONTENT_APPLICATION_DATA,
    CONTENT_CHANGE_CIPHER_SPEC,
    CONTENT_HANDSHAKE,
    TLS_1_2,
    Direction,
    EncryptedRecord,
    NonceStyle,
    SessionCapture,
    TlsRecord,
    assemble_session,
)
from .errors import KeysiftError, SpecInvalid
from .memscan import (
    IV_MARKER,
    KEY_MARKER,
    MB,
    BlockHypothesis,
    ScanConfig,
    band_for_size,
    find_all,
)
from .report import render_json

_SUITE_FOR_KEY_LEN = {16: 0x009C, 32: 0x009D}
_HS_CLIENT_HELLO = 1

# Tiling a 4-byte pattern of 4 distinct printable bytes gives 4-byte windows
# entropy 2.0 (above the IV gate) while 16- and 32-byte windows stay at 2.0
# (below both key gates), so filler exercises the gates without passing them,
# and windows that straddle filler and planted keys mostly stay gated too.
_TEXT_PATTERN = b"snix"

_DEFAULT_EXTRACT_SIZES = (512 * 1024, 3 * MB, 8 * MB)
_SITE_MARGIN = 2048  # keeps separate plant sites out of each other's pruning range
# where the marker groups hold their implicit IV and key, in bytes past the marker: on the
# scanner's stride, so a search window lands exactly on each ('approximately N bytes after')
_IV_OFFSET_AFTER_3LLS = 20
_KEY_OFFSET_AFTER_KSSM = 28


class FixtureLayout(Enum):
    WINDOWS_MARKERS = "windows_markers"
    GENERIC_KEY_BLOCK = "generic_key_block"
    BOTH = "both"


class Filler(Enum):
    ZERO = "zero"
    LOW_ENTROPY_TEXT = "low_entropy_text"
    RANDOM = "random"
    COUNTERS = "counters"  # dense 64-bit big-endian counters; counter-rich memory


@dataclass
class FixtureSpec:
    key_len_bytes: int = 32
    plaintext_client: bytes | None = None  # None: seeded HTTP request
    plaintext_server: bytes | None = None  # None: seeded HTTP response
    layout: FixtureLayout = FixtureLayout.WINDOWS_MARKERS
    extract_sizes: tuple[int, ...] = _DEFAULT_EXTRACT_SIZES
    decoy_markers: int = 0
    decoy_high_entropy_regions: int = 0
    filler: Filler = Filler.LOW_ENTROPY_TEXT
    explicit_nonce_style: NonceStyle = NonceStyle.COUNTER_LIKE
    rng_seed: int = 0
    generic_hypothesis: BlockHypothesis = BlockHypothesis.IV_WAS_CLIENT
    keyblock_copies: int = 1
    keyblock_copy_gap: int = 4096

    def validate(self) -> None:
        if self.key_len_bytes not in (16, 32):
            raise SpecInvalid("key_len_bytes must be 16 or 32")
        if not self.extract_sizes:
            raise SpecInvalid("extract_sizes must not be empty")
        if any(s <= 0 for s in self.extract_sizes):
            raise SpecInvalid("extract sizes must be positive")
        if not any(band_for_size(s) == 1 for s in self.extract_sizes):
            raise SpecInvalid("at least one extract size must fall in band 1 (1 MB to 8 MB)")
        if self.decoy_markers < 0 or self.decoy_high_entropy_regions < 0:
            raise SpecInvalid("decoy counts must be non-negative")
        if self.keyblock_copies < 1:
            raise SpecInvalid("keyblock_copies must be at least 1")
        if self.keyblock_copy_gap < 0:
            raise SpecInvalid("keyblock_copy_gap must be non-negative")


@dataclass(frozen=True)
class PlantedArtefact:
    kind: str
    extract_id: int
    extract_name: str
    offset: int
    value: bytes


@dataclass
class FixtureGroundTruth:
    client_key: bytes
    server_key: bytes
    client_iv: bytes
    server_iv: bytes
    plaintext_client: bytes
    plaintext_server: bytes
    first_client_nonce: bytes
    planted: list[PlantedArtefact] = field(default_factory=list)

    def find(self, kind: str) -> PlantedArtefact:
        for artefact in self.planted:
            if artefact.kind == kind:
                return artefact
        raise KeyError(kind)


@dataclass(frozen=True)
class FixturePaths:
    root: Path
    extract_dir: Path
    client_records: Path
    server_records: Path
    manifest: Path
    groundtruth: Path


def _rand_token(rng: random.Random, length: int) -> str:
    alphabet = string.ascii_letters + string.digits
    return "".join(rng.choice(alphabet) for _ in range(length))


def _default_request(rng: random.Random) -> bytes:
    path = "/".join(_rand_token(rng, rng.randint(8, 14)) for _ in range(rng.randint(3, 5)))
    host = _rand_token(rng, rng.randint(10, 18)).lower() + ".net"
    return (
        f"GET /images/{path}.jpeg HTTP/1.1\r\n"
        "User-Agent: Mozilla/4.0 (compatible; MSIE 8.0; Windows NT 10.0; Win64; x64)\r\n"
        f"Host: {host}\r\n"
        "Connection: Keep-Alive\r\n"
        "Cache-Control: no-cache\r\n\r\n"
    ).encode()


def _default_response(rng: random.Random) -> bytes:
    body = _rand_token(rng, rng.randint(40, 80)).encode()
    return (
        "HTTP/1.1 200 OK\r\n"
        "Content-Type: application/octet-stream\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


def _gated_random_bytes(rng: random.Random, length: int, passes) -> bytes:
    """Seeded random bytes redrawn until they pass a ``ScanConfig`` gate, so
    the planted material always satisfies the candidate invariants."""
    for _ in range(1000):
        value = rng.randbytes(length)
        if passes(value):
            return value
    raise RuntimeError("could not draw bytes above the entropy gate")


def reference_encrypt(
    plaintext: bytes,
    key: bytes,
    implicit_iv: bytes,
    explicit_nonce: bytes,
    seq: int,
    content_type: int = CONTENT_APPLICATION_DATA,
    version: int = TLS_1_2,
    direction: Direction = Direction.CLIENT_TO_SERVER,
) -> EncryptedRecord:
    """Encrypt one record with the self-contained AES-GCM implementation.

    Inverse of the decryptor's record opener on an independent code path, down to the
    RFC 5246 §6.2.3.3 additional data; round-tripping the two is a correctness check.
    """
    if len(implicit_iv) != 4 or len(explicit_nonce) != 8:
        raise ValueError("implicit IV must be 4 bytes and the explicit nonce 8")
    aad = struct.pack(">QBHH", seq, content_type, version, len(plaintext))
    sealed = gcm_ref.seal(key, implicit_iv + explicit_nonce, plaintext, aad)
    return EncryptedRecord(
        direction=direction,
        seq=seq,
        explicit_nonce=explicit_nonce,
        ciphertext=sealed,
        record_version=version,
        content_type=content_type,
    )


def serialize_records(records: list[TlsRecord]) -> bytes:
    out = bytearray()
    for rec in records:
        out += struct.pack(">BHH", rec.content_type, rec.legacy_version, len(rec.payload))
        out += rec.payload
    return bytes(out)


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
    suite = capture.cipher_suite
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


def _nonce_for(style: NonceStyle, seq: int, rng: random.Random) -> bytes:
    return struct.pack(">Q", seq) if style is NonceStyle.COUNTER_LIKE else rng.randbytes(8)


def _build_session(spec: FixtureSpec, truth: FixtureGroundTruth, rng: random.Random) -> SessionCapture:
    records = []
    for direction, key, implicit_iv, app_plain in (
        (Direction.CLIENT_TO_SERVER, truth.client_key, truth.client_iv, truth.plaintext_client),
        (Direction.SERVER_TO_CLIENT, truth.server_key, truth.server_iv, truth.plaintext_server),
    ):
        finished = bytes([0x14]) + (12).to_bytes(3, "big") + rng.randbytes(12)
        records.append(
            reference_encrypt(
                finished, key, implicit_iv, _nonce_for(spec.explicit_nonce_style, 0, rng),
                seq=0, content_type=CONTENT_HANDSHAKE, direction=direction,
            )
        )
        records.append(
            reference_encrypt(
                app_plain, key, implicit_iv, _nonce_for(spec.explicit_nonce_style, 1, rng),
                seq=1, direction=direction,
            )
        )
    return assemble_session(_SUITE_FOR_KEY_LEN[spec.key_len_bytes], records)


def _filler_buffer(filler: Filler, size: int, rng: random.Random) -> bytearray:
    if filler is Filler.ZERO:
        return bytearray(size)
    if filler is Filler.LOW_ENTROPY_TEXT:
        reps = size // len(_TEXT_PATTERN) + 1
        return bytearray((_TEXT_PATTERN * reps)[:size])
    if filler is Filler.RANDOM:
        return bytearray(rng.randbytes(size))
    cycle = bytearray()
    for value in range(128):  # short restart keeps low-counter patterns dense
        cycle += struct.pack(">Q", value)
    reps = size // len(cycle) + 1
    return bytearray((bytes(cycle) * reps)[:size])


class _Plan:
    """Placement bookkeeping for one extract buffer."""

    def __init__(self, buf: bytearray, extract_id: int, name: str, rng: random.Random):
        self.buf = buf
        self.extract_id = extract_id
        self.name = name
        self.rng = rng
        self.spans: list[tuple[int, int]] = []  # reserved (start, length)
        self.written: list[tuple[int, int]] = []  # actual byte writes

    def place(self, span: int) -> int:
        limit = len(self.buf) - span - _SITE_MARGIN
        if limit <= _SITE_MARGIN:
            raise SpecInvalid(f"extract {self.name} too small for a {span}-byte artefact")
        for _ in range(10_000):
            site = self.rng.randrange(_SITE_MARGIN, limit)
            if all(
                site + span + _SITE_MARGIN <= start or start + length + _SITE_MARGIN <= site
                for start, length in self.spans
            ):
                self.spans.append((site, span))
                return site
        raise SpecInvalid(f"extract {self.name} too crowded for the requested artefact count")

    def write(self, offset: int, data: bytes) -> None:
        self.buf[offset : offset + len(data)] = data
        self.written.append((offset, len(data)))


def _plant_marker_group(plan: _Plan, truth: FixtureGroundTruth, label: str, iv_value: bytes, key_value: bytes) -> None:
    site = plan.place(1024)
    iv_at = site + len(IV_MARKER) + _IV_OFFSET_AFTER_3LLS
    plan.write(site, IV_MARKER)
    plan.write(iv_at, iv_value)
    key_site = site + 512
    key_at = key_site + len(KEY_MARKER) + _KEY_OFFSET_AFTER_KSSM
    plan.write(key_site, KEY_MARKER)
    plan.write(key_at, key_value)
    truth.planted.append(PlantedArtefact(f"{label}_iv", plan.extract_id, plan.name, iv_at, iv_value))
    truth.planted.append(PlantedArtefact(f"{label}_key", plan.extract_id, plan.name, key_at, key_value))


def _plant_decoy(plan: _Plan, variant: int) -> None:
    site = plan.place(1024)
    plan.write(site, IV_MARKER)
    plan.write(site + 512, KEY_MARKER)
    if variant == 1:
        # medium-entropy follower after the IV marker: clears the IV gate but
        # cannot decrypt anything (distinct draws also keep marker strings out)
        follower = bytes(plan.rng.sample(range(33, 127), k=24))
        plan.write(site + len(IV_MARKER) + 4, follower)


def _plant_generic(plan: _Plan, truth: FixtureGroundTruth, spec: FixtureSpec, first_nonce: bytes) -> None:
    k = spec.key_len_bytes
    if spec.generic_hypothesis is BlockHypothesis.IV_WAS_CLIENT:
        block = truth.client_key + truth.server_key + truth.client_iv + truth.server_iv
        client_key_slot = 0
    else:
        # material stored server-first: the traffic's implicit IV lands in the
        # server_iv slot and recovery must come through the swapped orientation
        block = truth.server_key + truth.client_key + truth.server_iv + truth.client_iv
        client_key_slot = k
    stride = len(block) + spec.keyblock_copy_gap
    span = (spec.keyblock_copies - 1) * stride + len(block)
    base = plan.place(span)
    for copy in range(spec.keyblock_copies):
        at = base + copy * stride
        plan.write(at, block)
        if copy == 0:
            truth.planted.append(PlantedArtefact("key_block", plan.extract_id, plan.name, at, block))
            truth.planted.append(
                PlantedArtefact(
                    "client_key", plan.extract_id, plan.name, at + client_key_slot, truth.client_key
                )
            )
    nonce_site = plan.place(16)
    buffer = truth.client_iv + first_nonce
    plan.write(nonce_site, buffer)
    truth.planted.append(PlantedArtefact("nonce_buffer", plan.extract_id, plan.name, nonce_site, buffer))


def _plant_high_entropy_region(plan: _Plan) -> None:
    site = plan.place(256)
    plan.write(site, plan.rng.randbytes(256))


def _render(spec: FixtureSpec, rng: random.Random):
    cfg = ScanConfig(key_len_bytes=spec.key_len_bytes)
    truth = FixtureGroundTruth(
        client_key=_gated_random_bytes(rng, spec.key_len_bytes, cfg.passes_key_gate),
        server_key=_gated_random_bytes(rng, spec.key_len_bytes, cfg.passes_key_gate),
        client_iv=_gated_random_bytes(rng, 4, cfg.passes_iv_gate),
        server_iv=_gated_random_bytes(rng, 4, cfg.passes_iv_gate),
        plaintext_client=_default_request(rng) if spec.plaintext_client is None else spec.plaintext_client,
        plaintext_server=_default_response(rng) if spec.plaintext_server is None else spec.plaintext_server,
        first_client_nonce=b"",
    )
    session = _build_session(spec, truth, rng)
    truth.first_client_nonce = session.first_explicit_nonce

    sizes = list(spec.extract_sizes)
    names = [f"extract_{i:03d}.bin" for i in range(len(sizes))]
    plans = [
        _Plan(_filler_buffer(spec.filler, size, rng), i, names[i], rng)
        for i, size in enumerate(sizes)
    ]
    home = next(plan for plan in plans if band_for_size(len(plan.buf)) == 1)

    if spec.layout in (FixtureLayout.WINDOWS_MARKERS, FixtureLayout.BOTH):
        _plant_marker_group(home, truth, "client", truth.client_iv, truth.client_key)
        _plant_marker_group(home, truth, "server", truth.server_iv, truth.server_key)
    if spec.layout in (FixtureLayout.GENERIC_KEY_BLOCK, FixtureLayout.BOTH):
        _plant_generic(home, truth, spec, session.first_explicit_nonce)

    spacious = [plan for plan in plans if len(plan.buf) >= 64 * 1024]
    for decoy in range(spec.decoy_markers):
        _plant_decoy(spacious[decoy % len(spacious)], decoy % 2)
    for region in range(spec.decoy_high_entropy_regions):
        _plant_high_entropy_region(spacious[region % len(spacious)])

    return truth, plans, session


def _collision_free(truth: FixtureGroundTruth, plans: list[_Plan]) -> bool:
    """Filler must not fake the values the scanners anchor on.

    Marker strings and the client IV value may only occur where they were
    written. A stray explicit-nonce occurrence is tolerable as long as the
    4 bytes in front of it fail the IV entropy gate (it then never becomes a
    candidate); counter filler produces exactly these.
    """
    for plan in plans:
        data = plan.buf

        def contained(offset: int, length: int) -> bool:
            return any(s <= offset and offset + length <= s + l for s, l in plan.written)

        for pattern in (IV_MARKER, KEY_MARKER, truth.client_iv):
            for offset in find_all(data, pattern):
                if not contained(offset, len(pattern)):
                    return False
        for offset in find_all(data, truth.first_client_nonce):
            if contained(offset, len(truth.first_client_nonce)):
                continue
            if offset >= 4 and ScanConfig().passes_iv_gate(data[offset - 4 : offset]):
                return False
    return True


def generate_fixture(spec: FixtureSpec, out_dir) -> tuple[FixturePaths, FixtureGroundTruth]:
    """Emit extract files, capture streams, manifest and ground truth.

    Deterministic under ``spec.rng_seed``; colliding filler triggers a
    deterministic redraw. Raises SpecInvalid for impossible recipes, and for
    one whose extracts do not fit in free memory. Raises KeysiftError when
    ``out_dir/extracts`` already holds an entry, which would join the new
    extracts; nothing there is deleted.
    """
    spec.validate()
    root = Path(out_dir)
    extract_dir = root / "extracts"
    extract_dir.mkdir(parents=True, exist_ok=True)
    if any(extract_dir.iterdir()):
        raise KeysiftError(f"extract directory {extract_dir} is not empty; generate into a fresh directory")

    try:
        for attempt in range(16):
            seed = spec.rng_seed if attempt == 0 else spec.rng_seed * 1_000_003 + attempt
            rng = random.Random(seed)
            truth, plans, session = _render(spec, rng)
            if _collision_free(truth, plans):
                break
        else:
            raise SpecInvalid("could not render collision-free extracts for this recipe")

        for plan in plans:
            (extract_dir / plan.name).write_bytes(plan.buf)
    except MemoryError as exc:
        raise SpecInvalid(
            f"not enough free memory to render the recipe's {sum(spec.extract_sizes)} extract bytes"
        ) from exc

    client_path = root / "client.tls"
    server_path = root / "server.tls"
    client_bytes, server_bytes = serialize_session(session, handshake_random=rng.randbytes(32))
    client_path.write_bytes(client_bytes)
    server_path.write_bytes(server_bytes)

    manifest = {plan.name: hex(0x10000000 + (plan.extract_id << 24)) for plan in plans}
    manifest_path = root / "manifest.json"
    manifest_path.write_text(render_json(manifest))

    truth_path = root / "groundtruth.json"
    truth_path.write_text(render_json(asdict(truth)))

    # ground-truth self-check: the emitted files really carry the planted bytes
    for artefact in truth.planted:
        emitted = (extract_dir / artefact.extract_name).read_bytes()
        got = emitted[artefact.offset : artefact.offset + len(artefact.value)]
        if got != artefact.value:
            raise RuntimeError(f"fixture self-check failed for {artefact.kind} at {artefact.offset}")

    paths = FixturePaths(
        root=root,
        extract_dir=extract_dir,
        client_records=client_path,
        server_records=server_path,
        manifest=manifest_path,
        groundtruth=truth_path,
    )
    return paths, truth


def spec_from_json(path_or_dict) -> FixtureSpec:
    """Load a FixtureSpec from a JSON file or an already-parsed mapping."""
    if isinstance(path_or_dict, dict):
        raw = dict(path_or_dict)
    else:
        try:
            raw = json.loads(Path(path_or_dict).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:  # JSON text is UTF-8 (RFC 8259 §8.1)
            raise SpecInvalid(f"fixture spec is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise SpecInvalid(f"fixture spec must be a JSON object, got {type(raw).__name__}")
    known = set(FixtureSpec.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise SpecInvalid(f"unknown fixture spec fields: {sorted(unknown)}")
    # every field's type is checked here, so FixtureSpec(**raw) gets only well-typed values
    for spec_field in fields(FixtureSpec):
        name = spec_field.name
        if name not in raw:
            continue
        value, default = raw[name], spec_field.default
        if isinstance(default, Enum):
            try:
                raw[name] = type(default)(value)
            except (ValueError, TypeError) as exc:
                raise SpecInvalid(f"bad value for {name}: {value!r}") from exc
        elif type(default) is int:
            if type(value) is not int:
                raise SpecInvalid(f"{name} must be an integer, got {value!r}")
        elif name in ("plaintext_client", "plaintext_server"):
            if not isinstance(value, str):
                raise SpecInvalid(f"{name} must be a string, got {value!r}")
            raw[name] = value.encode()
        elif name == "extract_sizes":
            if not isinstance(value, (list, tuple)) or not all(type(size) is int for size in value):
                raise SpecInvalid(f"extract_sizes must be a list of integers, got {value!r}")
            raw[name] = tuple(value)
    return FixtureSpec(**raw)
