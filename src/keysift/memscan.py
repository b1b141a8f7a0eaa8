"""Memory-extract loading, size banding, and the two candidate scanners.

The marker scan keys off the 'KSSM'/'3LLS' ASCII strings that the Windows
crypto library leaves near session key material ('MSSK' and 'SSL3' read
little-endian) and collects every nearby window that clears an entropy gate.
The standard scan instead anchors on the captured explicit nonce: wherever it
occurs, the 4 bytes in front of it are a candidate implicit IV, and wherever
that IV value recurs a TLS 1.2 key-block layout is hypothesised around it.

Scanners are pure functions of immutable inputs. Extracts are scanned one
after another in a fixed order, so repeat runs are byte-for-byte identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .capture import SessionCapture
from .entropy import shannon_entropy
from .errors import EmptyDirectory, NoCandidates, UnreadableFile

MB = 1 << 20
IV_MARKER = b"3LLS"
KEY_MARKER = b"KSSM"
IV_LEN = 4

# Files in an extract directory that are metadata, not memory contents.
_METADATA_NAMES = {"manifest.json", "groundtruth.json"}


@dataclass(frozen=True)
class MemoryExtract:
    id: int
    name: str
    data: bytes


@dataclass(frozen=True)
class ExtractSet:
    extracts: tuple[MemoryExtract, ...]
    bands: dict[int, tuple[int, ...]]

    def in_band_order(self) -> list[MemoryExtract]:
        return [self.extracts[i] for band in (1, 2, 3) for i in self.bands[band]]

    @property
    def total_bytes(self) -> int:
        return sum(len(e.data) for e in self.extracts)


def band_for_size(size_bytes: int) -> int:
    """Band 1: [1 MB, 8 MB) where key-bearing structures live; band 2: smaller;
    band 3: larger. Boundaries are inclusive-exclusive so the bands partition."""
    if MB <= size_bytes < 8 * MB:
        return 1
    if size_bytes < MB:
        return 2
    return 3


def _make_extract_set(extracts: list[MemoryExtract]) -> ExtractSet:
    bands: dict[int, list[int]] = {1: [], 2: [], 3: []}
    for extract in extracts:
        bands[band_for_size(len(extract.data))].append(extract.id)
    return ExtractSet(
        extracts=tuple(extracts),
        bands={b: tuple(ids) for b, ids in bands.items()},
    )


def load_extracts(directory) -> ExtractSet:
    """Load every regular file in ``directory`` as a memory extract.

    Ids follow lexicographic filename order so repeat runs are identical.
    Metadata files (manifest.json) and empty files are skipped.
    """
    base = Path(directory)
    names = sorted(p.name for p in base.iterdir() if p.is_file() and p.name not in _METADATA_NAMES)
    extracts = []
    for name in names:
        try:
            data = (base / name).read_bytes()
        except OSError as exc:
            raise UnreadableFile(base / name, exc) from exc
        if not data:
            continue
        extracts.append(MemoryExtract(id=len(extracts), name=name, data=data))
    if not extracts:
        raise EmptyDirectory(f"no loadable extract files in {base}")
    return _make_extract_set(extracts)


def extract_set_from_buffers(named_buffers: list[tuple[str, bytes]]) -> ExtractSet:
    """Build an ExtractSet directly from in-memory buffers (test convenience)."""
    extracts = [
        MemoryExtract(id=i, name=name, data=bytes(data))
        for i, (name, data) in enumerate(named_buffers)
    ]
    if not extracts:
        raise EmptyDirectory("no buffers supplied")
    return _make_extract_set(extracts)


@dataclass(frozen=True)
class ScanConfig:
    key_len_bytes: int = 32
    iv_entropy_threshold: float = 1.5
    key_entropy_threshold: float | None = None  # defaults to 0.9 * log2(key length)
    max_iv_distance: int = 64
    max_key_distance: int = 128
    step: int = 4
    min_artefact_gap: int = 1000
    counter_nonce_bound: int = 256

    def __post_init__(self):
        if self.key_len_bytes not in (16, 32):
            raise ValueError("key_len_bytes must be 16 or 32")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.max_iv_distance < self.step or self.max_key_distance < self.step:
            raise ValueError("search distances must be at least one step")
        if self.key_entropy_threshold is None:
            object.__setattr__(self, "key_entropy_threshold", 0.9 * math.log2(self.key_len_bytes))
        if self.iv_entropy_threshold < 0 or self.key_entropy_threshold < 0:
            raise ValueError("entropy thresholds must be non-negative")
        if self.min_artefact_gap < 0:
            raise ValueError("min_artefact_gap must be non-negative")


@dataclass(frozen=True)
class Candidate:
    """A key or implicit-IV window that cleared its entropy gate."""

    value: bytes
    extract_id: int
    offset: int
    entropy: float


class BlockHypothesis(Enum):
    IV_WAS_CLIENT = "iv_was_client"
    IV_WAS_SERVER = "iv_was_server"


@dataclass(frozen=True)
class CandidateKeyBlock:
    client_key: bytes
    server_key: bytes
    client_iv: bytes
    server_iv: bytes
    extract_id: int
    offset: int  # of the client key slot
    hypothesis: BlockHypothesis
    iv_hit_offset: int  # where the matched IV value sat; pruning clusters on this


def find_all(data: bytes, pattern: bytes) -> list[int]:
    """Every occurrence of ``pattern``, overlapping matches included."""
    hits = []
    pos = data.find(pattern)
    while pos != -1:
        hits.append(pos)
        pos = data.find(pattern, pos + 1)
    return hits


def _marker_windows(extract: MemoryExtract, marker: bytes, width: int, max_distance: int,
                    gate: float, step: int) -> list[Candidate]:
    """Every ``width``-byte window up to ``max_distance`` past a marker whose entropy clears ``gate``."""
    data = extract.data
    found = []
    for hit in find_all(data, marker):
        base = hit + len(marker)
        for dist in range(0, max_distance + 1, step):
            start = base + dist
            window = data[start : start + width]
            if len(window) < width:
                break
            ent = shannon_entropy(window)
            if ent > gate:
                found.append(Candidate(bytes(window), extract.id, start, ent))
    return found


def _scan_windows_one(extract: MemoryExtract, cfg: ScanConfig):
    if extract.data.find(KEY_MARKER) == -1:
        return [], []
    ivs = _marker_windows(extract, IV_MARKER, IV_LEN, cfg.max_iv_distance, cfg.iv_entropy_threshold, cfg.step)
    keys = _marker_windows(extract, KEY_MARKER, cfg.key_len_bytes, cfg.max_key_distance,
                           cfg.key_entropy_threshold, cfg.step)
    return keys, ivs


def scan_windows(extracts: ExtractSet, cfg: ScanConfig) -> tuple[list[Candidate], list[Candidate]]:
    """Marker scan over all extracts in band order 1, 2, 3.

    An extract only participates when the key marker occurs in it at all.
    Candidates are deduplicated by value, keeping the first sighting in band
    order, then sorted by (extract_id, offset).
    """
    seen_keys: dict[bytes, Candidate] = {}
    seen_ivs: dict[bytes, Candidate] = {}
    for extract in extracts.in_band_order():
        keys, ivs = _scan_windows_one(extract, cfg)
        for cand in keys:
            seen_keys.setdefault(cand.value, cand)
        for cand in ivs:
            seen_ivs.setdefault(cand.value, cand)

    order = lambda c: (c.extract_id, c.offset)
    return sorted(seen_keys.values(), key=order), sorted(seen_ivs.values(), key=order)


def _prune_hits(offsets: list[int], gap: int) -> list[int]:
    """Greedy keep-lowest pruning: drop offsets within ``gap`` of the last kept."""
    kept = []
    for off in sorted(offsets):
        if not kept or off - kept[-1] >= gap:
            kept.append(off)
    return kept


def _blocks_at_hit(data: bytes, extract_id: int, p: int, cfg: ScanConfig,
                   key_gate) -> list[CandidateKeyBlock]:
    """Both key-block layouts that would place an IV slot at offset ``p``.

    Layout is client_key || server_key || client_iv || server_iv. The matched
    value may be either IV slot, so two hypotheses are formed and kept when
    both key windows clear the entropy gate.
    """
    k = cfg.key_len_bytes
    blocks = []
    # the matched value is the client IV, or the server IV 4 bytes further on
    for shift, hypothesis in ((0, BlockHypothesis.IV_WAS_CLIENT), (IV_LEN, BlockHypothesis.IV_WAS_SERVER)):
        start = p - 2 * k - shift
        ivs = start + 2 * k
        if start < 0 or ivs + 2 * IV_LEN > len(data):
            continue
        client_key = data[start : start + k]
        server_key = data[start + k : ivs]
        if key_gate(client_key) and key_gate(server_key):
            blocks.append(
                CandidateKeyBlock(
                    client_key=bytes(client_key),
                    server_key=bytes(server_key),
                    client_iv=bytes(data[ivs : ivs + IV_LEN]),
                    server_iv=bytes(data[ivs + IV_LEN : ivs + 2 * IV_LEN]),
                    extract_id=extract_id,
                    offset=start,
                    hypothesis=hypothesis,
                    iv_hit_offset=p,
                )
            )
    return blocks


def scan_standard(
    extracts: ExtractSet,
    capture: SessionCapture,
    cfg: ScanConfig,
) -> list[CandidateKeyBlock]:
    """Explicit-nonce scan: nonce occurrences -> candidate implicit IVs ->
    key-block hypotheses wherever an IV value recurs.

    The 4 bytes preceding each nonce occurrence are candidate IV values (the
    contiguous salt || explicit layout of the GCM nonce buffer); each distinct
    value is gated on entropy once. Every occurrence of a candidate value
    spawns the two block hypotheses. Hits closer than ``min_artefact_gap``
    within one extract collapse onto the lowest offset; the two hypotheses of
    a single hit are alternatives, not separate artefacts, so they never prune
    each other.
    """
    nonce = capture.first_explicit_nonce
    ordered = sorted(extracts.extracts, key=lambda e: e.id)

    # occurrences are sorted per extract below, so the set's order is irrelevant
    preceding = {
        extract.data[off - IV_LEN : off]
        for extract in ordered
        for off in find_all(extract.data, nonce)
        if off >= IV_LEN
    }
    iv_values = [value for value in preceding if shannon_entropy(value) > cfg.iv_entropy_threshold]
    key_gate = lambda seg: shannon_entropy(seg) > cfg.key_entropy_threshold

    def _scan_one(extract: MemoryExtract) -> list[CandidateKeyBlock]:
        occurrences = sorted(p for value in iv_values for p in find_all(extract.data, value))
        per_hit: dict[int, list[CandidateKeyBlock]] = {}
        for p in occurrences:
            blocks = _blocks_at_hit(extract.data, extract.id, p, cfg, key_gate)
            if blocks:
                per_hit.setdefault(p, []).extend(blocks)
        kept = _prune_hits(list(per_hit), cfg.min_artefact_gap)
        return [block for p in kept for block in per_hit[p]]

    merged = [block for extract in ordered for block in _scan_one(extract)]
    merged.sort(key=lambda b: (b.extract_id, b.offset, b.hypothesis.value))
    return merged


def pair_candidates(
    keys: list[Candidate], ivs: list[Candidate]
) -> list[tuple[Candidate, Candidate]]:
    """Cross product of candidates as an ordered trial list.

    Same-extract pairs come first, then closer key/IV offsets; list positions
    break remaining ties so the ordering is total and reproducible.
    """
    if not keys or not ivs:
        raise NoCandidates("cannot pair an empty candidate list")
    pairs = [
        (0 if k.extract_id == v.extract_id else 1, abs(k.offset - v.offset), ki, vi)
        for ki, k in enumerate(keys)
        for vi, v in enumerate(ivs)
    ]
    pairs.sort()
    return [(keys[ki], ivs[vi]) for _, _, ki, vi in pairs]
