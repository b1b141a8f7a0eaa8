"""Memory-extract loading, size banding, and the two candidate scanners.

The marker scan keys off the 'KSSM'/'3LLS' ASCII strings that the Windows
crypto library leaves near session key material ('MSSK' and 'SSL3' read
little-endian) and collects every nearby window that clears an entropy gate.
The standard scan instead anchors on the captured explicit nonce: wherever it
occurs, the 4 bytes in front of it are a candidate implicit IV, and wherever
that IV value recurs a TLS 1.2 key-block layout is hypothesised around it.

Extracts are grouped into size bands, and both scanners take the bands to
scan, so a caller can search band by band. An extract file is read only when
a scan first reaches it, and each extract searches its bytes for a pattern
once (``MemoryExtract.find_all``), so a caller that rescans the bands so far
repeats no byte search. Extracts are scanned one after another in a fixed
order, so repeat runs are byte-for-byte identical.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left, bisect_right
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

from .capture import SessionCapture
from .entropy import shannon_entropy
from .errors import EmptyDirectory, UnreadableFile

MB = 1 << 20
IV_MARKER = b"3LLS"
KEY_MARKER = b"KSSM"
IV_LEN = 4
# the library's structures behind the markers: windows every STEP bytes, at most this far past each marker
STEP = 4
MAX_IV_DISTANCE = 64
MAX_KEY_DISTANCE = 128

# Files in an extract directory that are metadata, not memory contents.
_METADATA_NAMES = {"manifest.json", "groundtruth.json"}


class MemoryExtract:
    """One memory extract file, ``size`` bytes long when listed. The file is
    read on the first access to ``data``, not before."""

    def __init__(self, id: int, name: str, size: int, source: Path):
        self.id, self.name, self.size, self.source = id, name, size, source
        self._hits: dict[bytes, list[int]] = {}

    def find_all(self, pattern: bytes) -> list[int]:
        """``find_all`` over this extract's bytes, searched once per pattern;
        the list is shared, so callers must not change it."""
        hits = self._hits.get(pattern)
        if hits is None:
            hits = self._hits[pattern] = find_all(self.data, pattern)
        return hits

    @cached_property
    def data(self) -> bytes:
        try:
            data = self.source.read_bytes()
        except OSError as exc:
            raise UnreadableFile(self.source, exc) from exc
        except MemoryError as exc:  # a dump larger than free memory
            raise UnreadableFile(self.source, "not enough free memory to hold it") from exc
        if len(data) != self.size:
            raise UnreadableFile(self.source, f"size changed from {self.size} to {len(data)} bytes since listing")
        return data


class ExtractSet(NamedTuple):
    """Extracts with their size bands. Bands come from sizes alone, so building
    the set reads no extract; ``total_bytes`` is known before any read."""

    extracts: tuple[MemoryExtract, ...]

    @property
    def bands(self) -> dict[int, tuple[int, ...]]:
        """Per band, the ids of its extracts in id order."""
        return {band: tuple(e.id for e in self.extracts if band_for_size(e.size) == band) for band in BANDS}

    @property
    def total_bytes(self) -> int:
        return sum(e.size for e in self.extracts)


BANDS = (1, 2, 3)


def band_for_size(size_bytes: int) -> int:
    """Band 1: [1 MB, 8 MB) where key-bearing structures live; band 2: smaller;
    band 3: larger. Boundaries are inclusive-exclusive so the bands partition."""
    if MB <= size_bytes < 8 * MB:
        return 1
    if size_bytes < MB:
        return 2
    return 3


def _in_bands(extracts: ExtractSet, bands) -> list[MemoryExtract]:
    """The extracts of ``bands``, band by band in the order given."""
    by_band = extracts.bands
    return [extracts.extracts[i] for band in bands for i in by_band[band]]


def load_extracts(directory) -> ExtractSet:
    """List every regular file in ``directory`` as a memory extract.

    Ids follow lexicographic filename order so repeat runs are identical.
    Metadata files (manifest.json) and empty files are skipped. Only sizes are
    read here: bands come from ``stat``, and a file's bytes are read when a
    scan first reaches it, so a band the search never reaches is never read.
    """
    base = Path(directory)
    with os.scandir(base) as listing:
        entries = sorted((e for e in listing if e.is_file() and e.name not in _METADATA_NAMES), key=lambda e: e.name)
    extracts = []
    for entry in entries:
        try:
            size = entry.stat().st_size
        except OSError as exc:
            raise UnreadableFile(base / entry.name, exc) from exc
        if size:
            extracts.append(MemoryExtract(id=len(extracts), name=entry.name, size=size, source=base / entry.name))
    if not extracts:
        raise EmptyDirectory(f"no loadable extract files in {base}")
    return ExtractSet(extracts=tuple(extracts))


class _ScanFields(NamedTuple):
    """ScanConfig's fields; a NamedTuple body may not define its ``__new__``."""

    key_len_bytes: int = 32
    min_artefact_gap: int = 1000


class ScanConfig(_ScanFields):
    """Scanner settings, validated when built (``_replace`` skips that). Both
    entropy gates are derived, not set; a segment passes one when it scores
    above it, scored by this module's ``shannon_entropy`` so hooks see each call."""

    __slots__ = ()
    iv_entropy_threshold = 1.5

    def __new__(cls, *args, **kwargs):
        cfg = super().__new__(cls, *args, **kwargs)
        if cfg.key_len_bytes not in (16, 32):
            raise ValueError("key_len_bytes must be 16 or 32")
        if cfg.min_artefact_gap < 0:
            raise ValueError("min_artefact_gap must be non-negative")
        return cfg

    @property
    def key_entropy_threshold(self) -> float:
        return 0.9 * math.log2(self.key_len_bytes)

    def passes_iv_gate(self, segment: bytes) -> bool:
        return shannon_entropy(segment) > self.iv_entropy_threshold

    def passes_key_gate(self, segment: bytes) -> bool:
        return shannon_entropy(segment) > self.key_entropy_threshold


class Candidate(NamedTuple):
    """A key or implicit-IV window that passed its entropy gate."""

    value: bytes
    extract_id: int
    offset: int


class BlockHypothesis(Enum):
    IV_WAS_CLIENT = "iv_was_client"
    IV_WAS_SERVER = "iv_was_server"


class CandidateKeyBlock(NamedTuple):
    client_key: bytes
    server_key: bytes
    client_iv: bytes
    server_iv: bytes
    extract_id: int
    offset: int  # of the client key slot
    hypothesis: BlockHypothesis


def find_all(data: bytes, pattern: bytes) -> list[int]:
    """Every occurrence of ``pattern``, overlapping matches included."""
    hits = []
    pos = data.find(pattern)
    while pos != -1:
        hits.append(pos)
        pos = data.find(pattern, pos + 1)
    return hits


def _marker_windows(extract: MemoryExtract, marker: bytes, width: int, max_distance: int,
                    passes) -> list[Candidate]:
    """Every ``width``-byte window, ``STEP`` bytes apart, up to ``max_distance``
    past an occurrence of ``marker`` that ``passes`` its entropy gate."""
    data = extract.data
    found = []
    for hit in extract.find_all(marker):
        base = hit + len(marker)
        for dist in range(0, max_distance + 1, STEP):
            start = base + dist
            window = data[start : start + width]
            if len(window) < width:
                break
            if passes(window):
                found.append(Candidate(bytes(window), extract.id, start))
    return found


def _scan_windows_one(extract: MemoryExtract, cfg: ScanConfig):
    """The key and IV windows of one extract; none when it holds no key
    marker, but its IVs even when no key window clears the gate."""
    if not extract.find_all(KEY_MARKER):
        return [], []
    ivs = _marker_windows(extract, IV_MARKER, IV_LEN, MAX_IV_DISTANCE, cfg.passes_iv_gate)
    keys = _marker_windows(extract, KEY_MARKER, cfg.key_len_bytes, MAX_KEY_DISTANCE, cfg.passes_key_gate)
    return keys, ivs


def scan_windows(extracts: ExtractSet, cfg: ScanConfig, bands=BANDS) -> tuple[list[Candidate], list[Candidate]]:
    """Marker scan over the extracts of ``bands``, band by band in that order.

    An extract only participates when the key marker occurs in it at all.
    Candidates are deduplicated by value within this call, keeping the first
    sighting in band order, then sorted by (extract_id, offset). The result is
    a function of ``bands`` alone: a caller that scans band by band drops the
    values an earlier band gave. (Key and IV values differ in length, so one
    set holds both.)
    """
    seen: set[bytes] = set()
    keys: list[Candidate] = []
    ivs: list[Candidate] = []
    for extract in _in_bands(extracts, bands):
        found_keys, found_ivs = _scan_windows_one(extract, cfg)
        for found, kept in ((found_keys, keys), (found_ivs, ivs)):
            for cand in found:
                if cand.value not in seen:
                    seen.add(cand.value)
                    kept.append(cand)

    order = lambda c: (c.extract_id, c.offset)
    return sorted(keys, key=order), sorted(ivs, key=order)


def _prune_hits(offsets: list[int], gap: int) -> list[int]:
    """Greedy keep-lowest pruning: drop offsets within ``gap`` of the last kept."""
    kept = []
    for off in sorted(offsets):
        if not kept or off - kept[-1] >= gap:
            kept.append(off)
    return kept


def _blocks_at_hit(data: bytes, extract_id: int, p: int, cfg: ScanConfig) -> list[CandidateKeyBlock]:
    """Both key-block layouts that would place an IV slot at offset ``p``.

    Layout is client_key || server_key || client_iv || server_iv. The matched
    value may be either IV slot, so two hypotheses are formed and kept when
    both key windows pass the key gate.
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
        if cfg.passes_key_gate(client_key) and cfg.passes_key_gate(server_key):
            blocks.append(
                CandidateKeyBlock(
                    client_key=bytes(client_key),
                    server_key=bytes(server_key),
                    client_iv=bytes(data[ivs : ivs + IV_LEN]),
                    server_iv=bytes(data[ivs + IV_LEN : ivs + 2 * IV_LEN]),
                    extract_id=extract_id,
                    offset=start,
                    hypothesis=hypothesis,
                )
            )
    return blocks


def scan_standard(
    extracts: ExtractSet, capture: SessionCapture, cfg: ScanConfig, bands=BANDS
) -> list[CandidateKeyBlock]:
    """Explicit-nonce scan over the extracts of ``bands``: nonce occurrences ->
    candidate implicit IVs -> key-block hypotheses wherever an IV value recurs.

    The 4 bytes preceding each nonce occurrence are candidate IV values (the
    contiguous salt || explicit layout of the GCM nonce buffer); each distinct
    value is gated on entropy once. Every occurrence of a candidate value
    spawns the two block hypotheses. Hits closer than ``min_artefact_gap``
    within one extract collapse onto the lowest offset; the two hypotheses of
    a single hit are alternatives, not separate artefacts, so they never prune
    each other.

    The result depends on ``bands`` alone, so a band-by-band caller scans the
    bands so far at each stage and drops the blocks an earlier stage returned;
    the extracts' memoized searches keep that rescan from repeating a search.
    """
    nonce = capture.first_explicit_nonce
    scanned = _in_bands(extracts, bands)
    prefixes = dict.fromkeys(e.data[off - IV_LEN : off] for e in scanned for off in e.find_all(nonce) if off >= IV_LEN)
    values = [v for v in prefixes if cfg.passes_iv_gate(v)]

    blocks = []
    for extract in scanned:
        per_hit = {}
        for value in values:
            for p in extract.find_all(value):
                found = _blocks_at_hit(extract.data, extract.id, p, cfg)
                if found:
                    per_hit[p] = found
        blocks += [block for p in _prune_hits(list(per_hit), cfg.min_artefact_gap) for block in per_hit[p]]
    blocks.sort(key=lambda b: (b.extract_id, b.offset, b.hypothesis.value))
    return blocks


class PairOrder:
    """The key x IV trial order as a ranked product that is never generated:
    the trial set the tag screen in ``decrypt`` walks.

    Pairs sort by ``sort_key``: (cross-extract flag, |key offset - IV offset|,
    key index, IV index), and ``len`` is K x V. Each key value and each IV
    value is held at one index, as the scans give them; a repeat raises
    ValueError. ``by_floor`` lists the key values, lowest floor first, with a
    floor below the ``sort_key`` of its every pair; ``order`` gives the
    ``sort_key`` of a (key, IV) value pairing, and ``position`` its index,
    counted by ``rank``.
    """

    def __init__(self, keys: list[Candidate], ivs: list[Candidate]):
        self.keys = keys
        self.ivs = ivs
        self._key_index = {key.value: ki for ki, key in enumerate(keys)}
        self._iv_index = {iv.value: vi for vi, iv in enumerate(ivs)}
        if len(self._key_index) < len(keys) or len(self._iv_index) < len(ivs):
            raise ValueError("each key value and each IV value must be held once")
        # per extract id: (IV indices, their offsets), sorted by (offset,
        # index); the sort is stable, so equal offsets keep index order
        lanes: dict[int, list[int]] = {}
        for vi, iv in enumerate(ivs):
            if len(iv.value) != IV_LEN:
                raise ValueError(f"implicit IVs must be {IV_LEN} bytes")
            lanes.setdefault(iv.extract_id, []).append(vi)
        self._lanes: dict[int, tuple[list[int], list[int]]] = {}
        for extract_id, members in lanes.items():
            members.sort(key=lambda vi: ivs[vi].offset)
            self._lanes[extract_id] = members, [ivs[vi].offset for vi in members]
        # a key's floor: (False, distance to the nearest IV of its own extract,
        # ki), found by one bisect, or (True, 0, ki) when its extract holds no
        # IV; with no IVs at all no key has a pair, so none has a floor
        floors = []
        for ki, key in enumerate(keys if ivs else ()):
            lane = self._lanes.get(key.extract_id)
            if lane is None:
                floors.append((True, 0, ki))
            else:
                offs, o = lane[1], key.offset
                at = bisect_left(offs, o)  # the nearest IV is at or just before it
                nearest = min(offs[at] - o if at < len(offs) else math.inf, o - offs[at - 1] if at else math.inf)
                floors.append((False, nearest, ki))
        self.by_floor = [(keys[floor[2]].value, floor) for floor in sorted(floors)]

    def __len__(self) -> int:
        return len(self.keys) * len(self.ivs)

    def sort_key(self, ki: int, vi: int) -> tuple[bool, int, int, int]:
        """Where the pair (keys[ki], ivs[vi]) sorts: pairs in one extract
        first, then closer offsets, then key index, then IV index."""
        key, iv = self.keys[ki], self.ivs[vi]
        return iv.extract_id != key.extract_id, abs(iv.offset - key.offset), ki, vi

    def order(self, key: bytes, iv: bytes) -> tuple[bool, int, int, int] | None:
        """The ``sort_key`` of the pair of the value ``key``, one of
        ``by_floor``, and the value ``iv``, or None when no IV holds it."""
        vi = self._iv_index.get(iv)
        return None if vi is None else self.sort_key(self._key_index[key], vi)

    def position(self, order: tuple[bool, int, int, int]) -> int:
        """The index of the pair whose ``sort_key`` is ``order``."""
        return self.rank(order[2], order[3])

    def rank(self, ki: int, vi: int) -> int:
        """Position of the pair (keys[ki], ivs[vi]) in the order, by counting.

        For each key and IV extract, bisecting the extract's sorted IV offsets
        counts the pairs that sort before this one: all of a lower flag, none
        of a higher one, and within the same flag those strictly closer, plus
        the ties at the same distance by key index, then IV index.
        O(K x E x log V) for E extracts holding IVs.
        """
        flag, dist, _, _ = self.sort_key(ki, vi)
        before = 0
        for kj, key in enumerate(self.keys):
            o = key.offset
            for extract_id, (members, offs) in self._lanes.items():
                other = extract_id != key.extract_id
                if other != flag:
                    before += len(offs) if other < flag else 0
                elif kj < ki:  # every IV up to and at the distance
                    before += bisect_right(offs, o + dist) - bisect_left(offs, o - dist)
                elif kj > ki:  # only IVs strictly closer; none at distance 0
                    before += max(0, bisect_left(offs, o + dist) - bisect_right(offs, o - dist))
                else:
                    lo, hi = bisect_left(offs, o - dist), bisect_right(offs, o + dist)
                    before += sum((abs(offs[p] - o), members[p]) < (dist, vi) for p in range(lo, hi))
        return before


def pair_candidates(keys: list[Candidate], ivs: list[Candidate]) -> PairOrder:
    """Cross product of candidates, in trial order.

    Same-extract pairs come first, then closer key/IV offsets; list positions
    break remaining ties so the ordering is total and reproducible. The
    product is never built: ``PairOrder.rank`` counts a pair's position. With
    no keys or no IVs the order is empty: length 0 and no floors. A repeated
    key or IV value raises ValueError, as does an IV that is not 4 bytes.
    """
    return PairOrder(keys, ivs)
