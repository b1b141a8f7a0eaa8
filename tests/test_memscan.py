import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import keysift.memscan as memscan
from keysift.capture import NonceStyle, parse_capture
from keysift.entropy import entropy_profile, shannon_entropy
from keysift.errors import EmptyDirectory
from keysift.fixtures import FixtureLayout, Filler, FixtureSpec, generate_fixture
from keysift.memscan import (
    IV_LEN,
    IV_MARKER,
    KEY_MARKER,
    MAX_IV_DISTANCE,
    MAX_KEY_DISTANCE,
    MB,
    STEP,
    BlockHypothesis,
    Candidate,
    ScanConfig,
    _prune_hits,
    band_for_size,
    find_all,
    load_extracts,
    pair_candidates,
    scan_standard,
    scan_windows,
)

from conftest import naive_find_all, naive_pair_order, oracle_standard_scan, oracle_windows_scan


def _extracts_from(directory, named_buffers):
    """Write each ``(name, bytes)`` to ``directory`` and load them as an extract set."""
    for name, data in named_buffers:
        (directory / name).write_bytes(data)
    return load_extracts(directory)


# ---------------------------------------------------------------------------
# loading and banding


@pytest.mark.parametrize(
    "size,band",
    [
        (512 * 1024, 2),
        (3 * MB, 1),
        (10 * MB, 3),
        (MB, 1),        # boundaries are inclusive-exclusive
        (8 * MB, 3),
        (MB - 1, 2),
        (8 * MB - 1, 1),
        (1, 2),
    ],
)
def test_banding(size, band):
    assert band_for_size(size) == band


def test_load_extracts_lexicographic_ids(tmp_path):
    (tmp_path / "bbb.bin").write_bytes(bytes(10))
    (tmp_path / "aaa.bin").write_bytes(bytes(2 * MB))
    (tmp_path / "manifest.json").write_text("{}")
    extract_set = load_extracts(tmp_path)
    assert [e.name for e in extract_set.extracts] == ["aaa.bin", "bbb.bin"]
    assert [e.id for e in extract_set.extracts] == [0, 1]
    assert extract_set.bands == {1: (0,), 2: (1,), 3: ()}


def test_load_extracts_empty_dir(tmp_path):
    with pytest.raises(EmptyDirectory):
        load_extracts(tmp_path)


def test_load_extracts_skips_empty_files(tmp_path):
    (tmp_path / "zero.bin").write_bytes(b"")
    (tmp_path / "ok.bin").write_bytes(b"data")
    extract_set = load_extracts(tmp_path)
    assert [e.name for e in extract_set.extracts] == ["ok.bin"]


def test_band_partition_is_total(tmp_path):
    buffers = [("a", bytes(512 * 1024)), ("b", bytes(MB)), ("c", bytes(9 * MB))]
    extract_set = _extracts_from(tmp_path, buffers)
    banded = sorted(i for ids in extract_set.bands.values() for i in ids)
    assert banded == [0, 1, 2]


# ---------------------------------------------------------------------------
# configuration


def test_key_threshold_defaults():
    assert ScanConfig(key_len_bytes=32).key_entropy_threshold == pytest.approx(4.5)
    assert ScanConfig(key_len_bytes=16).key_entropy_threshold == pytest.approx(3.6)


def test_gates_are_derived_not_fields():
    # only the key length and the pruning gap are set; the gates follow from them
    assert ScanConfig._fields == ("key_len_bytes", "min_artefact_gap")
    assert Candidate._fields == ("value", "extract_id", "offset")
    assert ScanConfig().iv_entropy_threshold == 1.5
    with pytest.raises(TypeError):
        ScanConfig(iv_entropy_threshold=2)
    for gate in ("iv_entropy_threshold", "key_entropy_threshold"):
        with pytest.raises(AttributeError):
            setattr(ScanConfig(), gate, 0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"key_len_bytes": 24},
        {"iv_entropy_threshold": -1.0},
        {"iv_entropy_threshold": float("nan")},
        {"iv_entropy_threshold": float("inf")},
        {"key_entropy_threshold": float("nan")},
        {"key_entropy_threshold": float("-inf")},
        {"min_artefact_gap": -5},
    ],
)
def test_config_validation(kwargs):
    # a bad field value is a ValueError; a gate is not a field, so naming one is a TypeError
    error = ValueError if kwargs.keys() <= set(ScanConfig._fields) else TypeError
    with pytest.raises(error):
        ScanConfig(**kwargs)


# ---------------------------------------------------------------------------
# pattern search


@given(data=st.binary(max_size=400), pattern=st.binary(min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_find_all_matches_naive_quadratic(data, pattern):
    assert find_all(data, pattern) == naive_find_all(data, pattern)


def test_find_all_overlapping():
    assert find_all(b"aaaaa", b"aa") == [0, 1, 2, 3]


@given(n=st.integers(min_value=0, max_value=20), seed=st.integers(0, 1000))
@settings(max_examples=50, deadline=None)
def test_marker_search_visits_every_occurrence(n, seed):
    import random

    rng = random.Random(seed)
    buf = bytearray(rng.randbytes(64))
    for _ in range(n):
        buf += KEY_MARKER + rng.randbytes(rng.randrange(0, 40))
    planted = naive_find_all(bytes(buf), KEY_MARKER)
    assert find_all(bytes(buf), KEY_MARKER) == planted
    assert len(planted) >= n


# ---------------------------------------------------------------------------
# marker scan


def _tiny_extract(key_len=16):
    # one marker pair with artefacts at stride-aligned offsets, zero filler
    buf = bytearray(4096)
    iv = bytes([1, 2, 3, 4])
    key = bytes(range(100, 100 + key_len))
    buf[100:104] = IV_MARKER
    buf[104 + 20 : 104 + 24] = iv
    buf[1000:1004] = KEY_MARKER
    buf[1004 + 28 : 1004 + 28 + key_len] = key
    return bytes(buf), iv, key


def test_scan_windows_finds_planted_artefacts(tmp_path):
    data, iv, key = _tiny_extract()
    extract_set = _extracts_from(tmp_path, [("x.bin", data)])
    keys, ivs = scan_windows(extract_set, ScanConfig(key_len_bytes=16))
    assert [k.value for k in keys] == [key]
    assert [v.value for v in ivs] == [iv]
    assert keys[0].offset == 1004 + 28
    assert ivs[0].offset == 104 + 20


def test_scan_windows_marker_at_extract_tail(tmp_path):
    # windows that would run past the end of the extract are skipped
    buf = bytearray(4096)
    buf[0:4] = KEY_MARKER
    buf[4 + 28 : 4 + 28 + 16] = bytes(range(100, 116))
    buf[4090:4094] = KEY_MARKER  # only 2 bytes of room after this one
    extract_set = _extracts_from(tmp_path, [("x.bin", bytes(buf))])
    keys, _ = scan_windows(extract_set, ScanConfig(key_len_bytes=16))
    assert [k.offset for k in keys] == [32]


@pytest.mark.parametrize("beyond", [0, STEP], ids=["at-the-reach", "one-step-past"])
def test_scan_windows_reach_is_fixed_by_the_library_layout(tmp_path, beyond):
    # the last window starts MAX_IV_DISTANCE past 3LLS and MAX_KEY_DISTANCE past KSSM; on zero
    # filler every window that only overlaps an artefact scores below its gate
    iv, key = bytes([1, 2, 3, 4]), bytes(range(100, 116))
    buf = bytearray(4096)
    buf[100:104] = IV_MARKER
    iv_at = 104 + MAX_IV_DISTANCE + beyond
    buf[iv_at : iv_at + IV_LEN] = iv
    buf[1000:1004] = KEY_MARKER
    key_at = 1004 + MAX_KEY_DISTANCE + beyond
    buf[key_at : key_at + 16] = key
    keys, ivs = scan_windows(_extracts_from(tmp_path, [("x.bin", bytes(buf))]), ScanConfig(key_len_bytes=16))
    reached = beyond == 0
    assert [(k.value, k.offset) for k in keys] == ([(key, key_at)] if reached else [])
    assert [(v.value, v.offset) for v in ivs] == ([(iv, iv_at)] if reached else [])


def test_scan_windows_requires_key_marker(tmp_path):
    buf = bytearray(4096)
    buf[100:104] = IV_MARKER
    buf[104 + 20 : 104 + 24] = bytes([1, 2, 3, 4])
    extract_set = _extracts_from(tmp_path, [("x.bin", bytes(buf))])
    keys, ivs = scan_windows(extract_set, ScanConfig(key_len_bytes=16))
    assert keys == [] and ivs == []


def test_scan_windows_keeps_ivs_of_an_extract_whose_keys_fail_the_gate(tmp_path):
    # a key marker with no window clearing the key gate still admits the
    # extract: its IVs are candidates for keys found in other extracts
    buf = bytearray(4096)
    buf[100:104] = IV_MARKER
    buf[104 + 20 : 104 + 24] = bytes([1, 2, 3, 4])
    buf[1000:1004] = KEY_MARKER
    extract_set = _extracts_from(tmp_path, [("x.bin", bytes(buf))])
    keys, ivs = scan_windows(extract_set, ScanConfig(key_len_bytes=16))
    assert keys == []
    assert [(v.value, v.offset) for v in ivs] == [(bytes([1, 2, 3, 4]), 104 + 20)]


# exactly at each gate: 8 byte values twice and 16 once score 5 - 16/32 = 4.5
# bits, the 32-byte key gate; 11 11 22 33 scores 2 - 2/4 = 1.5 bits, the IV
# gate. One byte value fewer twice, or one repeat fewer, lifts each above it.
_KEY_AT_GATE = bytes(range(8)) * 2 + bytes(range(8, 24))
_IV_AT_GATE = bytes.fromhex("11112233")
_KEY_ABOVE_GATE = bytes(range(7)) * 2 + bytes(range(7, 25))
_IV_ABOVE_GATE = bytes.fromhex("11223344")


@pytest.mark.parametrize("key, iv", [(_KEY_AT_GATE, _IV_AT_GATE), (_KEY_ABOVE_GATE, _IV_ABOVE_GATE)],
                         ids=["at-gate", "above-gate"])
def test_every_gate_consumer_agrees_with_scan_config(tmp_path, key, iv):
    # ScanConfig's predicates are the one definition of the gates: the
    # vectorized profile counts a window, and the marker scan keeps a window
    # after its marker, exactly when the predicate passes it
    cfg = ScanConfig(key_len_bytes=32)
    assert (shannon_entropy(key), shannon_entropy(iv)) == ((4.5, 1.5) if key == _KEY_AT_GATE else (4.5625, 2.0))
    assert entropy_profile(key, cfg.key_len_bytes, cfg.key_entropy_threshold) == [(0, cfg.passes_key_gate(key))]
    buf = bytearray(4096)
    buf[100:104] = IV_MARKER
    buf[124:128] = iv
    buf[1000:1004] = KEY_MARKER
    buf[1032:1064] = key
    keys, ivs = scan_windows(_extracts_from(tmp_path, [("x.bin", bytes(buf))]), cfg)
    assert ((key, 1032) in {(c.value, c.offset) for c in keys}) == cfg.passes_key_gate(key)
    assert ((iv, 124) in {(c.value, c.offset) for c in ivs}) == cfg.passes_iv_gate(iv)


def test_scan_windows_gate_soundness(windows_fixture_32):
    _, paths, _ = windows_fixture_32
    extract_set = load_extracts(paths.extract_dir)
    cfg = ScanConfig(key_len_bytes=32)
    keys, ivs = scan_windows(extract_set, cfg)
    for cand in keys:
        assert shannon_entropy(cand.value) > cfg.key_entropy_threshold
    for cand in ivs:
        assert shannon_entropy(cand.value) > cfg.iv_entropy_threshold


def test_scan_windows_matches_independent_oracle(windows_fixture_16):
    _, paths, _ = windows_fixture_16
    extract_set = load_extracts(paths.extract_dir)
    cfg = ScanConfig(key_len_bytes=16)
    keys, ivs = scan_windows(extract_set, cfg)
    oracle_keys, oracle_ivs = oracle_windows_scan(extract_set, cfg)
    assert [(k.value, k.extract_id, k.offset) for k in keys] == [t[:3] for t in oracle_keys]
    assert [(v.value, v.extract_id, v.offset) for v in ivs] == [t[:3] for t in oracle_ivs]


def test_scan_windows_dedup_prefers_band_order(tmp_path):
    data, iv, key = _tiny_extract()
    # same artefacts in a band-1 extract and a small band-2 extract; the
    # band-1 copy is scanned first even though its id sorts later
    big = bytearray(bytes(2 * MB))
    big[: len(data)] = data
    extract_set = _extracts_from(tmp_path, [("a_small.bin", data), ("b_big.bin", bytes(big))])
    assert extract_set.bands == {1: (1,), 2: (0,), 3: ()}
    keys, ivs = scan_windows(extract_set, ScanConfig(key_len_bytes=16))
    assert [k.extract_id for k in keys] == [1]
    assert [v.extract_id for v in ivs] == [1]


@pytest.mark.parametrize("seed", [300, 301, 302])
def test_scan_windows_realistic_shape_set_sizes(tmp_path, seed):
    # key-bearing structures in a 2-4 MB file among decoys: key candidates in
    # single digits, IV candidates in the tens to hundreds
    spec = FixtureSpec(
        rng_seed=seed,
        key_len_bytes=16,
        extract_sizes=(2 * MB + (seed % 3) * MB,),
        decoy_markers=5,
        decoy_high_entropy_regions=2,
    )
    paths, truth = generate_fixture(spec, tmp_path)
    keys, ivs = scan_windows(load_extracts(paths.extract_dir), ScanConfig(key_len_bytes=16))
    assert 1 <= len(keys) <= 9
    assert 10 <= len(ivs) <= 600
    assert any(k.value == truth.client_key for k in keys)
    assert any(k.value == truth.server_key for k in keys)


def test_scan_windows_deterministic(windows_fixture_32):
    _, paths, _ = windows_fixture_32
    cfg = ScanConfig(key_len_bytes=32)
    first = scan_windows(load_extracts(paths.extract_dir), cfg)
    again = scan_windows(load_extracts(paths.extract_dir), cfg)
    assert first == again


# ---------------------------------------------------------------------------
# standard scan


def _generic_fixture(tmp_path, seed=3, key_len=16, hypothesis=BlockHypothesis.IV_WAS_CLIENT,
                     **spec_kwargs):
    spec = FixtureSpec(
        rng_seed=seed,
        key_len_bytes=key_len,
        layout=FixtureLayout.GENERIC_KEY_BLOCK,
        filler=Filler.ZERO,
        explicit_nonce_style=NonceStyle.RANDOM_LIKE,
        extract_sizes=(2 * MB,),
        generic_hypothesis=hypothesis,
        **spec_kwargs,
    )
    paths, truth = generate_fixture(spec, tmp_path)
    capture = parse_capture(paths.root)
    extract_set = load_extracts(paths.extract_dir)
    return spec, truth, capture, extract_set


def test_scan_standard_exactly_the_planted_block(tmp_path):
    _, truth, capture, extract_set = _generic_fixture(tmp_path)
    blocks = scan_standard(extract_set, capture, ScanConfig(key_len_bytes=16))
    assert len(blocks) == 1
    block = blocks[0]
    assert block.client_key == truth.client_key
    assert block.server_key == truth.server_key
    assert block.client_iv == truth.client_iv
    assert block.server_iv == truth.server_iv
    assert block.hypothesis is BlockHypothesis.IV_WAS_CLIENT
    assert block.offset == truth.find("key_block").offset


@pytest.mark.parametrize("hypothesis", list(BlockHypothesis))
@pytest.mark.parametrize("key_len", [16, 32])
def test_scan_standard_planted_block_both_hypotheses(tmp_path, hypothesis, key_len):
    _, truth, capture, extract_set = _generic_fixture(
        tmp_path, key_len=key_len, hypothesis=hypothesis
    )
    blocks = scan_standard(extract_set, capture, ScanConfig(key_len_bytes=key_len))
    material = {truth.client_key, truth.server_key}
    assert any({b.client_key, b.server_key} == material for b in blocks)


def test_scan_standard_no_nonce_occurrences(tmp_path):
    extract_set = _extracts_from(tmp_path, [("zeros.bin", bytes(2 * MB))])
    capture_like = type(
        "Cap", (), {"first_explicit_nonce": b"\x42" * 8}
    )()
    blocks = scan_standard(extract_set, capture_like, ScanConfig(key_len_bytes=16))
    assert blocks == []


def test_scan_standard_skips_what_falls_off_the_extract(tmp_path):
    # a nonce hit at offset 1 has no 4 bytes in front of it; an IV value at
    # the start leaves room only for the client-IV layout, and one at the end
    # only for the server-IV layout
    import random

    rng = random.Random(7)
    nonce, value = rng.randbytes(8), rng.randbytes(IV_LEN)
    buf = bytearray(rng.randbytes(4096))
    buf[1:9] = nonce
    buf[1996:2008] = value + nonce
    buf[32:36] = value
    buf[4092:4096] = value
    extract_set = _extracts_from(tmp_path, [("x.bin", bytes(buf))])
    capture_like = type("Cap", (), {"first_explicit_nonce": nonce})()
    cfg = ScanConfig(key_len_bytes=16)
    blocks = scan_standard(extract_set, capture_like, cfg)
    assert [(b.offset, b.hypothesis) for b in blocks] == [
        (0, BlockHypothesis.IV_WAS_CLIENT),
        (1996 - 36, BlockHypothesis.IV_WAS_SERVER),
        (1996 - 32, BlockHypothesis.IV_WAS_CLIENT),
        (4092 - 36, BlockHypothesis.IV_WAS_SERVER),
    ]
    assert [
        (b.extract_id, b.offset, b.hypothesis.value, b.client_key, b.server_key, b.client_iv, b.server_iv)
        for b in blocks
    ] == oracle_standard_scan(extract_set, capture_like, cfg)


def test_scan_standard_counter_pruning(tmp_path):
    spec = FixtureSpec(
        rng_seed=9,
        key_len_bytes=16,
        layout=FixtureLayout.GENERIC_KEY_BLOCK,
        filler=Filler.COUNTERS,
        explicit_nonce_style=NonceStyle.COUNTER_LIKE,
        extract_sizes=(2 * MB,),
        keyblock_copies=5,
        keyblock_copy_gap=200,
    )
    paths, truth = generate_fixture(spec, tmp_path)
    capture = parse_capture(paths.root)
    extract_set = load_extracts(paths.extract_dir)
    assert capture.first_explicit_nonce == bytes(7) + b"\x01"

    unpruned = scan_standard(extract_set, capture, ScanConfig(key_len_bytes=16, min_artefact_gap=0))
    pruned = scan_standard(extract_set, capture, ScanConfig(key_len_bytes=16))
    assert len(unpruned) > len(pruned) > 0
    # pruning keeps the lowest-offset copy, which is the recorded ground truth
    assert any(b.client_key == truth.client_key for b in pruned)

    counts = [
        len(scan_standard(extract_set, capture, ScanConfig(key_len_bytes=16, min_artefact_gap=g)))
        for g in (0, 150, 1000, 10 * MB)
    ]
    assert counts == sorted(counts, reverse=True)


# counter-rich memory: the counter-like nonce recurs all through the filler
_COUNTER_BLOCKS = dict(
    rng_seed=9, key_len_bytes=16, filler=Filler.COUNTERS, explicit_nonce_style=NonceStyle.COUNTER_LIKE,
    keyblock_copies=5, keyblock_copy_gap=200,
)


@pytest.mark.parametrize("spec_kwargs,gap", [
    (dict(_COUNTER_BLOCKS, extract_sizes=(512 * 1024, 2 * MB)), 1000),
    (_COUNTER_BLOCKS, 0),
    (dict(rng_seed=3, key_len_bytes=16, filler=Filler.ZERO, explicit_nonce_style=NonceStyle.RANDOM_LIKE), 1000),
    (dict(rng_seed=17, key_len_bytes=32, filler=Filler.RANDOM, explicit_nonce_style=NonceStyle.RANDOM_LIKE), 1000),
    (dict(rng_seed=5, key_len_bytes=32, generic_hypothesis=BlockHypothesis.IV_WAS_SERVER, keyblock_copies=3), 1000),
], ids=["counter-copies", "counter-unpruned", "random-nonce-16", "random-filler-32", "iv-was-server-32"])
def test_scan_standard_matches_independent_oracle(tmp_path, spec_kwargs, gap):
    spec = FixtureSpec(**{"layout": FixtureLayout.GENERIC_KEY_BLOCK, "extract_sizes": (2 * MB,), **spec_kwargs})
    paths, _ = generate_fixture(spec, tmp_path)
    capture = parse_capture(paths.root)
    extract_set = load_extracts(paths.extract_dir)
    cfg = ScanConfig(key_len_bytes=spec.key_len_bytes, min_artefact_gap=gap)
    blocks = scan_standard(extract_set, capture, cfg)
    assert blocks
    assert [
        (b.extract_id, b.offset, b.hypothesis.value, b.client_key, b.server_key, b.client_iv, b.server_iv)
        for b in blocks
    ] == oracle_standard_scan(extract_set, capture, cfg)


def test_scan_standard_gates_each_iv_value_once(tmp_path, monkeypatch):
    # nearly every nonce hit in counter filler has the same 4 bytes in front
    spec = FixtureSpec(layout=FixtureLayout.GENERIC_KEY_BLOCK, extract_sizes=(2 * MB,), **_COUNTER_BLOCKS)
    paths, _ = generate_fixture(spec, tmp_path)
    capture = parse_capture(paths.root)
    extract_set = load_extracts(paths.extract_dir)
    nonce = capture.first_explicit_nonce
    hits = [(e.data, off) for e in extract_set.extracts for off in find_all(e.data, nonce) if off >= IV_LEN]
    distinct = {data[off - IV_LEN : off] for data, off in hits}
    assert len(hits) > 10 * len(distinct)

    iv_gate_calls = []
    real_entropy = memscan.shannon_entropy

    def counting_entropy(segment):
        if len(segment) == IV_LEN:
            iv_gate_calls.append(segment)
        return real_entropy(segment)

    monkeypatch.setattr(memscan, "shannon_entropy", counting_entropy)
    assert scan_standard(extract_set, capture, ScanConfig(key_len_bytes=16))
    assert len(iv_gate_calls) <= len(distinct)


@given(
    offsets=st.lists(st.integers(0, 100_000), max_size=40),
    gaps=st.tuples(st.integers(0, 5000), st.integers(0, 5000)),
)
@settings(max_examples=100, deadline=None)
def test_prune_monotone(offsets, gaps):
    small, large = min(gaps), max(gaps)
    assert len(_prune_hits(offsets, large)) <= len(_prune_hits(offsets, small))


def test_scan_standard_deterministic(tmp_path):
    _, _, capture, extract_set = _generic_fixture(tmp_path, seed=17, key_len=32)
    cfg = ScanConfig(key_len_bytes=32)
    first = scan_standard(extract_set, capture, cfg)
    assert first and first == scan_standard(extract_set, capture, cfg)


# ---------------------------------------------------------------------------
# pairing


def _cand_key(i, extract=0, offset=0):
    return Candidate(i.to_bytes(4, "big"), extract, offset)


def _cand_iv(i, extract=0, offset=0):
    return Candidate(i.to_bytes(4, "big"), extract, offset)


def test_pair_cardinality():
    keys = [_cand_key(i) for i in range(3)]
    ivs = [_cand_iv(10 + i) for i in range(2)]
    assert len(pair_candidates(keys, ivs)) == 6


def test_pair_same_extract_first():
    keys = [_cand_key(1, extract=0, offset=100), _cand_key(2, extract=1, offset=100)]
    ivs = [_cand_iv(3, extract=1, offset=110)]
    pairs = pair_candidates(keys, ivs)
    assert pairs.rank(1, 0) == 0  # same-extract pair leads despite equal distance


def test_pair_distance_ordering():
    keys = [_cand_key(1, offset=0), _cand_key(2, offset=500)]
    ivs = [_cand_iv(3, offset=520)]
    pairs = pair_candidates(keys, ivs)
    assert pairs.rank(1, 0) == 0


def test_pair_budget_shape():
    keys = [_cand_key(i, extract=i) for i in range(6)]
    ivs = [_cand_iv(i, extract=i) for i in range(483)]
    pairs = pair_candidates(keys, ivs)
    assert len(pairs) == 6 * 483 == 2898


def test_pair_of_an_empty_list_is_empty():
    for keys, ivs in (([], [_cand_iv(1)]), ([_cand_key(1)], [])):
        pairs = pair_candidates(keys, ivs)
        assert len(pairs) == 0 and pairs.by_floor == []


def test_pair_ties_break_on_list_position():
    # equal extract and distance: earlier list entries come first
    keys = [_cand_key(1, offset=0), _cand_key(2, offset=0)]
    ivs = [_cand_iv(3, offset=50), _cand_iv(4, offset=50)]
    pairs = pair_candidates(keys, ivs)
    assert [pairs.rank(ki, vi) for ki in range(2) for vi in range(2)] == [0, 1, 2, 3]


# Few extracts and a narrow offset range, so equal offsets, keys and IVs at the
# same offset, and equal distances on both sides of a key are common.
_placed = st.tuples(st.integers(0, 3), st.integers(0, 40))


@given(st.lists(_placed, min_size=1, max_size=12), st.lists(_placed, min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_pair_order_rank_matches_naive_position(key_places, iv_places):
    # rank and sort_key agree with the sorted product, and each key's floor
    # is at most its nearest pair, exactly so when its extract holds an IV
    keys = [_cand_key(i, extract=e, offset=o) for i, (e, o) in enumerate(key_places)]
    ivs = [_cand_iv(100 + i, extract=e, offset=o) for i, (e, o) in enumerate(iv_places)]
    position = {pair: n for n, pair in enumerate(naive_pair_order(keys, ivs))}
    pairs = pair_candidates(keys, ivs)
    by_sort_key = sorted((pairs.sort_key(ki, vi), ki, vi) for ki in range(len(keys)) for vi in range(len(ivs)))
    assert [(keys[ki], ivs[vi]) for _, ki, vi in by_sort_key] == naive_pair_order(keys, ivs)
    floors = dict(pairs.by_floor)  # the key values are distinct
    for ki, key in enumerate(keys):
        floor = floors[key.value]
        nearest = min(pairs.sort_key(ki, vi) for vi in range(len(ivs)))
        assert floor < nearest and (floor == nearest[:3] or floor == (True, 0, ki))
        for vi, iv in enumerate(ivs):
            assert pairs.rank(ki, vi) == position[key, iv]


def test_pair_order_is_truthy():
    assert pair_candidates([_cand_key(i) for i in range(25)], [_cand_iv(i) for i in range(24)])
    assert bool(pair_candidates([_cand_key(1)], [_cand_iv(2)]))


def test_pair_order_does_not_build_the_product():
    keys = [_cand_key(i, extract=i % 3, offset=i * 97 % 65_536) for i in range(1000)]
    ivs = [_cand_iv(i, extract=i % 3, offset=i * 61 % 65_536) for i in range(600)]
    _, _, ki, vi = min(
        (k.extract_id != v.extract_id, abs(k.offset - v.offset), ki, vi)
        for ki, k in enumerate(keys)
        for vi, v in enumerate(ivs)
    )
    tracemalloc.start()
    try:
        pairs = pair_candidates(keys, ivs)
        first = pairs.rank(ki, vi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    assert len(pairs) == 600_000
    assert first == 0
