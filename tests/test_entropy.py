import math

import pytest
from hypothesis import given, strategies as st

from keysift.entropy import entropy_profile, shannon_entropy
from keysift.errors import EmptySegment

from conftest import naive_entropy


def test_single_symbol_is_zero():
    assert shannon_entropy(b"\x00" * 16) == 0.0


def test_four_equiprobable_symbols():
    assert abs(shannon_entropy(bytes([1, 2, 3, 4])) - 2.0) < 1e-12


def test_32_distinct_bytes():
    assert abs(shannon_entropy(bytes(range(32))) - 5.0) < 1e-12


def test_23_equiprobable_symbols_clear_the_key_gate():
    # smallest equiprobable alphabet whose entropy tops 4.5
    value = shannon_entropy(bytes(range(23)))
    assert abs(value - math.log2(23)) < 1e-9
    assert value > 4.5


def test_empty_segment_raises():
    with pytest.raises(EmptySegment):
        shannon_entropy(b"")


@given(st.binary(min_size=1, max_size=256))
def test_bounds(data):
    h = shannon_entropy(data)
    assert -1e-12 <= h <= min(8.0, math.log2(len(data))) + 1e-12


@given(st.binary(min_size=16, max_size=16))
def test_16_byte_segments_never_exceed_4_bits(data):
    assert shannon_entropy(data) <= 4.0 + 1e-12


@given(st.binary(min_size=1, max_size=64))
def test_matches_naive_definition(data):
    assert abs(shannon_entropy(data) - naive_entropy(data)) < 1e-9


def _max_entropy_for_distinct(n: int, distinct: int) -> float:
    # most even histogram: `extra` symbols get one more sample
    base, extra = divmod(n, distinct)
    counts = [base + 1] * extra + [base] * (distinct - extra)
    return -sum((c / n) * math.log2(c / n) for c in counts if c)


def test_threshold_attainability_by_histogram_enumeration():
    # no arrangement of a 16-byte window exceeds 4.0
    assert max(_max_entropy_for_distinct(16, d) for d in range(1, 17)) <= 4.0
    # for 32-byte windows the 4.5 gate needs at least 25 distinct values
    best = {d: _max_entropy_for_distinct(32, d) for d in range(1, 33)}
    assert best[24] == pytest.approx(4.5)
    assert best[25] > 4.5
    assert all(value <= 4.5 for d, value in best.items() if d <= 24)


def test_profile_all_zero_extract():
    profile = entropy_profile(bytes(1 << 20), window=32, threshold=4.5)
    assert profile and all(count == 0 for _, count in profile)


def test_profile_random_extract_counts_nearly_all_windows():
    import random

    data = random.Random(99).randbytes(1 << 18)
    profile = entropy_profile(data, window=32, threshold=4.5)
    windows = (1 << 18) // 32
    counted = sum(count for _, count in profile)
    assert counted >= 0.95 * windows


def test_profile_single_planted_spike():
    import random

    buf = bytearray(1 << 18)
    planted_at = 65536
    buf[planted_at : planted_at + 256] = random.Random(5).randbytes(256)
    profile = entropy_profile(bytes(buf), window=32, threshold=4.5, region_windows=256)
    hot = [(offset, count) for offset, count in profile if count > 0]
    assert len(hot) == 1
    offset, count = hot[0]
    assert offset <= planted_at < offset + 256 * 32
    assert count == 256 // 32


def test_profile_region_offsets_and_tail():
    data = bytes(100)  # 3 windows of 32, partial tail ignored
    profile = entropy_profile(data, window=32, threshold=0.5, region_windows=2)
    assert [offset for offset, _ in profile] == [0, 64]


def test_profile_matches_scalar_recount():
    import random

    rng = random.Random(3)
    # 8 pairs and 16 singletons score exactly 4.5, which the 4.5 gate must not count
    tie = bytes(sum(([b, b] for b in range(8)), [])) + bytes(range(100, 116))
    assert naive_entropy(tie) == 4.5
    data = rng.randbytes(4096) + bytes(4096) + tie * 16 + bytes(rng.randrange(24) for _ in range(2048))
    per_region = 8
    for window in (1, 4, 16, 32, 33):
        for threshold in (0.0, 2.0, 3.9, 4.0, 4.5):
            profile = entropy_profile(data, window, threshold, per_region)
            for offset, count in profile:
                recount = 0
                for w in range(per_region):
                    seg = data[offset + w * window : offset + (w + 1) * window]
                    if len(seg) < window:
                        break
                    if naive_entropy(seg) > threshold:
                        recount += 1
                assert recount == count, (window, threshold, offset)


def test_profile_rejects_bad_window():
    with pytest.raises(ValueError):
        entropy_profile(b"abc", window=0, threshold=1.0)
    with pytest.raises(ValueError):
        entropy_profile(bytes(64), 32, 4.5, region_windows=0)


def test_profile_data_shorter_than_window():
    assert entropy_profile(b"abc", window=32, threshold=1.0) == []
    assert entropy_profile(b"", window=32, threshold=1.0) == []
