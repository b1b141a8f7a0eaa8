"""Shannon entropy of byte segments, plus windowed profiles over whole extracts."""

from __future__ import annotations

import math
from collections import Counter

from .errors import EmptySegment


def shannon_entropy(segment: bytes) -> float:
    """Entropy of the byte histogram of ``segment``, in bits per symbol.

    Bounded by min(8, log2(len(segment))); a run of one value scores 0.0.
    """
    n = len(segment)
    if n == 0:
        raise EmptySegment("entropy of an empty segment is undefined")
    # H = log2(n) - sum(c*log2(c))/n avoids a division per distinct byte.
    acc = 0.0
    for count in Counter(segment).values():
        acc += count * math.log2(count)
    return math.log2(n) - acc / n


def entropy_profile(
    data: bytes,
    window: int,
    threshold: float,
    region_windows: int = 256,
) -> list[tuple[int, int]]:
    """Count high-entropy windows per region of ``data``.

    The buffer is cut into non-overlapping ``window``-byte segments; every
    ``region_windows`` consecutive segments form one region. Returns
    ``(region_start_offset, windows_above_threshold)`` per region, which is
    what the CSV export and offline plotting consume. A trailing partial
    window is ignored; a trailing partial region is reported.
    """
    import numpy as np  # only this profile needs numpy; the decrypt path stays free of it

    if window <= 0:
        raise ValueError("window must be positive")
    if region_windows <= 0:
        raise ValueError("region_windows must be positive")

    n_windows = len(data) // window
    if n_windows == 0:
        return []

    above = np.zeros(n_windows, dtype=bool)
    arr = np.frombuffer(data, dtype=np.uint8)[: n_windows * window]
    blocks = arr.reshape(n_windows, window)
    # H = log2(w) - sum_i log2(c(x_i)) / w, with c(x_i) the count of the
    # window's i-th byte in that window: w terms per window, not 256 bins.
    log2_count = np.log2(np.maximum(np.arange(window + 1), 1))  # index 0 is never read

    # Chunked so the per-window histograms and counts stay within a few MB of scratch.
    chunk = max(1, (1 << 19) // max(window, 256))
    for start in range(0, n_windows, chunk):
        part = blocks[start : start + chunk].astype(np.int64)
        rows = part.shape[0]
        part += np.arange(rows, dtype=np.int64)[:, None] << 8
        counts = np.bincount(part.ravel(), minlength=rows * 256)
        ent = math.log2(window) - log2_count[counts[part]].sum(axis=1) / window
        above[start : start + rows] = ent > threshold

    firsts = np.arange(0, n_windows, region_windows)
    per_region = np.add.reduceat(above, firsts, dtype=np.int64)
    return [(first * window, count) for first, count in zip(firsts.tolist(), per_region.tolist())]
