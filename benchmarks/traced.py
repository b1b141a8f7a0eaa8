"""Run one `keysift decrypt` with spans and counters around the layer calls.

Usage (PYTHONPATH must point at the keysift sources):
    python3 benchmarks/traced.py full|pipeline TRACE.json decrypt --extracts DIR --capture DIR

Spans wrap the names ``keysift.cli`` calls through, so the program itself is
unchanged. ``AESGCM.decrypt``, ``shannon_entropy`` and ``find_all`` get
per-call hooks that only count; see ``Tracer.entropy_counts`` for how entropy
calls are timed. With ``pipeline`` only ``run_pipeline`` gets a span, which
gives the baseline that tracing overhead is measured against. Spans and
counters stay in memory and are written to TRACE.json when the run ends; the
report still goes to stdout and the exit code is the program's own.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time

import keysift.cli as cli
import keysift.decrypt as decrypt_mod
import keysift.memscan as memscan
from keysift.errors import NoValidDecrypt

# Functions keysift.cli calls into the capture, memscan, decrypt and report layers.
SPANNED = (
    "run_pipeline",
    "parse_capture",
    "load_extracts",
    "scan_windows",
    "scan_standard",
    "pair_candidates",
    "trial_decrypt",
    "trial_decrypt_blocks",
    "decrypt_session",
    "render_json",
)


class Tracer:
    """Spans as [name, start, end, parent index] plus plain counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts = {
            "aead_opens": 0,
            "bytes": 0,
            "nonce_hits": 0,
            "keys": 0,
            "ivs": 0,
            "key_blocks": 0,
            "pairs": 0,
            "pair_rss_kb": 0,
            "trials": 0,
            "verified": 0,
        }
        self.nonce: bytes | None = None
        self.segments: list[bytes] = []
        self.real_entropy = memscan.shannon_entropy

    def span(self, name, fn):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else None])
            self.stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[index][2] = time.perf_counter()

        return wrapper

    def install(self) -> None:
        spanned = {name: self.span(name, getattr(cli, name)) for name in SPANNED}
        counts = self.counts

        def scan_windows(*args, **kwargs):
            keys, ivs = spanned["scan_windows"](*args, **kwargs)
            counts["keys"] += len(keys)
            counts["ivs"] += len(ivs)
            return keys, ivs

        def scan_standard(extracts, capture, *args, **kwargs):
            self.nonce = capture.first_explicit_nonce
            try:
                blocks = spanned["scan_standard"](extracts, capture, *args, **kwargs)
            finally:
                self.nonce = None
            counts["key_blocks"] += len(blocks)
            return blocks

        def load_extracts(*args, **kwargs):
            extracts = spanned["load_extracts"](*args, **kwargs)
            counts["bytes"] += extracts.total_bytes
            return extracts

        def pair_candidates(*args, **kwargs):
            pairs = spanned["pair_candidates"](*args, **kwargs)
            counts["pairs"] += len(pairs)
            counts["pair_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            return pairs

        def trials_of(name):
            def run(*args, **kwargs):
                try:
                    result = spanned[name](*args, **kwargs)
                except NoValidDecrypt as exc:
                    counts["trials"] += exc.trials
                    raise
                counts["trials"] += result.trials
                counts["verified"] += 1
                return result

            return run

        wrapped = dict(
            spanned,
            load_extracts=load_extracts,
            scan_windows=scan_windows,
            scan_standard=scan_standard,
            pair_candidates=pair_candidates,
            trial_decrypt=trials_of("trial_decrypt"),
            trial_decrypt_blocks=trials_of("trial_decrypt_blocks"),
        )
        for name, fn in wrapped.items():
            setattr(cli, name, fn)

        real_aesgcm = decrypt_mod.AESGCM

        class CountingAESGCM:
            __slots__ = ("_decrypt",)

            def __init__(self, key):
                self._decrypt = real_aesgcm(key).decrypt

            def decrypt(self, nonce, data, aad):
                counts["aead_opens"] += 1
                return self._decrypt(nonce, data, aad)

        decrypt_mod.AESGCM = CountingAESGCM

        real_entropy = self.real_entropy
        remember = self.segments.append

        def shannon_entropy(segment):
            remember(segment)
            return real_entropy(segment)

        memscan.shannon_entropy = shannon_entropy

        real_find_all = memscan.find_all

        def find_all(data, pattern):
            hits = real_find_all(data, pattern)
            if pattern == self.nonce:
                counts["nonce_hits"] += len(hits)
            return hits

        memscan.find_all = find_all

    def entropy_counts(self) -> dict:
        """Entropy calls, those clearing their default gate, and their cost.

        The hook only records each segment, which keeps tracing overhead low
        on scenes with hundreds of thousands of calls; the calls are timed
        here, replayed in one loop after the program has finished.
        """
        gates = {memscan.IV_LEN: memscan.ScanConfig().iv_entropy_threshold}
        gates.update({k: memscan.ScanConfig(key_len_bytes=k).key_entropy_threshold for k in (16, 32)})
        entropy, segments = self.real_entropy, self.segments
        started = time.perf_counter()
        values = [entropy(segment) for segment in segments]
        elapsed = time.perf_counter() - started
        passed = sum(v > gates.get(len(s), math.inf) for s, v in zip(segments, values))
        return {"entropy_calls": len(segments), "entropy_passed": passed, "entropy_s": elapsed}

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": {**self.counts, **self.entropy_counts()}}


def main(argv: list[str]) -> int:
    scope, trace_path, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    if scope == "full":
        tracer.install()
    elif scope == "pipeline":
        cli.run_pipeline = tracer.span("run_pipeline", cli.run_pipeline)
    else:
        raise SystemExit(f"unknown scope {scope!r}; choose full or pipeline")
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(trace_path, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
