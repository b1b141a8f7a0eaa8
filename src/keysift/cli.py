"""Pipeline orchestration and the command-line interface.

Exit codes are stable: 0 for a validated decrypt, 2 when analysis completed
but nothing decrypted, 1 for operational and usage errors.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .capture import CaptureFormat, NonceStyle, SessionCapture, explicit_nonce_style, parse_capture
from .decrypt import (
    DecryptedSession,
    TrialResult,
    decrypt_session,
    trial_decrypt,
    trial_decrypt_blocks,
)
from .entropy import entropy_profile
from .errors import KeysiftError, NoCandidates, NoValidDecrypt
from .fixtures import FixtureSpec, generate_fixture, spec_from_json
from .memscan import (
    ScanConfig,
    load_extracts,
    pair_candidates,
    scan_standard,
    scan_windows,
)
from .report import entropy_profile_csv, printable, render_json, render_text

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_DECRYPT = 2

MODES = ("auto", "windows", "standard")


class UsageError(KeysiftError):
    """A command-line argument or option value is invalid."""


class _Parser(argparse.ArgumentParser):
    """Reports bad arguments as a UsageError, so they exit 1 like any other error."""

    def error(self, message):
        raise UsageError(message)


@dataclass
class RunReport:
    mode_requested: str
    mode_used: str | None
    nonce_style: str
    candidates: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    outcome: str = "no_valid_decrypt"
    trials: dict | None = None
    material: dict | None = None
    session: dict | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def _session_dict(session: DecryptedSession) -> dict:
    return {
        "partial": session.partial,
        "records": [
            {
                "direction": entry.direction.value,
                "seq": entry.seq,
                "ok": entry.ok,
                "plaintext_hex": entry.plaintext.hex() if entry.plaintext is not None else None,
                "plaintext_printable": printable(entry.plaintext) if entry.plaintext is not None else None,
            }
            for entry in session.transcript
        ],
    }


def _material_dict(result: TrialResult, session: DecryptedSession, hypothesis: str | None) -> dict:
    return {
        "client_key": session.client_key.hex(),
        "client_iv": session.client_iv.hex(),
        "server_key": session.server_key.hex() if session.server_key else None,
        "server_iv": session.server_iv.hex() if session.server_iv else None,
        "hypothesis": hypothesis,
        "orientation_swapped": result.orientation_swapped,
    }


def run_pipeline(
    extract_dir,
    capture_source,
    capture_format: CaptureFormat | str = CaptureFormat.RAW_RECORDS,
    mode: str = "auto",
    config: ScanConfig | None = None,
    seq_window: int = 2,
    session_filter: tuple | None = None,
    clock=time.perf_counter,
) -> RunReport:
    """Load extracts, pick a scanner, scan, trial-decrypt, decrypt the session.

    ``capture_source`` is an already parsed SessionCapture or anything
    ``parse_capture`` accepts. In auto mode a counter-like explicit nonce
    selects the marker scanner first, with the standard scanner as fall-back;
    random-like nonces go straight to the standard scanner. Candidate counts
    are kept per scanner and trials are summed over every attempt. Scan and
    decrypt phases are timed separately. ``clock`` is injectable so reports
    can be made byte-stable.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if seq_window < 0:
        raise ValueError(f"seq_window must not be negative, got {seq_window}")

    if isinstance(capture_source, SessionCapture):
        capture = capture_source
    else:
        capture = parse_capture(capture_source, capture_format, session_filter)
    cfg = config or ScanConfig(key_len_bytes=capture.handshake.key_len_bytes)
    extracts = load_extracts(extract_dir)
    style = explicit_nonce_style(capture, cfg.counter_nonce_bound)

    if mode == "auto":
        attempt_modes = ["windows", "standard"] if style is NonceStyle.COUNTER_LIKE else ["standard"]
    else:
        attempt_modes = [mode]

    report = RunReport(
        mode_requested=mode,
        mode_used=None,
        nonce_style=style.value,
        timings={"memory_analysis_secs": 0.0, "decrypt_analysis_secs": 0.0},
        candidates={"keys": None, "ivs": None, "key_blocks": None},
    )

    attempted = 0
    for attempt in attempt_modes:
        scan_start = clock()
        blocks = pairs = None
        if attempt == "windows":
            keys, ivs = scan_windows(extracts, cfg)
            report.candidates.update(keys=len(keys), ivs=len(ivs))
        else:
            blocks = scan_standard(extracts, capture, cfg)
            report.candidates["key_blocks"] = len(blocks)
        report.timings["memory_analysis_secs"] += clock() - scan_start
        decrypt_start = clock()
        try:
            if blocks is None:
                pairs = pair_candidates(keys, ivs)
                result = trial_decrypt(capture, pairs, seq_window=seq_window)
            else:
                result = trial_decrypt_blocks(capture, blocks, seq_window=seq_window)
            session = decrypt_session(capture, result, blocks=blocks, pairs=pairs, seq_window=seq_window)
        except (NoCandidates, NoValidDecrypt) as exc:
            attempted += getattr(exc, "trials", 0)
            continue
        finally:
            report.timings["decrypt_analysis_secs"] += clock() - decrypt_start

        hypothesis = blocks[result.index].hypothesis.value if blocks is not None else None
        report.mode_used = attempt
        report.outcome = "decrypted_partial" if session.partial else "decrypted"
        report.trials = {
            "attempted": attempted + result.trials,
            "winner_index": result.index,
            "seq_used": result.seq_used,
            "validation": result.validation.value,
        }
        report.material = _material_dict(result, session, hypothesis)
        report.session = _session_dict(session)
        return report

    report.trials = {"attempted": attempted, "winner_index": None, "seq_used": None, "validation": None}
    return report


def _add_scan_flags(parser: argparse.ArgumentParser) -> None:
    """Scanner knobs; each flag's dest is the ScanConfig field it overrides."""
    parser.add_argument("--key-size", dest="key_len_bytes", type=int, choices=(16, 32),
                        help="AES key length in bytes (default: from the capture)")
    parser.add_argument("--iv-entropy", dest="iv_entropy_threshold", type=float,
                        help="IV entropy gate (default 1.5)")
    parser.add_argument("--key-entropy", dest="key_entropy_threshold", type=float,
                        help="key entropy gate (default 0.9*log2(key size))")
    parser.add_argument("--max-iv-distance", type=int,
                        help="max bytes after the IV marker to search (default 64)")
    parser.add_argument("--max-key-distance", type=int,
                        help="max bytes after the key marker to search (default 128)")
    parser.add_argument("--step", type=int, help="window stride in bytes (default 4)")
    parser.add_argument("--min-gap", dest="min_artefact_gap", type=int,
                        help="prune candidates closer than this many bytes (default 1000)")
    parser.add_argument("--counter-bound", dest="counter_nonce_bound", type=int,
                        help="nonces below this value look counter-like (default 256)")


def _config_from_args(args, key_len: int) -> ScanConfig:
    """ScanConfig from the scanner flags given; ``key_len`` unless --key-size is."""
    given = {f.name: getattr(args, f.name, None) for f in fields(ScanConfig)}
    kwargs = {name: value for name, value in given.items() if value is not None}
    kwargs.setdefault("key_len_bytes", key_len)
    try:
        return ScanConfig(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive: {value}")
    return value


def _parse_filter(text: str) -> tuple:
    try:
        left, right = text.split(",")
        ip_a, port_a = left.rsplit(":", 1)
        ip_b, port_b = right.rsplit(":", 1)
        return (ip_a, int(port_a), ip_b, int(port_b))
    except ValueError:
        raise argparse.ArgumentTypeError("filter must look like IP:PORT,IP:PORT")


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_decrypt(args) -> int:
    capture = parse_capture(args.capture, args.capture_format, args.filter)
    cfg = _config_from_args(args, capture.handshake.key_len_bytes)
    clock = (lambda: 0.0) if args.no_timings else time.perf_counter
    report = run_pipeline(
        args.extracts,
        capture,
        mode=args.mode,
        config=cfg,
        seq_window=args.seq_window,
        clock=clock,
    )
    payload = report.to_dict()
    _emit(args, render_json(payload) if args.format == "json" else render_text(payload))
    return EXIT_OK if report.outcome.startswith("decrypted") else EXIT_NO_DECRYPT


def _cmd_scan(args) -> int:
    extracts = load_extracts(args.extracts)
    if args.mode == "standard" or (args.mode == "auto" and args.capture):
        if not args.capture:
            raise UsageError("standard scan needs --capture for the explicit nonce")
        capture = parse_capture(args.capture, args.capture_format, args.filter)
        cfg = _config_from_args(args, capture.handshake.key_len_bytes)
        blocks = scan_standard(extracts, capture, cfg)
        payload = {
            "mode": "standard",
            "key_blocks": [
                {
                    "extract_id": b.extract_id,
                    "offset": b.offset,
                    "hypothesis": b.hypothesis.value,
                    "client_key": b.client_key.hex(),
                    "server_key": b.server_key.hex(),
                    "client_iv": b.client_iv.hex(),
                    "server_iv": b.server_iv.hex(),
                }
                for b in blocks
            ],
        }
    else:
        cfg = _config_from_args(args, 32)
        keys, ivs = scan_windows(extracts, cfg)
        rows = lambda cands: [
            {"extract_id": c.extract_id, "offset": c.offset, "entropy": round(c.entropy, 6), "value": c.value.hex()}
            for c in cands
        ]
        payload = {"mode": "windows", "keys": rows(keys), "ivs": rows(ivs)}
    _emit(args, render_json(payload))
    return EXIT_OK


def _cmd_parse_capture(args) -> int:
    capture = parse_capture(args.capture, args.capture_format, args.filter)
    payload = {
        "cipher_suite": f"0x{capture.handshake.cipher_suite:04X}",
        "suite_name": capture.handshake.suite_name,
        "key_len_bytes": capture.handshake.key_len_bytes,
        "nonce_style": explicit_nonce_style(capture).value,
        "first_explicit_nonce": capture.first_explicit_nonce.hex(),
        "records": [
            {
                "direction": record.direction.value,
                "seq": record.seq,
                "content_type": record.content_type,
                "ciphertext_len": len(record.ciphertext),
            }
            for record in capture.records
        ],
    }
    _emit(args, render_json(payload))
    return EXIT_OK


def _cmd_entropy_profile(args) -> int:
    extracts = load_extracts(args.extracts)
    rows = []
    for extract in extracts.extracts:
        for offset, count in entropy_profile(extract.data, args.window, args.threshold, args.region_windows):
            rows.append((extract.name, offset, count))
    _emit(args, entropy_profile_csv(rows))
    return EXIT_OK


def _cmd_gen_fixture(args) -> int:
    spec = spec_from_json(args.spec) if args.spec else FixtureSpec()
    if args.seed is not None:
        spec.rng_seed = args.seed
    paths, _ = generate_fixture(spec, args.out)
    sys.stdout.write(render_json({
        "root": str(paths.root),
        "extract_dir": str(paths.extract_dir),
        "client_records": str(paths.client_records),
        "server_records": str(paths.server_records),
        "manifest": str(paths.manifest),
        "groundtruth": str(paths.groundtruth),
    }))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="keysift",
        description="Recover TLS 1.2 AES-GCM key material from memory extracts and decrypt captured traffic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    decrypt = sub.add_parser("decrypt", help="full pipeline: scan extracts, trial-decrypt, report")
    decrypt.add_argument("--extracts", required=True, help="directory of raw memory extract files")
    decrypt.add_argument("--capture", required=True,
                         help="capture input: directory with client.tls/server.tls, or a pcap file")
    decrypt.add_argument("--capture-format", choices=("raw_records", "pcap"), default="raw_records")
    decrypt.add_argument("--mode", choices=MODES, default="auto")
    decrypt.add_argument("--seq-window", type=_non_negative_int, default=2,
                         help="sequence numbers to try around the reconstruction (default 2)")
    decrypt.add_argument("--filter", type=_parse_filter, default=None,
                         help="pcap session filter, IP:PORT,IP:PORT")
    decrypt.add_argument("--format", choices=("json", "text"), default="json")
    decrypt.add_argument("--output", default=None, help="write the report here instead of stdout")
    decrypt.add_argument("--no-timings", action="store_true",
                         help="zero the timing fields for byte-stable reports")
    _add_scan_flags(decrypt)
    decrypt.set_defaults(func=_cmd_decrypt)

    scan = sub.add_parser("scan", help="run a scanner and list candidates without decrypting")
    scan.add_argument("--extracts", required=True)
    scan.add_argument("--capture", default=None, help="needed for the standard scan")
    scan.add_argument("--capture-format", choices=("raw_records", "pcap"), default="raw_records")
    scan.add_argument("--mode", choices=MODES, default="windows")
    scan.add_argument("--filter", type=_parse_filter, default=None)
    scan.add_argument("--output", default=None)
    _add_scan_flags(scan)
    scan.set_defaults(func=_cmd_scan)

    pc = sub.add_parser("parse-capture", help="parse a capture and summarize the session")
    pc.add_argument("--capture", required=True)
    pc.add_argument("--capture-format", choices=("raw_records", "pcap"), default="raw_records")
    pc.add_argument("--filter", type=_parse_filter, default=None)
    pc.add_argument("--output", default=None)
    pc.set_defaults(func=_cmd_parse_capture)

    ep = sub.add_parser("entropy-profile", help="per-region high-entropy window counts as CSV")
    ep.add_argument("--extracts", required=True)
    ep.add_argument("--window", type=_positive_int, default=32)
    ep.add_argument("--threshold", type=float, default=4.5)
    ep.add_argument("--region-windows", type=_positive_int, default=256,
                    help="windows aggregated per CSV row (default 256)")
    ep.add_argument("--output", default=None)
    ep.set_defaults(func=_cmd_entropy_profile)

    gf = sub.add_parser("gen-fixture", help="fabricate a synthetic extract set and matching capture")
    gf.add_argument("--spec", default=None, help="fixture recipe as JSON; defaults when omitted")
    gf.add_argument("--seed", type=int, default=None, help="override the recipe seed")
    gf.add_argument("--out", required=True, help="output directory")
    gf.set_defaults(func=_cmd_gen_fixture)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (KeysiftError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
