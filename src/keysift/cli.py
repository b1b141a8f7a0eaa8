"""Pipeline orchestration and the command-line interface.

Exit codes are stable: 0 for a validated decrypt, 2 when analysis completed
but nothing decrypted, 1 for operational and usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Iterable

from .capture import NonceStyle, SessionCapture, explicit_nonce_style, parse_capture
from .decrypt import (
    DecryptedSession,
    TagScreen,
    TrialResult,
    decrypt_session,
    trial_decrypt,
    trial_decrypt_blocks,
)
from .entropy import entropy_profile, shannon_entropy
from .errors import KeysiftError, NoValidDecrypt
from .memscan import (
    BANDS,
    Candidate,
    CandidateKeyBlock,
    ExtractSet,
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


class RunReport:
    """What a pipeline run found; ``to_dict`` is the report's JSON shape."""

    def __init__(self, mode_requested: str, mode_used: str | None, nonce_style: str,
                 candidates: dict, timings: dict):
        self.mode_requested = mode_requested
        self.mode_used = mode_used
        self.nonce_style = nonce_style
        self.candidates = candidates
        self.timings = timings
        self.outcome = "no_valid_decrypt"
        self.trials: dict | None = None
        self.material: dict | None = None
        self.session: dict | None = None

    def to_dict(self) -> dict:
        return dict(vars(self))


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


def _material_dict(result: TrialResult, session: DecryptedSession) -> dict:
    return {
        "client_key": session.client_key.hex(),
        "client_iv": session.client_iv.hex(),
        "server_key": session.server_key.hex() if session.server_key else None,
        "server_iv": session.server_iv.hex() if session.server_iv else None,
        "hypothesis": result.block.hypothesis.value if result.block else None,
        "orientation_swapped": result.orientation_swapped,
    }


class _BandSearch:
    """The candidates a band-by-band search has found so far, and its stages,
    one method per scanner, named as ``--mode`` names it. A stage scans one
    more band and returns its trial sets, (trial function, materials) pairs
    of only what no earlier stage gave, built as the caller draws them. The
    scanners are functions of their bands; this class alone drops the values
    already in ``keys`` or ``ivs`` and the key blocks in ``blocks``, so every
    key x IV pair and every key block is tried once. Trial functions are read from this module's globals when a
    stage runs, so a wrapper set on the module sees every call."""

    def __init__(self, extracts: ExtractSet, capture: SessionCapture, cfg: ScanConfig, report: RunReport, clock):
        self.extracts, self.capture, self.cfg, self.report, self.clock = extracts, capture, cfg, report, clock
        self.keys: list[Candidate] = []
        self.ivs: list[Candidate] = []
        self.blocks: set[CandidateKeyBlock] = set()  # every key block a standard stage returned

    def windows(self, band: int) -> Iterable[tuple]:
        """Scan ``band``'s marker windows and count what is new; ``trial_decrypt``
        with each new pair order, new keys x every IV so far, then earlier keys
        x new IVs, each built only when the caller draws it. A caller that
        draws none, as the probe does, builds none."""
        start = self.clock()
        scanned = scan_windows(self.extracts, self.cfg, (band,))
        seen = {c.value for c in self.keys + self.ivs}
        new_keys, new_ivs = ([c for c in cands if c.value not in seen] for cands in scanned)
        old_keys, self.keys, self.ivs = self.keys, self.keys + new_keys, self.ivs + new_ivs
        self.report.candidates.update(keys=len(self.keys), ivs=len(self.ivs))
        self.report.timings["memory_analysis_secs"] += self.clock() - start
        new_pairs = ((new_keys, self.ivs), (old_keys, new_ivs))
        return ((trial_decrypt, pair_candidates(keys, ivs)) for keys, ivs in new_pairs if keys and ivs)

    def standard(self, band: int) -> Iterable[tuple]:
        """Scan the bands up to ``band``; ``trial_decrypt_blocks`` with the key blocks no earlier stage returned."""
        start = self.clock()
        scanned = scan_standard(self.extracts, self.capture, self.cfg, BANDS[: BANDS.index(band) + 1])
        blocks = [block for block in scanned if block not in self.blocks]
        self.blocks.update(blocks)
        self.report.candidates["key_blocks"] = len(self.blocks)
        self.report.timings["memory_analysis_secs"] += self.clock() - start
        return [(trial_decrypt_blocks, blocks)] if blocks else []

    def found(self, later_bands):
        """The keys and IVs found so far, then again after each of
        ``later_bands``, a band scanned only once the probe draws it."""
        yield self.keys, self.ivs
        for band in later_bands:
            self.report.candidates["bands_scanned"].append(band)
            self.windows(band)
            yield self.keys, self.ivs


def run_pipeline(
    extract_dir,
    capture: SessionCapture,
    mode: str = "auto",
    clock=time.perf_counter,
) -> RunReport:
    """Load extracts, search band by band, decrypt the session at the first win.

    ``capture`` is the parsed session, as ``parse_capture`` returns it; its
    cipher suite sets the key size of every scan and trial. In auto mode
    counter-like explicit nonces (``explicit_nonce_style``) select the marker
    scanner first, with the standard scanner as fall-back; random-like nonces
    go straight to the standard scanner.

    The search is one stage loop (``_run_stages``): band 1, then 2, then 3,
    and in each band the mode's scanners in that order. A scanner's stage, the
    marker scan over its band's extracts or the standard scan over the bands
    so far, returns trial sets of new material only: new keys x every IV so
    far, then earlier keys x new IVs, or key blocks no earlier stage gave. A
    pair order is built when its trial starts, and the run returns at the
    first trial that verifies. An extract is read when its band's stage
    begins, so bands after a win are never read. The server probe follows the
    winner: a key-block win looks up the block's opposite slots; a pair win
    looks up the keys and IVs found so far, then scans each later band, with
    no pair order built, and looks again, until a server pair verifies or it
    settles for a partial session.

    The report's candidate counts cover the bands scanned (listed in
    ``bands_scanned``), ``winner_index`` is the winner's position among the
    winning scanner's materials over the stages that ran, and ``attempted``
    sums the trials of every stage, one per material and sequence number
    within ``decrypt.SEQ_WINDOW`` of the reconstructed one.
    ``memory_analysis_secs`` sums the band scans, the probe's included;
    ``decrypt_analysis_secs`` is the rest of the search's wall time, set when
    the run ends, so a pair order's build counts with the trial that walks
    it. ``clock`` is injectable so reports can be made byte-stable.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")

    cfg = ScanConfig(key_len_bytes=capture.key_len_bytes)
    extracts = load_extracts(extract_dir)
    style = explicit_nonce_style(capture)

    if mode == "auto":
        scanners = ["windows", "standard"] if style is NonceStyle.COUNTER_LIKE else ["standard"]
    else:
        scanners = [mode]

    report = RunReport(
        mode_requested=mode,
        mode_used=None,
        nonce_style=style.value,
        timings={"memory_analysis_secs": 0.0, "decrypt_analysis_secs": 0.0},
        candidates={"keys": None, "ivs": None, "key_blocks": None, "bands_scanned": []},
    )
    search = _BandSearch(extracts, capture, cfg, report, clock)
    started = clock()
    _run_stages(search, scanners)
    report.timings["decrypt_analysis_secs"] = clock() - started - report.timings["memory_analysis_secs"]
    return report


def _run_stages(search: _BandSearch, scanners: list[str]) -> None:
    """The stage loop: each band's stages, one per scanner, trialled until a tag
    verifies, and the winner's session decrypted into the report. A scanner's
    name only picks its stage, sets ``mode_used`` and keys ``tried``. One screen
    of the first client record serves every stage, so no key is sealed twice
    against it. The probe is offered the keys and IVs so far and after later
    bands; a block win draws none."""
    report, capture = search.report, search.capture
    screen = TagScreen(capture.first_client_record)
    tried = dict.fromkeys(scanners, 0)  # materials each scanner tried before this trial
    attempted = 0
    for stage, band in enumerate(BANDS):
        report.candidates["bands_scanned"].append(band)
        for scanner in scanners:
            for trial, materials in getattr(search, scanner)(band):
                try:
                    result = trial(capture, materials, screen=screen)
                except NoValidDecrypt as exc:
                    attempted += exc.trials
                    tried[scanner] += len(materials)
                    continue
                session = decrypt_session(capture, result, found=search.found(BANDS[stage + 1 :]))
                report.mode_used = scanner
                report.outcome = "decrypted_partial" if session.partial else "decrypted"
                report.trials = {
                    "attempted": attempted + result.trials,
                    "winner_index": tried[scanner] + result.index,
                    "seq_used": result.seq_used,
                    "validation": result.validation.value,
                }
                report.material = _material_dict(result, session)
                report.session = _session_dict(session)
                return

    report.trials = {"attempted": attempted, "winner_index": None, "seq_used": None, "validation": None}


def _parse_filter(text: str) -> tuple:
    from ipaddress import IPv4Address  # only a --filter value needs it
    try:
        (ip_a, port_a), (ip_b, port_b) = (end.rsplit(":", 1) for end in text.split(","))
        port_a, port_b = int(port_a), int(port_b)
    except ValueError:
        raise argparse.ArgumentTypeError("filter must look like IP:PORT,IP:PORT")
    for ip, port in ((ip_a, port_a), (ip_b, port_b)):
        if not 0 <= port <= 65535:
            raise argparse.ArgumentTypeError(f"filter port must be 0-65535, got {port}")
        try:
            IPv4Address(ip)
        except ValueError:
            raise argparse.ArgumentTypeError(f"filter address must be dotted IPv4, got {ip}")
    return (ip_a, port_a, ip_b, port_b)


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_decrypt(args) -> int:
    capture = parse_capture(args.capture, args.filter)
    clock = (lambda: 0.0) if args.no_timings else time.perf_counter
    report = run_pipeline(args.extracts, capture, mode=args.mode, clock=clock)
    payload = report.to_dict()
    _emit(args, render_json(payload) if args.format == "json" else render_text(payload))
    return EXIT_OK if report.outcome.startswith("decrypted") else EXIT_NO_DECRYPT


def _cmd_scan(args) -> int:
    if not args.capture and args.mode == "standard":
        raise UsageError("standard scan needs --capture for the explicit nonce")
    if not args.capture and args.filter is not None:
        raise UsageError("--filter selects a session of --capture; it needs --capture")
    extracts = load_extracts(args.extracts)
    if args.mode == "standard":
        capture = parse_capture(args.capture, args.filter)
        blocks = scan_standard(extracts, capture, ScanConfig(key_len_bytes=capture.key_len_bytes))
        payload = {"mode": "standard", "key_blocks": [b._asdict() for b in blocks]}
    else:
        # the marker scan reads no record, but a capture still sets the key size; with none, both sizes
        key_lens = [parse_capture(args.capture, args.filter).key_len_bytes] if args.capture else [16, 32]
        scans = [scan_windows(extracts, ScanConfig(key_len_bytes=key_len)) for key_len in key_lens]
        keys = sorted((key for found, _ in scans for key in found),
                      key=lambda c: (c.extract_id, c.offset, len(c.value)))
        ivs = scans[0][1]  # the IV windows do not depend on the key size
        rows = lambda cands: [{**c._asdict(), "entropy": round(shannon_entropy(c.value), 6)} for c in cands]
        payload = {"mode": "windows", "keys": rows(keys), "ivs": rows(ivs)}
    _emit(args, render_json(payload))
    return EXIT_OK


def _cmd_parse_capture(args) -> int:
    capture = parse_capture(args.capture, args.filter)
    payload = {
        "cipher_suite": f"0x{capture.cipher_suite:04X}",
        "suite_name": capture.suite_name,
        "key_len_bytes": capture.key_len_bytes,
        "nonce_style": explicit_nonce_style(capture),
        "first_explicit_nonce": capture.first_explicit_nonce,
        "records": [
            {
                "direction": record.direction,
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
    # the windows the scanners' 32-byte key gate would pass, 256 to a row
    cfg = ScanConfig(key_len_bytes=32)
    extracts = load_extracts(args.extracts)
    rows = []
    for extract in extracts.extracts:
        for offset, count in entropy_profile(extract.data, cfg.key_len_bytes, cfg.key_entropy_threshold):
            rows.append((extract.name, offset, count))
        del extract.data  # profiled: free its bytes before the next extract is read
    _emit(args, entropy_profile_csv(rows))
    return EXIT_OK


def _cmd_gen_fixture(args) -> int:
    # imported here so the other commands never load the fixture generator
    from .fixtures import FixtureSpec, generate_fixture, spec_from_json

    spec = spec_from_json(args.spec) if args.spec else FixtureSpec()
    if args.seed is not None:
        spec.rng_seed = args.seed
    paths, _ = generate_fixture(spec, args.out)
    sys.stdout.write(render_json({name: str(path) for name, path in vars(paths).items()}))
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
    decrypt.add_argument("--mode", choices=MODES, default="auto")
    decrypt.add_argument("--filter", type=_parse_filter, default=None,
                         help="pcap session filter, IP:PORT,IP:PORT")
    decrypt.add_argument("--format", choices=("json", "text"), default="json")
    decrypt.add_argument("--output", default=None, help="write the report here instead of stdout")
    decrypt.add_argument("--no-timings", action="store_true",
                         help="zero the timing fields for byte-stable reports")
    decrypt.set_defaults(func=_cmd_decrypt)

    scan = sub.add_parser("scan", help="run a scanner and list candidates without decrypting")
    scan.add_argument("--extracts", required=True)
    scan.add_argument("--capture", default=None,
                      help="needed for the standard scan; sets the key size of the windows scan, "
                           "which lists both sizes without it")
    scan.add_argument("--mode", choices=("windows", "standard"), default="windows")
    scan.add_argument("--filter", type=_parse_filter, default=None)
    scan.add_argument("--output", default=None)
    scan.set_defaults(func=_cmd_scan)

    pc = sub.add_parser("parse-capture", help="parse a capture and summarize the session")
    pc.add_argument("--capture", required=True)
    pc.add_argument("--filter", type=_parse_filter, default=None)
    pc.add_argument("--output", default=None)
    pc.set_defaults(func=_cmd_parse_capture)

    ep = sub.add_parser("entropy-profile", help="per 8 KB region, the 32-byte windows above the key gate, as CSV")
    ep.add_argument("--extracts", required=True)
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
        code = args.func(args)
        sys.stdout.flush()  # so a closed stdout pipe raises here, not in the interpreter's exit flush
        return code
    except (KeysiftError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            # the reader is gone: send what is still buffered to devnull so the exit flush cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
