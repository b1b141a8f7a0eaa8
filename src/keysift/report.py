"""Rendering: JSON reports, CSV entropy profiles, hex-plus-printable transcripts."""

from __future__ import annotations

import json
from enum import Enum


def printable(data: bytes) -> str:
    return "".join(chr(b) if 32 <= b < 127 else "." for b in data)


def hexdump(data: bytes, width: int = 16) -> str:
    lines = []
    for off in range(0, len(data), width):
        chunk = data[off : off + width]
        hexpart = " ".join(f"{b:02x}" for b in chunk)
        lines.append(f"{off:08x}  {hexpart:<{width * 3 - 1}}  |{printable(chunk)}|")
    return "\n".join(lines)


def _encode(value):
    """What ``json`` cannot encode itself: bytes as lowercase hex, an enum as its value."""
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, Enum):
        return value.value
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render_json(report: dict) -> str:
    """keysift's one JSON format: sorted keys, two-space indent, a trailing newline."""
    return json.dumps(report, indent=2, sort_keys=True, default=_encode) + "\n"


def entropy_profile_csv(rows: list[tuple[str, int, int]]) -> str:
    import csv  # only this export needs csv; the decrypt path does not load it
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("extract_name", "offset", "count"))
    writer.writerows(rows)
    return out.getvalue()


def render_text(report: dict) -> str:
    lines = []
    lines.append(f"mode:     {report['mode_used'] or report['mode_requested']} (requested {report['mode_requested']})")
    lines.append(f"nonce:    {report['nonce_style']}")
    counts = report["candidates"]
    shown = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()) if v is not None)
    lines.append(f"counts:   {shown or 'none'}")
    timings = report["timings"]
    lines.append(
        "timings:  memory_analysis={:.3f}s decrypt_analysis={:.3f}s".format(
            timings["memory_analysis_secs"], timings["decrypt_analysis_secs"]
        )
    )
    lines.append(f"outcome:  {report['outcome']}")
    if report.get("trials"):
        trials = report["trials"]
        lines.append(
            f"trials:   {trials['attempted']} attempts, winner index {trials.get('winner_index')}, "
            f"seq {trials.get('seq_used')}, validation {trials.get('validation')}"
        )
    material = report.get("material")
    if material:
        for name in ("client_key", "client_iv", "server_key", "server_iv"):
            value = material.get(name)
            if value:
                lines.append(f"{name:>10}: {value}")
        if material.get("hypothesis"):
            lines.append(f"hypothesis: {material['hypothesis']}")
    session = report.get("session")
    if session:
        lines.append(f"partial:  {session['partial']}")
        for entry in session["records"]:
            tag = "ok" if entry["ok"] else "FAILED"
            lines.append(f"\n[{entry['direction']}] seq={entry['seq']} {tag}")
            if entry.get("plaintext_hex"):
                lines.append(hexdump(bytes.fromhex(entry["plaintext_hex"])))
    return "\n".join(lines) + "\n"
