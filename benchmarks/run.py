"""keysift benchmark: whole `keysift decrypt` invocations on fixed-seed scenes.

Run from the repository root:
    python3 benchmarks/run.py --workload decoy-storm --seed 1 --seconds 36 --trace 0

The scene is generated from --seed before any timing, into .bench_build/ at
the repository root, and removed afterwards. With --trace 0 the harness times
one fresh `python -m keysift.cli decrypt` process after another (closed loop,
one client, default --workers 1) and reports the end-to-end metrics. With
--trace 1 it runs the program under benchmarks/traced.py instead, alternating
fully traced invocations with ones that time only `run_pipeline`, and reports
the per-layer metrics named in BENCHMARK.json. Every invocation is checked
against the scene's ground truth. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. NOTES.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "keysift"
TRACED = Path(__file__).resolve().parent / "traced.py"
SPEC = ROOT / "BENCHMARK.json"

MB = 1 << 20
MIN_INVOCATIONS = 3
CHILD_TIMEOUT_S = 150.0
# Counters that must repeat exactly between invocations at one seed.
DETERMINISTIC = (
    "memscan.keys",
    "memscan.ivs",
    "memscan.key_blocks",
    "memscan.pairs",
    "memscan.nonce_hits",
    "entropy.calls",
    "decrypt.trials",
    "decrypt.aead_opens",
)


@dataclass
class Invocation:
    seconds: float
    rss_mb: float
    problem: str | None  # None when the output matches the ground truth
    trace: dict | None = None  # what traced.py recorded, for traced invocations


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], stdout_path: Path, stderr_path: Path) -> tuple[float, float, int]:
    """Run one child to completion: (wall seconds from spawn to exit, peak RSS MB, exit code).

    The RSS comes from the child's own rusage, reaped with os.wait4.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)  # already reaped: Popen must not wait again
    return elapsed, usage.ru_maxrss / 1024, proc.returncode


def check_report(scene, exit_code: int, stdout: bytes) -> str | None:
    """Compare one decrypt report with the scene's ground truth; None when it matches."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return f"exit {exit_code}, report is not JSON"
    truth = scene.truth
    if not scene.expect_decrypt:
        if exit_code != 2 or report.get("outcome") != "no_valid_decrypt" or report.get("material") is not None:
            return f"expected exit 2 and no material, got exit {exit_code} outcome {report.get('outcome')}"
        return None
    if exit_code != 0 or report.get("outcome") != "decrypted":
        return f"expected exit 0 and a full decrypt, got exit {exit_code} outcome {report.get('outcome')}"
    material = report.get("material") or {}
    for name in ("client_key", "client_iv", "server_key", "server_iv"):
        if material.get(name) != truth[name]:
            return f"{name} {material.get(name)} != {truth[name]}"
    planted = {"client_to_server": truth["plaintext_client"], "server_to_client": truth["plaintext_server"]}
    records = (report.get("session") or {}).get("records") or []
    if {r.get("direction") for r in records} != set(planted):
        return "transcript lacks a direction"
    for record in records:
        if not record.get("ok") or record.get("plaintext_hex") != planted[record["direction"]]:
            return f"record {record['direction']} seq {record.get('seq')} does not match the planted plaintext"
    return None


def invoke(scene, run_dir: Path, scope: str | None) -> Invocation:
    """One decrypt process: plain, or under traced.py with ``scope`` "full" or "pipeline"."""
    trace_path = run_dir / "trace.json"
    prefix = [sys.executable, str(TRACED), scope, str(trace_path)] if scope else [
        sys.executable, "-m", "keysift.cli"]
    out, err = run_dir / "report.json", run_dir / "stderr.txt"
    argv = prefix + ["decrypt", "--extracts", str(scene.extract_dir), "--capture", str(scene.capture_dir)]
    seconds, rss_mb, code = spawn(argv, out, err)
    problem = check_report(scene, code, out.read_bytes())
    if problem is not None:
        problem += f"; stderr: {err.read_text(errors='replace')[-400:]}"
        return Invocation(seconds, rss_mb, problem)
    trace = json.loads(trace_path.read_text()) if scope else None
    return Invocation(seconds, rss_mb, None, trace)


def time_setup(run_dir: Path) -> float:
    """Wall time of a fresh interpreter that imports keysift.cli and exits."""
    seconds, _, code = spawn([sys.executable, "-c", "import keysift.cli"], run_dir / "setup.out", run_dir / "setup.err")
    if code != 0:
        raise RuntimeError("importing keysift.cli failed: " + (run_dir / "setup.err").read_text()[-400:])
    return seconds


def span_seconds(spans: list, name: str) -> float:
    return sum(end - start for span_name, start, end, _ in spans if span_name == name)


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def pipeline_span(spans: list) -> tuple[int, float]:
    """Index and length of the one run_pipeline span."""
    (index, span), = [(i, s) for i, s in enumerate(spans) if s[0] == "run_pipeline"]
    return index, span[2] - span[1]


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer figures of one fully traced invocation."""
    spans, c = trace["spans"], trace["counts"]
    pipe_index, pipeline_s = pipeline_span(spans)
    children = [(s[1], s[2]) for s in spans if s[3] == pipe_index]
    load_s = span_seconds(spans, "load_extracts")
    trial_s = span_seconds(spans, "trial_decrypt") + span_seconds(spans, "trial_decrypt_blocks")
    return {
        "cli.pipeline_s": pipeline_s,
        "cli.self_s": pipeline_s - covered(children),
        "cli.attempts": sum(1 for s in spans if s[0] in ("scan_windows", "scan_standard")),
        "capture.parse_s": span_seconds(spans, "parse_capture"),
        "memscan.load_s": load_s,
        "memscan.bytes": c["bytes"],
        "memscan.load_mb_per_s": c["bytes"] / MB / load_s,
        "memscan.scan_windows_s": span_seconds(spans, "scan_windows"),
        "memscan.scan_standard_s": span_seconds(spans, "scan_standard"),
        "memscan.nonce_hits": c["nonce_hits"],
        "memscan.keys": c["keys"],
        "memscan.ivs": c["ivs"],
        "memscan.key_blocks": c["key_blocks"],
        "memscan.pairs": c["pairs"],
        "memscan.pair_s": span_seconds(spans, "pair_candidates"),
        "memscan.pair_rss_mb": c["pair_rss_kb"] / 1024,
        "entropy.calls": c["entropy_calls"],
        "entropy.s": c["entropy_s"],
        "entropy.pass_frac": c["entropy_passed"] / c["entropy_calls"] if c["entropy_calls"] else 0.0,
        "decrypt.trials": c["trials"],
        "decrypt.trial_s": trial_s,
        "decrypt.trials_per_s": c["trials"] / trial_s if trial_s else 0.0,
        "decrypt.hit_frac": c["verified"] / c["trials"] if c["trials"] else 0.0,
        "decrypt.session_s": span_seconds(spans, "decrypt_session"),
        "decrypt.aead_opens": c["aead_opens"],
        "report.render_s": span_seconds(spans, "render_json"),
    }


def tail_note(values: list[float]) -> str:
    """The highest of p90/p99 with at least ten samples beyond it, if any."""
    note = ""
    for p in (90, 99):
        if len(values) * (100 - p) / 100 >= 10:
            note = f" p{p}={statistics.quantiles(values, n=100)[p - 1]:.4f}"
    return note


def check_counts(per_invocation: list[dict]) -> str | None:
    """Deterministic counters must agree across the traced invocations of one seed.

    Each invocation is a fresh process, so this compares separate runs of the
    program on the same scene.
    """
    if len(per_invocation) < 2:
        return "fewer than two traced invocations succeeded"
    drift = sorted(k for k in DETERMINISTIC if len({m[k] for m in per_invocation}) > 1)
    return f"counters drifted between invocations: {drift}" if drift else None


def run(args, scenes) -> dict:
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        started = time.perf_counter()
        scene = scenes.build_scene(args.workload, args.seed, run_dir / "scene")
        generate_s = time.perf_counter() - started
        extract_bytes = scene.extract_bytes

        time_setup(run_dir)  # untimed: writes the bytecode caches a user's first run leaves

        # Untraced runs time plain invocations; traced runs alternate the two scopes.
        scopes = ("full", "pipeline") if args.trace else (None,)
        runs: dict[str | None, list[Invocation]] = {scope: [] for scope in scopes}
        setup: list[float] = []
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline or min(map(len, runs.values())) < MIN_INVOCATIONS:
            scope = min(scopes, key=lambda sc: len(runs[sc]))
            runs[scope].append(invoke(scene, run_dir, scope))
            if not args.trace:
                # Set-up samples interleave with the invocations so both span the same window.
                setup.append(time_setup(run_dir))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempts = [inv for invs in runs.values() for inv in invs]
    problems = [inv.problem for inv in attempts if inv.problem]
    for problem in problems[:5]:
        print(f"FAILED: {problem}", file=sys.stderr)
    correct = not problems
    summary = (f"{args.workload} seed={args.seed}: scene {extract_bytes / MB:.1f} MB generated in {generate_s:.2f}s; "
               f"failed_frac {len(problems)}/{len(attempts)}; page cache warm")
    if args.trace:
        layers = [layer_metrics(inv.trace) for inv in runs["full"] if inv.problem is None]
        baseline = [pipeline_span(inv.trace["spans"])[1] for inv in runs["pipeline"] if inv.problem is None]
        drift = check_counts(layers)
        if drift:
            print(f"FAILED: {drift}", file=sys.stderr)
            correct = False
        if not layers or not baseline:
            return {"correct": False, "attempted": len(attempts), "failed": len(problems), "metrics": {}}
        values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        values["trace.overhead_frac"] = values["cli.pipeline_s"] / statistics.median(baseline) - 1
        summary += f"; n={len(layers)} traced, n={len(baseline)} pipeline-only"
    else:
        good = [inv for inv in runs[None] if inv.problem is None] or runs[None]
        times = [inv.seconds for inv in good]
        decrypt_s = statistics.median(times)
        q1, _, q3 = statistics.quantiles(times, n=4)
        values = {
            "decrypt_s": decrypt_s,
            "dump_mb_per_s": extract_bytes / MB / decrypt_s,
            "peak_rss_mb": statistics.median(inv.rss_mb for inv in good),
            "setup_s": statistics.median(setup),
        }
        summary += (f"; decrypt_s median {decrypt_s:.4f} (q1 {q1:.4f}, q3 {q3:.4f}) over n={len(good)}"
                    f"{tail_note(times)}; setup_s over n={len(setup)}")
    print(summary)
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    return {"correct": correct, "attempted": len(attempts), "failed": len(problems), "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "keysift" / "cli.py").is_file():
        print(f"error: no keysift sources under {SRC}; run from a keysift checkout", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import scenes

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=scenes.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args, scenes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
