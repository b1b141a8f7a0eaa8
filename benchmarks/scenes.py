"""Workload recipes: each builds one scene with ``keysift.fixtures.generate_fixture``.

A scene is a directory holding ``extracts/``, the capture streams
``client.tls``/``server.tls`` and ``groundtruth.json``. ``Scene`` tells the
harness where the program's inputs are and what a correct run reports.
See NOTES.md for why each workload was chosen.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from keysift.capture import NonceStyle
from keysift.fixtures import Filler, FixtureLayout, FixtureSpec, generate_fixture
from keysift.memscan import MB

KB = 1 << 10

# Seed offset for the capture that `exhaust` pairs with its extracts; any
# other seed draws unrelated key material.
_FOREIGN_SEED_OFFSET = 1_000_003


@dataclass(frozen=True)
class Scene:
    extract_dir: Path
    capture_dir: Path
    truth: dict  # groundtruth.json of the session in the capture
    expect_decrypt: bool

    @property
    def extract_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.extract_dir.iterdir() if p.is_file())


def bulk_dumps_spec(seed: int) -> FixtureSpec:
    # Counter filler holds no key-like window, so the windows scan finds the
    # decoy markers but no key and auto mode falls back to the standard scan
    # over every byte; the key block decrypts on the first trial.
    return FixtureSpec(
        key_len_bytes=16,
        layout=FixtureLayout.GENERIC_KEY_BLOCK,
        filler=Filler.COUNTERS,
        explicit_nonce_style=NonceStyle.COUNTER_LIKE,
        decoy_markers=40,
        keyblock_copies=4,
        keyblock_copy_gap=1500,
        extract_sizes=(3 * MB,) + (272 * KB,) * 128 + (64 * MB,) * 3,
        rng_seed=seed,
    )


def decoy_storm_spec(seed: int, decoy_markers: int = 36) -> FixtureSpec:
    # Random filler lets every window near a marker clear the entropy gate,
    # so each decoy adds about 33 keys and 17 IVs and pairing is quadratic.
    return FixtureSpec(
        key_len_bytes=32,
        layout=FixtureLayout.WINDOWS_MARKERS,
        filler=Filler.RANDOM,
        explicit_nonce_style=NonceStyle.COUNTER_LIKE,
        decoy_markers=decoy_markers,
        extract_sizes=(3 * MB, 8 * MB, 512 * KB),
        rng_seed=seed,
    )


def exhaust_specs(seed: int) -> tuple[FixtureSpec, FixtureSpec]:
    """Extracts of a decoy-storm-like scene, and the capture of an unrelated session."""
    memory = decoy_storm_spec(seed, decoy_markers=10)
    foreign = FixtureSpec(
        key_len_bytes=32,
        filler=Filler.RANDOM,
        explicit_nonce_style=NonceStyle.COUNTER_LIKE,
        extract_sizes=(MB,),
        rng_seed=seed + _FOREIGN_SEED_OFFSET,
    )
    return memory, foreign


WORKLOADS = ("bulk-dumps", "decoy-storm", "exhaust")


def _truth(root: Path) -> dict:
    return json.loads((root / "groundtruth.json").read_text())


def build_scene(workload: str, seed: int, out_dir: Path) -> Scene:
    """Generate the scene of ``workload`` at ``seed`` into ``out_dir``."""
    if workload == "exhaust":
        memory_spec, foreign_spec = exhaust_specs(seed)
        memory_root, capture_root = out_dir / "memory", out_dir / "foreign"
        generate_fixture(memory_spec, memory_root)
        generate_fixture(foreign_spec, capture_root)
        truth = _truth(capture_root)
        if truth["client_key"] == _truth(memory_root)["client_key"]:
            raise RuntimeError("exhaust scene: the foreign session reuses the planted key")
        return Scene(memory_root / "extracts", capture_root, truth, expect_decrypt=False)
    specs = {"bulk-dumps": bulk_dumps_spec, "decoy-storm": decoy_storm_spec}
    if workload not in specs:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    generate_fixture(specs[workload](seed), out_dir)
    return Scene(out_dir / "extracts", out_dir, _truth(out_dir), expect_decrypt=True)
