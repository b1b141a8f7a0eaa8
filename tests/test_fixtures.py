import hashlib
import json

import pytest

from keysift.capture import NonceStyle, parse_capture
from keysift.cli import run_pipeline
from keysift.entropy import shannon_entropy
from keysift.errors import SpecInvalid
from keysift.fixtures import (
    _TEXT_PATTERN,
    Filler,
    FixtureLayout,
    FixtureSpec,
    generate_fixture,
    reference_encrypt,
    spec_from_json,
)
from keysift.memscan import IV_MARKER, KEY_MARKER, MB, BlockHypothesis, load_extracts

from conftest import naive_find_all


def _tree_digest(root):
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def test_planted_bytes_recoverable(windows_fixture_32):
    _, paths, truth = windows_fixture_32
    for artefact in truth.planted:
        data = (paths.extract_dir / artefact.extract_name).read_bytes()
        assert data[artefact.offset : artefact.offset + len(artefact.value)] == artefact.value


def test_sizes_honored_exactly(tmp_path):
    sizes = (300_000, int(1.5 * MB), 9 * MB)
    spec = FixtureSpec(rng_seed=4, extract_sizes=sizes)
    paths, _ = generate_fixture(spec, tmp_path)
    emitted = sorted(paths.extract_dir.iterdir())
    assert [p.stat().st_size for p in emitted] == list(sizes)


def test_deterministic_output(tmp_path):
    spec_a = FixtureSpec(rng_seed=123, extract_sizes=(1 * MB,), decoy_markers=3)
    spec_b = FixtureSpec(rng_seed=123, extract_sizes=(1 * MB,), decoy_markers=3)
    generate_fixture(spec_a, tmp_path / "a")
    generate_fixture(spec_b, tmp_path / "b")
    assert _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b")


def test_seed_variation_changes_bytes_keeps_structure(tmp_path):
    base = dict(extract_sizes=(1 * MB,), decoy_markers=2)
    paths_a, truth_a = generate_fixture(FixtureSpec(rng_seed=1, **base), tmp_path / "a")
    paths_b, truth_b = generate_fixture(FixtureSpec(rng_seed=2, **base), tmp_path / "b")
    assert truth_a.client_key != truth_b.client_key
    assert _tree_digest(paths_a.root) != _tree_digest(paths_b.root)
    assert sorted(p.name for p in paths_a.root.rglob("*")) == sorted(
        p.name for p in paths_b.root.rglob("*")
    )
    assert [a.kind for a in truth_a.planted] == [a.kind for a in truth_b.planted]


def test_counter_nonce_starts_at_one(windows_fixture_32):
    _, paths, truth = windows_fixture_32
    assert truth.first_client_nonce == bytes(7) + b"\x01"
    capture = parse_capture(paths.root)
    assert capture.first_explicit_nonce == bytes(7) + b"\x01"


def test_ground_truth_json_matches(tmp_path):
    spec = FixtureSpec(rng_seed=6, extract_sizes=(1 * MB,))
    paths, truth = generate_fixture(spec, tmp_path)
    on_disk = json.loads(paths.groundtruth.read_text())
    assert on_disk["client_key"] == truth.client_key.hex()
    assert on_disk["first_client_nonce"] == truth.first_client_nonce.hex()
    assert len(on_disk["planted"]) == len(truth.planted)


def test_ground_truth_finds_only_planted_kinds(windows_fixture_32):
    # a marker-layout fixture plants no key block, and asking for one is an error, not None
    _, _, truth = windows_fixture_32
    with pytest.raises(KeyError):
        truth.find("key_block")


@pytest.mark.parametrize("implicit_iv, explicit_nonce", [(bytes(3), bytes(8)), (bytes(4), bytes(7)), (bytes(12), b"")],
                         ids=["short-iv", "short-nonce", "whole-nonce-as-iv"])
def test_reference_encrypt_refuses_nonce_parts_of_other_lengths(implicit_iv, explicit_nonce):
    with pytest.raises(ValueError, match="4 bytes"):
        reference_encrypt(b"GET /", bytes(16), implicit_iv, explicit_nonce, seq=1)


def test_empty_plaintexts_are_planted_as_given(tmp_path):
    # an empty plaintext is a recipe's choice, not a missing one: no seeded HTTP message replaces it
    spec = spec_from_json({"plaintext_client": "", "plaintext_server": "", "rng_seed": 1})
    paths, truth = generate_fixture(spec, tmp_path)
    assert truth.plaintext_client == truth.plaintext_server == b""
    on_disk = json.loads(paths.groundtruth.read_text())
    assert on_disk["plaintext_client"] == on_disk["plaintext_server"] == ""
    report = run_pipeline(paths.extract_dir, parse_capture(paths.root))
    assert report.outcome == "decrypted"
    records = report.session["records"]
    assert all(entry["ok"] for entry in records)
    assert [entry["plaintext_hex"] for entry in records if entry["seq"] == 1] == ["", ""]


def test_manifest_covers_every_extract(tmp_path):
    spec = FixtureSpec(rng_seed=6, extract_sizes=(512 * 1024, 1 * MB))
    paths, _ = generate_fixture(spec, tmp_path)
    manifest = json.loads(paths.manifest.read_text())
    names = {p.name for p in paths.extract_dir.iterdir()}
    assert set(manifest) == names


def test_marker_strings_only_where_planted(tmp_path):
    spec = FixtureSpec(rng_seed=14, extract_sizes=(1 * MB,), decoy_markers=4)
    paths, _ = generate_fixture(spec, tmp_path)
    extract_set = load_extracts(paths.extract_dir)
    total_iv_markers = sum(len(naive_find_all(e.data, IV_MARKER)) for e in extract_set.extracts)
    total_key_markers = sum(len(naive_find_all(e.data, KEY_MARKER)) for e in extract_set.extracts)
    assert total_iv_markers == 2 + 4  # two real groups plus the decoys
    assert total_key_markers == 2 + 4


def test_filler_entropy_profile_of_text_pattern():
    tiled = _TEXT_PATTERN * 16
    assert shannon_entropy(tiled[:4]) == pytest.approx(2.0)
    assert shannon_entropy(tiled[:16]) == pytest.approx(2.0)
    assert shannon_entropy(tiled[:32]) == pytest.approx(2.0)
    assert IV_MARKER not in tiled and KEY_MARKER not in tiled


def test_material_clears_the_gates(tmp_path):
    spec = FixtureSpec(rng_seed=16, key_len_bytes=32, extract_sizes=(1 * MB,))
    _, truth = generate_fixture(spec, tmp_path)
    assert shannon_entropy(truth.client_key) > 4.5
    assert shannon_entropy(truth.server_key) > 4.5
    assert shannon_entropy(truth.client_iv) > 1.5
    assert shannon_entropy(truth.server_iv) > 1.5


def test_layout_both_plants_everything(tmp_path):
    spec = FixtureSpec(rng_seed=19, layout=FixtureLayout.BOTH, extract_sizes=(2 * MB,))
    _, truth = generate_fixture(spec, tmp_path)
    kinds = {a.kind for a in truth.planted}
    assert {"client_iv", "client_key", "server_iv", "server_key", "key_block", "nonce_buffer"} <= kinds


@pytest.mark.parametrize(
    "kwargs",
    [
        {"key_len_bytes": 8},
        {"extract_sizes": ()},
        {"extract_sizes": (256 * 1024,)},  # no band-1 file
        {"extract_sizes": (0, 2 * MB)},
        {"iv_offset_after_3lls": 20},  # where a marker group's IV and key sit is fixed
        {"key_offset_after_kssm": 28},
        {"decoy_markers": -1},
        {"keyblock_copies": 0},
    ],
)
def test_spec_invalid(tmp_path, kwargs):
    with pytest.raises(SpecInvalid):
        generate_fixture(spec_from_json(kwargs), tmp_path)


def test_spec_from_json_roundtrip(tmp_path):
    recipe = {
        "key_len_bytes": 16,
        "layout": "generic_key_block",
        "filler": "zero",
        "explicit_nonce_style": "random",
        "rng_seed": 9,
        "extract_sizes": [1048576],
        "plaintext_client": "GET / HTTP/1.1\r\n\r\n",
        "generic_hypothesis": "iv_was_server",
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(recipe))
    spec = spec_from_json(path)
    assert spec.key_len_bytes == 16
    assert spec.layout is FixtureLayout.GENERIC_KEY_BLOCK
    assert spec.filler is Filler.ZERO
    assert spec.explicit_nonce_style is NonceStyle.RANDOM_LIKE
    assert spec.generic_hypothesis is BlockHypothesis.IV_WAS_SERVER
    assert spec.plaintext_client == b"GET / HTTP/1.1\r\n\r\n"
    assert spec.extract_sizes == (1048576,)


def test_spec_from_json_unknown_field():
    with pytest.raises(SpecInvalid):
        spec_from_json({"key_len": 16})


def test_spec_from_json_bad_enum():
    with pytest.raises(SpecInvalid):
        spec_from_json({"layout": "exotic"})


_BAD_SPEC_TEXTS = {
    "malformed-json": '{"rng_seed": 3,',
    "not-an-object": "5",
    "sizes-not-a-list": '{"extract_sizes": 3}',
    "sizes-not-integers": '{"extract_sizes": ["x"]}',
    "int-field-string": '{"decoy_markers": "3"}',
    "int-field-float": '{"keyblock_copies": 2.5}',
    "int-field-bool": '{"keyblock_copy_gap": true}',
    "seed-string": '{"rng_seed": "x"}',
    "plaintext-not-a-string": '{"plaintext_client": 5}',
    "enum-not-a-string": '{"filler": 5}',
}


@pytest.mark.parametrize("text", _BAD_SPEC_TEXTS.values(), ids=_BAD_SPEC_TEXTS.keys())
def test_spec_from_json_rejects_bad_recipes(tmp_path, text):
    path = tmp_path / "spec.json"
    path.write_text(text)
    with pytest.raises(SpecInvalid):
        spec_from_json(path)


def test_decoy_flood_still_recovers(tmp_path):
    # 50 decoy marker pairs: every decoy window either fails an entropy gate
    # or fails tag verification, and the ground truth still wins the trial
    from keysift.cli import run_pipeline
    from keysift.decrypt import decrypt_record
    from keysift.errors import AuthFailure
    from keysift.memscan import ScanConfig, scan_windows
    from keysift.capture import Direction

    spec = FixtureSpec(rng_seed=88, key_len_bytes=16, extract_sizes=(2 * MB,), decoy_markers=50)
    paths, truth = generate_fixture(spec, tmp_path)
    capture = parse_capture(paths.root)
    extract_set = load_extracts(paths.extract_dir)
    keys, ivs = scan_windows(extract_set, ScanConfig(key_len_bytes=16))

    record = next(
        r for r in capture.records
        if r.direction is Direction.CLIENT_TO_SERVER and r.content_type == 23
    )
    for key in keys:
        for iv in ivs:
            if key.value == truth.client_key and iv.value == truth.client_iv:
                continue
            with pytest.raises(AuthFailure):
                decrypt_record(record, key.value, iv.value, 1)

    report = run_pipeline(paths.extract_dir, parse_capture(paths.root), mode="windows")
    assert report.outcome == "decrypted"
    assert report.material["client_key"] == truth.client_key.hex()


def test_random_filler_still_generates(tmp_path):
    # collision scrubbing must converge even with fully random filler
    spec = FixtureSpec(rng_seed=23, filler=Filler.RANDOM, extract_sizes=(1 * MB,))
    paths, truth = generate_fixture(spec, tmp_path)
    data = (paths.extract_dir / truth.find("client_iv").extract_name).read_bytes()
    hits = naive_find_all(data, truth.client_iv)
    planted_at = {a.offset for a in truth.planted if a.kind == "client_iv"}
    assert planted_at <= set(hits)


def _plant_stray_marker(monkeypatch, attempts, stray=IV_MARKER):
    """Wrap ``_filler_buffer`` so the first extract's filler of each of the
    first ``attempts`` renders holds ``stray`` at offset 64, below every plant site."""
    from keysift import fixtures

    filler_buffer, calls = fixtures._filler_buffer, []

    def stray_marker_filler(filler, size, rng):
        buf = filler_buffer(filler, size, rng)
        calls.append(size)
        if len(calls) <= attempts:
            buf[64 : 64 + len(stray)] = stray
        return buf

    monkeypatch.setattr(fixtures, "_filler_buffer", stray_marker_filler)
    return calls


def test_colliding_filler_is_redrawn(tmp_path, monkeypatch):
    # a first render that holds a marker nobody planted, or a stray first client
    # nonce behind a prefix that passes the IV gate (a1b2c3d4: 2.0 bits), is
    # redrawn, and the redraw, from the second attempt's seed, is what the
    # generator emits; the same nonce behind 4 zero bytes (0 bits) can never
    # become a candidate, so that first render is emitted
    first_nonce = (1).to_bytes(8, "big")
    spec = FixtureSpec(rng_seed=5, extract_sizes=(1 * MB,))
    generate_fixture(FixtureSpec(rng_seed=5 * 1_000_003 + 1, extract_sizes=(1 * MB,)), tmp_path / "second")
    for case, stray, redrawn in (("marker", IV_MARKER, True),
                                 ("gated-nonce", bytes.fromhex("a1b2c3d4") + first_nonce, True),
                                 ("zero-nonce", bytes(4) + first_nonce, False)):
        with monkeypatch.context() as patch:
            calls = _plant_stray_marker(patch, attempts=1, stray=stray)
            paths, truth = generate_fixture(spec, tmp_path / case / "a")
            assert calls == [1 * MB] * (2 if redrawn else 1), case  # one call per extract and render
            calls.clear()
            generate_fixture(spec, tmp_path / case / "b")
        assert truth.first_client_nonce == first_nonce
        assert _tree_digest(tmp_path / case / "a") == _tree_digest(tmp_path / case / "b")
        data = (paths.extract_dir / truth.find("client_iv").extract_name).read_bytes()
        if redrawn:
            assert _tree_digest(tmp_path / case / "a") == _tree_digest(tmp_path / "second"), case
            assert len(naive_find_all(data, IV_MARKER)) == 2  # the client and server groups' own
        else:
            assert data[64 : 64 + len(stray)] == stray


def test_filler_that_always_collides_is_refused(tmp_path, monkeypatch):
    _plant_stray_marker(monkeypatch, attempts=16)
    with pytest.raises(SpecInvalid, match="could not render collision-free extracts"):
        generate_fixture(FixtureSpec(rng_seed=5, extract_sizes=(1 * MB,)), tmp_path)
