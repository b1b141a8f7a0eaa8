"""The band-by-band search on hand-built extract directories.

Each directory holds zero-filled (sparse) files whose sizes put them in chosen
size bands, with key material written at known offsets. The capture and the
material come from ``generate_fixture``; only its extracts are replaced.
"""

from __future__ import annotations

import contextlib
import errno
import os
import pathlib
import tempfile
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import keysift.cli as cli
import keysift.memscan as memscan
from keysift.capture import Direction, NonceStyle, parse_capture
from keysift.cli import EXIT_ERROR, EXIT_OK, main, run_pipeline
from keysift.decrypt import _seq_candidates, decrypt_session, trial_decrypt, trial_decrypt_blocks
from keysift.errors import NoValidDecrypt, UnreadableFile
from keysift.fixtures import FixtureLayout, Filler, FixtureSpec, generate_fixture
from keysift.memscan import (
    IV_MARKER,
    KEY_MARKER,
    MB,
    ScanConfig,
    load_extracts,
    pair_candidates,
    scan_standard,
    scan_windows,
)

from conftest import _regex_find_all, naive_pair_order, oracle_pipeline, oracle_standard_scan

# one file per band; names sort against band order, so ids and bands differ
BAND_FILES = {1: ("b_band1.bin", 2 * MB), 2: ("c_band2.bin", 256 * 1024), 3: ("a_band3.bin", 8 * MB)}
SLOT = 16 * 1024  # artefacts sit SLOT bytes apart, beyond the pruning gap and search distances


def _write_extracts(directory: pathlib.Path, plants: dict[int, list[bytes]]) -> pathlib.Path:
    """One sparse file per band in ``plants``, each artefact in its own slot."""
    directory.mkdir(parents=True, exist_ok=True)
    for band, artefacts in plants.items():
        name, size = BAND_FILES[band]
        with open(directory / name, "wb") as fh:
            fh.truncate(size)
            for slot, artefact in enumerate(artefacts, start=1):
                fh.seek(slot * SLOT)
                fh.write(artefact)
    return directory


def _key_window(key: bytes) -> bytes:
    return KEY_MARKER + bytes(28) + key


def _iv_window(iv: bytes) -> bytes:
    return IV_MARKER + bytes(20) + iv


def _key_block(truth) -> bytes:
    return truth.client_key + truth.server_key + truth.client_iv + truth.server_iv


def _nonce_hit(iv: bytes, capture) -> bytes:
    return iv + capture.first_explicit_nonce


@pytest.fixture(scope="module")
def windows_session(tmp_path_factory):
    spec = FixtureSpec(rng_seed=2201, key_len_bytes=32, extract_sizes=(2 * MB,))
    paths, truth = generate_fixture(spec, tmp_path_factory.mktemp("band_windows"))
    return paths.root, parse_capture(paths.root), truth


@pytest.fixture(scope="module")
def standard_session(tmp_path_factory):
    spec = FixtureSpec(
        rng_seed=2202, key_len_bytes=16, layout=FixtureLayout.GENERIC_KEY_BLOCK, filler=Filler.ZERO,
        explicit_nonce_style=NonceStyle.RANDOM_LIKE, extract_sizes=(2 * MB,),
    )
    paths, truth = generate_fixture(spec, tmp_path_factory.mktemp("band_standard"))
    return paths.root, parse_capture(paths.root), truth


def _record_reads(monkeypatch, refuse=(), error=lambda path: PermissionError(13, "Permission denied", str(path))):
    """Names of the files read through pathlib; reading a name in ``refuse``
    raises ``error(path)``."""
    read = []
    real_read_bytes = pathlib.Path.read_bytes

    def read_bytes(path):
        read.append(path.name)
        if path.name in refuse:
            raise error(path)
        return real_read_bytes(path)

    monkeypatch.setattr(pathlib.Path, "read_bytes", read_bytes)
    return read


def _material(report) -> tuple:
    material = report.material or {}
    records = (report.session or {}).get("records", [])
    return (
        tuple(material.get(name) for name in ("client_key", "client_iv", "server_key", "server_iv")),
        [(r["direction"], r["seq"], r["ok"], r["plaintext_hex"]) for r in records],
    )


def test_server_key_only_in_band_3_still_decrypts_fully(tmp_path, windows_session):
    # the client pair wins in band 1; the server probe goes on into band 3
    _, capture, truth = windows_session
    extracts = _write_extracts(tmp_path / "extracts", {
        1: [_key_window(truth.client_key), _iv_window(truth.client_iv)],
        3: [_key_window(truth.server_key), _iv_window(truth.server_iv)],
    })
    report = run_pipeline(extracts, capture, mode="windows")
    assert report.outcome == "decrypted"
    assert report.candidates["bands_scanned"] == [1, 2, 3]
    assert report.material["client_key"] == truth.client_key.hex()
    assert report.material["server_key"] == truth.server_key.hex()
    assert report.material["server_iv"] == truth.server_iv.hex()
    assert all(record["ok"] for record in report.session["records"])
    # the counts cover every band the probe scanned
    keys, ivs = scan_windows(load_extracts(extracts), ScanConfig(key_len_bytes=32))
    assert (report.candidates["keys"], report.candidates["ivs"]) == (len(keys), len(ivs))


def test_winner_index_and_attempted_count_the_staged_order(tmp_path, windows_session):
    # the client IV only turns up in band 2, so the winner is an earlier key
    # paired with a new IV, after band 1's pairs and band 2's new keys x all IVs
    root, capture, truth = windows_session
    extracts = _write_extracts(tmp_path / "extracts", {
        1: [_key_window(truth.client_key), _iv_window(b"\x01\x02\x03\x04"), _key_window(bytes(range(50, 82))),
            _key_window(truth.server_key), _iv_window(truth.server_iv)],
        2: [_iv_window(b"\x05\x06\x07\x08"), _iv_window(truth.client_iv), _key_window(bytes(range(90, 122)))],
    })
    report = run_pipeline(extracts, capture, mode="windows")
    assert report.outcome == "decrypted" and report.candidates["bands_scanned"] == [1, 2]

    extract_set, cfg = load_extracts(extracts), ScanConfig(key_len_bytes=32)
    keys_1, ivs_1 = scan_windows(extract_set, cfg, (1,))
    seen = {c.value for c in keys_1 + ivs_1}
    keys_2, ivs_2 = ([c for c in cands if c.value not in seen] for cands in scan_windows(extract_set, cfg, (2,)))
    order = (naive_pair_order(keys_1, ivs_1) + naive_pair_order(keys_2, ivs_1 + ivs_2)
             + naive_pair_order(keys_1, ivs_2))
    index = [(k.value, v.value) for k, v in order].index((truth.client_key, truth.client_iv))
    assert index >= len(keys_1) * len(ivs_1) + len(keys_2) * len(ivs_1 + ivs_2)
    record = capture.app_data(Direction.CLIENT_TO_SERVER)[0]
    seq_position = _seq_candidates(record.seq).index(report.trials["seq_used"])
    assert report.trials["winner_index"] == index
    assert report.trials["attempted"] == index * 5 + seq_position + 1
    assert (report.candidates["keys"], report.candidates["ivs"]) == (
        len(keys_1 + keys_2), len(ivs_1 + ivs_2))


def test_a_marker_value_in_two_bands_is_one_candidate(tmp_path, monkeypatch, windows_session):
    # the client key window sits in bands 1 and 2 and its IV only in band 2, so
    # band 2's stage has no new key: it pairs band 1's key with its new IV alone
    _, capture, truth = windows_session
    decoy_iv = b"\x01\x02\x03\x04"
    extracts = _write_extracts(tmp_path / "extracts", {
        1: [_key_window(truth.client_key), _iv_window(decoy_iv)],
        2: [_key_window(truth.client_key), _iv_window(truth.client_iv)],
    })
    paired = []

    def pair_candidates_recorded(keys, ivs):
        paired.append(([k.value for k in keys], [v.value for v in ivs]))
        return pair_candidates(keys, ivs)

    searches = []

    class RecordedSearch(cli._BandSearch):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    monkeypatch.setattr(cli, "pair_candidates", pair_candidates_recorded)
    monkeypatch.setattr(cli, "_BandSearch", RecordedSearch)
    report = run_pipeline(extracts, capture, mode="windows", clock=lambda: 0.0)
    assert report.outcome == "decrypted_partial" and report.candidates["bands_scanned"] == [1, 2, 3]
    extract_set, cfg = load_extracts(extracts), ScanConfig(key_len_bytes=32)
    (keys_1, ivs_1), (keys_2, ivs_2) = (scan_windows(extract_set, cfg, (band,)) for band in (1, 2))
    values = lambda cands: [c.value for c in cands]
    assert truth.client_key in values(keys_1) and sorted(values(keys_2)) == sorted(values(keys_1))
    assert decoy_iv in values(ivs_1) and truth.client_iv in values(ivs_2)
    assert (report.candidates["keys"], report.candidates["ivs"]) == (len(keys_1), len(ivs_1 + ivs_2))
    assert paired == [(values(keys_1), values(ivs_1)), (values(keys_1), values(ivs_2))]
    # the values seen so far are the kept candidates' own, held nowhere else
    (search,) = searches
    assert not hasattr(search, "seen")
    assert (values(search.keys), values(search.ivs)) == (values(keys_1), values(ivs_1 + ivs_2))
    assert report.trials["winner_index"] >= len(keys_1) * len(ivs_1)
    assert report.to_dict() == oracle_pipeline(extracts, capture, "windows")


def test_server_probe_misses_in_every_band_reports_partial(tmp_path, windows_session):
    _, capture, truth = windows_session
    extracts = _write_extracts(tmp_path / "extracts", {
        1: [_key_window(truth.client_key), _iv_window(truth.client_iv)],
        3: [_key_window(bytes(range(7, 39))), _iv_window(truth.server_iv)],
    })
    report = run_pipeline(extracts, capture, mode="windows")
    assert report.outcome == "decrypted_partial"
    assert report.candidates["bands_scanned"] == [1, 2, 3]
    assert report.material["client_key"] == truth.client_key.hex() and report.material["server_key"] is None


def test_standard_scan_finds_a_band_1_block_through_a_band_2_nonce_hit(tmp_path, monkeypatch, standard_session):
    # the IV value is only seen in front of the nonce in band 2, and it recurs
    # in band 1's key block, which a scan of band 1 alone cannot yet find
    _, capture, truth = standard_session
    extracts = _write_extracts(tmp_path / "extracts", {
        1: [_key_block(truth)],
        2: [_nonce_hit(truth.client_iv, capture)],
        3: [_key_block(truth)],
    })
    cfg = ScanConfig(key_len_bytes=16)
    extract_set = load_extracts(extracts)
    assert scan_standard(extract_set, capture, cfg, (1,)) == []
    found = scan_standard(extract_set, capture, cfg, (1, 2))
    band_1_id = extract_set.bands[1][0]
    assert {(b.extract_id, b.client_key, b.client_iv) for b in found} == {
        (band_1_id, truth.client_key, truth.client_iv)}

    read = _record_reads(monkeypatch)
    report = run_pipeline(extracts, capture, mode="standard")
    assert report.outcome == "decrypted"
    assert report.candidates["bands_scanned"] == [1, 2]
    assert report.material["client_key"] == truth.client_key.hex()
    assert report.material["server_key"] == truth.server_key.hex()
    assert report.material["hypothesis"] == "iv_was_client"
    assert BAND_FILES[3][0] not in read


def test_standard_stages_search_each_extract_for_a_pattern_once(tmp_path, monkeypatch, standard_session):
    # decoy blocks in bands 1 and 2 fail their trials, so all three stages run;
    # band 2's decoy IV also recurs in band 1, which stage 2 must search again
    _, capture, truth = standard_session
    decoy = lambda seed, iv: bytes(range(seed, seed + 32)) + iv + bytes(range(seed + 40, seed + 44))
    iv_1, iv_2 = b"\x11\x22\x33\x44", b"\x55\x66\x77\x88"
    extracts = _write_extracts(tmp_path / "extracts", {
        1: [decoy(100, iv_1), _nonce_hit(iv_1, capture), decoy(150, iv_2)],
        2: [_nonce_hit(iv_2, capture)],
        3: [_nonce_hit(truth.client_iv, capture), _key_block(truth)],
    })
    cfg = ScanConfig(key_len_bytes=16)
    extract_set = load_extracts(extracts)
    for bands in ((1,), (1, 2), (1, 2, 3)):
        assert [
            (b.extract_id, b.offset, b.hypothesis.value, b.client_key, b.server_key, b.client_iv, b.server_iv)
            for b in scan_standard(extract_set, capture, cfg, bands)
        ] == oracle_standard_scan(extract_set, capture, cfg, bands, _regex_find_all)

    searches = Counter()
    real_find_all = memscan.find_all

    def counting_find_all(data, pattern):
        searches[data, pattern] += 1
        return real_find_all(data, pattern)

    monkeypatch.setattr(memscan, "find_all", counting_find_all)
    report = run_pipeline(extracts, capture, mode="standard")
    assert report.outcome == "decrypted" and report.candidates["bands_scanned"] == [1, 2, 3]
    assert report.material["client_key"] == truth.client_key.hex()
    assert {(data, pattern) for data, pattern in searches if pattern in (iv_1, iv_2)} >= {
        (extract_set.extracts[extract_set.bands[1][0]].data, iv) for iv in (iv_1, iv_2)}
    assert max(searches.values()) == 1


def test_band_1_win_never_opens_later_bands(tmp_path, monkeypatch, windows_session):
    root, _, truth = windows_session
    later = [_key_window(bytes(range(40, 72))), _iv_window(b"\x09\x08\x07\x06")]
    extracts = _write_extracts(tmp_path / "extracts", {
        1: [_key_window(truth.client_key), _iv_window(truth.client_iv),
            _key_window(truth.server_key), _iv_window(truth.server_iv)],
        2: later,
        3: later,
    })
    read = _record_reads(monkeypatch, refuse={BAND_FILES[2][0], BAND_FILES[3][0]})
    out = tmp_path / "report.json"
    code = main(["decrypt", "--extracts", str(extracts), "--capture", str(root), "--output", str(out)])
    assert code == EXIT_OK
    assert [name for name in read if name.endswith(".bin")] == [BAND_FILES[1][0]]


def _band_1_read_fails(tmp_path, monkeypatch, capsys, windows_session, error):
    """Exit code and stderr of ``decrypt`` when reading band 1's extract raises ``error(path)``."""
    root, _, truth = windows_session
    extracts = _write_extracts(tmp_path / "extracts", {
        1: [_key_window(truth.client_key), _iv_window(truth.client_iv)],
    })
    _record_reads(monkeypatch, refuse={BAND_FILES[1][0]}, error=error)
    code = main(["decrypt", "--extracts", str(extracts), "--capture", str(root)])
    return code, capsys.readouterr().err


def test_unreadable_band_1_extract_exits_1_with_one_error_line(tmp_path, monkeypatch, capsys, windows_session):
    code, err = _band_1_read_fails(tmp_path, monkeypatch, capsys, windows_session,
                                   lambda path: PermissionError(13, "Permission denied", str(path)))
    assert code == EXIT_ERROR
    assert len(err.splitlines()) == 1 and err.startswith("error: cannot read extract ")


def test_band_1_extract_larger_than_memory_exits_1_with_one_error_line(tmp_path, monkeypatch, capsys,
                                                                        windows_session):
    code, err = _band_1_read_fails(tmp_path, monkeypatch, capsys, windows_session, lambda path: MemoryError())
    assert code == EXIT_ERROR
    assert len(err.splitlines()) == 1 and err.startswith("error: cannot read extract ")


def test_extract_grown_since_listing_exits_1_with_one_error_line(tmp_path, monkeypatch, capsys, windows_session):
    root, capture, truth = windows_session
    extracts = _write_extracts(tmp_path / "extracts", {
        1: [_key_window(truth.client_key), _iv_window(truth.client_iv)],
    })
    real_load = cli.load_extracts

    def load_then_grow(directory):
        listed = real_load(directory)
        with open(extracts / BAND_FILES[1][0], "ab") as fh:
            fh.write(b"grown")
        return listed

    monkeypatch.setattr(cli, "load_extracts", load_then_grow)
    with pytest.raises(UnreadableFile, match="size changed from"):
        run_pipeline(extracts, capture)
    code = main(["decrypt", "--extracts", str(extracts), "--capture", str(root)])
    err = capsys.readouterr().err
    assert code == EXIT_ERROR
    assert len(err.splitlines()) == 1 and err.startswith("error: cannot read extract ")
    assert "size changed from" in err


def test_extract_stat_failing_while_listed_exits_1_with_one_error_line(tmp_path, monkeypatch, capsys, windows_session):
    # the file is listed, then gone before its size is read
    root, _, truth = windows_session
    extracts = _write_extracts(tmp_path / "extracts", {
        1: [_key_window(truth.client_key), _iv_window(truth.client_iv)],
    })
    gone = extracts / BAND_FILES[1][0]
    real_scandir = memscan.os.scandir

    class Vanishing:
        def __init__(self, entry):
            self._entry, self.name = entry, entry.name

        def is_file(self):
            return self._entry.is_file()

        def stat(self):
            if self.name == gone.name:
                raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(gone))
            return self._entry.stat()

    @contextlib.contextmanager
    def scandir(path):
        with real_scandir(path) as listing:
            yield [Vanishing(entry) for entry in listing]

    monkeypatch.setattr(memscan.os, "scandir", scandir)
    code = main(["decrypt", "--extracts", str(extracts), "--capture", str(root)])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err.splitlines() == [
        f"error: cannot read extract {gone}: [Errno 2] No such file or directory: '{gone}'"]


def _reference(extract_dir, capture, mode):
    """The whole ExtractSet scanned at once, then trialled: the search before bands were staged."""
    extracts, cfg = load_extracts(extract_dir), ScanConfig(key_len_bytes=capture.key_len_bytes)
    try:
        if mode == "windows":
            keys, ivs = scan_windows(extracts, cfg)
            return decrypt_session(capture, trial_decrypt(capture, pair_candidates(keys, ivs)), found=[(keys, ivs)])
        blocks = scan_standard(extracts, capture, cfg)
        return decrypt_session(capture, trial_decrypt_blocks(capture, blocks))
    except NoValidDecrypt:
        return None


def _session_material(session) -> tuple:
    if session is None:
        return (None, None, None, None), []
    hexed = lambda value: value.hex() if value is not None else None
    return (
        tuple(hexed(v) for v in (session.client_key, session.client_iv, session.server_key, session.server_iv)),
        [(e.direction.value, e.seq, e.ok, hexed(e.plaintext)) for e in session.transcript],
    )


_bands = st.sampled_from((1, 2, 3))
_decoys = st.lists(st.tuples(_bands, st.binary(min_size=4, max_size=4), st.binary(min_size=32, max_size=32)),
                   max_size=3)


@settings(max_examples=20, deadline=None)
@given(places=st.tuples(_bands, _bands, _bands, _bands), decoys=_decoys)
def test_staged_windows_winner_matches_a_whole_set_scan(windows_session, places, decoys):
    root, capture, truth = windows_session
    plants: dict[int, list[bytes]] = {1: []}  # band 1 always holds a file, as real dumps do
    artefacts = (_key_window(truth.client_key), _iv_window(truth.client_iv),
                 _key_window(truth.server_key), _iv_window(truth.server_iv))
    for band, artefact in zip(places, artefacts):
        plants.setdefault(band, []).append(artefact)
    for band, iv, key in decoys:
        plants.setdefault(band, []).extend([_iv_window(iv), _key_window(key)])
    with tempfile.TemporaryDirectory() as tmp:
        extracts = _write_extracts(pathlib.Path(tmp), plants)
        report = run_pipeline(extracts, capture, mode="windows")
        assert _material(report) == _session_material(_reference(extracts, capture, "windows"))


@settings(max_examples=20, deadline=None)
@given(block_bands=st.lists(_bands, min_size=1, max_size=2), nonce_band=_bands, decoy_keys=_decoys)
def test_staged_standard_winner_matches_a_whole_set_scan(standard_session, block_bands, nonce_band, decoy_keys):
    root, capture, truth = standard_session
    plants: dict[int, list[bytes]] = {1: []}
    for band in block_bands:
        plants.setdefault(band, []).append(_key_block(truth))
    plants.setdefault(nonce_band, []).append(_nonce_hit(truth.client_iv, capture))
    for band, _, key in decoy_keys:  # blocks of other keys around the same IV value
        plants.setdefault(band, []).append(key + truth.client_iv + truth.server_iv)
    with tempfile.TemporaryDirectory() as tmp:
        extracts = _write_extracts(pathlib.Path(tmp), plants)
        report = run_pipeline(extracts, capture, mode="standard")
        assert _material(report) == _session_material(_reference(extracts, capture, "standard"))


def _band_3_server_scene(directory, truth):
    return _write_extracts(directory, {
        1: [_key_window(truth.client_key), _iv_window(truth.client_iv)],
        3: [_key_window(truth.server_key), _iv_window(truth.server_iv)],
    })


def test_timings_split_the_search_into_scans_and_the_rest(tmp_path, windows_session):
    # a clock that ticks once per call: the three windows scans, the probe's
    # two among them, are memory analysis, and the rest of the search is decrypt
    _, capture, truth = windows_session
    ticks = []

    def clock():
        ticks.append(float(len(ticks)))
        return ticks[-1]

    report = run_pipeline(_band_3_server_scene(tmp_path / "extracts", truth), capture, mode="windows", clock=clock)
    assert report.outcome == "decrypted" and report.candidates["bands_scanned"] == [1, 2, 3]
    memory, decrypt = report.timings["memory_analysis_secs"], report.timings["decrypt_analysis_secs"]
    assert memory == 3 and decrypt >= 0
    assert memory + decrypt == ticks[-1] - ticks[0]


@pytest.mark.parametrize("client_iv_band", [1, 2])
def test_windows_win_builds_only_the_stages_pair_orders(tmp_path, monkeypatch, windows_session, client_iv_band):
    # the pair orders are the ones pair_candidates returned to the stages, and the probe builds none
    _, capture, truth = windows_session
    plants = {1: [_key_window(truth.client_key), _key_window(truth.server_key), _iv_window(truth.server_iv)]}
    # a band takes part only when it holds a key marker
    plants.setdefault(client_iv_band, [_key_window(bytes(range(90, 122)))]).append(_iv_window(truth.client_iv))
    built, returned = [], []
    real_init, real_pair_candidates = memscan.PairOrder.__init__, cli.pair_candidates

    def init(self, keys, ivs):
        built.append(self)
        real_init(self, keys, ivs)

    def pair_candidates(keys, ivs):
        returned.append(real_pair_candidates(keys, ivs))
        return returned[-1]

    monkeypatch.setattr(memscan.PairOrder, "__init__", init)
    monkeypatch.setattr(cli, "pair_candidates", pair_candidates)
    report = run_pipeline(_write_extracts(tmp_path / "extracts", plants), capture, mode="windows")
    assert report.outcome == "decrypted" and report.candidates["bands_scanned"] == list(range(1, client_iv_band + 1))
    assert len(built) == len(returned) == (1 if client_iv_band == 1 else 3)
    assert all(a is b for a, b in zip(built, returned))


def _record_pair_builds(monkeypatch):
    """(key count, IV count) of each pair order ``cli.pair_candidates`` builds."""
    builds = []
    real_pair_candidates = cli.pair_candidates

    def pair_candidates(keys, ivs):
        builds.append((len(keys), len(ivs)))
        return real_pair_candidates(keys, ivs)

    monkeypatch.setattr(cli, "pair_candidates", pair_candidates)
    return builds


def test_a_band_only_the_probe_scans_builds_no_pair_order(tmp_path, monkeypatch, windows_session):
    # the probe looks bands 2 and 3 up through ``found``, which walks no pair order
    _, capture, truth = windows_session
    extracts = _band_3_server_scene(tmp_path / "extracts", truth)
    builds = _record_pair_builds(monkeypatch)
    report = run_pipeline(extracts, capture, mode="windows")
    assert report.outcome == "decrypted" and report.candidates["bands_scanned"] == [1, 2, 3]
    keys_1, ivs_1 = scan_windows(load_extracts(extracts), ScanConfig(key_len_bytes=32), (1,))
    assert builds == [(len(keys_1), len(ivs_1))]


def test_a_stage_whose_first_order_verifies_builds_no_second(tmp_path, monkeypatch, windows_session):
    # band 2's new client key pairs with band 1's client IV in the stage's
    # first order, new keys x every IV; its second, earlier keys x new IVs, is never built
    _, capture, truth = windows_session
    decoy_key, decoy_iv = bytes(range(90, 122)), b"\x01\x02\x03\x04"
    extracts = _write_extracts(tmp_path / "extracts", {
        1: [_key_window(decoy_key), _iv_window(truth.client_iv), _key_window(truth.server_key),
            _iv_window(truth.server_iv)],
        2: [_key_window(truth.client_key), _iv_window(decoy_iv)],
    })
    builds = _record_pair_builds(monkeypatch)
    report = run_pipeline(extracts, capture, mode="windows")
    assert report.outcome == "decrypted" and report.candidates["bands_scanned"] == [1, 2]
    assert report.material["client_key"] == truth.client_key.hex()
    extract_set, cfg = load_extracts(extracts), ScanConfig(key_len_bytes=32)
    keys_1, ivs_1 = scan_windows(extract_set, cfg, (1,))
    keys_2, ivs_2 = scan_windows(extract_set, cfg, (2,))
    assert keys_1 and ivs_2  # the second order would have been non-empty
    assert builds == [(len(keys_1), len(ivs_1)), (len(keys_2), len(ivs_1 + ivs_2))]


# ---------------------------------------------------------------------------
# the whole report against the reference pipeline


def _named_session(name, windows_session, standard_session, colliding):
    """(capture, client key, client IV, server key, server IV) of a named session."""
    if name == "colliding":
        capture, first, second = colliding
        return (capture,) + first + second
    _, capture, truth = windows_session if name == "counter" else standard_session
    return capture, truth.client_key, truth.client_iv, truth.server_key, truth.server_iv


_scenes = st.fixed_dictionaries({
    "session": st.sampled_from(("counter", "random", "colliding")),
    "layout": st.sampled_from(("markers", "blocks")),
    "places": st.tuples(_bands, _bands, _bands, _bands),  # client key, client IV, server key, server IV
    "block_bands": st.lists(_bands, min_size=1, max_size=2),
    "nonce_band": _bands,
    "decoys": st.lists(st.tuples(_bands, st.binary(min_size=4, max_size=4), st.binary(min_size=64, max_size=64)),
                       max_size=3),
    "slots": st.lists(st.integers(0, 9), min_size=10, max_size=10),  # each artefact's rank within its file
    "mode": st.sampled_from(("auto", "windows", "standard")),
    "decrypts": st.sampled_from((True, True, False)),
})


def _scene(**overrides):
    scene = {"session": "counter", "layout": "markers", "places": (1, 1, 1, 1), "block_bands": [1], "nonce_band": 1,
             "decoys": [], "slots": [0] * 10, "mode": "auto", "decrypts": True}
    return {**scene, **overrides}


@settings(max_examples=80, deadline=None, derandomize=True)
@given(scene=_scenes)
# a client win in band 2 after a band-1 stage that fails, with the server key only in band 3
@example(scene=_scene(places=(2, 2, 3, 3), decoys=[(1, b"\x01\x02\x03\x04", bytes(range(64)))]))
# both keys open the client record; the first is screened first, next to the second's IV, but
# the second's own pair sorts first
@example(scene=_scene(session="colliding", slots=[0, 3, 2, 1] + [0] * 6))
# a key block in bands 1 and 3 found through a band-2 nonce hit, after a decoy block
@example(scene=_scene(layout="blocks", block_bands=[1, 3], nonce_band=2, decoys=[(1, bytes(4), bytes(range(64)))]))
def test_report_matches_the_reference_pipeline(windows_session, standard_session, colliding, scene):
    capture, client_key, client_iv, server_key, server_iv = _named_session(
        scene["session"], windows_session, standard_session, colliding)
    k = capture.key_len_bytes
    if not scene["decrypts"]:  # in the colliding session both keys open the client record
        client_key, server_key = bytes(range(1, k + 1)), bytes(range(100, 100 + k))
    placed: list[tuple[int, bytes]] = []
    if scene["layout"] == "markers":
        placed += zip(scene["places"], (_key_window(client_key), _iv_window(client_iv),
                                        _key_window(server_key), _iv_window(server_iv)))
        for band, iv, key in scene["decoys"]:
            placed += [(band, _iv_window(iv)), (band, _key_window(key[:k]))]
    else:
        placed += [(band, client_key + server_key + client_iv + server_iv) for band in scene["block_bands"]]
        placed.append((scene["nonce_band"], _nonce_hit(client_iv, capture)))
        placed += [(band, key[: 2 * k] + client_iv + server_iv) for band, _, key in scene["decoys"]]
    plants: dict[int, list[bytes]] = {1: []}  # band 1 always holds a file, as real dumps do
    for _, _, (band, artefact) in sorted((scene["slots"][i], i, p) for i, p in enumerate(placed)):
        plants.setdefault(band, []).append(artefact)
    with tempfile.TemporaryDirectory() as tmp:
        extracts = _write_extracts(pathlib.Path(tmp), plants)
        report = run_pipeline(extracts, capture, mode=scene["mode"], clock=lambda: 0.0)
        assert report.to_dict() == oracle_pipeline(extracts, capture, scene["mode"])
