"""keysift: recover TLS 1.2 AES-GCM session material from process-memory
extracts and use it to decrypt captured traffic.

The package re-exports nothing, and ``import keysift`` loads no submodule.
Import each name from its home module: ``keysift.capture`` (parse_capture,
explicit_nonce_style), ``keysift.memscan`` (load_extracts, ScanConfig, the
scanners), ``keysift.decrypt`` (the trial and session decryptors),
``keysift.entropy``, ``keysift.cli`` (run_pipeline) and ``keysift.fixtures``
(generate_fixture). So a ``keysift decrypt`` run never loads the fixture
generator or the reference encryptor.
"""
