"""keysift: recover TLS 1.2 AES-GCM session material from process-memory
extracts and use it to decrypt captured traffic.

Public names resolve lazily (PEP 562): ``import keysift`` loads no submodule,
and ``keysift.generate_fixture`` imports ``keysift.fixtures`` on first use.
So a ``keysift decrypt`` run never loads the fixture generator or the
reference encryptor.
"""

from importlib import import_module

__version__ = "0.1.0"

# home submodule -> the public names it provides
_EXPORTS = {
    "capture": (
        "Direction",
        "HandshakeSummary",
        "NonceStyle",
        "SessionCapture",
        "explicit_nonce_style",
        "parse_capture",
    ),
    "decrypt": (
        "DecryptedSession",
        "TagScreens",
        "TrialResult",
        "Validation",
        "decrypt_record",
        "decrypt_session",
        "trial_decrypt",
        "trial_decrypt_blocks",
        "validate_plaintext",
    ),
    "entropy": ("entropy_profile", "shannon_entropy"),
    "fixtures": ("FixtureSpec", "generate_fixture", "reference_encrypt"),
    "memscan": (
        "BlockHypothesis",
        "Candidate",
        "CandidateKeyBlock",
        "ExtractSet",
        "MemoryExtract",
        "ScanConfig",
        "load_extracts",
        "pair_candidates",
        "scan_standard",
        "scan_windows",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys())
