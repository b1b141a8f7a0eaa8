"""keysift: recover TLS 1.2 AES-GCM session material from process-memory
extracts and use it to decrypt captured traffic."""

__version__ = "0.1.0"

from .capture import (
    CaptureFormat,
    Direction,
    HandshakeSummary,
    NonceStyle,
    SessionCapture,
    explicit_nonce_style,
    parse_capture,
)
from .decrypt import (
    DecryptedSession,
    TrialResult,
    Validation,
    decrypt_record,
    decrypt_session,
    trial_decrypt,
    trial_decrypt_blocks,
    validate_plaintext,
)
from .entropy import entropy_profile, shannon_entropy
from .fixtures import FixtureSpec, generate_fixture, reference_encrypt
from .memscan import (
    BlockHypothesis,
    Candidate,
    CandidateIv,
    CandidateKey,
    CandidateKeyBlock,
    ExtractSet,
    MemoryExtract,
    ScanConfig,
    load_extracts,
    pair_candidates,
    scan_standard,
    scan_windows,
)

__all__ = [
    "BlockHypothesis",
    "Candidate",
    "CandidateIv",
    "CandidateKey",
    "CandidateKeyBlock",
    "CaptureFormat",
    "DecryptedSession",
    "Direction",
    "ExtractSet",
    "FixtureSpec",
    "HandshakeSummary",
    "MemoryExtract",
    "NonceStyle",
    "ScanConfig",
    "SessionCapture",
    "TrialResult",
    "Validation",
    "decrypt_record",
    "decrypt_session",
    "entropy_profile",
    "explicit_nonce_style",
    "generate_fixture",
    "load_extracts",
    "pair_candidates",
    "parse_capture",
    "reference_encrypt",
    "scan_standard",
    "scan_windows",
    "shannon_entropy",
    "trial_decrypt",
    "trial_decrypt_blocks",
    "validate_plaintext",
]
