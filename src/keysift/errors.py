"""Exception types shared across the toolkit."""


class KeysiftError(Exception):
    """Base class for all keysift errors."""


class UnsupportedCipherSuite(KeysiftError):
    """The capture negotiated something other than a TLS 1.2 AES-GCM suite."""


class NoApplicationData(KeysiftError):
    """No client-to-server ApplicationData record; nothing to attack."""


class MalformedRecord(KeysiftError):
    """Record framing is inconsistent (bad length, truncation, a gap in the TCP stream)."""


class AmbiguousStream(KeysiftError):
    """The pcap holds more than one TLS stream and no session filter was given."""


class FilterNeedsPcap(KeysiftError):
    """A session filter selects one TCP stream of a pcap; raw records hold a single session."""


class EmptyDirectory(KeysiftError):
    """Extract directory contains no loadable files."""


class UnreadableFile(KeysiftError):
    def __init__(self, path, cause):
        super().__init__(f"cannot read extract {path}: {cause}")
        self.path = path
        self.cause = cause


class EmptySegment(KeysiftError):
    """Entropy of a zero-length segment is undefined."""


class BadKeyLength(KeysiftError):
    """AES-GCM key material must be 16 or 32 bytes."""


class AuthFailure(KeysiftError):
    """AEAD tag verification failed; key, IV, sequence and AAD are indistinguishable causes."""


class NoValidDecrypt(KeysiftError):
    """Every candidate pair was exhausted without a verified decrypt."""

    def __init__(self, trials):
        super().__init__(f"no valid decrypt after {trials} trials")
        self.trials = trials


class SpecInvalid(KeysiftError):
    """A fixture recipe fails validation."""
