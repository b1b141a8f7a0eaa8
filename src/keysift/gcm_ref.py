"""Self-contained AES-GCM used to fabricate encrypted test traffic.

Deliberately shares no code with the trial decryptor, which rides on the
cryptography package. Keeping the two sides independent means a fixture
round-trip genuinely cross-checks both implementations. Correctness is
pinned to public known-answer vectors: one runs automatically before the
first encryption, the full set lives in the test suite.

Throughput is a non-goal; fixture plaintexts are a few hundred bytes.
"""

from __future__ import annotations

from .errors import BadKeyLength

_SBOX = (
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B, 0xFE, 0xD7, 0xAB, 0x76,
    0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0, 0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0,
    0xB7, 0xFD, 0x93, 0x26, 0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2, 0xEB, 0x27, 0xB2, 0x75,
    0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0, 0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84,
    0x53, 0xD1, 0x00, 0xED, 0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F, 0x50, 0x3C, 0x9F, 0xA8,
    0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5, 0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2,
    0xCD, 0x0C, 0x13, 0xEC, 0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14, 0xDE, 0x5E, 0x0B, 0xDB,
    0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C, 0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79,
    0xE7, 0xC8, 0x37, 0x6D, 0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F, 0x4B, 0xBD, 0x8B, 0x8A,
    0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E, 0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E,
    0xE1, 0xF8, 0x98, 0x11, 0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F, 0xB0, 0x54, 0xBB, 0x16,
)

_RCON = (0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)

# Flat state layout follows the input byte order: index = 4*column + row.
_SHIFT_ROWS = tuple((i % 4) + 4 * ((i // 4 + i % 4) % 4) for i in range(16))


def _xtime(a: int) -> int:
    a <<= 1
    return (a ^ 0x1B) & 0xFF if a & 0x100 else a


def _expand_key(key: bytes) -> list[bytes]:
    if len(key) not in (16, 32):
        raise BadKeyLength(f"AES key must be 16 or 32 bytes, got {len(key)}")
    nk = len(key) // 4
    rounds = nk + 6
    words = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
    for i in range(nk, 4 * (rounds + 1)):
        temp = list(words[i - 1])
        if i % nk == 0:
            temp = temp[1:] + temp[:1]
            temp = [_SBOX[b] for b in temp]
            temp[0] ^= _RCON[i // nk]
        elif nk > 6 and i % nk == 4:
            temp = [_SBOX[b] for b in temp]
        words.append([words[i - nk][j] ^ temp[j] for j in range(4)])
    # Round key r holds words 4r..4r+3; each word is one state column.
    return [
        bytes(words[4 * r + j // 4][j % 4] for j in range(16))
        for r in range(rounds + 1)
    ]


def _encrypt_block(round_keys: list[bytes], block: bytes) -> bytes:
    rk = round_keys[0]
    s = [block[i] ^ rk[i] for i in range(16)]
    last = len(round_keys) - 1
    for r in range(1, last):
        s = [_SBOX[s[j]] for j in _SHIFT_ROWS]
        mixed = []
        for c in range(0, 16, 4):
            a0, a1, a2, a3 = s[c : c + 4]
            mixed.extend(
                (
                    _xtime(a0) ^ _xtime(a1) ^ a1 ^ a2 ^ a3,
                    a0 ^ _xtime(a1) ^ _xtime(a2) ^ a2 ^ a3,
                    a0 ^ a1 ^ _xtime(a2) ^ _xtime(a3) ^ a3,
                    _xtime(a0) ^ a0 ^ a1 ^ a2 ^ _xtime(a3),
                )
            )
        rk = round_keys[r]
        s = [mixed[i] ^ rk[i] for i in range(16)]
    rk = round_keys[last]
    out = [_SBOX[s[j]] for j in _SHIFT_ROWS]
    return bytes(out[i] ^ rk[i] for i in range(16))


def _gmult(x: int, y: int) -> int:
    # GF(2^128) product with the GCM polynomial, MSB-first bit order.
    z = 0
    v = y
    for i in range(127, -1, -1):
        if (x >> i) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ (0xE1 << 120)
        else:
            v >>= 1
    return z


def _ghash(h: int, aad: bytes, ciphertext: bytes) -> int:
    y = 0
    for chunk in (aad, ciphertext):
        for off in range(0, len(chunk), 16):
            block = chunk[off : off + 16].ljust(16, b"\x00")
            y = _gmult(y ^ int.from_bytes(block, "big"), h)
    lengths = ((len(aad) * 8) << 64) | (len(ciphertext) * 8)
    return _gmult(y ^ lengths, h)


def _gctr(round_keys: list[bytes], nonce: bytes, counter0: int, data: bytes) -> bytes:
    out = bytearray()
    counter = counter0
    for off in range(0, len(data), 16):
        block = data[off : off + 16]
        stream = _encrypt_block(round_keys, nonce + counter.to_bytes(4, "big"))
        out.extend(b ^ s for b, s in zip(block, stream))
        counter = (counter + 1) & 0xFFFFFFFF
    return bytes(out)


_checked = False


def _selfcheck() -> None:
    """One public known-answer vector per key size, run before first use."""
    global _checked
    vectors = (
        (
            bytes(16),
            bytes(12),
            bytes(16),
            b"",
            bytes.fromhex("0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf"),
        ),
        (
            bytes(32),
            bytes(12),
            bytes(16),
            b"",
            bytes.fromhex("cea7403d4d606b6e074ec5d3baf39d18d0d1c8a799996bf0265b98b5d48ab919"),
        ),
    )
    _checked = True
    for key, nonce, plaintext, aad, expected in vectors:
        got = seal(key, nonce, plaintext, aad)
        if got != expected:
            _checked = False
            raise RuntimeError("AES-GCM reference implementation failed its known-answer check")


def seal(key: bytes, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
    """Encrypt and authenticate; returns ciphertext with the 16-byte tag appended."""
    if not _checked:
        _selfcheck()
    if len(nonce) != 12:
        raise ValueError("GCM nonce must be 12 bytes here")
    round_keys = _expand_key(key)
    h = int.from_bytes(_encrypt_block(round_keys, bytes(16)), "big")
    ciphertext = _gctr(round_keys, nonce, 2, plaintext)
    s = _ghash(h, aad, ciphertext)
    tag_stream = _encrypt_block(round_keys, nonce + (1).to_bytes(4, "big"))
    tag = bytes(a ^ b for a, b in zip(s.to_bytes(16, "big"), tag_stream))
    return ciphertext + tag

