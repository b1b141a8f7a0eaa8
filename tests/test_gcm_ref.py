"""Known-answer and cross-implementation checks for the reference AES-GCM.

Its output is opened with ``cryptography``'s AESGCM, so two independent
implementations must agree on every seal."""

import os

import pytest
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given, settings, strategies as st

from keysift import gcm_ref
from keysift.errors import BadKeyLength

# Public GCM known-answer vectors (key, nonce, plaintext, aad, ciphertext||tag).
KAT_VECTORS = [
    (
        "00000000000000000000000000000000",
        "000000000000000000000000",
        "",
        "",
        "58e2fccefa7e3061367f1d57a4e7455a",
    ),
    (
        "00000000000000000000000000000000",
        "000000000000000000000000",
        "00000000000000000000000000000000",
        "",
        "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf",
    ),
    (
        "feffe9928665731c6d6a8f9467308308",
        "cafebabefacedbaddecaf888",
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        "feedfacedeadbeeffeedfacedeadbeefabaddad2",
        "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
        "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
        "5bc94fbc3221a5db94fae95ae7121a47",
    ),
    (
        "0000000000000000000000000000000000000000000000000000000000000000",
        "000000000000000000000000",
        "",
        "",
        "530f8afbc74536b9a963b4f1c4cb738b",
    ),
    (
        "0000000000000000000000000000000000000000000000000000000000000000",
        "000000000000000000000000",
        "00000000000000000000000000000000",
        "",
        "cea7403d4d606b6e074ec5d3baf39d18d0d1c8a799996bf0265b98b5d48ab919",
    ),
    (
        "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308",
        "cafebabefacedbaddecaf888",
        "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
        "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        "feedfacedeadbeeffeedfacedeadbeefabaddad2",
        "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
        "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662"
        "76fc6ece0f4e1768cddf8853bb2d551b",
    ),
]


@pytest.mark.parametrize("key,nonce,plaintext,aad,expected", KAT_VECTORS)
def test_known_answer_vectors(key, nonce, plaintext, aad, expected):
    sealed = gcm_ref.seal(
        bytes.fromhex(key), bytes.fromhex(nonce), bytes.fromhex(plaintext), bytes.fromhex(aad)
    )
    assert sealed.hex() == expected


@pytest.mark.parametrize("key,nonce,plaintext,aad,expected", KAT_VECTORS)
def test_open_inverts_known_vectors(key, nonce, plaintext, aad, expected):
    key, nonce, plaintext, aad = (bytes.fromhex(value) for value in (key, nonce, plaintext, aad))
    assert AESGCM(key).decrypt(nonce, gcm_ref.seal(key, nonce, plaintext, aad), aad) == plaintext


def test_empty_plaintext_is_tag_only():
    sealed = gcm_ref.seal(bytes(16), bytes(12), b"", b"")
    assert len(sealed) == 16


def test_tamper_detection():
    key, nonce = bytes(16), bytes(12)
    sealed = bytearray(gcm_ref.seal(key, nonce, b"payload", b"aad"))
    sealed[0] ^= 1
    with pytest.raises(InvalidTag):
        AESGCM(key).decrypt(nonce, bytes(sealed), b"aad")
    with pytest.raises(InvalidTag):
        AESGCM(key).decrypt(nonce, gcm_ref.seal(key, nonce, b"payload", b"aad"), b"other")


def test_bad_key_length():
    with pytest.raises(BadKeyLength):
        gcm_ref.seal(bytes(24), bytes(12), b"", b"")


@pytest.mark.parametrize("nonce_len", [8, 16])
def test_nonce_other_than_12_bytes_is_refused(nonce_len):
    # only a 12-byte nonce makes J0 = nonce || 1; any other would need GHASH of the nonce
    with pytest.raises(ValueError, match="12 bytes"):
        gcm_ref.seal(bytes(16), bytes(nonce_len), b"", b"")


def test_selfcheck_runs():
    gcm_ref._selfcheck()
    assert gcm_ref._checked


@settings(max_examples=40, deadline=None)
@given(
    key=st.sampled_from([16, 32]).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
    nonce=st.binary(min_size=12, max_size=12),
    plaintext=st.binary(max_size=200),
    aad=st.binary(max_size=40),
)
def test_agrees_with_cryptography_library(key, nonce, plaintext, aad):
    ours = gcm_ref.seal(key, nonce, plaintext, aad)
    theirs = AESGCM(key).encrypt(nonce, plaintext, aad)
    assert ours == theirs
    assert AESGCM(key).decrypt(nonce, ours, aad) == plaintext


def test_random_roundtrip_smoke():
    for _ in range(10):
        key = os.urandom(32)
        nonce = os.urandom(12)
        plaintext = os.urandom(333)
        sealed = gcm_ref.seal(key, nonce, plaintext, b"hdr")
        assert AESGCM(key).decrypt(nonce, sealed, b"hdr") == plaintext
