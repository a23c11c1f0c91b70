"""HKDF-SHA256 (RFC 5869 test vectors) and labeled derivation."""

import pytest

from repro.crypto.kdf import derive_key, hkdf_expand, hkdf_extract


class TestRfc5869Vectors:
    def test_case_1(self):
        ikm = bytes.fromhex("0b" * 22)
        salt = bytes.fromhex("000102030405060708090a0b0c")
        info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
        prk = hkdf_extract(salt, ikm)
        assert prk.hex() == (
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        )
        okm = hkdf_expand(prk, info, 42)
        assert okm.hex() == (
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865"
        )

    def test_case_3_empty_salt_and_info(self):
        prk = hkdf_extract(b"", bytes.fromhex("0b" * 22))
        okm = hkdf_expand(prk, b"", 42)
        assert okm.hex() == (
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8"
        )


class TestExpand:
    def test_output_length_exact(self):
        prk = hkdf_extract(b"salt", b"ikm")
        for length in (1, 31, 32, 33, 64, 100):
            assert len(hkdf_expand(prk, b"info", length)) == length

    def test_too_long_rejected(self):
        with pytest.raises(ValueError):
            hkdf_expand(bytes(32), b"", 255 * 32 + 1)

    def test_info_separates_outputs(self):
        prk = hkdf_extract(b"salt", b"ikm")
        assert hkdf_expand(prk, b"a", 32) != hkdf_expand(prk, b"b", 32)


class TestDeriveKey:
    def test_deterministic(self):
        root = bytes(32)
        assert derive_key(root, "label", b"ctx") == derive_key(root, "label", b"ctx")

    def test_label_and_context_separate(self):
        root = bytes(32)
        keys = {
            derive_key(root, "a", b""),
            derive_key(root, "b", b""),
            derive_key(root, "a", b"x"),
            derive_key(root, "a\x00x", b""),  # label/context boundary matters
        }
        assert len(keys) == 4

    def test_root_key_separates(self):
        assert derive_key(bytes(32), "l") != derive_key(b"\x01" + bytes(31), "l")

    def test_length_parameter(self):
        assert len(derive_key(bytes(32), "l", length=16)) == 16
        assert len(derive_key(bytes(32), "l", length=64)) == 64


class TestKnownAnswers:
    """Keys computed by the ``hmac.new``-per-block implementation (commit
    e3ccc33): the one-shot ``hmac.digest`` rewrite must derive the same."""

    def test_file_key_default_length(self):
        key = derive_key(b"root-key-material", "segshare/file-key", b"/docs/a.txt")
        assert key.hex() == "689f0a9229c4a3868b5162f96f5be88a3e4513adac45097bf24c8f7de7bfd1cb"

    def test_pfs_file_key(self):
        key = derive_key(bytes(range(32)), "pfs/file-key", b"obj:0011", length=16)
        assert key.hex() == "1b01c89fbac19487c399ce609c887840"

    def test_multi_block_output(self):
        assert derive_key(b"k", "label", length=80).hex() == (
            "0214384c7f2295db91ce5ab92cfaca2f030ee4261648bdddbb253b613eb45bd3"
            "01fd6cfeea9c85a1fbb0586d17ccb0108a2471a62f0edf513b0fa7d8a7d3f678"
            "ce9de99ae2aee19a1688365b46b92c9b"
        )

    def test_extract_with_empty_salt_and_expand(self):
        assert hkdf_extract(b"", b"ikm").hex() == (
            "7e353801993517a0c8465d3631b3033ff18748561c5f44b159311a936706703d"
        )
        assert hkdf_expand(bytes(32), b"info", 42).hex() == (
            "d3dbc270ada4bfd42baf1210c7487eac8e021d5d9104b1aba3373d9fc6304421"
            "353e25117f2678e9b77e"
        )
