"""Unit and property tests for the canonical binary serialization."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.serialization import Reader, SerializationError, Writer


class TestFixedWidth:
    def test_u32_round_trip(self):
        for value in (0, 1, 2**31, 2**32 - 1):
            blob = Writer().u32(value).take()
            r = Reader(blob)
            assert r.u32() == value
            assert len(blob) == 4
            r.expect_end()

    def test_u64_round_trip(self):
        for value in (0, 1, 2**63, 2**64 - 1):
            blob = Writer().u64(value).take()
            r = Reader(blob)
            assert r.u64() == value
            assert len(blob) == 8
            r.expect_end()

    def test_u32_out_of_range(self):
        with pytest.raises(SerializationError):
            Writer().u32(2**32)
        with pytest.raises(SerializationError):
            Writer().u32(-1)

    def test_u64_out_of_range(self):
        with pytest.raises(SerializationError):
            Writer().u64(2**64)
        with pytest.raises(SerializationError):
            Writer().u64(-1)

    def test_truncated_u32(self):
        with pytest.raises(SerializationError):
            Reader(b"\x00\x00").u32()
        with pytest.raises(SerializationError):
            Reader(bytes(7)).u64()

    def test_big_endian_layout(self):
        assert Writer().u32(1).take() == b"\x00\x00\x00\x01"
        assert Writer().u64(0x0102030405060708).take() == bytes(range(1, 9))
        assert Writer().bytes(b"ab").take() == b"\x00\x00\x00\x02ab"
        assert Writer().str_list(["é"]).take() == b"\x00\x00\x00\x01\x00\x00\x00\x02\xc3\xa9"


class TestVariableLength:
    def test_bytes_round_trip(self):
        data = b"hello\x00world"
        blob = Writer().bytes(data).take()
        r = Reader(blob)
        assert r.bytes() == data
        assert len(blob) == 4 + len(data)
        r.expect_end()

    def test_str_round_trip(self):
        assert Reader(Writer().str("grüße/été").take()).str() == "grüße/été"

    def test_truncated_bytes(self):
        blob = Writer().bytes(b"abcdef").take()
        for cut in range(len(blob)):
            with pytest.raises(SerializationError):
                Reader(blob[:cut]).bytes()
            with pytest.raises(SerializationError):
                Reader(blob[:cut]).str()
        listed = Writer().str_list(["abc", "de"]).take()
        for cut in range(len(listed)):
            with pytest.raises(SerializationError):
                Reader(listed[:cut]).str_list()

    def test_invalid_utf8(self):
        blob = Writer().bytes(b"\xff\xfe").take()
        with pytest.raises(SerializationError):
            Reader(blob).str()
        with pytest.raises(SerializationError):
            Reader(b"\x00\x00\x00\x01" + blob).str_list()


class TestWriterReader:
    def test_mixed_round_trip(self):
        blob = (
            Writer()
            .u8(7)
            .u32(42)
            .u64(2**40)
            .bool(True)
            .str("name")
            .bytes(b"\x01\x02")
            .str_list(["a", "b", "c"])
            .raw(b"tail")
            .take()
        )
        r = Reader(blob)
        assert r.u8() == 7
        assert r.u32() == 42
        assert r.u64() == 2**40
        assert r.bool() is True
        assert r.str() == "name"
        assert r.bytes() == b"\x01\x02"
        assert r.str_list() == ["a", "b", "c"]
        assert r.raw(4) == b"tail"
        r.expect_end()

    def test_take_resets_writer(self):
        w = Writer()
        w.u32(1)
        assert w.take() == b"\x00\x00\x00\x01"
        assert w.take() == b""

    def test_expect_end_rejects_trailing(self):
        r = Reader(b"\x00\x01")
        r.u8()
        with pytest.raises(SerializationError):
            r.expect_end()

    def test_invalid_bool(self):
        with pytest.raises(SerializationError):
            Reader(b"\x02").bool()

    def test_raw_overread(self):
        with pytest.raises(SerializationError):
            Reader(b"ab").raw(3)

    def test_u8_range_checked_on_write(self):
        with pytest.raises(SerializationError):
            Writer().u8(256)


@given(st.binary(max_size=4096))
def test_bytes_encoding_is_injective_prefix(data):
    blob = Writer().bytes(data).take()
    r = Reader(blob + b"trailing")
    assert r.bytes() == data
    assert r.remaining == len(b"trailing")


@given(st.lists(st.text(max_size=50), max_size=20))
def test_str_list_round_trip(items):
    blob = Writer().str_list(items).take()
    r = Reader(blob)
    assert r.str_list() == items
    r.expect_end()


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.binary(max_size=100),
    st.text(max_size=100),
)
def test_canonical_encoding_deterministic(n, data, text):
    encode = lambda: Writer().u32(n).bytes(data).str(text).take()
    assert encode() == encode()
