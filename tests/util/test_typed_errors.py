"""Every decoder fails typed: mangled input raises the codec's or its own error.

The attacker owns the store and the network, so every decoder sees bytes it
did not write.  Whatever those bytes are — a valid encoding cut short, with a
bit flipped, or with junk appended — a decoder either returns a value or
raises :class:`SerializationError` or its own typed error (``TlsError``,
``RequestError``, ``ProtectedFsError``), never ``struct.error``,
``IndexError``, ``KeyError`` or ``UnicodeDecodeError``.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acl import AclFile, GroupListFile, MemberListFile
from repro.core.coherence import CoherenceManager
from repro.core.dedup import decode_record
from repro.core.journal import EpochRecord
from repro.core.requests import AclInfo, QuotaInfo, Request, Response, StatInfo
from repro.core.rollback import RollbackGuard
from repro.crypto.mset_hash import MSetXorBuckets, Prf
from repro.errors import ProtectedFsError, RequestError, TlsError
from repro.fsmodel.directory import DirectoryFile
from repro.sgx.protected_fs import _Meta
from repro.tls import channel, records
from repro.util.serialization import SerializationError

from tests.util.test_golden_bytes import _KEY, CORPUS

TYPED = (SerializationError, TlsError, RequestError, ProtectedFsError)


#: decoder name -> (decode, valid encodings to mangle)
DECODERS = {
    "tls-record": (records.TlsRecord.deserialize, ["tls-record-data", "tls-record-handshake", "tls-record-alert"]),
    "message-header": (channel._parse_message_header, ["message-header-single", "message-header-stream"]),
    "pfs-meta": (_Meta.deserialize, ["pfs-meta", "pfs-meta-empty"]),
    "acl-file": (AclFile.deserialize, ["acl-file", "acl-file-empty"]),
    "member-list": (MemberListFile.deserialize, ["member-list"]),
    "group-list": (GroupListFile.deserialize, ["group-list"]),
    "directory": (DirectoryFile.deserialize, ["directory"]),
    "request": (Request.deserialize, ["request-get", "request-set-perm", "request-my-groups"]),
    "response": (Response.deserialize, ["response-ok", "response-denied", "response-unavailable"]),
    "stat-info": (StatInfo.deserialize, ["stat-info"]),
    "acl-info": (AclInfo.deserialize, ["acl-info"]),
    "quota-info": (QuotaInfo.deserialize, ["quota-info"]),
    "guard-node": (lambda data: RollbackGuard._decode_node(SimpleNamespace(_prf=Prf(_KEY)), data), ["guard-node"]),
    "mset-buckets": (
        lambda data: MSetXorBuckets.deserialize(Prf(_KEY), data),
        ["mset-buckets-sparse", "mset-buckets-full", "mset-buckets-empty"],
    ),
    "dedup-idx-record": (decode_record, ["dedup-idx-record"]),
    "coherence-entry": (lambda data: CoherenceManager._decode(None, data), ["coherence-entry"]),
    "journal-epoch": (EpochRecord.decode, ["journal-epoch"]),
}


def _valid(encoding: str | bytes) -> bytes:
    """A golden corpus entry by name, or the encoding itself."""
    return CORPUS[encoding]() if isinstance(encoding, str) else encoding


def _mangle(data: bytes, mutations: list[tuple[str, int, int, bytes]]) -> bytes:
    for kind, position, bit, junk in mutations:
        if kind == "truncate":
            data = data[: position % (len(data) + 1)]
        elif kind == "flip" and data:
            index = position % len(data)
            data = data[:index] + bytes([data[index] ^ (1 << bit)]) + data[index + 1 :]
        elif kind == "append":
            data = data + junk
    return data


MUTATIONS = st.lists(
    st.tuples(
        st.sampled_from(["truncate", "flip", "append"]),
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=0, max_value=7),
        st.binary(min_size=1, max_size=12),
    ),
    min_size=1,
    max_size=3,
)


def test_every_valid_encoding_decodes():
    for decode, encodings in DECODERS.values():
        for name in encodings:
            decode(_valid(name))


@pytest.mark.parametrize("decoder", sorted(DECODERS))
@settings(max_examples=200, deadline=None)
@given(data=st.data(), mutations=MUTATIONS)
def test_mangled_input_raises_only_typed_errors(decoder, data, mutations):
    decode, encodings = DECODERS[decoder]
    blob = _mangle(_valid(data.draw(st.sampled_from(encodings))), mutations)
    try:
        decode(blob)
    except TYPED:
        pass
