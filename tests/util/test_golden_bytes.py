"""Golden bytes: every record type encodes to exactly the bytes it always has.

Hashes, MACs, GCM tags and every stored object are computed over these
encodings, so a codec change that moves one byte would silently re-key the
guard tree, invalidate sealed state and shift every stored-bytes metric.
Each corpus entry builds one record from fixed values; the expected hex was
captured from the codec before its single-frame rewrite.
"""

from __future__ import annotations

from unittest import mock

import pytest

from repro.core.acl import AclFile, GroupListFile, MemberListFile
from repro.core.coherence import CoherenceManager
from repro.core.dedup import DedupStore
from repro.core.journal import TAG_CONTENT, TAG_GROUP, EpochRecord
from repro.core.model import Permission
from repro.core.requests import AclInfo, Op, QuotaInfo, Request, Response, StatInfo, Status
from repro.core.rollback import RollbackGuard, _Node
from repro.crypto.mset_hash import MSetXorBuckets, Prf
from repro.fsmodel.directory import DirectoryFile
from repro.netsim import SimClock
from repro.sgx.protected_fs import ProtectedFs, _Meta
from repro.storage.backends import InMemoryStore
from repro.storage.stores import StoreSet
from repro.tls import channel, records
from repro.tls.handshake import SessionKeys
from repro.tls.session import TlsSession
from repro.util.serialization import Writer

from tests.support.platform import engine_for, loaded_enclave

_KEY = bytes(range(32))


def _primitives() -> bytes:
    return (
        Writer()
        .u8(0).u8(0xFF)
        .u32(0).u32(1).u32(0xFFFFFFFF)
        .u64(0).u64(0x0102030405060708).u64(0xFFFFFFFFFFFFFFFF)
        .bool(False).bool(True)
        .bytes(b"").bytes(b"\x00\xffab")
        .str("").str("grüße/été")
        .str_list([]).str_list(["a", "", "ü"])
        .raw(b"tail")
        .take()
    )


def _aad(is_client: bool, sending: bool, seq: int) -> bytes:
    session = TlsSession(SessionKeys(bytes(16), bytes(16)), is_client=is_client, clock=SimClock())
    return session._aad(sending=sending, seq=seq)


def _acl() -> bytes:
    acl = AclFile()
    acl.inherit = True
    acl.accounted_user = "alice"
    acl.accounted_size = 4096
    acl.add_owner("g:owners")
    acl.add_owner("alice")
    acl.set_permission("bob", frozenset({Permission.READ}))
    acl.set_permission("g:team", frozenset({Permission.READ, Permission.WRITE}))
    acl.set_permission("eve", frozenset({Permission.DENY}))
    return acl.serialize()


def _group_list() -> bytes:
    groups = GroupListFile()
    groups.create("g:team", "alice")
    groups.add_owner("g:team", "g:admins")
    groups.create("g:admins", "root")
    return groups.serialize()


def _buckets(full: bool) -> MSetXorBuckets:
    buckets = MSetXorBuckets.empty(Prf(_KEY), 12)
    for index in range(12) if full else (0, 5, 11):
        buckets.update(index, None, bytes([index]) * 32)
    return buckets


def _guard_node() -> bytes:
    node = _Node("/docs", bytes(range(32, 64)), _buckets(full=False))
    return RollbackGuard._encode_node(None, node)


def _dedup_world() -> tuple[DedupStore, ProtectedFs, str]:
    """A dedup store holding one object with two references, and its name."""
    store = InMemoryStore()
    enclave = loaded_enclave()
    engine = engine_for(StoreSet(InMemoryStore(), InMemoryStore(), store), enclave)
    pfs = ProtectedFs(store, master_key=bytes(16), enclave=enclave)
    dedup = DedupStore(pfs, _KEY, engine)
    with mock.patch("repro.core.dedup.object_prefix", lambda writer: "obj:"), mock.patch(
        "secrets.token_urlsafe", lambda n: "5a" * 16
    ):
        name = dedup.put(b"same bytes")
    dedup.put(b"same bytes")
    return dedup, pfs, name


def _dedup_record() -> bytes:
    _, pfs, name = _dedup_world()
    return pfs.read_file("idx:" + name)


def _journal_epoch() -> bytes:
    """A member's redo record: roots, counter, an intent, a part and writes."""
    writes = ((TAG_GROUP, "present", b"\x01\x02\x03"), (TAG_CONTENT, "gone", None))
    parts = ("\x00journal:part:w:00000000",)
    return EpochRecord("golden", 2, 7, bytes(32), b"", ("obj:1",), parts, writes).encode()


CORPUS = {
    "primitives": _primitives,
    "tls-record-handshake": lambda: records.handshake_record(b"hello"),
    "tls-record-data": lambda: records.data_record(b"\x00" * 5),
    "tls-record-alert": lambda: records.alert_record("bad mac"),
    "tls-aad-client-send": lambda: _aad(is_client=True, sending=True, seq=0),
    "tls-aad-server-send": lambda: _aad(is_client=False, sending=True, seq=2**40 + 7),
    "tls-aad-client-recv": lambda: _aad(is_client=True, sending=False, seq=3),
    "message-header-single": lambda: channel._message_header(0, b"payload", 0, 0),
    "message-header-stream": lambda: channel._message_header(1, b"hdr", 17, 17 * 65536 - 3),
    "pfs-meta": lambda: _Meta(size=70000, chunk_count=18, tag_digest=bytes(range(32)), head=b"chunk zero").serialize(),
    "pfs-meta-empty": lambda: _Meta(size=0, chunk_count=1, tag_digest=b"", head=b"").serialize(),
    "acl-file": _acl,
    "acl-file-empty": lambda: AclFile().serialize(),
    "member-list": lambda: MemberListFile.deserialize(Writer().str_list(["g:b", "g:a"]).take()).serialize(),
    "group-list": _group_list,
    "directory": lambda: DirectoryFile(["/d/b", "/d/a", "/d/é"]).serialize(),
    "request-get": lambda: Request(Op.GET, ("/docs/report.txt",)).serialize(),
    "request-set-perm": lambda: Request(Op.SET_PERM, ("/f", "g:team", "rw")).serialize(),
    "request-my-groups": lambda: Request(Op.MY_GROUPS).serialize(),
    "response-ok": lambda: Response.ok("done", b"\x01\x02", ("a", "b")).serialize(),
    "response-denied": lambda: Response.denied().serialize(),
    "response-unavailable": lambda: Response(Status.UNAVAILABLE, "read-only").serialize(),
    "stat-info": lambda: StatInfo(is_dir=False, size=65536, owners=("alice", "g:x"), inherit=True).serialize(),
    "acl-info": lambda: AclInfo(owners=("alice",), entries=(("bob", "r"), ("eve", "deny")), inherit=False).serialize(),
    "quota-info": lambda: QuotaInfo(used=12345, limit=2**33).serialize(),
    "guard-node": _guard_node,
    "mset-buckets-sparse": lambda: _buckets(full=False).serialize(),
    "mset-buckets-full": lambda: _buckets(full=True).serialize(),
    "mset-buckets-empty": lambda: MSetXorBuckets.empty(Prf(_KEY), 12).serialize(),
    "dedup-idx-record": _dedup_record,
    "coherence-entry": lambda: CoherenceManager._encode(None, 1, "put /f", [("acl", "/f"), ("dedup", "ab" * 32)]),
    "journal-epoch": _journal_epoch,
}

GOLDEN = {
    'acl-file': '0100000005616c69636500000000000010000000000200000005616c69636500000008673a6f776e6572730000000300000003626f6201000000036576650400000006673a7465616d03',
    'acl-file-empty': '000000000000000000000000000000000000000000',
    'acl-info': '0000000100000005616c6963650000000200000003626f620000000172000000036576650000000464656e7900',
    'coherence-entry': '0000000100000006707574202f66000000020000000361636c000000022f660000000564656475700000004061626162616261626162616261626162616261626162616261626162616261626162616261626162616261626162616261626162616261626162616261626162',
    'dedup-idx-record': '000000246f626a3a356135613561356135613561356135613561356135613561356135613561356100000002',
    'directory': '00000003000000042f642f61000000042f642f62000000052f642fc3a9',
    'group-list': '0000000200000008673a61646d696e730000000100000004726f6f7400000006673a7465616d0000000200000005616c69636500000008673a61646d696e73',
    'guard-node': '000000052f646f637300000020202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f0000000c2108416c5392b9f36df188e90eb14d17bf0da190bfdb7f1f4956e6e566a569c8b15c00000000000000012be5374ae8632b431d727f0100b727dd3e7884247c8ca516967c0789a13e37260000000000000001659ba8c3d9f07f8e036f5e1b722d11961642474f6b573ebeba1506a7e277b4a60000000000000001',
    'journal-epoch': '00000006676f6c64656e0000000200000000000000070000002000000000000000000000000000000000000000000000000000000000000000000000000000000001000000056f626a3a310000000100000018006a6f75726e616c3a706172743a773a303030303030303000000002010000000770726573656e7401000000030102030000000004676f6e650000000000',
    'member-list': '0000000200000003673a6100000003673a62',
    'message-header-single': '00000000000000000000000000000000077061796c6f6164',
    'message-header-stream': '0100000011000000000010fffd00000003686472',
    'mset-buckets-empty': '0000000c0000',
    'mset-buckets-full': '0000000cff0f416c5392b9f36df188e90eb14d17bf0da190bfdb7f1f4956e6e566a569c8b15c0000000000000001adfcafc560845b34a66a0ae033ad1fc7b43663548856e4be3cc9e01c1e6e10000000000000000001591e135c72153a8234a6530701e17242a6c6b43bc82e09537eb306e63424908a0000000000000001ffc41f37f16940d49cac2ba6312af410451825b970bc34ed697a5dc07c3a69f300000000000000013472a9069318294ef2319076ba72b90fbc291d9345a7d72dd6ed9a63402c825c00000000000000012be5374ae8632b431d727f0100b727dd3e7884247c8ca516967c0789a13e37260000000000000001b7983cc3ef1f6a8f898e5d25e51283c46f10d1d152b631c4fbb664d46d283b2a00000000000000014739c539ce943412ce955fa24934a7f0333aeb68821c7f2f499d45bc930fafeb0000000000000001c94f3f10dcb939209a92c2271df8f1e0786790779ffe168d6ff8cad1eb3d76fe0000000000000001d3c57b60888976c1e60e11ce0947424e3cff64ec777c48ddc2979ee211d0b9c5000000000000000176b348772054ab563c2943e44e92f4b0eb0e8cbd2285e5ebb9d9be0238aadb830000000000000001659ba8c3d9f07f8e036f5e1b722d11961642474f6b573ebeba1506a7e277b4a60000000000000001',
    'mset-buckets-sparse': '0000000c2108416c5392b9f36df188e90eb14d17bf0da190bfdb7f1f4956e6e566a569c8b15c00000000000000012be5374ae8632b431d727f0100b727dd3e7884247c8ca516967c0789a13e37260000000000000001659ba8c3d9f07f8e036f5e1b722d11961642474f6b573ebeba1506a7e277b4a60000000000000001',
    'pfs-meta': '00000000000111700000001200000020000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f0000000a6368756e6b207a65726f',
    'pfs-meta-empty': '0000000000000000000000010000000000000000',
    'primitives': '00ff0000000000000001ffffffff00000000000000000102030405060708ffffffffffffffff0001000000000000000400ff6162000000000000000d6772c3bcc39f652fc3a974c3a9000000000000000300000001610000000000000002c3bc7461696c',
    'quota-info': '00000000000030390000000200000000',
    'request-get': '0300000001000000102f646f63732f7265706f72742e747874',
    'request-my-groups': '0d00000000',
    'request-set-perm': '0600000003000000022f6600000006673a7465616d000000027277',
    'response-denied': '010000000664656e6965640000000000000000',
    'response-ok': '0000000004646f6e650000000201020000000200000001610000000162',
    'response-unavailable': '0400000009726561642d6f6e6c790000000000000000',
    'stat-info': '0000000000000100000000000200000005616c69636500000003673a7801',
    'tls-aad-client-recv': '000000037332630000000000000003',
    'tls-aad-client-send': '000000036332730000000000000000',
    'tls-aad-server-send': '000000037332630000010000000007',
    'tls-record-alert': '1500000007626164206d6163',
    'tls-record-data': '17000000050000000000',
    'tls-record-handshake': '160000000568656c6c6f',
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_encoding_is_byte_identical(name):
    assert CORPUS[name]().hex() == GOLDEN[name]


def test_every_record_has_golden_bytes():
    assert set(CORPUS) == set(GOLDEN)
