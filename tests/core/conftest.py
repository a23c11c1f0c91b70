"""Core-test fixtures: a handler stack without TLS/network/RSA overhead."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import pytest

from repro.core.access_control import AccessControl
from repro.core.authz import build_backend
from repro.core.cache import MetadataCache
from repro.core.file_manager import TrustedFileManager
from repro.core.locks import LockManager
from repro.core.request_handler import RequestHandler
from repro.core.requests import Op, Response
from repro.core.rollback import FileSystemAnchor, FlatStoreGuard, RollbackGuard
from repro.sgx.enclave import Enclave
from repro.storage.stores import StoreSet
from tests.support.platform import engine_for, loaded_enclave
from tests.support.requests import request

ROOT_KEY = bytes(range(32))


@dataclass
class HandlerWorld:
    stores: StoreSet
    manager: TrustedFileManager
    access: AccessControl
    handler: RequestHandler
    enclave: Enclave
    locks: LockManager
    guard: RollbackGuard | None = None
    group_guard: FlatStoreGuard | None = None

    def request(self, user_id: str, op: Op, *args: str) -> Response:
        """:func:`tests.support.requests.request` on this world's handler."""
        return request(self.handler, user_id, op, *args)


def build_world(
    hide_paths: bool = False,
    enable_dedup: bool = False,
    rollback: bool = False,
    buckets: int = 16,
    stores: StoreSet | None = None,
    authz: str = "enclave_acl",
    cache_bytes: int | None = None,
) -> HandlerWorld:
    """A request-handler stack with selectable extensions."""
    stores = stores or StoreSet.in_memory()
    enclave = loaded_enclave()
    cache = MetadataCache(cache_bytes, enclave.platform.epc) if cache_bytes else None
    manager = TrustedFileManager(
        engine_for(stores, enclave, cache=cache),
        ROOT_KEY,
        enclave,
        hide_paths=hide_paths,
        enable_dedup=enable_dedup,
    )
    access = build_backend(authz, manager, enclave)
    locks = LockManager(enclave.platform.clock)
    handler = RequestHandler(manager, access, locks)
    guard = group_guard = None
    if rollback:
        anchor = FileSystemAnchor(manager, enclave, locks)
        guard = RollbackGuard(manager, ROOT_KEY, anchor, buckets=buckets)
        manager.content.guard = guard
        group_guard = FlatStoreGuard(manager, ROOT_KEY, anchor, buckets=buckets)
        manager.group.guard = group_guard
        anchor.boot()
    return HandlerWorld(
        stores=stores,
        manager=manager,
        access=access,
        handler=handler,
        enclave=enclave,
        locks=locks,
        guard=guard,
        group_guard=group_guard,
    )


@pytest.fixture()
def numbered_objects(monkeypatch):
    """Object ids 0, 1, 2, ... instead of tagged random ones: for known
    answers.  Platform ids draw from the same count."""
    serial = itertools.count()
    monkeypatch.setattr(
        "repro.core.dedup.secrets.token_hex", lambda nbytes: "%0*x" % (2 * nbytes, next(serial))
    )
    monkeypatch.setattr("repro.core.dedup.object_prefix", lambda writer: "obj:")
    monkeypatch.setattr("repro.core.dedup.secrets.token_urlsafe", lambda nbytes: "%032x" % next(serial))


@pytest.fixture()
def make_world():
    """Factory fixture: :func:`build_world`."""
    return build_world


@pytest.fixture()
def world(make_world) -> HandlerWorld:
    return make_world()
