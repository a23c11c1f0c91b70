"""Core-test fixtures: a handler stack without TLS/network/RSA overhead."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.core.access_control import AccessControl
from repro.core.authz import build_backend
from repro.core.file_manager import TrustedFileManager
from repro.core.request_handler import RequestHandler
from repro.core.rollback import FlatStoreGuard, RollbackGuard
from repro.storage.stores import StoreSet

ROOT_KEY = bytes(range(32))


@dataclass
class HandlerWorld:
    stores: StoreSet
    manager: TrustedFileManager
    access: AccessControl
    handler: RequestHandler
    guard: RollbackGuard | None = None
    group_guard: FlatStoreGuard | None = None


@pytest.fixture()
def make_world():
    """Factory for a request-handler stack with selectable extensions."""

    def factory(
        hide_paths: bool = False,
        enable_dedup: bool = False,
        rollback: bool = False,
        buckets: int = 16,
        stores: StoreSet | None = None,
        authz: str = "enclave_acl",
    ) -> HandlerWorld:
        stores = stores or StoreSet.in_memory()
        manager = TrustedFileManager(
            stores, ROOT_KEY, hide_paths=hide_paths, enable_dedup=enable_dedup
        )
        access = build_backend(authz, manager)
        handler = RequestHandler(manager, access)
        guard = group_guard = None
        if rollback:
            guard = RollbackGuard(manager, ROOT_KEY, buckets=buckets)
            manager.guard = guard
            group_guard = FlatStoreGuard(manager, ROOT_KEY, buckets=buckets)
            manager.group_guard = group_guard
        return HandlerWorld(
            stores=stores,
            manager=manager,
            access=access,
            handler=handler,
            guard=guard,
            group_guard=group_guard,
        )

    return factory


@pytest.fixture()
def world(make_world) -> HandlerWorld:
    return make_world()
