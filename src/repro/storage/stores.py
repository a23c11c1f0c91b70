"""SeGShare's store layout: content, group, and deduplication stores.

Section IV-B separates files into a *content store* (content files,
directory files, and their ACLs) and a *group store* (the group list and
per-user member lists); Section V-A adds the *deduplication store*.  The
separation "adds an extra layer of security and improves performance as
file, directory, and permission operations are independent of group
operations" — here it is realized as three key prefixes over one
untrusted backend, each of which can also be given its own backend (the
replication setup does that with a shared central repository), or spread
across N backends through :class:`repro.store.ShardedStore`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.storage.backends import InMemoryStore, UntrustedStore


class PrefixedStore(UntrustedStore):
    """A namespaced view of another store."""

    def __init__(self, inner: UntrustedStore, prefix: str) -> None:
        self._inner = inner
        self._prefix = prefix

    def _k(self, key: str) -> str:
        return self._prefix + key

    def put(self, key: str, value: bytes) -> None:
        self._inner.put(self._k(key), value)

    def get(self, key: str) -> bytes:
        return self._inner.get(self._k(key))

    def put_range(self, key: str, offset: int, blobs: Sequence[bytes]) -> None:
        self._inner.put_range(self._k(key), offset, blobs)

    def get_range(self, key: str, offset: int, length: int) -> bytes:
        return self._inner.get_range(self._k(key), offset, length)

    def delete(self, key: str) -> None:
        self._inner.delete(self._k(key))

    def exists(self, key: str) -> bool:
        return self._inner.exists(self._k(key))

    def keys(self) -> Iterator[str]:
        # scan() lets an indexed backend answer from its key index instead
        # of filtering every other namespace's keys through this view.
        for key in self._inner.scan(self._prefix):
            yield key[len(self._prefix) :]

    def scan(self, prefix: str) -> Iterator[str]:
        for key in self._inner.scan(self._prefix + prefix):
            yield key[len(self._prefix) :]

    def size(self, key: str) -> int:
        return self._inner.size(self._k(key))


@dataclass
class StoreSet:
    """The three stores a SeGShare deployment uses.

    ``router`` is set when all three are views over one shared physical
    store (a central repository or a shard fan-out); backup and stats
    code then addresses that store once instead of per member.
    """

    content: UntrustedStore
    group: UntrustedStore
    dedup: UntrustedStore
    router: UntrustedStore | None = field(default=None, compare=False)

    @classmethod
    def in_memory(cls) -> "StoreSet":
        """Three independent in-memory stores."""
        return cls(content=InMemoryStore(), group=InMemoryStore(), dedup=InMemoryStore())

    @classmethod
    def over(cls, backend: UntrustedStore) -> "StoreSet":
        """Three prefixed views over one shared backend (central repository)."""
        return cls(
            content=PrefixedStore(backend, "content/"),
            group=PrefixedStore(backend, "group/"),
            dedup=PrefixedStore(backend, "dedup/"),
            router=backend,
        )

    @classmethod
    def sharded(cls, backends: Sequence[UntrustedStore]) -> "StoreSet":
        """Three prefixed views over an N-way shard router."""
        from repro.store import ShardedStore

        return cls.over(ShardedStore(backends))
