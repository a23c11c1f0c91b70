"""Deterministic N-way shard routing over untrusted backends.

The ROADMAP north star is a deployment serving millions of users, which
no single cloud bucket serves well; related systems make the same move
(IBBE-SGX partitions group metadata to keep revocation sub-linear,
Commune spreads shared state across agnostic cloud backends).  The
router is *host-side* machinery: placement must not depend on any
enclave secret, because the provider re-derives it to find an object —
so keys are placed by HMAC-SHA256 under a fixed, public placement key
(the HMAC only flattens adversarial key distributions; it hides
nothing).  The enclave's own protections (encryption, Merkle trees,
rollback guards) are what make the backends untrusted-but-safe, which is
exactly why the enclave never needs to know how many shards exist:
``StoreSet.sharded()`` yields the same interface as one backend, and the
shard-count invariance property test pins that equivalence.
"""

from __future__ import annotations

import hashlib
import hmac
import threading
from typing import Any, Iterator, Sequence

from repro.errors import StorageError
from repro.storage.backends import UntrustedStore

#: Fixed, public placement key.  Not a secret: it only decorrelates
#: placement from attacker-chosen key strings.
_PLACEMENT_KEY = b"segshare-shard-placement-v1"


class ShardedStore(UntrustedStore):
    """An :class:`UntrustedStore` over N backends with deterministic placement.

    Each key maps to one shard via HMAC; the mapping is stable across
    processes and independent of shard contents, so any party holding
    the (public) placement key can locate an object.  The write-ahead
    journal above this layer is what makes multi-key operations atomic,
    not the router.
    """

    def __init__(self, backends: Sequence[UntrustedStore]) -> None:
        if not backends:
            raise ValueError("ShardedStore needs at least one backend")
        self._backends = tuple(backends)
        self._lock = threading.Lock()
        self._ops = [
            {"puts": 0, "gets": 0, "deletes": 0, "put_bytes": 0}
            for _ in self._backends
        ]

    def __len__(self) -> int:
        return len(self._backends)

    def shard_index(self, key: str) -> int:
        """The shard holding ``key`` — public, deterministic placement."""
        digest = hmac.new(_PLACEMENT_KEY, key.encode("utf-8"), hashlib.sha256).digest()
        return int.from_bytes(digest[:8], "big") % len(self._backends)

    def _shard(self, key: str) -> tuple[UntrustedStore, dict[str, int]]:
        index = self.shard_index(key)
        return self._backends[index], self._ops[index]

    def put(self, key: str, value: bytes) -> None:
        shard, ops = self._shard(key)
        shard.put(key, value)
        with self._lock:
            ops["puts"] += 1
            ops["put_bytes"] += len(value)

    def get(self, key: str) -> bytes:
        shard, ops = self._shard(key)
        value = shard.get(key)
        with self._lock:
            ops["gets"] += 1
        return value

    def put_range(self, key: str, offset: int, blobs: Sequence[bytes]) -> None:
        # Placed by its key, like any value: a ranged value lives whole on one shard.
        shard, ops = self._shard(key)
        shard.put_range(key, offset, blobs)
        with self._lock:
            ops["puts"] += 1
            ops["put_bytes"] += sum(map(len, blobs))

    def get_range(self, key: str, offset: int, length: int) -> bytes:
        shard, ops = self._shard(key)
        value = shard.get_range(key, offset, length)
        with self._lock:
            ops["gets"] += 1
        return value

    def delete(self, key: str) -> None:
        shard, ops = self._shard(key)
        shard.delete(key)
        with self._lock:
            ops["deletes"] += 1

    def exists(self, key: str) -> bool:
        shard, _ = self._shard(key)
        return shard.exists(key)

    def keys(self) -> Iterator[str]:
        for shard in self._backends:
            yield from shard.keys()

    def scan(self, prefix: str) -> Iterator[str]:
        for shard in self._backends:
            yield from shard.scan(prefix)

    def size(self, key: str) -> int:
        shard, _ = self._shard(key)
        return shard.size(key)

    def total_bytes(self) -> int:
        return sum(shard.total_bytes() for shard in self._backends)

    # -- backup (§V-G): delegate to the shards ------------------------------

    def snapshot(self) -> list[Any]:
        """Per-shard snapshots, in shard order."""
        snapshots = []
        for index, shard in enumerate(self._backends):
            take = getattr(shard, "snapshot", None)
            if take is None:
                raise StorageError(f"shard {index} does not support snapshots")
            snapshots.append(take())
        return snapshots

    def restore(self, snapshots: Sequence[Any]) -> None:
        if len(snapshots) != len(self._backends):
            raise StorageError(
                f"snapshot has {len(snapshots)} shards, store has {len(self._backends)}"
            )
        for index, (shard, snap) in enumerate(zip(self._backends, snapshots)):
            restore = getattr(shard, "restore", None)
            if restore is None:
                raise StorageError(f"shard {index} does not support restore")
            restore(snap)

    # -- observability -------------------------------------------------------

    def stats(self) -> dict:
        """Per-shard op counters and object distribution."""
        with self._lock:
            ops = [dict(counters) for counters in self._ops]
        objects = [sum(1 for _ in shard.keys()) for shard in self._backends]
        return {"shards": len(self._backends), "ops": ops, "objects": objects}
