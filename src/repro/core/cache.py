"""Enclave-resident authenticated metadata cache.

Every request pays a metadata tax: ``auth_f`` re-fetches and re-decrypts
the file's ACL (and its parent's, under inheritance), the user's member
list, and the group list through the protected file system — a 4 KiB
chunked decrypt plus chunk-tag verification each time — and the rollback
guards re-read and re-verify node objects on both reads and writes.  The
paper's core performance claim (Fig. 3/4: enclave-side authorization
adds only small constant overhead per request) demands that this
repeated work be amortized, and IBBE-SGX (Contiu et al., PAPERS.md)
shows the standard trick: keep hot, already-verified group-access state
*inside* the trusted boundary.

:class:`MetadataCache` is a size-bounded LRU over *decrypted,
integrity-verified* plaintext objects, living in enclave memory and
charged against the EPC model so the simulation stays faithful to
paging costs.  Entries are namespaced:

* ``content`` — content-store plaintext (directory files, ACLs, content
  records) that passed the full read path (PFS decrypt + tag digest +
  rollback-guard verification) or was just written by this enclave;
* ``node`` / ``gnode`` — serialized rollback-guard nodes and anchors;
* ``group`` — group-store plaintext (group list, member lists, quota
  records);
* ``dedup`` — the serialized deduplication index.

An entry's *slot* holds the object decoded from its bytes, the enclave's
one memo of decoded metadata; it goes whenever its entry goes.

Security argument (docs/PERF.md §3): the cache never creates a new
information flow — it holds plaintext the enclave was already entitled
to hold, in memory the attacker cannot read (EPC), and an entry is only
created from (a) bytes this enclave itself just wrote, or (b) bytes
that passed the same verification an uncached read performs.  Serving a
read from enclave memory is therefore at least as fresh as a verified
read from untrusted storage.  The one obligation the cache *adds* is
coherence: a stale entry must never outlive a rolled-back write, an
enclave restart, a root-key transfer, or a backup restore — which is
why every one of those paths calls :meth:`MetadataCache.clear` (the
cache-coherence test suite and the crash matrix prove it).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sgx.epc import EpcModel

#: Default bound for one entry: larger objects (a directory file of a
#: huge directory, a long ACL) bypass the cache rather than evicting all
#: hot metadata.
DEFAULT_MAX_ENTRY_FRACTION = 8

#: A slot: the decoder and what it made of the entry's bytes.
Slot = tuple[Callable[[bytes], Any], Any]


class _Entry:
    __slots__ = ("value", "slot")

    def __init__(self, value: bytes, slot: "Slot | None") -> None:
        self.value = value
        self.slot = slot


@dataclass
class CacheStats:
    """Counters exposed on ``SeGShareServer.stats()``."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    invalidations: int = 0
    oversize_skips: int = 0
    current_bytes: int = 0
    #: Cumulative bytes ever charged to the EPC model on behalf of the cache.
    epc_charged_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> dict:
        data = asdict(self)
        data["hit_rate"] = round(self.hit_rate, 4)
        return data


class MetadataCache:
    """Size-bounded, EPC-charged LRU of verified metadata plaintext.

    ``capacity_bytes`` bounds the sum of entry sizes; the oldest entries
    are evicted (and their EPC accounting released) when an insertion
    overflows it.  ``epc`` is the owning platform's EPC model; every
    resident byte is a real enclave allocation there, so an oversized
    cache honestly pays paging costs instead of pretending memory is
    free.

    Lock-ordering discipline: the cache's internal lock is a *leaf*
    lock.  Request threads already hold their LockManager path locks
    (and possibly guard shard locks) when they reach the cache; the
    cache lock is always acquired after those and nothing is ever
    acquired while holding it — no callback, store access, or
    LockManager call happens inside a locked cache method body beyond
    EPC accounting.  Taking a path lock while holding the cache lock
    would invert the order and deadlock against a concurrent request.
    """

    def __init__(
        self,
        capacity_bytes: int,
        epc: "EpcModel",
        max_entry_bytes: int | None = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("cache capacity must be positive")
        self._capacity = capacity_bytes
        self._max_entry = min(
            capacity_bytes,
            max_entry_bytes
            if max_entry_bytes is not None
            else max(4096, capacity_bytes // DEFAULT_MAX_ENTRY_FRACTION),
        )
        self._epc = epc
        self._entries: "OrderedDict[tuple[str, str], _Entry]" = OrderedDict()
        # Leaf lock (see class docstring): reentrant so EPC-charging
        # helpers may be called from already-locked public methods.
        self._lock = threading.RLock()
        self.stats = CacheStats()

    # -- queries -----------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, namespace: str, key: str, decode: "Callable[[bytes], Any] | None" = None) -> Any:
        """The entry's plaintext, or with ``decode`` what it made of it (the
        slot, shared: copy before changing it); None, uncounted, if absent.
        A hit refreshes LRU order."""
        with self._lock:
            entry = self._entries.get((namespace, key))
            if entry is None:
                return None
            self._entries.move_to_end((namespace, key))
            self.stats.hits += 1
            # A hit is not free: the bytes are copied out of (MEE-decrypted)
            # EPC memory, and an oversized cache pays paging on top.
            self._epc.touch(len(entry.value))
            self._epc.clock.charge(
                len(entry.value) / self._epc.costs.enclave_memcpy_bytes_per_second,
                account="metadata-cache",
            )
        if decode is None:
            return entry.value
        # Outside the lock: the entry's bytes never change, so whichever
        # thread fills the slot fills it with what those bytes decode to.
        slot = entry.slot
        if slot is None or slot[0] != decode:
            slot = entry.slot = decode, decode(entry.value)
        return slot[1]

    def missed(self) -> None:  # a reader found the value in storage, not here
        with self._lock:
            self.stats.misses += 1

    def contains(self, namespace: str, key: str) -> bool:
        """Membership without touching hit/miss counters or LRU order."""
        with self._lock:
            return (namespace, key) in self._entries

    # -- mutation ----------------------------------------------------------------

    def put(self, namespace: str, key: str, value: bytes, slot: "Slot | None" = None) -> None:
        """Insert or replace an entry (write-through callers, verified reads).

        ``slot`` is a decoder and what it makes of ``value``.  Oversized
        values are *not* cached — and any smaller stale entry under the same
        key is dropped, so the cache can never serve an old version of a
        value that outgrew it.
        """
        with self._lock:
            if len(value) > self._max_entry:
                self.discard(namespace, key)
                self.stats.oversize_skips += 1
                return
            full_key = (namespace, key)
            old = self._entries.pop(full_key, None)
            if old is not None:
                self._release(len(old.value))
            self._entries[full_key] = _Entry(value, slot)
            self._charge(len(value))
            self.stats.insertions += 1
            while self.stats.current_bytes > self._capacity and self._entries:
                _, evicted = self._entries.popitem(last=False)
                self._release(len(evicted.value))
                self.stats.evictions += 1

    def apply(self, entries: "Iterable[tuple[str, str, bytes, Slot | None]]") -> None:
        """Batched write-through: insert committed values in one locked pass.

        The storage engine calls this at transaction commit with the
        span's deferred write-backs (already coalesced to one value per
        key), so a concurrent reader sees the whole batch or none of it.
        """
        with self._lock:
            for namespace, key, value, slot in entries:
                self.put(namespace, key, value, slot)

    def discard(self, namespace: str, key: str) -> None:
        """Drop one entry (file deletions)."""
        with self._lock:
            old = self._entries.pop((namespace, key), None)
            if old is not None:
                self._release(len(old.value))

    def clear(self) -> None:
        """Strict invalidation: journal rollback, restore, key transfer.

        Releases every byte from the EPC accounting; the next reads
        repopulate from (verified) storage.
        """
        with self._lock:
            self._release(self.stats.current_bytes)
            self._entries.clear()
            self.stats.invalidations += 1

    # -- EPC accounting -----------------------------------------------------------

    def _charge(self, nbytes: int) -> None:
        self.stats.current_bytes += nbytes
        self.stats.epc_charged_bytes += nbytes
        self._epc.alloc_cache(nbytes)

    def _release(self, nbytes: int) -> None:
        self.stats.current_bytes -= nbytes
        self._epc.free_cache(nbytes)
