"""Cross-replica cache coherence: the enclave side of the invalidation log.

PR 2's metadata cache is sound on a single enclave because every path
that can invalidate a cached plaintext runs inside that enclave.  In a
cluster the shared repository is mutated by peers, so ``cluster_options``
used to disable the cache and the dedup index outright.  This module
wins them back with an invalidation protocol over the untrusted
:class:`repro.netsim.coherence.CoherenceBoard`:

* **Publish** — at commit, the storage engine hands the transaction's
  touched-key set here; it is serialized, PAE-encrypted with the epoch
  number bound as AAD, and placed on the board as epoch ``E+1``.  Group
  commit amortizes this exactly like the anchor write: one publish per
  epoch close, not per member.
* **Sync** — before serving from cache, a replica compares its applied
  epoch against the board counter (one untrusted int read, no ocall
  cost).  On lag it decrypts and applies the queued entries in order,
  discarding exactly the named ``(namespace, key)`` pairs.  Dedup records
  are cached like any other record (namespace ``dedup``), so a named one
  is only discarded, and read again when next used.
* **Fall back** — any anomaly (missing epoch, failed authentication,
  counter rewind, reset entry) degrades to a strict full cache discard,
  the same posture an uncached cluster is always in.  The host can
  therefore slow a replica down, never feed it stale plaintext.

Entries are encrypted rather than bare-MACed because cache keys are
logical paths: under ``hide_paths`` the host must not learn which files
a commit touched from the coherence traffic it carries.

Single-enclave deployments never construct a manager; the engine's
coherence hooks all gate on ``coherence is not None`` and the serial
code path is untouched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Tuple

from repro.crypto import default_pae, derive_key
from repro.errors import ReproError
from repro.util.serialization import Reader, Writer

if TYPE_CHECKING:
    from repro.netsim.coherence import CoherenceBoard
    from repro.store.engine import StorageEngine

_KIND_INVALIDATE = 0
_KIND_RESET = 1

_AAD_PREFIX = b"segshare-coherence:"


def _aad(epoch: int) -> bytes:
    return _AAD_PREFIX + epoch.to_bytes(8, "big")


class CoherenceStats:
    """Per-replica counters surfaced through ``SeGShareServer.stats()``."""

    def __init__(self) -> None:
        self.publishes = 0
        self.published_keys = 0
        self.resets_published = 0
        self.syncs = 0
        self.entries_applied = 0
        self.invalidations_applied = 0
        self.full_discards = 0
        self.epoch_lag_last = 0
        self.epoch_lag_max = 0

    def snapshot(self, applied_epoch: int) -> Dict[str, int]:
        return {
            "applied_epoch": applied_epoch,
            "publishes": self.publishes,
            "published_keys": self.published_keys,
            "resets_published": self.resets_published,
            "syncs": self.syncs,
            "entries_applied": self.entries_applied,
            "invalidations_applied": self.invalidations_applied,
            "full_discards": self.full_discards,
            "epoch_lag_last": self.epoch_lag_last,
            "epoch_lag_max": self.epoch_lag_max,
        }


class CoherenceManager:
    """Publishes and applies authenticated invalidation epochs.

    Holds the only trusted state of the protocol: the replica's applied
    epoch (enclave memory) and the PAE key shared by all replicas via
    the root-key transfer.  A fresh manager starts **cold** at the
    board's current epoch — a joining or restarted replica has empty
    caches, so everything already published is vacuously applied.
    """

    def __init__(
        self,
        board: "CoherenceBoard",
        root_key: bytes,
        engine: "StorageEngine",
    ) -> None:
        self.board = board
        self._engine = engine
        self._key = derive_key(root_key, "segshare/coherence", length=16)
        self._pae = default_pae()
        self._applied = board.epoch
        self.stats = CoherenceStats()

    # -- publish ----------------------------------------------------------

    def publish(self, keys: Iterable[Tuple[str, str]], label: str) -> None:
        """Seal the touched-key set as the next epoch on the board.

        Raced publishers loop: :meth:`CoherenceBoard.place` only accepts
        ``epoch + 1`` and the AAD binds the number, so a lost race means
        re-sealing against the new counter, never renumbering a blob.
        The keys keep their order, duplicates dropped.
        """
        pairs = list(dict.fromkeys(keys))
        self._place(self._encode(_KIND_INVALIDATE, label, pairs))
        self.stats.publishes += 1
        self.stats.published_keys += len(pairs)

    def publish_reset(self, label: str) -> None:
        """Publish an authenticated full-discard marker.

        Used by crash recovery (a takeover, or a restart that re-applied
        a record): the failed member may have committed without
        publishing, so the recovering enclave supersedes the log's tail
        with a reset.  Every replica that was not already ahead full-discards;
        the board drops the queued tail so laggards see a gap — which is
        the same fallback.
        """
        self._place(self._encode(_KIND_RESET, label, []), reset=True)
        self.stats.publishes += 1
        self.stats.resets_published += 1

    def _place(self, payload: bytes, reset: bool = False) -> None:
        # A publish outlives the enclave: its platform's fault plan may kill
        # it before the entry lands.
        plan = self._engine.enclave.platform.fault_plan
        while True:
            epoch = self.board.epoch + 1
            blob = self._pae.encrypt(self._key, payload, aad=_aad(epoch))
            if plan is not None:
                plan.on_effect("coherence:place")
            if self.board.place(epoch, blob, reset=reset):
                break
        # Our own publish is by definition applied: the write-through
        # cache already reflects the commit it describes.
        self._applied = epoch

    # -- sync -------------------------------------------------------------

    def sync(self) -> None:
        """Catch up to the board before trusting cached plaintext.

        The fast path is one integer comparison against untrusted
        memory.  Anything irregular lands on :meth:`_full_discard`:
        correctness never depends on the host maintaining the log.
        """
        shared = self.board.epoch
        if shared == self._applied:
            return
        self.stats.syncs += 1
        if self._engine.anchor is not None:  # a peer's close re-anchored
            self._engine.anchor.forget()
        lag = shared - self._applied
        if lag < 0:
            # Counter rewind: a host replaying an old board state.
            # Nothing it can show us is trustworthy-fresh.
            self._full_discard()
            return
        self.stats.epoch_lag_last = lag
        if lag > self.stats.epoch_lag_max:
            self.stats.epoch_lag_max = lag
        for epoch in range(self._applied + 1, shared + 1):
            blob = self.board.entry(epoch)
            if blob is None:
                # Evicted past our lag, or a torn/truncated log.
                self._full_discard()
                self._applied = shared
                return
            try:
                payload = self._pae.decrypt(self._key, blob, aad=_aad(epoch))
                kind, pairs = self._decode(payload)
            except ReproError:
                self._full_discard()
                self._applied = shared
                return
            if kind == _KIND_RESET:
                self._full_discard()
            else:
                self._apply(pairs)
            self.stats.entries_applied += 1
            self._applied = epoch

    def _apply(self, pairs: "list[Tuple[str, str]]") -> None:
        for namespace, key in pairs:
            if self._engine.cache is not None:
                self._engine.cache.discard(namespace, key)
            self.stats.invalidations_applied += 1

    def _full_discard(self) -> None:
        self.stats.full_discards += 1
        self._engine.drop_derived_state()

    # -- wire format ------------------------------------------------------

    def _encode(self, kind: int, label: str, pairs: "list[Tuple[str, str]]") -> bytes:
        w = Writer().u32(kind).str(label).u32(len(pairs))
        for namespace, key in pairs:
            w.str(namespace).str(key)
        return w.take()

    def _decode(self, payload: bytes) -> "Tuple[int, list[Tuple[str, str]]]":
        r = Reader(payload)
        kind, _label = r.u32(), r.str()
        return kind, [(r.str(), r.str()) for _ in range(r.u32())]

    def snapshot(self) -> Dict[str, int]:
        """Protocol counters plus the cache traffic they protect.

        The hit/miss pair rides along so a bench cell (or operator)
        reads one dict to judge whether coherence is earning its keep:
        hits bought, discards paid.
        """
        data = self.stats.snapshot(self._applied)
        cache = self._engine.cache
        if cache is not None:
            data["cache_hits"] = cache.stats.hits
            data["cache_misses"] = cache.stats.misses
        return data


__all__ = ["CoherenceManager", "CoherenceStats"]
