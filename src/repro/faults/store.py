"""An :class:`UntrustedStore` wrapper that injects storage faults.

``FaultyStore`` reports every operation to its :class:`FaultPlan` before
delegating to the wrapped backend.  The plan may let the operation
through, raise a transient :class:`~repro.errors.FaultError`, or mangle a
``put`` or ``put_range`` (torn or lost write).  Each mutation is also one
external effect (a wrapped :class:`~repro.storage.backends.DiskStore`
reports its own syscalls instead).  The wrapper itself stays dumb — all
policy lives in the plan, which keeps fault sequences deterministic.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.faults.plan import FaultPlan
from repro.storage.backends import DiskStore, UntrustedStore


class FaultyStore(UntrustedStore):
    """Wrap ``inner`` so ``plan`` can inject faults into every operation."""

    def __init__(self, inner: UntrustedStore, plan: FaultPlan, name: str = "store") -> None:
        self.inner = inner
        self._plan = plan
        self._name = name
        self._effects = not isinstance(inner, DiskStore)
        if isinstance(inner, DiskStore):
            inner.effects = plan  # its syscalls are the effects

    def _mutation(self, op: str, key: str) -> "str | None":
        if self._effects:
            self._plan.on_effect(f"{self._name}:{op} {key!r}")
        return self._plan.on_store_op(self._name, op, key)

    def put(self, key: str, value: bytes) -> None:
        action = self._mutation("put", key)
        if action == "lost":
            return
        if action == "torn":
            self.inner.put(key, value[: max(1, len(value) // 2)])
            return
        self.inner.put(key, value)

    def get(self, key: str) -> bytes:
        self._plan.on_store_op(self._name, "get", key)
        return self.inner.get(key)

    def put_range(self, key: str, offset: int, blobs: Sequence[bytes]) -> None:
        action = self._mutation("put_range", key)
        if action == "lost":
            return
        if action == "torn":
            run = b"".join(blobs)
            self.inner.put_range(key, offset, [run[: max(1, len(run) // 2)]])
            return
        self.inner.put_range(key, offset, blobs)

    def get_range(self, key: str, offset: int, length: int) -> bytes:
        self._plan.on_store_op(self._name, "get_range", key)
        return self.inner.get_range(key, offset, length)

    def delete(self, key: str) -> None:
        self._mutation("delete", key)
        self.inner.delete(key)

    def exists(self, key: str) -> bool:
        self._plan.on_store_op(self._name, "exists", key)
        return self.inner.exists(key)

    def keys(self) -> Iterator[str]:
        self._plan.on_store_op(self._name, "keys", "*")
        return self.inner.keys()

    def size(self, key: str) -> int:
        self._plan.on_store_op(self._name, "size", key)
        return self.inner.size(key)

    def total_bytes(self) -> int:
        # Accounting reads bypass injection: benchmarks inspect storage
        # overhead without perturbing the fault schedule.
        return self.inner.total_bytes()
