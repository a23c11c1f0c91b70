"""Monotonic counters: the slow hardware kind and the ROTE-style kind.

Section V-E uses TEE monotonic counters to protect the root hash of the
whole file system against rollback, and notes that SGX's own counters
"have issues: increments are slow and the counter wears out fast",
recommending ROTE [63] until better hardware exists.  Both are modelled:

* :class:`MonotonicCounter` — ~100 ms increments and a wear-out limit,
  after which the counter is permanently dead;
* :class:`RoteCounterService` — a quorum of counter replicas reached over
  the LAN: ~0.8 ms increments, no wear, and increments only succeed while
  a majority of replicas is reachable.

Counters are bound to the *signer* identity of the creating enclave so a
different vendor's enclave cannot advance them (real SGX binds counters
to the enclave identity through the PSE).
"""

from __future__ import annotations

import hmac
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from typing import Any

from repro.errors import CounterError
from repro.netsim.clock import SimClock
from repro.sgx.costmodel import SgxCostModel
from repro.sgx.enclave import Enclave


def _increment_rendezvous(
    clock: SimClock, counter_id: str
) -> AbstractContextManager[None]:
    """Counter increments are inherently serial: the hardware (or ROTE
    quorum) processes one at a time.  On a parallel clock, overlapping
    requests incrementing the same counter rendezvous here; on a serial
    clock this never waits."""
    return clock.exclusive(f"counter:{counter_id}", account="counter-wait")


def _effect(enclave: Enclave) -> None:
    """An increment outlives the enclave: its platform's fault plan may kill
    it before the increment lands."""
    plan = enclave.platform.fault_plan
    if plan is not None:
        plan.on_effect("counter:increment")


@dataclass
class _CounterState:
    owner_signer: bytes
    value: int = 0
    increments: int = 0
    dead: bool = False


class MonotonicCounter:
    """SGX-style hardware monotonic counter service for one platform."""

    def __init__(self, clock: SimClock, costs: SgxCostModel) -> None:
        self._clock = clock
        self._costs = costs
        self._counters: dict[str, _CounterState] = {}

    def create(self, enclave: Enclave, counter_id: str) -> None:
        if counter_id in self._counters:
            raise CounterError(f"counter {counter_id!r} already exists")
        self._counters[counter_id] = _CounterState(owner_signer=enclave.signer_id())

    def _state(self, enclave: Enclave, counter_id: str) -> _CounterState:
        state = self._counters.get(counter_id)
        if state is None:
            raise CounterError(f"no counter {counter_id!r}")
        if not hmac.compare_digest(state.owner_signer, enclave.signer_id()):
            raise CounterError("counter is owned by a different enclave signer")
        if state.dead:
            raise CounterError(f"counter {counter_id!r} has worn out")
        return state

    def read(self, enclave: Enclave, counter_id: str) -> int:
        state = self._state(enclave, counter_id)
        self._clock.charge(self._costs.counter_read, account="counter")
        return state.value

    def increment(self, enclave: Enclave, counter_id: str) -> int:
        """Increment and return the new value.  Slow, and wears the counter."""
        state = self._state(enclave, counter_id)
        _effect(enclave)
        with _increment_rendezvous(self._clock, counter_id):
            self._clock.charge(self._costs.counter_increment, account="counter")
            state.value += 1
            state.increments += 1
            if state.increments >= self._costs.counter_wear_limit:
                state.dead = True
            return state.value

    def exists(self, counter_id: str) -> bool:
        return counter_id in self._counters

    # -- persistence (hardware counters survive power cycles; the simulated
    # -- ones expose their state so long-lived deployments can carry it) ----

    def export_state(self) -> dict[str, dict[str, Any]]:
        return {
            counter_id: {
                "owner": state.owner_signer.hex(),
                "value": state.value,
                "increments": state.increments,
                "dead": state.dead,
            }
            for counter_id, state in self._counters.items()
        }

    def restore_state(self, state: dict[str, dict[str, Any]]) -> None:
        self._counters = {
            counter_id: _CounterState(
                owner_signer=bytes.fromhex(entry["owner"]),
                value=entry["value"],
                increments=entry["increments"],
                dead=entry["dead"],
            )
            for counter_id, entry in state.items()
        }


@dataclass
class _Replica:
    """One ROTE counter replica; ``up`` is toggled by failure-injection tests."""

    values: dict[str, int] = field(default_factory=dict)
    up: bool = True


class RoteCounterService:
    """ROTE-style distributed monotonic counter.

    A write succeeds when a majority of replicas acknowledges; the read
    value is the maximum over a majority.  There is no wear-out, and an
    increment costs one LAN quorum round trip.
    """

    def __init__(self, clock: SimClock, costs: SgxCostModel, replicas: int = 4) -> None:
        if replicas < 3:
            raise CounterError("ROTE needs at least 3 replicas for a meaningful quorum")
        self._clock = clock
        self._costs = costs
        self._replicas = [_Replica() for _ in range(replicas)]
        self._owners: dict[str, bytes] = {}

    @property
    def quorum(self) -> int:
        return len(self._replicas) // 2 + 1

    def _up_replicas(self) -> list[_Replica]:
        return [replica for replica in self._replicas if replica.up]

    def set_replica_up(self, index: int, up: bool) -> None:
        """Failure injection: take a replica down or bring it back."""
        self._replicas[index].up = up

    def create(self, enclave: Enclave, counter_id: str) -> None:
        if counter_id in self._owners:
            raise CounterError(f"counter {counter_id!r} already exists")
        self._owners[counter_id] = enclave.signer_id()
        for replica in self._replicas:
            replica.values[counter_id] = 0

    def _check(self, enclave: Enclave, counter_id: str) -> None:
        owner = self._owners.get(counter_id)
        if owner is None:
            raise CounterError(f"no counter {counter_id!r}")
        if not hmac.compare_digest(owner, enclave.signer_id()):
            raise CounterError("counter is owned by a different enclave signer")

    def read(self, enclave: Enclave, counter_id: str) -> int:
        self._check(enclave, counter_id)
        up = self._up_replicas()
        if len(up) < self.quorum:
            raise CounterError("cannot reach a read quorum of ROTE replicas")
        self._clock.charge(self._costs.rote_read, account="counter")
        return max(replica.values[counter_id] for replica in up[: self.quorum])

    def increment(self, enclave: Enclave, counter_id: str) -> int:
        self._check(enclave, counter_id)
        up = self._up_replicas()
        if len(up) < self.quorum:
            raise CounterError("cannot reach a write quorum of ROTE replicas")
        _effect(enclave)
        with _increment_rendezvous(self._clock, counter_id):
            self._clock.charge(self._costs.rote_increment, account="counter")
            new_value = max(replica.values[counter_id] for replica in up) + 1
            for replica in up:
                replica.values[counter_id] = new_value
            return new_value

    def exists(self, counter_id: str) -> bool:
        return counter_id in self._owners

    def export_state(self) -> dict[str, Any]:
        return {
            "owners": {cid: owner.hex() for cid, owner in self._owners.items()},
            "replicas": [
                {"up": replica.up, "values": dict(replica.values)}
                for replica in self._replicas
            ],
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        self._owners = {
            cid: bytes.fromhex(owner) for cid, owner in state["owners"].items()
        }
        self._replicas = [
            _Replica(values=dict(entry["values"]), up=entry["up"])
            for entry in state["replicas"]
        ]
