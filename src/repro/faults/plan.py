"""Deterministic, seeded fault plans.

A :class:`FaultPlan` is the single source of truth for *when* failures
happen in an experiment.  Wrappers — :class:`repro.faults.FaultyStore` and
:class:`repro.faults.FaultyLink` — report every operation to the plan,
which decides whether to inject a fault.  All randomness comes from one ``random.Random(seed)``,
so two runs of the same workload with the same seed observe byte-identical
failure sequences (``plan.events`` records them for exactly that
assertion).

Supported faults:

========================  =====================================================
``fail_nth`` / ``fail_randomly``  transient :class:`~repro.errors.FaultError`
                                  on a store operation
``torn_write``            a ``put`` (or ranged write) persists only its first half
``lost_write``            a ``put`` (or ranged write) is silently discarded
``crash_after_effects``   the enclave dies before its (k+1)-th external effect
``drop_message``          a network send raises :class:`NetworkError`
``lose_message``          bytes are charged but nothing is delivered
``duplicate_message``     the message is delivered twice (or more)
``delay_message``         extra latency is charged before delivery
========================  =====================================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import EnclaveCrashed, FaultError, NetworkError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sgx.enclave import SgxPlatform


@dataclass
class _Rule:
    """One injection rule; fires deterministically or probabilistically."""

    action: str
    match: Callable[..., bool]
    nth: Optional[int] = None
    probability: float = 0.0
    limit: Optional[int] = None
    param: Any = None
    seen: int = 0
    fired: int = 0

    def decide(self, rng: random.Random) -> bool:
        self.seen += 1
        if self.nth is not None:
            fire = self.seen == self.nth
        else:
            if self.limit is not None and self.fired >= self.limit:
                return False
            fire = rng.random() < self.probability
        if fire:
            self.fired += 1
        return fire


class FaultPlan:
    """A seeded schedule of storage, network, and crash faults.

    Construct a plan, declare rules, then hand the plan to the faulty
    wrappers (and :meth:`attach_platform` for the enclaves a crash kills).  The plan
    keeps global operation counters and an ``events`` log of every fault
    it injected, in order — the determinism contract is that equal seeds
    and equal workloads produce equal ``events``.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self._store_rules: list[_Rule] = []
        self._message_rules: list[_Rule] = []
        self._platforms: list["SgxPlatform"] = []
        self.store_ops = 0
        #: External effects reported so far; the crash rule counts from it.
        self.effects = 0
        self._crash_at: Optional[int] = None
        self.messages = 0
        self.events: list[tuple[Any, ...]] = []

    # -- configuration: storage ---------------------------------------------

    def fail_nth(
        self, nth: int, op: Optional[str] = None, store: Optional[str] = None, key: Optional[str] = None
    ) -> "FaultPlan":
        """Raise a transient :class:`FaultError` at the N-th matching store op;
        ``key``, if given, matches only keys that contain it."""
        self._store_rules.append(
            _Rule(action="error", nth=nth, match=_store_match(op, store, key))
        )
        return self

    def fail_randomly(
        self,
        probability: float,
        op: Optional[str] = None,
        store: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> "FaultPlan":
        """Raise transient :class:`FaultError` s with the given per-op probability."""
        self._store_rules.append(
            _Rule(
                action="error",
                probability=probability,
                limit=limit,
                match=_store_match(op, store),
            )
        )
        return self

    def torn_write(self, nth: int, store: Optional[str] = None, op: str = "put") -> "FaultPlan":
        """Silently persist only the first half of the N-th matching ``op``
        (``put``, or ``put_range`` for a ranged write's run)."""
        self._store_rules.append(
            _Rule(action="torn", nth=nth, match=_store_match(op, store))
        )
        return self

    def lost_write(self, nth: int, store: Optional[str] = None, op: str = "put") -> "FaultPlan":
        """Silently discard the N-th matching ``op`` (acked but never stored)."""
        self._store_rules.append(
            _Rule(action="lost", nth=nth, match=_store_match(op, store))
        )
        return self

    # -- configuration: the crash ---------------------------------------------

    def crash_after_effects(self, k: int) -> "FaultPlan":
        """Let the next ``k`` external effects land, then kill the enclave as
        the one after them begins; it fires once.  An effect outlives the
        enclave: a store mutation, a counter increment or a coherence
        publish (docs/FAULTS.md).  ``k`` from 0 to N covers every crash
        state of N effects."""
        self._crash_at = self.effects + k + 1
        return self

    # -- configuration: network ----------------------------------------------

    def drop_message(
        self,
        nth: Optional[int] = None,
        probability: float = 0.0,
        direction: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> "FaultPlan":
        """Fail a send with :class:`NetworkError` (the sender notices)."""
        self._message_rules.append(
            _Rule(
                action="drop",
                nth=nth,
                probability=probability,
                limit=limit,
                match=_message_match(direction),
            )
        )
        return self

    def lose_message(
        self, nth: Optional[int] = None, probability: float = 0.0, direction: Optional[str] = None
    ) -> "FaultPlan":
        """Charge the bytes but deliver nothing (silent loss in flight)."""
        self._message_rules.append(
            _Rule(
                action="lose",
                nth=nth,
                probability=probability,
                match=_message_match(direction),
            )
        )
        return self

    def duplicate_message(
        self, nth: Optional[int] = None, probability: float = 0.0,
        copies: int = 2, direction: Optional[str] = None,
    ) -> "FaultPlan":
        """Deliver ``copies`` copies of a message (WAN retransmission)."""
        self._message_rules.append(
            _Rule(
                action="dup",
                nth=nth,
                probability=probability,
                param=copies,
                match=_message_match(direction),
            )
        )
        return self

    def delay_message(
        self, seconds: float, nth: Optional[int] = None,
        probability: float = 0.0, direction: Optional[str] = None,
    ) -> "FaultPlan":
        """Charge ``seconds`` of extra latency before delivering a message."""
        self._message_rules.append(
            _Rule(
                action="delay",
                nth=nth,
                probability=probability,
                param=seconds,
                match=_message_match(direction),
            )
        )
        return self

    # -- wiring ---------------------------------------------------------------

    def attach_platform(self, platform: "SgxPlatform") -> "FaultPlan":
        """Install this plan as ``platform.fault_plan``: the enclaves loaded
        on it report their counter and coherence effects here, and a crash
        kills them."""
        platform.fault_plan = self
        if platform not in self._platforms:
            self._platforms.append(platform)
        return self

    def detach(self) -> None:
        """Disarm the plan everywhere (used after a staged crash fires)."""
        for platform in self._platforms:
            if platform.fault_plan is self:
                platform.fault_plan = None
        self._platforms.clear()

    # -- runtime hooks (called by the faulty wrappers) ------------------------

    def on_store_op(self, store: str, op: str, key: str) -> Optional[str]:
        """Decide the fate of one store operation.

        Returns ``None`` (proceed), ``"torn"`` or ``"lost"`` (the wrapper
        mangles the put), or raises :class:`FaultError`.
        """
        self.store_ops += 1
        for rule in self._store_rules:
            if not rule.match(store, op, key):
                continue
            if not rule.decide(self._rng):
                continue
            self.events.append((rule.action, store, op, key, self.store_ops))
            if rule.action == "error":
                raise FaultError(
                    f"injected transient fault on {op} of {key!r} "
                    f"(store op #{self.store_ops})"
                )
            return rule.action
        return None

    def on_effect(self, what: str) -> None:
        """One external effect is about to act: count it, or die before it."""
        self.effects += 1
        if self.effects == self._crash_at:
            self.events.append(("crash", what, self.effects))
            self.kill(f"effect {self.effects} ({what})")

    def on_message(self, direction: str, nbytes: int) -> Optional[tuple[Any, ...]]:
        """Decide the fate of one message: ``None``, ``("lose",)``,
        ``("dup", copies)`` or ``("delay", seconds)``; raises
        :class:`NetworkError` for a detected drop."""
        self.messages += 1
        for rule in self._message_rules:
            if not rule.match(direction):
                continue
            if not rule.decide(self._rng):
                continue
            self.events.append((rule.action, direction, nbytes, self.messages))
            if rule.action == "drop":
                raise NetworkError(
                    f"injected fault: message #{self.messages} dropped ({direction})"
                )
            if rule.action == "dup":
                return ("dup", rule.param)
            if rule.action == "delay":
                return ("delay", rule.param)
            return ("lose",)
        return None

    def kill(self, site: str) -> None:
        """Kill every enclave on an attached platform, and raise
        :class:`EnclaveCrashed`; a pending crash rule is spent."""
        self._crash_at = None
        for platform in self._platforms:
            for handle in platform.loaded_enclaves:
                handle._enclave._destroyed = True
        raise EnclaveCrashed(f"fault injection: enclave killed at {site}")


def _store_match(
    op: Optional[str], store: Optional[str], key: Optional[str] = None
) -> Callable[[str, str, str], bool]:
    def match(store_name: str, op_name: str, key_name: str) -> bool:
        return (
            (op is None or op_name == op)
            and (store is None or store_name == store)
            and (key is None or key in key_name)
        )

    return match


def _message_match(direction: Optional[str]) -> Callable[[str], bool]:
    def match(message_direction: str) -> bool:
        return direction is None or message_direction == direction

    return match
