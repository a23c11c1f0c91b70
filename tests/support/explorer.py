"""Crash anywhere, by construction: a request's crash states are the
prefixes of its external effects.

An enclave's volatile state is lost however it dies, so a crash between
two external effects leaves what a crash just after the first leaves —
to the store, to the counter, to the coherence board and to recovery.
A request with N effects therefore has exactly N + 1 crash states: the
first k effects landed, for k from 0 to N (N: every effect landed and
the reply was lost).  ALICE (Pillai et al., OSDI 2014) and CrashMonkey
(Mohan et al., OSDI 2018) enumerate crash states from recorded
persistence operations the same way.  The effects are counted where they
happen (``FaultPlan.on_effect``): store mutations through ``FaultyStore``,
a wrapped ``DiskStore``'s syscalls, counter increments and coherence
publishes; no site has to be placed by hand.

For one configuration and one request kind of the fixed script,
:func:`explore`:

1. counts N, the victim enclave's effects while it serves the request;
2. for each k in 0..N, primes a fresh world, runs the request with
   ``plan.crash_after_effects(k)`` on the victim, and recovers — by
   restart on one replica, by the front door's takeover on three;
3. checks one atomicity oracle: every read by the owners returns the
   pre-request world or the post-request world, all of it; nothing
   answers ``RollbackDetected``; no journal record or part, no
   unreferenced object, no wrong reference count and on disk no stray
   file is left; both guards' stored state verifies on one replica;
4. checks that the deployment serves on: a request that did not land
   is issued again and lands the post-request world, and then a write to
   each store succeeds and reads back.

With ``recovery=True`` each crash state's restart is itself swept: a
crash at each effect of the recovery, then a second restart and the
oracle.  :func:`explore_first_start` sweeps a fresh deployment's
bootstrap the same way.  ``python -m tests.support.explorer`` runs the
full sweep; tests/faults/test_crash_explorer.py runs a seeded sample.
"""

from __future__ import annotations

import contextlib
import os
import random
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

from repro.bench.concurrency import parallel_env
from repro.cluster import build_cluster
from repro.cluster.placement import request_affinity
from repro.core.enclave_app import SeGShareOptions
from repro.core.requests import Op, Request, Response, Status
from repro.core.server import SeGShareServer
from repro.errors import EnclaveCrashed, RollbackDetected
from repro.faults import FaultPlan, faulty_stores
from repro.netsim import azure_wan_env
from repro.pki import CertificateAuthority
from repro.sgx import SgxPlatform
from repro.storage.backends import DiskStore
from repro.storage.stores import StoreSet
from tests.support.dedup import stored_records

_CA = CertificateAuthority(key_bits=1024)

_WHOLE_FS = SeGShareOptions(
    rollback="whole_fs", counter_kind="rote", rollback_buckets=8, metadata_cache_bytes=64 * 1024
)


@dataclass(frozen=True)
class Config:
    options: SeGShareOptions
    replicas: int = 1
    #: Over DiskStores, whose syscalls are the store effects.
    disk: bool = False
    #: On a parallel clock, where an epoch's close lands in the background:
    #: each step runs on a worker's track and ends with a quiesce, and the
    #: primed world leaves one write's epoch open, so the scripted request
    #: commits as the next epoch while that close's increment is in flight,
    #: and its quiesce lands both.
    pipelined: bool = False


CONFIGS: dict[str, Config] = {
    "off": Config(replace(_WHOLE_FS, rollback="off")),
    "individual": Config(replace(_WHOLE_FS, rollback="individual")),
    "whole_fs": Config(_WHOLE_FS),
    "uncached": Config(replace(_WHOLE_FS, metadata_cache_bytes=None)),
    "dedup": Config(replace(_WHOLE_FS, enable_dedup=True)),
    "hiding": Config(replace(_WHOLE_FS, hide_paths=True)),
    "ibbe": Config(replace(_WHOLE_FS, authz_backend="ibbe")),
    "cluster": Config(_WHOLE_FS, replicas=3),
    "disk": Config(_WHOLE_FS, disk=True),
    "pipelined": Config(_WHOLE_FS, pipelined=True),
}

#: Two chunks: a fresh object's data value is written by range.
_CONTENT = bytes(range(256)) * 20
_OWNERS = ("alice", "bob")
_FILES = ("/keep", "/d/f", "/d/new", "/d/dup", "/moved")
_DIRS = ("/", "/d/", "/d/e/", "/old/")


def _req(op: Op, *args: str) -> Request:
    return Request(op=op, args=args)


#: The fixed script: each kind is one request by alice (a path upload is
#: ``(path, content)``) on the primed world.
KINDS: dict[str, "Request | tuple[str, bytes]"] = {
    "mkdir": _req(Op.PUT_DIR, "/d/e/"),
    "rmdir": _req(Op.REMOVE, "/old/"),
    "upload": ("/d/new", b"fresh " * 1000),
    "overwrite": ("/d/f", b"second version"),
    "dedup_upload": ("/d/dup", _CONTENT),
    "remove": _req(Op.REMOVE, "/d/f"),
    "move": _req(Op.MOVE, "/d/f", "/moved"),
    "share": _req(Op.SET_PERM, "/keep", "eng", "r"),
    "add_member": _req(Op.ADD_USER, "carol", "eng"),
    "revoke": _req(Op.RMV_USER, "bob", "eng"),
    "delete_group": _req(Op.DELETE_GROUP, "eng"),
}

#: The pipelined world's last write, left in an open epoch.
_LEAD = _req(Op.PUT_DIR, "/lead/")

_PRIME: list["Request | tuple[str, bytes]"] = [
    _req(Op.PUT_DIR, "/d/"),
    _req(Op.PUT_DIR, "/old/"),
    ("/d/f", _CONTENT),
    ("/keep", b"kept"),
    _req(Op.ADD_USER, "bob", "eng"),
    _req(Op.SET_PERM, "/d/", "eng", "r"),
]


_GUARD_EFFECTS = ("content:put '\\x00rb:", "group:put '\\x00rbg:", "counter:")

#: Classes of effect, by the prefix of the named crash sites that once
#: stood before them: the journal's (records, parts, stamps, applied
#: writes, reclaims), the anchor's (guard nodes, counter, anchor) and the
#: coherence publish.  Path hiding hides the guard keys too.
EFFECT_CLASSES: dict[str, Callable[[str], bool]] = {
    "journal:": lambda label: not label.startswith((*_GUARD_EFFECTS, "coherence:")),
    "anchor:": lambda label: label.startswith(_GUARD_EFFECTS),
    "coherence:": lambda label: label.startswith("coherence:"),
}


def journal_site(labels: list[str], site: str, nth: int = 1) -> int:
    """The effect prefix at which the old named journal ``site`` fired for
    the ``nth`` time (docs/FAULTS.md): after a part's put (``record``),
    before or after a record's put (``commit``, ``committed``), after an
    applied write (``apply``)."""
    parts = [k for k, label in enumerate(labels) if label.startswith("content:put '\\x00journal:part:")]
    records = [k for k, label in enumerate(labels) if label.startswith("content:put '\\x00journal:redo:")]
    applied = [k for k, label in enumerate(labels) if "journal:" not in label]
    return {
        "journal:record": lambda: parts[nth - 1] + 1,
        "journal:commit": lambda: records[nth - 1],
        "journal:committed": lambda: records[nth - 1] + 1,
        "journal:apply": lambda: applied[nth - 1] + 1,
    }[site]()


class OracleError(AssertionError):
    """The atomicity oracle failed for one crash state."""


def arm(server: SeGShareServer, plan: "RecordingPlan | None" = None) -> "RecordingPlan":
    """Put a running replica under ``plan``: its stores are wrapped and its
    enclave restarted over them, so its effects from here are counted."""
    plan = plan or RecordingPlan()
    server.stores = faulty_stores(server.stores, plan)
    server.restart_enclave()
    plan.attach_platform(server.platform)
    return plan


def under_plan(build: Callable[[StoreSet], SeGShareServer]) -> tuple[SeGShareServer, "RecordingPlan"]:
    """The server ``build`` makes over faulty in-memory stores, its platform
    attached to their plan: every effect it makes from here is counted."""
    plan = RecordingPlan()
    server = build(faulty_stores(StoreSet.in_memory(), plan))
    plan.attach_platform(server.platform)
    return server, plan


class RecordingPlan(FaultPlan):
    """A fault plan that keeps each effect's label."""

    def __init__(self) -> None:
        super().__init__()
        self.labels: list[str] = []

    def on_effect(self, what: str) -> None:
        self.labels.append(what)
        super().on_effect(what)


@dataclass
class World:
    """One deployment under a fault plan, driven through its request doors.

    ``first_start_crash`` k crashes a single replica's first start after k
    of its effects.
    """

    config: Config
    first_start_crash: int | None = None
    plan: RecordingPlan = field(default_factory=RecordingPlan)

    def __post_init__(self) -> None:
        if self.config.replicas == 1:
            self.env = parallel_env() if self.config.pipelined else azure_wan_env()
            self.stores = faulty_stores(StoreSet.in_memory(), self.plan)
            if self.config.disk:
                self._dir = tempfile.TemporaryDirectory()
            self.platform = SgxPlatform(clock=self.env.clock)
            self.plan.attach_platform(self.platform)
            self.cluster = None
            if self.first_start_crash is None:
                self.start()
                return
            self.plan.crash_after_effects(self.first_start_crash)
            with contextlib.suppress(EnclaveCrashed):
                self.start()
                self.plan.kill("the first start's reply was lost")
        else:
            deployment = build_cluster(replicas=self.config.replicas, ca=_CA, options=self.config.options)
            self.cluster, self.deployment = deployment.cluster, deployment
            self.stores = StoreSet.over(deployment.backend)

    # -- serving ----------------------------------------------------------------

    def start(self) -> None:
        """A (re)start on the same platform and stores: recovery runs here.
        A host restart opens its DiskStore directories again."""
        if self.config.disk:
            self.stores = faulty_stores(StoreSet(*(DiskStore(path) for path in self._dirs())), self.plan)
        self.server = SeGShareServer(
            self.env, _CA.public_key, stores=self.stores, options=self.config.options, platform=self.platform
        )

    def run(self, step: "Request | tuple[str, bytes]", user: str = "alice", drain: bool = True) -> "Response":
        door = self.cluster if self.cluster is not None else self.server.enclave.handler

        def call() -> "Response":
            return door.handle(user, step) if isinstance(step, Request) else door.put_file(user, *step)

        if not self.config.pipelined:
            return call()
        # A request on its own track, the way a worker serves it.
        response = self.server.switchless.dispatch(call, arrival=self.env.clock.now())
        if drain:
            self.server.enclave.engine.quiesce()
        return response

    def arm_victim(self, step: "Request | tuple[str, bytes]") -> None:
        """On three replicas, put the plan on the replica ``step`` routes to."""
        if self.cluster is not None:
            affinity = request_affinity("alice", step if isinstance(step, Request) else _req(Op.PUT_FILE, step[0]))
            arm(self.cluster.membership.members[self.cluster.membership.ring.owner(affinity)], self.plan)

    def recover(self) -> None:
        if self.cluster is None:
            self.start()
        else:
            self.cluster.quiesce()  # a dead member is taken over here

    # -- the oracle -------------------------------------------------------------

    def observe(self) -> tuple:
        """Every read the owners can make of the script's paths."""
        seen = []
        for user in _OWNERS:
            for path in _FILES:
                seen.append(_outcome(self.run(_req(Op.GET, path), user)))
            for path in _DIRS:
                seen.append(_outcome(self.run(_req(Op.GET, path), user)))
            seen.append(_outcome(self.run(_req(Op.MY_GROUPS), user)))
        # A member added is seen in its own groups only.
        seen.append(_outcome(self.run(_req(Op.MY_GROUPS), "carol")))
        return tuple(seen)

    def _dirs(self) -> list[str]:
        return [os.path.join(self._dir.name, name) for name in ("content", "group", "dedup")]

    def replica(self) -> SeGShareServer:
        """One serving replica, its epochs closed."""
        if self.cluster is None:
            return self.server
        self.cluster.quiesce()
        return self.deployment.server(self.cluster.membership.ring.members[0])

    def verify_guards(self) -> None:
        """Each guard's stored nodes recompute to the root the anchor names."""
        enclave = self.replica().enclave
        for guard in (enclave.guard, enclave.group_guard):
            if guard is not None:
                guard.verify_restored_state()

    def leftovers(self) -> list[str]:
        """Journal records and parts, objects no record references, a
        reference count other than the live files naming its record, and
        on disk any file that is not a key's data or sidecar."""
        server = self.replica()
        left = [key for key in self.stores.content.keys() if key.startswith(("\x00journal:redo:", "\x00journal:part:"))]
        manager = server.enclave.manager
        records = stored_records(manager.dedup)
        left += sorted(manager.dedup._pfs.owners("obj:") - {object_id for object_id, _ in records.values()})
        # Each record counts one reference per live file that names it.
        named = Counter(manager._pointer_target(path) for path in _FILES if manager.exists(path))
        if {name: count for name, (_, count) in records.items()} != named:
            left.append(f"reference counts {records} for files naming {named}")
        for path in self._dirs() if self.config.disk else ():
            names = set(os.listdir(path))
            left += [name for name in names if (name[:-4] if name.endswith(".key") else name + ".key") not in names]
        return left


def _outcome(response) -> tuple:
    if isinstance(response, Response):
        if "integrity violation" in response.message:
            raise OracleError(f"a read answered RollbackDetected: {response.message}")
        return response.status, response.message, response.payload, response.listing
    try:
        return Status.OK, b"".join(response.chunks)
    finally:
        response.close()


# -- the sweep -----------------------------------------------------------------------


@dataclass
class Report:
    """What one (configuration, kind) sweep saw."""

    config: str
    kind: str
    labels: list[str]
    states: int = 0

    @property
    def effects(self) -> int:
        return len(self.labels)


def primed(config: Config) -> World:
    world = World(config)
    for step in _PRIME:
        assert world.run(step).status is Status.OK, step
    if config.pipelined:
        assert world.run(_LEAD, drain=False).status is Status.OK
        clock = world.env.clock
        clock.advance_to(clock.now() + 0.001)  # the next request misses its window
    return world


def count(config_name: str, kind: str) -> tuple[tuple, tuple, Report]:
    """The pre- and post-request worlds and the victim's effects."""
    config, step = CONFIGS[config_name], KINDS[kind]
    pre = primed(config).observe()
    world = primed(config)
    world.arm_victim(step)
    before = len(world.plan.labels)
    response = world.run(step)
    assert response.status is Status.OK, (config_name, kind, response)
    return pre, world.observe(), Report(config_name, kind, world.plan.labels[before:])


def crash_state(config_name: str, kind: str, k: int, worlds: tuple, recovery_crash: int | None = None) -> int:
    """Crash the victim after ``k`` effects of ``kind``, recover, and check
    that the owners read one of ``worlds`` (pre, post); with
    ``recovery_crash`` j the recovery crashes after j of its own effects
    first.  Returns the effects of the recovery that finished."""
    config, step = CONFIGS[config_name], KINDS[kind]
    where = f"{config_name}/{kind}@{k}"
    world = primed(config)
    world.arm_victim(step)
    start = len(world.plan.labels)
    world.plan.crash_after_effects(k)
    with contextlib.suppress(EnclaveCrashed):
        world.run(step)  # on three replicas the front door fails over inside
    crashed = bool(world.plan.events)
    if len(world.plan.labels) - start - crashed != k:
        raise OracleError(f"{where}: the request diverged from its counting run")
    if not crashed:
        with contextlib.suppress(EnclaveCrashed):
            world.plan.kill("the reply was lost")
    return _recover_and_check(world, where, recovery_crash, worlds, retry=step)


#: After recovery, a write to each store, each read back.
_PROBES: list["Request | tuple[str, bytes]"] = [("/keep", b"kept again"), _req(Op.ADD_USER, "dave", "ops")]
_PROBE_READS = [(_req(Op.GET, "/keep"), "alice"), (_req(Op.MY_GROUPS), "dave")]


def _recover_and_check(
    world: World,
    where: str,
    recovery_crash: int | None,
    worlds: tuple,
    read: Callable[[World], tuple] = World.observe,
    retry: "Request | tuple[str, bytes] | None" = None,
) -> int:
    if recovery_crash is not None:
        where += f", recovery@{recovery_crash}"
        world.plan.crash_after_effects(recovery_crash)
        with contextlib.suppress(EnclaveCrashed):
            world.recover()
            raise OracleError(f"{where}: the recovery did not reach that effect")
    before = len(world.plan.labels)
    try:
        world.recover()
        made = len(world.plan.labels) - before
        seen = read(world)
        left = world.leftovers()
        world.verify_guards()
    except RollbackDetected as exc:
        raise OracleError(f"{where}: recovery answered RollbackDetected: {exc}") from exc
    if seen not in worlds:
        raise OracleError(f"{where}: the owners read neither the pre- nor the post-request world")
    if left:
        raise OracleError(f"{where}: stranded after recovery: {left}")
    _serves_on(world, where, retry if seen != worlds[-1] else None, worlds[-1])
    return made


def _serves_on(world: World, where: str, retry: "Request | tuple[str, bytes] | None", post: tuple) -> None:
    """The request, if it did not land, lands when issued again; then a
    write to each store succeeds and the next reads verify."""
    if retry is not None and (world.run(retry).status is not Status.OK or world.observe() != post):
        raise OracleError(f"{where}: the request issued again did not land the post-request world")
    for step in _PROBES:
        response = world.run(step)
        if response.status is not Status.OK:
            raise OracleError(f"{where}: a write after recovery failed: {response.message}")
    reads = [_outcome(world.run(step, user)) for step, user in _PROBE_READS]
    if reads[0] != (Status.OK, b"kept again") or reads[1][0] is not Status.OK:
        raise OracleError(f"{where}: a read after recovery's writes failed: {reads}")


def explore(config_name: str, kind: str, recovery: bool = False) -> Report:
    """Every crash state of one request kind in one configuration; with
    ``recovery`` also every crash state of each one-replica recovery."""
    pre, post, report = count(config_name, kind)
    assert pre != post, f"{config_name}/{kind}: the owners cannot tell the request landed"
    for k in range(report.effects + 1):
        made = crash_state(config_name, kind, k, (pre, post))
        report.states += 1
        if recovery and CONFIGS[config_name].replicas == 1:
            for j in range(made):
                crash_state(config_name, kind, k, (pre, post), recovery_crash=j)
                report.states += 1
    return report


# -- the first start -----------------------------------------------------------------


def explore_first_start(config_name: str, recovery: bool = False) -> Report:
    """Crash a fresh deployment's bootstrap after each of its effects; the
    restart must come up and serve the primed world, nothing stranded."""
    config = CONFIGS[config_name]
    assert config.replicas == 1, "a cluster's first start is its root's"
    world = World(config)
    report = Report(config_name, "first_start", list(world.plan.labels))
    served = (_serve(world),)
    for k in range(report.effects + 1):
        where = f"{config_name}/first_start@{k}"
        made = _recover_and_check(World(config, first_start_crash=k), where, None, served, _serve)
        report.states += 1
        if recovery:
            for j in range(made):
                _recover_and_check(World(config, first_start_crash=k), where, j, served, _serve)
                report.states += 1
    return report


def _serve(world: World) -> tuple:
    """Prime a (re)started world and read it."""
    for step in _PRIME:
        if world.run(step).status is not Status.OK:
            raise OracleError(f"first start: {step} failed")
    return world.observe()


# -- selection ----------------------------------------------------------------------


def sample(seed: int, size: int, configs: Iterable[str] = CONFIGS) -> list[tuple[str, str]]:
    """``size`` (configuration, kind) cases of ``configs``, drawn by ``seed``."""
    return sorted(random.Random(seed).sample([(config, kind) for config in configs for kind in KINDS], size))


def main() -> int:
    """The full sweep; recovery sweeps run in memory, where a crash state
    costs no directory's fsyncs."""
    failures = total = 0
    for config_name, config in CONFIGS.items():
        runs = [lambda kind=kind: explore(config_name, kind, recovery=not config.disk) for kind in KINDS]
        if config.replicas == 1:
            runs.append(lambda: explore_first_start(config_name, recovery=not config.disk))
        for run in runs:
            try:
                report = run()
            except OracleError as exc:
                failures += 1
                print(f"FAIL {exc}", flush=True)
                continue
            total += report.states
            print(f"ok   {config_name:<10} {report.kind:<13} effects={report.effects:<3} crash states={report.states}", flush=True)
    print(f"{total} crash states, {failures} failing cases")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
