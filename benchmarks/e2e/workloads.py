"""The four workloads: seeded schedule generators plus their deployments.

A workload is two things kept apart on purpose:

* a **schedule** — ``preload()`` and ``next_round()`` turn the seed into
  plain :class:`Op` lists by consulting only the harness-side
  :class:`~.oracle.Model`, never the server.  Rounds have a fixed op
  count and a fixed (stratified) op mix, so counts and virtual time
  repeat exactly for a seed and vary little between seeds;
* a **deployment** — ``deploy()`` stands up the real stack and returns a
  :class:`World` whose ``users`` are the objects ops are issued through.

Every workload runs the same protection stack, :data:`OPTIONS` — the one
``repro.cluster.cluster_options`` forces on cluster members.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.bench.concurrency import ConcurrentDriver, parallel_env
from repro.cluster import ClusterDriver, build_cluster
from repro.core.enclave_app import SeGShareOptions
from repro.core.requests import Op as Opcode
from repro.core.requests import Request, Response, Status
from repro.core.server import SeGShareServer, deploy
from repro.crypto import rsa
from repro.errors import AccessDenied, RequestError
from repro.netsim import Link, azure_wan_env
from repro.netsim.clock import SimClock
from repro.netsim.network import LAN
from repro.pki import CertificateAuthority
from repro.tls.channel import StreamingResponse

from .oracle import Expect, Model, digest_of

OPTIONS = SeGShareOptions(
    journal=True,
    rollback="whole_fs",
    counter_kind="rote",
    metadata_cache_bytes=512 * 1024,
    enable_dedup=True,
)

KB = 1_000  # the paper's decimal units
MB = 1_000_000
SMALL_FILE = 4 * KB

#: Client method -> the opcode name the per-layer ledger reports it under
#: (a directory GET is listed apart from a file GET: different work).
OPCODES = {
    "download": "GET",
    "listdir": "LIST",
    "stat": "STAT",
    "upload": "PUT_FILE",
    "set_permission": "SET_PERM",
    "set_inherit": "SET_INHERIT",
    "add_user": "ADD_USER",
    "remove_user": "RMV_USER",
    "mkdir": "PUT_DIR",
    "move": "MOVE",
    "remove": "REMOVE",
    "get_acl": "GET_ACL",
    "my_groups": "MY_GROUPS",
}


@dataclass(frozen=True)
class Op:
    """One client operation with the outcome the model expects."""

    client: int  # closed-loop stream it belongs to (0 on serial workloads)
    user: str  # identity that issues it
    kind: str  # SeGShareClient method name
    args: tuple
    expect: Expect
    user_bytes: int  # payload the user moves when the outcome is as expected

    @property
    def opcode(self) -> str:
        return OPCODES[self.kind]

    def fingerprint(self) -> str:
        args = tuple(
            digest_of(a).hex() if isinstance(a, bytes) else a for a in self.args
        )
        return repr((self.client, self.user, self.kind, args, self.expect.kind))


@dataclass
class Keys:
    """Key material made once per set-up (timed as ``setup.keygen_s``)."""

    ca: CertificateAuthority
    client_key: rsa.RsaPrivateKey

    @classmethod
    def generate(cls) -> "Keys":
        return cls(CertificateAuthority(key_bits=1024), rsa.generate_keypair(1024))


@dataclass
class World:
    """A deployed stack ready to take ops."""

    clock: SimClock
    runner: str  # "serial" | "concurrent" | "cluster"
    servers: list[SeGShareServer]
    links: list[Link]
    #: Connect the named users (a TLS handshake each, where there is TLS).
    connect: Callable[[list[str]], dict[str, Any]]
    users: dict[str, Any] = field(default_factory=dict)
    driver: Any = None
    cluster: Any = None

    def stored_bytes(self) -> int:
        """Bytes in the untrusted stores (shared backend counted once)."""
        stores = self.servers[0].stores
        if stores.router is not None:
            return stores.router.total_bytes()
        return sum(
            store.total_bytes() for store in (stores.content, stores.group, stores.dedup)
        )


class FrontDoorUser:
    """``SeGShareClient``-shaped access through the cluster front door.

    The front door's only public entry takes ``(user_id, Request)``, so
    this path has no TLS leg (a README blind spot).  ``arrival`` is the
    closed-loop arrival time the driver hands the next call.
    """

    def __init__(self, cluster: Any, user_id: str) -> None:
        self._cluster = cluster
        self._user_id = user_id
        self.arrival: float | None = None

    @staticmethod
    def _check(response: Response) -> Response:
        if response.status is Status.DENIED:
            raise AccessDenied("the server denied the request")
        if response.status is not Status.OK:
            raise RequestError(response.message)
        return response

    def _call(self, op: Opcode, *args: str) -> Any:
        request = Request(op=op, args=args)
        return self._cluster.handle(self._user_id, request, arrival=self.arrival)

    def download(self, path: str) -> bytes:
        response = self._call(Opcode.GET, path)
        if isinstance(response, StreamingResponse):
            return b"".join(response.chunks)
        return self._check(response).payload

    def mkdir(self, path: str) -> None:
        self._check(self._call(Opcode.PUT_DIR, path))

    def upload(self, path: str, content: bytes) -> None:
        self._check(
            self._cluster.put_file(self._user_id, path, content, arrival=self.arrival)
        )


class Workload:
    """Base: seeded RNG, model, op emission; subclasses add the shape."""

    name = ""
    why = ""
    #: Ops per round and rounds in the fixed virtual-clock window.
    round_ops = 0
    virt_rounds = 0
    #: Percentile reported as ``virt_tail_ms`` (needs >= 10 samples beyond
    #: it inside the virtual window).
    virt_tail = 99.0

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"{self.name}/{seed}")
        self.model = Model()
        self._fingerprint = hashlib.sha256()
        self._names = itertools.count()

    # -- schedule ---------------------------------------------------------------------

    def emit(self, client: int, user: str, kind: str, *args: Any) -> Op:
        """Apply one op to the model and return it with its expectation."""
        expect = getattr(self.model, kind)(user, *args)
        if kind == "upload":
            nbytes = len(args[1])
        else:
            nbytes = expect.value[1] if expect.kind == "bytes" else 0
        op = Op(client, user, kind, args, expect, nbytes)
        self._fingerprint.update(op.fingerprint().encode())
        return op

    def schedule_sha256(self) -> str:
        """Digest of every op emitted so far (inputs only, no timings)."""
        return self._fingerprint.hexdigest()

    def fresh_name(self) -> str:
        """A unique path component of seeded, varying length (request sizes
        on the wire — and so virtual latencies — differ between seeds)."""
        width = self.rng.randint(1, 10)
        return "%0*x-%d" % (width, self.rng.getrandbits(4 * width), next(self._names))

    def content(self, size: int = SMALL_FILE) -> bytes:
        return self.rng.randbytes(size)

    def preload(self) -> list[Op]:
        raise NotImplementedError

    def next_round(self) -> list[Op]:
        raise NotImplementedError

    # -- deployment -------------------------------------------------------------------

    def user_ids(self) -> list[str]:
        raise NotImplementedError

    def deploy(self, keys: Keys) -> World:
        raise NotImplementedError


def _single_server_world(keys: Keys, env: Any, runner: str) -> World:
    deployment = deploy(env=env, options=OPTIONS, ca=keys.ca)

    def connect(user_ids: list[str]) -> dict[str, Any]:
        return {u: deployment.new_user(u, key=keys.client_key) for u in user_ids}

    return World(
        clock=env.clock,
        runner=runner,
        servers=[deployment.server],
        links=[env.link],
        connect=connect,
        driver=ConcurrentDriver(deployment.server) if runner == "concurrent" else None,
    )


class BrowseHot(Workload):
    name = "browse_hot"
    why = (
        "serial WAN reads (60% GET, 25% STAT, 10% LIST, 5% ACL/groups) of 200 files (4 KB, a fifth "
        "64 KB), Zipf(1), half by a group-granted reader; metadata fits the cache: the read path"
    )
    round_ops = 500
    virt_rounds = 8
    DIRS = 10
    FILES_PER_DIR = 20
    LARGE_FILE = 64 * KB
    MIX = {"download": 300, "stat": 125, "listdir": 50, "get_acl": 13, "my_groups": 12}

    def user_ids(self) -> list[str]:
        return ["owner", "reader"]

    def deploy(self, keys: Keys) -> World:
        return _single_server_world(keys, azure_wan_env(), "serial")

    def preload(self) -> list[Op]:
        ops = [self.emit(0, "owner", "add_user", "reader", "readers")]
        self.dirs = [f"/{self.fresh_name()}/" for _ in range(self.DIRS)]
        for directory in self.dirs:
            ops.append(self.emit(0, "owner", "mkdir", directory))
            ops.append(self.emit(0, "owner", "set_permission", directory, "readers", "r"))
        # Zipf(1.0) popularity over a seeded ranking of the files.  Every
        # fifth rank is a 64 KB file: about 22% of downloads (13% of ops)
        # for any seed, so the wall tail is the cost of the larger reads,
        # not whatever noise the machine adds to 4 KB ones.
        self.files = [d + self.fresh_name() for d in self.dirs for _ in range(self.FILES_PER_DIR)]
        self.rng.shuffle(self.files)
        for rank, path in enumerate(self.files, start=1):
            size = self.LARGE_FILE if rank % 5 == 2 else SMALL_FILE
            ops.append(self.emit(0, "owner", "upload", path, self.content(size)))
            # The reader's only route to a file: the directory's group
            # grant, inherited.
            ops.append(self.emit(0, "owner", "set_inherit", path, True))
        weights = [1.0 / rank for rank in range(1, len(self.files) + 1)]
        self._cum_weights = list(itertools.accumulate(weights))
        return ops

    def _file(self) -> str:
        point = self.rng.random() * self._cum_weights[-1]
        return self.files[bisect.bisect_left(self._cum_weights, point)]

    def next_round(self) -> list[Op]:
        kinds = [kind for kind, count in self.MIX.items() for _ in range(count)]
        self.rng.shuffle(kinds)
        ops = []
        for kind in kinds:
            user = self.rng.choice(("owner", "reader"))
            if kind == "listdir":
                ops.append(self.emit(0, user, kind, self.rng.choice(self.dirs)))
            elif kind == "my_groups":
                ops.append(self.emit(0, user, kind))
            else:
                # get_acl is owner-only: the reader's attempts are DENIED.
                ops.append(self.emit(0, user, kind, self._file()))
        return ops


class EditChurn(Workload):
    name = "edit_churn"
    why = (
        "8 closed-loop LAN clients on 4 workers: 35% PUT_FILE, 30% GET, 10% STAT, 20% share/revoke "
        "each probed by the guest, 5% mkdir/move/remove; 200 dirs exceed the cache; write path shows"
    )
    STREAMS = 8
    SUBDIRS = 24
    FILES_PER_SUBDIR = 2
    SHARED_FILES = 2
    round_ops = 160
    virt_rounds = 8
    #: Per round over all streams.  Creates and removes nearly balance so
    #: the live set (and with it the O(files) dedup index) stays level;
    #: each share/membership op is followed by the guest's probe download,
    #: which is where the 32 guest GETs of the 48 come from.
    MIX = {
        "overwrite": 42,
        "create": 8,
        "shared": 6,
        "download": 16,
        "stat": 16,
        "perm": 16,
        "member": 16,
        "remove": 6,
        "move": 1,
        "mkdir": 1,
    }

    def user_ids(self) -> list[str]:
        return [f"{role}{c}" for c in range(self.STREAMS) for role in ("u", "v")]

    def deploy(self, keys: Keys) -> World:
        return _single_server_world(keys, parallel_env(LAN), "concurrent")

    def preload(self) -> list[Op]:
        ops = []
        self.subdirs: list[list[str]] = []
        self.files: list[list[str]] = []
        self.shared: list[list[str]] = []
        self.granted: list[list[str]] = []
        ops.append(self.emit(0, "u0", "mkdir", "/shared/"))
        # The first add creates the group, with its creator u0 as a member.
        for c in range(1, self.STREAMS):
            ops.append(self.emit(0, "u0", "add_user", f"u{c}", "everyone"))
        ops.append(self.emit(0, "u0", "set_permission", "/shared/", "everyone", "rw"))
        for c in range(self.STREAMS):
            owner = f"u{c}"
            home = f"/h{c}/"
            ops.append(self.emit(c, owner, "mkdir", home))
            ops.append(self.emit(c, owner, "add_user", f"v{c}", f"g{c}"))
            self.subdirs.append([])
            self.files.append([])
            for _ in range(self.SUBDIRS):
                subdir = home + self.fresh_name() + "/"
                self.subdirs[c].append(subdir)
                ops.append(self.emit(c, owner, "mkdir", subdir))
                for _ in range(self.FILES_PER_SUBDIR):
                    path = subdir + self.fresh_name()
                    self.files[c].append(path)
                    ops.append(self.emit(c, owner, "upload", path, self.content()))
            self.shared.append([])
            for _ in range(self.SHARED_FILES):
                path = "/shared/" + self.fresh_name()
                self.shared[c].append(path)
                ops.append(self.emit(c, owner, "upload", path, self.content()))
            self.granted.append([])
        return ops

    def _pick(self, paths: list[str]) -> str:
        return paths[self.rng.randrange(len(paths))]

    def _take(self, paths: list[str]) -> str:
        return paths.pop(self.rng.randrange(len(paths)))

    def _stream_ops(self, c: int, kind: str) -> list[Op]:
        owner, guest, group = f"u{c}", f"v{c}", f"g{c}"
        files, granted = self.files[c], self.granted[c]
        emit = self.emit
        if kind == "overwrite":
            return [emit(c, owner, "upload", self._pick(files), self.content())]
        if kind == "create":
            path = self._pick(self.subdirs[c]) + self.fresh_name()
            files.append(path)
            return [emit(c, owner, "upload", path, self.content())]
        if kind == "shared":
            # Everyone writes the one shared directory; each stream keeps
            # to its own files there so contents do not depend on the
            # virtual-time interleaving.
            return [emit(c, owner, "upload", self._pick(self.shared[c]), self.content())]
        if kind == "download":
            return [emit(c, owner, "download", self._pick(files))]
        if kind == "stat":
            return [emit(c, owner, "stat", self._pick(files))]
        if kind == "perm":
            grant = len(granted) < 4 or (len(granted) < 12 and self.rng.random() < 0.5)
            if grant:
                path = self._pick([p for p in files if p not in granted])
                granted.append(path)
                change = emit(c, owner, "set_permission", path, group, "r")
            else:
                path = self._take(granted)
                change = emit(c, owner, "set_permission", path, group, "")
            return [change, emit(c, guest, "download", path)]
        if kind == "member":
            # Toggle the guest's membership; immediately probe a file the
            # group is granted (DENIED right after the revoke — the paper's
            # immediate-revocation claim, checked per op).
            is_member = group in self.model.memberships.get(guest, ())
            change = emit(c, owner, "remove_user" if is_member else "add_user", guest, group)
            probe = self._pick(granted) if granted else self._pick(files)
            return [change, emit(c, guest, "download", probe)]
        if kind == "remove":
            path = self._take(files)
            if path in granted:
                granted.remove(path)
            return [emit(c, owner, "remove", path)]
        if kind == "move":
            src = self._take(files)
            dst = self._pick(self.subdirs[c]) + self.fresh_name()
            files.append(dst)
            if src in granted:
                granted[granted.index(src)] = dst
            return [emit(c, owner, "move", src, dst)]
        if kind == "mkdir":
            subdir = f"/h{c}/" + self.fresh_name() + "/"
            self.subdirs[c].append(subdir)
            return [emit(c, owner, "mkdir", subdir)]
        raise ValueError(kind)

    def next_round(self) -> list[Op]:
        # The round's stratified kinds, shuffled and dealt to the streams.
        kinds = [kind for kind, count in self.MIX.items() for _ in range(count)]
        self.rng.shuffle(kinds)
        ops = []
        for c in range(self.STREAMS):
            for kind in kinds[c :: self.STREAMS]:
                ops.extend(self._stream_ops(c, kind))
        return ops


class BulkStream(Workload):
    name = "bulk_stream"
    why = (
        "serial WAN, one user alternating PUT_FILE/GET of 256 KB-4 MB files (5 log-spaced size "
        "strata per round), 1 upload in 5 repeats content (dedup hit); TLS records, PAE, chunking"
    )
    round_ops = 20
    virt_rounds = 11
    virt_tail = 95.0
    SLOTS = 20
    MIN_SIZE = 256 * KB
    MAX_SIZE = 4 * MB
    STRATA = 5
    #: A download fetches the file uploaded this many uploads earlier, so
    #: every file is read exactly once and reads mirror the upload sizes.
    LAG = 3

    def user_ids(self) -> list[str]:
        return ["user"]

    def deploy(self, keys: Keys) -> World:
        return _single_server_world(keys, azure_wan_env(), "serial")

    def _size(self, stratum: int, position: float) -> int:
        """The size at ``position`` (0..1) of one of STRATA equal slices of
        the log range [MIN, MAX]."""
        low, high = math.log(self.MIN_SIZE), math.log(self.MAX_SIZE)
        return int(math.exp(low + (high - low) / self.STRATA * (stratum + position)))

    def _upload(self, key: tuple[int, int], position: float | None) -> Op:
        """Upload into the next slot; ``position=None`` repeats the content
        last uploaded under ``key`` (a dedup hit of unchanged size)."""
        # Slots are reused round-robin: an upload replaces the oldest file,
        # so the live set stays at SLOTS once preload has filled them.
        slot = self._uploads % self.SLOTS
        self._uploads += 1
        if slot == len(self.paths):
            self.paths.append("/" + self.fresh_name())
        if position is not None:
            self._last[key] = self.content(self._size(key[0], position))
        return self.emit(0, "user", "upload", self.paths[slot], self._last[key])

    def _round_plan(self) -> list[tuple[tuple[int, int], float | None]]:
        # Two uploads per stratum at mirrored positions (u, 1-u), so every
        # round moves nearly the same bytes and rounds — and seeds — compare.
        # The stratum whose turn it is repeats one of last round's contents.
        repeated = self._rounds % self.STRATA
        self._rounds += 1
        plan: list[tuple[tuple[int, int], float | None]] = []
        for stratum in range(self.STRATA):
            position = self.rng.random()
            plan.append(((stratum, 0), position))
            again = stratum == repeated and (stratum, 1) in self._last
            plan.append(((stratum, 1), None if again else 1.0 - position))
        self.rng.shuffle(plan)
        return plan

    def preload(self) -> list[Op]:
        self.paths: list[str] = []
        self._last: dict[tuple[int, int], bytes] = {}
        self._uploads = 0
        self._rounds = 0
        ops = []
        while self._uploads < self.SLOTS:
            ops.extend(self._upload(key, position) for key, position in self._round_plan())
        return ops

    def next_round(self) -> list[Op]:
        ops = []
        for key, position in self._round_plan():
            ops.append(self._upload(key, position))
            earlier = (self._uploads - 1 - self.LAG) % self.SLOTS
            ops.append(self.emit(0, "user", "download", self.paths[earlier]))
        return ops


class ClusterFanout(Workload):
    name = "cluster_fanout"
    why = (
        "3 cached replicas behind the front door, 8 closed-loop clients in disjoint homes of "
        "20 x 4 KB files, 90% GET / 10% PUT_FILE; only here do routing, quiesce and coherence work"
    )
    STREAMS = 8
    FILES = 20
    round_ops = 400
    virt_rounds = 40
    #: Per stream and round: 50 ops in blocks of 10, one PUT_FILE at a
    #: seeded position in each block, GETs elsewhere.
    BLOCK = 10
    replicas = 3

    def user_ids(self) -> list[str]:
        return [f"u{c}" for c in range(self.STREAMS)]

    def deploy(self, keys: Keys) -> World:
        deployment = build_cluster(
            replicas=self.replicas, parallel=True, cached=True, options=OPTIONS, ca=keys.ca
        )
        cluster = deployment.cluster

        def connect(user_ids: list[str]) -> dict[str, Any]:
            return {u: FrontDoorUser(cluster, u) for u in user_ids}

        servers = list(deployment.servers.values())
        return World(
            clock=deployment.env.clock,
            runner="cluster",
            servers=servers,
            links=[server.env.link for server in servers],
            connect=connect,
            driver=ClusterDriver(cluster),
            cluster=cluster,
        )

    def preload(self) -> list[Op]:
        ops = []
        self.files: list[list[str]] = []
        for c in range(self.STREAMS):
            # Home names are fixed: the front door places a request by its
            # top-level directory, so seeded names would reshuffle which
            # replica serves whom and every seed would be another workload.
            home = f"/c{c}/"
            ops.append(self.emit(c, f"u{c}", "mkdir", home))
            self.files.append([home + self.fresh_name() for _ in range(self.FILES)])
            for path in self.files[c]:
                ops.append(self.emit(c, f"u{c}", "upload", path, self.content()))
        return ops

    def next_round(self) -> list[Op]:
        ops = []
        for c in range(self.STREAMS):
            for _ in range(self.round_ops // self.STREAMS // self.BLOCK):
                write_at = self.rng.randrange(self.BLOCK)
                for position in range(self.BLOCK):
                    path = self.rng.choice(self.files[c])
                    if position == write_at:
                        ops.append(self.emit(c, f"u{c}", "upload", path, self.content()))
                    else:
                        ops.append(self.emit(c, f"u{c}", "download", path))
        return ops


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (BrowseHot, EditChurn, BulkStream, ClusterFanout)
}
