"""A persistent command-line SeGShare deployment.

Runs the full system — CA, simulated SGX platform, enclave, disk-backed
untrusted stores — with state persisted under a directory, so the share
survives across invocations exactly as a restarted real deployment would
(sealed root key and TLS identity are recovered from storage).

    python -m repro.cli init /tmp/share --dedup --rollback whole_fs
    python -m repro.cli -s /tmp/share adduser alice
    python -m repro.cli -s /tmp/share put alice ./report.pdf /report.pdf
    python -m repro.cli -s /tmp/share groupadd alice bob finance
    python -m repro.cli -s /tmp/share share alice /report.pdf finance r
    python -m repro.cli -s /tmp/share get bob /report.pdf ./copy.pdf
    python -m repro.cli -s /tmp/share groupdel alice bob finance
    python -m repro.cli -s /tmp/share audit

Demo caveat: the state directory stores the CA key, the platform fuse
key, and user keys in the clear — this maps the *trusted* parties of the
paper's model onto one laptop.  The untrusted stores under ``stores/``
hold only ciphertext, as in the real system.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from cryptography import x509
from cryptography.hazmat.primitives.serialization import Encoding

from repro.core.audit import ca_authorized_export
from repro.core.client import SeGShareClient
from repro.core.enclave_app import SeGShareOptions
from repro.core.server import SeGShareServer, provision_certificate
from repro.crypto import rsa
from repro.errors import AccessDenied, ReproError
from repro.netsim import azure_wan_env
from repro.pki import CertificateAuthority
from repro.sgx import AttestationService, SgxPlatform
from repro.storage.backends import DiskStore
from repro.storage.stores import StoreSet
from repro.tls import TlsClient
from repro.tls.handshake import ClientIdentity

_CONFIG = "config.json"
_CA_KEY = "ca.key"


class ShareState:
    """Filesystem layout of one persistent deployment."""

    def __init__(self, root: str) -> None:
        self.root = root

    def path(self, *parts: str) -> str:
        return os.path.join(self.root, *parts)

    @property
    def initialized(self) -> bool:
        return os.path.exists(self.path(_CONFIG))

    def write_config(self, config: dict) -> None:
        with open(self.path(_CONFIG), "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=2)

    def read_config(self) -> dict:
        with open(self.path(_CONFIG), encoding="utf-8") as fh:
            return json.load(fh)

    def store_key(self, name: str, key: bytes) -> None:
        with open(self.path(name), "wb") as fh:
            fh.write(key)

    def load_key(self, name: str) -> bytes:
        with open(self.path(name), "rb") as fh:
            return fh.read()


def init_share(state: ShareState, options: SeGShareOptions) -> None:
    os.makedirs(state.root, exist_ok=True)
    if state.initialized:
        raise SystemExit(f"{state.root} is already initialized")
    ca = CertificateAuthority()
    state.store_key(_CA_KEY, ca.export_key())
    fuse_key = os.urandom(32)
    state.store_key("platform.fuse", fuse_key)
    state.write_config(
        {
            "platform_id": "cli-platform",
            "hide_paths": options.hide_paths,
            "enable_dedup": options.enable_dedup,
            "rollback": options.rollback,
            "counter_kind": options.counter_kind,
            "audit": options.audit,
        }
    )
    os.makedirs(state.path("stores"), exist_ok=True)
    os.makedirs(state.path("users"), exist_ok=True)
    world = open_share(state)  # provisions the server certificate
    world.persist_counters()
    print(f"initialized share at {state.root}")
    print(f"enclave measurement: {world.server.enclave.measurement().hex()}")


class World:
    """A re-opened deployment: CA + server + helpers."""

    def __init__(self, state: ShareState) -> None:
        config = state.read_config()
        self.state = state
        self.ca = CertificateAuthority(
            key=rsa.RsaPrivateKey.deserialize(state.load_key(_CA_KEY))
        )
        self.env = azure_wan_env()
        platform = SgxPlatform(
            clock=self.env.clock,
            platform_id=config["platform_id"],
            fuse_key=state.load_key("platform.fuse"),
        )
        self.attestation = AttestationService()
        options = SeGShareOptions(
            hide_paths=config["hide_paths"],
            enable_dedup=config["enable_dedup"],
            rollback=config["rollback"],
            counter_kind=config["counter_kind"],
            audit=config.get("audit", False),
        )
        stores = StoreSet(
            content=DiskStore(state.path("stores", "content")),
            group=DiskStore(state.path("stores", "group")),
            dedup=DiskStore(state.path("stores", "dedup")),
        )
        self.server = SeGShareServer(
            self.env,
            self.ca.public_key,
            stores=stores,
            options=options,
            attestation_service=self.attestation,
            platform=platform,
        )
        self.attestation.register_platform(
            platform.platform_id, platform.quoting_enclave.attestation_public_key
        )
        # Only the very first run provisions; later runs restore the
        # sealed TLS identity from the content store.
        if not self.server.enclave.tls.has_identity:
            provision_certificate(
                self.ca, self.attestation, self.server, self.server.enclave.measurement()
            )
        # Simulated hardware monotonic counters must survive process
        # restarts like the real fused ones do.
        self._counter_path = state.path("counters.json")
        self._counter_service = getattr(
            platform, f"_segshare_counter_{options.counter_kind}", None
        )
        if self._counter_service is not None and os.path.exists(self._counter_path):
            with open(self._counter_path, encoding="utf-8") as fh:
                self._counter_service.restore_state(json.load(fh))

    def persist_counters(self) -> None:
        if self._counter_service is not None:
            with open(self._counter_path, "w", encoding="utf-8") as fh:
                json.dump(self._counter_service.export_state(), fh)

    # -- users ------------------------------------------------------------------

    def add_user(self, user_id: str) -> None:
        key_path = self.state.path("users", f"{user_id}.key")
        if os.path.exists(key_path):
            raise SystemExit(f"user {user_id!r} already exists")
        key = rsa.generate_keypair(1024)
        cert = self.ca.issue_client_certificate(user_id, key.public_key)
        with open(key_path, "wb") as fh:
            fh.write(key.serialize())
        with open(self.state.path("users", f"{user_id}.cert"), "wb") as fh:
            fh.write(cert.public_bytes(Encoding.DER))

    def connect(self, user_id: str) -> SeGShareClient:
        key_path = self.state.path("users", f"{user_id}.key")
        if not os.path.exists(key_path):
            raise SystemExit(f"unknown user {user_id!r}; run adduser first")
        with open(key_path, "rb") as fh:
            key = rsa.RsaPrivateKey.deserialize(fh.read())
        with open(self.state.path("users", f"{user_id}.cert"), "rb") as fh:
            cert = x509.load_der_x509_certificate(fh.read())
        tls = TlsClient(
            self.server.endpoint().connect(),
            ClientIdentity(cert, key),
            self.ca.public_key,
            clock=self.env.clock,
        )
        tls.handshake()
        return SeGShareClient(tls)


def open_share(state: ShareState) -> World:
    if not state.initialized:
        raise SystemExit(f"{state.root} is not initialized; run init first")
    return World(state)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m repro.cli", description=__doc__)
    parser.add_argument("-s", "--share", default="./segshare-state", help="state directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="create a new share")
    p.add_argument("directory", nargs="?", help="state directory (overrides -s)")
    p.add_argument("--hide-paths", action="store_true")
    p.add_argument("--dedup", action="store_true")
    p.add_argument("--rollback", choices=["off", "individual", "whole_fs"], default="off")
    p.add_argument("--counter", choices=["sgx", "rote"], default="rote")
    p.add_argument("--audit", action="store_true")

    sub.add_parser("info", help="show share configuration")

    p = sub.add_parser("adduser", help="issue a certificate for a new user")
    p.add_argument("user")

    p = sub.add_parser("put", help="upload a local file")
    p.add_argument("user")
    p.add_argument("local")
    p.add_argument("remote")

    p = sub.add_parser("get", help="download to a local file (or stdout)")
    p.add_argument("user")
    p.add_argument("remote")
    p.add_argument("local", nargs="?")

    p = sub.add_parser("ls", help="list a directory")
    p.add_argument("user")
    p.add_argument("path", nargs="?", default="/")

    p = sub.add_parser("mkdir", help="create a directory")
    p.add_argument("user")
    p.add_argument("path")

    p = sub.add_parser("rm", help="remove a file or directory tree")
    p.add_argument("user")
    p.add_argument("path")

    p = sub.add_parser("mv", help="move/rename")
    p.add_argument("user")
    p.add_argument("src")
    p.add_argument("dst")

    p = sub.add_parser("share", help="set a group permission on a path")
    p.add_argument("user")
    p.add_argument("path")
    p.add_argument("group")
    p.add_argument("perms", choices=["r", "w", "rw", "deny", "none"])

    p = sub.add_parser("groupadd", help="add a member (creates the group)")
    p.add_argument("owner")
    p.add_argument("member")
    p.add_argument("group")

    p = sub.add_parser("groupdel", help="remove a member — immediate revocation")
    p.add_argument("owner")
    p.add_argument("member")
    p.add_argument("group")

    p = sub.add_parser("groups", help="show a user's memberships")
    p.add_argument("user")

    sub.add_parser("audit", help="export the audit log (CA-authorized)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    state = ShareState(getattr(args, "directory", None) or args.share)

    if args.command == "init":
        init_share(
            state,
            SeGShareOptions(
                hide_paths=args.hide_paths,
                enable_dedup=args.dedup,
                rollback=args.rollback,
                counter_kind=args.counter,
                audit=args.audit,
            ),
        )
        return 0

    world = open_share(state)
    try:
        if args.command == "info":
            print(json.dumps(state.read_config(), indent=2))
        elif args.command == "adduser":
            world.add_user(args.user)
            print(f"user {args.user!r} created")
        elif args.command == "put":
            with open(args.local, "rb") as fh:
                data = fh.read()
            world.connect(args.user).upload(args.remote, data)
            print(f"stored {len(data)} bytes at {args.remote}")
        elif args.command == "get":
            data = world.connect(args.user).download(args.remote)
            if args.local:
                with open(args.local, "wb") as fh:
                    fh.write(data)
                print(f"wrote {len(data)} bytes to {args.local}")
            else:
                sys.stdout.buffer.write(data)
        elif args.command == "ls":
            for child in world.connect(args.user).listdir(args.path):
                print(child)
        elif args.command == "mkdir":
            world.connect(args.user).mkdir(args.path)
        elif args.command == "rm":
            world.connect(args.user).remove(args.path)
        elif args.command == "mv":
            world.connect(args.user).move(args.src, args.dst)
        elif args.command == "share":
            perms = "" if args.perms == "none" else args.perms
            world.connect(args.user).set_permission(args.path, args.group, perms)
        elif args.command == "groupadd":
            world.connect(args.owner).add_user(args.member, args.group)
        elif args.command == "groupdel":
            world.connect(args.owner).remove_user(args.member, args.group)
        elif args.command == "groups":
            for group in world.connect(args.user).my_groups():
                print(group)
        elif args.command == "audit":
            for record in ca_authorized_export(world.ca, world.server):
                args_text = " ".join(record.args)
                print(
                    f"#{record.seq:<5} t={record.timestamp:<10.4f} "
                    f"{record.user_id:<12} {record.op:<14} {args_text:<30} {record.outcome}"
                )
    except AccessDenied:
        print("DENIED", file=sys.stderr)
        return 1
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        world.persist_counters()
    return 0


if __name__ == "__main__":
    sys.exit(main())
