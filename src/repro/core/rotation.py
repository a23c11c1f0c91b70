"""Root-key rotation (production extension beyond the paper).

SK_r is the single cryptographic root of a SeGShare deployment: every
file key, path-hiding HMAC, dedup address, rollback-guard key, and audit
key derives from it.  Compliance regimes (and post-compromise recovery)
require the ability to *rotate* it.  Unlike permission revocation —
SeGShare's headline constant-time operation — rotation inherently
re-encrypts everything; it is an offline administrative operation,
authorized by a CA signature like the restore flow of §V-G.

The procedure runs entirely inside the enclave:

1. snapshot the logical state through the *old* manager (directory tree,
   content files, ACLs, group store, audit records), verifying rollback
   guards along the way;
2. wipe the untrusted stores (preserving the platform's sealed-blob
   slots);
3. generate a fresh SK_r', reseal it, rebuild every component (manager,
   guards, audit) under the new key;
4. replay the snapshot through the new components — new file keys, new
   hidden paths, new dedup addresses, new guard tree, re-encrypted audit
   chain.

The snapshot lives in enclave memory for the duration — rotation trades
the constant-memory property for simplicity, which is why it is an
explicitly offline operation (documented deviation; a streaming rotation
would pipeline the walk).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.acl import USER_REGISTRY_ID
from repro.core.file_manager import TrustedFileManager
from repro.fsmodel import DirectoryFile
from repro.util.serialization import Writer

ROTATE_CONTEXT = b"segshare-rotate\x00"


def rotate_message_bytes(platform_id: str, nonce: bytes) -> bytes:
    """The exact bytes the CA signs to authorize a key rotation."""
    return ROTATE_CONTEXT + Writer().str(platform_id).bytes(nonce).take()


@dataclass
class RotationStats:
    """What one rotation touched."""

    directories: int = 0
    files: int = 0
    acls: int = 0
    member_lists: int = 0
    audit_records: int = 0
    plaintext_bytes: int = 0


@dataclass
class _Snapshot:
    dirs: list[tuple[str, list[str]]] = field(default_factory=list)  # depth order
    files: dict[str, bytes] = field(default_factory=dict)
    acls: dict[str, bytes] = field(default_factory=dict)  # serialized AclFile
    group_list: bytes | None = None
    member_lists: dict[str, bytes] = field(default_factory=dict)
    audit_records: list = field(default_factory=list)


def snapshot_state(manager: TrustedFileManager, audit_log) -> _Snapshot:
    """Read the whole logical state through the (guard-verified) old manager."""
    snapshot = _Snapshot()

    def walk(dir_path: str) -> None:
        directory = manager.read_dir(dir_path)
        snapshot.dirs.append((dir_path, directory.children))
        for child in directory.children:
            if (acl := manager.find_acl(child)) is not None:
                snapshot.acls[child] = acl.serialize()
            if child.endswith("/"):
                walk(child)
            else:
                snapshot.files[child] = manager.read_content(child)

    walk("/")

    group_list = manager.read_group_list()
    if len(group_list):
        snapshot.group_list = group_list.serialize()
    registry = manager.read_member_list(USER_REGISTRY_ID)
    for user_id in (USER_REGISTRY_ID, *registry.groups):
        if manager.member_list_exists(user_id):
            snapshot.member_lists[user_id] = manager.read_member_list(user_id).serialize()

    if audit_log is not None:
        snapshot.audit_records = audit_log.read_all()
    return snapshot


def wipe_stores(manager: TrustedFileManager, preserve_prefix: str) -> None:
    """Delete every untrusted object except the platform's sealed slots."""
    for store in (manager._stores.content, manager._stores.group, manager._stores.dedup):
        for key in list(store.keys()):
            if not key.startswith(preserve_prefix):
                store.delete(key)


def replay_state(
    manager: TrustedFileManager, audit_log, snapshot: _Snapshot
) -> RotationStats:
    """Write the snapshot back through freshly keyed components."""
    from repro.core.acl import AclFile, GroupListFile, MemberListFile

    stats = RotationStats()
    # One engine transaction for the whole replay: a fault while
    # re-encrypting leaves either the complete new state or (after undo
    # restore) the empty post-wipe state — never half a tree.
    with manager.transaction("rotation-replay"):
        # Directories in depth order (the root was created by ensure_root).
        for dir_path, children in snapshot.dirs:
            manager.write_dir(dir_path, DirectoryFile(children))
            stats.directories += 1
        for path, acl_blob in snapshot.acls.items():
            manager.write_acl(path, AclFile.deserialize(acl_blob))
            stats.acls += 1
        for path, content in snapshot.files.items():
            manager.write_content(path, content)
            stats.files += 1
            stats.plaintext_bytes += len(content)
        if snapshot.group_list is not None:
            manager.write_group_list(GroupListFile.deserialize(snapshot.group_list))
        for user_id, member_blob in snapshot.member_lists.items():
            manager.write_member_list(user_id, MemberListFile.deserialize(member_blob))
            stats.member_lists += 1
        if audit_log is not None:
            for record in snapshot.audit_records:
                audit_log.append(
                    record.timestamp, record.user_id, record.op, record.args, record.outcome
                )
                stats.audit_records += 1
    return stats


def ca_authorized_rotation(ca, server) -> RotationStats:
    """Full rotation flow: the CA signs, the enclave rotates.

    ``ca`` is a :class:`repro.pki.CertificateAuthority`, ``server`` a
    :class:`repro.core.server.SeGShareServer`.
    """
    import secrets

    nonce = secrets.token_bytes(16)
    signature = ca.sign_message(
        rotate_message_bytes(server.platform.platform_id, nonce)
    )
    return server.handle.call("rotate_root_key", nonce, signature)


__all__ = [
    "RotationStats",
    "ca_authorized_rotation",
    "replay_state",
    "rotate_message_bytes",
    "snapshot_state",
    "wipe_stores",
]
