"""Backend invariance: both authorization backends decide identically.

The backend contract: the IBBE envelope backend pays a completely
different *cost* for revocation (re-key now, re-encrypt later), but
every authorization *decision* — auth_f across permissions, inheritance
and deny entries, auth_g, exists_g, user_groups — and every request
outcome must match the enclave-ACL backend after any operation
sequence.  Seeded random scripts drive a pair of worlds in lockstep and
compare full response fingerprints per step plus an exhaustive decision
matrix at the end; the crash variant kills the enclave mid-re-key
(before the revocation's first effect, where the re-key's records are
still in enclave memory) and requires the recovered IBBE world to still
agree with an ACL reference.
"""

from __future__ import annotations

import random

import pytest

from repro.core.enclave_app import SeGShareOptions
from repro.core.model import Permission, default_group
from repro.core.requests import Op, Request, Status
from repro.core.server import SeGShareServer
from repro.errors import EnclaveCrashed, ReproError
from repro.netsim import azure_wan_env
from repro.pki import CertificateAuthority
from repro.storage.stores import StoreSet
from repro.tls.channel import StreamingResponse
from tests.support.explorer import explore, under_plan

BACKENDS = ("enclave_acl", "ibbe")
USERS = ("alice", "bob", "carol", "dave")
GROUPS = ("team", "wheel", "guests")
PERM_WIRES = ("r", "w", "rw", "deny", "")

#: One CA for the whole module — RSA keygen dominates setup.
_CA = CertificateAuthority(key_bits=1024)


# -- script generation ---------------------------------------------------------


def generate_script(seed: int, length: int = 70) -> list[tuple]:
    """A seeded operation script, shared verbatim by both worlds.

    Path bookkeeping here is *optimistic* (a MOVE may target a file a
    previous step failed to create) — that is fine, and intended: the
    worlds must then fail identically too.
    """
    rng = random.Random(seed)
    dirs = ["/"]
    files: list[str] = []
    all_groups = GROUPS + tuple(default_group(u) for u in USERS)
    script: list[tuple] = []
    for i in range(length):
        user = rng.choice(USERS)
        kind = rng.randrange(14)
        if kind == 0:
            path = rng.choice(dirs) + f"d{i}/"
            script.append(("request", user, Request(op=Op.PUT_DIR, args=(path,))))
            dirs.append(path)
        elif kind in (1, 2) or not files:
            path = rng.choice(dirs) + f"f{i}"
            content = bytes([i % 251]) * rng.randrange(1, 96)
            script.append(("put", user, path, content))
            files.append(path)
        elif kind == 3:
            target = rng.choice(files + dirs)
            script.append(
                (
                    "request",
                    user,
                    Request(
                        op=Op.SET_PERM,
                        args=(target, rng.choice(all_groups), rng.choice(PERM_WIRES)),
                    ),
                )
            )
        elif kind == 4:
            script.append(
                (
                    "request",
                    user,
                    Request(
                        op=Op.SET_INHERIT,
                        args=(rng.choice(files + dirs), rng.choice(("0", "1"))),
                    ),
                )
            )
        elif kind == 5:
            script.append(
                (
                    "request",
                    user,
                    Request(
                        op=Op.ADD_USER,
                        args=(rng.choice(USERS), rng.choice(GROUPS)),
                    ),
                )
            )
        elif kind == 6:
            script.append(
                (
                    "request",
                    user,
                    Request(
                        op=Op.RMV_USER,
                        args=(rng.choice(USERS), rng.choice(GROUPS)),
                    ),
                )
            )
        elif kind == 7:
            script.append(
                (
                    "request",
                    user,
                    Request(
                        op=Op.ADD_GROUP_OWNER,
                        args=(rng.choice(all_groups), rng.choice(GROUPS)),
                    ),
                )
            )
        elif kind == 8:
            script.append(
                (
                    "request",
                    user,
                    Request(
                        op=Op.ADD_FILE_OWNER,
                        args=(rng.choice(files + dirs), rng.choice(all_groups)),
                    ),
                )
            )
        elif kind == 9:
            script.append(
                (
                    "request",
                    user,
                    Request(
                        op=Op.RMV_FILE_OWNER,
                        args=(rng.choice(files + dirs), rng.choice(all_groups)),
                    ),
                )
            )
        elif kind == 10:
            src = rng.choice(files)
            dst = rng.choice(dirs) + f"m{i}"
            script.append(("request", user, Request(op=Op.MOVE, args=(src, dst))))
            files.append(dst)
        elif kind == 11:
            script.append(
                ("request", user, Request(op=Op.REMOVE, args=(rng.choice(files),)))
            )
        elif kind == 12:
            script.append(
                (
                    "request",
                    user,
                    Request(op=Op.DELETE_GROUP, args=(rng.choice(GROUPS),)),
                )
            )
        else:
            script.append(
                ("request", user, Request(op=Op.GET, args=(rng.choice(files + dirs),)))
            )
    return script


def script_paths(script: list[tuple]) -> list[str]:
    paths = {"/"}
    for step in script:
        if step[0] == "put":
            paths.add(step[2])
        else:
            for arg in step[2].args:
                if arg.startswith("/"):
                    paths.add(arg)
    return sorted(paths)


# -- lockstep execution --------------------------------------------------------


def fingerprint(result) -> tuple:
    """A comparable digest of any dispatch outcome."""
    if isinstance(result, StreamingResponse):
        return ("stream", result.header, b"".join(result.chunks))
    return ("response", result.serialize())


def run_step(world, step) -> tuple:
    try:
        if step[0] == "put":
            _, user, path, content = step
            return fingerprint(world.handler.put_file(user, path, content))
        _, user, request = step
        return fingerprint(world.handler.handle(user, request))
    except ReproError as exc:
        return ("raised", type(exc).__name__, str(exc))


def decision_matrix(access, paths: list[str]) -> dict:
    """Every authorization decision the backend can be asked for."""
    all_groups = GROUPS + tuple(default_group(u) for u in USERS) + ("ghost",)
    matrix: dict = {"users": sorted(access.known_users())}
    for group in all_groups:
        matrix["exists", group] = access.exists_g(group)
    for user in USERS:
        matrix["groups", user] = sorted(access.user_groups(user))
        for group in all_groups:
            matrix["auth_g", user, group] = access.auth_g(user, group)
        for path in paths:
            for perm in (None, Permission.READ, Permission.WRITE):
                matrix["auth_f", user, perm, path] = access.auth_f(user, perm, path)
    return matrix


def assert_matrices_match(worlds: dict, paths: list[str], context: str) -> None:
    reference, candidate = (decision_matrix(worlds[b].access, paths) for b in BACKENDS)
    diff = {k for k in reference if reference[k] != candidate.get(k)}
    assert not diff, f"{context}: backends diverge on {sorted(diff)!r}"


@pytest.mark.parametrize("seed", range(5))
def test_backends_decide_identically(make_world, seed):
    script = generate_script(seed)
    worlds = {backend: make_world(authz=backend) for backend in BACKENDS}
    paths = script_paths(script)
    for i, step in enumerate(script):
        outcomes = {name: run_step(world, step) for name, world in worlds.items()}
        reference, candidate = (outcomes[b] for b in BACKENDS)
        assert reference == candidate, f"seed {seed} step {i} ({step!r}) diverged"
        if i % 20 == 19:
            # The IBBE world also settles its re-encryption debt mid-
            # script; reconcile must never change a decision.
            for world in worlds.values():
                world.access.reconcile()
            assert_matrices_match(worlds, paths, f"seed {seed} after step {i}")
    assert_matrices_match(worlds, paths, f"seed {seed} final")


# -- crash variant -------------------------------------------------------------


def build_server(backend: str, stores: StoreSet | None = None) -> SeGShareServer:
    options = SeGShareOptions(
        rollback="whole_fs",
        counter_kind="rote",
        rollback_buckets=8,
        authz_backend=backend,
    )
    return SeGShareServer(azure_wan_env(), _CA.public_key, stores=stores, options=options)


def seed_membership(server: SeGShareServer) -> None:
    handler = server.enclave.handler
    assert handler.put_file("alice", "/doc", b"secret plans").status is Status.OK
    for member in ("bob", "carol", "dave"):
        response = handler.handle("alice", Request(op=Op.ADD_USER, args=(member, "team")))
        assert response.status is Status.OK
    response = handler.handle(
        "alice", Request(op=Op.SET_PERM, args=("/doc", "team", "r"))
    )
    assert response.status is Status.OK


def decisions(server: SeGShareServer) -> dict:
    access = server.enclave.access
    matrix: dict = {}
    for user in USERS:
        matrix["groups", user] = sorted(access.user_groups(user))
        for perm in (None, Permission.READ, Permission.WRITE):
            matrix["auth_f", user, perm] = access.auth_f(user, perm, "/doc")
    return matrix


_REVOKE = Request(op=Op.RMV_USER, args=("carol", "team"))


def test_mid_rekey_crash_recovers_to_invariant_state():
    """Kill the IBBE enclave mid-re-key of a revocation, before its first
    effect (where the ``authz:rekey-persist`` site stood); after journal recovery its decisions must equal an ACL
    reference that never issued the revocation (all-or-nothing), and the
    re-issued revocation must land both worlds on the same final state —
    including after reconcile settles the crashed re-key's debt."""
    reference = build_server("enclave_acl")
    seed_membership(reference)
    victim, plan = under_plan(lambda stores: build_server("ibbe", stores))
    seed_membership(victim)
    assert decisions(victim) == decisions(reference)

    plan.crash_after_effects(0)
    with pytest.raises(EnclaveCrashed):
        victim.enclave.handler.handle("alice", _REVOKE)
    plan.detach()

    victim.restart_enclave()
    victim.enclave.guard.verify_restored_state()
    # Rolled back in full: carol is still a member, decisions match the
    # reference that has not revoked yet.
    assert "team" in victim.enclave.access.user_groups("carol")
    assert decisions(victim) == decisions(reference)

    # Re-issued on both sides, the worlds agree on the revoked state.
    for server in (victim, reference):
        response = server.enclave.handler.handle("alice", _REVOKE)
        assert response.status is Status.OK
    assert decisions(victim) == decisions(reference)

    # The second attempt's re-key left /doc's envelope stale; settling it
    # must not change any decision either.
    report = victim.authz_reconcile()
    assert report["files_rotated"] >= 1
    assert decisions(victim) == decisions(reference)


def test_rekey_crash_matrix_every_authz_step():
    """Exhaustive variant: the IBBE backend's revocation crashed before
    *every* one of its effects, not just its first, lands whole on one side,
    and one that did not land revokes for real when issued again (the crash
    explorer's oracle: tests/support/explorer.py)."""
    report = explore("ibbe", "revoke")
    assert report.states == report.effects + 1
