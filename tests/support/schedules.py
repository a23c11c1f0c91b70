"""Seeded request schedules for the serial-witness suites.

tests/core/test_linearizability.py, tests/cluster/test_failover_property.py
and tests/storage/test_shard_invariance.py all state the same kind of
property — a seeded schedule run through some pipeline equals a serial
witness, per response and in final logical state — so they share one
descriptor generator, one way to apply a descriptor, and one definition
of "logical state".
"""

from __future__ import annotations

import hashlib
import random

from repro.core.requests import Op, Request
from repro.core.server import SeGShareServer
from repro.fsmodel import is_dir_path

USERS = ("u0", "u1", "u2")
GROUPS = ("eng", "ops")
DIRS = ("/a/", "/b/", "/a/sub/")
FILES = ("/a/f", "/b/f", "/top", "/a/sub/g")
MOVE_DSTS = ("/moved", "/b/moved")


def prime(handler) -> None:
    """Identical starting state for every run a property compares."""
    for user in USERS:
        assert handler.handle(
            "u0", Request(op=Op.ADD_USER, args=(user, "eng"))
        ).status.name == "OK"
    assert handler.handle(
        "u1", Request(op=Op.ADD_USER, args=("u1", "ops"))
    ).status.name == "OK"
    for path in ("/a/", "/b/"):
        assert handler.handle(
            "u0", Request(op=Op.PUT_DIR, args=(path,))
        ).status.name == "OK"
    assert handler.put_file("u0", "/a/f", b"seed content a").status.name == "OK"
    assert handler.put_file("u1", "/top", b"seed content top").status.name == "OK"


def random_descriptor(rng: random.Random, user: str, nonce: int) -> tuple:
    """One request descriptor — replayable on any server."""
    roll = rng.randrange(9)
    if roll == 0:
        return ("handle", user, Request(op=Op.PUT_DIR, args=(rng.choice(DIRS),)))
    if roll == 1:
        content = f"content {user} {nonce}".encode()
        return ("put_file", user, rng.choice(FILES), content)
    if roll == 2:
        return ("handle", user, Request(op=Op.GET, args=(rng.choice(FILES + DIRS),)))
    if roll == 3:
        return ("handle", user, Request(op=Op.REMOVE, args=(rng.choice(FILES + DIRS),)))
    if roll == 4:
        return (
            "handle",
            user,
            Request(
                op=Op.SET_PERM,
                args=(rng.choice(FILES + DIRS), rng.choice(GROUPS), rng.choice(("r", "rw"))),
            ),
        )
    if roll == 5:
        return (
            "handle",
            user,
            Request(op=Op.MOVE, args=(rng.choice(FILES), rng.choice(MOVE_DSTS))),
        )
    if roll == 6:
        return (
            "handle",
            user,
            Request(op=Op.ADD_USER, args=(rng.choice(USERS), rng.choice(GROUPS))),
        )
    if roll == 7:
        return ("handle", user, Request(op=Op.STAT, args=(rng.choice(FILES + DIRS),)))
    return ("handle", user, Request(op=Op.MY_GROUPS, args=()))


def apply_descriptor(door, desc: tuple, **kwargs) -> str:
    """Execute one descriptor through ``door`` — a request handler or the
    cluster front door (which also takes ``arrival=``); the result string
    captures what the client saw."""
    if desc[0] == "put_file":
        _, user, path, content = desc
        response = door.put_file(user, path, content, **kwargs)
    else:
        _, user, request = desc
        response = door.handle(user, request, **kwargs)
    if hasattr(response, "chunks"):
        data = b"".join(response.chunks)
        return "STREAM:" + hashlib.sha256(data).hexdigest()
    extra = ""
    if response.listing:
        extra = ":" + ",".join(response.listing)
    return response.status.name + extra


def logical_state(server: SeGShareServer) -> dict:
    """The decrypted view: tree, content hashes, ACLs, memberships."""
    manager = server.enclave.manager
    access = server.enclave.access
    state: dict = {}

    def visit(path: str) -> None:
        if is_dir_path(path):
            directory = manager.read_dir(path)
            state[("dir", path)] = tuple(sorted(directory.children))
            for child in directory.children:
                visit(child)
        else:
            content = manager.read_content(path)
            state[("file", path)] = hashlib.sha256(content).hexdigest()
        if manager.acl_exists(path):
            acl = manager.read_acl(path)
            state[("acl", path)] = (
                tuple(sorted(acl.owners)),
                tuple(
                    sorted(
                        (group, tuple(sorted(p.name for p in acl.lookup(group))))
                        for group in acl.groups_with_entries()
                    )
                ),
                acl.inherit,
            )

    visit("/")
    for user in sorted(access.known_users()):
        state[("groups", user)] = tuple(sorted(access.user_groups(user)))
    return state
