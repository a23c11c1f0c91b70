"""Self-tests: seeded schedules and the outcome oracle (no server involved)."""

import pytest

from .oracle import DENIED, Model, ModelError, check
from .workloads import WORKLOADS


def schedule(name, seed, rounds=2):
    workload = WORKLOADS[name](seed)
    ops = workload.preload()
    for _ in range(rounds):
        ops += workload.next_round()
    return workload, ops


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_schedule_is_a_function_of_the_seed(name):
    first, ops_a = schedule(name, 7)
    second, ops_b = schedule(name, 7)
    other, _ = schedule(name, 8)
    assert [op.fingerprint() for op in ops_a] == [op.fingerprint() for op in ops_b]
    assert first.schedule_sha256() == second.schedule_sha256()
    assert first.schedule_sha256() != other.schedule_sha256()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_rounds_have_the_declared_size_and_mix(name):
    workload = WORKLOADS[name](3)
    workload.preload()
    rounds = [workload.next_round() for _ in range(3)]
    assert {len(ops) for ops in rounds} == {workload.round_ops}
    mixes = [sorted(op.kind for op in ops) for ops in rounds]
    if name != "edit_churn":  # its share/revoke toggles vary add vs remove
        assert mixes[0] == mixes[1] == mixes[2]


def test_edit_churn_probes_every_revocation():
    workload = WORKLOADS["edit_churn"](5)
    workload.preload()
    denied_per_stream = {c: 0 for c in range(workload.STREAMS)}
    for _ in range(4):
        ops = workload.next_round()
        for op, probe in zip(ops, ops[1:]):
            revoke = op.kind == "remove_user" or (op.kind == "set_permission" and op.args[2] == "")
            if revoke:
                assert probe.kind == "download" and probe.user == f"v{op.client}"
                assert probe.expect == DENIED
                denied_per_stream[op.client] += 1
    assert all(count >= 1 for count in denied_per_stream.values())


def test_oracle_revocation_and_inheritance():
    model = Model()
    assert model.mkdir("alice", "/docs/").kind == "ok"
    assert model.upload("alice", "/docs/a", b"hello").kind == "ok"
    assert model.download("bob", "/docs/a") == DENIED  # no grant
    assert model.add_user("alice", "bob", "team").kind == "ok"
    assert model.set_permission("alice", "/docs/", "team", "r").kind == "ok"
    assert model.download("bob", "/docs/a") == DENIED  # grant not inherited yet
    assert model.set_inherit("alice", "/docs/a", True).kind == "ok"
    assert model.download("bob", "/docs/a").kind == "bytes"
    assert model.upload("bob", "/docs/a", b"x") == DENIED  # read-only grant
    assert model.remove_user("alice", "bob", "team").kind == "ok"
    assert model.download("bob", "/docs/a") == DENIED  # immediate revocation
    assert model.download("bob", "/missing") == DENIED  # absence reads as DENIED
    assert model.remove_user("bob", "alice", "team") == DENIED  # not the group's owner
    with pytest.raises(ModelError):
        model.remove_user("alice", "bob", "team")  # the server would answer ERROR
    assert model.live_bytes == 5


def test_check_compares_bytes_listings_and_denials():
    model = Model()
    model.mkdir("alice", "/d/")
    model.upload("alice", "/d/f", b"content")
    assert check(model.download("alice", "/d/f"), ("ok", b"content"))
    assert not check(model.download("alice", "/d/f"), ("ok", b"CONTENT"))
    assert check(model.listdir("alice", "/d/"), ("ok", ["/d/f"]))
    assert not check(model.listdir("alice", "/d/"), ("ok", []))
    assert check(DENIED, ("denied", None)) and not check(DENIED, ("ok", b""))
    assert not check(model.download("alice", "/d/f"), ("error", "boom"))
