"""Where a switchless worker is held: for the ECALL, not the round trip.

The untrusted TLS interface forwards each record into the enclave on a
worker of the server's switchless pool (Fig. 1).  The client's TLS work
and both network legs run on the client's own track, so on a one-worker
pool two clients whose network legs overlap do not wait for each other
unless their enclave spans overlap, and then by exactly the overlap.
The pool prices the ECALL: one on a request's track pays the worker's
pickup and nothing else.  Serial clocks, and the base timeline of a
parallel one, run the ECALL synchronously at one switchless call.
"""

from __future__ import annotations

import pytest

from repro.bench.concurrency import ConcurrentDriver, parallel_env
from repro.core.enclave_app import SeGShareOptions
from repro.core.server import deploy
from repro.netsim import azure_wan_env
from repro.netsim.network import LAN
from repro.pki import CertificateAuthority

_CA = CertificateAuthority(key_bits=1024)


def _world(env, workers: int = 1):
    deployment = deploy(
        env=env, options=SeGShareOptions(switchless_workers=workers), ca=_CA
    )
    alice = deployment.new_user("alice")
    bob = deployment.new_user("bob")
    alice.mkdir("/a/")
    bob.mkdir("/b/")
    for _ in range(2):  # warm both users' metadata on the base timeline
        alice.listdir("/a/")
        bob.listdir("/b/")
    return deployment, alice, bob


def _issue(deployment, op, arrival: float):
    """One client op on its own track, as the closed-loop driver runs it;
    returns the client's track and the track of the op's one ECALL."""
    clock = deployment.env.clock
    queue = deployment.server.switchless
    dispatched = queue.stats.dispatched
    track = clock.open_track("op", start=arrival)
    try:
        op()
    finally:
        clock.close_track(track)
    assert queue.stats.dispatched == dispatched + 1  # one record, one ECALL
    return track, queue.last_track


class TestOneWorkerTwoClients:
    def _spans(self, gap: float):
        """Alice arrives at t0, Bob ``gap`` seconds of enclave span later."""
        deployment, alice, bob = _world(parallel_env(LAN))
        clock = deployment.env.clock
        t0 = clock.now() + 1.0  # the worker is idle, whatever it did before
        a_track, a_ecall = _issue(deployment, lambda: alice.listdir("/a/"), t0)
        span = a_ecall.end - a_ecall.start
        b_track, b_ecall = _issue(deployment, lambda: bob.listdir("/b/"), t0 + gap(span))
        return deployment, (a_track, a_ecall), (b_track, b_ecall), span

    def test_overlapping_legs_do_not_hold_the_worker(self):
        """Bob's request is on the wire while Alice's is, but reaches the
        enclave as Alice's ECALL ends: neither waits for the worker."""
        deployment, (a_track, a_ecall), (b_track, b_ecall), span = self._spans(
            lambda span: span
        )
        # The two requests' network legs overlap in virtual time ...
        assert b_track.start < a_ecall.start
        assert b_ecall.start < a_track.end
        # ... and the enclave spans abut.
        assert b_ecall.start == pytest.approx(a_ecall.end)
        for track in (a_track, b_track, a_ecall, b_ecall):
            assert track.accounts.get("worker-wait", 0.0) == 0.0
        assert deployment.server.switchless.stats.queued == 0
        assert deployment.server.switchless.stats.worker_wait_s == 0.0

    def test_overlapping_enclave_spans_wait_exactly_the_overlap(self):
        deployment, (a_track, a_ecall), (b_track, b_ecall), span = self._spans(
            lambda span: span / 4
        )
        overlap = a_ecall.end - b_ecall.start
        assert overlap == pytest.approx(3 * span / 4)
        assert a_track.accounts.get("worker-wait", 0.0) == 0.0
        assert b_ecall.accounts["worker-wait"] == pytest.approx(overlap)
        # The wait rolls up into Bob's own track: his op's record says so.
        assert b_track.accounts["worker-wait"] == pytest.approx(overlap)
        assert "join" not in b_track.accounts
        assert deployment.server.switchless.stats.queued == 1

    def test_the_worker_span_holds_no_network(self):
        deployment, (a_track, a_ecall), _, _ = self._spans(lambda span: span)
        assert "network" not in a_ecall.accounts
        assert "client-crypto" not in a_ecall.accounts
        assert a_track.accounts["network"] > a_ecall.elapsed
        # The client's track is its legs plus the ECALL, account by account.
        assert sum(a_track.accounts.values()) == pytest.approx(a_track.elapsed)


class TestOnePickupPerEcall:
    """A record's ECALL on a request track is charged the pool's pickup
    once: a spinning worker's switchless call, or a parked one's wake."""

    def test_a_spin_charges_a_switchless_call_and_a_wake_a_transition(self):
        deployment, alice, _ = _world(parallel_env(LAN))
        costs = deployment.server.platform.costs
        stats = deployment.server.switchless.stats
        t0 = deployment.env.clock.now() + 1.0
        # The pool primes at its first worker dispatch: a spin.  A second
        # op a second later finds the worker parked: a wake.
        spin_op, spin = _issue(deployment, lambda: alice.listdir("/a/"), t0)
        wake_op, wake = _issue(deployment, lambda: alice.listdir("/a/"), spin_op.end + 1.0)
        assert (stats.spins, stats.wakes) == (1, 1)
        assert spin.accounts["transitions"] == pytest.approx(costs.switchless_call)
        assert wake.accounts["transitions"] == pytest.approx(costs.ocall_transition)
        # The op's own track adds no transition of its own.
        assert spin_op.accounts["transitions"] == spin.accounts["transitions"]
        assert wake_op.accounts["transitions"] == wake.accounts["transitions"]


class TestSerialPathUnchanged:
    """A serial clock, and a parallel clock's base timeline, charge an
    ECALL one switchless call and open no worker track."""

    @pytest.mark.parametrize("env", [azure_wan_env, lambda: parallel_env(LAN)], ids=["serial", "base"])
    def test_an_ecall_charges_one_switchless_call(self, env):
        deployment, alice, _ = _world(env())
        clock, server = deployment.env.clock, deployment.server
        costs = server.platform.costs
        stats = server.switchless.stats
        calls, before = server.handle.calls, clock.accounts()
        submitted = stats.submitted
        alice.listdir("/a/")
        after = clock.accounts()
        ecalls = server.handle.calls - calls
        assert ecalls == 1
        assert after["transitions"] - before["transitions"] == pytest.approx(
            ecalls * costs.switchless_call
        )
        assert set(after) == set(before)  # no worker-wait, no join
        assert (stats.submitted - submitted, stats.dispatched) == (ecalls, 0)


class TestDriverRefusesOpsOutsideThePool:
    def test_a_thunk_that_never_enters_the_pool_raises(self):
        deployment, _, _ = _world(parallel_env(LAN))
        driver = ConcurrentDriver(deployment.server)
        with pytest.raises(RuntimeError, match="without entering the server's worker pool"):
            driver.run([[lambda: None]])
        assert deployment.env.clock.active_track() is None

    def test_a_tls_client_enters_the_pool_through_its_records(self):
        deployment, alice, bob = _world(parallel_env(LAN), workers=2)
        driver = ConcurrentDriver(deployment.server)
        result = driver.run(
            [[lambda: alice.listdir("/a/")] * 3, [lambda: bob.listdir("/b/")] * 3]
        )
        assert len(result.ops) == 6
        for op in result.ops:
            assert op.accounts["network"] > 0 and op.accounts["enclave-tls"] > 0
            assert "join" not in op.accounts
            assert sum(op.accounts.values()) == pytest.approx(op.latency)
