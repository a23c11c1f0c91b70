"""Virtual clock: charges, accounts, stopwatch, parallel tracks."""

import gc
import weakref

import pytest

from repro.netsim.clock import ParallelClock, SimClock, Stopwatch


def test_starts_at_zero():
    assert SimClock().now() == 0.0


def test_charge_advances_and_accounts():
    clock = SimClock()
    clock.charge(0.25, "network")
    clock.charge(0.5, "crypto")
    clock.charge(0.25, "network")
    assert clock.now() == pytest.approx(1.0)
    assert clock.accounts() == {"network": pytest.approx(0.5), "crypto": pytest.approx(0.5)}


def test_negative_charge_rejected():
    with pytest.raises(ValueError):
        SimClock().charge(-1)


def test_advance_to_only_moves_forward():
    clock = SimClock()
    clock.advance_to(2.0)
    clock.advance_to(1.0)  # no-op
    assert clock.now() == pytest.approx(2.0)


def test_reset_accounts_keeps_time():
    clock = SimClock()
    clock.charge(1.0, "x")
    clock.reset_accounts()
    assert clock.accounts() == {}
    assert clock.now() == pytest.approx(1.0)


def test_stopwatch_measures_span():
    clock = SimClock()
    clock.charge(5.0)
    with Stopwatch(clock) as watch:
        clock.charge(0.75)
    assert watch.elapsed == pytest.approx(0.75)


# -- serialization points (SimClock.exclusive) ---------------------------------------


class TestExclusive:
    def test_serial_clock_never_waits(self):
        """On a serial clock time is monotonic, so the rendezvous is free."""
        clock = SimClock()
        with clock.exclusive("journal-commit"):
            clock.charge(0.5, "commit")
        before = clock.now()
        with clock.exclusive("journal-commit", account="commit-wait"):
            pass
        assert clock.now() == pytest.approx(before)
        assert "commit-wait" not in clock.accounts()

    def test_release_time_recorded(self):
        clock = SimClock()
        clock.charge(1.0)
        with clock.exclusive("res"):
            clock.charge(0.5)
        assert clock.resource_release("res") == pytest.approx(1.5)

    def test_parallel_tracks_rendezvous(self):
        """Two overlapping tracks using the same resource serialize on it."""
        clock = ParallelClock()
        with clock.track("a", start=0.0):
            clock.charge(1.0, "work")
            with clock.exclusive("res", account="serialize-wait"):
                clock.charge(2.0, "critical")  # releases at t=3
        with clock.track("b", start=0.0) as b:
            clock.charge(0.5, "work")  # at t=0.5, resource held until 3
            with clock.exclusive("res", account="serialize-wait"):
                clock.charge(2.0, "critical")
        assert b.accounts["serialize-wait"] == pytest.approx(2.5)
        assert b.end == pytest.approx(5.0)

    def test_holds_count_each_holders_time_and_not_its_wait(self):
        """Two overlapping holders: the second waits 2.5 s, and the ledger
        sums only the 2 s each held."""
        clock = ParallelClock()
        with clock.track("a", start=0.0):
            clock.charge(1.0, "work")
            with clock.exclusive("res", account="serialize-wait"):
                clock.charge(2.0, "critical")
        with clock.track("b", start=0.0) as b:
            clock.charge(0.5, "work")
            with clock.exclusive("res", account="serialize-wait"):
                clock.charge(2.0, "critical")
            with clock.exclusive("other"):
                clock.charge(0.25, "critical")
        assert clock.holds() == pytest.approx({"res": 4.0, "other": 0.25})
        assert b.accounts["serialize-wait"] == pytest.approx(2.5)
        assert clock.accounts()["serialize-wait"] == pytest.approx(2.5)

    def test_uncontended_parallel_resource_is_free(self):
        clock = ParallelClock()
        with clock.track("a", start=0.0):
            with clock.exclusive("res"):
                clock.charge(1.0)
        with clock.track("b", start=5.0) as b:  # arrives after release
            with clock.exclusive("res", account="serialize-wait"):
                clock.charge(1.0)
        assert "serialize-wait" not in b.accounts
        assert b.elapsed == pytest.approx(1.0)


# -- parallel tracks ------------------------------------------------------------------


class TestParallelClock:
    def test_charges_route_to_active_track(self):
        clock = ParallelClock()
        clock.charge(1.0, "setup")
        with clock.track("req") as track:
            clock.charge(0.25, "crypto")
            assert clock.now() == pytest.approx(1.25)
            assert track.accounts["crypto"] == pytest.approx(0.25)
        assert clock.now() == pytest.approx(1.25)

    def test_overlap_costs_max_not_sum(self):
        """Two same-length requests arriving together take one duration."""
        clock = ParallelClock()
        for label in ("a", "b"):
            with clock.track(label, start=0.0):
                clock.charge(2.0, "work")
        assert clock.now() == pytest.approx(2.0)  # makespan, not 4.0
        # accounts() sums *work* across tracks — it may exceed makespan.
        assert clock.accounts()["work"] == pytest.approx(4.0)

    def test_track_may_start_before_base_now(self):
        clock = ParallelClock()
        clock.charge(10.0)
        with clock.track("late-arrival", start=4.0) as track:
            clock.charge(1.0)
        assert track.end == pytest.approx(5.0)
        assert clock.now() == pytest.approx(10.0)  # base already later

    def test_nested_track_joins_parent(self):
        """A nested track is a synchronous sub-task: parent resumes at its end."""
        clock = ParallelClock()
        with clock.track("outer") as outer:
            clock.charge(1.0)
            with clock.track("inner"):
                clock.charge(3.0)
            assert outer.now() == pytest.approx(4.0)
            assert outer.accounts["join"] == pytest.approx(3.0)

    def test_tracks_close_lifo(self):
        clock = ParallelClock()
        outer = clock.open_track("outer")
        clock.open_track("inner")
        with pytest.raises(RuntimeError):
            clock.close_track(outer)

    def test_elapsed_is_latency(self):
        clock = ParallelClock()
        with clock.track("req", start=2.0) as track:
            clock.charge(0.5)
            clock.advance_to(4.0, account="lock-wait")
        assert track.elapsed == pytest.approx(2.0)
        assert track.accounts["lock-wait"] == pytest.approx(1.5)

    def test_closed_tracks_are_not_retained(self):
        """One track opens per dispatched request: a clock that kept them
        would grow for the life of the server."""
        clock = ParallelClock()
        with clock.track("request") as track:
            clock.charge(1.0, "work")
        assert track.elapsed == pytest.approx(1.0)  # the caller's object stays usable
        probe = weakref.ref(track)
        del track
        gc.collect()
        assert probe() is None
