"""Switchless call queues: fast path, worker exhaustion fallback."""

import pytest

from repro.netsim import SimClock
from repro.sgx import SwitchlessQueue
from repro.sgx.costmodel import SgxCostModel


def test_submit_runs_and_returns():
    queue = SwitchlessQueue(SimClock(), SgxCostModel(), workers=2)
    assert queue.submit(lambda a, b: a + b, 2, 3) == 5
    assert queue.stats.submitted == 1
    assert queue.stats.fast == 1


def test_fast_path_charges_switchless_cost():
    clock = SimClock()
    costs = SgxCostModel()
    queue = SwitchlessQueue(clock, costs, workers=2)
    queue.submit(lambda: None)
    assert clock.now() == pytest.approx(costs.switchless_call)


def test_exhausted_workers_fall_back_to_transition():
    clock = SimClock()
    costs = SgxCostModel()
    queue = SwitchlessQueue(clock, costs, workers=2)
    # Calls nested deeper than the pool: the third finds both workers busy.
    queue.submit(queue.submit, queue.submit, lambda: None)
    assert queue.stats.fast == 2
    assert queue.stats.fallback == 1
    assert clock.now() == pytest.approx(2 * costs.switchless_call + costs.ocall_transition)


def test_exception_propagates_and_releases_slot():
    queue = SwitchlessQueue(SimClock(), SgxCostModel(), workers=1)

    def boom():
        raise RuntimeError("task failed")

    with pytest.raises(RuntimeError):
        queue.submit(boom)
    # The slot was released: the next call takes the fast path again.
    queue.submit(lambda: None)
    assert queue.stats.fast == 2


# -- parallel dispatch ----------------------------------------------------------------


class TestDispatch:
    def _queue(self, workers):
        from repro.netsim import ParallelClock

        clock = ParallelClock()
        return clock, SwitchlessQueue(clock, SgxCostModel(), workers=workers)

    def test_serial_clock_degrades_to_submit(self):
        clock = SimClock()
        queue = SwitchlessQueue(clock, SgxCostModel(), workers=2)
        assert queue.dispatch(lambda: 7) == 7
        assert queue.stats.dispatched == 0  # ran via submit
        assert queue.stats.submitted == 1

    def test_overlapping_tasks_cost_max_not_sum(self):
        clock, queue = self._queue(workers=2)
        costs = SgxCostModel()

        def work():
            clock.charge(1.0, "work")

        queue.dispatch(work, arrival=0.0)
        queue.dispatch(work, arrival=0.0)
        # Both fit in the pool: makespan is one task, not two.
        assert clock.now() == pytest.approx(1.0 + costs.switchless_call)
        assert queue.stats.fast == 2

    def test_saturated_pool_queues_behind_busy_worker(self):
        clock, queue = self._queue(workers=1)
        costs = SgxCostModel()

        def work():
            clock.charge(1.0, "work")

        queue.dispatch(work, arrival=0.0)
        queue.dispatch(work, arrival=0.0)  # must wait for the only worker
        second = queue.last_track
        # The worker is busy, not parked: the request queues behind it and
        # the freed worker picks it up on the spot — no SDK transition.
        assert queue.stats.queued == 1
        assert queue.stats.fallback == 0
        assert second.accounts["worker-wait"] == pytest.approx(
            1.0 + costs.switchless_call
        )
        assert queue.stats.worker_wait_s == pytest.approx(
            1.0 + costs.switchless_call
        )

    def test_pool_bounds_parallelism(self):
        """N tasks on W workers take ~N/W serial spans, not 1."""
        costs = SgxCostModel()

        def makespan(workers, tasks=8):
            clock, queue = self._queue(workers=workers)
            for _ in range(tasks):
                queue.dispatch(lambda: clock.charge(1.0, "work"), arrival=0.0)
            return clock.now()

        one = makespan(1)
        four = makespan(4)
        assert one > 7.9  # essentially serial
        assert four < one / 2  # the gate the concurrency bench enforces
        # Second wave: wait until the first wave frees the pool (1 + sc),
        # then the freed workers pick the queued requests straight off the
        # queue — a switchless call again, not an SDK transition.
        assert four == pytest.approx(
            (1.0 + costs.switchless_call) + costs.switchless_call + 1.0
        )

    def test_exception_releases_worker_and_closes_track(self):
        clock, queue = self._queue(workers=1)

        def boom():
            clock.charge(1.0, "work")
            raise RuntimeError("task failed")

        with pytest.raises(RuntimeError):
            queue.dispatch(boom, arrival=0.0)
        assert clock.active_track() is None
        result = queue.dispatch(lambda: "ok", arrival=5.0)
        assert result == "ok"
        # The worker was released at t≈1 despite the exception; by t=5 it
        # sat idle past the spin window, parked, and had to be woken.
        assert queue.stats.fast == 1
        assert queue.stats.parks == 1
        assert queue.stats.wakes == 1
        assert queue.stats.fallback == 1

    def test_return_value_and_args_pass_through(self):
        clock, queue = self._queue(workers=2)
        assert queue.dispatch(lambda a, b: a * b, 6, 7, arrival=0.0) == 42


class TestAdaptivePool:
    """Spin-then-park worker lifecycle (SDK switchless worker model)."""

    def _queue(self, workers, **kwargs):
        from repro.netsim import ParallelClock

        clock = ParallelClock()
        return clock, SwitchlessQueue(clock, SgxCostModel(), workers=workers, **kwargs)

    def test_idle_worker_parks_then_wakes(self):
        clock, queue = self._queue(workers=1)
        costs = SgxCostModel()
        queue.dispatch(lambda: clock.charge(1.0, "work"), arrival=0.0)
        # Freed at ~1.0; by t=2.0 it has spun past the window and parked.
        queue.dispatch(lambda: None, arrival=2.0)
        assert queue.stats.parks == 1
        assert queue.stats.wakes == 1
        assert queue.stats.fallback == 1
        track = queue.last_track
        assert track.accounts["transitions"] == pytest.approx(
            costs.ocall_transition
        )

    def test_spin_pickup_within_window(self):
        clock, queue = self._queue(workers=1)
        costs = SgxCostModel()
        queue.dispatch(lambda: clock.charge(1.0, "work"), arrival=0.0)
        free = 1.0 + costs.switchless_call
        # Arrive while the freed worker is still spinning: switchless fast
        # path, no park, no transition.
        queue.dispatch(lambda: None, arrival=free + queue.spin_window / 2)
        assert queue.stats.fast == 2
        assert queue.stats.spins == 2
        assert queue.stats.parks == 0
        assert queue.stats.fallback == 0

    def test_closed_loop_stream_never_falls_back(self):
        """A single closed-loop client keeps its worker hot: every request
        arrives exactly when the previous one finishes, so the worker never
        idles past the spin window and every call takes the fast path."""
        clock, queue = self._queue(workers=1)
        arrival = 0.0
        for _ in range(20):
            queue.dispatch(lambda: clock.charge(0.001, "work"), arrival=arrival)
            arrival = queue.last_track.end
        assert queue.stats.fast == 20
        assert queue.stats.fallback == 0
        assert queue.stats.parks == 0

    def test_queued_reuse_charges_switchless_not_transition(self):
        clock, queue = self._queue(workers=2)
        costs = SgxCostModel()
        for _ in range(3):  # third dispatch queues behind the first two
            queue.dispatch(lambda: clock.charge(1.0, "work"), arrival=0.0)
        assert queue.stats.queued == 1
        assert queue.stats.fast == 3
        track = queue.last_track
        assert track.accounts["transitions"] == pytest.approx(
            costs.switchless_call
        )
        assert track.accounts["worker-wait"] == pytest.approx(
            1.0 + costs.switchless_call
        )

    def test_spin_window_zero_always_parks_idle_workers(self):
        clock, queue = self._queue(workers=1, spin_window=0.0)
        queue.dispatch(lambda: clock.charge(1.0, "work"), arrival=0.0)
        queue.dispatch(lambda: None, arrival=3.0)
        assert queue.stats.parks == 1
        assert queue.stats.wakes == 1
