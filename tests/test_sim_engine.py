"""Unit tests for the discrete-event engine."""

import heapq
import random

import pytest

from repro.sim.engine import (
    MILLISECONDS,
    SECONDS,
    Simulator,
    SimulationError,
)


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(30, lambda: order.append("c"))
        sim.schedule(10, lambda: order.append("a"))
        sim.schedule(20, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        sim = Simulator()
        order = []
        for name in "abcde":
            sim.schedule(100, lambda name=name: order.append(name))
        sim.run()
        assert order == list("abcde")

    def test_priority_beats_insertion_order(self):
        sim = Simulator()
        order = []
        sim.schedule(100, lambda: order.append("late"), priority=1)
        sim.schedule(100, lambda: order.append("early"), priority=0)
        sim.run()
        assert order == ["early", "late"]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(250, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [250]
        assert sim.now == 250

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(500, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [500]

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5, lambda: None)

    def test_nested_scheduling_from_callback(self):
        sim = Simulator()
        order = []

        def first():
            order.append(("first", sim.now))
            sim.schedule(5, lambda: order.append(("second", sim.now)))

        sim.schedule(10, first)
        sim.run()
        assert order == [("first", 10), ("second", 15)]


class TestCancellation:
    def test_cancelled_event_does_not_run(self):
        sim = Simulator()
        ran = []
        event = sim.schedule(10, lambda: ran.append(1))
        event.cancel()
        sim.run()
        assert ran == []

    def test_drain_cancels_many(self):
        sim = Simulator()
        ran = []
        events = [sim.schedule(i, lambda: ran.append(1)) for i in range(1, 6)]
        sim.drain(events)
        sim.run()
        assert ran == []


class TestRunControl:
    def test_run_until_stops_clock_at_bound(self):
        sim = Simulator()
        ran = []
        sim.schedule(100, lambda: ran.append("in"))
        sim.schedule(300, lambda: ran.append("out"))
        sim.run(until=200)
        assert ran == ["in"]
        assert sim.now == 200
        sim.run()
        assert ran == ["in", "out"]

    def test_run_until_with_empty_queue_advances_clock(self):
        sim = Simulator()
        sim.run(until=1 * SECONDS)
        assert sim.now == 1 * SECONDS

    def test_max_events(self):
        sim = Simulator()
        ran = []
        for i in range(10):
            sim.schedule(i + 1, lambda i=i: ran.append(i))
        executed = sim.run(max_events=3)
        assert executed == 3
        assert ran == [0, 1, 2]

    def test_stop_from_callback(self):
        sim = Simulator()
        ran = []
        sim.schedule(1, lambda: (ran.append(1), sim.stop()))
        sim.schedule(2, lambda: ran.append(2))
        sim.run()
        assert ran == [1]

    def test_not_reentrant(self):
        sim = Simulator()
        errors = []

        def nested():
            try:
                sim.run()
            except SimulationError:
                errors.append(True)

        sim.schedule(1, nested)
        sim.run()
        assert errors == [True]

    def test_step_returns_false_when_empty(self):
        sim = Simulator()
        assert sim.step() is False

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_determinism_across_runs(self):
        def run_once():
            sim = Simulator()
            order = []
            for i in range(50):
                sim.schedule((i * 7) % 13, lambda i=i: order.append(i))
            sim.run()
            return order

        assert run_once() == run_once()


class _ModelEvent:
    def __init__(self, callback):
        self.callback = callback
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class _ModelSimulator:
    """Reference semantics of :class:`Simulator`: one heap popping the
    least ``(time, priority, seq)`` key among live events — a sort by
    that key, extended to events that callbacks schedule mid-run."""

    def __init__(self):
        self.now = 0
        self.events_processed = 0
        self._heap = []
        self._seq = 0

    def schedule(self, delay, callback, *, priority=0):
        event = _ModelEvent(callback)
        heapq.heappush(self._heap, (self.now + delay, priority, self._seq, event))
        self._seq += 1
        return event

    def schedule_block(self, items, *, priority=0):
        for delay, callback in items:
            self.schedule(delay, callback, priority=priority)

    def run(self, until):
        heap = self._heap
        while True:
            while heap and heap[0][3].cancelled:
                heapq.heappop(heap)
            head = heap[0] if heap else None
            if head is None or head[0] > until:
                self.now = until
                return
            heapq.heappop(heap)
            self.now = head[0]
            self.events_processed += 1
            head[3].callback()


def _fuzz_schedule(sim, log, seed, events=400):
    """Random mix of ``schedule`` (several priorities), ``schedule_block``,
    nested same-instant scheduling from callbacks, and cancellation."""
    rnd = random.Random(seed)
    rnd_inner = random.Random(seed + 1)
    cancellable = []

    def make_cb(tag):
        def cb():
            log.append((sim.now, tag))
            # Nested scheduling, including delay 0 at a priority below
            # the running event's (lands mid-bucket while it drains).
            if rnd_inner.random() < 0.25:
                sim.schedule(
                    rnd_inner.randrange(0, 5),
                    make_cb((tag, "n")),
                    priority=rnd_inner.choice([0, 1, 5]),
                )

        return cb

    for i in range(events):
        kind = rnd.random()
        delay = rnd.randrange(0, 50)
        if kind < 0.6:
            ev = sim.schedule(delay, make_cb(("s", i)), priority=rnd.choice([0, 0, 1, 5]))
            if rnd.random() < 0.3:
                cancellable.append(ev)
        else:
            block = [
                (delay + j % 3, make_cb(("blk", i, j)))
                for j in range(rnd.randrange(1, 5))
            ]
            sim.schedule_block(block, priority=rnd.choice([0, 2]))
        if cancellable and rnd.random() < 0.2:
            cancellable.pop(rnd.randrange(len(cancellable))).cancel()


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 17])
def test_simulator_orders_like_model(seed):
    logs = []
    for cls in (Simulator, _ModelSimulator):
        sim = cls()
        log = []
        _fuzz_schedule(sim, log, seed)
        sim.run(until=200)
        logs.append((log, sim.now, sim.events_processed))
    assert logs[0] == logs[1]
    assert len(logs[0][0]) > 400
