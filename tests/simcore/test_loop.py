"""Unit tests for the event loop (repro.simcore.loop)."""

import pytest

from repro.simcore import Simulator
from repro.simcore.errors import ScheduleInPastError


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_schedule_runs_callback_at_time():
    sim = Simulator()
    seen = []
    sim.schedule(1.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.5]
    assert sim.now == 1.5


def test_schedule_with_args():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "x")
    sim.run()
    assert seen == ["x"]


def test_same_time_events_fire_fifo():
    sim = Simulator()
    order = []
    for tag in range(5):
        sim.schedule(2.0, order.append, tag)
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, order.append, "c")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(2.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]


def test_zero_delay_runs_after_current_same_time_events():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.call_soon(order.append, "nested")

    sim.schedule(1.0, first)
    sim.schedule(1.0, order.append, "second")
    sim.run()
    assert order == ["first", "second", "nested"]


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(ScheduleInPastError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.schedule_at(4.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [4.0]


def test_cancel_prevents_execution():
    sim = Simulator()
    seen = []
    handle = sim.schedule(1.0, seen.append, "x")
    handle.cancel()
    sim.run()
    assert seen == []
    assert not handle.alive


def test_cancel_is_idempotent_and_safe_after_fire():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.run()
    handle.cancel()  # already fired: no-op
    handle.cancel()


def test_run_until_stops_clock_at_until():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(5.0, seen.append, "b")
    sim.run(until=2.0)
    assert seen == ["a"]
    assert sim.now == 2.0
    sim.run()
    assert seen == ["a", "b"]


def test_run_until_is_resumable_and_composes():
    sim = Simulator()
    ticks = []

    def tick():
        ticks.append(sim.now)
        sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    sim.run(until=3.5)
    assert ticks == [1.0, 2.0, 3.0]
    sim.run(until=5.5)
    assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_step_executes_one_event():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, 1)
    sim.schedule(2.0, seen.append, 2)
    assert sim.step() is True
    assert seen == [1]
    assert sim.step() is True
    assert sim.step() is False


def test_peek_skips_cancelled():
    sim = Simulator()
    h1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    h1.cancel()
    assert sim.peek() == 2.0


def test_events_executed_counter():
    sim = Simulator()
    for _ in range(7):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_executed == 7


def test_pending_count_ignores_cancelled():
    sim = Simulator()
    handles = [sim.schedule(1.0, lambda: None) for _ in range(4)]
    handles[0].cancel()
    handles[3].cancel()
    assert sim.pending_count() == 2


def test_run_not_reentrant():
    sim = Simulator()

    def nested():
        with pytest.raises(RuntimeError):
            sim.run()

    sim.schedule(1.0, nested)
    sim.run()


def test_callback_scheduling_more_work_keeps_running():
    sim = Simulator()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(1.0, chain, 0)
    sim.run()
    assert seen == [0, 1, 2, 3]
    assert sim.now == 4.0


# ------------------------------------------------- single-pop fast path


def test_run_and_step_execute_identical_order():
    """run()'s merged pop loop must order events exactly like repeated
    step() calls (time, then FIFO seq), cancellations included."""

    def build(record):
        sim = Simulator()
        for tag in ("a", "b", "c"):
            sim.schedule(2.0, record.append, tag)
        h = sim.schedule(1.0, record.append, "cancelled")
        h.cancel()
        sim.schedule(1.0, record.append, "early")
        sim.schedule(3.0, record.append, "late")
        return sim

    via_run, via_step = [], []
    build(via_run).run()
    sim = build(via_step)
    while sim.step():
        pass
    assert via_run == via_step == ["early", "a", "b", "c", "late"]


def test_run_until_ignores_cancelled_head():
    sim = Simulator()
    seen = []
    head = sim.schedule(1.0, seen.append, "dead")
    sim.schedule(2.0, seen.append, "live")
    sim.schedule(9.0, seen.append, "beyond")
    head.cancel()
    sim.run(until=5.0)
    assert seen == ["live"]
    assert sim.now == 5.0
    sim.run()
    assert seen == ["live", "beyond"]


def test_pending_count_exact_under_churn():
    """pending_count() is a maintained O(1) counter now; it must stay equal
    to a brute-force walk of the heap through schedule/cancel/run cycles."""
    sim = Simulator()

    def brute():
        return sum(1 for handle in sim._queue if handle.alive)

    handles = [sim.schedule(float(i % 5) + 1.0, lambda: None) for i in range(50)]
    assert sim.pending_count() == brute() == 50
    for h in handles[::3]:
        h.cancel()
    for h in handles[::3]:
        h.cancel()  # double-cancel must not double-decrement
    assert sim.pending_count() == brute()
    sim.run(until=2.5)
    assert sim.pending_count() == brute()
    sim.run()
    assert sim.pending_count() == brute() == 0


def test_pending_count_zero_after_cancel_of_fired_event():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.run()
    handle.cancel()  # fired already: no-op, must not go negative
    assert sim.pending_count() == 0


def test_callback_cancelling_later_event_inside_run():
    sim = Simulator()
    seen = []
    later = sim.schedule(2.0, seen.append, "later")
    sim.schedule(1.0, lambda: later.cancel())
    sim.run()
    assert seen == []
    assert sim.pending_count() == 0
