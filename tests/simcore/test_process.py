"""Unit tests for processes, timeouts, and combinators."""

import pytest

from repro.netsim.addresses import IPv4
from repro.simcore import AllOf, AnyOf, ProcessKilled, Simulator
from repro.simcore.trace import TraceLog


@pytest.fixture
def sim():
    return Simulator()


def test_process_runs_and_returns(sim):
    def proc():
        yield sim.timeout(1.0)
        return "done"

    p = sim.spawn(proc())
    sim.run()
    assert p.done
    assert p.result == "done"
    assert sim.now == 1.0


def test_process_result_before_done_raises(sim):
    def proc():
        yield sim.timeout(1.0)

    p = sim.spawn(proc())
    with pytest.raises(RuntimeError):
        _ = p.result


def test_timeout_yields_value(sim):
    seen = []

    def proc():
        value = yield sim.timeout(0.5)
        seen.append(value)

    sim.spawn(proc())
    sim.run()
    assert seen == [None]


def test_sequential_timeouts_accumulate(sim):
    times = []

    def proc():
        for _ in range(3):
            yield sim.timeout(0.25)
            times.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert times == [0.25, 0.5, 0.75]


def test_process_join_receives_return_value(sim):
    def child():
        yield sim.timeout(2.0)
        return 42

    def parent():
        value = yield sim.spawn(child())
        return value * 2

    p = sim.spawn(parent())
    sim.run()
    assert p.result == 84


def test_join_already_finished_process(sim):
    def child():
        yield sim.timeout(0.1)
        return "early"

    results = []

    def parent(c):
        yield sim.timeout(5.0)
        value = yield c
        results.append(value)

    c = sim.spawn(child())
    sim.spawn(parent(c))
    sim.run()
    assert results == ["early"]


def test_exception_in_process_propagates_to_joiner(sim):
    def child():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    caught = []

    def parent():
        try:
            yield sim.spawn(child())
        except ValueError as exc:
            caught.append(str(exc))

    sim.spawn(parent())
    sim.run()
    assert caught == ["boom"]


def test_crashed_process_records_exception(sim):
    def proc():
        yield sim.timeout(1.0)
        raise KeyError("k")

    p = sim.spawn(proc())
    sim.run()
    assert p.done
    assert isinstance(p.exception, KeyError)
    with pytest.raises(KeyError):
        _ = p.result


def test_kill_injects_process_killed(sim):
    cleaned = []

    def proc():
        try:
            yield sim.timeout(100.0)
        except ProcessKilled:
            cleaned.append(True)
            raise

    p = sim.spawn(proc())
    sim.schedule(1.0, p.kill)
    sim.run()
    assert cleaned == [True]
    assert isinstance(p.exception, ProcessKilled)


def test_tuple_name_reads_as_its_parts_joined(sim):
    """A name given as parts reads exactly as the f-string it replaces, in
    the spawn trace and in the kill message."""
    traced = Simulator(trace=TraceLog(enabled=True))
    client = IPv4("10.0.0.7")

    def proc():
        yield traced.timeout(100.0)

    p = traced.spawn(proc(), name=("edge-dispatch", client, "svc"))
    traced.schedule(1.0, p.kill)
    traced.run()
    assert p.name == f"edge-dispatch:{client}:svc"
    assert str(p.exception) == f"process 'edge-dispatch:{client}:svc' killed"
    assert f"name=edge-dispatch:{client}:svc" in traced.trace.dump()


def test_kill_finished_process_is_noop(sim):
    def proc():
        yield sim.timeout(0.1)
        return 1

    p = sim.spawn(proc())
    sim.run()
    p.kill()
    assert p.result == 1


def test_yield_non_waitable_crashes_process(sim):
    def proc():
        yield 42  # not a waitable

    p = sim.spawn(proc())
    sim.run()
    assert isinstance(p.exception, TypeError)


def test_allof_collects_in_construction_order(sim):
    def worker(delay, tag):
        yield sim.timeout(delay)
        return tag

    def parent():
        a = sim.spawn(worker(3.0, "slow"))
        b = sim.spawn(worker(1.0, "fast"))
        results = yield AllOf(sim, [a, b])
        return results

    p = sim.spawn(parent())
    sim.run()
    assert p.result == ["slow", "fast"]
    assert sim.now == 3.0


def test_allof_empty_completes_immediately(sim):
    def parent():
        results = yield AllOf(sim, [])
        return results

    p = sim.spawn(parent())
    sim.run()
    assert p.result == []


def test_allof_propagates_first_failure(sim):
    def ok():
        yield sim.timeout(1.0)

    def bad():
        yield sim.timeout(2.0)
        raise RuntimeError("bad")

    def parent():
        yield AllOf(sim, [sim.spawn(ok()), sim.spawn(bad())])

    p = sim.spawn(parent())
    sim.run()
    assert isinstance(p.exception, RuntimeError)


def test_anyof_returns_first_winner(sim):
    def worker(delay, tag):
        yield sim.timeout(delay)
        return tag

    def parent():
        slow = sim.spawn(worker(5.0, "slow"))
        fast = sim.spawn(worker(1.0, "fast"))
        index, value = yield AnyOf(sim, [slow, fast])
        return index, value, sim.now

    p = sim.spawn(parent())
    sim.run()
    index, value, t = p.result
    assert (index, value) == (1, "fast")
    assert t == 1.0


def test_anyof_with_timeout_race(sim):
    """The canonical wait-with-timeout idiom."""

    def slow_work():
        yield sim.timeout(10.0)
        return "work"

    def parent():
        work = sim.spawn(slow_work())
        deadline = sim.timeout(2.0)
        index, _ = yield AnyOf(sim, [work, deadline])
        return "timed-out" if index == 1 else "completed"

    p = sim.spawn(parent())
    sim.run()
    assert p.result == "timed-out"


def test_anyof_requires_children(sim):
    with pytest.raises(ValueError):
        AnyOf(sim, [])


def test_spawn_order_determines_first_run_order(sim):
    order = []

    def proc(tag):
        order.append(tag)
        yield sim.timeout(0.0)

    sim.spawn(proc("a"))
    sim.spawn(proc("b"))
    sim.run()
    assert order[:2] == ["a", "b"]


def test_process_alive_flag(sim):
    def proc():
        yield sim.timeout(1.0)

    p = sim.spawn(proc())
    assert p.alive
    sim.run()
    assert not p.alive


def test_nested_spawn_and_join_chain(sim):
    def leaf(n):
        yield sim.timeout(0.1)
        return n

    def mid(n):
        value = yield sim.spawn(leaf(n))
        return value + 1

    def root():
        values = yield AllOf(sim, [sim.spawn(mid(i)) for i in range(4)])
        return sum(values)

    p = sim.spawn(root())
    sim.run()
    assert p.result == 1 + 2 + 3 + 4
