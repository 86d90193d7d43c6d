"""Tracer arithmetic on a synthetic nested-call fixture (fake clock)."""

from __future__ import annotations

import types

import pytest

from ledger.tracer import ROOT, Tracer, layer_of


class FakeClock:
    """Every reading advances time by one tick; ``work`` burns more."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        self.now += 1
        return self.now

    def work(self, ticks: int) -> None:
        self.now += ticks


def make_fixture():
    """outer() burns 10, calls inner() twice (5 each) and leaf() once (2,
    inside the second inner)."""
    clock = FakeClock()

    class Stack:
        def outer(self):
            clock.work(10)
            self.inner(False)
            return self.inner(True)

        def inner(self, deeper):
            clock.work(5)
            if deeper:
                Stack.leaf()
            return "done"

        @staticmethod
        def leaf():
            clock.work(2)

    return clock, Stack


def test_self_times_sum_to_the_root_span():
    clock, Stack = make_fixture()
    with Tracer(clock=clock) as tracer:
        tracer.patch(Stack, "outer", "top")
        tracer.patch(Stack, "inner", "mid")
        tracer.patch(Stack, "leaf", "low")
        tracer.begin()
        assert Stack().outer() == "done"
        duration = tracer.end()
        spans = tracer.by_span()

    assert sum(s["self_ns"] for s in spans.values()) == duration == spans[ROOT]["incl_ns"]
    assert spans["mid:make_fixture.<locals>.Stack.inner"]["calls"] == 2
    # Self time: the span's own work, the tick of its closing clock read,
    # and the tick each child's opening read takes before the child starts.
    assert spans["low:make_fixture.<locals>.Stack.leaf"]["self_ns"] == 2 + 1
    assert spans["mid:make_fixture.<locals>.Stack.inner"]["self_ns"] == (5 + 1) + (5 + 1 + 1)
    assert spans["top:make_fixture.<locals>.Stack.outer"]["self_ns"] == 10 + 1 + 2
    inner = spans["mid:make_fixture.<locals>.Stack.inner"]
    assert inner["incl_ns"] == inner["self_ns"] + spans["low:make_fixture.<locals>.Stack.leaf"]["incl_ns"]
    assert layer_of("mid:make_fixture.<locals>.Stack.inner") == "mid"


def test_every_patch_is_restored_on_exit():
    _, Stack = make_fixture()
    before = dict(vars(Stack))
    with Tracer() as tracer:
        for attr in ("outer", "inner", "leaf"):
            tracer.patch(Stack, attr, "layer")
        assert vars(Stack)["outer"] is not before["outer"]
        assert isinstance(vars(Stack)["leaf"], staticmethod)
    assert dict(vars(Stack)) == before


def test_patches_are_restored_when_the_region_raises():
    _, Stack = make_fixture()
    original = vars(Stack)["inner"]
    with pytest.raises(ZeroDivisionError):
        with Tracer() as tracer:
            tracer.patch(Stack, "inner", "layer")
            1 / 0
    assert vars(Stack)["inner"] is original


def test_a_raising_span_still_closes():
    clock = FakeClock()

    def boom():
        clock.work(3)
        raise ValueError("boom")

    tracer = Tracer(clock=clock)
    traced = tracer.wrap(boom, "layer:boom")
    tracer.begin()
    with pytest.raises(ValueError):
        traced()
    duration = tracer.end()
    spans = tracer.by_span()
    assert spans["layer:boom"]["calls"] == 1
    assert sum(s["self_ns"] for s in spans.values()) == duration


def test_patch_function_reaches_every_importing_module(monkeypatch):
    import sys

    def helper():
        return 42

    home = types.ModuleType("fakepkg.home")
    user = types.ModuleType("fakepkg.user")
    outside = types.ModuleType("elsewhere")
    home.helper = user.helper = outside.helper = helper
    for module in (home, user, outside):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    with Tracer() as tracer:
        tracer.patch_function(helper, "layer", package="fakepkg")
        assert home.helper is user.helper is not helper
        assert outside.helper is helper
        tracer.begin()
        assert user.helper() == 42
        tracer.end()
        assert tracer.by_span()["layer:test_patch_function_reaches_every_importing_module"
                                ".<locals>.helper"]["calls"] == 1
    assert home.helper is user.helper is helper


def test_unnamed_callbacks_get_a_span_and_named_ones_pass_through():
    class Thing:
        def method(self):
            return "m"

    with Tracer(layer_of_code=lambda code: "here") as tracer:
        tracer.patch(Thing, "method", "named")
        bound = Thing().method
        assert tracer.wrap_callback(bound) is bound

        def closure():
            return "c"

        wrapped = tracer.wrap_callback(closure)
        assert wrapped is not closure
        tracer.begin()
        assert wrapped() == "c"
        tracer.end()
        name = "here:test_unnamed_callbacks_get_a_span_and_named_ones_pass_through.<locals>.closure"
        assert tracer.by_span()[name]["calls"] == 1


def test_adapt_can_rename_a_call_and_swap_an_argument():
    tracer = Tracer()
    other = tracer.span_index("other:renamed")

    def adapt(args):
        return (other if args[0] == "rename" else None), (args[0], args[1] * 2)

    traced = tracer.wrap(lambda tag, value: value, "layer:f", adapt)
    tracer.begin()
    assert traced("keep", 1) == 2
    assert traced("rename", 2) == 4
    tracer.end()
    spans = tracer.by_span()
    assert spans["layer:f"]["calls"] == 1 and spans["other:renamed"]["calls"] == 1


def test_raw_spans_link_children_to_parents_and_stop_after_the_events():
    clock, Stack = make_fixture()
    with Tracer(clock=clock) as tracer:
        tracer.patch(Stack, "outer", "loop")  # plays the event loop
        tracer.patch(Stack, "inner", "mid")
        tracer.patch(Stack, "leaf", "low")
        tracer.begin()
        tracer.record_spans(2, under="loop:make_fixture.<locals>.Stack.outer")
        Stack().outer()
        Stack().outer()  # recording stopped after the first call's two events
        tracer.end()
        spans = tracer.raw_spans()
    names = [span["name"].partition(":")[0] for span in spans]
    assert names == ["mid", "low", "mid"]
    assert spans[1]["parent"] == 2  # leaf inside the second inner
    assert spans[0]["parent"] is None and spans[2]["parent"] is None  # loop span still open
    assert all(span["start_ns"] < span["end_ns"] for span in spans)
