"""Wrapper tracer: timing spans around the calls into each layer.

The traced run monkey-patches a timing wrapper over every layer entry point
(:mod:`ledger.layers` says which). A wrapper opens a *span* — name, start,
end, parent — and the tracer keeps, per span name, the call count, the
inclusive time and the **self time**: the span's duration minus the part of
it covered by child spans. Spans nest strictly (the simulation is single
threaded), so the self times of all spans plus the root's own add up to the
root span's duration exactly, in integer nanoseconds.

Three kinds of call are wrapped:

* named entry points, patched on their class or module (:meth:`patch`,
  :meth:`patch_function`);
* event-loop callbacks nobody patched (closures, lambdas, watchdogs):
  :meth:`wrap_callback` gives each a span named after the module that
  defines it, so no callback's time is left in the loop's own span;
* steps of simulation processes: one patched method runs every generator, so
  its span is named per call (``adapt``) after the generator's module
  (:meth:`index_for_code`).

Aggregates are kept for the whole region; raw spans only while a recording
window is open (:meth:`record_spans`), because a multi-second region holds
millions of them.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = "trace:root"


def layer_of(span_name: str) -> str:
    """``"netsim.link:Link.transmit"`` -> ``"netsim.link"``."""
    return span_name.partition(":")[0]


class Tracer:
    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns,
                 layer_of_code: Optional[Callable[[Any], str]] = None) -> None:
        self.clock = clock
        #: code object -> layer, for callbacks and generators nobody named
        self._layer_of_code = layer_of_code or (lambda code: "other")
        self.names: List[str] = []
        self.calls: List[int] = []
        self.self_ns: List[int] = []
        self.incl_ns: List[int] = []
        self._index: Dict[str, int] = {}
        self._code_index: Dict[Any, int] = {}
        #: one ``[child_ns, span_index]`` frame per open span; frame 0 is the root
        self._stack: List[List[int]] = [[0, self.span_index(ROOT)]]
        self._root_start = 0
        #: functions that already are wrappers (callbacks bound to them pass through)
        self._traced: set = set()
        self._patches: List[Tuple[Any, str, Any]] = []
        #: one-slot cell the wrappers read: the raw-span sink, or None
        self._sink: List[Optional[List[Tuple[int, int, int, int]]]] = [None]
        self._raw: List[Tuple[int, int, int, int]] = []
        self._events_left = 0
        self._event_parent = -1

    # ------------------------------------------------------------ span table

    def span_index(self, name: str) -> int:
        index = self._index.get(name)
        if index is None:
            index = self._index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            self.incl_ns.append(0)
        return index

    def index_for_code(self, func: Any) -> int:
        """Span index for an un-named callable or generator, by the module
        defining it."""
        code = getattr(func, "__code__", None) or getattr(func, "gi_code", None)
        key = code if code is not None else type(func)
        index = self._code_index.get(key)
        if index is None:
            layer = self._layer_of_code(code) if code is not None else "other"
            label = getattr(func, "__qualname__", type(func).__name__)
            index = self._code_index[key] = self.span_index(f"{layer}:{label}")
        return index

    # -------------------------------------------------------------- wrapping

    def _span(self, func: Callable, fixed_index: int,
              adapt: Optional[Callable[[tuple], Tuple[Optional[int], tuple]]] = None,
              ) -> Callable:
        calls, self_ns, incl_ns = self.calls, self.self_ns, self.incl_ns
        stack, clock, sink_cell = self._stack, self.clock, self._sink
        push, pop = stack.append, stack.pop
        recorded = self._recorded

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = fixed_index
            if adapt is not None:
                picked, args = adapt(args)
                if picked is not None:
                    index = picked
            frame = [0, index]
            push(frame)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                pop()
                duration = end - start
                calls[index] += 1
                incl_ns[index] += duration
                self_ns[index] += duration - frame[0]
                parent = stack[-1]
                parent[0] += duration
                if sink_cell[0] is not None:
                    recorded(index, len(stack), start, end, parent[1])

        return traced

    def wrap(self, func: Callable, name: str,
             adapt: Optional[Callable[[tuple], Tuple[Optional[int], tuple]]] = None,
             ) -> Callable:
        """A span named ``name`` (``"<layer>:<qualname>"``) around ``func``.

        ``adapt(args) -> (span index or None, args)`` runs before the span
        opens: it may name this one call differently or swap an argument."""
        traced = self._span(func, self.span_index(name), adapt)
        self._traced.add(traced)  # per-call spans stay out: the set would pin them
        return functools.update_wrapper(traced, func)

    def wrap_callback(self, callback: Callable) -> Callable:
        """``callback`` itself if it is bound to a wrapper already, else a
        span named after the module that defines it."""
        func = getattr(callback, "__func__", callback)
        if func in self._traced:
            return callback
        return self._span(callback, self.index_for_code(func))

    # -------------------------------------------------------------- patching

    def replace(self, owner: Any, attr: str, new: Any) -> None:
        """Set ``owner.attr = new`` and remember how to undo it."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def patch(self, owner: Any, attr: str, layer: str,
              adapt: Optional[Callable[[tuple], Tuple[Optional[int], tuple]]] = None,
              ) -> None:
        """Wrap the function ``owner.attr`` (class or module attribute)."""
        raw = vars(owner)[attr]
        rewrap = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        func = raw.__func__ if rewrap else raw
        traced = self.wrap(func, f"{layer}:{func.__qualname__}", adapt)
        self.replace(owner, attr, rewrap(traced) if rewrap else traced)

    def patch_function(self, func: Callable, layer: str, package: str) -> None:
        """Wrap a module-level function in every module of ``package`` that
        holds a reference to it (``from m import f`` copies the binding)."""
        traced = self.wrap(func, f"{layer}:{func.__qualname__}")
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == package
                                      or module_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self.replace(module, attr, traced)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()

    # ------------------------------------------------------------ the region

    def begin(self) -> None:
        """Open the root span; forgets whatever was aggregated before."""
        if len(self._stack) != 1:
            raise RuntimeError("Tracer.begin() inside an open span")
        for table in (self.calls, self.self_ns, self.incl_ns):
            table[:] = [0] * len(table)
        self._stack[0][0] = 0
        self._raw = []
        self._root_start = self.clock()

    def end(self) -> int:
        """Close the root span; returns its duration in ns."""
        duration = self.clock() - self._root_start
        if len(self._stack) != 1:
            raise RuntimeError("Tracer.end() inside an open span")
        self._sink[0] = None
        self.calls[0] += 1
        self.incl_ns[0] += duration
        self.self_ns[0] += duration - self._stack[0][0]
        return duration

    def record_spans(self, events: int, under: str) -> None:
        """Keep raw spans until ``events`` spans whose parent is the span
        named ``under`` (the event loop) have closed."""
        self._events_left = events
        self._event_parent = self.span_index(under)
        self._sink[0] = self._raw

    def _recorded(self, index: int, depth: int, start: int, end: int,
                  parent_index: int) -> None:
        self._raw.append((index, depth, start, end))
        if parent_index == self._event_parent:
            self._events_left -= 1
            if self._events_left <= 0:
                self._sink[0] = None

    # --------------------------------------------------------------- results

    def by_span(self) -> Dict[str, Dict[str, int]]:
        return {name: {"calls": self.calls[i], "self_ns": self.self_ns[i],
                       "incl_ns": self.incl_ns[i]}
                for i, name in enumerate(self.names) if self.calls[i]}

    def raw_spans(self) -> List[Dict[str, Any]]:
        """The recorded spans — name, start, end (ns from the root's start),
        parent (position in this list; None when the parent was still open
        when recording stopped, as the event loop's own span always is)."""
        spans: List[Dict[str, Any]] = []
        awaiting: Dict[int, List[int]] = {}
        # Spans close children-first, so a span at depth d adopts every
        # not-yet-adopted span at depth d+1 closed before it.
        for position, (index, depth, start, end) in enumerate(self._raw):
            spans.append({"name": self.names[index],
                          "start_ns": start - self._root_start,
                          "end_ns": end - self._root_start,
                          "parent": None})
            for child in awaiting.pop(depth + 1, ()):
                spans[child]["parent"] = position
            awaiting.setdefault(depth, []).append(position)
        return spans
