"""The determinism rule set (``REP001``..``REP010``).

Each rule is a small AST visitor registered in :data:`RULES`. Rules are
deliberately *repo-specific*: they encode the determinism contract of
:mod:`repro.simcore` (virtual time from ``Simulator.now``, randomness from
:class:`~repro.simcore.rng.RandomStreams`, FIFO same-time ordering), not
general Python style. A finding that is intentional is silenced inline with
``# repro: noqa[REP00x]`` plus, by convention, a short justification.

Adding a rule
-------------
Subclass :class:`Rule`, set ``code``/``name``/``rationale``, implement
:meth:`Rule.check` yielding ``(node, message)`` pairs, and decorate with
:func:`register`. The engine handles discovery, suppression, selection and
reporting; see docs/analysis.md for the full walkthrough.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Type


class ImportMap:
    """Resolves local names to canonical dotted module paths.

    Built once per file from its import statements, so rules can recognise
    ``time.time`` whether it was imported as ``import time``,
    ``import time as t`` or ``from time import time``.
    """

    def __init__(self, tree: ast.Module):
        self._aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    # `import a.b` binds `a`; `import a.b as c` binds c -> a.b
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self._aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self._aliases[local] = f"{node.module}.{alias.name}"

    def canonical(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted path of a Name/Attribute chain, or None."""
        parts: List[str] = []
        cursor = node
        while isinstance(cursor, ast.Attribute):
            parts.append(cursor.attr)
            cursor = cursor.value
        if not isinstance(cursor, ast.Name):
            return None
        parts.append(cursor.id)
        parts.reverse()
        root = self._aliases.get(parts[0], parts[0])
        return ".".join([root] + parts[1:])


class FileContext:
    """Everything a rule needs to check one file."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.tree = tree
        self.imports = ImportMap(tree)


Finding = Tuple[ast.AST, str]


class Rule:
    """Base class for one lint rule."""

    code: str = ""
    name: str = ""
    rationale: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    @classmethod
    def describe(cls) -> str:
        return f"{cls.code} {cls.name}: {cls.rationale}"


#: code -> rule class; populated by :func:`register`
RULES: Dict[str, Type[Rule]] = {}


def register(rule: Type[Rule]) -> Type[Rule]:
    if not rule.code:
        raise ValueError(f"rule {rule.__name__} has no code")
    if rule.code in RULES:
        raise ValueError(f"duplicate rule code {rule.code}")
    RULES[rule.code] = rule
    return rule


def all_rules() -> List[Type[Rule]]:
    return [RULES[code] for code in sorted(RULES)]


def get_rule(code: str) -> Type[Rule]:
    return RULES[code]


# ---------------------------------------------------------------------------
# REP001 — wall-clock time
# ---------------------------------------------------------------------------


@register
class NoWallClock(Rule):
    """Simulated components must read time from ``Simulator.now``."""

    code = "REP001"
    name = "no-wall-clock"
    rationale = ("wall-clock reads (time.time/monotonic/perf_counter, "
                 "datetime.now) leak host timing into the simulation; "
                 "virtual time must come from Simulator.now")

    BANNED = frozenset({
        "time.time", "time.time_ns",
        "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "time.process_time", "time.process_time_ns",
        "time.clock_gettime",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    })

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.imports.canonical(node.func)
            if target in self.BANNED:
                yield node, (f"wall-clock call `{target}` — use the virtual "
                             f"clock (`Simulator.now`) instead")


# ---------------------------------------------------------------------------
# REP002 — module-level randomness
# ---------------------------------------------------------------------------


@register
class NoGlobalRandom(Rule):
    """All randomness flows through named ``RandomStreams`` streams."""

    code = "REP002"
    name = "no-global-random"
    rationale = ("module-level random/np.random convenience functions share "
                 "hidden global state; one extra draw anywhere perturbs every "
                 "component — draw from RandomStreams named streams")

    #: constructors/types that are fine to reference under numpy.random
    NUMPY_ALLOWED = frozenset({
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.SeedSequence",
        "numpy.random.BitGenerator",
        "numpy.random.PCG64",
        "numpy.random.Philox",
    })
    #: under the stdlib `random` module only the seeded class is tolerated
    STDLIB_ALLOWED = frozenset({"random.Random"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.imports.canonical(node.func)
            if target is None:
                continue
            if target.startswith("random.") and target not in self.STDLIB_ALLOWED:
                yield node, (f"global-state randomness `{target}` — draw from "
                             f"a RandomStreams named stream")
            elif (target.startswith("numpy.random.")
                  and target not in self.NUMPY_ALLOWED):
                yield node, (f"numpy global RNG `{target}` — draw from a "
                             f"RandomStreams named stream")


# ---------------------------------------------------------------------------
# REP003 — hash-ordered iteration
# ---------------------------------------------------------------------------


class _IterVisitor(ast.NodeVisitor):
    """Collects the `iter` expression of every for-loop and comprehension."""

    def __init__(self) -> None:
        self.targets: List[ast.AST] = []

    def visit_For(self, node: ast.For) -> None:
        self.targets.append(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self.targets.append(node.iter)
        self.generic_visit(node)

    def _comp(self, node: ast.AST) -> None:
        for gen in node.generators:  # type: ignore[attr-defined]
            self.targets.append(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _comp
    visit_SetComp = _comp
    visit_DictComp = _comp
    visit_GeneratorExp = _comp


@register
class NoHashOrderIteration(Rule):
    """Iteration order over sets is hash-salted; sort before iterating."""

    code = "REP003"
    name = "no-hash-order-iteration"
    rationale = ("iterating a set (or .keys() view used for ordering) in "
                 "scheduling-visible code makes event order depend on "
                 "PYTHONHASHSEED; wrap the iterable in sorted(...)")

    SET_METHODS = frozenset({
        "union", "intersection", "difference", "symmetric_difference",
    })

    def _is_hash_ordered(self, expr: ast.AST, ctx: FileContext) -> Optional[str]:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return "a set literal/comprehension"
        if isinstance(expr, ast.Call):
            target = ctx.imports.canonical(expr.func)
            if target in ("set", "frozenset"):
                return f"a {target}()"
            if isinstance(expr.func, ast.Attribute):
                if expr.func.attr in self.SET_METHODS:
                    return f"a set .{expr.func.attr}() result"
                if expr.func.attr == "keys" and not expr.args:
                    return "a .keys() view"
        return None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        visitor = _IterVisitor()
        visitor.visit(ctx.tree)
        for expr in visitor.targets:
            what = self._is_hash_ordered(expr, ctx)
            if what is not None:
                yield expr, (f"iterating {what} directly — order is "
                             f"hash/insertion dependent; use sorted(...) when "
                             f"the order can reach the event loop")


# ---------------------------------------------------------------------------
# REP004 — float equality on simulated time
# ---------------------------------------------------------------------------


@register
class NoSimTimeEquality(Rule):
    """Simulated timestamps are floats; compare with tolerances, not ==."""

    code = "REP004"
    name = "no-sim-time-equality"
    rationale = ("== / != between floats holding simulated time is brittle "
                 "(accumulated float error); compare with an epsilon or "
                 "restructure around event ordering")

    TIME_SUFFIXES = ("_at", "_time", "_deadline")
    TIME_NAMES = frozenset({"now", "_now", "deadline", "sim_time"})

    def _is_timeish(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute):
            terminal = node.attr
        elif isinstance(node, ast.Name):
            terminal = node.id
        else:
            return False
        return (terminal in self.TIME_NAMES
                or terminal.endswith(self.TIME_SUFFIXES))

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left] + list(node.comparators)
            # `x is None` style / sentinel comparisons are fine.
            if any(isinstance(op, ast.Constant) and op.value is None
                   for op in operands):
                continue
            for operand in operands:
                if self._is_timeish(operand):
                    yield node, ("equality comparison involving a simulated "
                                 "timestamp — use an epsilon "
                                 "(abs(a - b) < 1e-12) or ordering instead")
                    break


# ---------------------------------------------------------------------------
# REP005 — untyped raises
# ---------------------------------------------------------------------------


@register
class NoBareException(Rule):
    """Raise typed errors so callers can catch precisely."""

    code = "REP005"
    name = "no-bare-exception"
    rationale = ("`raise Exception`/`raise RuntimeError` hides failure "
                 "classes from callers; use a typed error (simcore.errors, "
                 "core.resilience/deployment, or a local subclass)")

    BANNED = frozenset({"Exception", "RuntimeError"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            target = exc.func if isinstance(exc, ast.Call) else exc
            name = ctx.imports.canonical(target)
            if name in self.BANNED:
                yield node, (f"`raise {name}` — raise a typed error so "
                             f"callers can catch this failure precisely")


# ---------------------------------------------------------------------------
# REP006 — possibly-negative schedule delays
# ---------------------------------------------------------------------------


@register
class NonNegativeDelay(Rule):
    """``schedule(delay, ...)`` delays must be provably non-negative."""

    code = "REP006"
    name = "non-negative-delay"
    rationale = ("a `deadline - now` delay expression can go negative under "
                 "float error and raise ScheduleInPastError mid-run; wrap in "
                 "max(0.0, ...) or guard explicitly")

    def _delay_arg(self, node: ast.Call) -> Optional[ast.AST]:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "schedule":
            if node.args:
                return node.args[0]
        return None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            delay = self._delay_arg(node)
            if delay is None:
                continue
            if isinstance(delay, ast.BinOp) and isinstance(delay.op, ast.Sub):
                yield delay, ("schedule() delay is a bare subtraction — wrap "
                              "in max(0.0, ...) or guard it so float error "
                              "cannot push it negative")
            elif (isinstance(delay, ast.UnaryOp)
                  and isinstance(delay.op, ast.USub)
                  and isinstance(delay.operand, ast.Constant)):
                yield delay, "schedule() delay is a negative constant"
            elif (isinstance(delay, ast.Constant)
                  and isinstance(delay.value, (int, float))
                  and delay.value < 0):
                yield delay, "schedule() delay is a negative constant"


# ---------------------------------------------------------------------------
# REP007 — id()-keyed mappings
# ---------------------------------------------------------------------------


@register
class NoIdKeyedDict(Rule):
    """Key identity maps by the object, not by ``id(object)``."""

    code = "REP007"
    name = "no-id-keyed-dict"
    rationale = ("id() values are memory addresses: they differ run-to-run "
                 "(so any ordering or trace that sees them is "
                 "nondeterministic) and can alias once the object is "
                 "collected and the address reused; key the mapping by the "
                 "object itself (or a stable attribute like .name/.dpid)")

    #: mapping methods whose first positional argument is a key
    KEY_METHODS = frozenset({"get", "setdefault", "pop"})

    def _is_id_call(self, node: ast.AST, ctx: FileContext) -> bool:
        return (isinstance(node, ast.Call)
                and ctx.imports.canonical(node.func) == "id")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Dict):
                for key in node.keys:
                    if key is not None and self._is_id_call(key, ctx):
                        yield key, ("dict literal keyed by id(...) — key by "
                                    "the object itself")
            elif isinstance(node, ast.DictComp):
                if self._is_id_call(node.key, ctx):
                    yield node.key, ("dict comprehension keyed by id(...) — "
                                     "key by the object itself")
            elif isinstance(node, ast.Subscript):
                if self._is_id_call(node.slice, ctx):
                    yield node.slice, ("subscript keyed by id(...) — key by "
                                       "the object itself")
            elif isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in self.KEY_METHODS
                        and node.args
                        and self._is_id_call(node.args[0], ctx)):
                    yield node.args[0], (
                        f".{func.attr}() keyed by id(...) — key by the "
                        f"object itself")


# ---------------------------------------------------------------------------
# REP009 — wholesale flushes of generation-keyed memos
# ---------------------------------------------------------------------------


@register
class NoWholesaleMemoFlush(Rule):
    """Generation-keyed memos revalidate per key; they are not ``.clear()``ed."""

    code = "REP009"
    name = "no-wholesale-memo-flush"
    rationale = ("calling .clear() on a cache/memo/microflow mapping "
                 "reintroduces the wholesale-flush pathology the "
                 "fine-grained revalidation work removed (one churn event "
                 "colds every unrelated key); evict per key, or mark a flush "
                 "that is the finest correct granularity with a noqa")

    #: attribute-name markers of generation-keyed memo containers; matched
    #: against whole underscore-separated segments of the name, so `memo`
    #: flags `_service_memo` but not `memory` (FlowMemory is authoritative
    #: state — clearing it is a semantic reset, not a memo flush)
    MARKERS = frozenset({"cache", "caches", "memo", "memos", "microflow"})
    #: only library code is restricted; tests exercise flushes on purpose
    SCOPE = "src/repro/"

    def _in_scope(self, path: str) -> bool:
        return self.SCOPE in path.replace("\\", "/")

    def _memo_name(self, node: ast.AST) -> Optional[str]:
        """Terminal attribute/name a ``.clear()`` was called on, if it
        looks like a memo container."""
        if isinstance(node, ast.Attribute):
            terminal = node.attr
        elif isinstance(node, ast.Name):
            terminal = node.id
        else:
            return None
        segments = terminal.lower().split("_")
        if any(segment in self.MARKERS for segment in segments):
            return terminal
        return None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not self._in_scope(ctx.path):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or node.args or node.keywords:
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) or func.attr != "clear":
                continue
            name = self._memo_name(func.value)
            if name is not None:
                yield node, (f"wholesale `.clear()` of memo container "
                             f"`{name}` — evict per key")


# ---------------------------------------------------------------------------
# REP010 — writes to the simulation clock
# ---------------------------------------------------------------------------


@register
class NoSimClockWrite(Rule):
    """Only the event loop advances ``Simulator.now``."""

    code = "REP010"
    name = "no-sim-clock-write"
    rationale = ("Simulator.now is a plain attribute (every layer reads it "
                 "per frame, so a property call was the kernel's second "
                 "largest cost) and nothing stops a stray store; the clock "
                 "has one writer, the loop in repro/simcore/loop.py, and "
                 "everything else moves time by scheduling an event")

    #: the one module that advances the clock
    ALLOWED = "repro/simcore/loop.py"

    def _clock_stores(self, target: ast.AST) -> Iterator[ast.Attribute]:
        if isinstance(target, ast.Attribute):
            if target.attr == "now":
                yield target
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from self._clock_stores(element)
        elif isinstance(target, ast.Starred):
            yield from self._clock_stores(target.value)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if self.ALLOWED in ctx.path.replace("\\", "/"):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for store in self._clock_stores(target):
                    yield store, ("store to a `.now` attribute — the "
                                  "simulation clock is written only by the "
                                  "event loop; schedule an event instead")


def iter_rule_docs() -> Iterable[str]:
    """One formatted line per registered rule (for ``--list-rules``)."""
    for rule in all_rules():
        yield rule.describe()
