"""Unit tests for the static determinism rules (repro.analysis.rules).

Each rule gets at least one fixture snippet that must trigger it and one
near-miss that must not, so a rule rewrite that silently widens or narrows
its net fails here first.
"""

import pytest

from repro.analysis import AnalysisConfig, all_rules, check_source, get_rule
from repro.analysis.engine import suppressions_for


def codes_in(source: str, **config_kwargs) -> list:
    report = check_source(source, "snippet.py", AnalysisConfig(**config_kwargs))
    assert report.parse_error is None
    return [v.code for v in report.violations]


# ------------------------------------------------------------------ registry


def test_all_rules_registered_with_unique_codes():
    rules = all_rules()
    codes = [rule.code for rule in rules]
    assert codes == sorted(codes)
    assert len(set(codes)) == len(codes)
    assert {"REP001", "REP002", "REP003", "REP004", "REP005", "REP006",
            "REP007", "REP009", "REP010"} <= set(codes)


def test_get_rule_unknown_code_raises():
    with pytest.raises(KeyError):
        get_rule("REP999")


def test_every_rule_has_rationale():
    for rule in all_rules():
        assert rule.rationale.strip(), rule.code


# ------------------------------------------------------------------- REP001


def test_rep001_flags_wall_clock_calls():
    assert codes_in("import time\nt = time.time()\n") == ["REP001"]
    assert codes_in("from time import perf_counter\nt = perf_counter()\n") == ["REP001"]
    assert codes_in(
        "import datetime\nnow = datetime.datetime.now()\n") == ["REP001"]


def test_rep001_ignores_virtual_clock_and_time_module_math():
    assert codes_in("t = sim.now\n") == []
    assert codes_in("import time\nname = time.strftime\n") == []


def test_rep001_resolves_aliases():
    assert codes_in("import time as t\nx = t.monotonic()\n") == ["REP001"]


# ------------------------------------------------------------------- REP002


def test_rep002_flags_module_level_random():
    assert codes_in("import random\nx = random.random()\n") == ["REP002"]
    assert codes_in("import numpy as np\nx = np.random.rand(3)\n") == ["REP002"]
    assert codes_in("from random import shuffle\nshuffle(items)\n") == ["REP002"]


def test_rep002_allows_seeded_constructors():
    assert codes_in("import random\nrng = random.Random(7)\n") == []
    assert codes_in("import numpy as np\nrng = np.random.default_rng(7)\n") == []
    assert codes_in("import numpy as np\nss = np.random.SeedSequence(7)\n") == []


# ------------------------------------------------------------------- REP003


def test_rep003_flags_iteration_over_sets():
    assert codes_in("for x in {1, 2, 3}:\n    pass\n") == ["REP003"]
    assert codes_in("for x in set(items):\n    pass\n") == ["REP003"]
    assert codes_in("ys = [f(x) for x in a | b]\n") == []  # bare BinOp: unknown types
    assert codes_in("for x in a.union(b):\n    pass\n") == ["REP003"]
    assert codes_in("for k in d.keys():\n    pass\n") == ["REP003"]


def test_rep003_allows_sorted_iteration():
    assert codes_in("for x in sorted({1, 2, 3}):\n    pass\n") == []
    assert codes_in("for x in sorted(set(items)):\n    pass\n") == []
    assert codes_in("for k in sorted(d.keys()):\n    pass\n") == []
    assert codes_in("for x in [1, 2, 3]:\n    pass\n") == []


# ------------------------------------------------------------------- REP004


def test_rep004_flags_equality_on_sim_time():
    assert codes_in("if sim.now == deadline:\n    pass\n") == ["REP004"]
    assert codes_in("ok = expires_at != t\n") == ["REP004"]


def test_rep004_allows_ordering_and_none_checks():
    assert codes_in("if sim.now >= deadline:\n    pass\n") == []
    assert codes_in("if deadline is None or count == 3:\n    pass\n") == []
    assert codes_in("if deadline == None:\n    pass\n") == []  # noqa: E711 - fixture


# ------------------------------------------------------------------- REP005


def test_rep005_flags_bare_exception_raises():
    assert codes_in("raise RuntimeError('boom')\n") == ["REP005"]
    assert codes_in("raise Exception('boom')\n") == ["REP005"]


def test_rep005_allows_typed_and_reraise():
    assert codes_in("raise ValueError('boom')\n") == []
    assert codes_in("try:\n    f()\nexcept KeyError:\n    raise\n") == []
    assert codes_in("class MyError(RuntimeError):\n    pass\nraise MyError('x')\n") == []


# ------------------------------------------------------------------- REP006


def test_rep006_flags_unguarded_delay_subtraction():
    assert codes_in("sim.schedule(deadline - sim.now, cb)\n") == ["REP006"]
    assert codes_in("sim.schedule(-1.0, cb)\n") == ["REP006"]


def test_rep006_allows_guarded_delays():
    assert codes_in("sim.schedule(max(0.0, deadline - sim.now), cb)\n") == []
    assert codes_in("sim.schedule(0.0, cb)\n") == []
    assert codes_in("sim.schedule(delay, cb)\n") == []


# ------------------------------------------------------------------- REP007


def test_rep007_flags_id_keyed_dict_literal_and_comprehension():
    assert codes_in("busy = {id(a): 0.0, id(b): 0.0}\n") == ["REP007", "REP007"]
    assert codes_in("index = {id(x): x for x in items}\n") == ["REP007"]


def test_rep007_flags_id_keyed_subscripts():
    assert codes_in("table[id(proc)] = None\n") == ["REP007"]
    assert codes_in("value = table[id(proc)]\n") == ["REP007"]
    assert codes_in("del table[id(proc)]\n") == ["REP007"]


def test_rep007_flags_id_keyed_mapping_methods():
    assert codes_in("table.get(id(proc))\n") == ["REP007"]
    assert codes_in("table.setdefault(id(proc), [])\n") == ["REP007"]
    assert codes_in("table.pop(id(proc), None)\n") == ["REP007"]


def test_rep007_ignores_object_keys_and_plain_id_calls():
    assert codes_in("busy = {a: 0.0, b: 0.0}\n") == []
    assert codes_in("table[key] = id(proc)\n") == []  # id as a value is fine
    assert codes_in("marker = id(proc)\n") == []
    assert codes_in("seen.add(id(proc))\n") == []  # sets are out of scope


def test_rep007_resolves_shadowed_id():
    # a local function named id() is not the builtin
    assert codes_in("from mymod import foo as id\ntable[id(x)] = 1\n") == []


def test_rep007_honours_noqa():
    source = "table[id(proc)] = None  # repro: noqa[REP007]\n"
    report = check_source(source, "snippet.py", AnalysisConfig())
    assert report.violations == []
    assert report.suppressed == 1


# ------------------------------------------------------------------- helpers


def codes_at(source: str, path: str) -> list:
    report = check_source(source, path, AnalysisConfig())
    assert report.parse_error is None
    return [v.code for v in report.violations]


# ------------------------------------------------------------------- REP009


LIB_PATH = "src/repro/core/controller.py"


def test_rep009_flags_wholesale_memo_clears():
    assert codes_at("self._service_cache.clear()\n", LIB_PATH) == ["REP009"]
    assert codes_at("self._plan_cache.clear()\n", LIB_PATH) == ["REP009"]
    assert codes_at("self.microflow.clear()\n", LIB_PATH) == ["REP009"]
    assert codes_at("self._service_memo.clear()\n", LIB_PATH) == ["REP009"]
    assert codes_at("memo.clear()\n", LIB_PATH) == ["REP009"]


def test_rep009_matches_whole_name_segments_only():
    # FlowMemory is authoritative state, not a memo — `memory` must not
    # trip the `memo` marker.
    assert codes_at("self.memory.clear()\n", LIB_PATH) == []
    assert codes_at("self._host_memory.clear()\n", LIB_PATH) == []
    # ...and unrelated containers stay untouched
    assert codes_at("self._pending.clear()\n", LIB_PATH) == []


def test_rep009_ignores_clears_with_arguments_and_other_methods():
    # a .clear(x) call is some other API, not dict.clear
    assert codes_at("self._plan_cache.clear(0)\n", LIB_PATH) == []
    assert codes_at("self._plan_cache.pop(key)\n", LIB_PATH) == []


def test_rep009_scope_excludes_tests_only():
    source = "self._entries.clear()\nself._plan_cache.clear()\n"
    assert codes_at(source, "tests/core/test_service_decision.py") == []
    # no library module is exempt
    assert codes_at(source, "src/repro/core/registry.py") == ["REP009"]


def test_rep009_honours_noqa():
    source = "self._plan_cache.clear()  # repro: noqa[REP009]\n"
    report = check_source(source, LIB_PATH, AnalysisConfig())
    assert report.violations == []
    assert report.suppressed == 1


# ------------------------------------------------------------------- REP010


def test_rep010_flags_stores_to_the_sim_clock():
    assert codes_at("sim.now = 5.0\n", LIB_PATH) == ["REP010"]
    assert codes_at("self.sim.now += delay\n", LIB_PATH) == ["REP010"]
    assert codes_at("tb.sim.now: float = 0.0\n", LIB_PATH) == ["REP010"]
    # unpacking and chained targets store too
    assert codes_at("sim.now, other = 1.0, 2.0\n", LIB_PATH) == ["REP010"]
    assert codes_at("a = sim.now = 3.0\n", LIB_PATH) == ["REP010"]


def test_rep010_allows_reads_and_other_names():
    assert codes_at("t = sim.now\n", LIB_PATH) == []
    assert codes_at("deadline = self.sim.now + 1.0\n", LIB_PATH) == []
    assert codes_at("now = sim.now\nnow += 1.0\n", LIB_PATH) == []  # a local
    assert codes_at("self.now_s = 1.0\nself.snow = 2\n", LIB_PATH) == []
    assert codes_at("sim.schedule(sim.now, cb)\n", LIB_PATH) == []


def test_rep010_exempts_only_the_event_loop_module():
    source = "self.now = handle[0]\n"
    assert codes_at(source, "src/repro/simcore/loop.py") == []
    assert codes_at(source, "src/repro/simcore/process.py") == ["REP010"]
    assert codes_at(source, "src/repro/analysis/sanitizer.py") == ["REP010"]
    assert codes_at(source, "examples/quickstart.py") == ["REP010"]


def test_rep010_honours_noqa():
    source = "clock.now = 0  # repro: noqa[REP010] a test double, not a Simulator\n"
    report = check_source(source, LIB_PATH, AnalysisConfig())
    assert report.violations == []
    assert report.suppressed == 1


# -------------------------------------------------------------- suppressions


def test_noqa_with_code_suppresses_only_that_code():
    source = "import time\nt = time.time()  # repro: noqa[REP001]\n"
    report = check_source(source, "snippet.py", AnalysisConfig())
    assert report.violations == []
    assert report.suppressed == 1


def test_noqa_with_wrong_code_does_not_suppress():
    source = "import time\nt = time.time()  # repro: noqa[REP003]\n"
    assert [v.code for v in
            check_source(source, "snippet.py", AnalysisConfig()).violations] == ["REP001"]


def test_bare_noqa_suppresses_everything_on_the_line():
    source = "import time\nt = time.time()  # repro: noqa\n"
    report = check_source(source, "snippet.py", AnalysisConfig())
    assert report.violations == []
    assert report.suppressed == 1


def test_noqa_is_line_scoped():
    source = "import time\n# repro: noqa[REP001]\nt = time.time()\n"
    assert [v.code for v in
            check_source(source, "snippet.py", AnalysisConfig()).violations] == ["REP001"]


def test_suppressions_for_parses_multiple_codes():
    line_map = suppressions_for("x = 1  # repro: noqa[REP001, REP005]\n")
    assert line_map == {1: {"REP001", "REP005"}}


# ------------------------------------------------------------- select/ignore


def test_config_select_restricts_rules():
    source = "import time\nt = time.time()\nraise RuntimeError('x')\n"
    assert codes_in(source, select=("REP005",)) == ["REP005"]


def test_config_ignore_drops_rules():
    source = "import time\nt = time.time()\nraise RuntimeError('x')\n"
    assert codes_in(source, ignore=("REP001",)) == ["REP005"]


def test_parse_error_is_reported_not_raised():
    report = check_source("def broken(:\n", "snippet.py", AnalysisConfig())
    assert report.parse_error is not None
    assert report.violations == []
