"""Every code reference in the prose docs resolves.

Scans the inline code spans of ``docs/*.md``, ``DESIGN.md``, ``README.md``
and ``EXPERIMENTS.md``:

* a ``src/…``, ``tests/…`` or ``examples/…`` path must exist (a ``:line``
  suffix is ignored);
* ``file.py::Name`` (or ``::Class::method``) must name a class or function
  defined at that nesting in that file;
* a dotted ``repro.*`` name must import as a module, or resolve as an
  attribute of the longest importable prefix.

A doc that names a deleted module, test or symbol fails here instead of
sending a reader to something that is not there.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCS = sorted((ROOT / "docs").glob("*.md")) + [
    ROOT / "DESIGN.md", ROOT / "README.md", ROOT / "EXPERIMENTS.md"]

_SPAN = re.compile(r"`([^`\n]+)`")
_PATH = re.compile(r"^(?:src|tests|examples)/[\w./-]*(?:::[\w:]+)?")
_DOTTED = re.compile(r"(?<![\w./])repro(?:\.\w+)+")


def _spans():
    for doc in DOCS:
        where = doc.relative_to(ROOT)
        for lineno, line in enumerate(doc.read_text().splitlines(), 1):
            for span in _SPAN.findall(line):
                yield f"{where}:{lineno}", span


def _defines(body, name):
    for node in body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.name == name:
            return node
    return None


def _path_problem(ref):
    path, _, names = ref.partition("::")
    target = ROOT / path
    if not target.exists():
        return "does not exist"
    if not names:
        return None
    node = ast.parse(target.read_text())
    for name in names.split("::"):
        node = _defines(node.body, name)
        if node is None:
            return f"{path} defines no {names}"
    return None


def _dotted_problem(name):
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return f"{'.'.join(parts[:cut])} has no attribute {attr!r}"
            obj = getattr(obj, attr)
        return None
    return "imports nothing"


def _references():
    """(where, kind, reference) for every code reference in the docs."""
    for where, span in _spans():
        for token in span.split():
            match = _PATH.match(token)
            if match:
                yield where, "path", match.group(0)
        for name in _DOTTED.findall(span):
            yield where, "dotted", name


def test_docs_name_only_what_exists():
    problems, kinds = [], set()
    for where, kind, ref in _references():
        kinds.add("nested" if "::" in ref else kind)
        check = _path_problem if kind == "path" else _dotted_problem
        problem = check(ref)
        if problem:
            problems.append(f"{where}: `{ref}` {problem}")
    assert not problems, "\n".join(problems)
    # the scan found every kind of reference, so no problems is not the
    # product of matching nothing
    assert kinds == {"path", "nested", "dotted"}
