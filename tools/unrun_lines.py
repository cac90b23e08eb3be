#!/usr/bin/env python3
"""List the statements of ``src/aihs`` that the tier-1 tests never run.

    python3 tools/unrun_lines.py

Run from anywhere in a source checkout.  It runs the tier-1 suite
(``pytest -q --continue-on-collection-errors`` at the root) in this process
under ``sys.settrace`` and ``threading.settrace``, recording lines only in
frames of files under ``src/aihs``.  Then it prints each statement of those
files that never ran, as ``path:line: source``, and their count.  A
statement ran when any line of its span ran, so a compound statement whose
body ran did too; docstrings are not counted as statements.  Code run in a
child process is not seen.  Standard library only (no ``coverage``); the
traced run takes a few times as long as a plain one.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "aihs"

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statement_spans(source: str) -> list[tuple[int, int]]:
    """(first, last) line of each statement of ``source``, in line order, docstrings left out.

    A decorated definition starts at its first decorator.
    """
    docstrings, spans = set(), []
    for node in ast.walk(ast.parse(source)):  # breadth first: a scope comes before its body
        if isinstance(node, _SCOPES) and node.body and _is_docstring(node.body[0]):
            docstrings.add(node.body[0])
        if isinstance(node, ast.stmt) and node not in docstrings:
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            spans.append((first, node.end_lineno))
    return sorted(spans)


def unrun_lines(source: str, ran: set[int]) -> list[int]:
    """First line of each statement of ``source`` of which no line is in ``ran``."""
    return [first for first, last in statement_spans(source)
            if ran.isdisjoint(range(first, last + 1))]


def trace_lines(run, directory: Path) -> dict[str, set[int]]:
    """Call ``run()``, recording the lines run in files under ``directory``, by real path.

    The previous trace functions are restored afterwards.
    """
    prefix = os.path.realpath(directory) + os.sep
    hits: dict[str, set[int]] = {}
    local_traces: dict[str, object] = {}  # co_filename -> its line tracer, or None

    def local_for(name: str):
        path = os.path.realpath(name)
        if not path.startswith(prefix):
            return None
        lines = hits.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def global_trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in local_traces:
            local_traces[name] = local_for(name)
        return local_traces[name]

    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        run()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return hits


def main() -> int:
    import pytest

    os.chdir(ROOT)
    hits = trace_lines(lambda: pytest.main(["-q", "--continue-on-collection-errors"]), PACKAGE)
    count = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for line in unrun_lines(source, hits.get(os.path.realpath(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {lines[line - 1].strip()}")
            count += 1
    print(f"{count} statements of {PACKAGE.relative_to(ROOT)} never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
