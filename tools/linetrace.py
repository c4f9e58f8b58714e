"""Which statements of ``src/hopfmotives`` does the test suite never run?

Usage, from anywhere:

    python3 tools/linetrace.py

runs ``pytest tests`` in this process under ``sys.settrace`` and then lists,
for each function of the package, the body statements that never ran.
Traced, the suite takes about four times as long as without the trace
(some minutes), which is why the tests do not collect this file.  Module
level statements are not counted.  A statement whose lines carry
``# pragma: no cover - invariant: <reason>`` is safety code that no valid
input reaches: it, and the block it opens, are skipped.

Exit status: 0 when every other statement ran and the suite passed, 1
otherwise.  Only this process is traced: what the tests run in a
subprocess (the stdlib-only import check, the benchmark smoke pass) does
not count.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hopfmotives"
MARKER = "# pragma: no cover - invariant"


def _children(stmt):
    """The statements nested directly in a compound statement."""
    for field in ("body", "orelse", "finalbody"):
        yield from getattr(stmt, field, ())
    for handler in getattr(stmt, "handlers", ()):
        yield from handler.body


def _statements(body, lines):
    """(first line, own lines) of each statement in ``body``, nested blocks
    included and nested scopes not, skipping those marked as invariants.
    A statement's own lines are its lines less those of its children."""
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            inner, own = [], set(range(stmt.lineno, max(stmt.body[0].lineno,
                                                        stmt.lineno + 1)))
        else:
            inner = list(_children(stmt))
            own = set(range(stmt.lineno, stmt.end_lineno + 1))
        for child in inner:
            own -= set(range(child.lineno, child.end_lineno + 1))
        if any(MARKER in lines[n - 1] for n in own):
            continue
        yield stmt.lineno, own
        yield from _statements(inner, lines)


def function_statements(path):
    """{qualified function name: [(first line, own lines)]} over the body
    statements of every function in the file, docstrings left out."""
    source = Path(path).read_text()
    lines = source.splitlines()
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                name = prefix + child.name
                body = child.body[ast.get_docstring(child) is not None:]
                out[name] = list(_statements(body, lines))
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return out


def unreached(path, hits):
    """{function: [first lines of its statements that never ran]}, given
    ``hits``, the line numbers of ``path`` that ran."""
    out = {}
    for name, stmts in function_statements(path).items():
        missed = [first for first, own in stmts if not own & hits]
        if missed:
            out[name] = missed
    return out


class LineTracer:
    """Records (file name, line) of each line this thread runs in files
    under ``root``.  Restores the tracer it replaced, so it can run inside
    another trace."""

    def __init__(self, root):
        self.root = str(root)
        self.hits = set()

    def _call(self, frame, event, arg):
        return self._line if frame.f_code.co_filename.startswith(self.root) else None

    def _line(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    def __enter__(self):
        self._outer = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._outer)


class _NoDeadline:
    """Tracing slows every example, so a hypothesis deadline would fail a
    test on time alone; the default profile is replaced before the test
    modules are imported, as importing hypothesis earlier would keep
    pytest from rewriting the asserts of its plugin."""

    @staticmethod
    def pytest_configure(config):
        import hypothesis

        hypothesis.settings.register_profile("linetrace", deadline=None)
        hypothesis.settings.load_profile("linetrace")


def main():
    os.chdir(ROOT)
    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    with LineTracer(PACKAGE) as tracer:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "tests"],
                             plugins=[_NoDeadline()])
    total = missing = 0
    for path in sorted(PACKAGE.glob("*.py")):
        hits = {n for f, n in tracer.hits if f == str(path)}
        total += sum(map(len, function_statements(path).values()))
        for name, lines in unreached(path, hits).items():
            print(f"{path.relative_to(ROOT)}: {name}: unreached lines "
                  + ", ".join(map(str, lines)))
            missing += len(lines)
    print(f"linetrace: {total} unmarked function-body statements, "
          f"{missing} unreached; pytest exit status {int(status)}")
    return 1 if missing or status else 0


if __name__ == "__main__":
    sys.exit(main())
