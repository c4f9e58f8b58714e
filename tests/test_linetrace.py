"""The analysis of ``tools/linetrace.py`` on a module of its own; the full
trace of the suite is ``python3 tools/linetrace.py``, too slow to run here."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

SAMPLE = '''\
def pick(x):
    """A docstring is not a statement."""
    if x:
        return "reached"
    return "unreached"


def guard():
    raise AssertionError(  # pragma: no cover - invariant: never called
        "marked")
'''


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_linetrace_reports_exactly_the_unreached_statement(tmp_path):
    linetrace = load(TOOLS / "linetrace.py", "linetrace")
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    assert [first for first, _own in linetrace.function_statements(path)["pick"]] \
        == [3, 4, 5]
    with linetrace.LineTracer(tmp_path) as tracer:
        assert load(path, "sample").pick(True) == "reached"
    hits = {n for f, n in tracer.hits if f == str(path)}
    assert linetrace.unreached(path, hits) == {"pick": [5]}
