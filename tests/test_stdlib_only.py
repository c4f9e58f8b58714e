"""The runtime imports only the Python standard library (README promise)."""

from __future__ import annotations

import ast
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hopfmotives"


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_src_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = {(f.name, name) for f in files for name in absolute_imports(f)
               if name not in sys.stdlib_module_names}
    assert not outside


def test_cold_cli_import_loads_no_slow_stdlib_modules():
    # a fresh interpreter: pytest itself imports inspect; -S keeps site
    # .pth files from importing anything
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); "
            "import hopfmotives.cli; "
            "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_cold_cli_import_builds_no_parser():
    # count ArgumentParser constructions in a fresh interpreter: none at
    # import, some on the first build, none on the second
    code = (f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); "
            "import argparse; calls = []; init = argparse.ArgumentParser.__init__; "
            "argparse.ArgumentParser.__init__ = "
            "lambda self, *a, **k: calls.append(1) or init(self, *a, **k); "
            "import hopfmotives.cli as cli; counts = [len(calls)]; "
            "cli.build_parser(); counts.append(len(calls)); "
            "cli.build_parser(); counts.append(len(calls)); print(*counts)")
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True).stdout
    at_import, first, second = map(int, out.split())
    assert at_import == 0
    assert first > 0 and second == first
