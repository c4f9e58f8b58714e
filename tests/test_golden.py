"""Golden-output lock: every recorded CLI call (see ``_golden.py``) gives
the recorded exit code and stdout, byte for byte."""

from __future__ import annotations

import pytest

from _golden import GOLDEN, ROOT, load, run


@pytest.mark.parametrize("entry", load(), ids=lambda e: e["out"][:-4])
def test_cli_output_matches_golden(entry, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out = run(entry["argv"])
    assert code == entry["exit"]
    assert out.encode() == (GOLDEN / entry["out"]).read_bytes()
