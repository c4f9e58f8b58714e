"""Golden-output lock: every recorded CLI call (see ``_golden.py``) gives
the recorded exit code and stdout, byte for byte, in one process on a warm
catalog, and each ``--jtuple`` call again on a cold one."""

from __future__ import annotations

import pytest

from _golden import GOLDEN, ROOT, load, run
from hopfmotives import catalog


@pytest.mark.parametrize("entry", load(), ids=lambda e: e["out"][:-4])
def test_cli_output_matches_golden(entry, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out = run(entry["argv"])
    assert code == entry["exit"]
    assert out.encode() == (GOLDEN / entry["out"]).read_bytes()


def test_jtuple_calls_match_golden_on_a_cold_catalog(monkeypatch):
    """Every ``--jtuple`` call again, each on an emptied catalog cache, so
    that it builds its own parent and quotient instead of reading the ones
    kept on the parents by earlier calls."""
    monkeypatch.chdir(ROOT)
    entries = [e for e in load() if "--jtuple" in e["argv"]]
    assert len(entries) == 424
    mismatched = []
    for entry in entries:
        monkeypatch.setattr(catalog, "_cache", {})
        code, out = run(entry["argv"])
        if code != entry["exit"] or \
                out.encode() != (GOLDEN / entry["out"]).read_bytes():
            mismatched.append(entry["out"])
    assert mismatched == []
