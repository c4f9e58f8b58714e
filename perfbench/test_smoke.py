"""Tests of the benchmark itself.  From the root of a checkout:

    python3 -m pytest perfbench

They run one checked pass per workload and leave the library and the
repository's own tests alone.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
from tracing import Tracer  # noqa: E402


def test_smoke_runs_every_workload_with_checks():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--smoke"], cwd=ROOT, capture_output=True,
                          text=True, timeout=300)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 25 + 66 + 60 + 65
    assert "refused as recorded: dual e8.mod2:" in proc.stdout


def test_checks_reject_wrong_outputs():
    from hopfmotives import catalog, comod
    from hopfmotives.dual import Block

    B = catalog.get("k0.pgl3")
    assert checks.blocks(B, [Block(1, "tate", ()), Block(1, "dim:1", ())])
    assert checks.blocks(B, [Block(2, "dim:2", ()), Block(1, "tate", ())])
    assert checks.group_table([[0, 1], [1, 1]])
    assert checks.quadric(7, (1, 2), [[0, 1, 2, 3, 4, 5]]) == []
    assert checks.quadric(7, (1, 2), [[0, 1, 2, 4], [3], [5]])
    M = catalog.get("e7p7.mod2")
    assert checks.coinvariant(M, [{(0, 1, 0): 1}])
    assert checks.coinvariant(M, comod.coinvariants(M, degree=9)) == []


def test_tracer_wraps_every_imported_name():
    from hopfmotives import cli, comod, dual, motdec
    tracer = Tracer()
    tracer.prepare()
    tracer.install()
    try:
        assert tracer.missed() == []
        assert cli.decompose is dual.decompose
        assert comod.quotient_with_map.__wrapped__.__module__ == \
            "hopfmotives.jinv"
        assert motdec.restrict_comodule is comod.restrict_comodule
    finally:
        tracer.uninstall()
    assert not hasattr(cli.decompose, "__wrapped__")
