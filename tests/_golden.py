"""The command set behind the golden-output lock, and its recorder.

Every README command, ``catalog show KEY`` and ``verify KEY`` for every
catalog key, ``dual KEY`` / ``grouplikes KEY`` for every catalog
bialgebra, ``rpe`` and ``coinv`` of ``e8p8.mod3`` for every J-tuple, global
``coinv`` of both catalog comodules, ``quotient KEY --jtuple J`` and
``dual KEY --jtuple J`` for every J-tuple of every Borel-form catalog
bialgebra, ``quadric`` (plain and ``--dot``) for every valid J-set with
n = 5..10, and ``quadric`` on the largest-ideal J-set (the J-tuple of
zeros) for n = 11..22, each in text and json form.  ``commands.json`` under
``tests/data/golden`` lists each argv with its exit code and the file that
holds its stdout.  Re-record (only when an output changes on purpose, and
say which in CHANGES.md) from the repository root with::

    PYTHONPATH=src python tests/_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import re
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"
MANIFEST = GOLDEN / "commands.json"


def slug(argv):
    return re.sub(r"[^A-Za-z0-9.,=-]+", "_", "_".join(argv)) + ".out"


def commands():
    from hopfmotives import catalog
    from hopfmotives.jinv import (borel_exponents, so_borel, tuple_to_jset,
                                  valid_jtuples)

    show_json = ["catalog", "show", "g2.mod2", "--format", "json"]
    readme = [
        ["catalog", "list"],
        ["catalog", "show", "g2.mod2"],
        # the README's `verify g2.json` on the file exported just before
        ["verify", str(GOLDEN.relative_to(ROOT) / slug(show_json))],
        ["verify", "e8.mod2"],
        ["quotient", "so13.mod2", "--jtuple", "1,1,0"],
        ["poincare", "e8.mod3", "--jtuple", "1,1"],
        ["dual", "k0.pgl3"],
        ["dual", "k2.e8.mod3", "--alpha", "1"],
        ["quadric", "--n", "12", "--jset", "0,1,2,4,5",
         "--extra-edges", "tests/data/vishik_dim10.json"],
        ["quadric", "--n", "7", "--jset", "1,2", "--dot"],
        ["rpe", "e8p8.mod3", "--jtuple", "1,1"],
        ["coinv", "e7p7.mod2", "--degree", "9"],
        ["grouplikes", "k0.pgl3"],
    ]
    per_key = [[cmd, key] for key in catalog.keys()
               if catalog.kind(key) == "bialgebra"
               for cmd in ("dual", "grouplikes")]
    per_key += [[*cmd, key] for key in catalog.keys()
                for cmd in (["catalog", "show"], ["verify"])]
    for J in valid_jtuples(catalog.get("e8p8.mod3").H):
        jt = ",".join(map(str, J))
        per_key += [[cmd, "e8p8.mod3", "--jtuple", jt] for cmd in ("rpe", "coinv")]
    per_key += [["coinv", "e8p8.mod3"], ["coinv", "e7p7.mod2"]]
    for key in catalog.keys():
        if catalog.kind(key) != "bialgebra":
            continue
        B = catalog.get(key)
        try:
            borel_exponents(B)
        except ValueError:
            continue
        per_key += [[cmd, key, "--jtuple", ",".join(map(str, J))]
                    for J in valid_jtuples(B) for cmd in ("quotient", "dual")]

    def jset(n, J):
        return ",".join(map(str, tuple_to_jset(n, J))) or "none"

    for n in range(5, 11):
        for J in valid_jtuples(so_borel(n)):
            argv = ["quadric", "--n", str(n), "--jset", jset(n, J)]
            per_key += [argv, argv + ["--dot"]]
    for n in range(11, 23):
        zeros = (0,) * so_borel(n).ngens
        per_key.append(["quadric", "--n", str(n), "--jset", jset(n, zeros)])
    out = []
    for argv in readme + [a for a in per_key if a not in readme]:
        out += [argv, argv + ["--format", "json"]]
    return out


def run(argv):
    """(exit code, stdout) of one CLI call; stderr is dropped."""
    from hopfmotives.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def load():
    return json.loads(MANIFEST.read_text())


def record():
    os.chdir(ROOT)
    GOLDEN.mkdir(parents=True, exist_ok=True)
    entries = []
    for argv in commands():
        start = time.perf_counter()
        code, out = run(argv)
        (GOLDEN / slug(argv)).write_bytes(out.encode())
        entries.append({"argv": argv, "exit": code, "out": slug(argv)})
        print(f"{time.perf_counter() - start:8.3f}s exit {code}  "
              f"{' '.join(argv)}", file=sys.stderr)
    MANIFEST.write_text(json.dumps(entries, indent=1) + "\n")


if __name__ == "__main__":
    record()
