"""Record the expected output of every op the workloads can draw.

Run once from the root of a checkout, at the commit that defines the
benchmark:

    python3 perfbench/record.py

It writes perfbench/expected.json: for each op, the sha256 of its canonical
output, or the refusal message when the library declines the input.  It
stops without writing if any structural check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import child


def main():
    child._load_library()
    import checks
    import workloads
    out = {}
    bad = []
    try:
        for name in workloads.WORKLOADS:
            out[name] = {}
            for op in workloads.pool(name):
                if op.before is not None:
                    op.before()
                try:
                    result = op.call()
                except workloads.Refused as exc:
                    out[name][op.id] = {"refused": str(exc)}
                    print(f"{name}: {op.id}: refused: {exc}", flush=True)
                    continue
                bad += [f"{op.id}: {p}" for p in op.check(result)]
                out[name][op.id] = {"digest": checks.digest(op.render(result))}
            print(f"{name}: {len(out[name])} ops recorded", flush=True)
    finally:
        shutil.rmtree(workloads.WORK_DIR, ignore_errors=True)
    if bad:
        sys.exit("structural checks failed:\n" + "\n".join(bad))
    with open(os.path.join(child.HERE, "expected.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
