"""Run the hopfmotives benchmark from the root of a checkout.

    python3 perfbench/run.py --workload dual-blocks --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload in turn
    python3 perfbench/run.py --smoke                        # one checked pass each

Load is a closed loop: one client, one thread, one op at a time.  Each
workload runs in fresh child processes (child.py), started one after another
and never two at once.  With --trace 0 a run makes SETUPS children: all but
the last only set up, the last also measures for --seconds; the figures are
the end-to-end metrics of BENCHMARK.json.  With --trace 1 two traced children
run with the same seed, their work counts must agree exactly, and the figures
are the per-layer metrics.  Every op's output is checked; the run fails when
any check fails.  A refusal recorded as expected (expected.json) is not a
check failure, but it counts against ok_ratio and is listed with its bound.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracing import is_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cli-tour", "dual-blocks", "bi-ideal-scan", "comod-coinv")
SETUPS = 3          # set-up is measured this many times per run
RUN_LIMIT_S = 170   # one run, every child included
WORK_DIR = ".perfbench_work"   # workloads.WORK_DIR, removed after the run


class RunError(Exception):
    """A child process failed; the run has no result."""


def _spawn(workload, seed, mode, seconds, deadline):
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("HOPFMOTIVES_CATALOG_DIR", None)
    cmd = [sys.executable, "-B", os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--seconds", str(seconds), "--started", repr(time.time())]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError(f"{workload} {mode}: over the {RUN_LIMIT_S} s limit") \
            from None
    if proc.returncode != 0:
        raise RunError(f"{workload} {mode} exited {proc.returncode}:\n"
                       f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _specs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return bench["end_to_end"], bench["per_layer"], bench["run_seconds"]


def _metrics(specs, values):
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise RunError(f"metrics not measured: {missing}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
            for s in specs}


def _tally(children):
    failures = [f for c in children for f in c["failures"]]
    refusals = {}
    for c in children:
        refusals.update(c["refusals"])
    return {"attempted": sum(c["attempted"] for c in children),
            "ok": sum(c["ok"] for c in children),
            "failures": failures, "refusals": refusals}


def measure(workload, seed, seconds, deadline, specs):
    children = [_spawn(workload, seed, "setup", 0, deadline)
                for _ in range(SETUPS - 1)]
    children.append(_spawn(workload, seed, "measure", seconds, deadline))
    timed = children[-1]
    op_ms = [1000 * t for t in timed["op_s"]]
    p90 = statistics.quantiles(op_ms, n=10)[8]
    above = sum(t > p90 for t in op_ms)
    tally = _tally(children)
    values = {
        "pass_s": statistics.median(timed["passes"]),
        "op_p50_ms": statistics.median(op_ms),
        "op_p90_ms": p90,
        "ok_ratio": tally["ok"] / tally["attempted"],
        "peak_rss_mb": statistics.median(c["rss_mb"] for c in children),
        "setup_s": statistics.median(c["setup_s"] for c in children),
    }
    if above < 10:
        tally["failures"].append(f"only {above} op latencies above the p90")
    notes = [f"op latency samples: {len(op_ms)} pooled over "
             f"{len(timed['passes'])} passes, {above} above the p90",
             f"uncorrected: pass_s "
             f"{statistics.median(timed['passes_raw']):.6g} s, setup_s "
             f"{statistics.median(c['setup_raw_s'] for c in children):.6g} s"]
    return _metrics(specs, values), tally, notes


def trace(workload, seed, seconds, deadline, specs):
    a, b = (_spawn(workload, seed, "trace", seconds / 2, deadline)
            for _ in range(2))
    tally = _tally([a, b])
    ta, tb = a["trace"], b["trace"]
    timed = [k for k in ta if is_time(k)]
    counts = {k: ta[k] for k in ta if k not in timed}
    differ = {k: (v, tb.get(k)) for k, v in counts.items() if tb.get(k) != v}
    if differ:
        tally["failures"].append(f"work counts differ between two traced "
                                 f"runs with the same seed: {differ}")
    ratio = min(ta["trace.self_sum_ratio"], tb["trace.self_sum_ratio"])
    if not 0.97 <= ratio <= 1.0 + 1e-9:
        tally["failures"].append(f"layer self times sum to {ratio:.4f} "
                                 f"of the traced pass time")
    values = dict(counts)
    values.update({k: (ta[k] + tb[k]) / 2 for k in timed})
    notes = [f"work counts identical across two traced runs: {not differ}"]
    return _metrics(specs, values), tally, notes


def smoke(workload, seed, deadline):
    child = _spawn(workload, seed, "smoke", 0, deadline)
    return {}, _tally([child]), [f"{child['attempted']} ops in one pass"]


def _report(workload, metrics, tally, notes):
    for name, m in metrics.items():
        print(f"{workload}  {name} = {m['value']:.6g} {m['unit']}")
    for op, msg in sorted(tally["refusals"].items()):
        print(f"{workload}  refused as recorded: {op}: {msg}")
    for line in notes:
        print(f"{workload}  {line}")
    for failure in tally["failures"]:
        print(f"{workload}  FAILED {failure}")


def main():
    ap = argparse.ArgumentParser(description="hopfmotives benchmark")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one checked pass per workload, no timing")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "hopfmotives", "__init__.py")) \
            or not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        sys.exit("error: run from the root of a hopfmotives checkout")
    end_to_end, per_layer, run_seconds = _specs()
    seconds = run_seconds if args.seconds is None else args.seconds
    names = WORKLOADS if args.workload == "all" or args.smoke \
        else (args.workload,)

    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + RUN_LIMIT_S
            if args.smoke:
                results[name] = smoke(name, args.seed, deadline)
            elif args.trace:
                results[name] = trace(name, args.seed, seconds, deadline,
                                      per_layer)
            else:
                results[name] = measure(name, args.seed, seconds, deadline,
                                        end_to_end)
            _report(name, *results[name])
    except RunError as exc:
        sys.exit(f"error: {exc}")
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    failed = sum(len(t["failures"]) for _m, t, _n in results.values())
    if len(names) == 1:
        metrics = results[names[0]][0]
    else:
        metrics = {f"{w}/{k}": v for w, (m, _t, _n) in results.items()
                   for k, v in m.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(t["attempted"] for _m, t, _n in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
