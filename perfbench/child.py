"""One benchmark process: set up one workload, then run passes over its ops.

run.py starts these one after another, never two at once.  Modes:

  setup    import, build the inputs, one checked warm-up pass, report set-up
  measure  setup, then timed passes until --seconds have been measured
  smoke    one checked pass and nothing else
  trace    setup with the tracer's counters on, then traced and untraced
           passes in turn until --seconds have been measured

Every op's output is checked after it is timed.  The last line of stdout is
one JSON object with the figures of this process.

Times are corrected for machine speed.  The shared reference box runs the
same code 1.5 to 1.8 times slower for seconds to minutes at a time, in CPU
time as well as wall time, and raw times of one workload spread 20-40% over
ten runs.  So a fixed pure-Python kernel (dict and tuple arithmetic, like the
library's, and independent of it) is sampled between ops (``Speed``), and
each time is scaled by REFERENCE_S over the kernel time measured around it.
A slower library still reads slower: the kernel runs no library code.  Raw
times are reported too.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_SAMPLES = 100    # op latencies a measured run pools: 10 above the p90
REFERENCE_S = 0.010  # kernel time that corrected figures are scaled to


def _kernel():
    """Square a fixed sparse polynomial over F_7 twice (about 1200 terms)."""
    rnd = random.Random(5)
    a = {tuple(rnd.randrange(3) for _ in range(4)): rnd.randrange(1, 7)
         for _ in range(40)}
    out = a
    for _ in range(2):
        nxt = {}
        for ma, ca in out.items():
            for mb, cb in a.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                nxt[m] = (nxt.get(m, 0) + ca * cb) % 7
        out = {m: c for m, c in nxt.items() if c}
    return out


class Speed:
    """Machine speed, sampled with the kernel between ops.

    A sample is the faster of two kernel runs, taken whenever EVERY_S of op
    time has passed since the last one and at the end of each pass.  Each op
    time is scaled by REFERENCE_S over the mean of the samples around it.
    """

    EVERY_S = 0.4

    def __init__(self):
        self.samples = []
        self.spent = 0.0      # seconds spent in the kernel
        self.pending = []     # raw op times since the last sample
        self.corrected = []   # scaled op times, in op order
        self.sample()

    def sample(self):
        t0 = perf_counter()
        best = float("inf")
        for _ in range(2):
            t = perf_counter()
            _kernel()
            best = min(best, perf_counter() - t)
        self.spent += perf_counter() - t0
        if self.pending:
            scale = 2 * REFERENCE_S / (self.samples[-1] + best)
            self.corrected += [x * scale for x in self.pending]
            self.pending = []
        self.samples.append(best)

    def add(self, op_s):
        self.pending.append(op_s)
        if sum(self.pending) >= self.EVERY_S:
            self.sample()

    def take(self):
        """Flush with a fresh sample; the scaled op times since the last take."""
        self.sample()
        out, self.corrected = self.corrected, []
        return out


class Runner:
    """Times ops and judges their outputs against the recorded ones."""

    def __init__(self, expected, tracer=None, speed=None):
        self.expected = expected
        self.tracer = tracer
        self.speed = speed
        self.attempted = 0
        self.ok = 0
        self.failures = []
        self.refusals = {}

    def run_pass(self, ops):
        """Run every op once; returns the op times in seconds."""
        from workloads import Refused
        times = []
        for op in ops:
            if op.before is not None:
                op.before()
            t = perf_counter()
            try:
                result = op.call()
            except Refused as exc:
                outcome = ("refused", str(exc))
            except Exception as exc:   # a crash fails the op, not the run
                outcome = ("crashed", f"{type(exc).__name__}: {exc}")
            else:
                outcome = ("answered", result)
            times.append(perf_counter() - t)
            self._judge(op, *outcome)
            if self.speed is not None:
                self.speed.add(times[-1])
        return times

    def _judge(self, op, kind, value):
        tracer = self.tracer
        if tracer is not None:
            recording, counting = tracer.recording, tracer.counting
            tracer.recording = tracer.counting = False
        try:
            problems = self._problems(op, kind, value)
        finally:
            if tracer is not None:
                tracer.recording, tracer.counting = recording, counting
        self.attempted += 1
        if problems is None:
            return
        if problems:
            self.failures.append(f"{op.id}: {'; '.join(problems)}")
        else:
            self.ok += 1

    def _problems(self, op, kind, value):
        """None for a refusal recorded as expected, else the list of problems."""
        import checks
        record = self.expected.get(op.id)
        if record is None:
            return ["no recorded output for this op"]
        if kind == "crashed":
            return [value]
        if kind == "refused":
            if "refused" in record:
                self.refusals[op.id] = value
                return None
            return [f"refused ({value}); answered when recorded"]
        problems = list(op.check(value))
        if "digest" in record and \
                checks.digest(op.render(value)) != record["digest"]:
            problems.append("output differs from the recorded output")
        return problems

    def report(self):
        return {"attempted": self.attempted, "ok": self.ok,
                "failures": self.failures, "refusals": self.refusals}


def _load_library():
    """Import hopfmotives from ./src of the checkout, and nothing else."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "hopfmotives", "__init__.py")):
        sys.exit(f"error: no src/hopfmotives under {os.getcwd()}; "
                 f"run from the root of a hopfmotives checkout")
    sys.path.insert(0, src)
    sys.path.insert(1, HERE)
    import hopfmotives
    if os.path.dirname(os.path.dirname(os.path.abspath(hopfmotives.__file__))) \
            != src:
        sys.exit(f"error: hopfmotives imported from {hopfmotives.__file__}")


def _trace_passes(runner, tracer, ops, seconds):
    """Traced pass, then untraced and traced in turn until time is up.

    Work counts come from the first traced pass; cache insertions are
    counted from process start to its end.  Times are medians.
    """
    traced, untraced = [], []
    first = None
    deadline = perf_counter() + seconds
    while True:
        tracer.reset()
        tracer.install()
        if first is None:
            runner.failures += [f"tracer missed {name}"
                                for name in tracer.missed()]
        tracer.recording = True
        times = runner.run_pass(ops)
        tracer.recording = False
        tracer.uninstall()
        tracer.counting = False
        summary = tracer.summary()
        summary["trace.pass_s"] = sum(times)
        summary["trace.self_sum_ratio"] = sum(
            v for k, v in summary.items() if k.endswith(".self_s")) / sum(times)
        traced.append(summary)
        first = first or summary
        untraced.append(sum(runner.run_pass(ops)))
        if perf_counter() >= deadline:
            break
    from tracing import CopCache, NfCache, is_time
    out = dict(first)
    for key in first:
        if is_time(key):
            out[key] = statistics.median(s[key] for s in traced)
    out["trace.overhead_s"] = out["trace.pass_s"] - statistics.median(untraced)
    out["algebra.nf_cache.entries"] = tracer.inserts[NfCache]
    out["algebra.cop_cache.entries"] = tracer.inserts[CopCache]
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "measure", "smoke", "trace"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--started", type=float, required=True,
                    help="time.time() of the parent just before it started "
                         "this process")
    args = ap.parse_args()
    speed = Speed() if args.mode in ("setup", "measure") else None
    _load_library()

    tracer = None
    if args.mode == "trace":
        from tracing import Tracer
        tracer = Tracer()
        tracer.prepare()
    import workloads
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)[args.workload]
    runner = Runner(expected, tracer, speed)
    ops = workloads.build(args.workload, args.seed)
    if args.mode != "smoke":
        runner.run_pass(ops)   # warm-up: caches fill, lazy set-up finishes
    setup_s = time.time() - args.started
    out = {"setup_raw_s": setup_s, "setup_s": setup_s,
           "passes_raw": [], "passes": [], "op_s": []}
    if speed is not None:
        out["setup_raw_s"] = setup_s = setup_s - speed.spent
        speed.take()
        out["setup_s"] = setup_s * REFERENCE_S / statistics.mean(speed.samples)
    if args.mode in ("measure", "smoke"):
        deadline = perf_counter() + args.seconds
        while True:
            times = runner.run_pass(ops)
            scaled = speed.take() if speed is not None else times
            out["passes_raw"].append(sum(times))
            out["passes"].append(sum(scaled))
            out["op_s"] += scaled
            if args.mode == "smoke":
                break
            # stop at the pass boundary nearest the deadline
            if perf_counter() + 0.5 * out["passes_raw"][-1] >= deadline \
                    and len(out["op_s"]) >= MIN_SAMPLES:
                break
    elif args.mode == "trace":
        out["trace"] = _trace_passes(runner, tracer, ops, args.seconds)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out.update(runner.report())
    print(json.dumps(out))


if __name__ == "__main__":
    main()
