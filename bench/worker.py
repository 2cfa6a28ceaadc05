"""One workload process: import survcmp, warm up, run the timed loop, check.

Started by ``run.py``; not meant to be run by hand.  It prints ``READY``
when set-up is done and the first timed operation is about to start, then
one JSON line with its measurements when it finishes.  With --setup-only
it exits after ``READY``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter


class Operations:
    """Runs a workload's operations, keeping outputs and counting failures."""

    def __init__(self, workload):
        self.workload = workload
        self.outputs = []
        self.attempted = 0
        self.failed = 0

    def run(self, i: int, wrap=None) -> float:
        """Operation i, optionally called through wrap(fn); returns its wall time."""
        call = (lambda: self.workload.op(i))
        t0 = perf_counter()
        self.attempted += 1
        try:
            self.outputs.append(wrap(call) if wrap else call())
        except (ValueError, RuntimeError, OSError):
            self.failed += 1
            traceback.print_exc()
        return perf_counter() - t0

    def closed_loop(self, seconds: float):
        """One caller, operations back to back for `seconds`: (times, elapsed)."""
        times = []
        start = perf_counter()
        while perf_counter() - start < seconds:
            times.append(self.run(len(times)))
        return times, perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True, help="JSON object from the workload's prepare()")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    root = Path(args.root)
    out = root / "bench" / "out"
    sys.path.insert(0, str(root / "src"))
    import workloads
    workload = workloads.WORKLOADS[args.workload](json.loads(args.inputs), out)
    import survcmp
    if not Path(survcmp.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise SystemExit(f"survcmp imported from {survcmp.__file__}, not from {root / 'src'}")

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    workload.warm_up()
    if tracer is not None:
        tracer.uninstall()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    ops = Operations(workload)
    times, elapsed = ops.closed_loop(args.seconds)
    if tracer is None:
        metrics = {"ops_per_s": (ops.attempted - ops.failed) / elapsed,
                   "op_p50_s": statistics.median(times),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    else:
        # the same operations untraced and traced, alternating
        untraced = []
        for i in range(workload.traced_ops):
            untraced.append(ops.run(i))
            tracer.install()
            try:
                ops.run(i, lambda call: tracer.run_op(i, call))
            finally:
                tracer.uninstall()
        metrics = spans.layer_metrics(tracer.spans, workload.traced_ops,
                                      statistics.median(untraced))
        metrics["variance.peak_alloc_mb"] = spans.variance_peak_alloc_mb(
            "survcmp", lambda: ops.run(0))
        tracer.dump(out / f"trace-{args.workload}.jsonl")

    import numpy
    import oracle
    import scipy
    problems = oracle.self_test() + (workload.check(ops.outputs) if ops.outputs else ["no output"])
    result = {"attempted": ops.attempted, "failed": ops.failed, "metrics": metrics,
              "op_quartiles_s": statistics.quantiles(times, n=4) if len(times) > 1 else times * 3,
              "problems": problems,
              "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
