"""survcmp benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload tongue-analyze --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Run from the root of a checkout.  Each workload runs in processes of its
own (``worker.py``): set-up is timed from process start to the first timed
operation, as the median over several fresh processes, and the last of
them runs the timed closed loop.  ``--trace 1`` measures per-layer figures
instead of the end-to-end ones.  The last line of standard output is one
JSON object: correct, attempted, failed and metrics.  Results, traces and
generated inputs go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_PROBES = 6    # extra fresh processes timed for setup_s, besides the timed one
DEADLINE_S = 170.0  # one workload's run, set-up processes included


class BenchError(Exception):
    pass


def git_commit(root: Path) -> str:
    """HEAD's commit read from .git, or 'unknown' outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spawn(workload: str, inputs: dict, seconds: float, trace: int, setup_only: bool,
          deadline: float):
    """Start a worker; return (set-up seconds, its final JSON line or None)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--inputs", json.dumps(inputs),
           "--seconds", repr(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=max(deadline - perf_counter(), 0.0)):
                raise BenchError(f"{workload}: worker not ready before the deadline")
        ready = proc.stdout.readline()
        setup = perf_counter() - start
        if ready.strip() != "READY":
            raise BenchError(f"{workload}: worker failed during set-up")
        rest, _ = proc.communicate(timeout=max(deadline - perf_counter(), 0.0))
        if proc.returncode != 0:
            raise BenchError(f"{workload}: worker exited with {proc.returncode}")
        return setup, (None if setup_only else json.loads(rest.strip().splitlines()[-1]))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker passed the deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    inputs = WORKLOADS[workload].prepare(ROOT, OUT, seed)
    # set-up probes before and after the timed process, so that the median
    # spans the machine's state over the whole run
    probes = 0 if trace else SETUP_PROBES
    setups = [spawn(workload, inputs, seconds, trace, True, deadline)[0]
              for _ in range(probes // 2)]
    setup, result = spawn(workload, inputs, seconds, trace, False, deadline)
    setups.append(setup)
    setups += [spawn(workload, inputs, seconds, trace, True, deadline)[0]
               for _ in range(probes - probes // 2)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["setup_samples_s"] = setups
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": unit}
                         for name, unit in units.items()}
    result["stamp"] = {"nproc": os.cpu_count(), "commit": git_commit(ROOT),
                       **result.pop("versions")}
    result.update(workload=workload, seed=seed, seconds=seconds, trace=trace)
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(result, indent=2) + "\n")
    return result


def report(result: dict) -> None:
    s = result["stamp"]
    print(f"{result['workload']}: seed {result['seed']}, {result['seconds']:g} s, "
          f"trace {result['trace']}; nproc {s['nproc']}, Python {s['python']}, "
          f"numpy {s['numpy']}, scipy {s['scipy']}, commit {s['commit']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<38} {m['value']:>14.6g} {m['unit']}")
    print(f"  attempted {result['attempted']}, failed {result['failed']}, "
          f"checks {'passed' if not result['problems'] else 'FAILED'}")
    for problem in result["problems"]:
        print(f"  check failed: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "survcmp" / "__init__.py").is_file():
        print(f"run.py: no survcmp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**40:
        print("run.py: --seed must lie in [0, 2**40)", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, args.trace,
                                        perf_counter() + DEADLINE_S))
            report(results[-1])
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": m
                   for r in results for name, m in r["metrics"].items()}
    print(json.dumps({"correct": all(not r["problems"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
