"""Fresh-process wall time of survcmp commands, parent against change.

    python3 tools/time_cli.py PARENT_DIR CHANGE_DIR --parent REV --change TEXT --out BENCH.json

PARENT_DIR and CHANGE_DIR are two checkouts of the repository.  Each of
the ``PAIRS`` pairs times every command once on each side, parent first
in odd pairs and change first in even pairs; one timing is the median
wall time of ``PROCESSES`` fresh interpreters, each with ``PYTHONPATH``
set to that checkout's ``src``.  The JSON written has ``BENCH_10.json``'s shape: per
command, each side's median, quartiles and runs, the pairs the change
wins and the ratio of the medians.  Any command that exits non-zero
counts as failed.  ``analyze-wide-b1999`` reads a 200/200 CSV that the
script writes from a fixed seed into a temporary directory: its engine
calls span one 256-row block each, beyond the engine's cell budget.  The
coverage cell (setup 3, strong censoring, 15/15, 600 replications,
B = 999) and ``analyze --method all --b 1999`` on the bundled data each run
once with ``--workers 1`` and once with ``--workers 2``; ``workers_ratio``
holds, per command, each side's median of the second over the first.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np

PAIRS = 10
PROCESSES = 5  # fresh interpreters per timing

# what the console script `survcmp` runs
_CLI = "import sys; from survcmp.cli import main; sys.exit(main())"
_CELL = ["-c", _CLI, "simulate", "--setup", "3", "--censoring", "strong", "--n1", "15",
         "--n2", "15", "--reps", "600", "--b", "999", "--tsv", "--workers"]
_ALL = ["-c", _CLI, "analyze", "--method", "all", "--b", "1999", "--json", "--workers"]
# the benchmark runs workers = 1 only, so the worker processes show here
WORKERS = {"simulate-cell": _CELL, "analyze-all-b1999": _ALL}


def _commands(wide_csv: Path) -> dict[str, list[str]]:
    commands = {
        "import": ["-c", "import survcmp"],
        "analyze-asymptotic": ["-c", _CLI, "analyze", "--method", "asymptotic", "--json"],
        "analyze-all-b9999": ["-c", _CLI, "analyze", "--method", "all", "--target", "both",
                              "--b", "9999", "--json"],
        "analyze-wide-b1999": ["-c", _CLI, "analyze", "--input", str(wide_csv), "--k", "3",
                               "--method", "all", "--b", "1999", "--json"],
    }
    for name, cmd in WORKERS.items():
        commands[f"{name}-workers1"] = cmd + ["1"]
        commands[f"{name}-workers2"] = cmd + ["2"]
    return commands


def _write_wide_csv(path: Path) -> None:
    """200 + 200 exponential times from a fixed seed, about a quarter censored."""
    rng = np.random.default_rng(2013)
    lines = ["time,delta,type"]
    for group, scale in ((1, 1.0), (2, 1.3)):
        times = np.round(rng.exponential(scale, 200), 4)
        events = rng.random(200) < 0.75
        lines += [f"{t!r},{int(e)},{group}" for t, e in zip(times.tolist(), events)]
    path.write_text("\n".join(lines) + "\n")


def _time(root: Path, args: list[str], processes: int) -> tuple[float, int]:
    """Median wall seconds of ``processes`` fresh runs, and how many failed."""
    # byte code is written, so the warm-up run compiles it for the timed runs
    env = {key: value for key, value in os.environ.items()
           if key not in ("SURVCMP_SEED", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(root / "src")
    times, failed = [], 0
    for _ in range(processes):
        start = perf_counter()
        run = subprocess.run([sys.executable, *args], cwd=root, env=env,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(perf_counter() - start)
        failed += run.returncode != 0
    return statistics.median(times), failed


def _summary(runs: list[float]) -> dict:
    q1, q3 = np.percentile(runs, [25, 75])
    return {"median": round(statistics.median(runs), 6),
            "quartiles": [round(float(q1), 6), round(float(q3), 6)],
            "runs": [round(r, 6) for r in runs]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--parent", required=True, help="the parent's commit")
    parser.add_argument("--change", required=True, help="what the change does")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    sides = {"parent": args.parent_dir.resolve(), "change": args.change_dir.resolve()}
    with tempfile.TemporaryDirectory() as tmp:
        wide_csv = Path(tmp) / "wide.csv"
        _write_wide_csv(wide_csv)
        runs, failed = _pairs(sides, _commands(wide_csv))
    # the record names the deleted temporary CSV by a placeholder
    _write_record(args, sides, _commands(Path("WIDE_200_200.csv")), runs, failed)


def _pairs(sides: dict[str, Path], commands: dict[str, list[str]]):
    """Per command and side, the ``PAIRS`` timings and the failed processes."""
    for root in sides.values():  # compile the byte code before timing
        for cmd in commands.values():
            _time(root, cmd, 1)
    runs = {name: {side: [] for side in sides} for name in commands}
    failed = {name: {side: 0 for side in sides} for name in commands}
    for pair in range(PAIRS):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for name, cmd in commands.items():
            for side in order:
                wall, bad = _time(sides[side], cmd, PROCESSES)
                runs[name][side].append(wall)
                failed[name][side] += bad
        print(f"pair {pair + 1}/{PAIRS} done", file=sys.stderr)
    return runs, failed


def _write_record(args, sides, commands, runs, failed) -> None:
    workloads = {}
    for name, cmd in commands.items():
        parent, change = runs[name]["parent"], runs[name]["change"]
        workloads[name] = {
            "command": " ".join(["python3", *cmd]),
            "pairs": PAIRS,
            "processes_per_run": PROCESSES,
            "metrics": {"wall_s": {
                "unit": "s",
                "better": "lower",
                "parent": _summary(parent),
                "change": _summary(change),
                "change_wins": sum(c < p for p, c in zip(parent, change)),
                "median_ratio": round(statistics.median(change) / statistics.median(parent), 6),
            }},
            "attempted": {side: PAIRS * PROCESSES for side in sides},
            "failed": failed[name],
        }
    record = {
        "description": (
            "Parent/change pairs of fresh-process wall time, from `python3 tools/time_cli.py "
            "PARENT_DIR CHANGE_DIR`, run from two fresh checkouts on one machine in one "
            "session, interleaved (parent first in odd pairs, change first in even pairs). "
            f"Each run is the median of {PROCESSES} fresh interpreters. Values are "
            "medians and [25th, 75th] percentiles over the pairs; wins count pairs in which "
            "the change reads better."),
        "parent": args.parent,
        "change": args.change,
        "workloads": workloads,
        "workers_ratio": {
            name: {side: round(statistics.median(runs[f"{name}-workers2"][side])
                               / statistics.median(runs[f"{name}-workers1"][side]), 6)
                   for side in sides}
            for name in WORKERS},
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__, "os": f"{platform.system()} {platform.release()}"},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
