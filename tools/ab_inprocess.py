"""Parent against change in one interpreter: alternating timings of one operation.

    python3 tools/ab_inprocess.py PARENT_DIR CHANGE_DIR --op cell [--rounds 80] [--seed 1]
        [--n1 15 --n2 15]
    python3 tools/ab_inprocess.py PARENT_DIR CHANGE_DIR --op analyze
        [--csv FILE --k K | --large-n SEED] [--b 1999] [--method all] [--target p|w|both]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository.  Each
checkout's ``src/survcmp`` is loaded under a package name of its own, so
both run in this one process, on the same warm interpreter, and a round
times the operation once on each side, parent first in odd rounds and
change first in even rounds.  Fresh-process timings spread too widely on a
small shared machine to resolve a change of a few percent; alternating in
one process cancels most of that drift.

The two sides also share one heap: one allocator state, whose free memory
each side reuses after the other.  So a change to how the program
allocates (fresh arrays per call in place of kept ones, say) can read
even here and not in fresh processes.  An engine that allocated its three
grids on every call read 1.03x the kept grids here (14 of 80 rounds won),
against about 1.45x per coverage cell in standalone processes.  Confirm
any change to allocation patterns with interleaved fresh-process pairs:
``bench/run.py`` or ``tools/time_cli.py``.

Operations:

- ``cell``: a ten-replication ``coverage_study`` (setup 3, strong
  censoring, B = 999) of ``--n1``/``--n2`` per group, by default 15/15,
  the benchmark's coverage-cell operation; round i uses the study seed
  (seed << 24) + i on both sides.  ``--n1 30 --n2 60`` times one of the
  full study's widest cells.
- ``analyze``: ``survcmp analyze --method M --b B --json`` on the CSV
  (the change's copy of the bundled data, with K = 200, without
  ``--csv``), through ``cli.main``.  ``--method`` (default ``all``) and
  ``--target`` (default: the CLI's own, left off the argv) pass through.
  ``--large-n SEED`` writes the benchmark's 4,000-row CSV for that seed
  into a temporary directory (``LargeNAsymptotic.prepare`` from the
  change's ``bench/workloads.py``) and analyzes it with K = 1.6, so
  ``--large-n SEED --method asymptotic --target both`` times the
  operation of the ``large-n-asymptotic`` workload.

Both sides must return equal results in every round (the coverage row's
TSV line and its censoring calibration, or the JSON report), or the
script stops with an assertion error.  So where the two checkouts'
win-ratio results differ (as across the change that made w's interval the
image of p's), time ``--target p``, or ``--op cell``, which reads p alone.
It prints each side's median and quartiles in milliseconds, the ratio of
the medians and the rounds that the change wins.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import io
import statistics
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

CELL = dict(setup=3, censoring="strong", alpha=0.05, b=999, reps=10)


def load(root: Path, name: str):
    """The checkout's ``survcmp`` package, imported as ``name``."""
    src = root / "src" / "survcmp"
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("cli", "simulate"):
        importlib.import_module(f"{name}.{module}")
    return package


def cell_op(package, seed: int, n1: int, n2: int):
    # the row's TSV and calibration, which read alike whatever the row's layout
    sim = package.simulate

    def run(i: int) -> str:
        row = sim.coverage_study(sim.ScenarioConfig(seed=(seed << 24) + i, n1=n1, n2=n2, **CELL))
        return sim.coverage_tsv([row]) + repr(row.calibration)
    return run


def analyze_op(package, csv: str, k: float, b: int, seed: int, method: str, target):
    argv = ["analyze", "--input", csv, "--k", str(k), "--method", method, "--b", str(b),
            "--json", "--seed", str(seed)] + (["--target", target] if target else [])

    def run(i: int) -> str:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = package.cli.main(argv)
        assert code == 0, f"analyze exited with {code}"
        return buf.getvalue()
    return run


def large_n_csv(root: Path, out: Path, seed: int) -> tuple[str, float]:
    """The ``large-n-asymptotic`` workload's CSV for ``seed``, written into
    ``out`` by the checkout's ``bench/workloads.py``, and its window end."""
    sys.path.insert(0, str(root / "bench"))
    import workloads
    return workloads.LargeNAsymptotic.prepare(root, out, seed)["data"], workloads.LARGE_K


def _quartiles(values: list[float]) -> tuple[float, float]:
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--op", choices=("cell", "analyze"), required=True)
    parser.add_argument("--rounds", type=int, default=80)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--n1", type=int, default=15, help="cell: group 1's size")
    parser.add_argument("--n2", type=int, default=15, help="cell: group 2's size")
    data = parser.add_mutually_exclusive_group()
    data.add_argument("--csv", help="analyze: input CSV (default: the bundled data)")
    data.add_argument("--large-n", type=int, metavar="SEED",
                      help="analyze: the large-n-asymptotic workload's CSV for SEED, K = 1.6")
    parser.add_argument("--k", type=float, help="analyze: window end, needed with --csv")
    parser.add_argument("--b", type=int, default=1999, help="analyze: replicates")
    parser.add_argument("--method", default="all", help="analyze: --method of the analysis")
    parser.add_argument("--target", choices=("p", "w", "both"),
                        help="analyze: --target of the analysis (default: the CLI's)")
    args = parser.parse_args()
    if args.csv is not None and args.k is None:
        parser.error("--k is required with --csv")

    with tempfile.TemporaryDirectory() as tmp:
        if args.large_n is not None:
            csv, k = large_n_csv(args.change_dir.resolve(), Path(tmp), args.large_n)
        elif args.csv is not None:
            csv, k = args.csv, args.k
        else:  # the bundled data by path: a checkout from before `tongue_path`
            # resolved its package's own name asks for the resource
            # "survcmp.data", which a package loaded under another name cannot find
            csv, k = str(args.change_dir / "src" / "survcmp" / "data" / "tongue.csv"), 200.0
        compare(args, csv, k)


def compare(args, csv: str, k: float) -> None:
    """Load both sides, time ``args.rounds`` alternating rounds and print the summary."""
    sides = {}
    for side, root in (("parent", args.parent_dir), ("change", args.change_dir)):
        package = load(root.resolve(), f"survcmp_{side}")
        sides[side] = (cell_op(package, args.seed, args.n1, args.n2) if args.op == "cell"
                       else analyze_op(package, csv, k, args.b, args.seed, args.method,
                                       args.target))
    for run in sides.values():  # warm-up: caches, calibration, first workspace
        run(0)

    times = {side: [] for side in sides}
    for i in range(args.rounds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        results = {}
        for side in order:
            gc.collect()  # no side pays for collecting the other's garbage
            start = perf_counter()
            results[side] = sides[side](i)
            times[side].append(perf_counter() - start)
        assert results["parent"] == results["change"], f"round {i}: results differ"

    parent, change = times["parent"], times["change"]
    for side, values in times.items():
        lo, hi = _quartiles(values)
        print(f"{side:7s} median {1e3 * statistics.median(values):8.3f} ms  "
              f"quartiles [{1e3 * lo:.3f}, {1e3 * hi:.3f}]")
    wins = sum(c < p for p, c in zip(parent, change))
    print(f"ratio {statistics.median(change) / statistics.median(parent):.3f}  "
          f"change wins {wins}/{args.rounds}  results equal in every round")


if __name__ == "__main__":
    main()
