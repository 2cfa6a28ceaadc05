"""Command-line interface: two-sample analysis and the simulation study.

``survcmp analyze`` ingests a CSV of survival times (bundled tongue-cancer
data by default), estimates the Mann-Whitney effect and win ratio on a
window [0, K], and reports confidence intervals and tests for the chosen
methods as aligned text or JSON.  ``survcmp simulate`` runs coverage
cells of the Monte-Carlo harness or prints the beyond-window proportion
table.

Exit codes: 0 success, 1 data or math error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import inspect
import json
import math
import os
import sys
from dataclasses import fields, replace as _replace
from time import monotonic

from .datasets import TONGUE_K, ingest_csv, tongue_path
from .inference import ALTERNATIVES, METHODS, analyze
from .rng import check_seed
from .survival import HORIZON_POLICIES
from . import simulate as sim

__all__ = ["main", "build_parser"]


def _defaults(fn) -> dict:
    """A library function's parameter defaults by name, read from its signature."""
    return {name: p.default for name, p in inspect.signature(fn).parameters.items()}


def _resolve_seed(flag_value, default: int):
    # precedence: explicit flag, then SURVCMP_SEED, then the library default;
    # checked here for every method, including those that draw nothing
    seed = flag_value
    if seed is None:
        env = os.environ.get("SURVCMP_SEED")
        if env is None:
            return default
        try:
            seed = int(env)
        except ValueError:
            raise ValueError("SURVCMP_SEED must be an integer") from None
    return check_seed(seed)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``survcmp`` argument parser, built once per process and shared.

    Parsing leaves the parser unchanged, so every :func:`main` call reuses
    it; callers must not add arguments to it.  Choices and defaults are read
    from the library's tables.
    """
    parser = argparse.ArgumentParser(
        prog="survcmp",
        description="Mann-Whitney effect and win ratio for right-censored two-sample data.")
    sub = parser.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="estimate the effect from a CSV file")
    csv_defaults = _defaults(ingest_csv)
    an.add_argument("--input", help="CSV file (default: bundled tongue-cancer data)")
    an.add_argument("--time-col", default=csv_defaults["time_col"])
    an.add_argument("--status-col", default=csv_defaults["status_col"])
    an.add_argument("--group-col", default=csv_defaults["group_col"])
    an.add_argument("--event-value", default=csv_defaults["event_value"],
                    help="status code meaning event")
    an.add_argument("--censored-value", default=csv_defaults["censored_value"],
                    help="status code meaning censored")
    an.add_argument("--k", type=float,
                    help=f"window end (default {TONGUE_K:g} for the bundled data)")
    an.add_argument("--beyond-horizon", choices=HORIZON_POLICIES,
                    default=csv_defaults["beyond_horizon"],
                    help="treat rows with time > K as censored at K or as events at K")
    an.add_argument("--alpha", type=float)
    an.add_argument("--method", choices=METHODS + ("all",), default="all")
    an.add_argument("--alternative", choices=ALTERNATIVES)
    an.add_argument("--target", choices=("p", "w", "both"), default="p")
    an.add_argument("--b", type=int, help="resampling replicates")
    an.add_argument("--seed", type=int)
    an.add_argument("--workers", type=int,
                    help="processes that take contiguous runs of a replicate set's "
                         "engine calls (results do not depend on it)")
    an.add_argument("--out", help="write the report here instead of stdout")
    an.add_argument("--json", action="store_true", help="machine-readable output")
    an.add_argument("--dump-replicates", metavar="PATH",
                    help="write replicate statistics, one per line "
                         "(needs --method bootstrap or permutation)")

    si = sub.add_parser("simulate", help="run Monte-Carlo coverage cells")
    si.add_argument("--setup", type=int, choices=tuple(sim.SETUPS))
    si.add_argument("--censoring", choices=tuple(sim.CENSORING_LEVELS))
    si.add_argument("--n1", type=int)
    si.add_argument("--n2", type=int)
    si.add_argument("--reps", type=int,
                    help=f"outer replications (default {sim.ScenarioConfig.reps})")
    si.add_argument("--b", type=int,
                    help=f"resampling replicates (default {sim.ScenarioConfig.b})")
    si.add_argument("--alpha", type=float)
    si.add_argument("--seed", type=int)
    si.add_argument("--workers", type=int,
                    help="processes that take contiguous ranges of a cell's "
                         "replications (results do not depend on it)")
    si.add_argument("--out", help="write tables here instead of stdout")
    si.add_argument("--tsv", action="store_true", help="tab-separated output")
    si.add_argument("--table1", action="store_true",
                    help="print beyond-window proportions instead of coverage")
    si.add_argument("--pre-censoring", action="store_true",
                    help="with --table1: count latent times beyond the window")
    si.add_argument("--config", help="key=value scenario file; flags override it")
    si.add_argument("--full-study", action="store_true",
                    help="run the complete published grid (hours of compute)")
    return parser


def _json_num(x):
    if x is None or not math.isfinite(x):
        return None
    return x


def _analysis_rows(s1, s2, args, seed):
    """(Row name, target, interval, result) per method and target, in order."""
    methods = METHODS if args.method == "all" else (args.method,)
    # only the settings given, so that analyze's own defaults hold for the rest
    given = {key: getattr(args, key) for key in ("alpha", "alternative", "b", "workers")
             if getattr(args, key) is not None}
    results = analyze(s1, s2, methods, seed=seed, **given)
    if args.dump_replicates:  # one resampling method only
        with open(args.dump_replicates, "w") as fh:
            results[0].replicates.export(fh)
    for res in results:
        if res.capped:
            print(f"survcmp: warning: {res.method} quantile rank {res.rank} capped at "
                  f"b_eff {res.b - res.dropped} (B {res.b}, alpha {res.alpha:g}); "
                  "the interval has no nominal guarantee", file=sys.stderr)
    targets = ("p", "w") if args.target == "both" else (args.target,)
    return [(res.method if len(targets) == 1 else f"{res.method}:{target}", target,
             res.ci if target == "p" else res.ci_w, res)
            for res in results for target in targets]


def _analysis_json(s1, s2, rows, seed) -> str:
    first = rows[0][3]
    payload = {
        "n1": s1.n,
        "n2": s2.n,
        "k": s1.k,
        "p_hat": first.estimate.p_hat,
        "w_hat": _json_num(first.estimate.w_hat),
        "sigma_hat": first.sigma,
        "methods": [
            {
                "name": name,
                "ci": [_json_num(ci[0]), _json_num(ci[1])],
                "statistic": res.statistic,
                "p_value": res.p_value,
                "b": res.b,
                "dropped": res.dropped,
            }
            for name, _, ci, res in rows
        ],
        "seed": seed,
    }
    return json.dumps(payload, indent=2) + "\n"


def _fmt_ci(ci) -> str:
    lo = f"{ci[0]:.4f}"
    hi = "inf" if math.isinf(ci[1]) else f"{ci[1]:.4f}"
    return f"[{lo}, {hi}]"


def _analysis_text(s1, s2, rows, seed) -> str:
    first = rows[0][3]
    w = "inf" if first.estimate.w_infinite else f"{first.estimate.w_hat:.4f}"
    lines = [
        f"n1 {s1.n}  n2 {s2.n}  window {s1.k:g}",
        f"effect {first.estimate.p_hat:.4f}  win ratio {w}  "
        f"sigma {first.sigma:.4f}  seed {seed}",
        "",
    ]
    header = ["method", "target", "alternative", "interval", "statistic",
              "p-value", "b", "dropped"]
    table = [header]
    for name, target, ci, res in rows:
        table.append([
            name, target, res.alternative, _fmt_ci(ci),
            f"{res.statistic:.4f}", f"{res.p_value:.4f}",
            str(res.b) if res.b else "-", str(res.dropped) if res.b else "-",
        ])
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    for line in table:
        lines.append("  ".join(cell.ljust(wd) for cell, wd in zip(line, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _run_analyze(args) -> str:
    if args.input is not None and args.k is None:
        raise ValueError("--k is required with --input")
    path = tongue_path() if args.input is None else args.input
    k = TONGUE_K if args.k is None else args.k
    seed = _resolve_seed(args.seed, _defaults(analyze)["seed"])
    if args.dump_replicates:  # checked before any work, as --out is in main
        if args.method not in ("bootstrap", "permutation"):
            raise ValueError("--dump-replicates needs --method bootstrap or permutation")
        open(args.dump_replicates, "a").close()
    s1, s2 = ingest_csv(
        path, k, time_col=args.time_col, status_col=args.status_col,
        group_col=args.group_col, event_value=args.event_value,
        censored_value=args.censored_value, beyond_horizon=args.beyond_horizon)
    rows = _analysis_rows(s1, s2, args, seed)
    if args.json:
        return _analysis_json(s1, s2, rows, seed)
    return _analysis_text(s1, s2, rows, seed)


def _refuse(args, keys, why: str, remedy: str) -> None:
    """ValueError naming the flags among ``keys`` given on the command line."""
    given = [key.replace("_", "-") for key in keys
             if getattr(args, key) is not None and getattr(args, key) is not False]
    if given:
        raise ValueError(f"settings {why}: " + ", ".join(given) + f" ({remedy})")


def _run_simulate(args) -> str:
    if args.table1:
        _refuse(args, ("n1", "n2", "reps", "b", "alpha", "seed", "workers", "config", "tsv",
                       "full_study"), "the table ignores", "drop them or --table1")
        setups = (args.setup,) if args.setup else sim.SETUPS
        levels = (args.censoring,) if args.censoring else sim.CENSORING_LEVELS
        cells = [(s, lv) for s in setups for lv in levels]
        return sim.proportions_text(cells, pre_censoring=args.pre_censoring)
    _refuse(args, ("pre_censoring",), "only the table uses", "drop it or add --table1")
    seed = _resolve_seed(args.seed, sim.ScenarioConfig.seed)
    # the flags named after the config's fields, the seed resolved apart
    flags = {f.name: getattr(args, f.name) for f in fields(sim.ScenarioConfig)
             if f.name != "seed" and getattr(args, f.name) is not None}
    if args.full_study:
        _refuse(args, ("setup", "censoring", "n1", "n2", "config"),
                "the full study fixes", "drop them or --full-study")
        configs = [_replace(c, **flags) for c in sim.full_study_configs(base_seed=seed)]
        rows, start = [], monotonic()
        for i, cfg in enumerate(configs, start=1):
            rows.append(sim.coverage_study(cfg))
            elapsed = monotonic() - start  # the ETA assumes the mean cell time so far
            print(f"cell {i}/{len(configs)} done, {elapsed:.1f} s elapsed, ETA "
                  f"{elapsed / i * (len(configs) - i):.1f} s", file=sys.stderr)
        return sim.coverage_tsv(rows) if args.tsv else sim.coverage_text(rows)
    kwargs = {**(sim.parse_config_file(args.config) if args.config else {}), **flags}
    if args.seed is not None or "seed" not in kwargs:
        kwargs["seed"] = seed
    missing = [key for key in ("setup", "censoring", "n1", "n2") if key not in kwargs]
    if missing:
        raise ValueError("missing scenario settings: " + ", ".join(missing)
                         + " (give flags or --config)")
    row = sim.coverage_study(sim.ScenarioConfig(**kwargs))
    return sim.coverage_tsv([row]) if args.tsv else sim.coverage_text([row])


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "analyze" and args.event_value == args.censored_value:
        parser.error("--event-value and --censored-value must differ")
    try:
        if args.out:  # a bad path fails before the computation; append mode
            open(args.out, "a").close()  # keeps an existing file's content
        report = _run_analyze(args) if args.command == "analyze" else _run_simulate(args)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(report)
            return 0
    except (ValueError, OSError, csv.Error) as exc:
        print(f"survcmp: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
