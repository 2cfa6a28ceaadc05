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
import functools
import json
import math
import os
import sys
from dataclasses import replace as _replace

from .datasets import HORIZON_POLICIES, ingest_csv, tongue_path
from .inference import _asymptotic, _observed
from .resampling import ResamplingPlan, _resampling_results, pool, replicate_set
from . import simulate as sim

__all__ = ["main", "build_parser"]

_METHODS = ("asymptotic", "bootstrap", "permutation")
_DEFAULT_SEED = 0


def _resolve_seed(flag_value, fallback=_DEFAULT_SEED):
    # precedence: explicit flag, then SURVCMP_SEED, then the fixed default
    if flag_value is not None:
        return flag_value
    env = os.environ.get("SURVCMP_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError("SURVCMP_SEED must be an integer") from None
    return fallback


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``survcmp`` argument parser, built once per process and shared.

    Parsing leaves the parser unchanged, so every :func:`main` call reuses
    it; callers must not add arguments to it.
    """
    parser = argparse.ArgumentParser(
        prog="survcmp",
        description="Mann-Whitney effect and win ratio for right-censored two-sample data.")
    sub = parser.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="estimate the effect from a CSV file")
    an.add_argument("--input", help="CSV file (default: bundled tongue-cancer data)")
    an.add_argument("--time-col", default="time")
    an.add_argument("--status-col", default="delta")
    an.add_argument("--group-col", default="type")
    an.add_argument("--event-value", default="1", help="status code meaning event")
    an.add_argument("--censored-value", default="0", help="status code meaning censored")
    an.add_argument("--k", type=float, help="window end (default 200 for the bundled data)")
    an.add_argument("--beyond-horizon", choices=HORIZON_POLICIES, default="censor",
                    help="treat rows with time > K as censored at K or as events at K")
    an.add_argument("--alpha", type=float, default=0.05)
    an.add_argument("--method", choices=_METHODS + ("all",), default="all")
    an.add_argument("--alternative", choices=("two-sided", "greater", "less"),
                    default="two-sided")
    an.add_argument("--target", choices=("p", "w", "both"), default="p")
    an.add_argument("--b", type=int, default=1999, help="resampling replicates")
    an.add_argument("--seed", type=int)
    an.add_argument("--workers", type=int, default=1)
    an.add_argument("--out", help="write the report here instead of stdout")
    an.add_argument("--json", action="store_true", help="machine-readable output")
    an.add_argument("--dump-replicates", metavar="PATH",
                    help="write replicate statistics, one per line "
                         "(needs --method bootstrap or permutation)")

    si = sub.add_parser("simulate", help="run Monte-Carlo coverage cells")
    si.add_argument("--setup", type=int, choices=(1, 2, 3))
    si.add_argument("--censoring", choices=("strong", "moderate", "none"))
    si.add_argument("--n1", type=int)
    si.add_argument("--n2", type=int)
    si.add_argument("--reps", type=int, help="outer replications (default 1000)")
    si.add_argument("--b", type=int, help="resampling replicates (default 1999)")
    si.add_argument("--alpha", type=float)
    si.add_argument("--seed", type=int)
    si.add_argument("--workers", type=int, default=1)
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


def _analysis_results(s1, s2, args, seed):
    # one effect and variance for the dataset, one replicate set per method,
    # all replicate sets on one pooled sample (and so one engine context)
    methods = _METHODS if args.method == "all" else (args.method,)
    targets = ("p", "w") if args.target == "both" else (args.target,)
    eff, var = _observed(s1, s2)
    z = None if methods == ("asymptotic",) else pool(s1, s2)
    rows = []
    for method in methods:
        if method == "asymptotic":
            results = [_asymptotic(eff, var, args.alpha, target, args.alternative)
                       for target in targets]
        else:
            plan = ResamplingPlan(method, args.b, seed, args.workers)
            reps = replicate_set(z, plan)
            if args.dump_replicates:
                with open(args.dump_replicates, "w") as fh:
                    reps.export(fh)
            results = _resampling_results(eff, var, reps, plan, args.alpha,
                                          args.alternative, targets)
        for target, res in zip(targets, results):
            rows.append((method if len(targets) == 1 else f"{method}:{target}", res))
    return rows


def _analysis_json(s1, s2, rows, seed) -> str:
    first = rows[0][1]
    payload = {
        "n1": s1.n,
        "n2": s2.n,
        "k": s1.k,
        "p_hat": first.effect.p_hat,
        "w_hat": _json_num(first.effect.w_hat),
        "sigma_hat": first.sigma,
        "methods": [
            {
                "name": name,
                "ci": [_json_num(res.ci[0]), _json_num(res.ci[1])],
                "statistic": res.statistic,
                "p_value": res.p_value,
                "b": res.b,
                "dropped": res.dropped,
            }
            for name, res in rows
        ],
        "seed": seed,
    }
    return json.dumps(payload, indent=2) + "\n"


def _fmt_ci(ci) -> str:
    lo = f"{ci[0]:.4f}"
    hi = "inf" if math.isinf(ci[1]) else f"{ci[1]:.4f}"
    return f"[{lo}, {hi}]"


def _analysis_text(s1, s2, rows, seed) -> str:
    first = rows[0][1]
    w = "inf" if first.effect.w_infinite else f"{first.effect.w_hat:.4f}"
    lines = [
        f"n1 {s1.n}  n2 {s2.n}  window {s1.k:g}",
        f"effect {first.effect.p_hat:.4f}  win ratio {w}  "
        f"sigma {first.sigma:.4f}  seed {seed}",
        "",
    ]
    header = ["method", "target", "alternative", "interval", "statistic",
              "p-value", "b", "dropped"]
    table = [header]
    for name, res in rows:
        table.append([
            name, res.target, res.alternative, _fmt_ci(res.ci),
            f"{res.statistic:.4f}", f"{res.p_value:.4f}",
            str(res.b) if res.b else "-", str(res.dropped) if res.b else "-",
        ])
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    for line in table:
        lines.append("  ".join(cell.ljust(wd) for cell, wd in zip(line, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _run_analyze(args) -> str:
    if args.input is None:
        path = tongue_path()
        k = 200.0 if args.k is None else args.k
    else:
        path = args.input
        if args.k is None:
            raise ValueError("--k is required with --input")
        k = args.k
    seed = _resolve_seed(args.seed)
    s1, s2 = ingest_csv(
        path, k, time_col=args.time_col, status_col=args.status_col,
        group_col=args.group_col, event_value=args.event_value,
        censored_value=args.censored_value, beyond_horizon=args.beyond_horizon)
    if args.dump_replicates and args.method not in ("bootstrap", "permutation"):
        raise ValueError("--dump-replicates needs --method bootstrap or permutation")
    rows = _analysis_results(s1, s2, args, seed)
    if args.json:
        return _analysis_json(s1, s2, rows, seed)
    return _analysis_text(s1, s2, rows, seed)


def _run_simulate(args) -> str:
    seed = _resolve_seed(args.seed)
    if args.table1:
        setups = (args.setup,) if args.setup else (1, 2, 3)
        levels = (args.censoring,) if args.censoring else ("strong", "moderate", "none")
        cells = [(s, lv) for s in setups for lv in levels]
        return sim.proportions_text(cells, pre_censoring=args.pre_censoring)
    if args.full_study:
        configs = sim.full_study_configs(base_seed=seed, workers=args.workers)
        if args.reps is not None:
            configs = [_replace(c, reps=args.reps) for c in configs]
        if args.b is not None:
            configs = [_replace(c, b=args.b) for c in configs]
        rows = []
        for i, cfg in enumerate(configs, start=1):
            rows.append(sim.coverage_study(cfg))
            print(f"cell {i}/{len(configs)} done", file=sys.stderr)
        return sim.coverage_tsv(rows) if args.tsv else sim.coverage_text(rows)
    kwargs = sim.parse_config_file(args.config) if args.config else {}
    for key in ("setup", "censoring", "n1", "n2", "reps", "b", "alpha", "workers"):
        value = getattr(args, key)
        if value is not None and (key != "workers" or value != 1 or "workers" not in kwargs):
            kwargs[key] = value
    if args.seed is not None or "seed" not in kwargs:
        kwargs["seed"] = seed
    missing = [key for key in ("setup", "censoring", "n1", "n2") if key not in kwargs]
    if missing:
        raise ValueError("missing scenario settings: " + ", ".join(missing)
                         + " (give flags or --config)")
    kwargs.setdefault("reps", 1000)
    kwargs.setdefault("b", 1999)
    row = sim.coverage_study(sim.ScenarioConfig(**kwargs))
    return sim.coverage_tsv([row]) if args.tsv else sim.coverage_text([row])


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = _run_analyze(args) if args.command == "analyze" else _run_simulate(args)
    except (ValueError, OSError) as exc:
        print(f"survcmp: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
    else:
        sys.stdout.write(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
