"""The three workloads: their inputs, one operation each, and the output checks.

Inputs are made here from the benchmark's seed and handed to the program
as files or arguments.  Every check is computed apart from the program
(``oracle``) or is a property the method must have; none compares with a
stored copy of earlier output.
"""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
from scipy import special

import oracle

EXACT = 1e-12        # p-hat against the oracle, and the swap identity
VARIANCE_RTOL = 0.02  # sigma-hat^2 against the delta-method oracle

TONGUE_K = 200.0
TONGUE_B = 9999
# published scale on the bundled data: estimate, and two-sided 95 % intervals
TONGUE_P_HAT = (0.6148, 0.0005)
TONGUE_CI = {"bootstrap:p": ((0.457, 0.772), 0.015),
             "permutation:p": ((0.464, 0.766), 0.015)}

CELL = dict(setup=3, censoring="strong", n1=15, n2=15, alpha=0.05, b=999)
CELL_REPS = 10  # outer replications per operation
CELL_WEIBULL = (1.0, 1.5)  # scale, shape of both groups in setup 3
CELL_K = 2.0
CELL_CHECK_DATASETS = 12
# false-alarm rate of the permutation coverage test per run: a correct
# program must pass every run the benchmark will ever make
COVERAGE_LEVEL = 1e-6

LARGE_N = 2000
LARGE_K = 1.6
# per group: exponential survival mean, exponential censoring rate
LARGE_LAWS = ((1.2, 0.2), (1.4, 0.35))


def write_csv(path: Path, rows) -> None:
    """rows: (group label, time, event); a float time is written as its repr."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["type", "time", "delta"])
        for label, t, e in rows:
            out.writerow([label, t if isinstance(t, str) else repr(float(t)), int(e)])


def swap_labels(src: Path, dst: Path) -> None:
    with open(src, newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(dst, "w", newline="") as fh:
        out = csv.DictWriter(fh, fieldnames=["type", "time", "delta"])
        out.writeheader()
        for row in rows:
            out.writerow({"type": {"1": "2", "2": "1"}[row["type"]],
                          "time": row["time"], "delta": row["delta"]})


class Checks:
    """Collects failed checks as readable lines."""

    def __init__(self):
        self.problems: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


def call_cli(cli, argv) -> tuple[int, str]:
    """`survcmp <argv>` in this process: (exit code, standard output)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def run_cli(cli, argv) -> str:
    code, out = call_cli(cli, argv)
    if code != 0:
        raise RuntimeError(f"survcmp {' '.join(argv)} exited with {code}")
    return out


def check_report(c: Checks, where: str, report: dict, groups, k: float, b: int) -> None:
    """Estimate, variance and every interval of one `analyze --json` report."""
    (t1, e1), (t2, e2) = groups
    c1, c2 = oracle.product_limit(t1, e1, k), oracle.product_limit(t2, e2, k)
    n1, n2 = t1.size, t2.size
    c.expect((report["n1"], report["n2"]) == (n1, n2),
             f"{where}: group sizes {report['n1']}, {report['n2']} != {n1}, {n2}")
    p_ref = oracle.effect(c1, c2)
    p_hat = report["p_hat"]
    c.expect(abs(p_hat - p_ref) <= EXACT, f"{where}: p_hat {p_hat!r} != oracle {p_ref!r}")
    var_ref = oracle.delta_variance(c1, c2)
    var = report["sigma_hat"] ** 2 * (n1 + n2) / (n1 * n2)
    c.expect(abs(var / var_ref - 1.0) <= VARIANCE_RTOL,
             f"{where}: Var(p_hat) {var!r} vs delta-method {var_ref!r}")
    w_hat = report["w_hat"]
    for m in report["methods"]:
        name = m["name"]
        target = name.split(":")[1] if ":" in name else "p"
        est = p_hat if target == "p" else w_hat
        lo, hi = m["ci"]
        hi = math.inf if hi is None else hi
        top = 1.0 if target == "p" else math.inf
        c.expect(0.0 <= lo <= est <= hi <= top,
                 f"{where}: {name} interval [{lo}, {hi}] misses its estimate {est} "
                 f"or leaves [0, {top}]")
        c.expect(0.0 < m["p_value"] <= 1.0, f"{where}: {name} p-value {m['p_value']}")
        resampled = not name.startswith("asymptotic")
        c.expect(m["b"] == (b if resampled else 0) and 0 <= m["dropped"] <= m["b"],
                 f"{where}: {name} b {m['b']}, dropped {m['dropped']}")


def check_swap(c: Checks, where: str, p12: float, p21: float, groups, k: float) -> None:
    (t1, e1), (t2, e2) = groups
    s1k = oracle.product_limit(t1, e1, k).at_k
    s2k = oracle.product_limit(t2, e2, k).at_k
    gap = p12 + p21 - (1.0 - s1k * s2k)
    c.expect(abs(gap) <= EXACT, f"{where}: p12 + p21 - (1 - S1(K) S2(K)) = {gap!r}")


def check_replicate_counts(c: Checks, where: str, cli, base_argv, scheme: str, b: int,
                           dump: Path, expected_dropped=None) -> None:
    """b_eff + dropped = B, with b_eff the number of replicates the CLI writes out."""
    report = json.loads(run_cli(cli, base_argv + ["--method", scheme, "--target", "p",
                                                  "--dump-replicates", str(dump)]))
    values = [float(line) for line in dump.read_text().split()]
    dropped = report["methods"][0]["dropped"]
    c.expect(len(values) + dropped == b,
             f"{where}: {scheme} b_eff {len(values)} + dropped {dropped} != B {b}")
    c.expect(all(math.isfinite(v) for v in values), f"{where}: {scheme} non-finite replicate")
    if expected_dropped is not None:
        c.expect(dropped == expected_dropped,
                 f"{where}: {scheme} dropped {dropped} in the dump run, "
                 f"{expected_dropped} in the operation")


class TongueAnalyze:
    """`survcmp analyze --method all --target both --b 9999 --json` on the bundled data."""

    name = "tongue-analyze"
    traced_ops = 4

    @staticmethod
    def prepare(root: Path, out: Path, seed: int) -> dict:
        data = root / "src" / "survcmp" / "data" / "tongue.csv"
        swapped = out / "tongue-swapped.csv"
        swap_labels(data, swapped)
        return {"data": str(data), "swapped": str(swapped), "seed": seed}

    def __init__(self, inputs: dict, out: Path):
        from survcmp import cli
        self.cli = cli
        self.inputs = inputs
        self.out = out
        self.argv = ["analyze", "--method", "all", "--target", "both", "--b", str(TONGUE_B),
                     "--json", "--seed", str(inputs["seed"])]

    def warm_up(self) -> None:
        pass

    def op(self, i: int) -> str:
        return run_cli(self.cli, self.argv)

    def check(self, outputs) -> list[str]:
        c = Checks()
        c.expect(len(set(outputs)) == 1, "tongue-analyze: operations gave different reports")
        report = json.loads(outputs[-1])
        groups = oracle.read_two_groups(self.inputs["data"], TONGUE_K)
        check_report(c, "tongue-analyze", report, groups, TONGUE_K, TONGUE_B)
        want, tol = TONGUE_P_HAT
        c.expect(abs(report["p_hat"] - want) <= tol,
                 f"tongue-analyze: p_hat {report['p_hat']} not {want} +- {tol}")
        methods = {m["name"]: m for m in report["methods"]}
        for name, ((lo, hi), tol) in TONGUE_CI.items():
            got = methods[name]["ci"]
            c.expect(abs(got[0] - lo) <= tol and abs(got[1] - hi) <= tol,
                     f"tongue-analyze: {name} {got} not [{lo}, {hi}] +- {tol}")
        swapped = json.loads(run_cli(self.cli, [
            "analyze", "--input", self.inputs["swapped"], "--k", str(TONGUE_K),
            "--method", "asymptotic", "--json"]))
        check_swap(c, "tongue-analyze", report["p_hat"], swapped["p_hat"], groups, TONGUE_K)
        base = ["analyze", "--b", str(TONGUE_B), "--seed", str(self.inputs["seed"]), "--json"]
        for scheme in ("bootstrap", "permutation"):
            check_replicate_counts(c, "tongue-analyze", self.cli, base, scheme, TONGUE_B,
                                   self.out / f"tongue-{scheme}.txt",
                                   methods[f"{scheme}:p"]["dropped"])
        return c.problems


class CoverageCell:
    """Ten outer replications of setup 3, strong censoring, 15/15, B = 999, per operation."""

    name = "coverage-cell"
    traced_ops = 20

    @staticmethod
    def prepare(root: Path, out: Path, seed: int) -> dict:
        return {"seed": seed}

    def __init__(self, inputs: dict, out: Path):
        from survcmp import cli, simulate
        self.cli = cli
        self.sim = simulate
        self.inputs = inputs
        self.out = out

    def warm_up(self) -> None:
        self.sim.calibrate_censoring(CELL["setup"], CELL["censoring"])
        self.sim.true_effect(CELL["setup"])

    def op(self, i: int):
        # a fixed list of distinct study seeds for each benchmark seed; a
        # replication whose estimate separates the groups completely has no
        # variance and is excluded, so one replication alone can leave no row
        cfg = self.sim.ScenarioConfig(reps=CELL_REPS, seed=(self.inputs["seed"] << 24) + i,
                                      **CELL)
        row = self.sim.coverage_study(cfg)
        return (i, row.reps, row.excluded, round(row.cov_permutation * row.reps / 100.0))

    def _check_data(self, i: int, rate: float):
        # setup-3 data from the benchmark's own stream: Weibull(1, 1.5) in both
        # groups, truncated at K (reaching K counts as the event, as in the
        # simulator), exponential censoring at the cell's calibrated rate
        gen = np.random.default_rng([self.inputs["seed"], 3, i])
        scale, shape = CELL_WEIBULL
        groups = []
        for n in (CELL["n1"], CELL["n2"]):
            latent = np.minimum(scale * gen.weibull(shape, n), CELL_K)
            cens = gen.exponential(1.0 / rate, n)
            groups.append((np.minimum(latent, cens), latent <= cens))
        return groups

    def check(self, outputs) -> list[str]:
        c = Checks()
        truth = self.sim.true_effect(CELL["setup"])
        c.expect(abs(truth - 0.5) <= 1e-6, f"coverage-cell: true_effect(3) = {truth!r}, not 1/2")
        by_index = {}
        for out in outputs:
            c.expect(by_index.setdefault(out[0], out) == out,
                     f"coverage-cell: study {out[0]} gave {out}, then {by_index[out[0]]}")
        ops = list(by_index.values())
        c.expect(all(used + excluded == CELL_REPS for _, used, excluded, _ in ops),
                 "coverage-cell: a study lost replications")
        used = sum(op[1] for op in ops)
        excluded = sum(op[2] for op in ops)
        c.expect(excluded <= 0.01 * (used + excluded),
                 f"coverage-cell: {excluded} of {used + excluded} replications excluded")
        # exact one-sided binomial test of coverage >= 1 - alpha: a run fails
        # when its count of covering intervals is that low with probability
        # below COVERAGE_LEVEL, given exact coverage
        covered = sum(op[3] for op in ops)
        tail = float(special.bdtr(covered, used, 1.0 - CELL["alpha"]))
        c.expect(tail >= COVERAGE_LEVEL,
                 f"coverage-cell: permutation coverage {covered / used:.4f} over {used} "
                 f"replications; P(so few | exact) = {tail:.2g} < {COVERAGE_LEVEL:g}")
        rate = self.sim.calibrate_censoring(CELL["setup"], CELL["censoring"]).rate1
        path, swapped = self.out / "cell-check.csv", self.out / "cell-check-swapped.csv"
        for i in range(CELL_CHECK_DATASETS):
            where = f"coverage-cell data {i}"
            groups = self._check_data(i, rate)
            write_csv(path, [(label, t, e) for label, (times, events) in zip((1, 2), groups)
                             for t, e in zip(times, events)])
            swap_labels(path, swapped)
            base = ["analyze", "--input", str(path), "--k", str(CELL_K), "--b", str(CELL["b"]),
                    "--seed", str(i), "--json"]
            (t1, e1), (t2, e2) = groups
            c1 = oracle.product_limit(t1, e1, CELL_K)
            c2 = oracle.product_limit(t2, e2, CELL_K)
            if not (e1.any() and e2.any()) or oracle.delta_variance(c1, c2) == 0:
                # a group without events, or no variance (complete separation):
                # the CLI must refuse with exit code 1
                code, _ = call_cli(self.cli, base + ["--method", "asymptotic"])
                c.expect(code == 1, f"{where}: degenerate data gave exit code {code}")
                continue
            report = json.loads(run_cli(self.cli, base + ["--method", "all"]))
            check_report(c, where, report, groups, CELL_K, CELL["b"])
            flipped = json.loads(run_cli(self.cli, [
                "analyze", "--input", str(swapped), "--k", str(CELL_K),
                "--method", "asymptotic", "--json"]))
            check_swap(c, where, report["p_hat"], flipped["p_hat"], groups, CELL_K)
            for scheme in ("bootstrap", "permutation"):
                check_replicate_counts(c, where, self.cli, base, scheme, CELL["b"],
                                       self.out / "cell-check-replicates.txt")
        return c.problems


class LargeNAsymptotic:
    """`survcmp analyze --method asymptotic --target both --json` on a 4000-row CSV."""

    name = "large-n-asymptotic"
    traced_ops = 6

    @staticmethod
    def prepare(root: Path, out: Path, seed: int) -> dict:
        gen = np.random.default_rng([seed, 7])
        groups = []
        for label, (mean, rate) in zip((1, 2), LARGE_LAWS):
            # times on a 0.001 grid: ties occur, most event times stay distinct
            t = np.maximum(np.ceil(gen.exponential(mean, LARGE_N) * 1000), 1) / 1000
            c = np.maximum(np.ceil(gen.exponential(1.0 / rate, LARGE_N) * 1000), 1) / 1000
            groups.append((label, [f"{x:.3f}" for x in np.minimum(t, c)], t <= c))
        # rows of both groups interleaved in a seeded order
        rows = [(label, t, e) for label, times, events in groups for t, e in zip(times, events)]
        order = gen.permutation(len(rows))
        path = out / f"large-n-seed{seed}.csv"
        swapped = out / f"large-n-seed{seed}-swapped.csv"
        write_csv(path, [rows[j] for j in order])
        swap_labels(path, swapped)
        return {"data": str(path), "swapped": str(swapped)}

    def __init__(self, inputs: dict, out: Path):
        from survcmp import cli
        self.cli = cli
        self.inputs = inputs
        self.argv = ["analyze", "--input", inputs["data"], "--k", str(LARGE_K),
                     "--method", "asymptotic", "--target", "both", "--json"]

    def warm_up(self) -> None:
        pass

    def op(self, i: int) -> str:
        return run_cli(self.cli, self.argv)

    def check(self, outputs) -> list[str]:
        c = Checks()
        c.expect(len(set(outputs)) == 1, "large-n-asymptotic: operations gave different reports")
        report = json.loads(outputs[-1])
        groups = oracle.read_two_groups(self.inputs["data"], LARGE_K)
        check_report(c, "large-n-asymptotic", report, groups, LARGE_K, 0)
        (t1, e1), (t2, e2) = groups
        c1, c2 = oracle.product_limit(t1, e1, LARGE_K), oracle.product_limit(t2, e2, LARGE_K)
        # the variance check must be able to see the boundary term
        full = oracle.delta_variance(c1, c2)
        without = oracle.delta_variance(c1, c2, boundary=False)
        c.expect(c1.at_k > 0 and abs(without / full - 1.0) > 3 * VARIANCE_RTOL,
                 f"large-n-asymptotic: input leaves the boundary term invisible "
                 f"(S1(K) {c1.at_k:.3f}, {without!r} vs {full!r})")
        swapped = json.loads(run_cli(self.cli, [
            "analyze", "--input", self.inputs["swapped"], "--k", str(LARGE_K),
            "--method", "asymptotic", "--json"]))
        check_swap(c, "large-n-asymptotic", report["p_hat"], swapped["p_hat"], groups, LARGE_K)
        return c.problems


WORKLOADS = {w.name: w for w in (TongueAnalyze, CoverageCell, LargeNAsymptotic)}
