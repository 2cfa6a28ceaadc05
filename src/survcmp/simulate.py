"""Monte-Carlo harness: scenario laws, censoring calibration, coverage study.

Three built-in two-sample scenarios, each with a window end chosen so the
true effect is 1/2 up to rounding:

1. exponential with mean 0.5 versus a 1/3-2/3 mixture of exponentials
   with means 1/1.27 and 1/2.5, window 1.6024;
2. Weibull with scale 1.65 and shape 0.9 versus standard lognormal,
   window 1.7646;
3. identical Weibull with scale 1 and shape 1.5 in both groups, window 2.

Censoring is exponential with rates calibrated by bisection so the
simulated censoring fraction hits the midpoint of the configured band.
The coverage study replicates data generation, computes the asymptotic,
bootstrap and permutation two-sided intervals and reports how often each
contains the true effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import rng as _rng
from .survival import Sample
from .inference import _asymptotic, _observed
from .resampling import ResamplingPlan, _resampling_results, pool, replicate_set

__all__ = [
    "SETUPS",
    "CENSORING_BANDS",
    "ScenarioConfig",
    "CensoringCalibration",
    "CoverageRow",
    "draw_survival",
    "survival_function",
    "density",
    "true_effect",
    "adaptive_trapezoid",
    "calibrate_censoring",
    "truncation_proportions",
    "coverage_study",
    "coverage_text",
    "coverage_tsv",
    "proportions_text",
    "parse_config_file",
    "full_study_configs",
]


@dataclass(frozen=True)
class _Law:
    kind: str
    params: tuple[float, ...]


# group laws and window end per scenario tag
SETUPS: dict[int, tuple[_Law, _Law, float]] = {
    1: (_Law("exponential", (0.5,)),
        _Law("expmix", (1.0 / 3.0, 1.0 / 1.27, 1.0 / 2.5)),
        1.6024),
    2: (_Law("weibull", (1.65, 0.9)),
        _Law("lognormal", ()),
        1.7646),
    3: (_Law("weibull", (1.0, 1.5)),
        _Law("weibull", (1.0, 1.5)),
        2.0),
}

CENSORING_BANDS = {"strong": (40.97, 43.6), "moderate": (21.19, 26.39)}
_LEVELS = ("strong", "moderate", "none")

# internal stream tags (data generation uses rng.DATA_TAG)
_CAL_TAG = 301
_PROP_TAG = 302
_GRID_TAG = 303


def _law(setup: int, group: int) -> _Law:
    if setup not in SETUPS:
        raise ValueError("setup must be 1, 2 or 3")
    if group not in (1, 2):
        raise ValueError("group must be 1 or 2")
    return SETUPS[setup][group - 1]


def horizon(setup: int) -> float:
    return SETUPS[setup][2]


def _exp_inverse(u, mean):
    return -mean * np.log1p(-u)


def draw_survival(setup: int, group: int, rng: np.random.Generator, size=None):
    """Sample uncensored survival times from the scenario law.

    Returns a scalar for size=None, else an array of the given size.
    Exponentials and Weibulls go through the inverse distribution
    function; the lognormal exponentiates a standard normal draw.
    """
    law = _law(setup, group)
    m = 1 if size is None else size
    if law.kind == "exponential":
        out = _exp_inverse(rng.random(m), law.params[0])
    elif law.kind == "expmix":
        weight, mean_a, mean_b = law.params
        pick_a = rng.random(m) < weight
        means = np.where(pick_a, mean_a, mean_b)
        out = _exp_inverse(rng.random(m), means)
    elif law.kind == "weibull":
        scale, shape = law.params
        out = scale * (-np.log1p(-rng.random(m))) ** (1.0 / shape)
    else:
        out = np.exp(rng.standard_normal(m))
    return float(out[0]) if size is None else out


def survival_function(setup: int, group: int):
    """The group's survival function S(t), vectorized, untruncated."""
    law = _law(setup, group)
    if law.kind == "exponential":
        mean = law.params[0]
        return lambda t: np.exp(-np.asarray(t, float) / mean)
    if law.kind == "expmix":
        weight, mean_a, mean_b = law.params
        return lambda t: (weight * np.exp(-np.asarray(t, float) / mean_a)
                          + (1 - weight) * np.exp(-np.asarray(t, float) / mean_b))
    if law.kind == "weibull":
        scale, shape = law.params
        return lambda t: np.exp(-(np.asarray(t, float) / scale) ** shape)
    from scipy.special import ndtr
    return lambda t: ndtr(-np.log(np.maximum(np.asarray(t, float), 1e-300)))


def density(setup: int, group: int):
    """The group's density f(t) for t > 0, vectorized."""
    law = _law(setup, group)
    if law.kind == "exponential":
        mean = law.params[0]
        return lambda t: np.exp(-np.asarray(t, float) / mean) / mean
    if law.kind == "expmix":
        weight, mean_a, mean_b = law.params

        def f(t):
            t = np.asarray(t, float)
            return (weight / mean_a * np.exp(-t / mean_a)
                    + (1 - weight) / mean_b * np.exp(-t / mean_b))
        return f
    if law.kind == "weibull":
        scale, shape = law.params

        def f(t):
            t = np.asarray(t, float)
            base = np.maximum(t, 1e-300) / scale
            return shape / scale * base ** (shape - 1.0) * np.exp(-base ** shape)
        return f

    def f(t):
        t = np.maximum(np.asarray(t, float), 1e-300)
        log_t = np.log(t)
        return np.exp(-0.5 * log_t**2) / (t * math.sqrt(2.0 * math.pi))
    return f


def adaptive_trapezoid(f, a: float, b: float, tol: float = 1e-6) -> float:
    """Integrate f on [a, b] by recursive interval halving.

    Subdivides until the two-panel estimate agrees with the one-panel
    estimate to 3 tol on each piece (tol split across halves), then keeps
    the refined value.
    """

    def recurse(lo, hi, f_lo, f_hi, whole, tol_here, depth):
        mid = 0.5 * (lo + hi)
        f_mid = float(f(mid))
        left = 0.5 * (mid - lo) * (f_lo + f_mid)
        right = 0.5 * (hi - mid) * (f_mid + f_hi)
        if depth >= 48 or abs(left + right - whole) <= 3.0 * tol_here:
            return left + right
        return (recurse(lo, mid, f_lo, f_mid, left, 0.5 * tol_here, depth + 1)
                + recurse(mid, hi, f_mid, f_hi, right, 0.5 * tol_here, depth + 1))

    f_a, f_b = float(f(a)), float(f(b))
    whole = 0.5 * (b - a) * (f_a + f_b)
    return recurse(a, b, f_a, f_b, whole, tol, 0)


@lru_cache(maxsize=None)
def true_effect(setup: int) -> float:
    """True effect under the window-truncated scenario laws.

    integral_0^K S1 f2 dt plus the tied-at-K term S1(K) S2(K) / 2,
    evaluated by adaptive numerical integration (tolerance 1e-6).
    """
    s1 = survival_function(setup, 1)
    s2 = survival_function(setup, 2)
    f2 = density(setup, 2)
    k = horizon(setup)
    integral = adaptive_trapezoid(lambda t: float(s1(t) * f2(t)), 0.0, k, tol=1e-6)
    return integral + 0.5 * float(s1(k)) * float(s2(k))


@dataclass(frozen=True)
class CensoringCalibration:
    """Exponential censoring rates and the censoring fractions they hit."""

    rate1: float
    rate2: float
    achieved1: float
    achieved2: float


@lru_cache(maxsize=None)
def calibrate_censoring(setup: int, level: str, draws: int = 100_000) -> CensoringCalibration:
    """Bisect exponential censoring rates onto the band midpoint.

    Uses a fixed internal stream, so the rates are reproducible constants
    of (setup, level).  The same uniforms are reused across bisection
    steps, making the censored fraction monotone in the rate; their
    exponential transform and the truncated survival times are computed
    once per group, and each step only rescales and compares.  Scenario 3
    shares one rate across its identical groups.
    """
    if level == "none":
        return CensoringCalibration(0.0, 0.0, 0.0, 0.0)
    if level not in CENSORING_BANDS:
        raise ValueError("censoring level must be 'strong', 'moderate' or 'none'")
    lo_band, hi_band = CENSORING_BANDS[level]
    target = 0.5 * (lo_band + hi_band) / 100.0
    k = horizon(setup)
    level_id = 1 if level == "strong" else 2

    def solve(group):
        gen = _rng.stream(0, _CAL_TAG, setup, level_id, group)
        reached = np.minimum(draw_survival(setup, group, gen, draws), k)
        exp1 = -np.log1p(-gen.random(draws))  # standard exponentials

        def fraction(rate):
            # censored <=> C < min(T, K), with C = Exp(rate) = exp1 / rate
            return float(np.mean(exp1 / rate < reached))

        lo, hi = 1e-6, 1e3
        assert fraction(lo) < target < fraction(hi)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if fraction(mid) < target:
                lo = mid
            else:
                hi = mid
        rate = 0.5 * (lo + hi)
        return rate, 100.0 * fraction(rate)

    rate1, achieved1 = solve(1)
    if setup == 3:
        rate2, achieved2 = rate1, achieved1
    else:
        rate2, achieved2 = solve(2)
    return CensoringCalibration(rate1, rate2, achieved1, achieved2)


def truncation_proportions(setup: int, level: str, reps: int = 10_000,
                           pre_censoring: bool = False) -> tuple[float, float]:
    """Percentage of simulated observations beyond the window, per group.

    Default counts recorded times min(T, C) > K under the calibrated
    censoring; ``pre_censoring`` counts the latent survival times T > K
    instead (identical when the level is 'none').
    """
    cal = calibrate_censoring(setup, level)
    rates = (cal.rate1, cal.rate2)
    k = horizon(setup)
    out = []
    for group in (1, 2):
        gen = _rng.stream(0, _PROP_TAG, setup, 1 if level == "strong" else
                          2 if level == "moderate" else 0, group)
        times = draw_survival(setup, group, gen, reps)
        if not pre_censoring and rates[group - 1] > 0:
            c = -np.log1p(-gen.random(reps)) / rates[group - 1]
            times = np.minimum(times, c)
        out.append(100.0 * float(np.mean(times > k)))
    return out[0], out[1]


@dataclass(frozen=True)
class ScenarioConfig:
    """One coverage-study cell: scenario, sizes, level, budgets, seed."""

    setup: int
    censoring: str
    n1: int
    n2: int
    alpha: float = 0.05
    reps: int = 1000
    b: int = 1999
    seed: int = 0
    workers: int = 1
    k: float | None = None

    def __post_init__(self):
        if self.setup not in SETUPS:
            raise ValueError("setup must be 1, 2 or 3")
        if self.censoring not in _LEVELS:
            raise ValueError("censoring level must be 'strong', 'moderate' or 'none'")
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("group sizes must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.reps < 1 or self.b < 1:
            raise ValueError("reps and b must be positive")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.k is None:
            object.__setattr__(self, "k", horizon(self.setup))
        elif not 0.0 < self.k < float("inf"):
            raise ValueError("invalid horizon")


@dataclass(frozen=True)
class CoverageRow:
    """Coverage percentages for one scenario cell."""

    setup: int
    censoring: str
    n1: int
    n2: int
    cov_asymptotic: float
    cov_bootstrap: float
    cov_permutation: float
    reps: int
    excluded: int
    b: int
    alpha: float
    seed: int
    calibration: CensoringCalibration


def _generate(config: ScenarioConfig, cal: CensoringCalibration, rep: int):
    gen = _rng.stream(config.seed, _rng.DATA_TAG, rep)
    samples = []
    for group, size, rate in ((1, config.n1, cal.rate1), (2, config.n2, cal.rate2)):
        latent = draw_survival(config.setup, group, gen, size)
        truncated = np.minimum(latent, config.k)
        if rate > 0:
            c = -np.log1p(-gen.random(size)) / rate
            observed = np.minimum(truncated, c)
            events = truncated <= c
        else:
            observed = truncated
            events = np.ones(size, dtype=bool)
        samples.append(Sample(observed, events, config.k))
    return samples[0], samples[1], _rng.derive_seed(gen)


def coverage_study(config: ScenarioConfig) -> CoverageRow:
    """Replicate the scenario and report interval coverage of the truth.

    Each replication draws both groups, applies the window, and builds
    the three two-sided intervals at the configured level; replications
    where any method degenerates (no usable variance or no valid
    replicates) are excluded from every denominator and counted.
    """
    cal = calibrate_censoring(config.setup, config.censoring)
    truth = true_effect(config.setup)
    hits = np.zeros(3, dtype=int)
    used = 0
    excluded = 0
    for rep in range(config.reps):
        s1, s2, inner_seed = _generate(config, cal, rep)
        try:
            # one effect and variance serve all three intervals
            eff, var = _observed(s1, s2)
            results = [_asymptotic(eff, var, config.alpha, "p", "two-sided")]
            z = pool(s1, s2)
            for scheme in ("bootstrap", "permutation"):
                plan = ResamplingPlan(scheme, config.b, inner_seed, config.workers)
                results += _resampling_results(eff, var, replicate_set(z, plan), plan,
                                               config.alpha, "two-sided", ("p",))
        except ValueError:
            excluded += 1
            continue
        used += 1
        for slot, res in enumerate(results):
            lo, hi = res.ci
            if lo <= truth <= hi:
                hits[slot] += 1
    if used == 0:
        raise ValueError("every replication degenerated")
    pct = 100.0 * hits / used
    return CoverageRow(
        setup=config.setup, censoring=config.censoring, n1=config.n1, n2=config.n2,
        cov_asymptotic=float(pct[0]), cov_bootstrap=float(pct[1]),
        cov_permutation=float(pct[2]), reps=used, excluded=excluded,
        b=config.b, alpha=config.alpha, seed=config.seed, calibration=cal,
    )


_COVER_COLS = ("setup", "censoring", "n1", "n2", "asymptotic", "bootstrap",
               "permutation", "reps", "excluded")


def _row_cells(row: CoverageRow) -> list[str]:
    return [str(row.setup), row.censoring, str(row.n1), str(row.n2),
            f"{row.cov_asymptotic:.2f}", f"{row.cov_bootstrap:.2f}",
            f"{row.cov_permutation:.2f}", str(row.reps), str(row.excluded)]


def coverage_text(rows) -> str:
    """Aligned coverage table plus one calibration note per distinct cell."""
    table = [list(_COVER_COLS)] + [_row_cells(r) for r in rows]
    widths = [max(len(line[i]) for line in table) for i in range(len(_COVER_COLS))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(line, widths)) for line in table]
    notes = []
    seen = set()
    for r in rows:
        key = (r.setup, r.censoring)
        if key in seen or r.censoring == "none":
            continue
        seen.add(key)
        c = r.calibration
        notes.append(f"censoring setup {r.setup} {r.censoring}: "
                     f"rates {c.rate1:.6g}/{c.rate2:.6g} "
                     f"achieved {c.achieved1:.2f}%/{c.achieved2:.2f}%")
    return "\n".join(lines + notes) + "\n"


def coverage_tsv(rows) -> str:
    lines = ["\t".join(_COVER_COLS)]
    lines += ["\t".join(_row_cells(r)) for r in rows]
    return "\n".join(lines) + "\n"


def proportions_text(cells, pre_censoring: bool = False) -> str:
    """Aligned beyond-window percentage table for (setup, level) cells."""
    kind = "latent" if pre_censoring else "recorded"
    lines = [f"percent of {kind} observations beyond the window"]
    lines.append(f"{'setup':>5}  {'censoring':>9}  {'group 1':>8}  {'group 2':>8}")
    for setup, level in cells:
        p1, p2 = truncation_proportions(setup, level, pre_censoring=pre_censoring)
        lines.append(f"{setup:>5}  {level:>9}  {p1:>8.2f}  {p2:>8.2f}")
    return "\n".join(lines) + "\n"


def parse_config_file(path) -> dict:
    """key=value scenario file -> keyword dict for ScenarioConfig."""
    numeric = {"setup": int, "n1": int, "n2": int, "reps": int, "b": int,
               "seed": int, "workers": int, "alpha": float, "k": float}
    out: dict = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"line {line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key == "censoring":
                out[key] = value
            elif key in numeric:
                try:
                    out[key] = numeric[key](value)
                except ValueError:
                    raise ValueError(f"line {line_no}: bad value for {key}: {value!r}") from None
            else:
                raise ValueError(f"line {line_no}: unknown key {key!r}")
    return out


def full_study_configs(base_seed: int = 0, workers: int = 1) -> list[ScenarioConfig]:
    """The complete published grid: 10^4 replications, B = 1999 per cell.

    Equal sizes 10..30 and unequal sizes (m, 2m), all three scenarios and
    censoring levels.  Hours of compute; intended for explicit runs only.
    """
    sizes = [(m, m) for m in (10, 15, 20, 25, 30)]
    sizes += [(m, 2 * m) for m in (10, 15, 20, 25, 30)]
    configs = []
    cell = 0
    for setup in (1, 2, 3):
        for n1, n2 in sizes:
            for level in _LEVELS:
                configs.append(ScenarioConfig(
                    setup=setup, censoring=level, n1=n1, n2=n2,
                    reps=10_000, b=1999, seed=base_seed + cell, workers=workers))
                cell += 1
    return configs
