"""Monte-Carlo harness: scenario laws, censoring calibration, coverage study.

Three built-in two-sample scenarios, each with a window end K chosen so the
true effect is 1/2 to within 3e-7:

1. exponential with mean 0.5 versus a 1/3-2/3 mixture of exponentials
   with means 1/1.27 and 1/2.5, window 1.6024;
2. Weibull with scale 1.65 and shape 0.9 versus standard lognormal,
   window 1.7646;
3. identical Weibull with scale 1 and shape 1.5 in both groups, window 2,
   where the true effect is exactly 1/2.

Each law is a sampler and a survival function.  The true effect that the
coverage study scores its intervals against comes from the two survival
functions alone, as one Stieltjes sum on a fixed grid; it is exact to
about 1e-10.

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
from typing import Callable, NamedTuple

import numpy as np

from . import rng as _rng
from .survival import truncate
from .inference import METHODS, DegenerateError, analyze

__all__ = [
    "SETUPS",
    "CENSORING_BANDS",
    "ScenarioConfig",
    "CensoringCalibration",
    "CoverageRow",
    "draw_survival",
    "survival_function",
    "true_effect",
    "calibrate_censoring",
    "truncation_proportions",
    "coverage_study",
    "coverage_text",
    "coverage_tsv",
    "proportions_text",
    "parse_config_file",
    "full_study_configs",
]


# math.erfc over arrays, for the lognormal survival function
_erfc = np.vectorize(math.erfc, otypes=[float])


class _Law(NamedTuple):
    """A survival-time law: a sampler and its survival function."""

    draw: Callable[[np.random.Generator, int], np.ndarray]  # (rng, m) -> m times
    survival: Callable[[np.ndarray], np.ndarray]  # S(t), untruncated


def _exp1(rng: np.random.Generator, m: int) -> np.ndarray:
    """m standard exponentials: the inverse distribution function of m uniforms."""
    return -np.log1p(-rng.random(m))


def _exponential(mean: float) -> _Law:
    return _Law(lambda rng, m: mean * _exp1(rng, m),
                lambda t: np.exp(-t / mean))


def _expmix(weight: float, mean_a: float, mean_b: float) -> _Law:
    """Exponential with mean ``mean_a`` with probability ``weight``, else ``mean_b``."""

    def draw(rng, m):
        # the picks' uniforms come first, then the times'
        means = np.where(rng.random(m) < weight, mean_a, mean_b)
        return means * _exp1(rng, m)

    return _Law(draw, lambda t: weight * np.exp(-t / mean_a)
                + (1 - weight) * np.exp(-t / mean_b))


def _weibull(scale: float, shape: float) -> _Law:
    return _Law(lambda rng, m: scale * _exp1(rng, m) ** (1.0 / shape),
                lambda t: np.exp(-(t / scale) ** shape))


def _lognormal() -> _Law:
    """The standard lognormal: S(t) = P(Z > log t) = erfc(log t / sqrt 2) / 2."""
    return _Law(lambda rng, m: np.exp(rng.standard_normal(m)),
                lambda t: 0.5 * _erfc(np.log(np.maximum(t, 1e-300)) / math.sqrt(2)))


# group laws and window end per scenario tag
SETUPS: dict[int, tuple[_Law, _Law, float]] = {
    1: (_exponential(0.5), _expmix(1.0 / 3.0, 1.0 / 1.27, 1.0 / 2.5), 1.6024),
    2: (_weibull(1.65, 0.9), _lognormal(), 1.7646),
    3: (_weibull(1.0, 1.5), _weibull(1.0, 1.5), 2.0),
}

CENSORING_BANDS = {"strong": (40.97, 43.6), "moderate": (21.19, 26.39)}
# censoring levels and the ids that tag their internal streams
_LEVEL_IDS = {"strong": 1, "moderate": 2, "none": 0}

# internal stream tags (data generation uses rng.DATA_TAG)
_CAL_TAG = 301
_PROP_TAG = 302
# draws per group behind the censoring calibration and the beyond-window table
_CAL_DRAWS = 100_000
_PROP_DRAWS = 10_000


def _scenario(setup: int) -> tuple[_Law, _Law, float]:
    """The one check of a setup tag: (group 1 law, group 2 law, window end)."""
    if setup not in SETUPS:
        raise ValueError("setup must be 1, 2 or 3")
    return SETUPS[setup]


def _law(setup: int, group: int) -> _Law:
    if group not in (1, 2):
        raise ValueError("group must be 1 or 2")
    return _scenario(setup)[group - 1]


def horizon(setup: int) -> float:
    return _scenario(setup)[2]


def draw_survival(setup: int, group: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` uncensored survival times from the scenario law."""
    return _law(setup, group).draw(rng, size)


def survival_function(setup: int, group: int):
    """The group's survival function S(t), vectorized, untruncated."""
    return _law(setup, group).survival


@lru_cache(maxsize=None)
def true_effect(setup: int) -> float:
    """True effect p = P(T1 > T2) + P(T1 = T2) / 2 of the window-truncated laws.

    p = -int_0^K S1 dS2 + S1(K) S2(K) / 2, the last term the tie of two
    times that both reach K.  The integral is the Stieltjes sum
    -sum_i (S1(t_i) + S1(t_i+1)) / 2 (S2(t_i+1) - S2(t_i)) over 2^16 equal
    steps t_i of [0, K]: the estimator's own mid-point form applied to the
    laws' curves read on that grid.  It is exact to about 1e-10, and for
    identical laws it telescopes to (1 - S(K)^2) / 2, so p is 1/2 up to
    rounding.
    """
    law1, law2, k = _scenario(setup)
    t = np.linspace(0.0, k, 2**16 + 1)
    s1, s2 = law1.survival(t), law2.survival(t)
    return float(0.5 * np.sum((s1[:-1] + s1[1:]) * (s2[:-1] - s2[1:]))
                 + 0.5 * s1[-1] * s2[-1])


@dataclass(frozen=True)
class CensoringCalibration:
    """Exponential censoring rates and the censoring fractions they hit."""

    rate1: float
    rate2: float
    achieved1: float
    achieved2: float


@lru_cache(maxsize=None)
def calibrate_censoring(setup: int, level: str) -> CensoringCalibration:
    """Bisect exponential censoring rates onto the band midpoint.

    Uses a fixed internal stream of :data:`_CAL_DRAWS` draws per group, so
    the rates are reproducible constants of (setup, level).  The same
    uniforms are reused across bisection steps, making the censored
    fraction monotone in the rate; their exponential transform and the
    truncated survival times are computed once per group, and each step
    only rescales and compares.  Scenario 3 shares one rate across its
    identical groups.
    """
    k = horizon(setup)
    if level == "none":
        return CensoringCalibration(0.0, 0.0, 0.0, 0.0)
    if level not in CENSORING_BANDS:
        raise ValueError("censoring level must be 'strong', 'moderate' or 'none'")
    lo_band, hi_band = CENSORING_BANDS[level]
    target = 0.5 * (lo_band + hi_band) / 100.0

    def solve(group):
        gen = _rng.stream(0, _CAL_TAG, setup, _LEVEL_IDS[level], group)
        reached = np.minimum(draw_survival(setup, group, gen, _CAL_DRAWS), k)
        exp1 = _exp1(gen, _CAL_DRAWS)

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


def truncation_proportions(setup: int, level: str,
                           pre_censoring: bool = False) -> tuple[float, float]:
    """Percentage of :data:`_PROP_DRAWS` simulated observations per group
    beyond the window.

    Default counts recorded times min(T, C) > K under the calibrated
    censoring; ``pre_censoring`` counts the latent survival times T > K
    instead (identical when the level is 'none').
    """
    cal = calibrate_censoring(setup, level)
    rates = (cal.rate1, cal.rate2)
    k = horizon(setup)
    out = []
    for group in (1, 2):
        gen = _rng.stream(0, _PROP_TAG, setup, _LEVEL_IDS[level], group)
        times = draw_survival(setup, group, gen, _PROP_DRAWS)
        if not pre_censoring and rates[group - 1] > 0:
            c = _exp1(gen, _PROP_DRAWS) / rates[group - 1]
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

    def __post_init__(self):
        _scenario(_rng.check_int("setup", self.setup))  # raises on an unknown setup
        if self.censoring not in _LEVEL_IDS:
            raise ValueError("censoring level must be 'strong', 'moderate' or 'none'")
        if _rng.check_int("n1", self.n1) < 1 or _rng.check_int("n2", self.n2) < 1:
            raise ValueError("group sizes must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if _rng.check_int("reps", self.reps) < 1 or _rng.check_int("b", self.b) < 1:
            raise ValueError("reps and b must be positive")
        _rng.check_seed(self.seed)
        if _rng.check_int("workers", self.workers) < 1:
            raise ValueError("workers must be positive")


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
    # a recorded time past the window is an event at its end (``truncate``)
    gen = _rng.stream(config.seed, _rng.DATA_TAG, rep)
    samples = []
    for group, size, rate in ((1, config.n1, cal.rate1), (2, config.n2, cal.rate2)):
        latent = draw_survival(config.setup, group, gen, size)
        if rate > 0:
            c = _exp1(gen, size) / rate
            observed = np.minimum(latent, c)
            events = latent <= c
        else:
            observed = latent
            events = np.ones(size, dtype=bool)
        samples.append(truncate((observed, events), horizon(config.setup)))
    return samples[0], samples[1], _rng.derive_seed(gen)


def coverage_study(config: ScenarioConfig) -> CoverageRow:
    """Replicate the scenario and report interval coverage of the truth.

    Each replication draws both groups, applies the window, and builds
    the three two-sided intervals at the configured level; replications
    where any method degenerates (``DegenerateError``: no usable variance
    or no valid replicates) are excluded from every denominator and
    counted, so a cell where all are excluded has ``reps`` 0 and NaN
    coverages.  Any other error propagates.  Up to
    ``config.workers`` processes tally contiguous ranges of replications.
    """
    cal = calibrate_censoring(config.setup, config.censoring)
    truth = true_effect(config.setup)
    tallies = _rng.fan_out(_coverage_range, range(config.reps), config.workers,
                           config, cal, truth)
    hits, used, excluded = (sum(column) for column in zip(*tallies))
    pct = 100.0 * hits / used if used else np.full(3, np.nan)
    return CoverageRow(
        setup=config.setup, censoring=config.censoring, n1=config.n1, n2=config.n2,
        cov_asymptotic=float(pct[0]), cov_bootstrap=float(pct[1]),
        cov_permutation=float(pct[2]), reps=used, excluded=excluded,
        b=config.b, alpha=config.alpha, seed=config.seed, calibration=cal,
    )


def _coverage_range(config: ScenarioConfig, cal: CensoringCalibration, truth: float, reps):
    """(Hits per method, used, excluded) over the replications in ``reps``."""
    hits = np.zeros(3, dtype=int)
    used = 0
    excluded = 0
    for rep in reps:
        s1, s2, inner_seed = _generate(config, cal, rep)
        try:
            results = analyze(s1, s2, METHODS, config.alpha, "two-sided", config.b,
                              inner_seed, 1)
        except DegenerateError:
            excluded += 1
            continue
        used += 1
        for slot, res in enumerate(results):
            lo, hi = res.ci
            if lo <= truth <= hi:
                hits[slot] += 1
    return hits, used, excluded


_COVER_COLS = ("setup", "censoring", "n1", "n2", "asymptotic", "bootstrap",
               "permutation", "reps", "excluded")


def _row_cells(row: CoverageRow) -> list[str]:
    # a cell with no usable replication has no coverage: "-"
    return [str(row.setup), row.censoring, str(row.n1), str(row.n2),
            *("-" if math.isnan(cov) else f"{cov:.2f}"
              for cov in (row.cov_asymptotic, row.cov_bootstrap, row.cov_permutation)),
            str(row.reps), str(row.excluded)]


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
               "seed": int, "workers": int, "alpha": float}
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


def full_study_configs(base_seed: int = 0) -> list[ScenarioConfig]:
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
            for level in _LEVEL_IDS:
                configs.append(ScenarioConfig(
                    setup=setup, censoring=level, n1=n1, n2=n2,
                    reps=10_000, b=1999, seed=base_seed + cell))
                cell += 1
    return configs
