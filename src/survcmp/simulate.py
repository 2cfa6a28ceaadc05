"""Monte-Carlo harness: scenario laws, censoring calibration, coverage study.

Three built-in two-sample scenarios, each with a window end K chosen so the
true effect is 1/2 to within 3e-7:

1. exponential with mean 0.5 versus a 1/3-2/3 mixture of exponentials
   with means 1/1.27 and 1/2.5, window 1.6024;
2. Weibull with scale 1.65 and shape 0.9 versus standard lognormal,
   window 1.7646;
3. identical Weibull with scale 1 and shape 1.5 in both groups, window 2,
   where the true effect is exactly 1/2.

Each law is a sampler and a survival function; setup 3 holds one law
object in both groups.  The true effect that the coverage study scores
its intervals against comes from the two survival functions alone, as one
Stieltjes sum on a fixed grid; it is exact to about 1e-10.

Censoring is exponential, drawn after the law's times (:func:`_observe`),
with rates calibrated by bisection so the simulated censoring fraction
hits the midpoint of the configured band.  A :class:`ScenarioConfig`
describes one cell.  The coverage study replicates its data, computes the
asymptotic, bootstrap and permutation two-sided intervals and reports how
often each contains the true effect in a :class:`CoverageRow`, which
carries the config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple, get_type_hints

import numpy as np

from . import rng as _rng
from .survival import truncate
from .inference import METHODS, DegenerateError, _check_alpha, analyze

__all__ = [
    "SETUPS",
    "CENSORING_BANDS",
    "CENSORING_LEVELS",
    "ScenarioConfig",
    "CensoringCalibration",
    "CoverageRow",
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
    3: (*[_weibull(1.0, 1.5)] * 2, 2.0),  # one law object in both groups
}

CENSORING_BANDS = {"strong": (40.97, 43.6), "moderate": (21.19, 26.39)}
# censoring levels, in table order, and the ids that tag their internal streams
CENSORING_LEVELS = {"strong": 1, "moderate": 2, "none": 0}

# internal stream tags (data generation uses rng.DATA_TAG)
_CAL_TAG = 301
_PROP_TAG = 302
# draws per group behind the censoring calibration and the beyond-window table
_CAL_DRAWS = 100_000
_PROP_DRAWS = 10_000


def _scenario(setup: int) -> tuple[_Law, _Law, float]:
    """The one check of a setup tag: (group 1 law, group 2 law, window end)."""
    if _rng.check_int("setup", setup) not in SETUPS:
        raise ValueError("setup must be 1, 2 or 3")
    return SETUPS[setup]


def _level_id(level: str) -> int:
    """The one check of a censoring level: the id that tags its internal streams."""
    # a string first, so that an unhashable level never reaches the dict
    if not isinstance(level, str) or level not in CENSORING_LEVELS:
        raise ValueError("censoring level must be 'strong', 'moderate' or 'none'")
    return CENSORING_LEVELS[level]


def _observe(law: _Law, gen: np.random.Generator, size: int,
             rate: float) -> tuple[np.ndarray, np.ndarray]:
    """``size`` (recorded times, event flags): the law's times, then exponential
    censoring at ``rate``; rate 0 censors nothing and draws nothing more."""
    latent = law.draw(gen, size)
    if rate == 0:
        return latent, np.ones(size, dtype=bool)
    c = _exp1(gen, size) / rate
    return np.minimum(latent, c), latent <= c


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
    return _true_effect(*_scenario(setup))


# cached behind the public call's checks, so no unchecked tag is hashed or cached
@lru_cache(maxsize=None)
def _true_effect(law1: _Law, law2: _Law, k: float) -> float:
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


def calibrate_censoring(setup: int, level: str) -> CensoringCalibration:
    """Bisect exponential censoring rates onto the band midpoint.

    Uses a fixed internal stream of :data:`_CAL_DRAWS` draws per group, so
    the rates are reproducible constants of (setup, level).  The same
    uniforms are reused across bisection steps, making the censored
    fraction monotone in the rate; their exponential transform and the
    truncated survival times are computed once per group, and each step
    only rescales and compares.  Identical laws (one law object in both
    groups, as in setup 3) share group 1's rate.
    """
    return _calibrate(*_scenario(setup), setup, level, _level_id(level))


# cached behind the public call's checks, as _true_effect is
@lru_cache(maxsize=None)
def _calibrate(law1: _Law, law2: _Law, k: float, setup: int, level: str,
               level_id: int) -> CensoringCalibration:
    if level == "none":
        return CensoringCalibration(0.0, 0.0, 0.0, 0.0)
    lo_band, hi_band = CENSORING_BANDS[level]
    target = 0.5 * (lo_band + hi_band) / 100.0

    def solve(group, law):
        gen = _rng.stream(0, _CAL_TAG, setup, level_id, group)
        reached = np.minimum(law.draw(gen, _CAL_DRAWS), k)
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

    rate1, achieved1 = solve(1, law1)
    rate2, achieved2 = (rate1, achieved1) if law2 is law1 else solve(2, law2)
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
    law1, law2, k = _scenario(setup)
    out = []
    for group, law, rate in ((1, law1, cal.rate1), (2, law2, cal.rate2)):
        gen = _rng.stream(0, _PROP_TAG, setup, CENSORING_LEVELS[level], group)
        times, _ = _observe(law, gen, _PROP_DRAWS, 0.0 if pre_censoring else rate)
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
    workers: int = field(default=1, compare=False)  # changes no result, so equality ignores it

    def __post_init__(self):
        _scenario(self.setup)
        _level_id(self.censoring)
        if _rng.check_int("n1", self.n1) < 1 or _rng.check_int("n2", self.n2) < 1:
            raise ValueError("group sizes must be positive")
        _check_alpha(self.alpha)
        if _rng.check_int("reps", self.reps) < 1 or _rng.check_int("b", self.b) < 1:
            raise ValueError("reps and b must be positive")
        _rng.check_seed(self.seed)
        if _rng.check_int("workers", self.workers) < 1:
            raise ValueError("workers must be positive")


@dataclass(frozen=True)
class CoverageRow:
    """Coverage percentages of one cell, with the config that produced them:
    ``reps`` replications entered them and ``excluded`` degenerate ones did
    not, ``config.reps`` in all."""

    config: ScenarioConfig
    cov_asymptotic: float
    cov_bootstrap: float
    cov_permutation: float
    reps: int
    excluded: int
    calibration: CensoringCalibration


def _generate(config: ScenarioConfig, cal: CensoringCalibration, rep: int):
    # a recorded time past the window is an event at its end (``truncate``)
    gen = _rng.stream(config.seed, _rng.DATA_TAG, rep)
    law1, law2, k = _scenario(config.setup)
    s1 = truncate(_observe(law1, gen, config.n1, cal.rate1), k)
    s2 = truncate(_observe(law2, gen, config.n2, cal.rate2), k)
    return s1, s2, _rng.derive_seed(gen)


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
    return CoverageRow(config, *map(float, pct), used, excluded, cal)


def _coverage_range(config: ScenarioConfig, cal: CensoringCalibration, truth: float, reps):
    """(Hits per method, used, excluded) over the replications in ``reps``."""
    hits = np.zeros(3, dtype=int)
    used = excluded = 0
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
    cfg = row.config
    return [str(cfg.setup), cfg.censoring, str(cfg.n1), str(cfg.n2),
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
        key = (r.config.setup, r.config.censoring)
        if key in seen or r.config.censoring == "none":
            continue
        seen.add(key)
        c = r.calibration
        notes.append(f"censoring setup {key[0]} {key[1]}: "
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
    """key=value scenario file -> keyword dict for ScenarioConfig, whose
    fields give the keys and their types."""
    kinds = get_type_hints(ScenarioConfig)
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
            if key not in kinds:
                raise ValueError(f"line {line_no}: unknown key {key!r}")
            if key in out:
                raise ValueError(f"line {line_no}: repeated key {key!r}")
            try:
                out[key] = kinds[key](value)
            except ValueError:
                raise ValueError(f"line {line_no}: bad value for {key}: {value!r}") from None
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
    for setup in SETUPS:
        for n1, n2 in sizes:
            for level in CENSORING_LEVELS:
                configs.append(ScenarioConfig(
                    setup=setup, censoring=level, n1=n1, n2=n2,
                    reps=10_000, seed=base_seed + cell))
                cell += 1
    return configs
