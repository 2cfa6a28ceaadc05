"""Mann-Whitney effect and win ratio for right-censored two-sample data.

Estimates p = P(T1 > T2) + P(T1 = T2) / 2 and w = p / (1 - p) on a study
window [0, K] from two independent, possibly tied, right-censored
samples, with asymptotic, pooled-bootstrap and studentized-permutation
confidence intervals and tests, plus a Monte-Carlo harness for coverage
studies and a small command-line front end.
"""

from .stepfun import StepFunction
from .survival import (
    CountingProcesses,
    KaplanMeierFit,
    Sample,
    counting_processes,
    kaplan_meier,
    nelson_aalen,
    truncate,
)
from .effect import (
    EffectEstimate,
    integration_by_parts_value,
    mann_whitney_effect,
    wilcoxon_integral,
)
from .variance import VarianceEstimate, variance_estimate
from .inference import (
    InferenceResult,
    asymptotic_ci,
    asymptotic_test,
    normal_quantile,
    studentized_p,
    studentized_w,
)
from .rng import blocks, derive_seed, stream
from .resampling import (
    PooledSample,
    ReplicateSet,
    ResamplingPlan,
    bootstrap_replicate,
    permutation_replicate,
    pool,
    replicate_quantile,
    replicate_set,
    resampling_ci,
    resampling_test,
    split,
)
from .datasets import ingest_csv, load_tongue, tongue_path
from .simulate import (
    CensoringCalibration,
    CoverageRow,
    ScenarioConfig,
    calibrate_censoring,
    coverage_study,
    draw_survival,
    true_effect,
    truncation_proportions,
)

__version__ = "0.1.0"

__all__ = [
    "StepFunction",
    "Sample",
    "CountingProcesses",
    "KaplanMeierFit",
    "truncate",
    "counting_processes",
    "kaplan_meier",
    "nelson_aalen",
    "EffectEstimate",
    "mann_whitney_effect",
    "wilcoxon_integral",
    "integration_by_parts_value",
    "VarianceEstimate",
    "variance_estimate",
    "InferenceResult",
    "studentized_p",
    "studentized_w",
    "normal_quantile",
    "asymptotic_ci",
    "asymptotic_test",
    "stream",
    "blocks",
    "derive_seed",
    "PooledSample",
    "ResamplingPlan",
    "ReplicateSet",
    "pool",
    "split",
    "bootstrap_replicate",
    "permutation_replicate",
    "replicate_set",
    "replicate_quantile",
    "resampling_ci",
    "resampling_test",
    "ingest_csv",
    "load_tongue",
    "tongue_path",
    "ScenarioConfig",
    "CensoringCalibration",
    "CoverageRow",
    "draw_survival",
    "true_effect",
    "calibrate_censoring",
    "truncation_proportions",
    "coverage_study",
    "__version__",
]
