"""Mann-Whitney effect and win ratio for right-censored two-sample data.

Estimates p = P(T1 > T2) + P(T1 = T2) / 2 and w = p / (1 - p) on a study
window [0, K] from two independent, possibly tied, right-censored
samples, with asymptotic, pooled-bootstrap and studentized-permutation
confidence intervals and tests, plus a Monte-Carlo harness for coverage
studies and a small command-line front end.  The names below are the
ones the demos and the README use; everything else lives in the
submodules.
"""

from .survival import Sample, pool
from .inference import asymptotic_ci, mann_whitney_effect, resampling_ci, studentized_p
from .resampling import ReplicateSet, ResamplingPlan, replicate_quantile, replicate_set
from .datasets import load_tongue
from .simulate import ScenarioConfig, coverage_study, true_effect

__version__ = "0.1.0"

__all__ = [
    "Sample",
    "pool",
    "mann_whitney_effect",
    "studentized_p",
    "asymptotic_ci",
    "ResamplingPlan",
    "ReplicateSet",
    "replicate_set",
    "replicate_quantile",
    "resampling_ci",
    "load_tongue",
    "ScenarioConfig",
    "coverage_study",
    "true_effect",
    "__version__",
]
