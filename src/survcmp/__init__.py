"""Mann-Whitney effect and win ratio for right-censored two-sample data.

Estimates p = P(T1 > T2) + P(T1 = T2) / 2 and w = p / (1 - p) on a study
window [0, K] from two independent, possibly tied, right-censored
samples.  :func:`analyze` calibrates one studentized statistic three
ways (normal law, pooled bootstrap, studentized permutations) and returns
one result per method, each with p's and w's confidence intervals and
the test of p = 1/2.  A Monte-Carlo harness runs coverage studies, and a
small command-line front end wraps both.  The names below are the ones
the demos and the README use; everything else lives in the submodules.
"""

from .survival import Sample
from .inference import ReplicateSet, analyze, mann_whitney_effect
from .datasets import load_tongue
from .simulate import ScenarioConfig, coverage_study, true_effect

__version__ = "0.1.0"

__all__ = [
    "Sample",
    "mann_whitney_effect",
    "analyze",
    "ReplicateSet",
    "load_tongue",
    "ScenarioConfig",
    "coverage_study",
    "true_effect",
    "__version__",
]
