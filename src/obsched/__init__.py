"""Observation scheduling for scalar Gaussian time series.

Whittle-index computation for costly-observation restless bandits,
threshold-word combinatorics, LQG control with costly observations, and a
brute-force dynamic-programming oracle for verification.
"""

from .costs import CostFn, CostDomainError
from .dynamics import ArmParams, InconsistencyError, MoebiusMat, Orbit, ThresholdWord
from .index import IndexQuery, IndexRecord, IndexTable
from .words import ChristoffelPair, Word

__version__ = "0.1.0"

__all__ = [
    "ArmParams",
    "ChristoffelPair",
    "CostDomainError",
    "CostFn",
    "IndexQuery",
    "IndexRecord",
    "IndexTable",
    "InconsistencyError",
    "MoebiusMat",
    "Orbit",
    "ThresholdWord",
    "Word",
    "__version__",
]
