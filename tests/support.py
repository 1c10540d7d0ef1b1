"""Helpers shared by several test modules."""

import math

from obsched import costs
from obsched.bandit import Arm, Scenario
from obsched.dynamics import KNIFE_EDGE_TOL, ArmParams
from obsched.index import _orbit_summands


def is_knife_edge(v: float, s: float) -> bool:
    """Whether state v is within the knife-edge tolerance of threshold s."""
    return not math.isinf(s) and abs(v - s) <= KNIFE_EDGE_TOL * max(1.0, abs(s))


def orbit_terms(p, cost, beta, x, s, first, T):
    """One forced-first-action orbit through the scalar probe's helpers.

    Returns its discounted cost and work summands, its knife-edge flag and
    its period (0 for an orbit with no repeat within T states).
    """
    terms, [(_, c, b)], knife = _orbit_summands(p, cost, x, s, (first,), T, beta)
    return terms[0], terms[1], knife, b - c


def fig7_scenario(
    n: int = 10,
    heavy_weight: float = 10.0,
    horizon: int = 200,
    beta: float = 0.99,
    seed: int = 7,
) -> Scenario:
    """n identical arms, one carrying a heavier uncertainty cost.

    All arms start at variance 4 with free observations; only the cost
    ordering whittle < {myopic, round_robin} is meaningful, not magnitudes.
    """
    params = ArmParams(r=1.0, a0=0.0, a1=0.1, c0=0.0, c1=0.0)
    cost = costs.linear()
    arms = tuple(
        Arm(params=params, cost=cost, weight=heavy_weight if i == 0 else 1.0, v0=4.0)
        for i in range(n)
    )
    return Scenario(arms=arms, m=1, beta=beta, horizon=horizon, seed=seed)
