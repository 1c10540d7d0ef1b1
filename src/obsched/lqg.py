"""LQG control with costly observations.

The certainty-equivalent feedback gain comes from a scalar Riccati
quadratic; the observation decision reduces to a threshold on the
posterior variance, found by inverting the monotone Whittle index of the
induced variance problem with linear cost alpha * v and price c1 - c0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .costs import linear
from .dynamics import ArmParams, InconsistencyError, y0, y1
from .index import IndexQuery, whittle_index

BISECTION_STEPS = 60


@dataclass(frozen=True)
class LqgProblem:
    A: float
    B: float
    D: float
    F: float
    beta: float
    sigma_x: float
    sigma_y0: float
    sigma_y1: float
    c0: float = 0.0
    c1: float = 1.0

    def __post_init__(self) -> None:
        if self.B == 0.0:
            raise ValueError("B must be non-zero")
        if not 0.0 < abs(self.A) <= 1.0:
            raise ValueError(f"|A| must be in (0, 1], got {self.A}")
        if self.D <= 0.0:
            raise ValueError("D must be positive")
        if self.F < 0.0:
            raise ValueError("F must be non-negative")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")
        if self.sigma_x <= 0.0:
            raise ValueError("sigma_x must be positive")
        if not 0.0 < self.sigma_y1 < self.sigma_y0:
            raise ValueError("need 0 < sigma_y1 < sigma_y0")
        if not self.c0 <= self.c1:
            raise ValueError("need c0 <= c1")

    def arm(self) -> ArmParams:
        return ArmParams.from_kalman(
            self.A, self.sigma_x, self.sigma_y0, self.sigma_y1, self.c0, self.c1
        )


@dataclass(frozen=True)
class LqgSolution:
    R: float
    L: float
    alpha: float
    z: float  # threshold on the raw posterior variance

    def as_dict(self) -> dict:
        return {"R": self.R, "L": self.L, "alpha": self.alpha, "z": self.z}


def riccati_root(problem: LqgProblem) -> float:
    """Unique positive root of -beta B^2 R^2 + (beta B^2 D + beta A^2 F - F) R + D F.

    F = 0 collapses the quadratic to R = D; otherwise the constant term is
    positive and the leading coefficient negative, so exactly one positive
    root exists and the numerically stable formula picks it.
    """
    p = problem
    if p.F == 0.0:
        return p.D
    qa = -p.beta * p.B**2
    qb = p.beta * p.B**2 * p.D + p.beta * p.A**2 * p.F - p.F
    qc = p.D * p.F
    disc = qb * qb - 4.0 * qa * qc
    s = math.sqrt(disc)
    if qb >= 0.0:
        return (qb + s) / (-2.0 * qa)
    return -2.0 * qc / (qb - s)


def feedback_gain(problem: LqgProblem, R: float) -> float:
    """L = beta A B R / (F + beta B^2 R), the stable form of A / (B + F/(beta B R))."""
    p = problem
    denom = p.F + p.beta * p.B**2 * R
    if denom == 0.0:
        return 0.0
    return p.beta * p.A * p.B * R / denom


def _lambda_normalized(arm: ArmParams, beta: float, v: float) -> float:
    """Index of the induced variance arm with linear cost, at normalized state v."""
    probe = arm.with_costs(0.0, 1.0)
    return whittle_index(IndexQuery(probe, linear(), beta, v), word_max_len=1).lam


def observation_threshold(problem: LqgProblem, alpha: float) -> float:
    """Variance threshold z with lambda(z) = (c1 - c0) / alpha, by bisection.

    The index of the induced arm is non-decreasing, so bisection over a
    bracket applies; targets below the index at the bottom of the bracket
    give z = -inf (always observe) and, when the passive fixed point caps
    the index, targets above it give z = +inf.
    """
    p = problem
    price = p.c1 - p.c0
    if price <= 0.0:
        return -math.inf
    if alpha <= 1e-12:
        return math.inf
    arm = p.arm()
    target = price / (alpha * p.sigma_x)
    lo = 1e-9
    if _lambda_normalized(arm, p.beta, lo) >= target:
        return -math.inf
    top = y0(arm)
    if math.isfinite(top):
        hi = 4.0 * top
        if _lambda_normalized(arm, p.beta, hi) < target:
            return math.inf
    else:
        hi = 4.0 * max(1.0, y1(arm))
        while _lambda_normalized(arm, p.beta, hi) < target:
            hi *= 2.0
            if hi > 1e12:
                return math.inf
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if _lambda_normalized(arm, p.beta, mid) < target:
            lo = mid
        else:
            hi = mid
    return p.sigma_x * 0.5 * (lo + hi)


def solve_lqg(problem: LqgProblem) -> LqgSolution:
    """Riccati root, feedback gain, variance-cost rate and observation threshold."""
    R = riccati_root(problem)
    residual = abs(
        -problem.beta * problem.B**2 * R**2
        + (problem.beta * problem.B**2 * problem.D + problem.beta * problem.A**2 * problem.F - problem.F) * R
        + problem.D * problem.F
    )
    scale = max(1.0, problem.D * max(1.0, problem.F), R * R * problem.beta * problem.B**2)
    if residual > 1e-10 * scale:
        raise InconsistencyError(f"Riccati residual {residual} too large")
    alpha = problem.D - (1.0 - problem.beta * problem.A**2) * R
    if alpha < -1e-12 * max(1.0, problem.D):
        raise ArithmeticError(f"negative variance-cost rate alpha={alpha}")
    alpha = max(alpha, 0.0)
    L = feedback_gain(problem, R)
    z = observation_threshold(problem, alpha)
    return LqgSolution(R=R, L=L, alpha=alpha, z=z)


def lqg_act(sol: LqgSolution, mean: float, variance: float) -> tuple[float, int]:
    """Control u = -L x and query a = 1 exactly when the variance reaches z."""
    return -sol.L * mean, int(variance >= sol.z)
