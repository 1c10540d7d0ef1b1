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
        if not 0.0 < abs(self.B) < math.inf:
            raise ValueError(f"B must be non-zero and finite, got {self.B}")
        if not 0.0 < self.D < math.inf:
            raise ValueError(f"D must be positive and finite, got {self.D}")
        if not 0.0 <= self.F < math.inf:
            raise ValueError(f"F must be non-negative and finite, got {self.F}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")
        # A, sigma_x, the sigma_y and the costs are checked where they are
        # normalized.
        self.arm()

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


def _finite(p: LqgProblem, what: str, terms) -> tuple:
    """terms(), a tuple of floats; ValueError naming B, D and F if one overflows."""
    try:
        q = terms()
    except OverflowError:
        q = (math.inf,)
    if not all(map(math.isfinite, q)):
        raise ValueError(
            f"B = {p.B!r}, D = {p.D!r}, F = {p.F!r} are too large: {what} are not all finite"
        )
    return q


def _riccati_quadratic(p: LqgProblem) -> tuple[float, float, float]:
    """Coefficients (qa, qb, qc) of the Riccati quadratic qa R^2 + qb R + qc."""
    return _finite(p, "the Riccati coefficients", lambda: (
        -p.beta * p.B**2, p.beta * p.B**2 * p.D + p.beta * p.A**2 * p.F - p.F, p.D * p.F))


def riccati_root(problem: LqgProblem) -> float:
    """Unique positive root of -beta B^2 R^2 + (beta B^2 D + beta A^2 F - F) R + D F.

    F = 0 collapses the quadratic to R = D; otherwise the constant term is
    positive and the leading coefficient negative, so exactly one positive
    root exists and the numerically stable formula picks it.
    """
    p = problem
    if p.F == 0.0:
        return p.D
    qa, qb, qc = _riccati_quadratic(p)
    (disc,) = _finite(p, "the Riccati discriminant", lambda: (qb * qb - 4.0 * qa * qc,))
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


def observation_threshold(problem: LqgProblem, alpha: float) -> float:
    """Variance threshold z with lambda(z) = (c1 - c0) / alpha, by bisection.

    Each probe is a :func:`index.whittle_index` call on the induced arm
    with costs (0, 1) and linear cost, both built once per solve.  The
    index is non-decreasing, so bisection over a bracket applies; targets
    below the index at the bottom of the bracket give z = -inf (always
    observe) and, when the passive fixed point caps the index, targets
    above it give z = +inf.  Every bracket top is probed, so an a1 whose
    map denominator overflows on the bracket's orbits raises the probes'
    ValueError.  The index is below the target at every bracket bottom
    and not below it at every top, so once the midpoint rounds to an end
    the bracket can no longer change and the bisection stops, with the z
    of all BISECTION_STEPS steps.
    """
    p = problem
    price = p.c1 - p.c0
    if price <= 0.0:
        return -math.inf
    if alpha <= 1e-12:
        return math.inf
    arm = p.arm()
    probe, cost = arm.with_costs(0.0, 1.0), linear()

    def lam(v: float) -> float:
        return whittle_index(IndexQuery(probe, cost, p.beta, v)).lam

    if alpha * p.sigma_x == 0.0:
        raise ValueError(f"sigma_x = {p.sigma_x!r} is too small: alpha * sigma_x underflows to 0")
    target = price / (alpha * p.sigma_x)
    lo = 1e-9
    top = y0(arm)
    hi = 4.0 * top if math.isfinite(top) else 4.0 * max(1.0, y1(arm))
    if lam(lo) >= target:
        return -math.inf
    if math.isfinite(top):
        if lam(hi) < target:
            return math.inf
    else:
        while lam(hi) < target:
            hi *= 2.0
            if hi > 1e12:
                return math.inf
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if lam(mid) < target:
            lo = mid
        else:
            hi = mid
    return p.sigma_x * 0.5 * (lo + hi)


def solve_lqg(problem: LqgProblem) -> LqgSolution:
    """Riccati root, feedback gain, variance-cost rate and observation threshold."""
    R = riccati_root(problem)
    qa, qb, qc = _riccati_quadratic(problem)
    qa_r2, qb_r, _ = _finite(problem, f"the Riccati residual's terms at R = {R!r}",
                             lambda: (qa * R**2, qb * R, qc))
    residual = abs(qa_r2 + qb_r + qc)
    scale = max(1.0, problem.D * max(1.0, problem.F), R * R * problem.beta * problem.B**2)
    if not (residual <= 1e-10 * scale):
        raise InconsistencyError(f"Riccati residual {residual} too large")
    alpha = problem.D - (1.0 - problem.beta * problem.A**2) * R
    if alpha < -1e-12 * max(1.0, problem.D):
        raise ArithmeticError(f"negative variance-cost rate alpha={alpha}")
    alpha = max(alpha, 0.0)
    L = feedback_gain(problem, R)
    z = observation_threshold(problem, alpha)
    return LqgSolution(R=R, L=L, alpha=alpha, z=z)
