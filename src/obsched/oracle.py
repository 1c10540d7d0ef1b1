"""Brute-force verification: discretized value iteration and property suites.

The price-parameterized single-arm dynamic program

    V(x; nu) = min_a { nu c(a) + C(x) + beta V(phi_a(x); nu) }

is solved on a grid by fixed-point iteration with linear interpolation of
continuation values.  The module also extracts threshold structure from DP
solutions, aggregates the partial-conservation-law property checks, and
verifies the majorisation inequality used by the monotonicity argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .costs import CostFn
from .dynamics import (
    ArmParams,
    InconsistencyError,
    batch_coefficients,
    phi0,
    phi1,
    phi_batch,
    y0,
    y1,
)
from .index import (
    IndexQuery,
    cost_gap,
    marginal_sums_batch,
    truncation_horizon,
    whittle_index,
)


@dataclass(frozen=True)
class DPGrid:
    """State grid for value iteration; off-grid images clamp and interpolate."""

    lo: float
    hi: float
    n: int = 4096
    spacing: str = "log"

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.n < 64:
            raise ValueError(f"grid needs at least 64 points, got {self.n}")
        if self.spacing not in ("log", "linear"):
            raise ValueError(f"unknown spacing {self.spacing!r}")
        if self.spacing == "log" and self.lo <= 0:
            raise ValueError("log spacing requires lo > 0")

    def points(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.lo, self.hi, self.n)
        return np.linspace(self.lo, self.hi, self.n)


def default_grid(params: ArmParams, n: int = 4096) -> DPGrid:
    """Log grid on [1e-4 y_1, 4 y_0]; variance dynamics are multiplicative
    near zero and saturate near the passive fixed point."""
    top = y0(params)
    bottom = y1(params)
    if not math.isfinite(top):
        raise ValueError("passive fixed point is infinite; supply explicit bounds")
    if bottom <= 0.0:
        bottom = min(1.0, top) * 1e-3
    return DPGrid(1e-4 * bottom, 4.0 * top, n)


@dataclass(frozen=True)
class DPSolution:
    """A value-iteration result on ``grid`` at price ``nu``.

    ``iterations`` counts Bellman sweeps.  ``residual`` is the certified
    bound beta/(1 - beta) (hi - lo)/2 >= max|values - V*| (up to rounding
    in the sweep), where lo and hi are the extremes of TV - V on the last
    sweep; it is below tol/2 on return (0 at beta = 0, where one sweep is
    exact).
    """

    grid: DPGrid
    nu: float
    values: np.ndarray
    actions: np.ndarray
    iterations: int
    residual: float


def value_iteration(
    params: ArmParams,
    cost: CostFn,
    beta: float,
    nu: float,
    grid: DPGrid,
    tol: float = 1e-9,
    max_iter: int = 2_000_000,
    start: Optional[np.ndarray] = None,
) -> DPSolution:
    """Solve the nu-priced DP by contraction iteration on the grid.

    Iterates V <- TV from ``start`` (zeros by default; any start gives the
    same certificate).  Every interpolation row sums to 1, so T(V + c) =
    TV + beta c, and with lo, hi the extremes of TV - V the fixed point V*
    lies pointwise in [TV + g lo, TV + g hi], g = beta/(1 - beta)
    (MacQueen's bounds; Puterman, *Markov Decision Processes*, 1994,
    section 6.6.3).  The loop stops once g (hi - lo) < tol and returns the
    midpoint TV + g (hi + lo)/2, within tol/2 of V*.  The span ignores a
    constant offset, the slowest mode of the iteration, so it shrinks much
    faster than the sup norm.  Greedy actions break exact ties in favour
    of observing.  The images of the grid under both maps, their neighbour
    indices and interpolation weights, and the stage costs plus the priced
    work are computed once; a sweep is then one gather of the four
    neighbour values per point and a few in-place array passes into
    preallocated buffers.  Raises ``InconsistencyError`` when ``max_iter``
    sweeps do not reach the bound.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must be in [0, 1), got {beta}")
    pts = grid.points()
    w0 = nu * params.c0
    w1 = nu * params.c1
    gain = beta / (1.0 - beta)
    # Rows 2a and 2a + 1: left and right grid neighbour of action a's
    # clipped image, and their interpolation weights.
    idx = np.empty((4, grid.n), dtype=np.intp)
    wts = np.empty((4, grid.n))
    for a, img in enumerate((phi0(params, pts), phi1(params, pts))):
        img = np.clip(img, grid.lo, grid.hi)
        left = np.clip(np.searchsorted(pts, img) - 1, 0, grid.n - 2)
        frac = (img - pts[left]) / (pts[left + 1] - pts[left])
        idx[2 * a], idx[2 * a + 1] = left, left + 1
        wts[2 * a], wts[2 * a + 1] = 1.0 - frac, frac
    # (w + stage) + beta cont is the same float as w + stage + beta cont.
    base = np.add.outer([w0, w1], cost.eval(pts))
    nbr = np.empty((4, grid.n))
    V = np.zeros(grid.n) if start is None else np.array(start, dtype=float)
    V_new = np.empty(grid.n)
    diff = np.empty(grid.n)
    for it in range(1, max_iter + 1):
        q = _continuation(V, idx, wts, nbr)
        q *= beta
        q += base
        np.minimum(q[0], q[1], out=V_new)
        np.subtract(V_new, V, out=diff)
        lo = float(diff.min())
        hi = float(diff.max())
        V, V_new = V_new, V
        if gain * (hi - lo) < tol:
            break
    else:
        raise InconsistencyError(
            f"value iteration did not converge in {max_iter} sweeps"
        )
    V += gain * 0.5 * (hi + lo)
    cont0, cont1 = _continuation(V, idx, wts, nbr)
    actions = (w1 + beta * cont1 <= w0 + beta * cont0).astype(np.int64)
    return DPSolution(grid, nu, V, actions, it, gain * 0.5 * (hi - lo))


def _continuation(
    V: np.ndarray, idx: np.ndarray, wts: np.ndarray, nbr: np.ndarray
) -> np.ndarray:
    """Interpolated continuation values of both actions, as rows 0 and 2 of nbr.

    ``nbr`` is scratch of the shape of ``idx``.  Every index is in range,
    so ``take`` may clip instead of checking bounds.
    """
    V.take(idx, out=nbr, mode="clip")
    nbr *= wts
    return np.add(nbr[0::2], nbr[1::2], out=nbr[0::2])


@dataclass(frozen=True)
class ThresholdReport:
    is_threshold: bool
    threshold: float
    switches: int
    switch_positions: tuple[int, ...]


def dp_threshold(sol: DPSolution) -> ThresholdReport:
    """Extract the switch point of a 0-block-then-1-block action array.

    All-passive reports +inf, all-active -inf (the threshold is below the
    grid); anything other than a single upward switch is reported with the
    offending positions.
    """
    acts = sol.actions
    diffs = np.flatnonzero(np.diff(acts) != 0)
    if len(diffs) == 0:
        thr = -math.inf if acts[0] == 1 else math.inf
        return ThresholdReport(True, thr, 0, ())
    if len(diffs) == 1 and acts[0] == 0 and acts[-1] == 1:
        k = int(diffs[0]) + 1
        return ThresholdReport(True, float(sol.grid.points()[k]), 1, (k,))
    return ThresholdReport(False, math.nan, len(diffs), tuple(int(d) + 1 for d in diffs))


@dataclass(frozen=True)
class MajorisationResult:
    hypotheses_ok: bool
    hypothesis_failures: tuple[str, ...]
    holds: bool
    lhs: float
    rhs: float


def majorisation_check(
    a_seq: Sequence[float],
    b_seq: Sequence[float],
    f_family: Sequence[Callable[[np.ndarray], np.ndarray]],
    probe_points: Optional[np.ndarray] = None,
) -> MajorisationResult:
    """Check sum f_i(a_i) >= sum f_i(b_i) together with its hypotheses.

    Hypotheses verified numerically: both sequences non-decreasing and
    positive, prefix sums of a dominated by those of b, each f_i
    non-increasing and convex on a probe grid, and consecutive differences
    f_{i-1} - f_i non-increasing.  Hypothesis violations are reported
    separately from failure of the conclusion.
    """
    a = np.asarray(a_seq, dtype=float)
    b = np.asarray(b_seq, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or len(a) != len(f_family):
        raise ValueError("sequences and function family must have equal length")
    failures: list[str] = []
    if np.any(a <= 0) or np.any(b <= 0):
        failures.append("sequences not positive")
    if np.any(np.diff(a) < 0) or np.any(np.diff(b) < 0):
        failures.append("sequences not non-decreasing")
    if np.any(np.cumsum(a) > np.cumsum(b) + 1e-12 * np.maximum(1, np.cumsum(b))):
        failures.append("prefix sums of a exceed those of b")
    if probe_points is None:
        top = float(max(a.max(), b.max()))
        probe_points = np.geomspace(min(a.min(), b.min()) * 0.5, top * 2.0, 64)
    u = probe_points
    for i, f in enumerate(f_family):
        vals = np.asarray(f(u), dtype=float)
        if np.any(np.diff(vals) > 1e-12 * np.maximum(1, np.abs(vals[:-1]))):
            failures.append(f"f_{i + 1} not non-increasing")
        if np.any(np.diff(vals, 2) < -1e-10 * np.maximum(1, np.abs(vals[1:-1]))):
            failures.append(f"f_{i + 1} not convex on probe grid")
    for i in range(1, len(f_family)):
        gap = np.asarray(f_family[i - 1](u), dtype=float) - np.asarray(
            f_family[i](u), dtype=float
        )
        if np.any(np.diff(gap) > 1e-10 * np.maximum(1, np.abs(gap[:-1]))):
            failures.append(f"f_{i} - f_{i + 1} not non-increasing")
    lhs = float(sum(float(f(np.array([ai]))[0]) for f, ai in zip(f_family, a)))
    rhs = float(sum(float(f(np.array([bi]))[0]) for f, bi in zip(f_family, b)))
    return MajorisationResult(
        hypotheses_ok=not failures,
        hypothesis_failures=tuple(failures),
        holds=lhs >= rhs - 1e-10 * max(1.0, abs(rhs)),
        lhs=lhs,
        rhs=rhs,
    )


@dataclass(frozen=True)
class PcliConfig:
    seed: int = 20260810
    work_samples: int = 200
    lambda_points: int = 400
    sweep_points: int = 1500
    itinerary_lengths: tuple[int, ...] = (2, 4, 8, 16, 32)
    pcli3_intervals: int = 3
    state_lo: Optional[float] = None
    state_hi: Optional[float] = None
    slope_limit: float = 4.5


def state_bounds(params: ArmParams, cfg: PcliConfig) -> tuple[float, float]:
    """State range of the PCLI report: cfg's bounds, else around y1 and y0."""
    lo = cfg.state_lo
    hi = cfg.state_hi
    if lo is None:
        bottom = y1(params)
        lo = max(1e-3, 0.25 * bottom) if bottom > 0 else 1e-3
    if hi is None:
        top = y0(params)
        hi = 2.0 * top if math.isfinite(top) else 50.0
    return float(lo), float(hi)


def pcli_report(
    params: ArmParams,
    cost: CostFn,
    beta: float,
    config: Optional[PcliConfig] = None,
) -> dict:
    """Run the partial-conservation-law property suite; findings are data.

    Sections: positivity of marginal work with its discounted lower bound,
    monotonicity and a sampled continuity modulus of the index, growth of
    the discontinuity count of finite itineraries in the threshold, and
    spot checks of the discrete-measure identity relating marginal cost to
    index-weighted marginal-work jumps.
    """
    cfg = config or PcliConfig()
    rng = np.random.default_rng(cfg.seed)
    lo, hi = state_bounds(params, cfg)
    gap = cost_gap(params)
    T = truncation_horizon(beta)
    p = params
    report: dict = {"params": {"r": p.r, "a0": p.a0, "a1": p.a1, "beta": beta,
                               "cost": cost.kind, "condition_c": cost.condition_c}}

    # PCLI1: marginal work at s = x stays above its discounted lower bound.
    xs = rng.uniform(lo, hi, cfg.work_samples)
    _, work, _ = marginal_sums_batch(
        p.r, p.a0, p.a1, p.c0, p.c1, beta, cost, xs, xs, T
    )
    slack = gap * beta ** (T + 1) / max(1e-300, 1.0 - beta)
    bound = (1.0 - beta) * gap - slack
    margin = float(np.min(work - bound))
    report["pcli1"] = {
        "samples": cfg.work_samples,
        "bound": bound,
        "min_margin": margin,
        "ok": bool(margin >= -1e-9),
    }

    # PCLI2: non-decreasing index and a sampled continuity modulus.
    grid = np.geomspace(lo, hi, cfg.lambda_points)
    num, den, _ = marginal_sums_batch(
        p.r, p.a0, p.a1, p.c0, p.c1, beta, cost, grid, grid, T
    )
    lam = num / den
    dlam = np.diff(lam)
    tol = 1e-9 + beta ** (T + 1) / (1.0 - beta) if beta > 0 else 1e-9
    violations = int(np.sum(dlam < -tol))
    worst = float(np.min(dlam)) if len(dlam) else 0.0
    modulus = float(np.max(np.abs(dlam) / np.diff(grid)))
    report["pcli2"] = {
        "grid_points": cfg.lambda_points,
        "violations": violations,
        "worst_decrease": worst,
        "max_slope_sampled": modulus,
        "ok": violations == 0,
    }

    # Piecewise constancy: discontinuities of s -> actions grow polynomially.
    x_probe = float(rng.uniform(lo, hi))
    sweep = np.linspace(lo, hi, cfg.sweep_points)
    counts = []
    for t_len in cfg.itinerary_lengths:
        acts = _action_matrix(p, x_probe, sweep, t_len)
        changed = np.any(acts[:, 1:] != acts[:, :-1], axis=0)
        counts.append(int(np.sum(changed)))
    tlog = np.log(np.asarray(cfg.itinerary_lengths, dtype=float))
    clog = np.log(np.maximum(1.0, np.asarray(counts, dtype=float)))
    slope = float(np.polyfit(tlog, clog, 1)[0])
    report["discontinuities"] = {
        "lengths": list(cfg.itinerary_lengths),
        "counts": counts,
        "fitted_exponent": slope,
        "ok": bool(slope <= cfg.slope_limit),
    }

    # PCLI3: c_x(b) - c_x(a) equals the index-weighted sum of work jumps.
    checks = []
    for _ in range(cfg.pcli3_intervals):
        a_s, b_s = np.sort(rng.uniform(lo, hi, 2))
        if b_s - a_s < 0.05 * (hi - lo):
            b_s = min(hi, a_s + 0.05 * (hi - lo))
        svals = np.linspace(a_s, b_s, cfg.sweep_points)
        x_arr = np.full_like(svals, x_probe)
        mcost, mwork, _ = marginal_sums_batch(
            p.r, p.a0, p.a1, p.c0, p.c1, beta, cost, x_arr, svals, T
        )
        lam_s = _lambda_on(p, cost, beta, svals, T)
        dw = np.diff(mwork)
        lhs = float(mcost[-1] - mcost[0])
        rhs = float(np.sum(lam_s[:-1] * dw))
        scale = max(1.0, abs(lhs), abs(rhs))
        checks.append(
            {"a": float(a_s), "b": float(b_s), "lhs": lhs, "rhs": rhs,
             "rel_err": abs(lhs - rhs) / scale}
        )
    rel_tol = 2e-2
    report["pcli3"] = {
        "checks": checks,
        "rel_tol": rel_tol,
        "ok": bool(all(c["rel_err"] <= rel_tol for c in checks)),
    }

    report["ok"] = bool(
        report["pcli1"]["ok"]
        and report["pcli2"]["ok"]
        and report["discontinuities"]["ok"]
        and report["pcli3"]["ok"]
    )
    return report


def _lambda_on(
    p: ArmParams, cost: CostFn, beta: float, xs: np.ndarray, T: int
) -> np.ndarray:
    num, den, _ = marginal_sums_batch(
        p.r, p.a0, p.a1, p.c0, p.c1, beta, cost, xs, xs, T
    )
    return num / den


def _action_matrix(
    p: ArmParams, x: float, thresholds: np.ndarray, t_len: int
) -> np.ndarray:
    """Actions A_{1:t}(x, a0-free; s) for every threshold in the sweep."""
    coef = batch_coefficients(p.r2, p.a0, p.a1)
    v = np.full_like(thresholds, x)
    acts = np.empty((t_len, len(thresholds)), dtype=np.int8)
    for t in range(t_len):
        a = v >= thresholds
        acts[t] = a
        v = phi_batch(coef, a, v)
    return acts


@dataclass(frozen=True)
class CrossValidation:
    """One oracle-vs-index comparison at a price straddling lambda(x*)."""

    x_star: float
    lam: float
    delta: float
    action_above: int
    action_below: int
    threshold_ok: bool
    dp_threshold_above: float
    dp_threshold_below: float


def cross_validate(
    params: ArmParams,
    cost: CostFn,
    beta: float,
    x_star: float,
    grid: Optional[DPGrid] = None,
    tol: float = 1e-9,
) -> CrossValidation:
    """Set nu = lambda(x*) +/- delta and confirm the DP flips the action at x*.

    delta is ten grid cells of index variation, estimated from a local
    finite difference; both DP solutions must be threshold policies.  The
    lower-price DP starts from the higher-price solution's values, which
    are close to its own.
    """
    g = grid or default_grid(params, n=2048)
    rec = whittle_index(IndexQuery(params, cost, beta, x_star))
    pts = g.points()
    k = int(np.searchsorted(pts, x_star))
    k = min(max(k, 1), g.n - 2)
    cell = pts[k + 1] - pts[k]
    h = max(cell, 1e-6 * (1.0 + abs(x_star)))
    lam_hi = whittle_index(IndexQuery(params, cost, beta, x_star + h)).lam
    lam_lo = whittle_index(IndexQuery(params, cost, beta, max(g.lo, x_star - h))).lam
    slope = abs(lam_hi - lam_lo) / (2.0 * h)
    delta = max(10.0 * cell * slope, 1e-6 * max(1.0, abs(rec.lam)))
    sol_above = value_iteration(params, cost, beta, rec.lam + delta, g, tol=tol)
    sol_below = value_iteration(
        params, cost, beta, rec.lam - delta, g, tol=tol, start=sol_above.values
    )
    above = dp_threshold(sol_above)
    below = dp_threshold(sol_below)
    return CrossValidation(
        x_star=x_star,
        lam=rec.lam,
        delta=delta,
        action_above=int(sol_above.actions[k]),
        action_below=int(sol_below.actions[k]),
        threshold_ok=above.is_threshold and below.is_threshold,
        dp_threshold_above=above.threshold,
        dp_threshold_below=below.threshold,
    )
