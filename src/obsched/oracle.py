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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .costs import CostFn
from .dynamics import (
    ArmParams,
    InconsistencyError,
    batch_map,
    check_discounted_sums,
    map_coefficients,
    phi0,
    phi1,
    y0,
    y1,
)
from .index import (
    IndexQuery,
    cost_gap,
    marginal_sums_batch,
    truncation_horizon,
    whittle_index,
    work_floor,
)


@dataclass(frozen=True)
class DPGrid:
    """Log-spaced state grid for value iteration; off-grid images clamp and interpolate."""

    lo: float
    hi: float
    n: int

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.n < 64:
            raise ValueError(f"grid needs at least 64 points, got {self.n}")
        if self.lo <= 0:
            raise ValueError("log spacing requires lo > 0")

    @cached_property
    def points(self) -> np.ndarray:
        """The n grid points, computed once and shared read-only."""
        pts = np.geomspace(self.lo, self.hi, self.n)
        pts.flags.writeable = False
        return pts


def default_grid(params: ArmParams, n: int) -> DPGrid:
    """n-point log grid on [1e-4 y_1, 4 y_0]; variance dynamics are
    multiplicative near zero and saturate near the passive fixed point."""
    top, bottom = y0(params), y1(params)
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
    sweep.  It is below tol/2 when the solve ran to the span stop (0 at
    beta = 0, where one sweep is exact).  A solve that stopped on certified
    actions (``value_iteration(actions_only=True)``) returns the bound at
    that sweep, which may be larger; its actions are still exact, but for
    at most one point when it stopped with ``exact_at``.
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
    *,
    actions_only: bool = False,
    exact_at: Optional[int] = None,
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

    ``actions_only=True`` may stop earlier, once the greedy actions are
    certified (MacQueen's test for suboptimal actions, *Operations
    Research* 15(3), 1967; Puterman, section 6.7).  V* - V lies in
    [lo, hi]/(1 - beta) for the V a sweep started from, so each Q-gap
    D = Q1 - Q0 of that sweep is within g (hi - lo) of the gap D* at V*.
    When min |D| over the grid exceeds g (hi - lo) + beta tol + s, the
    actions D <= 0 are the signs of D*, and as |D*| > beta tol they are
    also the actions of every solve run to the span stop, whose Q-gaps are
    within beta tol of D*.  The rounding slack s = 32 (1 + g) eps M, with
    eps the machine epsilon and M = max|nu c + C| + max|V|, covers the
    rounding of the Q-values and of TV - V in this sweep and in a
    span-stopped one.  The margin min |D| is measured only when
    g (hi - lo) + beta tol has dropped below the last measured margin.
    The returned values are then the midpoint at that sweep, and
    ``residual`` its bound.  Without a certificate the solve runs to the
    span stop as above.

    ``exact_at=k`` (with ``actions_only``) names the one grid point whose
    action the caller reads; the caller reads the rest of the actions only
    through ``dp_threshold(...).is_threshold``.  The solve then also stops
    when exactly one point i fails the bound above, with i != k and
    0 < i < n - 1, and its certified neighbours i - 1 and i + 1 take
    different actions.  Whichever action i takes, exactly one of the pairs
    (i - 1, i) and (i, i + 1) switches, so the number of switches, the
    first and last actions, and hence ``is_threshold``, are those of the
    span-stopped solve, as is the action at k.  The one action at i is the
    sign of this sweep's gap and may differ from the span-stopped solve's.
    While the smallest |D| sits at such a point, the second smallest is
    the margin that triggers the next measurement.  The margins of the
    every-point test are still tracked, and trigger a measurement at every
    sweep where ``actions_only`` alone would measure; as the sweeps are the
    same, the solve stops no later than that one.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must be in [0, 1), got {beta}")
    pts = grid.points
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
    size = np.empty(grid.n)
    base_max = float(np.abs(base).max())
    margin = relaxed = math.inf
    actions = None
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
        bound = gain * (hi - lo) + beta * tol
        if actions_only and bound < max(margin, relaxed):
            # V_new holds the values this sweep started from.
            scale = base_max + float(np.abs(V_new).max())
            slack = 32.0 * (1.0 + gain) * np.finfo(float).eps * scale
            gap = np.subtract(q[1], q[0], out=diff)
            np.abs(gap, out=size)
            i = int(size.argmin())
            if bound < margin:
                margin = float(size[i])
            relaxed = float(size[i])
            if (
                exact_at is not None
                and i != exact_at
                and 0 < i < grid.n - 1
                and (gap[i - 1] <= 0.0) != (gap[i + 1] <= 0.0)
            ):
                size[i] = math.inf
                relaxed = float(size.min())
            if relaxed > bound + slack:
                actions = (gap <= 0.0).astype(np.int64)
                break
    else:
        raise InconsistencyError(
            f"value iteration did not converge in {max_iter} sweeps"
        )
    V += gain * 0.5 * (hi + lo)
    if actions is None:
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
        return ThresholdReport(True, float(sol.grid.points[k]), 1, (k,))
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
    top = float(max(a.max(), b.max()))
    u = np.geomspace(min(a.min(), b.min()) * 0.5, top * 2.0, 64)
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


# Largest fitted log-log growth exponent of the itineraries' discontinuity counts.
SLOPE_LIMIT = 4.5


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


def state_bounds(params: ArmParams, cfg: PcliConfig) -> tuple[float, float]:
    """State range of the PCLI report: cfg's bounds, else around y1 and y0."""
    lo = cfg.state_lo
    hi = cfg.state_hi
    if hi is None:
        top = y0(params)
        hi = 2.0 * top if math.isfinite(top) else 50.0
    if lo is None:  # floored at 1e-3, unless y0 < 5e-4 puts hi = 2 y0 below that
        lo = max(1e-3, 0.25 * y1(params))
        lo = lo if lo < hi else hi / 16.0
    return float(lo), float(hi)


def pcli_report(
    params: ArmParams,
    cost: CostFn,
    beta: float,
    config: Optional[PcliConfig] = None,
) -> dict:
    """Run the partial-conservation-law property suite; findings are data.

    Sums that could overflow on the orbits of its :func:`state_bounds`
    raise ValueError first (:func:`dynamics.check_discounted_sums`).
    Sections: positivity of marginal work with its discounted lower bound,
    monotonicity and a sampled continuity modulus of the index, growth of
    the discontinuity count of finite itineraries in the threshold, and
    spot checks of the discrete-measure identity relating marginal cost to
    index-weighted marginal-work jumps.  All random draws come first.  The
    marginal sums come from two :func:`marginal_sums_batch` calls, and each
    orbit's sums do not depend on the rest of its batch.  The first call
    steps the PCLI1 samples and the PCLI2 grid at s = x, and each PCLI3
    interval's threshold sweep at x = x_probe.  The second steps the index
    orbits (s_j, s_j) only at the sweeps' work jumps, where
    diff(marginal work) != 0.

    PCLI3's right-hand side is sum_j lambda(s_j) dw_j over the sweep, and
    dw_j is exactly 0.0 off the jumps: that is most of a sweep, as the
    thresholds of one kernel class share their sums bit for bit.  lambda
    is finite, since the marginal work is at least (1 - beta)(c1 - c0) > 0,
    so the products there are zeros.  ``np.sum`` over an array of the
    sweep's length holding lambda(s_j) dw_j at the jumps and +0.0
    elsewhere thus adds the same nonzero terms in the same pairwise tree
    as the sum of every product, and gives the same float.  The one edge
    is the sign of a zero: an interval with no jump whose index is
    negative throughout (possible only outside condition (C)) has every
    product -0.0.  A sum that kept that sign would print -0.0 where this
    one prints 0.0; numpy 2.4's ``np.sum`` of -0.0s is 0.0, so the two
    agree there too.  240 random configurations, including power(-1.5)
    and power(-3) costs, never reached the edge.
    """
    cfg = config or PcliConfig()
    rng = np.random.default_rng(cfg.seed)
    lo, hi = state_bounds(params, cfg)
    check_discounted_sums(params, cost, beta, lo, hi)
    gap = cost_gap(params)
    T = truncation_horizon(beta)
    p = params
    report: dict = {"params": {"r": p.r, "a0": p.a0, "a1": p.a1, "beta": beta,
                               "cost": cost.kind, "condition_c": cost.condition_c}}

    # The first batch: the PCLI1 samples and the PCLI2 grid at s = x, then
    # each PCLI3 interval's threshold sweep at x = x_probe (its marginals).
    xs = rng.uniform(lo, hi, cfg.work_samples)
    grid = np.geomspace(lo, hi, cfg.lambda_points)
    x_probe = float(rng.uniform(lo, hi))
    intervals, sweeps = [], []
    for _ in range(cfg.pcli3_intervals):
        a_s, b_s = np.sort(rng.uniform(lo, hi, 2))
        if b_s - a_s < 0.05 * (hi - lo):
            b_s = min(hi, a_s + 0.05 * (hi - lo))
        intervals.append((a_s, b_s))
        sweeps.append(np.linspace(a_s, b_s, cfg.sweep_points))
    segments = [(xs, xs), (grid, grid)]
    segments += [(np.full_like(svals, x_probe), svals) for svals in sweeps]
    x_all, s_all = (np.concatenate(parts) for parts in zip(*segments))
    sums = marginal_sums_batch(p, beta, cost, x_all, s_all, T)
    cuts = np.cumsum([len(s) for _, s in segments])[:-1]
    num, den = np.split(sums.cost, cuts), np.split(sums.work, cuts)

    # PCLI1: marginal work at s = x stays above its discounted lower bound.
    work = den[0]
    bound = work_floor(gap, beta, T)
    margin = float(np.min(work - bound))
    report["pcli1"] = {
        "samples": cfg.work_samples,
        "bound": bound,
        "min_margin": margin,
        "ok": bool(margin >= -1e-9),
    }

    # PCLI2: non-decreasing index and a sampled continuity modulus.
    lam = num[1] / den[1]
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
    # A length-t itinerary changes between neighbouring thresholds when any
    # of the first t rows of one long action matrix does.
    sweep = np.linspace(lo, hi, cfg.sweep_points)
    acts = _action_matrix(p, x_probe, sweep, max(cfg.itinerary_lengths))
    changed = np.logical_or.accumulate(acts[:, 1:] != acts[:, :-1], axis=0)
    counts = [int(np.sum(changed[t_len - 1])) for t_len in cfg.itinerary_lengths]
    tlog = np.log(np.asarray(cfg.itinerary_lengths, dtype=float))
    clog = np.log(np.maximum(1.0, np.asarray(counts, dtype=float)))
    slope = float(np.polyfit(tlog, clog, 1)[0])
    report["discontinuities"] = {
        "lengths": list(cfg.itinerary_lengths),
        "counts": counts,
        "fitted_exponent": slope,
        "ok": bool(slope <= SLOPE_LIMIT),
    }

    # PCLI3: c_x(b) - c_x(a) equals the index-weighted sum of work jumps.
    # The second batch steps the index orbits at the jumps of every sweep.
    dws = [np.diff(mwork) for mwork in den[2:]]
    jumps = [np.flatnonzero(dw != 0.0) for dw in dws]
    s_jump = np.concatenate([np.empty(0)] + [sv[j] for sv, j in zip(sweeps, jumps)])
    at_jumps = marginal_sums_batch(p, beta, cost, s_jump, s_jump, T)
    lams = np.split(at_jumps.cost / at_jumps.work, np.cumsum([j.size for j in jumps])[:-1])
    checks = []
    for (a_s, b_s), mcost, dw, j, lam_j in zip(intervals, num[2:], dws, jumps, lams):
        terms = np.zeros_like(dw)
        terms[j] = lam_j * dw[j]
        lhs = float(mcost[-1] - mcost[0])
        rhs = float(np.sum(terms))
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


def _action_matrix(
    p: ArmParams, x: float, thresholds: np.ndarray, t_len: int
) -> np.ndarray:
    """Actions A_{1:t}(x, a0-free; s) for every threshold in the sweep."""
    coef = map_coefficients(p)
    v = np.full_like(thresholds, x)
    acts = np.empty((t_len, len(thresholds)), dtype=np.int8)
    for t in range(t_len):
        a = v >= thresholds
        acts[t] = a
        v = batch_map(coef, a, v)
    return acts


@dataclass(frozen=True)
class CrossValidation:
    """One oracle-vs-index comparison at a price straddling lambda(x*).

    ``values`` are the lower-price solve's values, a warm start for the
    next cross-check; they take no part in comparisons.
    """

    x_star: float
    lam: float
    delta: float
    action_above: int
    action_below: int
    threshold_ok: bool
    values: np.ndarray = field(compare=False, repr=False)


def cross_validate(
    params: ArmParams,
    cost: CostFn,
    beta: float,
    x_star: float,
    grid: DPGrid,
    start: Optional[np.ndarray] = None,
) -> CrossValidation:
    """Set nu = lambda(x*) +/- delta and confirm the DP on ``grid`` flips the action at x*.

    delta is ten grid cells of index variation, estimated from a local
    finite difference; both DP solutions must be threshold policies.  The
    comparison reads only the action at x*'s grid point k and whether each
    policy is a threshold policy, so both solves stop once those are
    certified (``actions_only``, ``exact_at=k``).  The higher-price DP
    starts from ``start`` (zeros by default), and the lower-price DP from
    the higher-price solution's values, which are close to its own.  The
    certificate holds from any start, so only ``values`` depend on
    ``start``; a nearby start, such as the ``values`` of the cross-check at
    the next higher x*, takes fewer sweeps.
    """
    rec = whittle_index(IndexQuery(params, cost, beta, x_star))
    pts = grid.points
    k = min(max(int(np.searchsorted(pts, x_star)), 1), grid.n - 2)
    cell = pts[k + 1] - pts[k]
    h = max(cell, 1e-6 * (1.0 + abs(x_star)))
    lam_hi = whittle_index(IndexQuery(params, cost, beta, x_star + h)).lam
    lam_lo = whittle_index(IndexQuery(params, cost, beta, max(grid.lo, x_star - h))).lam
    slope = abs(lam_hi - lam_lo) / (2.0 * h)
    delta = max(10.0 * cell * slope, 1e-6 * max(1.0, abs(rec.lam)))
    sol_above = value_iteration(
        params, cost, beta, rec.lam + delta, grid, start=start,
        actions_only=True, exact_at=k,
    )
    sol_below = value_iteration(
        params, cost, beta, rec.lam - delta, grid, start=sol_above.values,
        actions_only=True, exact_at=k,
    )
    return CrossValidation(
        x_star=x_star,
        lam=rec.lam,
        delta=delta,
        action_above=int(sol_above.actions[k]),
        action_below=int(sol_below.actions[k]),
        threshold_ok=dp_threshold(sol_above).is_threshold
        and dp_threshold(sol_below).is_threshold,
        values=sol_below.values,
    )


def verify(
    params: ArmParams, cost: CostFn, beta: float, *, seed: int, cross_checks: int, grid_n: int
) -> dict:
    """:func:`pcli_report` plus :func:`cross_validate` at random x*; findings are data.

    Sums that could overflow on the orbits of the report or of the DP grid
    (:func:`default_grid`, ``grid_n`` points) raise ValueError first.  The
    x* are drawn with ``seed``, checked from the highest (the highest
    price) down, each DP warm-started from the last, and listed as drawn.
    The grid spans [1e-4 y1, 4 y0], so r = 1, a0 = 0 gets no cross-checks.
    ``ok`` holds when the report's does and each cross-check flips between
    two threshold policies.
    """
    cfg = PcliConfig(seed=seed)
    lo, hi = state_bounds(params, cfg)
    grid = default_grid(params, n=grid_n) if math.isfinite(y0(params)) else None
    v_lo, v_hi = (lo, hi) if grid is None else (min(lo, grid.lo), max(hi, grid.hi))
    check_discounted_sums(params, cost, beta, v_lo, v_hi)
    report = pcli_report(params, cost, beta, cfg)
    cvs = []
    if grid is not None:
        x_stars = np.random.default_rng(seed).uniform(lo, min(hi, grid.hi * 0.5), cross_checks)
        cvs, values = [None] * len(x_stars), None
        for j in np.argsort(-x_stars, kind="stable"):
            cvs[j] = cross_validate(params, cost, beta, float(x_stars[j]), grid, start=values)
            values = cvs[j].values
    crosses = [{"x_star": cv.x_star, "lambda": cv.lam, "delta": cv.delta,
                "action_at_higher_price": cv.action_above,
                "action_at_lower_price": cv.action_below,
                "flip_ok": cv.action_above == 0 and cv.action_below == 1,
                "threshold_ok": cv.threshold_ok} for cv in cvs]
    ok = bool(report["ok"] and all(c["flip_ok"] and c["threshold_ok"] for c in crosses))
    return {"command": "verify", "pcli": report, "cross_validation": crosses, "ok": ok}
