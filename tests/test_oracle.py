"""Value-iteration oracle, threshold extraction, PCLI suite, majorisation."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from obsched import costs, oracle
from obsched.dynamics import (
    ArmParams,
    InconsistencyError,
    check_discounted_sums,
    moebius_matrix,
    phi,
    phi0,
    phi1,
    phi_word,
    y0,
    y1,
)
from obsched.index import (
    IndexQuery,
    cost_gap,
    marginal_sums_batch,
    truncation_horizon,
    whittle_index,
)
from obsched.oracle import (
    DPGrid,
    DPSolution,
    SLOPE_LIMIT,
    PcliConfig,
    _action_matrix,
    cross_validate,
    default_grid,
    dp_threshold,
    majorisation_check,
    pcli_report,
    state_bounds,
    value_iteration,
)
from obsched.words import Word, central_palindrome, christoffel, farey


def random_params(rng, r_lo=0.4, r_hi=0.98, a1_max=2.0):
    r = float(rng.uniform(r_lo, r_hi))
    a0 = float(rng.uniform(0.0, 0.4))
    a1 = a0 + float(rng.uniform(0.1, a1_max))
    return ArmParams(r=r, a0=a0, a1=a1)


def reference_pcli_report(params, cost, beta, cfg):
    """The PCLI report with one kernel call per section and sweep, as the
    bitwise reference: PCLI1, PCLI2 and, per PCLI3 interval, a marginal
    sweep at x = x_probe and an index sweep at s = x, with one action
    matrix per itinerary length."""
    rng = np.random.default_rng(cfg.seed)
    lo, hi = state_bounds(params, cfg)
    gap = cost_gap(params)
    T = truncation_horizon(beta)
    p = params

    def sums(x, s):
        return marginal_sums_batch(p, beta, cost, x, s, T)

    report = {"params": {"r": p.r, "a0": p.a0, "a1": p.a1, "beta": beta,
                         "cost": cost.kind, "condition_c": cost.condition_c}}
    xs = rng.uniform(lo, hi, cfg.work_samples)
    _, work, _, _ = sums(xs, xs)
    slack = gap * beta ** (T + 1) / max(1e-300, 1.0 - beta)
    bound = (1.0 - beta) * gap - slack
    margin = float(np.min(work - bound))
    report["pcli1"] = {"samples": cfg.work_samples, "bound": bound,
                       "min_margin": margin, "ok": bool(margin >= -1e-9)}
    grid = np.geomspace(lo, hi, cfg.lambda_points)
    num, den, _, _ = sums(grid, grid)
    dlam = np.diff(num / den)
    tol = 1e-9 + beta ** (T + 1) / (1.0 - beta) if beta > 0 else 1e-9
    violations = int(np.sum(dlam < -tol))
    report["pcli2"] = {
        "grid_points": cfg.lambda_points,
        "violations": violations,
        "worst_decrease": float(np.min(dlam)) if len(dlam) else 0.0,
        "max_slope_sampled": float(np.max(np.abs(dlam) / np.diff(grid))),
        "ok": violations == 0,
    }
    x_probe = float(rng.uniform(lo, hi))
    sweep = np.linspace(lo, hi, cfg.sweep_points)
    counts = []
    for t_len in cfg.itinerary_lengths:
        acts = _action_matrix(p, x_probe, sweep, t_len)
        counts.append(int(np.sum(np.any(acts[:, 1:] != acts[:, :-1], axis=0))))
    tlog = np.log(np.asarray(cfg.itinerary_lengths, dtype=float))
    clog = np.log(np.maximum(1.0, np.asarray(counts, dtype=float)))
    slope = float(np.polyfit(tlog, clog, 1)[0])
    report["discontinuities"] = {"lengths": list(cfg.itinerary_lengths),
                                 "counts": counts, "fitted_exponent": slope,
                                 "ok": bool(slope <= SLOPE_LIMIT)}
    checks = []
    for _ in range(cfg.pcli3_intervals):
        a_s, b_s = np.sort(rng.uniform(lo, hi, 2))
        if b_s - a_s < 0.05 * (hi - lo):
            b_s = min(hi, a_s + 0.05 * (hi - lo))
        svals = np.linspace(a_s, b_s, cfg.sweep_points)
        mcost, mwork, _, _ = sums(np.full_like(svals, x_probe), svals)
        num, den, _, _ = sums(svals, svals)
        lhs = float(mcost[-1] - mcost[0])
        rhs = float(np.sum((num / den)[:-1] * np.diff(mwork)))
        scale = max(1.0, abs(lhs), abs(rhs))
        checks.append({"a": float(a_s), "b": float(b_s), "lhs": lhs, "rhs": rhs,
                       "rel_err": abs(lhs - rhs) / scale})
    report["pcli3"] = {"checks": checks, "rel_tol": 2e-2,
                       "ok": bool(all(c["rel_err"] <= 2e-2 for c in checks))}
    report["ok"] = bool(report["pcli1"]["ok"] and report["pcli2"]["ok"]
                        and report["discontinuities"]["ok"] and report["pcli3"]["ok"])
    return report


class TestGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            DPGrid(2.0, 1.0)
        with pytest.raises(ValueError):
            DPGrid(1.0, 2.0, n=8)
        with pytest.raises(ValueError):
            DPGrid(0.0, 2.0, spacing="log")
        with pytest.raises(ValueError):
            DPGrid(1.0, 2.0, spacing="cubic")

    def test_default_grid_brackets_fixed_points(self):
        p = ArmParams(r=0.9, a0=0.1, a1=1.0)
        g = default_grid(p)
        pts = g.points()
        assert pts[0] < y1(p) < y0(p) < pts[-1]

    def test_default_grid_rejects_infinite_y0(self):
        with pytest.raises(ValueError):
            default_grid(ArmParams(r=1.0, a0=0.0, a1=1.0))

    @pytest.mark.parametrize(
        "spacing, make", [("log", np.geomspace), ("linear", np.linspace)]
    )
    def test_points_computed_once_and_read_only(self, spacing, make):
        g = DPGrid(0.1, 10.0, 128, spacing)
        pts = g.points()
        assert g.points() is pts
        np.testing.assert_array_equal(pts, make(0.1, 10.0, 128))
        assert not pts.flags.writeable
        with pytest.raises(ValueError):
            pts[0] = 1.0


class TestValueIteration:
    def test_extreme_prices_give_extreme_policies(self):
        p = ArmParams(r=0.9, a0=0.0, a1=1.0)
        g = default_grid(p, n=256)
        beta = 0.9
        lam_hi = whittle_index(IndexQuery(p, costs.linear(), beta, g.hi)).lam
        sol = value_iteration(p, costs.linear(), beta, lam_hi * 2.0 + 1.0, g)
        assert np.all(sol.actions == 0)
        assert dp_threshold(sol).threshold == math.inf
        sol = value_iteration(p, costs.linear(), beta, -0.5, g)
        assert np.all(sol.actions == 1)
        assert dp_threshold(sol).threshold == -math.inf

    def test_constant_cost_passive(self):
        p = ArmParams(r=0.9, a0=0.0, a1=1.0)
        sol = value_iteration(p, costs.constant(2.0), 0.9, 0.3, default_grid(p, n=128))
        assert np.all(sol.actions == 0)

    def test_beta0_one_step(self):
        p = ArmParams(r=0.9, a0=0.0, a1=1.0)
        sol = value_iteration(p, costs.linear(), 0.0, 0.5, default_grid(p, n=128))
        assert np.all(sol.actions == 0)
        np.testing.assert_allclose(sol.values, sol.grid.points(), rtol=1e-12)

    def test_value_sandwich(self):
        # V must lie between the all-active and all-passive policy values.
        p = ArmParams(r=0.8, a0=0.1, a1=1.0)
        beta, nu = 0.85, 0.4
        g = default_grid(p, n=512)
        sol = value_iteration(p, costs.linear(), beta, nu, g)
        from obsched.index import q_value

        for k in (10, 200, 400):
            x = float(g.points()[k])
            best_threshold = min(
                q_value(p, costs.linear(), beta, nu, x, a, s)
                for a in (0, 1)
                for s in (-math.inf, math.inf, 0.5 * (y1(p) + y0(p)))
            )
            assert sol.values[k] <= best_threshold + 1e-3

    def test_budget_exhausted_is_inconsistency(self):
        p = ArmParams(r=0.9, a0=0.0, a1=1.0)
        g = default_grid(p, n=128)
        with pytest.raises(InconsistencyError, match="did not converge in 1 sweeps"):
            value_iteration(p, costs.linear(), 0.9, 0.5, g, max_iter=1)

    def test_warm_start(self):
        p = ArmParams(r=0.8, a0=0.1, a1=1.0)
        g = default_grid(p, n=256)
        sol = value_iteration(p, costs.entropy(), 0.9, 0.4, g)
        again = value_iteration(p, costs.entropy(), 0.9, 0.4, g, start=sol.values)
        assert again.iterations == 1
        # From any other start: more sweeps, the same answer, and the start
        # array is left as it was.
        start = np.linspace(-3.0, 5.0, g.n)
        kept = start.copy()
        warm = value_iteration(p, costs.entropy(), 0.9, 0.4, g, start=start)
        assert warm.iterations > 1
        assert start.tobytes() == kept.tobytes()
        for other in (again, warm):
            assert other.actions.tobytes() == sol.actions.tobytes()
            assert np.max(np.abs(other.values - sol.values)) <= 1e-9
        # A start of the wrong length fails instead of being clipped.
        with pytest.raises(ValueError):
            value_iteration(p, costs.entropy(), 0.9, 0.4, g, start=start[:-1])


def reference_bellman(params, cost, beta, nu, grid):
    """The sweep as first written: per-sweep fancy indexing, no buffers.

    Returns T, where T(V) is the Bellman image TV and the greedy actions.
    """
    pts = grid.points()
    stage = cost.eval(pts)
    img0 = np.clip(phi0(params, pts), grid.lo, grid.hi)
    img1 = np.clip(phi1(params, pts), grid.lo, grid.hi)
    idx0 = np.clip(np.searchsorted(pts, img0) - 1, 0, grid.n - 2)
    idx1 = np.clip(np.searchsorted(pts, img1) - 1, 0, grid.n - 2)
    frac0 = (img0 - pts[idx0]) / (pts[idx0 + 1] - pts[idx0])
    frac1 = (img1 - pts[idx1]) / (pts[idx1 + 1] - pts[idx1])
    w0 = nu * params.c0
    w1 = nu * params.c1

    def T(V):
        cont0 = V[idx0] * (1.0 - frac0) + V[idx0 + 1] * frac0
        cont1 = V[idx1] * (1.0 - frac1) + V[idx1 + 1] * frac1
        q0 = w0 + stage + beta * cont0
        q1 = w1 + stage + beta * cont1
        actions = (w1 + beta * cont1 <= w0 + beta * cont0).astype(np.int64)
        return np.minimum(q0, q1), actions

    return T


def reference_value_iteration(params, cost, beta, nu, grid, tol=1e-9):
    """Plain value iteration from zero, stopped on the sup norm of TV - V."""
    T = reference_bellman(params, cost, beta, nu, grid)
    stop = tol if beta == 0.0 else tol * (1.0 - beta) / (2.0 * beta)
    V = np.zeros(grid.n)
    it = 0
    while True:
        it += 1
        V_new, _ = T(V)
        resid = float(np.max(np.abs(V_new - V)))
        V = V_new
        if resid < stop:
            break
    return DPSolution(grid, nu, V, T(V)[1], it, resid)


def assert_matches_reference(params, cost, beta, nu, grid, tol=1e-9):
    """One sweep equals the reference sweep bit for bit; a full solve has
    the plain iteration's actions and values, within its certified bound."""
    T = reference_bellman(params, cost, beta, nu, grid)
    ref = reference_value_iteration(params, cost, beta, nu, grid, tol)
    # A single sweep from ref's values (tol = inf stops after it), shifted
    # by the midpoint of the span bounds as value_iteration returns it.
    one = value_iteration(params, cost, beta, nu, grid, tol=math.inf, start=ref.values)
    TV, _ = T(ref.values)
    diff = TV - ref.values
    gain = beta / (1.0 - beta)
    lo, hi = float(diff.min()), float(diff.max())
    TV += gain * 0.5 * (hi + lo)
    assert one.iterations == 1
    assert one.residual == gain * 0.5 * (hi - lo)
    assert one.values.tobytes() == TV.tobytes()
    assert one.actions.tobytes() == T(TV)[1].tobytes()

    sol = value_iteration(params, cost, beta, nu, grid, tol=tol)
    assert sol.actions.tobytes() == ref.actions.tobytes()
    assert np.max(np.abs(sol.values - ref.values)) <= tol
    assert sol.residual < tol / 2
    tight = reference_value_iteration(params, cost, beta, nu, grid, tol / 1000)
    slack = tol / 1000 + 1e-13 * max(1.0, float(np.max(np.abs(tight.values))))
    assert np.max(np.abs(sol.values - tight.values)) <= sol.residual + slack


class TestSweepMatchesReference:
    """The buffered sweep gives the reference sweep's floats, bit for bit,
    and the span stop certifies what plain iteration finds."""

    COSTS = (costs.linear(), costs.entropy(), costs.power(0.5), costs.bounded_demo())

    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(900 + seed)
        p = random_params(rng).with_costs(float(rng.uniform(0, 0.5)), 1.0)
        cost = self.COSTS[seed % len(self.COSTS)]
        beta = float(rng.choice([0.0, rng.uniform(0.3, 0.9)]))
        spacing = "linear" if seed % 2 else "log"
        top = y0(p)
        # Grids that stop short of y1 and y0 clip images at both ends.
        grid = DPGrid(
            float(rng.uniform(0.5, 1.5)) * y1(p),
            float(rng.uniform(0.7, 4.0)) * top,
            n=int(rng.integers(64, 300)),
            spacing=spacing,
        )
        lam = whittle_index(IndexQuery(p, cost, max(beta, 0.1), 0.5 * (y1(p) + top))).lam
        for nu in (lam, -0.3, 3.0 * abs(lam) + 1.0):
            assert_matches_reference(p, cost, beta, nu, grid)

    @pytest.mark.parametrize("beta", [0.0, 0.8])
    @pytest.mark.parametrize("spacing", ["log", "linear"])
    def test_clipped_at_both_ends_and_noiseless(self, beta, spacing):
        p = ArmParams(r=0.9, a0=0.0, a1=math.inf)
        grid = DPGrid(0.05, 0.5 * y0(p), n=128, spacing=spacing)
        pts = grid.points()
        assert phi1(p, pts).max() < grid.lo
        assert phi0(p, pts).max() > grid.hi
        for nu in (0.05, 0.5, 2.0):
            assert_matches_reference(p, costs.linear(), beta, nu, grid)


class TestCertifiedActions:
    """``actions_only`` stops once MacQueen's bounds certify the greedy
    actions: the same actions as the span-stopped solve, in no more sweeps."""

    ADMISSIBLE = (
        costs.linear(), costs.entropy(), costs.neg_precision(), costs.power(0.5)
    )

    @pytest.mark.parametrize("cost", ADMISSIBLE, ids=lambda c: c.kind)
    @given(
        r=st.floats(0.4, 0.98),
        a0=st.floats(0.0, 0.4),
        gap=st.one_of(st.floats(0.1, 2.0), st.just(math.inf)),
        beta=st.sampled_from([0.0, 0.5, 0.9, 0.97]),
        u=st.floats(0.1, 0.9),
        price=st.floats(-0.3, 0.3),
        warm=st.sampled_from([None, "zeros", "other_price", "noise"]),
    )
    @settings(max_examples=8, deadline=None, derandomize=True)
    def test_same_actions_in_no_more_sweeps(self, cost, r, a0, gap, beta, u, price, warm):
        # A noiseless observation (a1 = inf) leaves variance 0, outside the
        # domain of the costs that are undefined there.
        assume(math.isfinite(gap) or not cost.positive_only)
        p = ArmParams(r=r, a0=a0, a1=a0 + gap)
        g = default_grid(p, n=256)
        x_star = y1(p) + u * (y0(p) - y1(p))
        lam = whittle_index(IndexQuery(p, cost, max(beta, 0.1), x_star)).lam
        nu = lam + price * max(1.0, abs(lam))
        if warm is None:
            start = None
        elif warm == "zeros":
            start = np.zeros(g.n)
        elif warm == "other_price":
            start = value_iteration(p, cost, beta, 1.1 * nu + 0.1, g).values
        else:
            start = np.random.default_rng(5).uniform(-5.0, 5.0, g.n)
        full = value_iteration(p, cost, beta, nu, g, start=start)
        fast = value_iteration(p, cost, beta, nu, g, start=start, actions_only=True)
        assert fast.actions.tobytes() == full.actions.tobytes()
        assert fast.iterations <= full.iterations
        # Both value arrays are within their certified bounds of V*.
        scale = 1e-12 * max(1.0, float(np.max(np.abs(full.values))))
        assert np.max(np.abs(fast.values - full.values)) <= (
            fast.residual + full.residual + scale
        )
        if fast.iterations > 1:
            with pytest.raises(InconsistencyError, match="did not converge"):
                value_iteration(
                    p, cost, beta, nu, g, start=start,
                    max_iter=fast.iterations - 1, actions_only=True,
                )

    def test_stops_early_on_a_clear_policy(self):
        # Far from any tie the actions are certified long before the span
        # stop; the values returned are the midpoint at that sweep.
        p = ArmParams(r=0.8, a0=0.1, a1=1.0)
        g = default_grid(p, n=256)
        full = value_iteration(p, costs.linear(), 0.95, 0.4, g)
        fast = value_iteration(p, costs.linear(), 0.95, 0.4, g, actions_only=True)
        assert fast.iterations < full.iterations // 2
        assert fast.residual >= 0.5e-9
        assert fast.actions.tobytes() == full.actions.tobytes()
        assert np.max(np.abs(fast.values - full.values)) <= fast.residual + 1e-9

    def test_tie_falls_back_to_the_span_stop(self):
        # A constant cost at price 0 ties both actions at V* (a constant):
        # no certificate exists, so the solve is the span-stopped one,
        # float for float.
        p = ArmParams(r=0.9, a0=0.0, a1=1.0)
        g = default_grid(p, n=128)
        start = np.linspace(0.0, 1.0, g.n)
        full = value_iteration(p, costs.constant(1.0), 0.9, 0.0, g, start=start)
        fast = value_iteration(
            p, costs.constant(1.0), 0.9, 0.0, g, start=start, actions_only=True
        )
        assert fast.iterations == full.iterations > 10
        assert fast.residual == full.residual
        assert fast.values.tobytes() == full.values.tobytes()
        assert fast.actions.tobytes() == full.actions.tobytes()


class TestCertifiedPrintedPoint:
    """``exact_at=k`` lets one point other than k stay uncertified between
    neighbours with different actions: the action at k and the threshold
    flag are still the span-stopped solve's, in no more sweeps than
    ``actions_only`` alone."""

    @pytest.mark.parametrize("cost", TestCertifiedActions.ADMISSIBLE, ids=lambda c: c.kind)
    @given(
        r=st.floats(0.4, 0.98),
        a0=st.floats(0.0, 0.4),
        gap=st.one_of(st.floats(0.1, 2.0), st.just(math.inf)),
        beta=st.sampled_from([0.0, 0.5, 0.9, 0.97]),
        u=st.floats(0.1, 0.9),
        price=st.one_of(st.floats(-0.3, 0.3), st.floats(-1e-3, 1e-3)),
        warm=st.sampled_from([None, "other_price", "noise"]),
        at=st.one_of(st.just("x_star"), st.integers(0, 255)),
    )
    @settings(max_examples=12, deadline=None, derandomize=True)
    def test_printed_action_and_flag_in_no_more_sweeps(
        self, cost, r, a0, gap, beta, u, price, warm, at
    ):
        assume(math.isfinite(gap) or not cost.positive_only)
        p = ArmParams(r=r, a0=a0, a1=a0 + gap)
        g = default_grid(p, n=256)
        x_star = y1(p) + u * (y0(p) - y1(p))
        lam = whittle_index(IndexQuery(p, cost, max(beta, 0.1), x_star)).lam
        nu = lam + price * max(1.0, abs(lam))
        if warm is None:
            start = None
        elif warm == "other_price":
            start = value_iteration(p, cost, beta, 1.1 * nu + 0.1, g).values
        else:
            start = np.random.default_rng(5).uniform(-5.0, 5.0, g.n)
        # x*'s grid point, as cross_validate reads it, sits at the switch.
        k = min(max(int(np.searchsorted(g.points(), x_star)), 1), g.n - 2)
        k = k if at == "x_star" else at
        full = value_iteration(p, cost, beta, nu, g, start=start)
        fast = value_iteration(p, cost, beta, nu, g, start=start, actions_only=True)
        exact = value_iteration(
            p, cost, beta, nu, g, start=start, actions_only=True, exact_at=k
        )
        assert exact.actions[k] == full.actions[k]
        assert dp_threshold(exact).is_threshold == dp_threshold(full).is_threshold
        assert exact.iterations <= fast.iterations
        moved = np.flatnonzero(exact.actions != full.actions)
        assert len(moved) <= 1
        assert all(0 < i < g.n - 1 and i != k for i in moved)

    def test_one_open_point_at_the_switch_stops_earlier(self):
        # At x*'s index price the policy switches at x*'s grid point k, so
        # the smallest Q-gaps sit beside k; the exact_at solve stops before
        # the every-point test has certified them all.
        p = ArmParams(r=0.9, a0=0.0, a1=0.8)
        g = default_grid(p, n=256)
        lam = whittle_index(IndexQuery(p, costs.linear(), 0.8, 2.0)).lam
        k = int(np.searchsorted(g.points(), 2.0))
        full = value_iteration(p, costs.linear(), 0.8, lam, g)
        fast = value_iteration(p, costs.linear(), 0.8, lam, g, actions_only=True)
        exact = value_iteration(
            p, costs.linear(), 0.8, lam, g, actions_only=True, exact_at=k
        )
        assert exact.iterations < fast.iterations < full.iterations
        assert exact.actions[k] == full.actions[k]
        assert dp_threshold(exact).is_threshold and dp_threshold(full).is_threshold

    def test_the_every_point_schedule_is_kept(self):
        # Here a measurement triggered by the second-smallest margin alone
        # would miss the sweep where actions_only stops (19 sweeps, not 8).
        p = ArmParams(r=0.8762087763467148, a0=0.21053728765347676, a1=2.125132441948639)
        g = default_grid(p, n=256)
        nu = 0.6544977139220106
        fast = value_iteration(p, costs.entropy(), 0.5, nu, g, actions_only=True)
        exact = value_iteration(
            p, costs.entropy(), 0.5, nu, g, actions_only=True, exact_at=213
        )
        assert exact.iterations <= fast.iterations

    @staticmethod
    def prices_around_flip(holds, lo, hi):
        """Prices just below and just above where holds(nu) turns false."""
        assert holds(lo) and not holds(hi)
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            if holds(mid):
                lo = mid
            else:
                hi = mid
        return lo, hi

    def test_the_printed_point_is_never_left_open(self):
        # At a price where the action at k ties, the one open point may not
        # be k: from every start, k's action is the span-stopped solve's.
        p = ArmParams(r=0.9, a0=0.0, a1=0.8)
        g = default_grid(p, n=256)
        k = int(np.searchsorted(g.points(), 2.0))
        lam = whittle_index(IndexQuery(p, costs.linear(), 0.8, 2.0)).lam

        def active_at_k(nu):
            return value_iteration(p, costs.linear(), 0.8, nu, g).actions[k] == 1

        for nu in self.prices_around_flip(active_at_k, 0.8 * lam, 1.3 * lam):
            for seed in range(20):
                start = np.random.default_rng(seed).uniform(-5.0, 5.0, g.n)
                full = value_iteration(p, costs.linear(), 0.8, nu, g, start=start)
                exact = value_iteration(
                    p, costs.linear(), 0.8, nu, g, start=start, actions_only=True,
                    exact_at=k,
                )
                assert exact.actions[k] == full.actions[k]

    def test_a_tie_between_equal_actions_is_never_left_open(self):
        # A cost bump at v = 3 makes observing pay on an island of states
        # whose passive image lands on it.  At the price where the island
        # shrinks to one point and vanishes, that point ties between two
        # passive neighbours; its action decides the threshold flag.
        p = ArmParams(r=0.9, a0=0.0, a1=0.8)
        g = DPGrid(0.05, 8.0, n=128)
        bump = costs.custom(lambda v: 50.0 * np.exp(-(((v - 3.0) / 0.2) ** 2)))

        def island(nu):
            return value_iteration(p, bump, 0.8, nu, g).actions.any()

        for nu in self.prices_around_flip(island, 20.0, 60.0):
            for seed in range(12):
                start = np.random.default_rng(seed).uniform(-5.0, 5.0, g.n)
                full = value_iteration(p, bump, 0.8, nu, g, start=start)
                exact = value_iteration(
                    p, bump, 0.8, nu, g, start=start, actions_only=True, exact_at=10
                )
                assert dp_threshold(exact).is_threshold == dp_threshold(full).is_threshold


class TestActionMatrix:
    @pytest.mark.parametrize("a1", [0.8, math.inf])
    def test_matches_scalar_stepping(self, a1):
        p = ArmParams(r=0.9, a0=0.05, a1=a1)
        x = 1.7
        thresholds = np.linspace(0.05, 6.0, 101)
        acts = _action_matrix(p, x, thresholds, 12)
        for j, s in enumerate(thresholds):
            v = x
            for t in range(12):
                a = int(v >= s)
                assert acts[t, j] == a
                v = phi(p, a, v)


class TestDpThreshold:
    def test_interior_threshold_matches_index(self):
        rng = np.random.default_rng(31)
        for _ in range(3):
            p = random_params(rng)
            beta = float(rng.uniform(0.6, 0.9))
            lo, hi = y1(p), y0(p)
            x_star = float(rng.uniform(lo + 0.2 * (hi - lo), hi - 0.2 * (hi - lo)))
            lam = whittle_index(IndexQuery(p, costs.linear(), beta, x_star)).lam
            g = default_grid(p, n=2048)
            sol = value_iteration(p, costs.linear(), beta, lam, g)
            rep = dp_threshold(sol)
            assert rep.is_threshold
            pts = g.points()
            k = int(np.searchsorted(pts, x_star))
            cell = pts[min(k + 1, g.n - 1)] - pts[max(k - 1, 0)]
            assert abs(rep.threshold - x_star) <= 2.0 * cell

    def test_non_threshold_reported(self):
        p = ArmParams(r=0.9, a0=0.0, a1=1.0)
        g = DPGrid(0.1, 10.0, n=64)
        sol = value_iteration(p, costs.linear(), 0.5, 0.2, g)
        broken = sol.__class__(
            grid=sol.grid,
            nu=sol.nu,
            values=sol.values,
            actions=np.array([0, 1] * 32),
            iterations=sol.iterations,
            residual=sol.residual,
        )
        rep = dp_threshold(broken)
        assert not rep.is_threshold
        assert rep.switches > 1


def cross_validation_instances():
    rng = np.random.default_rng(32)
    for _ in range(5):
        p = random_params(rng)
        beta = float(rng.uniform(0.5, 0.95))
        lo, hi = y1(p), y0(p)
        x_star = float(rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo)))
        yield p, beta, x_star


class TestCrossValidation:
    def test_action_flip(self):
        for p, beta, x_star in cross_validation_instances():
            cv = cross_validate(p, costs.linear(), beta, x_star)
            assert cv.action_above == 0
            assert cv.action_below == 1
            assert cv.threshold_ok

    def test_warm_start_matches_cold_solves(self, monkeypatch):
        warm = [
            cross_validate(p, costs.linear(), beta, x_star)
            for p, beta, x_star in cross_validation_instances()
        ]
        solve = oracle.value_iteration

        def cold(*args, start=None, **kwargs):
            return solve(*args, **kwargs)

        monkeypatch.setattr(oracle, "value_iteration", cold)
        for cv, (p, beta, x_star) in zip(warm, cross_validation_instances()):
            assert cv == cross_validate(p, costs.linear(), beta, x_star)

    ADMISSIBLE = (
        costs.linear(), costs.entropy(), costs.neg_precision(), costs.power(0.5)
    )

    @pytest.mark.parametrize("cost", ADMISSIBLE, ids=lambda c: c.kind)
    @given(
        r=st.floats(0.4, 0.98),
        a0=st.floats(0.0, 0.4),
        gap=st.one_of(st.floats(0.1, 2.0), st.just(math.inf)),
        beta=st.floats(0.5, 0.95),
        u=st.floats(0.1, 0.9),
    )
    @settings(max_examples=6, deadline=None, derandomize=True)
    def test_dp_flips_at_the_index(self, cost, r, a0, gap, beta, u):
        # For an admissible cost the priced DP is passive at x* just above
        # the index lambda(x*) and active just below, by a threshold policy.
        # A noiseless observation (a1 = inf) leaves variance 0, outside the
        # domain of the costs that are undefined there.
        assume(math.isfinite(gap) or not cost.positive_only)
        p = ArmParams(r=r, a0=a0, a1=a0 + gap)
        lo, hi = y1(p), y0(p)
        x_star = lo + u * (hi - lo)
        cv = cross_validate(p, cost, beta, x_star, default_grid(p, n=512))
        assert cv.action_above == 0
        assert cv.action_below == 1
        assert cv.threshold_ok


# Thresholds above y0 = 5.26 and an x_probe below an interval: neither
# forced first action ever reaches such a threshold again, so that
# interval's marginal work has no jump.
NO_JUMP = (ArmParams(r=0.9, a0=0.0, a1=math.inf), costs.linear(), 0.9)


def no_jump_config(seed):
    return PcliConfig(seed=seed, work_samples=20, lambda_points=40, sweep_points=300,
                      pcli3_intervals=2, state_lo=6.0, state_hi=40.0)


class TestPcli:
    def test_admissible_cost_passes(self):
        p = ArmParams(r=0.9, a0=0.0, a1=0.01)
        cfg = PcliConfig(work_samples=100, lambda_points=150, sweep_points=400)
        report = pcli_report(p, costs.linear(), 0.95, cfg)
        assert report["pcli1"]["ok"]
        assert report["pcli2"]["ok"]
        assert report["discontinuities"]["ok"]
        assert report["pcli3"]["ok"]
        assert report["ok"]

    def test_power_cost_fails_monotonicity(self):
        p = ArmParams(r=1.0, a0=0.0, a1=1.0)
        cfg = PcliConfig(
            work_samples=50, lambda_points=400, sweep_points=300,
            state_lo=0.05, state_hi=30.0,
        )
        report = pcli_report(p, costs.power(-1.5), 0.99, cfg)
        assert not report["pcli2"]["ok"]
        assert not report["ok"]

    def test_beta0_trivial(self):
        p = ArmParams(r=0.9, a0=0.0, a1=1.0)
        cfg = PcliConfig(work_samples=50, lambda_points=100, sweep_points=200)
        report = pcli_report(p, costs.linear(), 0.0, cfg)
        assert report["pcli1"]["ok"]
        assert report["ok"]

    def test_discontinuity_growth_polynomial(self):
        p = ArmParams(r=0.9, a0=0.05, a1=0.8)
        cfg = PcliConfig(sweep_points=3000, work_samples=20, lambda_points=60)
        report = pcli_report(p, costs.linear(), 0.9, cfg)
        assert report["discontinuities"]["fitted_exponent"] <= 4.5

    @pytest.mark.parametrize(
        "params, cost, beta, cfg",
        [
            (ArmParams(r=0.9, a0=0.0, a1=0.01), costs.linear(), 0.95,
             PcliConfig(work_samples=100, lambda_points=150, sweep_points=400)),
            (ArmParams(r=0.85, a0=0.1, a1=1.3), costs.entropy(), 0.9,
             PcliConfig(seed=7, work_samples=40, lambda_points=80, sweep_points=500,
                        itinerary_lengths=(3, 9, 5), pcli3_intervals=4)),
            (ArmParams(r=1.0, a0=0.0, a1=1.0), costs.power(-1.5), 0.99,
             PcliConfig(work_samples=50, lambda_points=200, sweep_points=300,
                        state_lo=0.05, state_hi=30.0)),
            (ArmParams(r=0.9, a0=0.0, a1=math.inf), costs.linear(), 0.8,
             PcliConfig(seed=3, work_samples=30, lambda_points=60, sweep_points=250,
                        pcli3_intervals=1)),
            (ArmParams(r=0.9, a0=0.0, a1=1.0), costs.neg_precision(), 0.0,
             PcliConfig(work_samples=50, lambda_points=100, sweep_points=200)),
            (ArmParams(r=0.95, a0=0.02, a1=0.5, c0=0.3, c1=2.0), costs.bounded_demo(), 0.9,
             PcliConfig(seed=11, work_samples=20, lambda_points=50, sweep_points=300,
                        pcli3_intervals=0, itinerary_lengths=(1, 2))),
            # Thresholds above y0 with x_probe below them: seed 6 has one
            # interval without a work jump, seed 0 has none at all.
            (*NO_JUMP, no_jump_config(6)),
            (*NO_JUMP, no_jump_config(0)),
            (ArmParams(r=0.9, a0=0.05, a1=0.8), costs.linear(), 0.9,
             PcliConfig(seed=5, work_samples=20, lambda_points=40, sweep_points=2,
                        pcli3_intervals=5)),
            (ArmParams(r=0.8, a0=0.1, a1=2.0), costs.entropy(), 0.0,
             PcliConfig(seed=9, work_samples=20, lambda_points=40, sweep_points=400)),
            (ArmParams(r=0.9, a0=0.0, a1=0.5), costs.power(-1.5), 0.9,
             PcliConfig(seed=2, work_samples=20, lambda_points=40, sweep_points=600)),
            (ArmParams(r=0.95, a0=0.05, a1=1.5), costs.power(-3.0), 0.95,
             PcliConfig(seed=4, work_samples=20, lambda_points=40, sweep_points=600,
                        state_lo=0.05, state_hi=20.0)),
        ],
    )
    def test_matches_separate_calls(self, params, cost, beta, cfg):
        # Batched kernel calls, with the fixed-x sweeps stepped as classes
        # and the index taken only at the work jumps, give the report of
        # separate calls over full sweeps exactly (floats compared by repr).
        want = reference_pcli_report(params, cost, beta, cfg)
        got = pcli_report(params, cost, beta, cfg)
        assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)

    def test_interval_without_jumps_sums_to_zero(self):
        checks = pcli_report(*NO_JUMP, no_jump_config(6))["pcli3"]["checks"]
        assert [c["rhs"] for c in checks].count(0.0) == 1
        for c in pcli_report(*NO_JUMP, no_jump_config(0))["pcli3"]["checks"]:
            assert c["rhs"] == 0.0 and c["lhs"] == 0.0

    @pytest.mark.parametrize(
        "params, cost, beta, cfg",
        [
            (ArmParams(r=0.9, a0=0.0, a1=0.01), costs.linear(), 0.95,
             PcliConfig(work_samples=100, lambda_points=150, sweep_points=400)),
            (*NO_JUMP, no_jump_config(6)),
            (*NO_JUMP, no_jump_config(0)),
        ],
    )
    def test_second_batch_steps_only_the_jumps(self, monkeypatch, params, cost, beta, cfg):
        calls = []

        def counting(*args):
            calls.append(args)
            return marginal_sums_batch(*args)

        monkeypatch.setattr(oracle, "marginal_sums_batch", counting)
        pcli_report(params, cost, beta, cfg)
        assert len(calls) == 2
        first, second = calls
        head = cfg.work_samples + cfg.lambda_points
        assert first[3].size == head + cfg.pcli3_intervals * cfg.sweep_points
        _, work, _, _ = marginal_sums_batch(*first)
        sweeps = work[head:].reshape(cfg.pcli3_intervals, cfg.sweep_points)
        jumps = int(np.count_nonzero(np.diff(sweeps, axis=1)))
        # Both forced first actions of each (s_j, s_j) step as orbits.
        assert 2 * np.broadcast(second[3], second[4]).size == 2 * jumps
        assert jumps < cfg.pcli3_intervals * (cfg.sweep_points - 1)

    def test_domain_error_message_unchanged(self):
        # a1 = inf takes active steps to variance 0, where entropy is undefined.
        p = ArmParams(r=0.9, a0=0.0, a1=math.inf)
        cfg = PcliConfig(work_samples=20, lambda_points=30, sweep_points=50)
        with pytest.raises(costs.CostDomainError) as want:
            reference_pcli_report(p, costs.entropy(), 0.9, cfg)
        with pytest.raises(costs.CostDomainError) as got:
            pcli_report(p, costs.entropy(), 0.9, cfg)
        assert str(got.value) == str(want.value)
        assert str(got.value) == "cost 'entropy' undefined at v = 0.0 (domain is (0, inf))"

    def test_overflowing_sums_raise_without_warnings(self):
        # At a1 = 1e300 the orbits reach 1/(a1 + 1) = 1e-300, where power(-3)
        # overflows: the report raises the overflow guard's error over its
        # own states, with no RuntimeWarning (warnings are errors here).
        p, cost = ArmParams(r=0.9, a0=0.0, a1=1e300), costs.power(-3.0)
        cfg = PcliConfig(work_samples=5, lambda_points=8, sweep_points=64)
        with pytest.raises(ValueError) as want:
            check_discounted_sums(p, cost, 0.9, *state_bounds(p, cfg))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^cost 'power\(-3\.0\)' is too large") as got:
                pcli_report(p, cost, 0.9, cfg)
        assert str(got.value) == str(want.value)


class TestMajorisation:
    def test_equal_sequences(self):
        res = majorisation_check([1.0, 2.0], [1.0, 2.0], [lambda u: 1 / u] * 2)
        assert res.hypotheses_ok
        assert res.holds
        assert res.lhs == pytest.approx(res.rhs)

    def test_single_term_example(self):
        res = majorisation_check([1.0], [2.0], [lambda u: 1.0 / u])
        assert res.hypotheses_ok
        assert res.holds
        assert res.lhs == pytest.approx(1.0)
        assert res.rhs == pytest.approx(0.5)

    def test_hypothesis_violation_reported(self):
        res = majorisation_check([2.0, 1.0], [1.0, 2.0], [lambda u: 1 / u] * 2)
        assert not res.hypotheses_ok
        assert any("non-decreasing" in f for f in res.hypothesis_failures)

    def test_integrated_sequences(self):
        # The c, d sequences of the palindromic-orbit lemma with
        # f_i(u) = beta^i / u^2 are exactly the monotonicity-step inputs.
        rng = np.random.default_rng(33)
        fracs = [f for f in farey(8) if f.denominator >= 2]
        for _ in range(50):
            f = fracs[rng.integers(len(fracs))]
            pal = central_palindrome(christoffel(f.numerator, f.denominator))
            p = random_params(rng)
            n_rep = int(rng.integers(0, 3))
            lo_x = phi_word(p, pal, 0.0)
            hi_x = phi_word(p, pal, 1.0 / (1.0 - p.r2))
            x = float(rng.uniform(lo_x, hi_x)) if hi_x > lo_x else lo_x
            w01 = Word("01") + pal
            w10 = Word("10") + pal
            c = []
            d = []
            for k in range(1, len(w01) + 1):
                m01 = moebius_matrix(p, w01 * n_rep + w01.prefix(k))
                m10 = moebius_matrix(p, w10 * n_rep + w10.prefix(k))
                c.append(m01.m21 * x + m01.m22)
                d.append(m10.m21 * x + m10.m22)
            beta = float(rng.uniform(0.2, 0.99))
            fam = [
                (lambda i: (lambda u: beta ** (i + 1) / u**2))(i)
                for i in range(len(c))
            ]
            res = majorisation_check(c, d, fam)
            assert res.hypotheses_ok, res.hypothesis_failures
            assert res.holds
