"""Value-iteration oracle, threshold extraction, PCLI suite, majorisation."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from obsched import costs, oracle
from obsched.dynamics import (
    ArmParams,
    InconsistencyError,
    moebius_matrix,
    phi,
    phi0,
    phi1,
    phi_word,
    y0,
    y1,
)
from obsched.index import IndexQuery, whittle_index
from obsched.oracle import (
    DPGrid,
    DPSolution,
    PcliConfig,
    _action_matrix,
    cross_validate,
    default_grid,
    dp_threshold,
    majorisation_check,
    pcli_report,
    value_iteration,
)
from obsched.words import Word, central_palindrome, christoffel, farey


def random_params(rng, r_lo=0.4, r_hi=0.98, a1_max=2.0):
    r = float(rng.uniform(r_lo, r_hi))
    a0 = float(rng.uniform(0.0, 0.4))
    a1 = a0 + float(rng.uniform(0.1, a1_max))
    return ArmParams(r=r, a0=a0, a1=a1)


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
