"""LQG with costly observations: Riccati root, gain, threshold inversion."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from obsched import costs, lqg, oracle
from obsched.dynamics import phi, y0, y1
from obsched.index import IndexQuery, whittle_index
from obsched.lqg import LqgProblem, riccati_root, solve_lqg


def lqg_act(sol, mean, variance):
    """Control u = -L x and query a = 1 exactly when the variance reaches z."""
    return -sol.L * mean, int(variance >= sol.z)


def random_problem(rng, f_zero=False):
    return LqgProblem(
        A=float(rng.uniform(0.3, 1.0)) * float(rng.choice([-1.0, 1.0])),
        B=float(rng.uniform(0.2, 3.0)) * float(rng.choice([-1.0, 1.0])),
        D=float(rng.uniform(0.1, 3.0)),
        F=0.0 if f_zero else float(rng.uniform(0.0, 3.0)),
        beta=float(rng.uniform(0.3, 0.98)),
        sigma_x=float(rng.uniform(0.3, 3.0)),
        sigma_y0=float(rng.uniform(5.0, 500.0)),
        sigma_y1=float(rng.uniform(0.1, 3.0)),
        c0=0.0,
        c1=float(rng.uniform(0.05, 3.0)),
    )


def probe_lambda(arm, beta, v):
    """One probe of lqg's bisection: the induced arm's index with costs (0, 1)
    and linear cost, through the ``lqg.whittle_index`` name."""
    return lqg.whittle_index(IndexQuery(arm.with_costs(0.0, 1.0), costs.linear(), beta, v)).lam


def reference_threshold(problem, alpha):
    """lqg.observation_threshold with all BISECTION_STEPS bisection steps."""
    p = problem
    if p.c1 - p.c0 <= 0.0:
        return -math.inf
    if alpha <= 1e-12:
        return math.inf
    arm = p.arm()
    target = (p.c1 - p.c0) / (alpha * p.sigma_x)
    lo, top = 1e-9, y0(arm)
    hi = 4.0 * top if math.isfinite(top) else 4.0 * max(1.0, y1(arm))
    if probe_lambda(arm, p.beta, lo) >= target:
        return -math.inf
    while probe_lambda(arm, p.beta, hi) < target:
        if math.isfinite(top):
            return math.inf
        hi *= 2.0
        if hi > 1e12:
            return math.inf
    for _ in range(lqg.BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if probe_lambda(arm, p.beta, mid) < target:
            lo = mid
        else:
            hi = mid
    return p.sigma_x * 0.5 * (lo + hi)


class TestValidation:
    def test_rejects_bad_problems(self):
        good = dict(A=0.9, B=1.0, D=1.0, F=0.5, beta=0.9, sigma_x=1.0,
                    sigma_y0=10.0, sigma_y1=1.0)
        LqgProblem(**good)
        for key, val in [("B", 0.0), ("A", 0.0), ("A", 1.5), ("D", 0.0),
                         ("F", -1.0), ("beta", 1.0), ("sigma_x", 0.0),
                         ("sigma_y1", 20.0)]:
            bad = dict(good)
            bad[key] = val
            with pytest.raises(ValueError):
                LqgProblem(**bad)


class TestRiccati:
    def test_f_zero_collapses(self):
        prob = LqgProblem(A=1.0, B=1.0, D=1.0, F=0.0, beta=0.95, sigma_x=1.0,
                          sigma_y0=math.inf, sigma_y1=10.0)
        sol = solve_lqg(prob)
        assert sol.R == 1.0
        assert sol.L == pytest.approx(1.0)

    def test_f_zero_general(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            prob = random_problem(rng, f_zero=True)
            sol = solve_lqg(prob)
            assert sol.R == prob.D
            assert sol.L == pytest.approx(prob.A / prob.B, rel=1e-12)

    def test_residual_and_alpha_random(self):
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            prob = random_problem(rng)
            R = riccati_root(prob)
            resid = abs(
                -prob.beta * prob.B**2 * R**2
                + (prob.beta * prob.B**2 * prob.D
                   + prob.beta * prob.A**2 * prob.F - prob.F) * R
                + prob.D * prob.F
            )
            scale = max(1.0, prob.beta * prob.B**2 * R**2)
            assert resid <= 1e-10 * scale
            assert R > 0.0
            alpha = prob.D - (1.0 - prob.beta * prob.A**2) * R
            assert alpha >= -1e-12 * max(1.0, prob.D)

    def test_d_to_zero_limit(self):
        probs = [
            LqgProblem(A=0.9, B=1.0, D=d, F=1.0, beta=0.9, sigma_x=1.0,
                       sigma_y0=10.0, sigma_y1=1.0)
            for d in (1e-3, 1e-6, 1e-9)
        ]
        sols = [solve_lqg(p) for p in probs]
        assert sols[0].R > sols[1].R > sols[2].R
        assert sols[2].R < 1e-8
        assert abs(sols[2].L) < 1e-8

    def test_printed_gain_form_agrees(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            prob = random_problem(rng)
            if prob.F == 0.0:
                continue
            R = riccati_root(prob)
            printed = prob.A / (prob.B + prob.F / (prob.beta * prob.B * R))
            sol = solve_lqg(prob)
            assert sol.L == pytest.approx(printed, rel=1e-10)


    @pytest.mark.parametrize("B, D, F, what", [
        (1e-3, 1e300, 1e300, "coefficients"),            # D F overflows
        (1e200, 1.0, 1.0, "coefficients"),               # B**2 raises OverflowError
        (-0.43, 1e300, 5.7, "discriminant"),              # qb * qb overflows
        (1.0, 1e300, 0.0, "residual's terms at R = 1e+300"),  # R**2 raises OverflowError
    ])
    def test_overflow_names_the_inputs(self, B, D, F, what):
        prob = LqgProblem(A=0.5, B=B, D=D, F=F, beta=0.7, sigma_x=1.0,
                          sigma_y0=math.inf, sigma_y1=1.0)
        want = f"B = {B!r}, D = {D!r}, F = {F!r} are too large: the Riccati {what}"
        with pytest.raises(ValueError, match=f"^{re.escape(want)}"):
            solve_lqg(prob)


class TestThreshold:
    def test_equal_costs_always_observe(self):
        prob = LqgProblem(A=0.9, B=1.0, D=1.0, F=0.5, beta=0.9, sigma_x=1.0,
                          sigma_y0=10.0, sigma_y1=1.0, c0=1.0, c1=1.0)
        assert solve_lqg(prob).z == -math.inf

    def test_threshold_inverts_index(self):
        rng = np.random.default_rng(44)
        done = 0
        while done < 10:
            prob = random_problem(rng)
            sol = solve_lqg(prob)
            if not math.isfinite(sol.z) or sol.alpha <= 1e-9:
                continue
            arm = prob.arm().with_costs(0.0, 1.0)
            target = (prob.c1 - prob.c0) / (sol.alpha * prob.sigma_x)
            lam = whittle_index(
                IndexQuery(arm, costs.linear(), prob.beta, sol.z / prob.sigma_x)
            ).lam
            assert lam == pytest.approx(target, rel=1e-6)
            done += 1

    def test_overflowing_a1_rejected_before_probing(self):
        # sigma_y1 = 1e-308 gives a1 = 1e308: the first bracket top, 4 y0,
        # is checked before any probe.  With r = 1 and a0 = 0 the bracket
        # doubles from 4 and its top 16 is the first to overflow at
        # a1 = 1e307; with D = 1 the bisection stops below it.
        prob = LqgProblem(A=0.9, B=1.0, D=1.0, F=0.0, beta=0.9, sigma_x=1.0,
                          sigma_y0=math.inf, sigma_y1=1e-308)
        with pytest.raises(ValueError, match=r"^a1 = 1e\+308 is too large"):
            solve_lqg(prob)
        doubling = LqgProblem(A=1.0, B=1.0, D=1e-3, F=0.0, beta=0.9, sigma_x=1.0,
                              sigma_y0=math.inf, sigma_y1=1e-307)
        with pytest.raises(ValueError, match=r"overflows at v = 17\.0$"):
            solve_lqg(doubling)
        assert math.isfinite(solve_lqg(replace(doubling, D=1.0)).z)

    def test_underflowing_sigma_x_is_named(self):
        prob = LqgProblem(A=0.9, B=1.0, D=1.0, F=1.0, beta=0.5, sigma_x=5e-324,
                          sigma_y0=math.inf, sigma_y1=1.0)
        with pytest.raises(ValueError, match=r"^sigma_x = 5e-324 is too small"):
            solve_lqg(prob)

    def test_bisection_stops_when_the_bracket_cannot_shrink(self, monkeypatch):
        # Against the bisection that always runs all BISECTION_STEPS steps:
        # the same z bit for bit, in fewer index probes.
        probes = []
        index = lqg.whittle_index

        def counting(q):
            probes.append(q.x)
            return index(q)

        monkeypatch.setattr(lqg, "whittle_index", counting)
        rng = np.random.default_rng(45)
        saved = 0
        for _ in range(20):
            prob = random_problem(rng)
            alpha = solve_lqg(prob).alpha
            probes.clear()
            z = lqg.observation_threshold(prob, alpha)
            used = len(probes)
            probes.clear()
            want = reference_threshold(prob, alpha)
            assert repr(z) == repr(want)
            assert used <= len(probes)
            saved += len(probes) - used
        assert saved > 0


    def test_act_conventions(self):
        prob = LqgProblem(A=0.9, B=1.0, D=1.0, F=0.5, beta=0.9, sigma_x=1.0,
                          sigma_y0=10.0, sigma_y1=1.0)
        sol = solve_lqg(prob)
        u, a = lqg_act(sol, 0.0, sol.z)
        assert u == 0.0
        assert a == 1  # exact threshold observes
        _, a = lqg_act(sol, 1.0, sol.z * 0.5)
        assert a == 0
        frozen = type(sol)(R=sol.R, L=sol.L, alpha=sol.alpha, z=math.inf)
        assert lqg_act(frozen, 1.0, 1e12)[1] == 0

    def test_policy_cost_matches_grid_dp(self):
        # The variance component of the LQG value: the (z) threshold policy
        # must be optimal for the induced DP within discretization error.
        rng = np.random.default_rng(45)
        done = 0
        while done < 3:
            prob = random_problem(rng)
            sol = solve_lqg(prob)
            if not math.isfinite(sol.z) or sol.alpha <= 1e-6:
                continue
            arm = prob.arm()
            cost = costs.linear().scale(sol.alpha * prob.sigma_x)
            grid = oracle.default_grid(arm, n=2048)
            dp = oracle.value_iteration(arm, cost, prob.beta, 1.0, grid, tol=1e-9)
            zhat = sol.z / prob.sigma_x
            T = math.ceil(math.log(1e-10) / math.log(prob.beta))
            pts = grid.points()
            for k in (150, 1000, 1900):
                v = float(pts[k])
                tot, disc = 0.0, 1.0
                for _ in range(T):
                    act = int(v >= zhat)
                    tot += disc * ((arm.c1 if act else arm.c0) + cost.eval(v))
                    v = phi(arm, act, v)
                    disc *= prob.beta
                vdp = float(dp.values[k])
                assert tot == pytest.approx(vdp, rel=1e-3, abs=1e-6)
            done += 1
