"""LQG with costly observations: Riccati root, gain, threshold inversion."""

import math

import numpy as np
import pytest

from obsched import costs, oracle
from obsched.dynamics import phi
from obsched.index import IndexQuery, whittle_index
from obsched.lqg import LqgProblem, lqg_act, riccati_root, solve_lqg


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
                IndexQuery(arm, costs.linear(), prob.beta, sol.z / prob.sigma_x),
                word_max_len=1,
            ).lam
            assert lam == pytest.approx(target, rel=1e-6)
            done += 1

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
                    tot += disc * (arm.work_cost(act) + cost.eval(v))
                    v = phi(arm, act, v)
                    disc *= prob.beta
                vdp = float(dp.values[k])
                assert tot == pytest.approx(vdp, rel=1e-3, abs=1e-6)
            done += 1
