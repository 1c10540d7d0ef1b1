"""Multi-arm simulator: policies, determinism, accounting, exports."""

import io
import json
import math

import numpy as np
import pytest

from obsched import costs
from obsched.bandit import (
    Arm,
    Scenario,
    build_index_tables,
    fig7_scenario,
    simulate,
    tournament,
)
from obsched.dynamics import ArmParams, phi0, phi1


def two_arm_scenario(**kw):
    params = ArmParams(r=0.9, a0=0.0, a1=1.0, c0=0.0, c1=0.0)
    arm = Arm(params=params, cost=costs.linear(), weight=1.0, x0=0.0, v0=2.0)
    defaults = dict(arms=(arm, arm), m=1, beta=0.9, horizon=12, seed=3)
    defaults.update(kw)
    return Scenario(**defaults)


class TestScenario:
    def test_validation(self):
        with pytest.raises(ValueError):
            two_arm_scenario(m=2)
        with pytest.raises(ValueError):
            two_arm_scenario(m=0)
        with pytest.raises(ValueError):
            two_arm_scenario(beta=1.0)
        with pytest.raises(ValueError):
            two_arm_scenario(horizon=0)

    def test_from_json_requires_fields(self):
        payload = {
            "m": 1,
            "beta": 0.9,
            "horizon": 5,
            "seed": 1,
            "arms": [
                {"r": 0.9, "a0": 0.0, "a1": 1.0, "v0": 2.0},
                {"r": 0.9, "a0": 0.0, "a1": 1.0, "v0": 2.0},
            ],
        }
        sc = Scenario.from_json(payload)
        assert len(sc.arms) == 2
        for missing in ("beta", "horizon", "m", "seed", "arms"):
            broken = {k: v for k, v in payload.items() if k != missing}
            with pytest.raises(ValueError):
                Scenario.from_json(broken)
        bad_arm = dict(payload)
        bad_arm["arms"] = [{"r": 0.9, "a0": 0.0, "a1": 1.0}] * 2
        with pytest.raises(ValueError):
            Scenario.from_json(bad_arm)


class TestPolicies:
    def test_round_robin_alternates(self):
        sc = two_arm_scenario()
        trace = simulate(sc, "round_robin")
        assert [c[0] for c in trace.chosen] == [0, 1] * 6

    def test_exactly_m_active(self):
        sc = fig7_scenario(horizon=30)
        for pol in ("whittle", "myopic", "round_robin", "random"):
            trace = simulate(sc, pol)
            assert np.all(trace.actions.sum(axis=1) == sc.m)

    def test_myopic_prefers_weight(self):
        params = ArmParams(r=0.9, a0=0.0, a1=1.0, c0=0.0, c1=0.0)
        arms = tuple(
            Arm(params=params, cost=costs.linear(),
                weight=10.0 if i == 0 else 1.0, v0=2.0)
            for i in range(3)
        )
        sc = Scenario(arms=arms, m=1, beta=0.9, horizon=1, seed=0)
        trace = simulate(sc, "myopic")
        assert trace.chosen[0] == (0,)

    def test_myopic_prefers_dominant_variance(self):
        params = ArmParams(r=0.9, a0=0.0, a1=1.0, c0=0.0, c1=0.0)
        arms = tuple(
            Arm(params=params, cost=costs.linear(), v0=5.0 if i == 2 else 1.0)
            for i in range(3)
        )
        sc = Scenario(arms=arms, m=1, beta=0.9, horizon=1, seed=0)
        assert simulate(sc, "myopic").chosen[0] == (2,)

    def test_myopic_tie_breaks_to_lowest_id(self):
        sc = two_arm_scenario()
        trace = simulate(sc, "myopic")
        assert trace.chosen[0] == (0,)

    def test_whittle_m_complement(self):
        params = ArmParams(r=0.9, a0=0.0, a1=1.0, c0=0.0, c1=0.0)
        arms = tuple(
            Arm(params=params, cost=costs.linear(), v0=float(1 + i)) for i in range(4)
        )
        sc = Scenario(arms=arms, m=3, beta=0.9, horizon=1, seed=0)
        trace = simulate(sc, "whittle")
        # minimum-index arm is the lowest-variance one; complement selected
        assert trace.chosen[0] == (1, 2, 3)

    def test_whittle_weight_scaling_changes_selection(self):
        params = ArmParams(r=0.9, a0=0.0, a1=1.0, c0=0.0, c1=0.0)
        base = Arm(params=params, cost=costs.linear(), weight=1.0, v0=2.0)
        heavy = Arm(params=params, cost=costs.linear(), weight=5.0, v0=2.0)
        sc = Scenario(arms=(base, heavy), m=1, beta=0.9, horizon=1, seed=0)
        assert simulate(sc, "whittle").chosen[0] == (1,)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            simulate(two_arm_scenario(), "greedy")


class TestDeterminism:
    def test_identical_seeds_identical_traces(self):
        sc = fig7_scenario(horizon=40)
        a = simulate(sc, "whittle")
        b = simulate(sc, "whittle")
        np.testing.assert_array_equal(a.variances, b.variances)
        np.testing.assert_array_equal(a.means, b.means)
        assert a.total_discounted_cost == b.total_discounted_cost

    def test_seed_changes_means_not_variances(self):
        sc1 = fig7_scenario(horizon=40, seed=1)
        sc2 = fig7_scenario(horizon=40, seed=2)
        for pol in ("whittle", "myopic", "round_robin"):
            t1, t2 = simulate(sc1, pol), simulate(sc2, pol)
            np.testing.assert_array_equal(t1.variances, t2.variances)
            assert not np.array_equal(t1.means, t2.means)


class TestAccounting:
    def test_cumulative_cost_monotone(self):
        sc = fig7_scenario(horizon=60)
        trace = simulate(sc, "round_robin")
        assert np.all(np.diff(trace.disc_cum_cost) >= 0.0)

    def test_variance_bounds(self):
        sc = fig7_scenario(horizon=60)
        trace = simulate(sc, "whittle")
        p = sc.arms[0].params
        lower = phi1(p, 0.0)
        upper = phi0(p, float(np.max(trace.variances)))
        assert np.all(trace.variances[1:] >= lower - 1e-12)
        assert np.all(trace.variances <= upper)

    def test_observation_costs_counted(self):
        params = ArmParams(r=0.9, a0=0.0, a1=1.0, c0=0.0, c1=2.5)
        arms = tuple(
            Arm(params=params, cost=costs.constant(0.0), v0=1.0) for _ in range(2)
        )
        sc = Scenario(arms=arms, m=1, beta=0.0, horizon=1, seed=0)
        trace = simulate(sc, "round_robin")
        assert trace.total_discounted_cost == pytest.approx(2.5)


class TestFig7:
    def test_ordering_short_horizon(self):
        sc = fig7_scenario(horizon=60)
        res = tournament(sc, ("whittle", "myopic", "round_robin"))
        tot = {k: v.total_discounted_cost for k, v in res.items()}
        assert tot["whittle"] < tot["myopic"]
        assert tot["whittle"] < tot["round_robin"]

    def test_myopic_over_eager_on_heavy_arm(self):
        sc = fig7_scenario(horizon=100)
        trace = simulate(sc, "myopic")
        assert trace.actions[:, 0].mean() > 0.40


class TestTablesAndExports:
    def test_tables_shared_for_identical_arms(self):
        sc = fig7_scenario(horizon=10)
        tables = build_index_tables(sc, n_points=64)
        # arms 2..10 are identical and must share one grid object
        assert tables.grids[1] is tables.grids[2]
        assert tables.grids[0] is not tables.grids[1]

    def test_lookup_flags_out_of_range(self):
        sc = fig7_scenario(horizon=10)
        tables = build_index_tables(sc, n_points=64)
        tables.lookup(0, 1e9)
        assert tables.out_of_range == 1

    def test_lookup_interpolates_on_log_grid(self):
        sc = fig7_scenario(horizon=10)
        tables = build_index_tables(sc, n_points=64)
        g, lam = tables.grids[0], tables.values[0]
        for v in (g[0], 0.5 * (g[10] + g[11]), g[-1], 1e9):
            want = np.interp(math.log(max(v, g[0])), np.log(g), lam)
            assert tables.lookup(0, v) == float(want)

    def test_csv_export(self):
        sc = two_arm_scenario(horizon=3)
        trace = simulate(sc, "round_robin")
        buf = io.StringIO()
        trace.to_csv(buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "step,arm,action,variance,inst_cost,disc_cum_cost"
        assert len(lines) == 1 + 3 * 2

    def test_summary_is_json_safe(self):
        trace = simulate(two_arm_scenario(horizon=3), "myopic")
        payload = json.dumps(trace.summary())
        assert "total_discounted_cost" in payload
