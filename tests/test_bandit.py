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
    myopic_policy,
    simulate,
    tournament,
    whittle_policy,
)
from obsched.costs import CostDomainError
from obsched.dynamics import ArmParams, phi, phi0, phi1


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
        params = ArmParams(r=0.9, a0=0.0, a1=1.0)
        for field in ("v0", "weight", "x0"):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=field):
                    Arm(params=params, cost=costs.linear(), **{field: bad})

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

    def test_from_json_power_exponent_is_a_float(self):
        arm = {"r": 0.9, "a0": 0.0, "a1": 1.0, "v0": 2.0, "cost": "power"}
        payload = {"m": 1, "beta": 0.9, "horizon": 5, "seed": 1}
        sc = Scenario.from_json({**payload, "arms": [{**arm, "power_q": "2"}] * 2})
        assert sc.arms[0].cost.kind == "power(2.0)"
        for bad, message in ((math.nan, "finite"), ("two", "'two'")):
            with pytest.raises(ValueError, match=message):
                Scenario.from_json({**payload, "arms": [{**arm, "power_q": bad}] * 2})


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


def mixed_scenario(**kw):
    """Mixed costs and weights, c0 < c1, a noiseless arm and a signed A."""
    arms = (
        Arm(ArmParams(r=0.9, a0=0.1, a1=2.0, c0=0.2, c1=1.0), costs.entropy(),
            weight=2.5, x0=1.0, v0=3.0),
        Arm(ArmParams(r=0.95, a0=0.0, a1=math.inf, c0=0.1, c1=0.7),
            costs.power(2.0), weight=0.8, x0=-2.0, v0=1.5),
        Arm(ArmParams.from_kalman(A=-0.97, sigma_x=1.0, sigma_y0=3.0,
                                  sigma_y1=0.5, c0=0.0, c1=0.5),
            costs.neg_precision(), weight=4.0, x0=0.5, v0=6.0),
        Arm(ArmParams(r=1.0, a0=0.05, a1=1.5, c0=0.3, c1=0.9),
            costs.bounded_demo(), weight=1.3, x0=0.0, v0=0.7),
        Arm(ArmParams(r=0.8, a0=0.2, a1=4.0, c0=0.0, c1=1.2), costs.linear(),
            weight=7.0, x0=3.0, v0=2.0),
    )
    defaults = dict(arms=arms, m=2, beta=0.97, horizon=300, seed=11)
    defaults.update(kw)
    return Scenario(**defaults)


def reference_simulate(scenario, policy, tables):
    """One arm at a time per step: scalar phi, cost and noise draw."""
    n = len(scenario.arms)
    m = scenario.m
    seeds = np.random.SeedSequence(scenario.seed).spawn(n + 1)
    arm_rngs = [np.random.default_rng(s) for s in seeds[:n]]
    policy_rng = np.random.default_rng(seeds[n])
    steps = scenario.horizon
    variances = np.empty((steps + 1, n))
    means = np.empty((steps + 1, n))
    actions = np.zeros((steps, n), dtype=np.int64)
    chosen = []
    inst = np.empty(steps)
    cum = np.empty(steps)
    variances[0] = [a.v0 for a in scenario.arms]
    means[0] = [a.x0 for a in scenario.arms]
    disc = 1.0
    total = 0.0
    rr_next = 0
    for t in range(steps):
        v = variances[t]
        if policy == "whittle":
            pick = whittle_policy(tables, v, m)
        elif policy == "myopic":
            pick = myopic_policy(scenario.arms, v, m)
        elif policy == "round_robin":
            pick = tuple(sorted((rr_next + j) % n for j in range(m)))
            rr_next = (rr_next + m) % n
        else:
            pick = tuple(sorted(int(i) for i in policy_rng.choice(n, m, replace=False)))
        chosen.append(pick)
        actions[t, list(pick)] = 1
        step_cost = 0.0
        for i, arm in enumerate(scenario.arms):
            act = int(actions[t, i])
            step_cost += arm.weight * arm.cost.eval(v[i]) + arm.params.work_cost(act)
            new_v = phi(arm.params, act, float(v[i]))
            mult = arm.params.A if arm.params.A is not None else arm.params.r
            innov_var = max(0.0, mult * mult * v[i] + 1.0 - new_v)
            means[t + 1, i] = mult * means[t, i] + math.sqrt(innov_var) * float(
                arm_rngs[i].standard_normal()
            )
            variances[t + 1, i] = new_v
        inst[t] = step_cost
        total += disc * step_cost
        cum[t] = total
        disc *= scenario.beta
    return chosen, actions, variances, means, inst, cum, total


def assert_matches_reference(scenario, policy):
    """simulate equals reference_simulate bit for bit, off-grid counts included.

    Each side gets its own index tables, so the shared-table counter of
    the simulated side must grow by exactly what the reference looked up.
    """
    ref_tables = build_index_tables(scenario, n_points=64)
    chosen, actions, variances, means, inst, cum, total = reference_simulate(
        scenario, policy, ref_tables
    )
    tables = build_index_tables(scenario, n_points=64)
    trace = simulate(scenario, policy, tables=tables)
    assert trace.chosen == chosen
    for got, want in ((trace.actions, actions), (trace.variances, variances),
                      (trace.means, means), (trace.inst_cost, inst),
                      (trace.disc_cum_cost, cum)):
        np.testing.assert_array_equal(got, want)
    assert trace.total_discounted_cost == total
    assert trace.index_out_of_range == ref_tables.out_of_range
    assert tables.out_of_range == ref_tables.out_of_range
    return trace


class TestBatchStepping:
    @pytest.mark.parametrize("policy", ["whittle", "myopic", "round_robin", "random"])
    def test_matches_reference_loop_exactly(self, policy):
        trace = assert_matches_reference(mixed_scenario(), policy)
        # the scenario exercises every branch the batch has to reproduce
        assert trace.actions[:, 1].any() and np.any(trace.variances[1:, 1] == 0.0)
        assert np.any(trace.means[:, 2] < 0.0) and np.any(trace.means[:, 2] > 0.0)

    def test_visited_state_outside_cost_domain_raises(self):
        # entropy is undefined at v = 0, which a noiseless observation reaches
        params = ArmParams(r=0.9, a0=0.0, a1=math.inf, c0=0.0, c1=0.0)
        arms = (Arm(params, costs.entropy(), v0=2.0), Arm(params, costs.linear(), v0=1.0))
        sc = Scenario(arms=arms, m=1, beta=0.9, horizon=5, seed=0)
        with pytest.raises(CostDomainError):
            simulate(sc, "round_robin")

    def test_off_grid_count_is_per_run(self):
        sc = mixed_scenario()
        tables = build_index_tables(sc, n_points=64)
        first = simulate(sc, "whittle", tables=tables)
        second = simulate(sc, "whittle", tables=tables)
        assert first.index_out_of_range > 0
        assert second.index_out_of_range == first.index_out_of_range
        assert tables.out_of_range == 2 * first.index_out_of_range
        assert simulate(sc, "round_robin", tables=tables).index_out_of_range == 0


def simulate_64(scenario, policy):
    return simulate(scenario, policy, tables=build_index_tables(scenario, n_points=64))


class TestCycleTiling:
    @pytest.mark.parametrize("policy", ["whittle", "myopic", "round_robin"])
    def test_long_horizon_matches_reference(self, policy):
        trace = assert_matches_reference(mixed_scenario(horizon=3000), policy)
        k, period = trace.cycle
        if policy == "whittle":
            # The noiseless arm's zero variance lies below the grid and the
            # cycle revisits it, so the tiled tail adds off-grid lookups.
            head = simulate_64(mixed_scenario(horizon=k + period), policy)
            assert trace.index_out_of_range > head.index_out_of_range > 0

    @pytest.mark.parametrize("policy", ["whittle", "myopic", "round_robin"])
    def test_horizons_around_the_repeat(self, policy):
        k, period = simulate_64(mixed_scenario(horizon=3000), policy).cycle
        repeat = k + period
        for horizon in (repeat - 1, repeat, repeat + 1):
            trace = assert_matches_reference(mixed_scenario(horizon=horizon), policy)
            assert trace.cycle == ((k, period) if horizon > repeat else None)

    def test_random_never_tiles(self):
        assert simulate_64(mixed_scenario(horizon=3000), "random").cycle is None


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
