"""Multi-arm simulator: policies, determinism, accounting, exports."""

import io
import json
import math
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from obsched import bandit, costs
from obsched.bandit import (
    MAX_ARMS,
    POLICIES,
    Arm,
    IndexTables,
    Scenario,
    build_index_tables,
    simulate,
    tournament,
    whittle_policy,
)
from obsched.dynamics import ArmParams, check_discounted_sums, phi, phi0, phi1
from obsched.index import truncation_horizon

from support import fig7_scenario

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import make_jobs  # noqa: E402


def two_arm_scenario(**kw):
    params = ArmParams(r=0.9, a0=0.0, a1=1.0, c0=0.0, c1=0.0)
    arm = Arm(params=params, cost=costs.linear(), weight=1.0, v0=2.0)
    defaults = dict(arms=(arm, arm), m=1, beta=0.9, horizon=12, seed=3)
    defaults.update(kw)
    return Scenario(**defaults)


EDGE_COSTS = (costs.linear(), costs.entropy(), costs.power(2.0), costs.power(-1.5),
              costs.power(-3.0))
EDGE_HORIZON = 40


@st.composite
def edge_scenarios(draw):
    """Arms with a1 in [0.01, 1e300]; each weight is plain, or within a
    factor 64 below and 8 above the largest the arm's own bound admits."""
    beta = draw(st.sampled_from([0.0, 0.5, 0.9, 0.99]))
    arms = []
    for _ in range(draw(st.integers(2, 3))):
        a1 = 10.0 ** draw(st.floats(-2.0, 300.0))
        c0 = draw(st.sampled_from([0.0, 0.4]))
        params = ArmParams(r=draw(st.floats(0.6, 1.0)), a0=draw(st.sampled_from([0.0, 0.005])),
                           a1=a1, c0=c0, c1=draw(st.sampled_from([c0, c0 + 0.6])))
        arm = Arm(params, draw(st.sampled_from(EDGE_COSTS)), v0=draw(st.floats(0.1, 8.0)))
        try:
            lo, hi = bandit._table_range(arm, EDGE_HORIZON)
            bound = check_discounted_sums(params, arm.cost, beta, lo, hi)
        except ValueError:
            bound = 1.0  # fails at weight 1, so at every edge weight
        if draw(st.booleans()):
            weight = draw(st.floats(0.5, 8.0))
        else:
            weight = sys.float_info.max / bound * 2.0 ** draw(st.floats(-6.0, 3.0))
        arms.append(replace(arm, weight=min(weight, sys.float_info.max)))
    return Scenario(arms=tuple(arms), m=1, beta=beta, horizon=EDGE_HORIZON, seed=0)


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
        for field in ("v0", "weight"):
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

    @pytest.mark.parametrize(
        "weight, beta, accepted",
        [(1e308, 0.9, False), (1e300, 0.9, True), (1e306, 0.0, True), (1e306, 0.99, False)],
    )
    def test_overflowing_weight_rejected(self, weight, beta, accepted):
        # 2 * weight * C / (1 - beta) must be finite on the orbits' states,
        # whose top is hi + 1 = 2 y0 + 1 = 11.53, so the largest weight is
        # 1.8e308 / (2 * 11.53) * (1 - beta) = 7.8e306 (1 - beta).
        params = ArmParams(r=0.9, a0=0.0, a1=1.0)
        heavy = Arm(params, costs.linear(), weight=weight, v0=2.0)
        arms = (heavy, replace(heavy, weight=1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if not accepted:
                message = r"^arm 0: cost '1e\+30[68]\*linear' is too large"
                with pytest.raises(ValueError, match=message):
                    Scenario(arms=arms, m=1, beta=beta, horizon=12, seed=3)
                return
            sc = Scenario(arms=arms, m=1, beta=beta, horizon=12, seed=3)
            assert np.isfinite(build_index_tables(sc, n_points=64).rows[0][2]).all()
            assert math.isfinite(simulate(sc, "myopic").total_discounted_cost)

    def test_overflowing_weights_together_rejected(self):
        # Each arm alone passes the per-arm bound, but the per-round cost
        # of nine of them overflows the discounted sum.
        heavy = Arm(ArmParams(r=0.9, a0=0.0, a1=1.0), costs.linear(), weight=7.5e305, v0=2.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^the arms' weights overflow together"):
                Scenario(arms=(heavy,) * 9, m=1, beta=0.9, horizon=50, seed=1)
            sc = Scenario(arms=(heavy, replace(heavy, weight=1.0)), m=1, beta=0.9,
                          horizon=50, seed=1)
            assert math.isfinite(simulate(sc, "myopic").total_discounted_cost)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_accepted_scenarios_stay_finite(self, data):
        """Every scenario the overflow guard admits has finite index tables
        and a finite myopic run, without a numpy warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                sc = data.draw(edge_scenarios())
            except ValueError:
                return
            for _, _, values in build_index_tables(sc, n_points=64).rows:
                assert np.isfinite(values).all()
            assert math.isfinite(simulate(sc, "myopic").total_discounted_cost)

    def test_from_json_power_exponent_is_a_float(self):
        arm = {"r": 0.9, "a0": 0.0, "a1": 1.0, "v0": 2.0, "cost": "power"}
        payload = {"m": 1, "beta": 0.9, "horizon": 5, "seed": 1}
        sc = Scenario.from_json({**payload, "arms": [{**arm, "power_q": "2"}] * 2})
        assert sc.arms[0].cost.kind == "power(2.0)"
        for bad, message in ((math.nan, "finite"), ("two", "'two'")):
            with pytest.raises(ValueError, match=message):
                Scenario.from_json({**payload, "arms": [{**arm, "power_q": bad}] * 2})

    def test_from_json_rejects_unknown_arm_fields(self):
        arm = {"r": 0.9, "a0": 0.0, "a1": 1.0, "v0": 2.0}
        payload = {"m": 1, "beta": 0.9, "horizon": 5, "seed": 1}
        with pytest.raises(ValueError, match=r"^arm 0: unknown field 'wieght'$"):
            Scenario.from_json({**payload, "arms": [{**arm, "wieght": 10.0}, arm]})
        assert len(Scenario.from_json({**payload, "arms": [{**arm, "x0": 3.0}, arm]}).arms) == 2

    @given(n=st.integers(MAX_ARMS + 1, 4 * MAX_ARMS), data=st.data())
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_too_many_arms_rejected_before_per_arm_work(self, n, data):
        m = data.draw(st.integers(1, n - 1))
        arm = Arm(ArmParams(r=0.9, a0=0.0, a1=1.0), costs.linear(), v0=2.0)

        def per_arm(*args):
            raise AssertionError("per-arm work before the arm count was checked")

        with mock.patch.object(bandit, "_table_range", per_arm), \
                mock.patch.object(bandit, "check_discounted_sums", per_arm):
            with pytest.raises(ValueError, match=rf"^need at most 10000 arms, got {n}$"):
                Scenario(arms=(arm,) * n, m=m, beta=0.9, horizon=5, seed=0)


class TestRandomSchedule:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 64), data=st.data(),
           rounds=st.integers(1, 300))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_one_draw_equals_choice_per_round(self, seed, n, data, rounds):
        """The one-call schedule gives choice's picks and leaves the
        generator where rounds choice calls leave it."""
        m = data.draw(st.integers(1, n - 1))
        rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = [tuple(sorted(want_rng.choice(n, m, replace=False).tolist()))
                for _ in range(rounds)]
        assert bandit._random_schedule(rng, n, m, rounds) == want
        assert rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("m", [1, 166, 250, MAX_ARMS - 1])
    def test_one_draw_equals_choice_at_the_arm_limit(self, m):
        rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
        want = [tuple(sorted(want_rng.choice(MAX_ARMS, m, replace=False).tolist()))
                for _ in range(3)]
        assert bandit._random_schedule(rng, MAX_ARMS, m, 3) == want


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

    @pytest.mark.parametrize(
        "scores, m, expected",
        [([0.0, -0.0, 0.0, 1.0, -0.0], 3, (0, 1, 3)), ([-0.0, 0.0, 2.0, 0.0], 2, (0, 2)),
         ([0.0, -0.0], 1, (0,)), ([-0.0, 0.0], 1, (0,)), ([5.0] * 4, 2, (0, 1)),
         ([1.0, 3.0, 3.0, 1.0], 3, (0, 1, 2))],
    )
    def test_equal_scores_pick_lowest_ids(self, scores, m, expected):
        # 0.0 and -0.0 are equal scores.  The lower arm id wins every tie,
        # as under np.lexsort keyed on (-score, id).
        class Tables:
            def lookup(self, i, v):
                return scores[i]

        order = np.lexsort((np.arange(len(scores)), -np.array(scores)))
        assert tuple(sorted(int(i) for i in order[:m])) == expected
        assert whittle_policy(Tables(), [1.0] * len(scores), m) == expected

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
        assert a.total_discounted_cost == b.total_discounted_cost

    def test_seed_only_moves_random(self):
        sc1 = fig7_scenario(horizon=40, seed=1)
        sc2 = fig7_scenario(horizon=40, seed=2)
        for pol in ("whittle", "myopic", "round_robin"):
            t1, t2 = simulate(sc1, pol), simulate(sc2, pol)
            for field in fields(t1):
                a, b = getattr(t1, field.name), getattr(t2, field.name)
                if isinstance(a, np.ndarray):
                    np.testing.assert_array_equal(a, b)
                else:
                    assert a == b, (pol, field.name)
            assert t1.summary() == t2.summary()
            csv1, csv2 = io.StringIO(), io.StringIO()
            t1.to_csv(csv1)
            t2.to_csv(csv2)
            assert csv1.getvalue() == csv2.getvalue()
        assert simulate(sc1, "random").chosen != simulate(sc2, "random").chosen


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
            weight=2.5, v0=3.0),
        Arm(ArmParams(r=0.95, a0=0.0, a1=math.inf, c0=0.1, c1=0.7),
            costs.power(2.0), weight=0.8, v0=1.5),
        Arm(ArmParams.from_kalman(A=-0.97, sigma_x=1.0, sigma_y0=3.0,
                                  sigma_y1=0.5, c0=0.0, c1=0.5),
            costs.neg_precision(), weight=4.0, v0=6.0),
        Arm(ArmParams(r=1.0, a0=0.05, a1=1.5, c0=0.3, c1=0.9),
            costs.bounded_demo(), weight=1.3, v0=0.7),
        Arm(ArmParams(r=0.8, a0=0.2, a1=4.0, c0=0.0, c1=1.2), costs.linear(),
            weight=7.0, v0=2.0),
    )
    defaults = dict(arms=arms, m=2, beta=0.97, horizon=300, seed=11)
    defaults.update(kw)
    return Scenario(**defaults)


def reference_pick(scores, m):
    """The m highest scores, ties to the lower arm id, as np.lexsort orders them."""
    order = np.lexsort((np.arange(len(scores)), -np.array(scores)))
    return tuple(sorted(int(i) for i in order[:m]))


def reference_simulate(scenario, policy, tables):
    """One arm at a time per step: scalar phi, cost and off-grid lookup count.

    Scores with ``np.interp`` on the tables and the checked ``CostFn.eval``,
    and draws ``random``'s picks with one ``choice`` call per round, so
    none of ``simulate``'s own scoring or drawing code is used.
    """
    n = len(scenario.arms)
    m = scenario.m
    policy_rng = np.random.default_rng(np.random.SeedSequence(scenario.seed).spawn(n + 1)[n])
    steps = scenario.horizon
    variances = np.empty((steps + 1, n))
    actions = np.zeros((steps, n), dtype=np.int64)
    chosen = []
    inst = np.empty(steps)
    cum = np.empty(steps)
    variances[0] = [a.v0 for a in scenario.arms]
    disc = 1.0
    total = 0.0
    rr_next = 0
    off_grid = 0
    for t in range(steps):
        v = variances[t]
        if policy == "whittle":
            pick = reference_pick([
                float(np.interp(math.log(max(x, g[0])), np.log(g), lam))
                for x, g, (_, _, lam) in zip(v, tables.grids, tables.rows)
            ], m)
        elif policy == "myopic":
            pick = reference_pick(
                [arm.weight * arm.cost.eval(float(x)) for arm, x in zip(scenario.arms, v)], m)
        elif policy == "round_robin":
            pick = tuple(sorted((rr_next + j) % n for j in range(m)))
            rr_next = (rr_next + m) % n
        else:
            pick = tuple(sorted(int(i) for i in policy_rng.choice(n, m, replace=False)))
        chosen.append(pick)
        actions[t, list(pick)] = 1
        step_cost = 0.0
        for i, arm in enumerate(scenario.arms):
            if policy == "whittle":
                grid = tables.grids[i]
                off_grid += not grid[0] <= v[i] <= grid[-1]
            act = int(actions[t, i])
            step_cost += arm.weight * arm.cost.eval(v[i]) + (arm.params.c1 if act else arm.params.c0)
            variances[t + 1, i] = phi(arm.params, act, float(v[i]))
        inst[t] = step_cost
        total += disc * step_cost
        cum[t] = total
        disc *= scenario.beta
    return chosen, actions, variances, inst, cum, total, off_grid


def assert_matches_reference(scenario, policy, tables=None):
    """simulate equals reference_simulate bit for bit, off-grid counts included."""
    if tables is None:
        tables = build_index_tables(scenario, n_points=64)
    chosen, actions, variances, inst, cum, total, off_grid = reference_simulate(
        scenario, policy, tables
    )
    trace = simulate(scenario, policy, tables=tables)
    assert trace.chosen == chosen
    for got, want in ((trace.actions, actions), (trace.variances, variances),
                      (trace.inst_cost, inst), (trace.disc_cum_cost, cum)):
        np.testing.assert_array_equal(got, want)
    assert trace.total_discounted_cost == total
    assert trace.index_out_of_range == off_grid
    return trace


class TestBatchStepping:
    @pytest.mark.parametrize("policy", ["whittle", "myopic", "round_robin", "random"])
    def test_matches_reference_loop_exactly(self, policy):
        trace = assert_matches_reference(mixed_scenario(), policy)
        # the scenario exercises every branch the batch has to reproduce
        assert trace.actions[:, 1].any() and np.any(trace.variances[1:, 1] == 0.0)

    def test_visited_state_outside_cost_domain_raises(self):
        # entropy is undefined at v = 0.  A noiseless observation reaches it
        # on the index table's orbits, and a run visits its start v0 = 0:
        # either way the scenario is rejected.
        params = ArmParams(r=0.9, a0=0.0, a1=math.inf, c0=0.0, c1=0.0)
        arms = (Arm(params, costs.entropy(), v0=2.0), Arm(params, costs.linear(), v0=1.0))
        with pytest.raises(ValueError, match=r"^arm 0: cost '1.0\*entropy' undefined at v = 0"):
            Scenario(arms=arms, m=1, beta=0.9, horizon=5, seed=0)
        arms = (Arm(replace(params, a1=1.0), costs.entropy(), v0=0.0), arms[1])
        with pytest.raises(ValueError, match=r"^arm 0: cost '1.0\*entropy' undefined at v = 0"):
            Scenario(arms=arms, m=1, beta=0.9, horizon=5, seed=0)

    def test_off_grid_count_is_per_run(self):
        sc = mixed_scenario()
        tables = build_index_tables(sc, n_points=64)
        first = simulate(sc, "whittle", tables=tables)
        second = simulate(sc, "whittle", tables=tables)
        assert first.index_out_of_range > 0
        assert second.index_out_of_range == first.index_out_of_range
        assert simulate(sc, "round_robin", tables=tables).index_out_of_range == 0


def simulate_64(scenario, policy):
    return simulate(scenario, policy, tables=build_index_tables(scenario, n_points=64))


def reference_cycle(variances, policy, n, m):
    """(k, t - k) for the first step t whose state repeats step k's, or None.

    The state is the variance row, bit for bit, plus the round-robin
    position; ``random`` has no repeating state.
    """
    if policy == "random":
        return None
    seen = {}
    for t in range(len(variances) - 1):
        rr_next = t * m % n if policy == "round_robin" else 0
        k = seen.setdefault((variances[t].tobytes(), rr_next), t)
        if k < t:
            return k, t - k
    return None


SIM_COSTS = (costs.linear(), costs.entropy(), costs.neg_precision(), costs.power(2.0),
             costs.power(0.5), costs.bounded_demo())


@st.composite
def sim_arms(draw):
    """One arm: plain, noiseless when active (a1 = inf, only with a cost
    defined at v = 0) or Kalman with a negative A; v0 = 0 only if linear."""
    kind = draw(st.sampled_from(["plain", "noiseless", "kalman"]))
    cost = draw(st.sampled_from(
        [c for c in SIM_COSTS if not c.positive_only] if kind == "noiseless" else SIM_COSTS))
    c0 = draw(st.sampled_from([0.0, 0.4]))
    c1 = draw(st.sampled_from([c0, c0 + 0.6]))
    a0 = draw(st.sampled_from([0.0, 0.02, 0.3]))
    if kind == "kalman":
        params = ArmParams.from_kalman(
            A=-draw(st.floats(0.6, 1.0)), sigma_x=1.0,
            sigma_y0=math.inf if a0 == 0.0 else 1.0 / a0,
            sigma_y1=draw(st.sampled_from([0.25, 0.7, 2.0])), c0=c0, c1=c1)
    else:
        a1 = math.inf if kind == "noiseless" else draw(st.sampled_from([0.8, 1.5, 4.0]))
        params = ArmParams(r=draw(st.floats(0.6, 1.0)), a0=a0, a1=a1, c0=c0, c1=c1)
    v0 = draw(st.floats(0.1, 8.0))
    if cost.kind == "linear" and draw(st.booleans()):
        v0 = 0.0
    return Arm(params, cost, weight=draw(st.floats(0.5, 8.0)), v0=v0)


@st.composite
def sim_scenarios(draw):
    n = draw(st.integers(2, 8))
    return Scenario(arms=tuple(draw(sim_arms()) for _ in range(n)),
                    m=draw(st.integers(1, n - 1)), beta=draw(st.sampled_from([0.5, 0.9])),
                    horizon=160, seed=draw(st.integers(0, 2**16)))


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


def tables_for(scenario, policy):
    """64-point index tables for whittle; the other policies read none."""
    if policy != "whittle":
        return IndexTables([], [])
    return build_index_tables(scenario, n_points=64)


class TestRandomScenarios:
    @given(scenario=sim_scenarios())
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_matches_reference_around_the_repeat(self, scenario):
        """Every SimTrace field equals the per-arm phi loop's, on horizons that
        end before, at and just after the first repeat, and past it."""
        n, m = len(scenario.arms), scenario.m
        for policy in POLICIES:
            probe = simulate(scenario, policy, tables=tables_for(scenario, policy))
            horizons = [scenario.horizon]
            if probe.cycle is not None:
                repeat = sum(probe.cycle)
                horizons += [h for h in (repeat - 1, repeat, repeat + 1) if h >= 1]
            for horizon in horizons:
                sc = replace(scenario, horizon=horizon)
                trace = assert_matches_reference(sc, policy, tables_for(sc, policy))
                want = reference_cycle(trace.variances, policy, n, m)
                assert trace.cycle == want
                if policy != "random":
                    assert (want is None) == (probe.cycle is None or horizon <= repeat)


class TestFig7:
    def test_ordering_short_horizon(self):
        sc = fig7_scenario(horizon=60)
        res = tournament(sc, ("whittle", "myopic", "round_robin"))
        tot = {k: v.total_discounted_cost for k, v in res.items()}
        assert tot["whittle"] < tot["myopic"]
        assert tot["whittle"] < tot["round_robin"]

    @pytest.mark.parametrize("policies", [(), ("bogus",), ("whittle", "bogus")])
    def test_bad_policy_list_raises_before_any_table(self, policies, monkeypatch):
        def no_tables(scenario):
            raise AssertionError("an index table was built")

        monkeypatch.setattr(bandit, "build_index_tables", no_tables)
        want = "no policy" if not policies else "unknown policy 'bogus'"
        with pytest.raises(ValueError, match=want):
            tournament(fig7_scenario(horizon=10), policies)

    def test_myopic_over_eager_on_heavy_arm(self):
        sc = fig7_scenario(horizon=100)
        trace = simulate(sc, "myopic")
        assert trace.actions[:, 0].mean() > 0.40


def assert_lookup_is_interp(tables, arm, v):
    """lookup(arm, v) is np.interp's value bit for bit, NaN for NaN."""
    g = tables.grids[arm]
    want = float(np.interp(math.log(max(v, g[0])), np.log(g), tables.rows[arm][2]))
    got = tables.lookup(arm, v)
    assert type(got) is float
    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (v, got, want)


class TestTablesAndExports:
    def test_tables_shared_for_identical_arms(self):
        sc = fig7_scenario(horizon=10)
        tables = build_index_tables(sc, n_points=64)
        # arms 2..10 are identical and must share one grid object
        assert tables.grids[1] is tables.grids[2]
        assert tables.grids[0] is not tables.grids[1]

    def test_one_kernel_call_tabulates_every_distinct_arm(self, monkeypatch):
        # A noiseless arm, a c0 = c1 arm (priced through with_costs(0, 1)),
        # an entropy arm and a repeated arm: one kernel call steps the four
        # distinct arms, and each table is its arm's own call, bit for bit.
        kernel = bandit.marginal_sums_batch
        calls = []

        def counting(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(bandit, "marginal_sums_batch", counting)
        arms = (
            Arm(ArmParams(r=0.95, a0=0.0, a1=2.0), costs.linear(), weight=2.0, v0=3.0),
            Arm(ArmParams(r=0.9, a0=0.0, a1=math.inf), costs.linear(), v0=1.0),
            Arm(ArmParams(r=0.99, a0=0.001, a1=0.5, c0=0.3, c1=0.3), costs.entropy(),
                weight=4.0, v0=5.0),
            Arm(ArmParams(r=0.8, a0=0.0, a1=0.05), costs.power(2.0), v0=0.5),
        )
        sc = Scenario(arms=arms + arms[:1], m=2, beta=0.99, horizon=50, seed=1)
        tables = build_index_tables(sc, n_points=64)
        assert len(calls) == 1 and len(calls[0][0]) == 4
        T = truncation_horizon(sc.beta)
        for i, arm in enumerate(sc.arms):
            lo, hi = bandit._table_range(arm, sc.horizon)
            g = np.geomspace(lo, hi, 64)
            p = arm.params
            if not p.c1 > p.c0:
                p = p.with_costs(0.0, 1.0)
            alone = kernel(p, sc.beta, arm.cost.scale(arm.weight), g, g, T)
            assert tables.grids[i].tobytes() == g.tobytes()
            first, xp, fp = tables.rows[i]
            assert (first, xp) == (float(g[0]), np.log(g).tolist())
            assert np.array(fp).tobytes() == (alone.cost / alone.work).tobytes()
        assert tables.rows[4] is tables.rows[0]

    # tracemalloc peak of the kernel call below before it stepped in blocks
    # of states (2,719 KB); the blocks may add at most 512 KB to it.
    KERNEL_PEAK_BYTES = 2_784_741 + 512 * 1024

    def test_kernel_memory_on_the_benchmark_scenario(self, monkeypatch):
        # The benchmark's seed-1 sim-1 scenario: 7 distinct arms of 512
        # points at beta = 0.99, whose slowest orbits step to T = 2,750.
        job = next(j for j in make_jobs("tournament", 1) if j.name == "sim-1")
        scenario = Scenario.from_json(json.loads(job.files[0][1]))
        kernel = bandit.marginal_sums_batch
        calls = []
        monkeypatch.setattr(
            bandit, "marginal_sums_batch", lambda *a: calls.append(a) or kernel(*a)
        )
        build_index_tables(scenario)
        (args,) = calls
        assert len(args[0]) == 7 and [g.size for g in args[3]] == [512] * 7
        tracemalloc.start()
        try:
            kernel(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.KERNEL_PEAK_BYTES

    def test_lookup_interpolates_on_log_grid(self):
        # Real tables, at every grid point and its float neighbours, at the
        # states whose logs are the grid's, between points, off both ends
        # and at v = 0.
        tables = build_index_tables(mixed_scenario(), n_points=64)
        for arm, g in enumerate(tables.grids):
            near = [np.nextafter(g, 0.0), g, np.nextafter(g, np.inf), 0.5 * (g[1:] + g[:-1]),
                    np.exp(tables.rows[arm][1])]
            vs = np.concatenate(near + [g[0] * np.exp(-np.linspace(0.0, 1.0, 9)),
                                        g[-1] * np.exp(np.linspace(0.0, 1.0, 9)), [1e9]])
            for v in [0.0] + vs.tolist():
                assert_lookup_is_interp(tables, arm, v)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_lookup_equals_interp_on_hand_built_tables(self, data):
        """Flat segments, signed zeros and +-inf values (whose segments take
        np.interp's NaN retry) on random increasing log grids."""
        k = data.draw(st.integers(2, 12))
        steps = data.draw(st.lists(st.floats(1e-9, 3.0), min_size=k - 1, max_size=k - 1))
        xp = np.cumsum([data.draw(st.floats(-20.0, 5.0))] + steps)
        assume(np.all(np.diff(xp) > 0.0))
        lam = np.array(data.draw(st.lists(
            st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, 1e308, -1e308, math.inf, -math.inf])
            | st.floats(-1e3, 1e3), min_size=k, max_size=k)))
        g = np.exp(xp)
        tables = IndexTables([g], [(float(g[0]), np.log(g).tolist(), lam.tolist())])
        xs = np.concatenate([xp, np.nextafter(xp, -np.inf), np.nextafter(xp, np.inf),
                             [xp[0] - 1.0, xp[-1] + 1.0, data.draw(st.floats(xp[0], xp[-1]))]])
        for v in [0.0] + np.exp(xs).tolist():
            assert_lookup_is_interp(tables, 0, v)

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
