"""Multi-arm restless-bandit simulator with index, myopic and baseline policies.

Each arm is an independent Kalman-filtered time series; m arms receive the
expensive observation per round.  Posterior variances evolve
deterministically given the actions, so deterministic policies produce
seed-independent variance trajectories; sampled observations only move the
posterior means.  Randomness comes from one named generator (PCG64) whose
seed sequence is spawned into one child stream per arm plus one stream for
the random policy, in that order.

The simulator holds the arms as parameter arrays and steps them as one
batch: per round it picks the active arms and makes one variance-map call
over all of them.  Under a deterministic policy the joint state is
eventually periodic, so stepping stops at its first exact repeat and the
cycle is tiled over the rest of the horizon.  Each arm's noise is drawn up
front from its own stream and its cost is evaluated once per run on the
states it visited.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, Optional, Sequence

import numpy as np

from .costs import CostFn, by_name
# ``phi`` and ``phi0`` are unused here but stay module attributes:
# perfbench/layers.py wraps ``bandit.phi`` and ``bandit.phi0`` by name in its
# traced pass.
from .dynamics import (  # noqa: F401
    ArmParams, batch_coefficients, phi, phi0, phi_batch, scalar_map, y0,
)
from .index import marginal_sums_batch, truncation_horizon

POLICIES = ("whittle", "myopic", "round_robin", "random")


@dataclass(frozen=True)
class Arm:
    params: ArmParams
    cost: CostFn
    weight: float = 1.0
    x0: float = 0.0
    v0: float = 1.0

    def __post_init__(self) -> None:
        for name in ("weight", "x0", "v0"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"arm {name} must be finite, got {value}")
        if self.weight <= 0:
            raise ValueError("arm weight must be positive")
        if self.v0 < 0:
            raise ValueError("initial variance must be non-negative")


@dataclass(frozen=True)
class Scenario:
    arms: tuple[Arm, ...]
    m: int
    beta: float
    horizon: int
    seed: int

    def __post_init__(self) -> None:
        n = len(self.arms)
        if not 1 <= self.m < n:
            raise ValueError(f"need 1 <= m < n arms, got m={self.m}, n={n}")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {self.beta}")
        if self.horizon < 1:
            raise ValueError("horizon must be positive")

    @classmethod
    def from_json(cls, payload: dict) -> "Scenario":
        """Parse a scenario file; beta and horizon must be explicit."""
        if not isinstance(payload, dict):
            raise ValueError("scenario must be a JSON object")
        for key in ("arms", "m", "beta", "horizon", "seed"):
            if key not in payload:
                raise ValueError(f"scenario missing required field '{key}'")
        if not isinstance(payload["arms"], list):
            raise ValueError("scenario field 'arms' must be a list")
        arms = []
        for i, blk in enumerate(payload["arms"]):
            if not isinstance(blk, dict):
                raise ValueError(f"arm {i} must be a JSON object, got {blk!r}")
            try:
                params = ArmParams(
                    r=float(blk["r"]),
                    a0=float(blk["a0"]),
                    a1=float(blk["a1"]),
                    c0=float(blk.get("c0", 0.0)),
                    c1=float(blk.get("c1", 1.0)),
                )
                q = blk.get("power_q")
                cost = by_name(blk.get("cost", "linear"), None if q is None else float(q))
                arms.append(
                    Arm(
                        params=params,
                        cost=cost,
                        weight=float(blk.get("weight", 1.0)),
                        x0=float(blk.get("x0", 0.0)),
                        v0=float(blk["v0"]),
                    )
                )
            except KeyError as exc:
                raise ValueError(f"arm {i} missing required field {exc}") from None
            except TypeError as exc:
                raise ValueError(f"arm {i}: {exc}") from None
        try:
            beta = float(payload["beta"])
        except TypeError:
            raise ValueError(
                f"scenario field 'beta' must be a number, got {payload['beta']!r}"
            ) from None
        return cls(
            arms=tuple(arms),
            m=_integer(payload, "m"),
            beta=beta,
            horizon=_integer(payload, "horizon"),
            seed=_integer(payload, "seed"),
        )


def _integer(payload: dict, key: str) -> int:
    """The integer-valued field ``key``; floats must be integral."""
    value = payload[key]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"scenario field '{key}' must be an integer, got {value!r}")


@dataclass
class IndexTables:
    """Per-arm index interpolation tables on log-variance grids."""

    grids: list[np.ndarray]
    log_grids: list[np.ndarray]
    values: list[np.ndarray]
    out_of_range: int = 0

    def lookup(self, arm: int, v: float) -> float:
        g = self.grids[arm]
        if v < g[0] or v > g[-1]:
            self.out_of_range += 1
        lv = math.log(max(v, g[0]))
        return float(np.interp(lv, self.log_grids[arm], self.values[arm]))


def _reach_bound(p: ArmParams, v0: float, horizon: int) -> float:
    """Upper bound on variances reachable within the horizon under passivity."""
    top = y0(p)
    if math.isfinite(top):
        return max(2.0 * top, 2.0 * v0)
    step = scalar_map(p)
    v = v0
    for _ in range(horizon + 1):
        v = step(0, v)
    return 2.0 * max(v, v0, 1.0)


def build_index_tables(scenario: Scenario, n_points: int = 512) -> IndexTables:
    """Tabulate weight_i * lambda_i on 512-point log grids, one per arm.

    Identical (params, cost, weight, bounds) arms share a table; the index
    is evaluated with the arm's weighted cost, so weights are baked in.
    """
    grids: list[np.ndarray] = []
    log_grids: list[np.ndarray] = []
    values: list[np.ndarray] = []
    cache: dict = {}
    T = truncation_horizon(scenario.beta)
    for arm in scenario.arms:
        hi = _reach_bound(arm.params, arm.v0, scenario.horizon)
        lo = min(1e-4, 1e-4 * hi)
        key = (arm.params, id(arm.cost), arm.weight, lo, hi)
        if key not in cache:
            g = np.geomspace(lo, hi, n_points)
            # The index prices one unit of activation effort; when the
            # scenario's observation costs coincide they cannot serve as
            # the work scale.
            p = arm.params
            if not p.c1 > p.c0:
                p = p.with_costs(0.0, 1.0)
            wcost = arm.cost.scale(arm.weight)
            num, den, _ = marginal_sums_batch(
                p.r, p.a0, p.a1, p.c0, p.c1, scenario.beta, wcost, g, g, T
            )
            cache[key] = (g, np.log(g), num / den)
        g, log_g, lam = cache[key]
        grids.append(g)
        log_grids.append(log_g)
        values.append(lam)
    return IndexTables(grids, log_grids, values)


@dataclass
class SimTrace:
    """Per-step record of one simulated run."""

    policy: str
    chosen: list[tuple[int, ...]]
    actions: np.ndarray  # (horizon, n)
    variances: np.ndarray  # (horizon + 1, n)
    means: np.ndarray  # (horizon + 1, n)
    inst_cost: np.ndarray  # (horizon,)
    disc_cum_cost: np.ndarray  # (horizon,)
    total_discounted_cost: float
    index_out_of_range: int = 0
    # (first step of the cycle, period) when the tail was tiled from an
    # exact repeat of the joint state; not part of summary() or the CSV.
    cycle: Optional[tuple[int, int]] = None

    def summary(self) -> dict:
        steps, n = self.actions.shape
        return {
            "policy": self.policy,
            "arms": int(n),
            "horizon": int(steps),
            "total_discounted_cost": float(self.total_discounted_cost),
            "final_variances": [float(v) for v in self.variances[-1]],
            "activations_per_arm": [int(k) for k in self.actions.sum(axis=0)],
            "index_out_of_range": int(self.index_out_of_range),
        }

    def to_csv(self, fh: IO[str]) -> None:
        writer = csv.writer(fh)
        writer.writerow(["step", "arm", "action", "variance", "inst_cost",
                         "disc_cum_cost"])
        steps, n = self.actions.shape
        for t in range(steps):
            for i in range(n):
                writer.writerow(
                    [
                        t,
                        i + 1,
                        int(self.actions[t, i]),
                        format(self.variances[t, i], ".17g"),
                        format(self.inst_cost[t], ".17g"),
                        format(self.disc_cum_cost[t], ".17g"),
                    ]
                )


def _select_top_m(scores: np.ndarray, m: int) -> tuple[int, ...]:
    """Indices of the m largest scores; ties break toward lower arm id."""
    order = np.lexsort((np.arange(len(scores)), -scores))
    return tuple(sorted(int(i) for i in order[:m]))


def whittle_policy(
    tables: IndexTables, variances: Sequence[float], m: int
) -> tuple[int, ...]:
    """The m arms with the largest interpolated index; ties to lower arm id."""
    scores = np.array([tables.lookup(i, float(v)) for i, v in enumerate(variances)])
    return _select_top_m(scores, m)


def myopic_policy(
    arms: Sequence[Arm], variances: Sequence[float], m: int
) -> tuple[int, ...]:
    """The m arms with the highest current weighted cost; ties to lower arm id."""
    scores = np.array(
        [arm.weight * arm.cost.eval(float(v)) for arm, v in zip(arms, variances)]
    )
    return _select_top_m(scores, m)


def simulate(
    scenario: Scenario,
    policy: str,
    tables: Optional[IndexTables] = None,
) -> SimTrace:
    """Run the belief-state chain under the named policy.

    Exactly m arms are active each round; the trace is bit-reproducible
    for a given seed.  Each step chooses the active arms and updates all n
    variances with one :func:`phi_batch` call.  Under ``whittle``,
    ``myopic`` and ``round_robin`` the pick and the next state depend only
    on the variances and the round-robin position, so when step t repeats
    the state of step k bit for bit, steps t onward copy steps
    k + (i - k) mod (t - k), off-grid index lookups included, and
    ``trace.cycle`` is (k, t - k).  ``random`` steps every round.
    Everything else happens once per run over all steps: the map's
    coefficients are built, each arm's noise is drawn up front from its
    own stream (the same values as one draw per step), and each arm's cost
    is evaluated once on all of its visited states.  Each step's cost is
    still added up over the arms in arm order.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
    arms = scenario.arms
    n = len(arms)
    m = scenario.m
    if policy == "whittle" and tables is None:
        tables = build_index_tables(scenario)
    seeds = np.random.SeedSequence(scenario.seed).spawn(n + 1)
    arm_rngs = [np.random.default_rng(s) for s in seeds[:n]]
    policy_rng = np.random.default_rng(seeds[n])

    steps = scenario.horizon
    r2, a0, a1, c0, c1 = (
        np.array([getattr(a.params, f) for a in arms])
        for f in ("r2", "a0", "a1", "c0", "c1")
    )
    coef = batch_coefficients(r2, a0, a1)
    # The posterior mean is multiplied by the signed A when the arm came
    # from raw Kalman parameters; costs only ever see the variance.
    mult = np.array([a.params.r if a.params.A is None else a.params.A for a in arms])
    variances = np.empty((steps + 1, n))
    actions = np.zeros((steps, n), dtype=np.int64)
    chosen: list[tuple[int, ...]] = []
    variances[0] = [a.v0 for a in arms]
    rr_next = 0
    # Off-grid index lookups made at each step; only whittle makes any.
    off_grid = np.zeros(steps, dtype=np.int64)
    # The first step at which each (variances, rr_next) state was seen.
    first_step: dict[tuple[bytes, int], int] = {}
    cycle = None
    for t in range(steps):
        v = variances[t]
        if policy != "random":
            k = first_step.setdefault((v.tobytes(), rr_next), t)
            if k < t:
                cycle = (k, t - k)
                break
        if policy == "whittle":
            before = tables.out_of_range
            pick = whittle_policy(tables, v, m)
            off_grid[t] = tables.out_of_range - before
        elif policy == "myopic":
            pick = myopic_policy(arms, v, m)
        elif policy == "round_robin":
            pick = tuple(sorted((rr_next + j) % n for j in range(m)))
            rr_next = (rr_next + m) % n
        else:
            pick = tuple(sorted(int(i) for i in policy_rng.choice(n, m, replace=False)))
        chosen.append(pick)
        actions[t, list(pick)] = 1
        variances[t + 1] = phi_batch(coef, actions[t], v)
    if cycle is not None:
        k, period = cycle
        # Step i >= k of the run is step k + (i - k) mod period of the head.
        src = k + (np.arange(t, steps + 1) - k) % period
        variances[t:] = variances[src]
        actions[t:] = actions[src[:-1]]
        chosen.extend([chosen[j] for j in src[:-1]])
        off_grid[t:] = off_grid[src[:-1]]
        if tables is not None:
            tables.out_of_range += int(off_grid[t:].sum())

    inst = np.zeros(steps)
    for i, arm in enumerate(arms):
        inst += arm.weight * arm.cost.eval(variances[:-1, i]) + np.where(
            actions[:, i], c1[i], c0[i]
        )
    disc = np.multiply.accumulate(np.r_[1.0, np.full(steps - 1, scenario.beta)])
    cum = np.cumsum(disc * inst)

    noise = np.column_stack([rng.standard_normal(steps) for rng in arm_rngs])
    noise *= np.sqrt(np.maximum(0.0, mult * mult * variances[:-1] + 1.0 - variances[1:]))
    means = np.empty((steps + 1, n))
    means[0] = [a.x0 for a in arms]
    for t in range(steps):
        means[t + 1] = mult * means[t] + noise[t]
    return SimTrace(
        policy=policy,
        chosen=chosen,
        actions=actions,
        variances=variances,
        means=means,
        inst_cost=inst,
        disc_cum_cost=cum,
        total_discounted_cost=float(cum[-1]),
        index_out_of_range=int(off_grid.sum()),
        cycle=cycle,
    )


def tournament(
    scenario: Scenario, policies: Sequence[str] = POLICIES
) -> dict[str, SimTrace]:
    """Run several policies on the same scenario, sharing index tables."""
    tables = build_index_tables(scenario) if "whittle" in policies else None
    return {pol: simulate(scenario, pol, tables=tables) for pol in policies}


def fig7_scenario(
    n: int = 10,
    heavy_weight: float = 10.0,
    horizon: int = 200,
    beta: float = 0.99,
    seed: int = 7,
) -> Scenario:
    """Benchmark: n identical arms, one carrying a heavier uncertainty cost.

    All arms start at variance 4 with free observations; only the cost
    ordering whittle < {myopic, round_robin} is meaningful, not magnitudes.
    """
    from .costs import linear

    params = ArmParams(r=1.0, a0=0.0, a1=0.1, c0=0.0, c1=0.0)
    cost = linear()
    arms = tuple(
        Arm(params=params, cost=cost, weight=heavy_weight if i == 0 else 1.0,
            x0=4.0, v0=4.0)
        for i in range(n)
    )
    return Scenario(arms=arms, m=1, beta=beta, horizon=horizon, seed=seed)
