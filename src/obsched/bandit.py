"""Multi-arm restless-bandit simulator with index, myopic and baseline policies.

Each arm is an independent Kalman-filtered time series; m arms receive the
expensive observation per round.  Posterior variances evolve
deterministically given the actions, and the costs and every policy but
``random`` read only the variances, so the simulator tracks the variances
alone and only ``random`` depends on the seed.  It draws from one named
generator (PCG64) on a child stream of the scenario's seed sequence.

Per round the simulator picks the active arms and steps each arm's
variance as a Python float with the arm's own variance map; over the few
arms of a scenario, numpy's per-call cost would outweigh the arithmetic.
The picks run on Python floats too: ``whittle`` interpolates its index
tables with ``np.interp``'s formula on lists, ``myopic`` scores with the
unchecked cost, and ``random`` draws its whole schedule in one call.
Under a deterministic policy the joint state is eventually periodic, so
stepping stops at its first exact repeat and the cycle is tiled over the
rest of the horizon.  Each arm's cost and off-grid index lookups are
reckoned once per run on the states it visited.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import IO, Optional, Sequence

import numpy as np

from .costs import CostFn, by_name
# ``phi`` and ``phi0`` are unused here but stay module attributes:
# perfbench/layers.py wraps ``bandit.phi`` and ``bandit.phi0`` by name in its
# traced pass.
from .dynamics import (  # noqa: F401
    ArmParams, check_discounted_sums, phi, phi0, scalar_map, y0, y1,
)
from .index import marginal_sums_batch, truncation_horizon

POLICIES = ("whittle", "myopic", "round_robin", "random")
# Above 10,000 arms numpy's Generator.choice may leave Floyd's algorithm,
# whose draws _random_schedule replays; a scenario's seed must keep its
# random schedule.
MAX_ARMS = 10_000
# The fields a scenario's arm may hold; ``x0`` is accepted and ignored.
_ARM_FIELDS = ("r", "a0", "a1", "c0", "c1", "cost", "power_q", "weight", "v0", "x0")


@dataclass(frozen=True)
class Arm:
    params: ArmParams
    cost: CostFn
    weight: float = 1.0
    v0: float = 1.0

    def __post_init__(self) -> None:
        for name in ("weight", "v0"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")
        if self.v0 < 0:
            raise ValueError(f"v0 must be non-negative, got {self.v0}")


@dataclass(frozen=True)
class Scenario:
    arms: tuple[Arm, ...]
    m: int
    beta: float
    horizon: int
    seed: int

    def __post_init__(self) -> None:
        n = len(self.arms)
        if n > MAX_ARMS:
            raise ValueError(f"need at most {MAX_ARMS} arms, got {n}")
        if not 1 <= self.m < n:
            raise ValueError(f"need 1 <= m < n arms, got m={self.m}, n={n}")
        if not 0.0 <= self.beta < 1.0:
            raise ValueError(f"beta must be in [0, 1), got {self.beta}")
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        # Bounds the discounted cost of a run, summed over the arms: a run
        # visits each arm's start v0 and the states of its table's orbits.
        # [min(lo, v0), hi] is the whole grid's range, wider than the slice
        # that build_index_tables tabulates; narrowing it would change
        # which scenarios are rejected.
        total = 0.0
        for i, arm in enumerate(self.arms):
            try:
                lo, hi = _table_range(arm, self.horizon)
                total += check_discounted_sums(
                    arm.params, arm.cost.scale(arm.weight), self.beta, min(lo, arm.v0), hi
                )
            except ValueError as exc:
                raise ValueError(f"arm {i}: {exc}") from None
        if not math.isfinite(total):
            raise ValueError(
                "the arms' weights overflow together: the sum over arms of"
                " (2 * weight * cost + observation cost) / (1 - beta) is not finite"
            )

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
            for key in blk:
                if key not in _ARM_FIELDS:
                    raise ValueError(f"arm {i}: unknown field {key!r}")
            try:
                params = ArmParams(
                    r=_arm_number(blk, "r"),
                    a0=_arm_number(blk, "a0"),
                    a1=_arm_number(blk, "a1"),
                    c0=_arm_number(blk, "c0", 0.0),
                    c1=_arm_number(blk, "c1", 1.0),
                )
                q = None if blk.get("power_q") is None else _arm_number(blk, "power_q")
                cost = by_name(blk.get("cost", "linear"), q)
                arms.append(
                    Arm(
                        params=params,
                        cost=cost,
                        weight=_arm_number(blk, "weight", 1.0),
                        v0=_arm_number(blk, "v0"),
                    )
                )
            except KeyError as exc:
                raise ValueError(f"arm {i} missing required field {exc}") from None
            except (TypeError, ValueError) as exc:
                raise ValueError(f"arm {i}: {exc}") from None
        try:
            beta = float(payload["beta"])
        except (TypeError, ValueError):
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


def _arm_number(blk: dict, key: str, default: Optional[float] = None) -> float:
    """Field ``key`` of an arm as a float; required when there is no default."""
    value = blk[key] if default is None else blk.get(key, default)
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"field '{key}' must be a number, got {value!r}"
        ) from None


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
    """Per-arm index interpolation tables on log-variance grids.

    ``grids[i]`` is arm i's variance grid and ``rows[i]`` its table as
    Python floats for :meth:`lookup`: (grid[0], log grid, values), the
    values being weight_i * lambda_i.  Arms that share a table share its row.
    Each grid is the slice of the arm's log grid that covers
    [min(v0, y1), max(v0, y0)], the arm's states, since phi_1 <= phi_0 are
    increasing with fixed points y1 <= y0 (:func:`build_index_tables`).
    """

    grids: list[np.ndarray]
    rows: list[tuple[float, list[float], list[float]]]

    def lookup(self, arm: int, v: float) -> float:
        """np.interp(log(max(v, grid[0])), log grid, values) on Python floats.

        Bitwise ``np.interp``'s value for a variance v: its search (the last
        grid point at or below x), its ends and exact hits, its formula and
        its retry from the right end of a segment when that gives NaN.
        """
        lo, xp, fp = self.rows[arm]
        x = math.log(max(v, lo))
        j = bisect_right(xp, x) - 1
        if j < 0:
            return fp[0]
        if j == len(xp) - 1 or xp[j] == x:
            return fp[j]
        slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])
        y = slope * (x - xp[j]) + fp[j]
        if y != y:
            y = slope * (x - xp[j + 1]) + fp[j + 1]
            if y != y and fp[j] == fp[j + 1]:
                y = fp[j]
        return y


def _table_range(arm: Arm, horizon: int) -> tuple[float, float]:
    """The variance range [lo, hi] of the arm's index table."""
    hi = _reach_bound(arm.params, arm.v0, horizon)
    return min(1e-4, 1e-4 * hi), hi


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


def _reach_slice(grid: np.ndarray, floor: float, ceiling: float) -> np.ndarray:
    """grid from one point below its last at or below floor to one point
    above its first at or above ceiling, as far as the grid goes."""
    start = max(int(np.searchsorted(grid, floor, "right")) - 2, 0)
    return grid[start:int(np.searchsorted(grid, ceiling)) + 2]


def build_index_tables(scenario: Scenario, n_points: int = 512) -> IndexTables:
    """Tabulate weight_i * lambda_i on the part of each arm's grid its runs read.

    Arm i's grid is ``np.geomspace(lo, hi, n_points)`` on its
    :func:`_table_range`; only the slice from the last point at or below
    min(v0, y1) to the first at or above hi / 2 = max(v0, y0) (the passive
    bound of :func:`_reach_bound` when y0 = inf), and one more point at
    each end for rounding, is tabulated.  phi_0 and phi_1 are increasing
    with fixed points y0 >= y1 and phi_1 <= phi_0, so a run's states stay
    in [min(v0, y1), max(v0, y0)] and each lookup brackets the points it
    would on the whole grid.  Identical (params, cost, weight, range) arms
    share a table over the union of their slices; the index is evaluated
    with the arm's weighted cost, so weights are baked in.  One
    :func:`~obsched.index.marginal_sums_batch` call steps the slices of
    all distinct arms together, which gives each arm's own sums bit for
    bit in the steps of the slowest arm.  Each distinct arm's row is built
    once from the kernel's cost / work, and the arms that share its table
    share that row.
    """
    T = truncation_horizon(scenario.beta)
    keys: list = []
    todo: dict = {}
    floors: dict = {}
    for arm in scenario.arms:
        lo, hi = _table_range(arm, scenario.horizon)
        key = (arm.params, id(arm.cost), arm.weight, lo, hi)
        keys.append(key)
        floors[key] = min(floors.get(key, math.inf), arm.v0, y1(arm.params))
        if key not in todo:
            # The index prices one unit of activation effort; when the
            # scenario's observation costs coincide they cannot serve as
            # the work scale.
            p = arm.params
            if not p.c1 > p.c0:
                p = p.with_costs(0.0, 1.0)
            todo[key] = (p, arm.cost.scale(arm.weight))
    params, wcosts = zip(*todo.values())
    grids = [_reach_slice(np.geomspace(*key[3:], n_points), floors[key], key[4] / 2.0)
             for key in todo]
    sums = marginal_sums_batch(params, scenario.beta, wcosts, grids, grids, T)
    cache = {
        key: (g, (float(g[0]), np.log(g).tolist(), (arm_sums.cost / arm_sums.work).tolist()))
        for key, g, arm_sums in zip(todo, grids, sums)
    }
    tables = [cache[key] for key in keys]
    return IndexTables(*(list(col) for col in zip(*tables)))


@dataclass
class SimTrace:
    """Per-step record of one simulated run."""

    policy: str
    chosen: list[tuple[int, ...]]
    actions: np.ndarray  # (horizon, n)
    variances: np.ndarray  # (horizon + 1, n)
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


def _select_top_m(scores: list[float], m: int) -> tuple[int, ...]:
    """Indices of the m largest scores; ties break toward lower arm id.

    ``sorted`` is stable with ``reverse=True`` too, so equal scores keep
    arm order.
    """
    order = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
    return tuple(sorted(order[:m]))


def whittle_policy(
    tables: IndexTables, variances: Sequence[float], m: int
) -> tuple[int, ...]:
    """The m arms with the largest interpolated index; ties to lower arm id."""
    scores = [tables.lookup(i, float(v)) for i, v in enumerate(variances)]
    return _select_top_m(scores, m)


def myopic_policy(
    arms: Sequence[Arm], variances: Sequence[float], m: int
) -> tuple[int, ...]:
    """The m arms with the highest current weighted cost; ties to lower arm id.

    Costs are evaluated unchecked, so each variance must lie in its arm's
    cost domain.  Every state of a run does: ``Scenario`` checks each cost
    at a lower bound on the states its run visits, and :func:`simulate`
    evaluates the visited states checked once per run.
    """
    scores = [arm.weight * float(arm.cost.eval_unchecked(np.asarray(v, dtype=float)))
              for arm, v in zip(arms, variances)]
    return _select_top_m(scores, m)


def _random_schedule(
    rng: np.random.Generator, n: int, m: int, rounds: int
) -> list[tuple[int, ...]]:
    """Per round, ``sorted(rng.choice(n, m, replace=False))``, from one draw.

    For n <= MAX_ARMS, ``choice`` runs Floyd's algorithm: m bounded draws
    on [0, j] for j = n - m ... n - 1, where a value already taken becomes
    j, then m - 1 shuffle draws on [0, i] for i = m - 1 ... 1.  One
    ``integers`` call with those bounds tiled over the rounds consumes the
    generator exactly as ``rounds`` ``choice`` calls do; the shuffle draws
    are discarded, since the picks are sorted.
    """
    highs = np.tile(np.r_[np.arange(n - m + 1, n + 1), np.arange(m, 1, -1)], rounds)
    draws = rng.integers(0, highs).tolist()
    width = 2 * m - 1
    schedule = []
    for t in range(0, rounds * width, width):
        taken: set[int] = set()
        for j, x in zip(range(n - m, n), draws[t:t + m]):
            taken.add(j if x in taken else x)
        schedule.append(tuple(sorted(taken)))
    return schedule


def simulate(
    scenario: Scenario,
    policy: str,
    tables: Optional[IndexTables] = None,
) -> SimTrace:
    """Run the belief-state chain under the named policy.

    Exactly m arms are active each round; the trace is bit-reproducible
    for a given seed, which only ``random`` reads.  Each step chooses the
    active arms and steps each arm's variance as a Python float with the
    arm's own :func:`~obsched.dynamics.scalar_map`, whose states are
    bitwise those of :func:`~obsched.dynamics.phi`.  Under ``whittle``,
    ``myopic`` and ``round_robin`` the pick and the next state depend only
    on the variances and the round-robin position, so when step t repeats
    the state of step k bit for bit, steps t onward copy steps
    k + (i - k) mod (t - k), and ``trace.cycle`` is (k, t - k).
    ``random`` steps every round, on a schedule drawn before the first in
    one ``integers`` call that gives the picks of one ``choice`` call per
    round (:func:`_random_schedule`).  Each round's picks run on Python
    floats: ``whittle`` reads :meth:`IndexTables.lookup` and ``myopic``
    the unchecked cost of each arm.  Everything else happens once per run
    over all steps: the action matrix is filled from the picks, each
    arm's cost is evaluated on all of its visited states, and since
    ``whittle`` looks up every arm's state at every step, its off-grid
    lookups are the visited states outside their arm's grid.  Each step's
    cost is still added up over the arms in arm order.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; choose from {POLICIES}")
    arms = scenario.arms
    n = len(arms)
    m = scenario.m
    steps = scenario.horizon
    if policy == "whittle" and tables is None:
        tables = build_index_tables(scenario)
    if policy == "random":
        # Child n of the seed's sequence: a given seed keeps its random
        # schedule (tests/golden/simulate.random.csv pins it).
        schedule = _random_schedule(
            np.random.default_rng(np.random.SeedSequence(scenario.seed, spawn_key=(n,))),
            n, m, steps)
    maps = [scalar_map(a.params) for a in arms]
    variances = np.empty((steps + 1, n))
    chosen: list[tuple[int, ...]] = []
    variances[0] = [a.v0 for a in arms]
    v = variances[0].tolist()
    rr_next = 0
    # The first step at which each (variances, rr_next) state was seen.
    first_step: dict[tuple[bytes, int], int] = {}
    cycle = None
    for t in range(steps):
        if policy != "random":
            k = first_step.setdefault((variances[t].tobytes(), rr_next), t)
            if k < t:
                cycle = (k, t - k)
                break
        if policy == "whittle":
            pick = whittle_policy(tables, v, m)
        elif policy == "myopic":
            pick = myopic_policy(arms, v, m)
        elif policy == "round_robin":
            pick = tuple(sorted((rr_next + j) % n for j in range(m)))
            rr_next = (rr_next + m) % n
        else:
            pick = schedule[t]
        chosen.append(pick)
        v = [step(i in pick, x) for i, step, x in zip(range(n), maps, v)]
        variances[t + 1] = v
    if cycle is not None:
        k, period = cycle
        # Step i >= k of the run is step k + (i - k) mod period of the head.
        src = k + (np.arange(t, steps + 1) - k) % period
        variances[t:] = variances[src]
        chosen.extend([chosen[j] for j in src[:-1]])
    actions = np.zeros((steps, n), dtype=np.int64)
    actions[np.arange(steps)[:, None], chosen] = 1
    off_grid = 0
    if policy == "whittle":
        for g, col in zip(tables.grids, variances[:-1].T):
            off_grid += int(np.count_nonzero((col < g[0]) | (col > g[-1])))

    inst = np.zeros(steps)
    for i, arm in enumerate(arms):
        inst += arm.weight * arm.cost.eval(variances[:-1, i]) + np.where(
            actions[:, i], arm.params.c1, arm.params.c0
        )
    disc = np.multiply.accumulate(np.r_[1.0, np.full(steps - 1, scenario.beta)])
    cum = np.cumsum(disc * inst)
    return SimTrace(
        policy=policy,
        chosen=chosen,
        actions=actions,
        variances=variances,
        inst_cost=inst,
        disc_cum_cost=cum,
        total_discounted_cost=float(cum[-1]),
        index_out_of_range=off_grid,
        cycle=cycle,
    )


def tournament(
    scenario: Scenario, policies: Sequence[str] = POLICIES
) -> dict[str, SimTrace]:
    """Run several policies on the same scenario, sharing index tables; an empty
    or unknown policy list raises ValueError before any table is built."""
    if not policies:
        raise ValueError(f"no policy to run; choose from {POLICIES}")
    for pol in policies:
        if pol not in POLICIES:
            raise ValueError(f"unknown policy {pol!r}; choose from {POLICIES}")
    tables = build_index_tables(scenario) if "whittle" in policies else None
    return {pol: simulate(scenario, pol, tables=tables) for pol in policies}
