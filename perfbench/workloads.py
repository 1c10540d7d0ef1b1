"""Seeded input generator for the obsched benchmark.

Every input the program sees is made here from ``(workload, seed)``: a list
of jobs, each an argv list for ``obsched.cli.main`` plus the scenario files
it reads.  The same pair always gives the same jobs, byte for byte.

Each workload has a fixed *shape* (how many jobs, which discount factors,
grid sizes, cost families, arm counts) and the seed draws only the
continuous parameters inside that shape.  The work a pass does therefore
stays about the same from seed to seed, so wall times taken on different
seeds are comparable, while the inputs still vary.

Only this module and the standard library are imported, so generating
inputs never pulls in numpy or obsched and can be timed on its own.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 1

# Cost families with the flags the CLI takes; all satisfy condition (C),
# so each index table must be monotone and each verify report ``ok``.
ADMISSIBLE_COSTS = (
    ("linear",),
    ("entropy",),
    ("neg_precision",),
    ("power", "0.5"),
    ("power", "2"),
    ("bounded_demo",),
)


@dataclass(frozen=True)
class Job:
    """One CLI call: argv without ``--out``, and files to write first."""

    name: str
    command: str
    argv: tuple[str, ...]
    files: tuple[tuple[str, str], ...] = field(default=())
    # What the checker needs to know about the inputs (arm bounds etc.).
    facts: dict = field(default_factory=dict, compare=False, hash=False)


def _f(x: float) -> str:
    return repr(float(x))


def _cost_flags(cost: tuple[str, ...]) -> list[str]:
    flags = ["--cost", cost[0]]
    if len(cost) == 2:
        flags += ["--power-q", cost[1]]
    return flags


def _arm(rng: random.Random) -> dict:
    """r in [0.8, 1], a0 = 0 or small, a1 log-uniform in [0.01, 10]."""
    a0 = 0.0 if rng.random() < 0.5 else rng.uniform(0.001, 0.005)
    return {
        "r": rng.uniform(0.8, 1.0),
        "a0": a0,
        "a1": 10.0 ** rng.uniform(-2.0, 1.0),
    }


def _arm_flags(arm: dict) -> list[str]:
    return ["--r", _f(arm["r"]), "--a0", _f(arm["a0"]), "--a1", _f(arm["a1"])]


def grid_jobs(rng: random.Random) -> list[Job]:
    # grid: `obsched index` tabulations, the headline command.  The batch
    # orbit loop and per-step batch CostFn.eval dominate, with
    # threshold_word certification per grid point and the scalar path
    # only at knife-edge points; beta = 0.999 stretches the horizon
    # tenfold and beta = 1 takes the index_beta1 route.  bandit, oracle
    # and lqg are not used.
    shape = [
        # (beta, cost, grid points)
        ("0.99", ADMISSIBLE_COSTS[0], 500),
        ("0.99", ADMISSIBLE_COSTS[1], 400),
        ("0.99", ADMISSIBLE_COSTS[2], 300),
        ("0.99", ADMISSIBLE_COSTS[3], 200),
        ("0.99", ADMISSIBLE_COSTS[4], 100),
        ("0.99", ADMISSIBLE_COSTS[5], 300),
        ("0.99", ADMISSIBLE_COSTS[0], 250),
        ("0.99", ADMISSIBLE_COSTS[1], 150),
        ("0.999", ADMISSIBLE_COSTS[0], 200),
    ]
    jobs = []
    for k, (beta, cost, n) in enumerate(shape):
        arm = _arm(rng)
        lo = 10.0 ** rng.uniform(-2.5, -1.5)
        hi = 10.0 ** rng.uniform(1.5, 2.5)
        argv = (["index"] + _arm_flags(arm) + ["--beta", beta] + _cost_flags(cost)
                + ["--grid-log", f"{_f(lo)}:{_f(hi)}:{n}", "--format", "json"])
        jobs.append(Job(f"grid-{k}", "index", tuple(argv), facts={"points": n}))
    # beta = 1: nearly noiseless active observations keep every threshold
    # word short and certified, as the discount-to-one route requires.
    for k, cost in enumerate((ADMISSIBLE_COSTS[0], ADMISSIBLE_COSTS[5])):
        arm = {"r": 1.0, "a0": 0.0, "a1": 10.0 ** rng.uniform(3.0, 6.0)}
        lo = rng.uniform(0.1, 0.5)
        hi = rng.uniform(3.0, 6.0)
        argv = (["index"] + _arm_flags(arm) + ["--beta", "1"] + _cost_flags(cost)
                + ["--grid-lin", f"{_f(lo)}:{_f(hi)}:8", "--format", "json"])
        jobs.append(Job(f"beta1-{k}", "index", tuple(argv), facts={"points": 8}))
    return jobs


def lqg_jobs(rng: random.Random) -> list[Job]:
    # lqg: `obsched lqg` solves.  Each one bisects the monotone index with
    # dozens of scalar whittle_index probes (word_max_len = 1), so this is
    # the scalar point-query use of the index layer: per-step phi and
    # CostFn.eval calls, no batch sums and no real word certification.
    jobs = []
    for beta in ("0.9", "0.95", "0.98"):
        for F in ("0", "0.5"):
            A = rng.uniform(0.7, 1.0)
            sy1 = rng.uniform(0.5, 10.0)
            argv = ["lqg", "--A", _f(A), "--B", "1", "--D", "1", "--F", F,
                    "--beta", beta, "--sigma-x", "1", "--sigma-y1", _f(sy1)]
            jobs.append(Job(f"lqg-{beta}-{F}", "lqg", tuple(argv)))
    return jobs


def tournament_jobs(rng: random.Random) -> list[Job]:
    # tournament: `obsched simulate` with all four policies on
    # heterogeneous scenarios.  The only workload that uses bandit: the
    # per-step loop (per-arm phi, CostFn.eval, IndexTables.lookup) and
    # build_index_tables on the batch kernel.
    jobs = []
    for k, (n_arms, m) in enumerate(((5, 1), (7, 2))):
        arms = []
        for _ in range(n_arms):
            arm = _arm(rng)
            cost = rng.choice(ADMISSIBLE_COSTS)
            blk = {**arm, "v0": rng.uniform(0.5, 8.0),
                   "weight": rng.uniform(0.5, 10.0), "cost": cost[0],
                   "c0": 0.0, "c1": rng.choice((0.0, 1.0))}
            if len(cost) == 2:
                blk["power_q"] = float(cost[1])
            arms.append(blk)
        scenario = {"m": m, "beta": 0.99, "horizon": 2000,
                    "seed": rng.randrange(2**31), "arms": arms}
        path = f"scenario-{k}.json"
        argv = ["simulate", "--scenario", path,
                "--policies", "whittle,myopic,round_robin,random"]
        jobs.append(Job(f"sim-{k}", "simulate", tuple(argv),
                        files=((path, json.dumps(scenario, indent=1)),),
                        facts={"arms": arms}))
    return jobs


def verify_jobs(rng: random.Random) -> list[Job]:
    # verify: `obsched verify` on a 4096-point DP grid.  The only workload
    # that runs oracle.value_iteration; pcli_report drives the batch
    # kernel with a fixed start and varying thresholds, which grid never
    # does; the rest is scalar whittle_index.  r < 1 keeps the passive
    # fixed point finite, which the DP grid needs.
    jobs = []
    for k, beta in enumerate(("0.9", "0.95", "0.9", "0.95")):
        arm = _arm(rng)
        arm["r"] = rng.uniform(0.8, 0.97)
        cost = rng.choice(ADMISSIBLE_COSTS)
        argv = (["verify"] + _arm_flags(arm) + ["--beta", beta]
                + _cost_flags(cost)
                + ["--seed", str(rng.randrange(2**31)),
                   "--grid-n", "4096", "--cross-checks", "8"])
        jobs.append(Job(f"verify-{k}", "verify", tuple(argv)))
    return jobs


WORKLOADS = {
    "grid": grid_jobs,
    "lqg": lqg_jobs,
    "tournament": tournament_jobs,
    "verify": verify_jobs,
}


def make_jobs(workload: str, seed: int) -> list[Job]:
    """The fixed job list of one workload; deterministic per seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))

