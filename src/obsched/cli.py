"""Command-line front end.

Subcommands: ``index`` (tabulate the Whittle index over a state grid),
``word`` (threshold word / itinerary), ``simulate`` (policy tournament on
a scenario file), ``lqg`` (solve an LQG-with-costly-observations problem)
and ``verify`` (PCLI property report plus DP cross-checks).  Output is
deterministic: floats print with 17 significant digits and identical
configurations yield byte-identical files.

Exit codes: 0 success, 1 validation error, 2 internal inconsistency.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence, Union

import numpy as np

from . import bandit, costs, lqg, oracle
from .dynamics import ArmParams, InconsistencyError, itinerary, threshold_word, y0
from .index import (
    IndexTable,
    UncertifiedPeriodError,
    index_beta1,
    index_table,
)


class CliError(Exception):
    """Validation failure; message is printed as a one-liner and exits 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliError(message)


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


def _parse_grid(spec: str, log: bool) -> np.ndarray:
    try:
        lo_s, hi_s, n_s = spec.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError:
        raise CliError(f"grid must be lo:hi:n, got {spec!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise CliError(f"grid bounds must be finite, got {spec!r}")
    if not lo < hi or n < 2:
        raise CliError(f"grid needs lo < hi and n >= 2, got {spec!r}")
    if log:
        if lo <= 0:
            raise CliError("log grid requires lo > 0")
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def _arm_from_args(args: argparse.Namespace) -> ArmParams:
    a1 = math.inf if args.a1 in ("inf", "Infinity") else float(args.a1)
    try:
        return ArmParams(r=args.r, a0=args.a0, a1=a1, c0=args.c0, c1=args.c1)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _cost_from_args(args: argparse.Namespace) -> costs.CostFn:
    try:
        return costs.by_name(args.cost, getattr(args, "power_q", None))
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _emit(path: Optional[str], output: Union[str, dict]) -> None:
    """Write the output to the file at path, or to stdout for None or "-".

    A dict is streamed as JSON indented by 2, with a trailing newline.
    """
    fh = sys.stdout if path is None or path == "-" else open(path, "w", newline="")
    try:
        if isinstance(output, dict):
            json.dump(output, fh, indent=2)
            output = "\n"
        fh.write(output)
    finally:
        if fh is not sys.stdout:
            fh.close()


def _add_arm_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--r", type=float, required=True, help="state multiplier in (0,1]")
    sub.add_argument("--a0", type=float, required=True, help="passive precision >= 0")
    sub.add_argument("--a1", required=True, help="active precision > a0, or 'inf'")
    sub.add_argument("--c0", type=float, default=0.0, help="passive observation cost")
    sub.add_argument("--c1", type=float, default=1.0, help="active observation cost")


def _add_cost_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--cost",
        default="linear",
        help="linear|entropy|neg_precision|power|ratio_demo|bounded_demo",
    )
    sub.add_argument("--power-q", dest="power_q", type=float, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="obsched", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="tabulate the Whittle index on a grid")
    _add_arm_flags(p_index)
    _add_cost_flags(p_index)
    p_index.add_argument("--beta", type=float, required=True)
    p_index.add_argument("--grid-log", help="lo:hi:n logarithmic state grid")
    p_index.add_argument("--grid-lin", help="lo:hi:n linear state grid")
    p_index.add_argument("--no-words", action="store_true",
                         help="skip threshold-word certification")
    p_index.add_argument("--out", default=None)
    p_index.add_argument("--format", choices=("csv", "json"), default="csv")

    p_word = sub.add_parser("word", help="threshold word / itinerary at a state")
    _add_arm_flags(p_word)
    p_word.add_argument("--x", type=float, required=True)
    p_word.add_argument("--z", type=float, default=None,
                        help="itinerary threshold (defaults to x)")
    p_word.add_argument("--len", type=int, default=12, dest="length")
    p_word.add_argument("--max-period", type=int, default=64)
    p_word.add_argument("--out", default=None)
    p_word.add_argument("--format", choices=("text", "json"), default="text")

    p_sim = sub.add_parser("simulate", help="policy tournament on a scenario file")
    p_sim.add_argument("--scenario", required=True, help="JSON scenario path")
    p_sim.add_argument("--policies", default="whittle,myopic,round_robin,random")
    p_sim.add_argument("--trace-out", default=None,
                       help="CSV trace path prefix (one file per policy)")
    p_sim.add_argument("--out", default=None)
    p_sim.add_argument("--format", choices=("csv", "json"), default="json")

    p_lqg = sub.add_parser("lqg", help="solve LQG with costly observations")
    for flag in ("A", "B", "D", "F", "beta", "sigma-x", "sigma-y1"):
        p_lqg.add_argument(f"--{flag}", type=float, required=True)
    p_lqg.add_argument("--sigma-y0", default="inf")
    p_lqg.add_argument("--c0", type=float, default=0.0)
    p_lqg.add_argument("--c1", type=float, default=1.0)
    p_lqg.add_argument("--out", default=None)

    p_ver = sub.add_parser("verify", help="PCLI report and DP cross-checks")
    _add_arm_flags(p_ver)
    _add_cost_flags(p_ver)
    p_ver.add_argument("--beta", type=float, required=True)
    p_ver.add_argument("--seed", type=int, default=20260810)
    p_ver.add_argument("--cross-checks", type=int, default=3)
    p_ver.add_argument("--grid-n", type=int, default=1024)
    p_ver.add_argument("--out", default=None)
    return parser


def _beta1_table(params: ArmParams, cost: costs.CostFn, grid) -> IndexTable:
    """Discount-to-one limit of the index over a grid (beta = 1 reroute)."""
    try:
        records = [index_beta1(params, cost, float(x), T=400) for x in grid]
    except UncertifiedPeriodError as exc:
        raise CliError(str(exc)) from None
    lams = np.array([rec.lam for rec in records])
    violations = int(np.sum(np.diff(lams) < -1e-9))
    return IndexTable(records, violations, 400, 1e-9)


def _cmd_index(args: argparse.Namespace) -> int:
    if (args.grid_log is None) == (args.grid_lin is None):
        raise CliError("exactly one of --grid-log / --grid-lin is required")
    if not 0.0 <= args.beta <= 1.0:
        raise CliError(f"beta must be in [0, 1], got {args.beta}")
    grid = _parse_grid(args.grid_log or args.grid_lin, log=args.grid_log is not None)
    params = _arm_from_args(args)
    cost = _cost_from_args(args)
    try:
        if args.beta == 1.0:
            table = _beta1_table(params, cost, grid)
        else:
            table = index_table(params, cost, args.beta, grid, words=not args.no_words)
    except costs.CostDomainError as exc:
        raise CliError(str(exc)) from None
    if args.format == "csv":
        lines = ["x,lambda,numerator,denominator,word,knife_edge\n"]
        for rec in table.records:
            word = str(rec.word) if rec.word is not None else ""
            lines.append(
                f"{_fmt(rec.x)},{_fmt(rec.lam)},{_fmt(rec.numerator)},"
                f"{_fmt(rec.denominator)},{word},{int(rec.knife_edge)}\n"
            )
        _emit(args.out, "".join(lines))
        return 0
    payload = {
        "command": "index",
        "records": [
            {
                "x": rec.x,
                "lambda": rec.lam,
                "numerator": rec.numerator,
                "denominator": rec.denominator,
                "word": str(rec.word) if rec.word is not None else None,
                "knife_edge": rec.knife_edge,
            }
            for rec in table.records
        ],
        "monotonicity_violations": table.monotonicity_violations,
        "T": table.T,
    }
    _emit(args.out, payload)
    return 0


def _cmd_word(args: argparse.Namespace) -> int:
    params = _arm_from_args(args)
    if args.length < 1:
        raise CliError("--len must be positive")
    z = args.x if args.z is None else args.z
    itin = itinerary(params, args.x, z, args.length)
    tw = threshold_word(params, args.x, args.max_period)
    if args.format == "text":
        status = "periodic" if tw.periodic else "uncertified"
        text = f"itinerary {itin}\nthreshold_word {tw.word} ({status})\n"
        if tw.knife_edge:
            text += "warning: knife-edge iterates encountered\n"
        _emit(args.out, text)
        return 0
    _emit(
        args.out,
        {
            "command": "word",
            "itinerary": str(itin),
            "threshold_word": str(tw.word) if tw.periodic else None,
            "periodic": tw.periodic,
            "knife_edge": tw.knife_edge,
        },
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    try:
        with open(args.scenario) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read scenario: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed scenario JSON: {exc}") from None
    try:
        scenario = bandit.Scenario.from_json(payload)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    if not policies:
        raise CliError(f"--policies names no policy; choose from {bandit.POLICIES}")
    for pol in policies:
        if pol not in bandit.POLICIES:
            raise CliError(f"unknown policy {pol!r}; choose from {bandit.POLICIES}")
    results = bandit.tournament(scenario, policies)
    if args.trace_out:
        for pol in policies:
            with open(f"{args.trace_out}.{pol}.csv", "w", newline="") as tf:
                results[pol].to_csv(tf)
    if args.format == "json":
        _emit(
            args.out,
            {
                "command": "simulate",
                "results": [results[pol].summary() for pol in policies],
            },
        )
        return 0
    rows = [f"{pol},{_fmt(results[pol].total_discounted_cost)}\n" for pol in policies]
    _emit(args.out, "policy,total_discounted_cost\n" + "".join(rows))
    return 0


def _cmd_lqg(args: argparse.Namespace) -> int:
    sy0 = math.inf if args.sigma_y0 in ("inf", "Infinity") else float(args.sigma_y0)
    try:
        problem = lqg.LqgProblem(
            A=args.A, B=args.B, D=args.D, F=args.F, beta=args.beta,
            sigma_x=args.sigma_x, sigma_y0=sy0, sigma_y1=args.sigma_y1,
            c0=args.c0, c1=args.c1,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None
    sol = lqg.solve_lqg(problem)
    payload = {"command": "lqg", "R": sol.R, "L": sol.L, "alpha": sol.alpha,
               "z": sol.z if math.isfinite(sol.z) else _fmt(sol.z)}
    _emit(args.out, payload)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if not 0.0 <= args.beta < 1.0:
        raise CliError(f"beta must be in [0, 1), got {args.beta}")
    if args.grid_n < 64:
        raise CliError(f"--grid-n must be at least 64, got {args.grid_n}")
    if args.cross_checks < 0:
        raise CliError(f"--cross-checks must be non-negative, got {args.cross_checks}")
    params = _arm_from_args(args)
    cost = _cost_from_args(args)
    cfg = oracle.PcliConfig(seed=args.seed)
    try:
        report = oracle.pcli_report(params, cost, args.beta, cfg)
    except costs.CostDomainError as exc:
        raise CliError(str(exc)) from None
    crosses = []
    threshold_ok = True
    # The DP grid spans [1e-4 y1, 4 y0], so there are no cross-checks when
    # the passive fixed point is infinite (r = 1, a0 = 0).
    if math.isfinite(y0(params)):
        grid = oracle.default_grid(params, n=args.grid_n)
        rng = np.random.default_rng(args.seed)
        lo, hi = oracle.state_bounds(params, cfg)
        for x_star in rng.uniform(lo, min(hi, grid.hi * 0.5), args.cross_checks):
            cv = oracle.cross_validate(params, cost, args.beta, float(x_star), grid)
            threshold_ok = threshold_ok and cv.threshold_ok
            crosses.append(
                {
                    "x_star": cv.x_star,
                    "lambda": cv.lam,
                    "delta": cv.delta,
                    "action_at_higher_price": cv.action_above,
                    "action_at_lower_price": cv.action_below,
                    "flip_ok": cv.action_above == 0 and cv.action_below == 1,
                    "threshold_ok": cv.threshold_ok,
                }
            )
    flips_ok = all(c["flip_ok"] for c in crosses)
    ok = bool(report["ok"] and threshold_ok and flips_ok)
    payload = {"command": "verify", "pcli": report, "cross_validation": crosses,
               "ok": ok}
    _emit(args.out, payload)
    # Inconsistent only when theory demanded success: admissible cost but
    # failed checks.
    if cost.condition_c and not ok:
        return 2
    return 0


_DISPATCH = {
    "index": _cmd_index,
    "word": _cmd_word,
    "simulate": _cmd_simulate,
    "lqg": _cmd_lqg,
    "verify": _cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InconsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
