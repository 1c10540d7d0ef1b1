"""Command-line front end: it only parses flags and writes results.

Subcommands: ``index`` (the index over a state grid, ``index.index_table``),
``word`` (itinerary and threshold word), ``simulate`` (a policy tournament
on a scenario file, ``bandit.tournament``), ``lqg`` (``lqg.solve_lqg``) and
``verify`` (PCLI report plus DP cross-checks, ``oracle.verify``).  Each
parses its flags, makes its library call, writes the result and maps it
to an exit code.  Output is deterministic: floats print with 17
significant digits and identical configurations yield byte-identical files.

``main`` may be called repeatedly in one process.  The parser is built
once per process, and each command imports only the modules it runs, so
``index`` and ``word`` never load the simulator, the LQG solver or the DP
oracle.  ``index --format json`` is written from a per-record template
whose bytes are exactly those of ``json.dump(payload, indent=2)``.

Exit codes: 0 success, 1 validation error, 2 internal inconsistency.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence, Union

import numpy as np

from . import costs
from .dynamics import ArmParams, InconsistencyError, check_denominator, itinerary, threshold_word
# ``index_beta1`` is unused here but stays a module attribute: perfbench/layers.py
# wraps ``cli.index_beta1`` by name in its traced pass.
from .index import IndexTable, index_beta1, index_table  # noqa: F401


class CliError(ValueError):
    """Validation failure; message is printed as a one-liner and exits 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliError(message)


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
        # An overflowing point is inf, which index_table rejects.
        with np.errstate(over="ignore", invalid="ignore"):
            return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def _arm_from_args(args: argparse.Namespace) -> ArmParams:
    return ArmParams(r=args.r, a0=args.a0, a1=float(args.a1), c0=args.c0, c1=args.c1)


def _emit(path: Optional[str], output: Union[str, dict]) -> None:
    """Write the output to the file at path, or to stdout for None or "-".

    A dict is streamed as JSON indented by 2, with a trailing newline.
    Index tables come here as a string already: ``_index_json`` writes the
    same bytes from a template, without the pure-Python indenting encoder.
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
    sub.add_argument("--cost", default="linear",
                     help="linear|entropy|neg_precision|power|ratio_demo|bounded_demo")
    sub.add_argument("--power-q", dest="power_q", type=float, default=None)


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built once per process; parse_args keeps no state."""
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


_INDEX_RECORD = """\
    {{
      "x": {},
      "lambda": {},
      "numerator": {},
      "denominator": {},
      "word": {},
      "knife_edge": {}
    }}"""


def _json_float(x: float) -> str:
    """x as json.dump writes a float, np.float64 included."""
    if x != x:
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _index_json(table: IndexTable) -> str:
    """json.dump of the table's payload with indent=2, plus a newline.

    The table holds at least one record, as every grid has two points.
    """
    records = ",\n".join(
        _INDEX_RECORD.format(
            _json_float(rec.x), _json_float(rec.lam), _json_float(rec.numerator),
            _json_float(rec.denominator),
            "null" if rec.word is None else encode_basestring_ascii(str(rec.word)),
            "true" if rec.knife_edge else "false",
        )
        for rec in table.records
    )
    return (
        '{\n  "command": "index",\n'
        f'  "records": [\n{records}\n  ],\n'
        f'  "monotonicity_violations": {table.monotonicity_violations},\n'
        f'  "T": {table.T}\n}}\n'
    )


def _cmd_index(args: argparse.Namespace) -> int:
    if (args.grid_log is None) == (args.grid_lin is None):
        raise CliError("exactly one of --grid-log / --grid-lin is required")
    if args.beta == 1.0 and args.no_words:
        raise CliError("--no-words: the beta = 1 limit needs each point's certified word")
    grid = _parse_grid(args.grid_log or args.grid_lin, log=args.grid_log is not None)
    params, cost = _arm_from_args(args), costs.by_name(args.cost, args.power_q)
    table = index_table(params, cost, args.beta, grid, words=not args.no_words)
    if args.format == "json":
        _emit(args.out, _index_json(table))
        return 0
    rows = (f"{rec.x:.17g},{rec.lam:.17g},{rec.numerator:.17g},{rec.denominator:.17g},"
            f"{'' if rec.word is None else str(rec.word)},{int(rec.knife_edge)}\n"
            for rec in table.records)
    _emit(args.out, "x,lambda,numerator,denominator,word,knife_edge\n" + "".join(rows))
    return 0


def _cmd_word(args: argparse.Namespace) -> int:
    params = _arm_from_args(args)
    if args.length < 1:
        raise CliError("--len must be positive")
    if args.max_period < 1:
        raise CliError(f"--max-period must be positive, got {args.max_period}")
    z = args.x if args.z is None else args.z
    # The states stay near max(x, z), except that an itinerary that never
    # acts (z = inf) climbs by at most 1 a letter.  itinerary rejects a
    # non-finite x.
    if math.isfinite(args.x):
        check_denominator(params, max(args.x, min(z, args.x + args.length)))
    itin = itinerary(params, args.x, z, args.length)
    tw = threshold_word(params, args.x, args.max_period)
    if args.format == "text":
        status = "periodic" if tw.periodic else "uncertified"
        text = f"itinerary {itin}\nthreshold_word {tw.word} ({status})\n"
        if tw.knife_edge:
            text += "warning: knife-edge iterates encountered\n"
        _emit(args.out, text)
        return 0
    _emit(args.out, {"command": "word", "itinerary": str(itin),
                     "threshold_word": str(tw.word) if tw.periodic else None,
                     "periodic": tw.periodic, "knife_edge": tw.knife_edge})
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from . import bandit

    try:
        with open(args.scenario) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read scenario: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed scenario JSON: {exc}") from None
    scenario = bandit.Scenario.from_json(payload)
    policies = [p.strip() for p in args.policies.split(",") if p.strip()]
    results = bandit.tournament(scenario, policies)
    if args.trace_out:
        for pol in policies:
            with open(f"{args.trace_out}.{pol}.csv", "w", newline="") as tf:
                results[pol].to_csv(tf)
    if args.format == "json":
        summaries = [results[pol].summary() for pol in policies]
        _emit(args.out, {"command": "simulate", "results": summaries})
        return 0
    rows = [f"{pol},{results[pol].total_discounted_cost:.17g}\n" for pol in policies]
    _emit(args.out, "policy,total_discounted_cost\n" + "".join(rows))
    return 0


def _cmd_lqg(args: argparse.Namespace) -> int:
    from . import lqg

    problem = lqg.LqgProblem(
        A=args.A, B=args.B, D=args.D, F=args.F, beta=args.beta,
        sigma_x=args.sigma_x, sigma_y0=float(args.sigma_y0), sigma_y1=args.sigma_y1,
        c0=args.c0, c1=args.c1,
    )
    sol = lqg.solve_lqg(problem)
    payload = {"command": "lqg", "R": sol.R, "L": sol.L, "alpha": sol.alpha,
               "z": sol.z if math.isfinite(sol.z) else format(sol.z, ".17g")}
    _emit(args.out, payload)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import oracle

    if args.grid_n < 64:
        raise CliError(f"--grid-n must be at least 64, got {args.grid_n}")
    if args.cross_checks < 0:
        raise CliError(f"--cross-checks must be non-negative, got {args.cross_checks}")
    if args.seed < 0:
        raise CliError(f"--seed must be non-negative, got {args.seed}")
    params, cost = _arm_from_args(args), costs.by_name(args.cost, args.power_q)
    payload = oracle.verify(params, cost, args.beta, seed=args.seed,
                            cross_checks=args.cross_checks, grid_n=args.grid_n)
    _emit(args.out, payload)
    # Inconsistent only when theory demanded success: admissible cost but
    # failed checks.
    return 2 if cost.condition_c and not payload["ok"] else 0


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
    except InconsistencyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
