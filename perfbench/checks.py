"""Correctness checks on the program's outputs.

Two kinds of check apply to every job:

* invariants that hold on any seed: no monotonicity violations for the
  (admissible) costs the generator uses, ``verify`` reports ``ok``, and
  simulated variances stay within [min(v0, y1), max(v0, y0)];
* on the default seed, agreement with the committed reference outputs in
  ``refs/``: floats within ``RTOL`` (not byte for byte, so that summation
  order may change), and every threshold word that the reference certified
  reproduced exactly (an uncertified word may become certified).

``summarize`` reduces an output file to the values that are compared;
``make_refs.py`` stores exactly these summaries.
"""

from __future__ import annotations

import json
import math

from workloads import Job

# |got - ref| <= RTOL * max(|got|, |ref|, SCALE_FLOOR * column scale), where
# the column scale is the largest |ref| among the values of that field in
# the job, so values that are nearly zero are compared on the column's
# scale.
RTOL = 1e-7
SCALE_FLOOR = 1e-3
# Relative slack on the variance bounds, for rounding in the maps.
VAR_SLACK = 1e-12


class CheckError(Exception):
    """An output is wrong: malformed, inconsistent or off its reference."""


def fixed_point(r: float, a: float) -> float:
    """Fixed point of v -> (r^2 v + 1)/(a r^2 v + a + 1); inf if none."""
    r2 = r * r
    qa, qb = a * r2, a + 1.0 - r2
    if qa == 0.0:
        return math.inf if qb <= 0.0 else 1.0 / qb
    return 2.0 / (qb + math.sqrt(qb * qb + 4.0 * qa))


def summarize(job: Job, text: str) -> dict:
    """The compared values of one job's output, after its invariants hold.

    Returns ``{"floats": {field: [..]}, "words": [..] | None,
    "exact": {field: value}}``.  Raises CheckError on a broken invariant.
    """
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None
    return _SUMMARIZERS[job.command](job, out)


def _index(job: Job, out: dict) -> dict:
    recs = out["records"]
    if len(recs) != job.facts["points"]:
        raise CheckError(f"{len(recs)} records for {job.facts['points']} grid points")
    if out["monotonicity_violations"] != 0:
        raise CheckError(
            f"{out['monotonicity_violations']} monotonicity violations"
            " for an admissible cost"
        )
    return {
        "floats": {
            key: [float(r[key]) for r in recs]
            for key in ("x", "lambda", "numerator", "denominator")
        },
        "words": [r["word"] for r in recs],
        "exact": {"T": out["T"]},
    }


def _lqg(job: Job, out: dict) -> dict:
    if not out["R"] > 0.0 or not out["alpha"] >= 0.0:
        raise CheckError(f"need R > 0 and alpha >= 0, got {out}")
    return {
        "floats": {key: [float(out[key])] for key in ("R", "L", "alpha", "z")},
        "words": None,
        "exact": {},
    }


def _simulate(job: Job, out: dict) -> dict:
    arms = job.facts["arms"]
    for res in out["results"]:
        if len(res["final_variances"]) != len(arms):
            raise CheckError(f"{res['policy']}: wrong number of arms")
        for i, (arm, v) in enumerate(zip(arms, res["final_variances"])):
            lo = min(arm["v0"], fixed_point(arm["r"], arm["a1"]))
            hi = max(arm["v0"], fixed_point(arm["r"], arm["a0"]))
            if not lo * (1.0 - VAR_SLACK) <= v <= hi * (1.0 + VAR_SLACK):
                raise CheckError(
                    f"{res['policy']}: arm {i} variance {v} outside [{lo}, {hi}]"
                )
    return {
        "floats": {
            "total_discounted_cost": [r["total_discounted_cost"] for r in out["results"]],
            "final_variances": [v for r in out["results"] for v in r["final_variances"]],
        },
        "words": None,
        "exact": {
            "policies": [r["policy"] for r in out["results"]],
            "activations": [r["activations_per_arm"] for r in out["results"]],
        },
    }


def _verify(job: Job, out: dict) -> dict:
    if out["ok"] is not True:
        raise CheckError("verify did not report ok for an admissible cost")
    crosses = out["cross_validation"]
    if not crosses:
        raise CheckError("verify ran no DP cross-checks")
    return {
        "floats": {key: [c[key] for c in crosses] for key in ("x_star", "lambda", "delta")},
        "words": None,
        "exact": {"cross_checks": len(crosses)},
    }


_SUMMARIZERS = {
    "index": _index,
    "lqg": _lqg,
    "simulate": _simulate,
    "verify": _verify,
}


def _close(got: float, ref: float, scale: float) -> bool:
    if not (math.isfinite(got) and math.isfinite(ref)):
        return got == ref
    return abs(got - ref) <= RTOL * max(abs(got), abs(ref), SCALE_FLOOR * scale)


def compare(ref: dict, got: dict) -> list[str]:
    """Mismatches of a summary against its reference; empty when it agrees."""
    problems = []
    for key, ref_vals in ref["floats"].items():
        got_vals = got["floats"].get(key, [])
        if len(got_vals) != len(ref_vals):
            problems.append(f"{key}: {len(got_vals)} values, reference has {len(ref_vals)}")
            continue
        scale = max((abs(v) for v in ref_vals if math.isfinite(v)), default=0.0)
        for i, (g, r) in enumerate(zip(got_vals, ref_vals)):
            if not _close(g, r, scale):
                problems.append(f"{key}[{i}]: {g!r} vs reference {r!r}")
    if ref["words"] is not None:
        for i, (g, r) in enumerate(zip(got["words"], ref["words"])):
            if r is not None and g != r:
                problems.append(f"word[{i}]: {g!r} vs certified reference {r!r}")
    for key, val in ref["exact"].items():
        if got["exact"].get(key) != val:
            problems.append(f"{key}: {got['exact'].get(key)!r} vs reference {val!r}")
    return problems
