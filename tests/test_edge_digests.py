"""Exit codes and output digests of CLI calls at the edges of the domain.

The benchmark's jobs (``test_bench_digests.py``) draw r from [0.8, 1] and
moderate precisions.  The jobs here pin the answers elsewhere: lqg with
F = 0, with a Riccati quadratic whose linear coefficient is exactly 0,
with B and F across [1e-100, 1e100] and with B^2 underflowing; index and
word with a1 = inf, a1 = 1e100, r = 1e-3 and beta = 0.9999; verify at
r = 0.05 and 0.5 with every admissible cost; and simulate (whittle and
myopic) on scenarios whose arms start below y1 or above y0, have y0 = inf,
a1 = inf or c0 = c1, or take r = 0.9999 at beta = 0.999.  Each simulate
job reads its scenario from ``SCENARIOS``, written to a file of that name
in a temporary working directory.  ``golden/edge_digests.json`` holds each
job's argv, its exit code and the sha256 of what it writes to stdout and
stderr.  A change that keeps every byte of every job's output keeps every
digest.

Like ``bench_digests.json``, the manifest was written with numpy 2.4.6 on
x86-64 with AVX-512; another numpy build may round a last printed bit
differently.  Regenerate it only for an intended output change, naming
the jobs that change; each named job's old and new (exit, sha256) print,
and no other entry is touched:

    PYTHONPATH=src python tests/test_edge_digests.py lqg/F0 lqg/qb0

With no job named, every entry is rewritten.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from obsched.cli import main

MANIFEST = Path(__file__).resolve().parent / "golden" / "edge_digests.json"

_LQG = ["--beta=0.5", "--sigma-x=1", "--sigma-y1=0.5"]
# Two arms each, m = 1: the first arm has the named edge.  The weights
# make whittle and myopic pick differently.
SCENARIOS = {
    name: {"arms": arms, "m": 1, "beta": beta, "horizon": horizon, "seed": 1}
    for name, arms, beta, horizon in (
        ("v0-below-y1", [{"r": 0.9, "a0": 0, "a1": 10, "v0": 1e-3},
                         {"r": 0.9, "a0": 0.1, "a1": 1, "v0": 2, "weight": 3}], 0.9, 200),
        ("v0-above-y0", [{"r": 0.8, "a0": 0, "a1": 1, "v0": 50},
                         {"r": 0.9, "a0": 0, "a1": 2, "v0": 1, "weight": 3}], 0.9, 200),
        ("r1-a0-0", [{"r": 1, "a0": 0, "a1": 1, "v0": 2, "weight": 0.5},
                     {"r": 0.95, "a0": 0, "a1": 0.5, "v0": 1}], 0.9, 200),
        ("a1inf", [{"r": 0.9, "a0": 0, "a1": "inf", "v0": 2, "weight": 3},
                   {"r": 0.9, "a0": 0, "a1": 1, "v0": 1}], 0.9, 200),
        ("c0-eq-c1", [{"r": 0.9, "a0": 0, "a1": 1, "c0": 0.5, "c1": 0.5, "v0": 2},
                      {"r": 0.85, "a0": 0.1, "a1": 2, "v0": 3, "cost": "entropy"}], 0.9, 200),
        ("r0.9999-beta0.999", [{"r": 0.9999, "a0": 0, "a1": 1, "v0": 2},
                               {"r": 0.99, "a0": 0.01, "a1": 0.5, "v0": 5, "weight": 3}],
         0.999, 400),
    )
}
_VERIFY_COSTS = (["--cost=linear"], ["--cost=entropy"], ["--cost=neg_precision"],
                 ["--cost=ratio_demo"], ["--cost=bounded_demo"],
                 ["--cost=power", "--power-q=-1"], ["--cost=power", "--power-q=0.5"],
                 ["--cost=power", "--power-q=2"])


def jobs() -> dict[str, list[str]]:
    """Job name -> argv.  Precisions stay at or below 1e100, |B| and F at or
    above 1e-100 but in the four jobs whose B^2 underflows, and every verify
    arm's 2 y0 above 1e-3."""
    out = {
        "lqg/F0": ["lqg", "--A=0.9", "--B=1", "--D=2", "--F=0", *_LQG],
        # qb = beta B^2 D + beta A^2 F - F = 0 exactly: R = sqrt(2).
        "lqg/qb0": ["lqg", "--A=1", "--B=1", "--D=1", "--F=1", "--beta=0.5",
                    "--sigma-x=1", "--sigma-y1=1"],
    }
    for b in ("1e-100", "1", "1e100"):
        for f in ("1e-100", "1", "1e100"):
            out[f"lqg/B{b}-F{f}"] = ["lqg", "--A=0.7", f"--B={b}", "--D=1", f"--F={f}", *_LQG]
    # B^2 underflows: L = A / B at F = 0 (inf at B = 5e-324), and F far
    # below beta B^2 R.
    for b, f in (("1e-200", "0"), ("1e-160", "0"), ("1e-160", "1e-323"), ("5e-324", "0")):
        out[f"lqg/B{b}-F{f}"] = ["lqg", "--A=0.7", f"--B={b}", "--D=1", f"--F={f}", *_LQG]
    arms = {"a1inf": ["--r=0.9", "--a0=0", "--a1=inf"],
            "a1e100": ["--r=0.9", "--a0=0.1", "--a1=1e100"],
            "r1e-3": ["--r=1e-3", "--a0=0", "--a1=1"]}
    for name, arm in arms.items():
        for beta in ("0.9", "1"):
            out[f"index/{name}-beta{beta}"] = ["index", *arm, f"--beta={beta}",
                                               "--grid-log=0.01:10:7", "--format=json"]
        out[f"word/{name}"] = ["word", *arm, "--x=0.7", "--len=20", "--format=json"]
    out["index/beta0.9999"] = ["index", "--r=0.9", "--a0=0", "--a1=1", "--beta=0.9999",
                               "--cost=entropy", "--grid-log=0.1:10:3"]
    out["index/a1inf-beta0.9999"] = ["index", "--r=0.95", "--a0=0", "--a1=inf",
                                     "--beta=0.9999", "--grid-lin=0.5:3:3"]
    for r in ("0.05", "0.5"):
        for cost in _VERIFY_COSTS:
            name = "".join(flag.split("=")[1] for flag in cost)
            out[f"verify/r{r}-{name}"] = ["verify", f"--r={r}", "--a0=0", "--a1=2", *cost,
                                          "--beta=0.8", "--grid-n=128", "--cross-checks=1"]
    for name in SCENARIOS:
        out[f"simulate/{name}"] = ["simulate", f"--scenario={name}.json",
                                   "--policies=whittle,myopic", "--format=json"]
    return out


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and sha256 of stdout then stderr of one ``cli.main`` call,
    made in a temporary directory that holds every scenario file."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for name, payload in SCENARIOS.items():
            Path(f"{name}.json").write_text(json.dumps(payload))
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    text = stdout.getvalue() + "\0" + stderr.getvalue()
    return code, hashlib.sha256(text.encode()).hexdigest()


MANIFEST_JOBS = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}


@pytest.mark.parametrize("name", sorted(MANIFEST_JOBS))
def test_job_matches_digest(name):
    job = MANIFEST_JOBS[name]
    assert run(job["argv"]) == (job["exit"], job["sha256"])


def test_manifest_lists_every_job():
    assert {name: job["argv"] for name, job in MANIFEST_JOBS.items()} == jobs()


if __name__ == "__main__":
    all_jobs, names = jobs(), sys.argv[1:]
    if unknown := [name for name in names if name not in all_jobs]:
        raise SystemExit(f"unknown jobs: {', '.join(unknown)}")
    manifest = dict(MANIFEST_JOBS) if names else {}
    for name in names or all_jobs:
        code, digest = run(all_jobs[name])
        if names:
            old = MANIFEST_JOBS.get(name, {})
            print(f"{name}: ({old.get('exit')}, {old.get('sha256')}) -> ({code}, {digest})")
        manifest[name] = {"argv": all_jobs[name], "exit": code, "sha256": digest}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
