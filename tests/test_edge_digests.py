"""Exit codes and output digests of CLI calls at the edges of the domain.

The benchmark's jobs (``test_bench_digests.py``) draw r from [0.8, 1] and
moderate precisions.  The jobs here pin the answers elsewhere: lqg with
F = 0, with a Riccati quadratic whose linear coefficient is exactly 0 and
with B and F across [1e-100, 1e100]; index and word with a1 = inf,
a1 = 1e100, r = 1e-3 and beta = 0.9999; and verify at r = 0.05 and 0.5
with every admissible cost.  ``golden/edge_digests.json`` holds each job's
argv, its exit code and the sha256 of what it writes to stdout and stderr.
A change that keeps every byte of every job's output keeps every digest.

Like ``bench_digests.json``, the manifest was written with numpy 2.4.6 on
x86-64 with AVX-512; another numpy build may round a last printed bit
differently.  Regenerate it only for an intended output change:

    PYTHONPATH=src python tests/test_edge_digests.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from obsched.cli import main

MANIFEST = Path(__file__).resolve().parent / "golden" / "edge_digests.json"

_LQG = ["--beta=0.5", "--sigma-x=1", "--sigma-y1=0.5"]
_VERIFY_COSTS = (["--cost=linear"], ["--cost=entropy"], ["--cost=neg_precision"],
                 ["--cost=ratio_demo"], ["--cost=bounded_demo"],
                 ["--cost=power", "--power-q=-1"], ["--cost=power", "--power-q=0.5"],
                 ["--cost=power", "--power-q=2"])


def jobs() -> dict[str, list[str]]:
    """Job name -> argv.  Precisions stay at or below 1e100, |B| and F at or
    above 1e-100 and every verify arm's 2 y0 above 1e-3."""
    out = {
        "lqg/F0": ["lqg", "--A=0.9", "--B=1", "--D=2", "--F=0", *_LQG],
        # qb = beta B^2 D + beta A^2 F - F = 0 exactly: R = sqrt(2).
        "lqg/qb0": ["lqg", "--A=1", "--B=1", "--D=1", "--F=1", "--beta=0.5",
                    "--sigma-x=1", "--sigma-y1=1"],
    }
    for b in ("1e-100", "1", "1e100"):
        for f in ("1e-100", "1", "1e100"):
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
    return out


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and sha256 of stdout then stderr of one ``cli.main`` call."""
    stdout, stderr = io.StringIO(), io.StringIO()
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
    manifest = {}
    for name, argv in jobs().items():
        code, digest = run(argv)
        manifest[name] = {"argv": argv, "exit": code, "sha256": digest}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
