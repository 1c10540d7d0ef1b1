"""obsched benchmark runner.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

A single-process, closed-loop runner: one caller runs one job at a time,
each job an in-process ``obsched.cli.main([...])`` call whose output goes to
a file under ``perfbench/.work/``.  Inputs come from ``workloads.py`` and
depend only on the workload and the seed.  The package is imported from
``src/`` of the checkout; nothing is installed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

* ``wall_norm_s``: median time of one pass over the workload's fixed job
  list, after one warm-up job, over as many passes as fit in
  ``--seconds``;
* ``setup_s``: median, over fresh interpreters, of the time to import
  obsched and generate the inputs;
* ``peak_rss_mb``: peak resident set size of the benchmark process.

Both times are rescaled to a reference machine speed (``calibration.py``):
each job and each set-up is timed next to a fixed calibration workload and
scaled by it, so that the host's speed drift does not show as a change.
The raw times go to the diagnostic line before the result.

With ``--trace 1`` the untraced passes run first as above, then one traced
pass wraps obsched's public functions (``layers.py``) and the last line
reports the per-layer metrics, including ``trace.overhead`` (traced pass
time over the untraced median).  Spans are written to
``perfbench/.work/<workload>/spans.jsonl``.

Every job's output is checked (``checks.py``); a job fails on a raise, a
nonzero exit, a broken invariant or, on the default seed, a mismatch with
the committed reference in ``refs/``.  The line before the result records
nproc and the Python and numpy versions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from calibration import Scaler  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Job, make_jobs  # noqa: E402

# The default configuration is single-threaded: OBSCHED_THREADS unset
# (default 1) and BLAS pinned to one thread.  Set before numpy loads.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_REPEATS = 9
PROBE_TIMEOUT_S = 60
MIN_PASSES = 3


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def pin_environment() -> None:
    os.environ.pop("OBSCHED_THREADS", None)
    os.environ.update(PINNED_ENV)


def import_cli(root: Path):
    """Import obsched.cli from root/src, refusing any other copy."""
    src = root / "src"
    if not (src / "obsched" / "__init__.py").is_file():
        raise BenchError(f"no obsched sources under {src}")
    sys.path.insert(0, str(src))
    from obsched import cli

    if Path(cli.__file__).resolve().parent != (src / "obsched").resolve():
        raise BenchError(f"imported obsched from {cli.__file__}, not {src}")
    return cli


def write_inputs(jobs: list[Job], work: Path) -> None:
    for job in jobs:
        for name, text in job.files:
            (work / name).write_text(text)


def setup_probe(root: Path, workload: str, seed: int, work: Path) -> float:
    """One set-up: import obsched and generate the inputs; seconds taken."""
    start = time.perf_counter()
    import_cli(root)
    write_inputs(make_jobs(workload, seed), work)
    return time.perf_counter() - start


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Scaled and raw set-up times of SETUP_REPEATS fresh interpreters."""
    scaler = Scaler()
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
        scaled.append(scaler.scale(raw[-1]))
    return scaled, raw


def load_refs(workload: str, seed: int) -> dict | None:
    """Reference summaries for the default seed; None on other seeds."""
    if seed != DEFAULT_SEED:
        return None
    path = HERE / "refs" / f"{workload}.json"
    if not path.is_file():
        raise BenchError(f"missing reference outputs {path}")
    return json.loads(path.read_text())["jobs"]


def run_job(cli, job: Job, work: Path) -> tuple[float, dict | None, str | None]:
    """Run one job; (seconds, summary of its output, failure or None)."""
    out = work / f"out-{job.name}.txt"
    out.unlink(missing_ok=True)
    # Scenario files are named relative to the work directory.
    files = {name for name, _ in job.files}
    argv = [str(work / a) if a in files else a for a in job.argv] + ["--out", str(out)]
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception as exc:  # a raise is a failed job, not a harness error
        return time.perf_counter() - start, None, f"raised {exc!r}"
    elapsed = time.perf_counter() - start
    if code != 0:
        return elapsed, None, f"exit code {code}"
    try:
        return elapsed, checks.summarize(job, out.read_text()), None
    except (checks.CheckError, OSError, KeyError, TypeError, ValueError) as exc:
        return elapsed, None, f"bad output: {exc!r}"


class Loop:
    """Closed loop over one workload's jobs, counting attempts and failures."""

    def __init__(self, cli, jobs: list[Job], work: Path, refs: dict | None):
        self.cli, self.jobs, self.work, self.refs = cli, jobs, work, refs
        self.attempted = 0
        self.failures: list[str] = []
        self.scaler = Scaler()

    def job(self, job: Job) -> tuple[float, float]:
        """Run and check one job; (scaled seconds, raw seconds)."""
        elapsed, summary, failure = run_job(self.cli, job, self.work)
        self.attempted += 1
        if failure is None and self.refs is not None:
            problems = checks.compare(self.refs[job.name], summary)
            if problems:
                failure = "reference mismatch: " + "; ".join(problems[:3])
        if failure is not None:
            self.failures.append(f"{job.name}: {failure}")
        return self.scaler.scale(elapsed), elapsed

    def one_pass(self) -> tuple[float, float]:
        """Scaled and raw seconds spent inside obsched over one pass."""
        times = [self.job(job) for job in self.jobs]
        return sum(t[0] for t in times), sum(t[1] for t in times)


def environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def metric_specs(root: Path, key: str) -> list[dict]:
    return json.loads((root / "BENCHMARK.json").read_text())[key]


def run(args: argparse.Namespace) -> dict:
    root = Path.cwd()
    cli = import_cli(root)
    specs = metric_specs(root, "per_layer" if args.trace else "end_to_end")
    work = HERE / ".work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup, setup_raw = measure_setup(args.workload, args.seed)
    jobs = make_jobs(args.workload, args.seed)
    write_inputs(jobs, work)
    loop = Loop(cli, jobs, work, load_refs(args.workload, args.seed))

    loop.job(jobs[0])  # warm-up
    passes, passes_raw, lengths = [], [], []
    deadline = time.perf_counter() + args.seconds
    # Stop before a pass would overrun the deadline, so a run lasts about
    # --seconds whatever the pass length.
    while len(passes) < MIN_PASSES or time.perf_counter() + statistics.median(lengths) <= deadline:
        start = time.perf_counter()
        scaled, raw = loop.one_pass()
        lengths.append(time.perf_counter() - start)
        passes.append(scaled)
        passes_raw.append(raw)
    wall = statistics.median(passes)
    values = {
        "wall_norm_s": wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }

    if args.trace:
        from layers import install, metrics
        from tracer import Tracer

        tracer = Tracer()
        install(tracer)
        try:
            traced, _ = loop.one_pass()
        finally:
            tracer.close()
        tracer.write(work / "spans.jsonl")
        values = metrics(tracer, traced, wall)

    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    for failure in loop.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "env": environment(), "passes_s": passes,
                      "passes_raw_s": passes_raw, "setup_samples_s": setup,
                      "setup_raw_s": setup_raw}))
    return {
        "correct": not loop.failures,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": {s["name"]: {"value": float(values[s["name"]]), "unit": s["unit"]}
                    for s in specs},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up and print the seconds (internal)")
    args = parser.parse_args(argv)
    pin_environment()
    try:
        if args.setup_probe:
            work = HERE / ".work" / args.workload
            print(setup_probe(Path.cwd(), args.workload, args.seed, work))
            return 0
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
