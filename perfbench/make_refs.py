"""Regenerate the reference outputs in refs/ for the default seed.

Run from the root of a source checkout:

    python3 perfbench/make_refs.py [workload ...]

Each job of the workload runs once at DEFAULT_SEED; its checked summary
(see checks.summarize) is stored.  Regenerate only when a change to the
program is meant to change its answers, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from run import HERE, import_cli, pin_environment, run_job, write_inputs
from workloads import DEFAULT_SEED, WORKLOADS, make_jobs


def main(names: list[str]) -> int:
    pin_environment()
    cli = import_cli(Path.cwd())
    for workload in names or sorted(WORKLOADS):
        work = HERE / ".work" / "refs"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        jobs = make_jobs(workload, DEFAULT_SEED)
        write_inputs(jobs, work)
        summaries = {}
        for job in jobs:
            _, summary, failure = run_job(cli, job, work)
            if failure is not None:
                print(f"{workload}/{job.name}: {failure}", file=sys.stderr)
                return 1
            summaries[job.name] = summary
        path = HERE / "refs" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"seed": DEFAULT_SEED, "jobs": summaries}) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
