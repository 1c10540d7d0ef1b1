"""Digests of every benchmark job's output, rerun through ``cli.main``.

``golden/bench_digests.json`` holds the sha256 of the output of each job
that ``perfbench/workloads.py`` makes for its four workloads at seeds 1 and
11, and of the ``--trace-out`` CSV of each policy of each ``simulate`` job.
The jobs run here as the benchmark runs them: one ``cli.main`` call each,
with ``--out`` a file and the scenario files written beside it.  A change
that keeps every byte of every job's output keeps every digest.

Like the files under ``tests/golden/``, the digests were written with numpy
2.4.6 on x86-64 with AVX-512.  Floats are printed with 17 significant
digits, so a different numpy build or instruction set may round a last bit
differently and fail this test without any change in obsched.

Regenerate the manifest only for an intended output change:

    PYTHONPATH=src python tests/test_bench_digests.py

Given seeds, the script prints the digests of those seeds' jobs as JSON on
stdout instead, and leaves the manifest as it is.  Two commits' outputs at
seeds the manifest does not pin can then be compared with ``diff``:

    PYTHONPATH=src python tests/test_bench_digests.py 2 3 4 > digests.json
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from obsched.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS, make_jobs  # noqa: E402

MANIFEST = Path(__file__).resolve().parent / "golden" / "bench_digests.json"
SEEDS = (1, 11)


def job_digests(workload: str, seed: int, work: Path) -> dict[str, str]:
    """sha256 of every output file of one workload's jobs at one seed.

    Keys are ``<workload>/<seed>/<job>`` for a job's ``--out`` file and
    ``<workload>/<seed>/<job>.<policy>.csv`` for a ``--trace-out`` file.
    """
    outputs = {}
    for job in make_jobs(workload, seed):
        for name, text in job.files:
            (work / name).write_text(text)
        names = {name for name, _ in job.files}
        argv = [str(work / a) if a in names else a for a in job.argv]
        key = f"{workload}/{seed}/{job.name}"
        outputs[key] = work / f"{job.name}.out"
        argv += ["--out", str(outputs[key])]
        if job.command == "simulate":
            argv += ["--trace-out", str(work / job.name)]
            for pol in job.argv[job.argv.index("--policies") + 1].split(","):
                outputs[f"{key}.{pol}.csv"] = work / f"{job.name}.{pol}.csv"
        assert main(argv) == 0, key
    return {key: hashlib.sha256(path.read_bytes()).hexdigest()
            for key, path in outputs.items()}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_job_outputs_match_digests(workload, seed, tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    want = {k: v for k, v in manifest.items() if k.startswith(f"{workload}/{seed}/")}
    assert want
    assert job_digests(workload, seed, tmp_path) == want


if __name__ == "__main__":
    import tempfile

    seeds = [int(arg) for arg in sys.argv[1:]]
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in sorted(WORKLOADS):
            for seed in seeds or SEEDS:
                digests.update(job_digests(workload, seed, Path(tmp)))
    text = json.dumps(digests, indent=1, sort_keys=True) + "\n"
    if seeds:
        sys.stdout.write(text)
    else:
        MANIFEST.write_text(text)
