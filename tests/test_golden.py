"""Golden outputs: the README's CLI commands, compared byte for byte.

``index.json`` adds an ``index --format json`` job on a small beta = 0.99
grid: it pins the JSON writer that index tables go through.  Its last
point, x = 60, has a certified word whose orbit reaches its cycle only
after 432 steps; the JSON null of an uncertified word is pinned by
``test_cli.py::TestIndexCommand::test_uncertified_words_are_json_null``.

The files under ``tests/golden/`` were written by the commands below with
numpy 2.4.6 on x86-64 with AVX-512.  Floats are printed with 17
significant digits, so a different numpy build or instruction set may
round a last bit differently and fail these tests without any change in
obsched.  ``simulate`` runs on the small scenario committed beside them;
``simulate.<policy>.csv`` are the ``--trace-out`` files of all four
policies on it, which pin every round's variances, actions and costs.

Regenerate the files only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from obsched import oracle
from obsched.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "index.csv": [
        "index", "--r", "0.9", "--a0", "0", "--a1", "0.01", "--beta", "0.99",
        "--cost", "linear", "--grid-log", "1e-2:1e2:500",
    ],
    "index.json": [
        "index", "--r", "1", "--a0", "0", "--a1", "0.1", "--beta", "0.99",
        "--cost", "linear", "--grid-log", "0.5:60:8", "--format", "json",
    ],
    "index_beta1.csv": [
        "index", "--r", "1", "--a0", "0", "--a1", "1e6", "--beta", "1",
        "--cost", "linear", "--grid-lin", "0.25:3.75:5",
    ],
    "word.txt": ["word", "--r", "1", "--a0", "0", "--a1", "0.1", "--x", "5", "--len", "12"],
    "simulate.json": [
        "simulate", "--scenario", str(GOLDEN / "scenario.json"),
        "--policies", "whittle,myopic,round_robin",
    ],
    "lqg.json": [
        "lqg", "--A", "1", "--B", "1", "--D", "1", "--F", "0", "--beta", "0.95",
        "--sigma-x", "1", "--sigma-y1", "10",
    ],
    "verify.json": [
        "verify", "--r", "0.9", "--a0", "0", "--a1", "0.8", "--beta", "0.8",
        "--cost", "linear",
    ],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_file_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main(COMMANDS[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


TRACE_COMMAND = [
    "simulate", "--scenario", str(GOLDEN / "scenario.json"),
    "--policies", "whittle,myopic,round_robin,random",
]


def write_traces(directory: Path) -> None:
    """The --trace-out files of TRACE_COMMAND, as simulate.<policy>.csv."""
    argv = TRACE_COMMAND + ["--trace-out", str(directory / "simulate"),
                            "--out", str(directory / "summary.json")]
    assert main(argv) == 0


@pytest.mark.parametrize("policy", ["whittle", "myopic", "round_robin", "random"])
def test_trace_matches_golden(policy, tmp_path):
    write_traces(tmp_path)
    name = f"simulate.{policy}.csv"
    assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_verify_cross_checks_take_fewer_sweeps(monkeypatch, tmp_path):
    # On the golden verify input, chaining the warm starts and the exact_at
    # stop each save value-iteration sweeps, and print the same bytes as
    # unchained every-point solves.
    solve, check = oracle.value_iteration, oracle.cross_validate

    def run(chain, relax):
        sweeps = []

        def counted(*args, exact_at=None, **kwargs):
            sol = solve(*args, exact_at=exact_at if relax else None, **kwargs)
            sweeps.append(sol.iterations)
            return sol

        def cross_validate(*args, start=None, **kwargs):
            return check(*args, start=start if chain else None, **kwargs)

        monkeypatch.setattr(oracle, "value_iteration", counted)
        monkeypatch.setattr(oracle, "cross_validate", cross_validate)
        out = tmp_path / f"{chain}-{relax}.json"
        assert main(COMMANDS["verify.json"] + ["--out", str(out)]) == 0
        return out.read_bytes(), sum(sweeps)

    both, chained, relaxed, neither = (
        run(True, True), run(True, False), run(False, True), run(False, False)
    )
    assert both[0] == chained[0] == relaxed[0] == neither[0]
    assert both[1] < min(chained[1], relaxed[1])
    assert max(chained[1], relaxed[1]) < neither[1]


@pytest.mark.parametrize("name", ["word.txt", "lqg.json"])
def test_stdout_matches_golden(name, capsys):
    assert main(COMMANDS[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


if __name__ == "__main__":
    for name, argv in COMMANDS.items():
        assert main(argv + ["--out", str(GOLDEN / name)]) == 0
    write_traces(GOLDEN)
    (GOLDEN / "summary.json").unlink()
