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
obsched.  ``simulate`` runs on the small scenario committed beside them.

Regenerate the files only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

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


@pytest.mark.parametrize("name", ["word.txt", "lqg.json"])
def test_stdout_matches_golden(name, capsys):
    assert main(COMMANDS[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()


if __name__ == "__main__":
    for name, argv in COMMANDS.items():
        assert main(argv + ["--out", str(GOLDEN / name)]) == 0
