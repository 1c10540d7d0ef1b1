"""CLI: subcommands, exit codes, deterministic output, schema validation."""

import functools
import json
from importlib import resources

import jsonschema
import pytest

from obsched import lqg, oracle
from obsched.cli import main


@pytest.fixture(scope="module")
def schema():
    path = resources.files("obsched") / "schemas" / "output.schema.json"
    return json.loads(path.read_text())


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SCENARIO = {
    "m": 1,
    "beta": 0.95,
    "horizon": 20,
    "seed": 11,
    "arms": [
        {"r": 1.0, "a0": 0.0, "a1": 0.1, "v0": 4.0, "weight": 10.0,
         "c0": 0.0, "c1": 0.0},
        {"r": 1.0, "a0": 0.0, "a1": 0.1, "v0": 4.0, "c0": 0.0, "c1": 0.0},
        {"r": 1.0, "a0": 0.0, "a1": 0.1, "v0": 4.0, "c0": 0.0, "c1": 0.0},
    ],
}


class TestIndexCommand:
    ARGS = [
        "index", "--r", "0.9", "--a0", "0", "--a1", "0.01", "--beta", "0.9",
        "--cost", "linear", "--grid-log", "1e-1:10:25",
    ]

    def test_csv_output(self, capsys):
        code, out, _ = run(self.ARGS, capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,lambda,numerator,denominator,word,knife_edge"
        assert len(lines) == 26

    def test_byte_identical_reruns(self, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.ARGS + ["--out", str(f1)]) == 0
        assert main(self.ARGS + ["--out", str(f2)]) == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_json_valid_against_schema(self, capsys, schema):
        code, out, _ = run(self.ARGS + ["--format", "json"], capsys)
        assert code == 0
        jsonschema.validate(json.loads(out), schema)

    def test_validation_errors_exit_1(self, capsys):
        code, _, err = run(
            ["index", "--r", "0.9", "--a0", "0", "--a1", "0.01",
             "--beta", "1.5", "--grid-log", "1e-1:10:5"],
            capsys,
        )
        assert code == 1 and "beta" in err
        code, _, err = run(self.ARGS[:-2] + ["--grid-log", "banana"], capsys)
        assert code == 1
        code, _, err = run(self.ARGS + ["--grid-lin", "0:1:5"], capsys)
        assert code == 1 and "exactly one" in err

    def test_unknown_flag_exits_1(self, capsys):
        code, _, err = run(self.ARGS + ["--bogus", "1"], capsys)
        assert code == 1 and err.startswith("error:")

    def test_cost_domain_violation_exits_1(self, capsys):
        code, _, err = run(
            ["index", "--r", "1.0", "--a0", "0", "--a1", "inf", "--beta", "0.5",
             "--cost", "entropy", "--grid-log", "1e-2:10:10"],
            capsys,
        )
        assert code == 1 and "undefined" in err

    def test_equal_costs_exit_1(self, capsys):
        # c0 = c1 leaves no work to price: invalid input, rejected before
        # any sum (no numpy warning, no internal-inconsistency exit).
        code, out, err = run(self.ARGS + ["--c0", "1", "--c1", "1"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: cost gap") and err.count("\n") == 1

    @pytest.mark.parametrize("q", ["nan", "inf", "-inf"])
    def test_non_finite_power_exponent_exits_1(self, capsys, q):
        code, out, err = run(self.ARGS[:-4] + ["--cost", "power", f"--power-q={q}",
                                               "--grid-log", "1e-1:10:5"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: power exponent must be finite")


class TestWordCommand:
    def test_fig3_itinerary(self, capsys):
        code, out, _ = run(
            ["word", "--r", "1", "--a0", "0", "--a1", "0.1", "--x", "5",
             "--len", "12"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0].startswith("itinerary 10010")

    def test_json_schema(self, capsys, schema):
        code, out, _ = run(
            ["word", "--r", "0.9", "--a0", "0.1", "--a1", "1.0", "--x", "2.0",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        jsonschema.validate(json.loads(out), schema)

    @pytest.mark.parametrize("x", ["0.01", "0.597", "5.263157894736842", "40"])
    def test_json_outside_and_at_fixed_point_interval(self, capsys, schema, x):
        # x well below and just below y1 = 0.5974..., at y0 = 1/(1 - 0.81) and
        # above y0:
        # the one-letter words, with a JSON boolean knife-edge flag.
        code, out, _ = run(
            ["word", "--r", "0.9", "--a0", "0", "--a1", "1", "--x", x,
             "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert payload["threshold_word"] in ("0", "1")
        assert payload["knife_edge"] is (x == "5.263157894736842")


class TestSimulateCommand:
    def test_tournament_json(self, tmp_path, capsys, schema):
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(SCENARIO))
        code, out, _ = run(
            ["simulate", "--scenario", str(scen),
             "--policies", "whittle,round_robin"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert [r["policy"] for r in payload["results"]] == [
            "whittle", "round_robin",
        ]

    def test_missing_beta_rejected(self, tmp_path, capsys):
        scen = tmp_path / "scenario.json"
        payload = {k: v for k, v in SCENARIO.items() if k != "beta"}
        scen.write_text(json.dumps(payload))
        code, _, err = run(["simulate", "--scenario", str(scen)], capsys)
        assert code == 1 and "beta" in err

    @pytest.mark.parametrize(
        "payload",
        [
            [SCENARIO],
            7,
            {**SCENARIO, "arms": [1, 2]},
            {**SCENARIO, "arms": {"r": 1.0}},
            {**SCENARIO, "arms": [{**SCENARIO["arms"][0], "r": [1.0]}] * 2},
            {**SCENARIO, "arms": [{**SCENARIO["arms"][0], "cost": ["linear"]}] * 2},
            {**SCENARIO, "beta": [0.95]},
            {**SCENARIO, "seed": 1.5},
            {**SCENARIO, "m": 1.5},
            {**SCENARIO, "horizon": 20.5},
            {**SCENARIO, "horizon": "20.5"},
            {**SCENARIO, "seed": None},
            {**SCENARIO, "m": True},
            {**SCENARIO, "arms": [{**SCENARIO["arms"][0], "v0": "nan"}] * 2},
            {**SCENARIO, "arms": [{**SCENARIO["arms"][0], "weight": "inf"}] * 2},
            {**SCENARIO, "arms": [{**SCENARIO["arms"][0], "x0": "-inf"}] * 2},
            {**SCENARIO, "arms": [{**SCENARIO["arms"][0], "cost": "power",
                                   "power_q": float("nan")}] * 3},
            {**SCENARIO, "arms": [{**SCENARIO["arms"][0], "cost": "power",
                                   "power_q": "two"}] * 3},
        ],
        ids=["list-payload", "int-payload", "int-arms", "object-arms",
             "list-r", "list-cost", "list-beta", "fractional-seed", "fractional-m",
             "fractional-horizon", "fractional-string-horizon", "null-seed",
             "bool-m", "nan-v0", "inf-weight", "inf-x0", "nan-power-q",
             "string-power-q"],
    )
    def test_malformed_scenario_rejected(self, tmp_path, capsys, payload):
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(payload))
        code, out, err = run(["simulate", "--scenario", str(scen)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_integral_float_fields_accepted(self, tmp_path, capsys):
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps({**SCENARIO, "m": 1.0, "seed": 11.0}))
        code, out, _ = run(["simulate", "--scenario", str(scen)], capsys)
        scen.write_text(json.dumps(SCENARIO))
        assert code == 0
        assert run(["simulate", "--scenario", str(scen)], capsys)[1] == out

    def test_empty_policy_list_rejected(self, tmp_path, capsys):
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(SCENARIO))
        code, out, err = run(
            ["simulate", "--scenario", str(scen), "--policies", ","], capsys
        )
        assert code == 1 and out == "" and "no policy" in err

    def test_malformed_json_rejected(self, tmp_path, capsys):
        scen = tmp_path / "scenario.json"
        scen.write_text("{not json")
        code, _, err = run(["simulate", "--scenario", str(scen)], capsys)
        assert code == 1 and "malformed" in err

    def test_trace_files_written(self, tmp_path):
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(SCENARIO))
        prefix = tmp_path / "trace"
        assert main(
            ["simulate", "--scenario", str(scen), "--policies", "myopic",
             "--trace-out", str(prefix), "--out", str(tmp_path / "o.json")]
        ) == 0
        trace = (tmp_path / "trace.myopic.csv").read_text().splitlines()
        assert trace[0] == "step,arm,action,variance,inst_cost,disc_cum_cost"

    def test_deterministic_output_files(self, tmp_path):
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(SCENARIO))
        outs = []
        for name in ("x.json", "y.json"):
            path = tmp_path / name
            assert main(
                ["simulate", "--scenario", str(scen), "--out", str(path)]
            ) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


class TestLqgCommand:
    ARGS = [
        "lqg", "--A", "1", "--B", "1", "--D", "1", "--F", "0",
        "--beta", "0.95", "--sigma-x", "1", "--sigma-y1", "10",
    ]

    def test_f_zero(self, capsys, schema):
        code, out, _ = run(self.ARGS, capsys)
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert payload["R"] == 1.0
        assert payload["L"] == pytest.approx(1.0)

    def test_validation(self, capsys):
        code, _, err = run(
            [a if a != "--B" else "--B" for a in self.ARGS[:-2]] + ["--sigma-y1", "10",
             "--B", "0"],
            capsys,
        )
        assert code == 1

    def test_riccati_residual_exits_2(self, capsys, monkeypatch):
        # A Riccati root that does not solve the equation is an internal
        # inconsistency, not invalid input.
        monkeypatch.setattr(lqg, "riccati_root", lambda problem: 2.0)
        code, out, err = run(self.ARGS, capsys)
        assert code == 2
        assert out == ""
        assert "Riccati residual" in err


class TestVerifyCommand:
    ARM = ["--r", "0.9", "--a0", "0.0", "--a1", "0.8", "--beta", "0.8"]

    def test_admissible_passes(self, capsys, schema):
        code, out, _ = run(
            ["verify", "--r", "0.9", "--a0", "0.0", "--a1", "0.8",
             "--beta", "0.8", "--cost", "linear", "--cross-checks", "1",
             "--grid-n", "512"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert payload["ok"]

    def test_inadmissible_cost_reports_findings(self, capsys, schema):
        code, out, _ = run(
            ["verify", "--r", "1.0", "--a0", "0.0", "--a1", "1.0",
             "--beta", "0.9", "--cost", "power", "--power-q", "-1.5",
             "--cross-checks", "0"],
            capsys,
        )
        # findings are data: the cost is declared inadmissible, so a failed
        # monotonicity check is expected, not an internal inconsistency
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert not payload["pcli"]["pcli2"]["ok"]

    def test_unconverged_value_iteration_exits_2(self, capsys, monkeypatch):
        # A DP that runs out of sweeps is an internal inconsistency.
        budget = functools.partial(oracle.value_iteration, max_iter=1)
        monkeypatch.setattr(oracle, "value_iteration", budget)
        code, out, err = run(
            ["verify", *self.ARM, "--cross-checks", "1", "--grid-n", "64"], capsys
        )
        assert code == 2
        assert out == ""
        assert "did not converge in 1 sweeps" in err

    @pytest.mark.parametrize("n", ["10", "63"])
    def test_grid_below_64_points_exits_1(self, capsys, n):
        code, out, err = run(["verify", *self.ARM, "--grid-n", n], capsys)
        assert code == 1
        assert out == ""
        assert "--grid-n must be at least 64" in err

    def test_equal_costs_exit_1(self, capsys):
        code, out, err = run(
            ["verify", "--r", "0.9", "--a0", "0", "--a1", "1", "--c0", "1",
             "--c1", "1", "--beta", "0.9"],
            capsys,
        )
        assert code == 1 and out == ""
        assert err.startswith("error: cost gap") and err.count("\n") == 1

    def test_negative_cross_checks_exit_1(self, capsys):
        code, out, err = run(["verify", *self.ARM, "--cross-checks", "-1"], capsys)
        assert code == 1
        assert out == ""
        assert "--cross-checks must be non-negative" in err

    def test_infinite_passive_fixed_point_skips_cross_checks(self, capsys, schema):
        # r = 1 and a0 = 0: y0 is infinite, so there is no default DP grid.
        code, out, _ = run(
            ["verify", "--r", "1.0", "--a0", "0.0", "--a1", "1.0", "--beta", "0.8",
             "--cross-checks", "2", "--grid-n", "64"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert payload["cross_validation"] == []
        assert payload["ok"]
