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

    BETA1 = ["index", "--r", "1", "--a0", "0", "--a1", "1e6", "--grid-lin", "1.5:2.5:2"]

    def test_beta1_limit_prices_the_cost_gap(self, capsys):
        # The limit denominator is (c1 - c0)/n: tripling the gap divides
        # lambda by three, in line with the index at beta just below 1.
        rows = {}
        for c1, beta in (("1", "1"), ("3", "1"), ("3", "0.999")):
            code, out, _ = run(self.BETA1 + ["--c1", c1, "--beta", beta], capsys)
            assert code == 0
            rows[c1, beta] = [line.split(",") for line in out.splitlines()[1:]]
        for unit, tripled, near in zip(rows["1", "1"], rows["3", "1"], rows["3", "0.999"]):
            assert float(tripled[1]) == pytest.approx(float(unit[1]) / 3.0, rel=1e-15)
            assert float(tripled[3]) == pytest.approx(3.0 * float(unit[3]), rel=1e-15)
            assert tripled[4:] == unit[4:]
            assert abs(float(tripled[1]) - float(near[1])) < 5e-3 * float(near[1])
        assert rows["3", "1"][1][1] == "2.6666653333340067"

    def test_beta1_equal_costs_exit_1(self, capsys):
        code, out, err = run(self.BETA1 + ["--c0", "1", "--c1", "1", "--beta", "1"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: cost gap") and err.count("\n") == 1

    @pytest.mark.parametrize("q", ["nan", "inf", "-inf"])
    def test_non_finite_power_exponent_exits_1(self, capsys, q):
        code, out, err = run(self.ARGS[:-4] + ["--cost", "power", f"--power-q={q}",
                                               "--grid-log", "1e-1:10:5"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: power exponent must be finite")

    @pytest.mark.parametrize("spec", ["1:inf:3", "-inf:1:3", "nan:1:3", "1:nan:3"])
    def test_non_finite_grid_bound_exits_1(self, capsys, spec):
        code, out, err = run(self.ARGS[:-2] + [f"--grid-lin={spec}"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: grid bounds must be finite")

    def test_uncertified_words_are_json_null(self, capsys, schema):
        # Periods 82 and 92 exceed the default max_len of 64.
        code, out, _ = run(
            ["index", "--r", "1", "--a0", "0", "--a1", "0.1", "--beta", "0.99",
             "--grid-log", "90:100:2", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert [rec["word"] for rec in payload["records"]] == [None, None]
        assert '"word": null' in out


class TestWordCommand:
    @pytest.mark.parametrize(
        "flags", [["--x=nan"], ["--x=inf"], ["--x=-inf"], ["--x=5", "--z=nan"]]
    )
    def test_non_finite_state_exits_1(self, capsys, flags):
        code, out, err = run(
            ["word", "--r", "1", "--a0", "0", "--a1", "0.1"] + flags, capsys
        )
        assert code == 1 and out == ""
        assert err.startswith("error: need a finite x")

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
            {**SCENARIO, "arms": [{**SCENARIO["arms"][0], "a1": "two"}] * 2},
        ],
        ids=["list-payload", "int-payload", "int-arms", "object-arms",
             "list-r", "list-cost", "list-beta", "fractional-seed", "fractional-m",
             "fractional-horizon", "fractional-string-horizon", "null-seed",
             "bool-m", "nan-v0", "inf-weight", "inf-x0", "nan-power-q",
             "string-power-q", "string-a1"],
    )
    def test_malformed_scenario_rejected(self, tmp_path, capsys, payload):
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(payload))
        code, out, err = run(["simulate", "--scenario", str(scen)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("field", ["a1", "power_q", "weight"])
    def test_non_numeric_arm_field_is_named(self, tmp_path, capsys, field):
        arm = {**SCENARIO["arms"][0], "cost": "power", "power_q": 0.5}
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps({**SCENARIO, "arms": [{**arm, field: "two"}, arm]}))
        code, out, err = run(["simulate", "--scenario", str(scen)], capsys)
        assert code == 1 and out == ""
        assert err == f"error: arm 0: field '{field}' must be a number, got 'two'\n"

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
