"""CLI: subcommands, exit codes, deterministic output, schema validation."""

import functools
import json
import math
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import obsched
from obsched import index as index_mod
from obsched import cli, costs, dynamics, lqg, oracle
from obsched.cli import main
from obsched.dynamics import ArmParams
from obsched.index import IndexRecord, IndexTable
from obsched.words import Word

from test_golden import COMMANDS, GOLDEN


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

    def test_beta1_no_words_exits_1(self, capsys):
        # The limit's denominator comes from each point's certified word.
        code, out, err = run(self.BETA1 + ["--beta", "1", "--no-words"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: --no-words") and "certified" in err
        assert err.count("\n") == 1

    def test_beta1_mismatched_cycles_exit_2(self, capsys, monkeypatch):
        summands = index_mod._orbit_summands

        def shifted(*args, **kwargs):
            terms, spans, knife = summands(*args, **kwargs)
            for first, (_, c, b) in enumerate(spans):
                terms[0, c:b] *= 1.0 + 1e-6 * first
            return terms, spans, knife

        monkeypatch.setattr(index_mod, "_orbit_summands", shifted)
        code, out, err = run(self.BETA1 + ["--beta", "1"], capsys)
        assert code == 2 and out == "" and "mean costs" in err

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

    def test_non_positive_max_period_exits_1(self, capsys):
        code, out, err = run(
            ["word", "--r", "1", "--a0", "0", "--a1", "0.1", "--x", "5",
             "--max-period", "0"],
            capsys,
        )
        assert code == 1 and out == ""
        assert err == "error: --max-period must be positive, got 0\n"

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
            {**SCENARIO, "arms": [{**SCENARIO["arms"][0], "cost": "power",
                                   "power_q": float("nan")}] * 3},
            {**SCENARIO, "arms": [{**SCENARIO["arms"][0], "cost": "power",
                                   "power_q": "two"}] * 3},
            {**SCENARIO, "arms": [{**SCENARIO["arms"][0], "a1": "two"}] * 2},
            {**SCENARIO, "seed": -1},
        ],
        ids=["list-payload", "int-payload", "int-arms", "object-arms",
             "list-r", "list-cost", "list-beta", "fractional-seed", "fractional-m",
             "fractional-horizon", "fractional-string-horizon", "null-seed",
             "bool-m", "nan-v0", "inf-weight", "nan-power-q",
             "string-power-q", "string-a1", "negative-seed"],
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

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("r", 2.0, "r must be in (0, 1], got 2.0"),
            ("c1", "inf", "need finite c0 and c1, got c0=0.0, c1=inf"),
            ("weight", -1.0, "weight must be positive, got -1.0"),
            ("v0", -1.0, "v0 must be non-negative, got -1.0"),
            ("cost", "power", "cost 'power' requires an exponent"),
        ],
    )
    def test_out_of_range_arm_field_is_named(self, tmp_path, capsys, field, value, message):
        arm = SCENARIO["arms"][1]
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps({**SCENARIO, "arms": [arm, {**arm, field: value}]}))
        code, out, err = run(["simulate", "--scenario", str(scen)], capsys)
        assert (code, out, err) == (1, "", f"error: arm 1: {message}\n")

    def test_negative_seed_is_named(self, tmp_path, capsys):
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps({**SCENARIO, "seed": -1}))
        code, out, err = run(["simulate", "--scenario", str(scen)], capsys)
        assert code == 1 and out == ""
        assert err == "error: seed must be non-negative, got -1\n"

    def test_integral_float_fields_accepted(self, tmp_path, capsys):
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps({**SCENARIO, "m": 1.0, "seed": 11.0}))
        code, out, _ = run(["simulate", "--scenario", str(scen)], capsys)
        scen.write_text(json.dumps(SCENARIO))
        assert code == 0
        assert run(["simulate", "--scenario", str(scen)], capsys)[1] == out

    @pytest.mark.parametrize(
        "arms, message",
        [([{**SCENARIO["arms"][0], "wieght": 10.0}, SCENARIO["arms"][1]],
          "arm 0: unknown field 'wieght'"),
         ([SCENARIO["arms"][0]] * 10001, "need at most 10000 arms, got 10001")],
        ids=["misspelled-weight", "too-many-arms"],
    )
    def test_scenario_rejected_with_one_line(self, tmp_path, capsys, arms, message):
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps({**SCENARIO, "arms": arms}))
        code, out, err = run(["simulate", "--scenario", str(scen)], capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_x0_is_ignored(self, tmp_path, capsys):
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(SCENARIO))
        _, want, _ = run(["simulate", "--scenario", str(scen)], capsys)
        for x0 in (3.0, "-inf", "two"):
            arms = [{**arm, "x0": x0} for arm in SCENARIO["arms"]]
            scen.write_text(json.dumps({**SCENARIO, "arms": arms}))
            assert run(["simulate", "--scenario", str(scen)], capsys) == (0, want, "")

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

    def test_overflowing_weight_exits_1(self, tmp_path, capsys):
        # Above about 7.8e305 the linear arm's discounted cost bound on its
        # orbits' states is not finite at beta = 0.9.
        arm = {"r": 0.9, "a0": 0.0, "a1": 1.0, "v0": 2.0, "cost": "linear"}
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(
            {**SCENARIO, "beta": 0.9, "arms": [{**arm, "weight": 1e308}, arm]}))
        code, out, err = TestOverflowingActivePrecision.run_quietly(
            ["simulate", "--scenario", str(scen), "--policies", "whittle,myopic"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: arm 0: cost '1e+308*linear' is too large")
        assert err.count("\n") == 1

    def test_overflowing_weights_together_exit_1(self, tmp_path, capsys):
        # Nine arms each below the per-arm bound overflow the round's sum.
        arm = {"r": 0.9, "a0": 0.0, "a1": 1.0, "v0": 2.0, "cost": "linear",
               "weight": 7.5e305}
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(
            {"m": 1, "beta": 0.9, "horizon": 50, "seed": 1, "arms": [arm] * 9}))
        code, out, err = TestOverflowingActivePrecision.run_quietly(
            ["simulate", "--scenario", str(scen), "--policies", "myopic,round_robin",
             "--format", "csv"], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: the arms' weights overflow together")
        assert err.count("\n") == 1

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

    @pytest.mark.parametrize("B", ["1e-200", "1e-160"])
    def test_tiny_B_and_F(self, capsys, B):
        # qb^2 underflows; R is D / (1 - beta A^2), not twice that.
        code, out, err = run(["lqg", "--A", "0.5", "--B", B, "--D", "1", "--F", "1e-170",
                              "--beta", "0.5", "--sigma-x", "1", "--sigma-y1", "1"], capsys)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["R"] == 1.1428571428571428
        assert payload["alpha"] == 0.0 and payload["z"] == "inf"

    def test_infinite_gain_is_strict_json(self, capsys, schema):
        # L = A / B overflows at B = 5e-324; it prints as "inf", as z does.
        code, out, err = run(["lqg", "--A", "0.7", "--B", "5e-324", "--D", "1", "--F", "0",
                              "--beta", "0.5", "--sigma-x", "1", "--sigma-y1", "0.5"], capsys)
        assert (code, err) == (0, "")

        def no_constants(name):
            raise AssertionError(f"{name} is not strict JSON")

        payload = json.loads(out, parse_constant=no_constants)
        jsonschema.validate(payload, schema)
        assert payload["L"] == "inf" and payload["z"] == "inf"

    def test_validation(self, capsys):
        code, _, err = run(
            [a if a != "--B" else "--B" for a in self.ARGS[:-2]] + ["--sigma-y1", "10",
             "--B", "0"],
            capsys,
        )
        assert code == 1

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--A", "2", "|A| must be in (0, 1], got 2.0"),
            ("--A", "nan", "|A| must be in (0, 1], got nan"),
            ("--A", "0", "|A| must be in (0, 1], got 0.0"),
            ("--sigma-x", "-1", "sigma_x must be positive"),
            ("--sigma-x", "nan", "sigma_x must be positive"),
            ("--sigma-y0", "5", "need 0 < sigma_y1 < sigma_y0, got 10.0, 5.0"),
            ("--c0", "2", "need c0 <= c1, got c0=2.0, c1=1.0"),
            ("--B", "nan", "B must be non-zero and finite, got nan"),
            ("--B", "inf", "B must be non-zero and finite, got inf"),
            ("--D", "nan", "D must be positive and finite, got nan"),
            ("--D", "inf", "D must be positive and finite, got inf"),
            ("--F", "nan", "F must be non-negative and finite, got nan"),
            ("--F", "inf", "F must be non-negative and finite, got inf"),
        ],
        ids=["A-2", "A-nan", "A-0", "sigma-x-neg", "sigma-x-nan", "sigma-y0-below-y1",
             "c0-above-c1", "B-nan", "B-inf", "D-nan", "D-inf", "F-nan", "F-inf"],
    )
    def test_invalid_input_is_named(self, capsys, flag, value, message):
        code, out, err = run(self.ARGS + [flag, value], capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")

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

    def test_negative_seed_exits_1(self, capsys):
        code, out, err = run(["verify", *self.ARM, "--seed", "-1"], capsys)
        assert code == 1 and out == ""
        assert err == "error: --seed must be non-negative, got -1\n"

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

    def test_chained_cross_checks_match_cold_solves(self, capsys, monkeypatch):
        # The cross-checks run from the highest x* down, each warm-started
        # from the last one's values, and print in the order drawn, as cold
        # solves would.
        calls = []
        chained = oracle.cross_validate

        def spy(params, cost, beta, x_star, grid, start=None):
            calls.append((x_star, start is None))
            return chained(params, cost, beta, x_star, grid, start=start)

        monkeypatch.setattr(oracle, "cross_validate", spy)
        code, out, _ = run(
            ["verify", *self.ARM, "--cross-checks", "5", "--grid-n", "256"], capsys
        )
        assert code == 0
        records = json.loads(out)["cross_validation"]
        drawn = [rec["x_star"] for rec in records]
        assert drawn != sorted(drawn, reverse=True)
        assert calls == [(x, i == 0) for i, x in enumerate(sorted(drawn, reverse=True))]

        monkeypatch.setattr(oracle, "cross_validate", chained)
        solve = oracle.value_iteration

        def cold(*args, start=None, **kwargs):
            return solve(*args, **kwargs)

        monkeypatch.setattr(oracle, "value_iteration", cold)
        params = ArmParams(r=0.9, a0=0.0, a1=0.8)
        grid = oracle.default_grid(params, n=256)
        for rec, x_star in zip(records, drawn):
            cv = oracle.cross_validate(params, costs.linear(), 0.8, x_star, grid)
            assert rec == {
                "x_star": cv.x_star,
                "lambda": cv.lam,
                "delta": cv.delta,
                "action_at_higher_price": cv.action_above,
                "action_at_lower_price": cv.action_below,
                "flip_ok": cv.action_above == 0 and cv.action_below == 1,
                "threshold_ok": cv.threshold_ok,
            }


class TestOverflowingActivePrecision:
    """A finite a1 whose map denominator a1 r^2 v + a1 + 1 overflows on a
    command's states exits 1 with one error line and no numpy warning."""

    ARM = ["--r", "1", "--a0", "0", "--a1", "1e308"]

    @staticmethod
    def run_quietly(args, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(args, capsys)
        assert not caught
        return code, out, err

    @pytest.mark.parametrize(
        "args",
        [
            ["index", *ARM, "--cost", "linear", "--beta", "0.9", "--grid-lin", "1:2:2"],
            ["index", *ARM, "--cost", "entropy", "--beta", "0.9", "--grid-lin", "1:2:2"],
            ["index", *ARM, "--beta", "1", "--grid-lin", "1:2:2"],
            ["word", *ARM, "--x", "1.5"],
            ["word", *ARM, "--x", "0.5", "--z", "inf"],
            ["verify", "--r", "0.9", "--a0", "0", "--a1", "1e308", "--beta", "0.9"],
            ["lqg", "--A", "0.9", "--B", "1", "--D", "1", "--F", "0", "--beta", "0.9",
             "--sigma-x", "1", "--sigma-y1", "1e-308"],
        ],
        ids=["index-linear", "index-entropy", "index-beta1", "word", "word-z-inf",
             "verify", "lqg"],
    )
    def test_exits_1(self, capsys, args):
        code, out, err = self.run_quietly(args, capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: a1 = 1e+308 is too large") and err.count("\n") == 1

    def test_word_exits_1_before_walking(self, capsys, monkeypatch):
        # itinerary checks the denominator before it builds its map, so
        # neither the library call nor ``word`` walks the 2,000,000 letters.
        def scalar_map(p):
            raise AssertionError("the itinerary was walked before the check")

        monkeypatch.setattr(dynamics, "scalar_map", scalar_map)
        with pytest.raises(ValueError, match=r"^a1 = 1e\+308 is too large"):
            dynamics.itinerary(ArmParams(r=1.0, a0=0.0, a1=1e308), 0.5, math.inf, 2_000_000)
        code, out, err = self.run_quietly(
            ["word", *self.ARM, "--x", "0.5", "--z", "inf", "--len", "2000000"], capsys
        )
        assert code == 1 and out == ""
        assert err.startswith("error: a1 = 1e+308 is too large") and err.count("\n") == 1

    def test_simulate_exits_1(self, tmp_path, capsys):
        scen = tmp_path / "scenario.json"
        arms = [dict(SCENARIO["arms"][1]), SCENARIO["arms"][1]]
        arms[0]["a1"] = 1e308
        scen.write_text(json.dumps(dict(SCENARIO, arms=arms)))
        code, out, err = self.run_quietly(["simulate", "--scenario", str(scen)], capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: arm 0: a1 = 1e+308 is too large")
        assert err.count("\n") == 1

    def test_representable_denominator_accepted(self, capsys):
        # At a1 = 1e300 the denominators stay finite on the grid's orbits.
        code, out, _ = self.run_quietly(
            ["index", "--r", "1", "--a0", "0", "--a1", "1e300", "--beta", "0.9",
             "--grid-lin", "1:2:2"],
            capsys,
        )
        assert code == 0 and len(out.splitlines()) == 3


class TestOverflowingCost:
    """A stage or observation cost whose discounted sums overflow at the
    command's beta exits 1 with one error line and no numpy warning."""

    INDEX = ["index", "--r", "0.9", "--a0", "0", "--a1", "0.01", "--beta", "0.9"]

    @pytest.mark.parametrize(
        "args, message",
        [
            (INDEX + ["--grid-lin", "1:2:2", "--c1", "1e308"],
             "c0 = 0.0, c1 = 1e+308 are too large"),
            (INDEX + ["--grid-lin", "1:1e307:2"], "cost 'linear' is too large"),
            # The active images, near 1/a1 = 1e-300, lie far below the grid.
            (["index", "--r", "0.9", "--a0", "0", "--a1", "1e300", "--beta", "0.9",
              "--cost", "power", "--power-q", "-3", "--grid-lin", "1:2:2"],
             "cost 'power(-3.0)' is too large"),
            (["verify", "--r", "0.9", "--a0", "0", "--a1", "0.8", "--beta", "0.8",
              "--cost", "linear", "--c1", "1e308"],
             "c0 = 0.0, c1 = 1e+308 are too large"),
            # The same arm as index-orbit-states: its index table's active
            # images lie far below the table.
            (["simulate", "--scenario",
              {"m": 1, "beta": 0.9, "horizon": 20, "seed": 1,
               "arms": [{"r": 0.9, "a0": 0, "a1": 1e300, "cost": "power",
                         "power_q": -3, "v0": 1},
                        {"r": 0.9, "a0": 0, "a1": 1, "v0": 2}]}],
             "arm 0: cost '1.0*power(-3.0)' is too large"),
            # The run starts arm 0 at v0 = 1e-110, far below its table.
            (["simulate", "--policies", "myopic", "--scenario",
              {"m": 1, "beta": 0.9, "horizon": 20, "seed": 1,
               "arms": [{"r": 0.9, "a0": 0, "a1": 1, "cost": "power",
                         "power_q": -3, "v0": 1e-110},
                        {"r": 0.9, "a0": 0, "a1": 1, "v0": 2}]}],
             "arm 0: cost '1.0*power(-3.0)' is too large"),
        ],
        ids=["index", "index-stage-cost", "index-orbit-states", "verify",
             "simulate-orbit-states", "simulate-start"],
    )
    def test_exits_1(self, tmp_path, capsys, args, message):
        if isinstance(args[-1], dict):  # a scenario, passed as its file's path
            scen = tmp_path / "scenario.json"
            scen.write_text(json.dumps(args[-1]))
            args = [*args[:-1], str(scen)]
        code, out, err = TestOverflowingActivePrecision.run_quietly(args, capsys)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


class TestNonFiniteObservationCost:
    """An infinite or NaN c0 or c1 exits 1 with one error line naming both."""

    @pytest.mark.parametrize("command", ["index", "verify", "simulate", "lqg"])
    @pytest.mark.parametrize("c0, c1", [("0", "inf"), ("nan", "1"), ("-inf", "1")])
    def test_exits_1(self, tmp_path, capsys, command, c0, c1):
        if command == "simulate":
            arms = [dict(SCENARIO["arms"][1], c0=float(c0), c1=float(c1))] * 2
            scen = tmp_path / "scenario.json"
            scen.write_text(json.dumps(dict(SCENARIO, arms=arms)))
            args = ["simulate", "--scenario", str(scen)]
        else:
            args = {
                "index": TestIndexCommand.ARGS,
                "verify": ["verify", *TestVerifyCommand.ARM, "--cross-checks", "0",
                           "--grid-n", "64"],
                "lqg": TestLqgCommand.ARGS,
            }[command] + [f"--c0={c0}", f"--c1={c1}"]
        code, out, err = run(args, capsys)
        message = f"need finite c0 and c1, got c0={float(c0)}, c1={float(c1)}"
        if command == "simulate":
            message = "arm 0: " + message
        assert (code, out, err) == (1, "", f"error: {message}\n")


class TestUnwritableOutput:
    """An output path in a missing directory exits 1 with one error line."""

    @pytest.fixture
    def argv(self, tmp_path):
        scen = tmp_path / "scenario.json"
        scen.write_text(json.dumps(SCENARIO))
        return {
            "index": TestIndexCommand.ARGS,
            "word": ["word", "--r", "0.9", "--a0", "0", "--a1", "0.5", "--x", "2"],
            "simulate": ["simulate", "--scenario", str(scen)],
            "lqg": TestLqgCommand.ARGS,
            "verify": ["verify", *TestVerifyCommand.ARM, "--cross-checks", "0",
                       "--grid-n", "64"],
        }

    @pytest.mark.parametrize("command", ["index", "word", "simulate", "lqg", "verify"])
    def test_out_exits_1(self, tmp_path, capsys, argv, command):
        code, out, err = run(argv[command] + ["--out", str(tmp_path / "missing" / "o")],
                             capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_trace_out_exits_1(self, tmp_path, capsys, argv):
        code, out, err = run(
            argv["simulate"] + ["--trace-out", str(tmp_path / "missing" / "t")], capsys
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def run_fresh(code: str) -> str:
    """Stdout of a new interpreter that runs code with this obsched importable."""
    src = str(Path(obsched.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n{code}"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return proc.stdout


class TestManyCommandsInOneProcess:
    """main keeps no state between calls, though the parser is built only once."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_words_come_back_after_no_words(self, tmp_path):
        argv = COMMANDS["index.json"]
        no_words, words = tmp_path / "no_words.json", tmp_path / "words.json"
        assert main(argv + ["--no-words", "--out", str(no_words)]) == 0
        assert main(argv + ["--out", str(words)]) == 0
        assert words.read_bytes() == (GOLDEN / "index.json").read_bytes()
        fresh = run_fresh(
            f"from obsched.cli import main; main({argv + ['--no-words']!r})")
        assert no_words.read_text() == fresh
        assert all(rec["word"] is None for rec in json.loads(fresh)["records"])

    @pytest.mark.parametrize(
        "bad", [["nope"], COMMANDS["word.txt"] + ["--bogus"], ["lqg", "--A", "x"]],
        ids=["unknown-command", "unknown-flag", "bad-value"],
    )
    def test_valid_command_after_parse_error(self, tmp_path, capsys, bad):
        code, out, err = run(bad, capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        path = tmp_path / "word.txt"
        assert main(COMMANDS["word.txt"] + ["--out", str(path)]) == 0
        assert path.read_bytes() == (GOLDEN / "word.txt").read_bytes()

    def test_index_json_after_lqg(self, tmp_path):
        for name in ("lqg.json", "index.json"):
            path = tmp_path / name
            assert main(COMMANDS[name] + ["--out", str(path)]) == 0
            assert path.read_bytes() == (GOLDEN / name).read_bytes()


def index_payload(table: IndexTable) -> dict:
    """The index JSON as a dict, for json.dumps to write."""
    return {
        "command": "index",
        "records": [
            {
                "x": rec.x,
                "lambda": rec.lam,
                "numerator": rec.numerator,
                "denominator": rec.denominator,
                "word": str(rec.word) if rec.word is not None else None,
                "knife_edge": rec.knife_edge,
            }
            for rec in table.records
        ],
        "monotonicity_violations": table.monotonicity_violations,
        "T": table.T,
    }


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308]
FIELDS = st.tuples(
    st.floats() | st.sampled_from(SPECIAL_FLOATS), st.booleans()
).map(lambda t: np.float64(t[0]) if t[1] else t[0])
RECORDS = st.builds(
    IndexRecord,
    x=FIELDS, lam=FIELDS, numerator=FIELDS, denominator=FIELDS,
    word=st.none() | st.text("01", min_size=1, max_size=40).map(Word),
    knife_edge=st.booleans(),
)
TABLES = st.builds(
    IndexTable, st.lists(RECORDS, min_size=1, max_size=6),
    st.integers(0, 10**6), st.integers(1, 5_000_000),
)


class TestIndexJsonWriter:
    """The index template writes exactly what json.dumps(indent=2) writes."""

    @given(table=TABLES)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_matches_json_dumps(self, table):
        assert cli._index_json(table) == json.dumps(index_payload(table), indent=2) + "\n"

    def test_special_values(self):
        records = [
            IndexRecord(x=x, lam=np.float64(x), numerator=-x, denominator=np.float64(-x),
                        word=Word("0110") if i % 2 else None, knife_edge=bool(i % 3))
            for i, x in enumerate(SPECIAL_FLOATS)
        ]
        for table in (IndexTable(records, 3, 2750), IndexTable(records[:1], 0, 400)):
            text = cli._index_json(table)
            assert text == json.dumps(index_payload(table), indent=2) + "\n"
        assert '"x": NaN' in text and "np.float64" not in text


class TestCommandImports:
    """index and word load neither the simulator, the LQG solver nor the DP oracle."""

    def test_index_and_word_import_only_what_they_run(self, tmp_path):
        out = tmp_path / "out"
        code = (
            "from obsched import cli\n"
            f"assert cli.main({COMMANDS['index.json'] + ['--out', str(out)]!r}) == 0\n"
            f"assert cli.main({COMMANDS['word.txt'] + ['--out', str(out)]!r}) == 0\n"
            "loaded = lambda: [m for m in ('bandit', 'lqg', 'oracle')"
            " if f'obsched.{m}' in sys.modules]\n"
            "print(loaded())\n"
            f"assert cli.main({COMMANDS['lqg.json'] + ['--out', str(out)]!r}) == 0\n"
            "print(loaded())\n"
        )
        assert run_fresh(code) == "[]\n['lqg']\n"
