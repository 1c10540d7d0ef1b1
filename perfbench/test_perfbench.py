"""Tests of the benchmark itself: inputs, tracing and output checks.

Run from the root of a source checkout:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import calibration
import checks
import layers
from run import import_cli
from tracer import ROOT, Span, Tracer, call_counts, self_times
from workloads import WORKLOADS, Job, make_jobs

ROOT_DIR = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def cli():
    return import_cli(ROOT_DIR)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    first = make_jobs(workload, 7)
    again = make_jobs(workload, 7)
    other = make_jobs(workload, 8)
    assert first == again
    assert [j.facts for j in first] == [j.facts for j in again]
    assert [(j.argv, j.files) for j in first] != [(j.argv, j.files) for j in other]
    assert len({j.name for j in first}) == len(first)
    # The shape of a workload does not depend on the seed.
    assert [j.name for j in first] == [j.name for j in other]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generated_argv_parses(cli, workload):
    for job in make_jobs(workload, 3):
        args = cli.build_parser().parse_args(list(job.argv) + ["--out", "x"])
        assert args.command == job.command


def test_wrappers_restore_every_patched_name(cli, tmp_path):
    names = layers.patched_names()
    originals = [vars(owner)[attr] for owner, attr in names]
    tracer = Tracer()
    layers.install(tracer)
    try:
        for (owner, attr), original in zip(names, originals):
            assert vars(owner)[attr] is not original, f"{owner}.{attr} not wrapped"
        code = cli.main(["index", "--r", "0.9", "--a0", "0", "--a1", "1",
                         "--beta", "0.5", "--grid-log", "0.1:10:5",
                         "--format", "json", "--out", str(tmp_path / "o.json")])
        assert code == 0
    finally:
        tracer.close()
    for (owner, attr), original in zip(names, originals):
        assert vars(owner)[attr] is original, f"{owner}.{attr} not restored"
    calls = call_counts(tracer.spans)
    assert calls["cli.main"] == 1
    assert calls["index.index_table"] == 1
    assert calls["dynamics.threshold_word"] == 5
    assert calls["costs.eval"] > 0 and calls["dynamics.phi"] > 0


def test_self_time_on_hand_built_tree():
    spans = [
        Span(1, "a", 1.0, 9.0, ROOT, {"leaf": [3, 2.0]}),
        Span(2, "b", 2.0, 5.0, 1, {"other": [1, 0.5]}),
        Span(3, "c", 6.0, 7.0, 1),
        Span(4, "b", 7.0, 8.5, 1, {"leaf": [2, 1.0]}),
        Span(ROOT, "<root>", 0.0, 10.0, None),
    ]
    got = self_times(spans)
    assert got["a"] == pytest.approx(8.0 - (3.0 + 1.0 + 1.5) - 2.0)
    assert got["b"] == pytest.approx((3.0 - 0.5) + (1.5 - 1.0))
    assert got["c"] == pytest.approx(1.0)
    assert got["leaf"] == pytest.approx(3.0)
    assert got["other"] == pytest.approx(0.5)
    assert got["<root>"] == pytest.approx(2.0)
    assert call_counts(spans) == {"a": 1, "b": 2, "c": 1, "leaf": 5, "other": 1}


def test_nested_leaf_counts_once():
    tracer = Tracer()
    ns = {}

    def inner(x):
        return x + 1

    def outer(x):
        return ns["inner"](x) * 2

    ns["inner"] = tracer.leaf("maps", inner)
    wrapped_outer = tracer.leaf("maps", outer)
    top = tracer.span("top", lambda: [wrapped_outer(i) for i in range(4)] + [ns["inner"](0)])
    top()
    tracer.close()
    assert call_counts(tracer.spans)["maps"] == 5


def test_scaler_uses_the_calibrations_either_side(monkeypatch):
    readings = iter([0.02, 0.06, 0.04])
    monkeypatch.setattr(calibration, "calibrate", lambda units=1: next(readings))
    scaler = calibration.Scaler()
    # The host ran at half the nominal speed around the first timing...
    assert scaler.scale(3.0) == pytest.approx(3.0 * calibration.NOMINAL_S / 0.04)
    # ...and the calibration after one timing is the one before the next.
    assert scaler.scale(3.0) == pytest.approx(3.0 * calibration.NOMINAL_S / 0.05)


def _summary(floats, words=None, exact=None):
    return {"floats": floats, "words": words, "exact": exact or {}}


def test_compare_tolerates_rounding_not_errors():
    ref = _summary({"lambda": [1.0, 2.0, 1e-11]})
    assert checks.compare(ref, _summary({"lambda": [1.0 + 1e-12, 2.0, 0.0]})) == []
    assert checks.compare(ref, _summary({"lambda": [1.0, 2.0, 1e-6]}))
    assert checks.compare(ref, _summary({"lambda": [1.0, 2.0]}))


def test_compare_words_certified_must_match_uncertified_may_change():
    ref = _summary({}, words=["01", None])
    assert checks.compare(ref, _summary({}, words=["01", "011"])) == []
    assert checks.compare(ref, _summary({}, words=[None, None]))
    assert checks.compare(ref, _summary({}, words=["011", None]))


def test_variance_invariant_bounds():
    arm = {"r": 0.9, "a0": 0.0, "a1": 1.0, "v0": 1.0}
    job = Job("sim", "simulate", (), facts={"arms": [arm]})
    y0 = 1.0 / (1.0 - 0.81)

    def result(v):
        return {"results": [{"policy": "myopic", "total_discounted_cost": 1.0,
                             "final_variances": [v], "activations_per_arm": [0]}]}

    checks.summarize(job, json.dumps(result(y0)))
    with pytest.raises(checks.CheckError):
        checks.summarize(job, json.dumps(result(1.01 * y0)))
