"""The CLI's exit-code contract, on random argv for all five commands.

The README promises exit 0 on success, 1 on invalid input and 2 on an
internal inconsistency, each error as one ``error:`` line on stderr.  On
drawn flags, extreme floats included, every call must keep that promise,
raise no RuntimeWarning and print no NaN on success.  ``verify`` is the one
exception to the error line: when its checks fail on an admissible cost it
exits 2 with its report on stdout, whose ``ok`` is false.  The explicit
examples are holes that earlier versions fell into; each also pins the exit
code and a fragment of the error line that names the bad input.
"""

import contextlib
import io
import json
import math
import re
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from obsched.cli import main

# Floats at and beyond the edges of every flag's domain.
EDGES = (0.0, -0.0, -1.0, 5e-324, 1e-300, 1e-12, 1.0, 1e300, 1.7976931348623157e308,
         math.inf, -math.inf, math.nan)
COSTS = ("linear", "entropy", "neg_precision", "power", "ratio_demo", "bounded_demo", "bogus")


def rare(draw, n):
    """True one time in n (integer strategies favour their bounds)."""
    return draw(st.sampled_from([False] * (n - 1) + [True]))


@st.composite
def num(draw, lo, hi, edge=5):
    """A float in [lo, hi], or an edge one time in ``edge``."""
    return draw(st.sampled_from(EDGES)) if rare(draw, edge) else draw(st.floats(lo, hi))


def flag(name, value):
    return f"--{name}={value!r}" if isinstance(value, float) else f"--{name}={value}"


@st.composite
def arm_flags(draw):
    out = [flag("r", draw(num(0.05, 1.0))), flag("a0", draw(num(0.0, 0.5))),
           flag("a1", draw(st.one_of(num(0.6, 1e3), st.just("inf"))))]
    if draw(st.booleans()):
        out += [flag("c0", draw(num(0.0, 1.0))), flag("c1", draw(num(1.0, 2.0)))]
    return out


@st.composite
def cost_flags(draw):
    cost = draw(st.sampled_from(COSTS))
    out = [f"--cost={cost}"]
    if cost == "power" or rare(draw, 10):
        out.append(flag("power-q", draw(num(-3.0, 3.0))))
    return out


@st.composite
def index_argv(draw):
    beta = 1.0 if rare(draw, 4) else draw(num(0.0, 0.999))
    kind = draw(st.sampled_from(["log", "lin"]))
    lo = draw(num(1e-3, 10.0))
    hi = lo + draw(num(1e-3, 100.0))
    grid = f"--grid-{kind}={lo!r}:{hi!r}:{draw(st.integers(1, 5))}"
    out = ["index", *draw(arm_flags()), *draw(cost_flags()), flag("beta", beta), grid,
           f"--format={draw(st.sampled_from(['csv', 'json']))}"]
    return out + (["--no-words"] if rare(draw, 8) else [])


@st.composite
def word_argv(draw):
    out = ["word", *draw(arm_flags()), flag("x", draw(num(0.0, 50.0))),
           flag("len", draw(st.integers(0, 30))), flag("max-period", draw(st.integers(0, 64))),
           f"--format={draw(st.sampled_from(['text', 'json']))}"]
    return out + ([flag("z", draw(num(0.0, 50.0)))] if draw(st.booleans()) else [])


@st.composite
def scenario(draw):
    arms = []
    for _ in range(draw(st.integers(2, 3))):
        arm = {"r": draw(num(0.05, 1.0, 30)), "a0": draw(num(0.0, 0.5, 30)),
               "a1": draw(num(0.6, 1e3, 30)), "v0": draw(num(0.0, 20.0, 30))}
        if draw(st.booleans()):
            arm.update(weight=draw(num(0.1, 10.0, 30)), cost=draw(st.sampled_from(COSTS[:3])))
        arms.append(arm)
    m = draw(st.sampled_from([0, len(arms)])) if rare(draw, 30) else 1
    return {"arms": arms, "m": m, "beta": draw(num(0.0, 0.99, 30)),
            "horizon": draw(st.integers(0, 30)), "seed": draw(st.integers(0, 9))}


@st.composite
def simulate_argv(draw):
    names = draw(st.lists(st.sampled_from(["whittle", "myopic", "round_robin", "random"]),
                          min_size=1, max_size=3, unique=True))
    if rare(draw, 10):
        names = draw(st.sampled_from([[], names + ["bogus"]]))
    return ["simulate", "--scenario={scenario}", f"--policies={','.join(names)}",
            f"--format={draw(st.sampled_from(['json', 'csv']))}"]


@st.composite
def lqg_argv(draw):
    out = ["lqg"]
    for name, lo, hi in (("A", -2.0, 2.0), ("B", -2.0, 2.0), ("D", 0.0, 10.0),
                         ("F", 0.0, 10.0), ("beta", 0.0, 0.99), ("sigma-x", 0.0, 10.0),
                         ("sigma-y1", 0.0, 10.0)):
        out.append(flag(name, draw(num(lo, hi, 15))))
    if draw(st.booleans()):
        out += [flag("sigma-y0", draw(num(10.0, 100.0, 15))),
                flag("c0", draw(num(0.0, 1.0, 15))), flag("c1", draw(num(1.0, 2.0, 15)))]
    return out


@st.composite
def verify_argv(draw):
    return ["verify", *draw(arm_flags()), *draw(cost_flags()),
            flag("beta", draw(num(0.0, 0.9))), flag("grid-n", draw(st.integers(60, 128))),
            flag("cross-checks", draw(st.integers(-1, 2))), flag("seed", draw(st.integers(-1, 9)))]


@st.composite
def calls(draw):
    """(argv, scenario payload or None, expected (exit code, error fragment) or None)."""
    argv = draw(st.one_of(index_argv(), word_argv(), simulate_argv(), lqg_argv(),
                          verify_argv()))
    return argv, draw(scenario()) if argv[0] == "simulate" else None, None


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(call=calls())
@settings(max_examples=300, deadline=None, derandomize=True)
# A Riccati constant D F that overflows printed "R": NaN with exit 0.
@example(call=(["lqg", "--A=0.01", "--B=1e-3", "--D=1e300", "--F=1e300", "--beta=0.5",
                "--sigma-x=0.01", "--sigma-y1=1e6"], None, (1, "D = 1e+300, F = 1e+300")))
# The discriminant overflowed: "negative variance-cost rate alpha=-inf".  Then
# R**2 did: "(34, 'Numerical result out of range')".
@example(call=(["lqg", "--A=0.5", "--B=-0.43", "--D=1e300", "--F=5.7", "--beta=0.7",
                "--sigma-x=1", "--sigma-y1=1"], None, (1, "D = 1e+300, F = 5.7")))
@example(call=(["lqg", "--A=1", "--B=1", "--D=1e300", "--F=0", "--beta=0.5",
                "--sigma-x=1", "--sigma-y1=10"], None, (1, "D = 1e+300, F = 0.0")))
# alpha * sigma_x underflowed to 0: "float division by zero", naming no input.
@example(call=(["lqg", "--A=0.9", "--B=1", "--D=1", "--F=1", "--beta=0.5",
                "--sigma-x=5e-324", "--sigma-y1=1"], None, (1, "sigma_x = 5e-324")))
# The beta = 1 table had no overflow guard: a RuntimeWarning, then "-inf + inf in fsum".
@example(call=(["index", "--r=0.9", "--a0=0", "--a1=1", "--beta=1", "--cost=neg_precision",
                "--grid-log=1e-320:1e-3:3"], None, (1, "cost 'neg_precision' is not finite")))
# np.geomspace warned of overflow before the error line.
@example(call=(["index", "--r=0.9", "--a0=0", "--a1=1", "--beta=0.9",
                "--grid-log=0.01:1.7976931348623157e308:2"], None, (1, "is too large")))
# The beta = 1 table printed the duplicate points that beta < 1 rejects.
@example(call=(["index", "--r=1", "--a0=0", "--a1=1e6", "--beta=1",
                "--grid-lin=1.5:1.5000000000000002:4"], None, (1, "strictly ascending")))
# qb^2 underflowed in the Riccati root, so R came out doubled: "negative
# variance-cost rate alpha=-1.0".  B = 1e-200 makes qa 0, B = 1e-160 subnormal.
@example(call=(["lqg", "--A=0.5", "--B=1e-200", "--D=1", "--F=1e-170", "--beta=0.5",
                "--sigma-x=1", "--sigma-y1=1"], None, (0, "")))
@example(call=(["lqg", "--A=0.5", "--B=1e-160", "--D=1", "--F=1e-170", "--beta=0.5",
                "--sigma-x=1", "--sigma-y1=1"], None, (0, "")))
# y0 below 5e-4 put the PCLI range's floor lo = 1e-3 above hi = 2 y0: numpy's
# "high - low < 0".  Above a0 = 1.34e154, y0 itself was 0: "need lo < hi".
@example(call=(["verify", "--r=0.5", "--a0=1e4", "--a1=inf", "--beta=0.5"], None, (0, "")))
@example(call=(["verify", "--r=1e-300", "--a0=1e300", "--a1=inf", "--cost=linear",
                "--beta=0.5", "--grid-n=64", "--cross-checks=0"], None, (0, "")))
@example(call=(["verify", "--r=1e-300", "--a0=1e300", "--a1=inf", "--cost=linear",
                "--beta=0.5"], None, (0, "")))
@example(call=(["verify", "--r=0.9", "--a0=1e300", "--a1=inf", "--cost=linear",
                "--beta=0.5"], None, (0, "")))
def test_exit_code_contract(call, tmp_path_factory):
    argv, payload, expected = call
    if payload is not None:
        path = tmp_path_factory.mktemp("scenario") / "scenario.json"
        path.write_text(json.dumps(payload))
        argv = [a.format(scenario=path) for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(argv)
    assert code in (0, 1, 2)
    if code == 0:
        assert err == "" and not re.search(r"\bnan\b", out, re.IGNORECASE)
    elif argv[0] == "verify" and out:
        assert code == 2 and err == "" and json.loads(out)["ok"] is False
    else:
        assert out == ""
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
    if expected is not None:
        assert code == expected[0] and expected[1] in err
