"""Cost families: derivative consistency, admissibility flags, domains."""

import math

import numpy as np
import pytest

from obsched import costs
from obsched.costs import CostDomainError

ALL_KINDS = [
    costs.linear(),
    costs.entropy(),
    costs.neg_precision(),
    costs.power(0.5),
    costs.power(2.0),
    costs.power(-1.0),
    costs.power(-1.5),
    costs.ratio_demo(),
    costs.bounded_demo(),
]


@pytest.mark.parametrize("cost", ALL_KINDS, ids=lambda c: c.kind)
def test_derivative_matches_finite_difference(cost):
    rng = np.random.default_rng(17)
    v = rng.uniform(0.3, 8.0, 200)
    h = 1e-6 * np.maximum(1.0, v)
    fd = (cost.eval(v + h) - cost.eval(v - h)) / (2.0 * h)
    np.testing.assert_allclose(cost.deriv(v), fd, rtol=1e-6)


@pytest.mark.parametrize("cost", ALL_KINDS + [costs.linear().scale(2.0)],
                         ids=lambda c: c.kind)
def test_unchecked_eval_gives_the_checked_floats(cost):
    v = np.random.default_rng(18).uniform(1e-3, 50.0, 300)
    assert cost.eval_unchecked(v).tobytes() == cost.eval(v).tobytes()


def test_condition_c_flags():
    assert costs.linear().condition_c
    assert costs.entropy().condition_c
    assert costs.neg_precision().condition_c
    assert costs.power(0.5).condition_c
    assert costs.power(3.0).condition_c
    assert costs.power(-1.0).condition_c
    assert costs.ratio_demo().condition_c
    assert costs.bounded_demo().condition_c
    assert not costs.power(-1.5).condition_c
    assert not costs.power(-2.0).condition_c


def test_power_rejects_zero_exponent():
    with pytest.raises(ValueError):
        costs.power(0.0)


@pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
def test_power_rejects_non_finite_exponent(q):
    with pytest.raises(ValueError, match="finite"):
        costs.power(q)
    with pytest.raises(ValueError, match="finite"):
        costs.by_name("power", q)


def test_domain_violations():
    with pytest.raises(CostDomainError):
        costs.entropy().eval(0.0)
    with pytest.raises(CostDomainError):
        costs.neg_precision().eval(np.array([1.0, 0.0]))
    with pytest.raises(CostDomainError):
        costs.linear().eval(-1.0)
    assert costs.linear().eval(0.0) == 0.0
    assert costs.bounded_demo().eval(0.0) == 0.0


def test_scale():
    base = costs.entropy()
    scaled = base.scale(3.0)
    v = np.array([0.5, 1.0, 4.0])
    np.testing.assert_allclose(scaled.eval(v), 3.0 * base.eval(v))
    np.testing.assert_allclose(scaled.deriv(v), 3.0 * base.deriv(v))
    assert scaled.condition_c
    assert not base.scale(-1.0).condition_c


def test_constant():
    c = costs.constant(2.5)
    assert c.eval(7.0) == 2.5
    assert c.deriv(7.0) == 0.0
    assert c.condition_c


def test_custom_finite_difference_fallback():
    c = costs.custom(lambda v: v**3)
    assert c.deriv(2.0) == pytest.approx(12.0, rel=1e-5)


def test_from_table():
    xs = np.linspace(0.1, 10.0, 50)
    tab = costs.from_table(xs, np.log(xs))
    v = np.array([0.5, 2.0, 7.5])
    np.testing.assert_allclose(tab.eval(v), np.log(v), atol=5e-3)
    with pytest.raises(ValueError):
        costs.from_table([1.0, 1.0], [0.0, 0.0])


def test_by_name():
    assert costs.by_name("linear").kind == "linear"
    assert costs.by_name("power", -1.5).kind == "power(-1.5)"
    with pytest.raises(ValueError):
        costs.by_name("power")
    with pytest.raises(ValueError):
        costs.by_name("nope")


def test_scalar_vs_array_round_trip():
    c = costs.ratio_demo()
    assert isinstance(c.eval(2.0), float)
    out = c.eval(np.array([2.0, 3.0]))
    assert out.shape == (2,)


@pytest.mark.parametrize(
    "cost, bad",
    [
        (costs.entropy(), 0.0),
        (costs.neg_precision(), -2.0),
        (costs.linear(), -1.0),
        (costs.power(2.0), -0.5),
        (costs.entropy().scale(3.0), 0.0),
    ],
)
def test_scalar_and_array_domain_errors_agree(cost, bad):
    """A 0-d input takes a shortcut past np.any; the error must not change."""
    messages = []
    for v in (bad, np.float64(bad), np.array(bad), np.array([bad]), np.array([5.0, bad])):
        for method in (cost.eval, cost.deriv):
            with pytest.raises(CostDomainError) as info:
                method(v)
            messages.append(str(info.value))
    assert len(set(messages)) == 1
    assert str(bad) in messages[0]
    for ok in (1.0, np.float64(1.0), np.array(1.0)):
        assert isinstance(cost.eval(ok), float)
