"""Uncertainty-cost families C(v) with derivatives and admissibility flags.

The flag ``condition_c`` marks the costs for which threshold policies are
provably optimal and the index is non-decreasing: linear, log, -1/v,
v^q/q with q >= -1 (q != 0), (v^2-1)/v and v/(v+1).  Powers with q < -1
are deliberately outside the family; they serve as non-monotone
counterexamples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

FloatArray = Union[float, np.ndarray]


class CostDomainError(ValueError):
    """Cost function evaluated outside its domain (e.g. log at v = 0)."""


@dataclass(frozen=True)
class CostFn:
    """Tagged cost family member; eval/deriv broadcast over numpy arrays."""

    kind: str
    condition_c: bool
    positive_only: bool
    _eval: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    _deriv: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def _check_domain(self, v: np.ndarray) -> None:
        bad = (v <= 0.0) if self.positive_only else (v < 0.0)
        # a 0-d comparison is already one boolean; np.any would only add
        # the cost of numpy's reduction wrapper
        if bad if v.ndim == 0 else np.any(bad):
            worst = float(np.min(v))
            raise CostDomainError(
                f"cost '{self.kind}' undefined at v = {worst}"
                f" (domain is {'(0, inf)' if self.positive_only else '[0, inf)'})"
            )

    def eval(self, v: FloatArray) -> FloatArray:
        arr = np.asarray(v, dtype=float)
        self._check_domain(arr)
        out = self._eval(arr)
        return float(out) if arr.ndim == 0 else out

    def eval_unchecked(self, v: np.ndarray) -> np.ndarray:
        """C(v) on a float array that the caller knows lies in the domain.

        The same floats as :meth:`eval`, without its domain check (a
        comparison and a reduction over the whole array); for hot loops
        over states that are images of checked states, such as variance
        orbits with finite precisions, which stay positive.
        """
        return self._eval(v)

    def deriv(self, v: FloatArray) -> FloatArray:
        arr = np.asarray(v, dtype=float)
        self._check_domain(arr)
        out = self._deriv(arr)
        return float(out) if arr.ndim == 0 else out

    def scale(self, k: float) -> "CostFn":
        """k * C; positive scaling preserves admissibility."""
        ev, dv = self._eval, self._deriv
        return CostFn(
            kind=f"{k!r}*{self.kind}",
            condition_c=self.condition_c and k > 0,
            positive_only=self.positive_only,
            _eval=lambda v: k * ev(v),
            _deriv=lambda v: k * dv(v),
        )


def linear() -> CostFn:
    return CostFn("linear", True, False, lambda v: v, lambda v: np.ones_like(v))


def entropy() -> CostFn:
    return CostFn("entropy", True, True, np.log, lambda v: 1.0 / v)


def neg_precision() -> CostFn:
    return CostFn("neg_precision", True, True, lambda v: -1.0 / v, lambda v: v**-2.0)


def power(q: float) -> CostFn:
    """C(v) = v^q / q.  Admissible exactly for q >= -1, q != 0."""
    if not np.isfinite(q):
        raise ValueError(f"power exponent must be finite, got {q}")
    if q == 0.0:
        raise ValueError("power exponent 0 is degenerate; use entropy()")
    return CostFn(
        kind=f"power({q})",
        condition_c=q >= -1.0,
        positive_only=q < 1.0,
        _eval=lambda v: v**q / q,
        _deriv=lambda v: v ** (q - 1.0),
    )


def ratio_demo() -> CostFn:
    """C(v) = (v^2 - 1)/v: admissible but neither convex nor concave."""
    return CostFn(
        "ratio_demo", True, True,
        lambda v: v - 1.0 / v,
        lambda v: 1.0 + v**-2.0,
    )


def bounded_demo() -> CostFn:
    """C(v) = v/(v + 1): admissible and bounded."""
    return CostFn(
        "bounded_demo", True, False,
        lambda v: v / (v + 1.0),
        lambda v: (v + 1.0) ** -2.0,
    )


def constant(k: float = 0.0) -> CostFn:
    return CostFn(
        f"constant({k})", True, False,
        lambda v: np.full_like(v, k),
        lambda v: np.zeros_like(v),
    )


def custom(
    fn: Callable[[np.ndarray], np.ndarray],
    deriv: Callable[[np.ndarray], np.ndarray] | None = None,
    condition_c: bool = False,
    positive_only: bool = False,
    kind: str = "custom",
) -> CostFn:
    """Wrap user callables; missing derivative falls back to central differences."""
    if deriv is None:
        def deriv(v: np.ndarray) -> np.ndarray:
            h = 1e-6 * np.maximum(1.0, np.abs(v))
            return (fn(v + h) - fn(v - h)) / (2.0 * h)

    return CostFn(kind, condition_c, positive_only, fn, deriv)


def from_table(
    xs: Sequence[float], ys: Sequence[float], condition_c: bool = False
) -> CostFn:
    """Piecewise-linear cost through tabulated (x, C(x)) points."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or len(x) < 2:
        raise ValueError("table needs two 1-d arrays of equal length >= 2")
    if np.any(np.diff(x) <= 0):
        raise ValueError("table abscissae must be strictly increasing")
    slopes = np.gradient(y, x)
    return CostFn(
        "table", condition_c, bool(x[0] > 0.0),
        lambda v: np.interp(v, x, y),
        lambda v: np.interp(v, x, slopes),
    )


_BY_NAME = {
    "linear": linear,
    "entropy": entropy,
    "neg_precision": neg_precision,
    "ratio_demo": ratio_demo,
    "bounded_demo": bounded_demo,
}


def by_name(name: str, q: float | None = None) -> CostFn:
    """Look up a cost family by CLI-style name ('power' requires q)."""
    if name == "power":
        if q is None:
            raise ValueError("cost 'power' requires an exponent")
        return power(q)
    try:
        return _BY_NAME[name]()
    except KeyError:
        raise ValueError(
            f"unknown cost '{name}'; choose from "
            f"{sorted(_BY_NAME) + ['power']}"
        ) from None
