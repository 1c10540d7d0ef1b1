"""Posterior-variance dynamics of a single Kalman-filtered arm.

The one-step variance update under query action a is the Moebius map

    phi_a(v) = (r^2 v + 1) / (a_q r^2 v + a_q + 1),    a_q in {a0, a1},

in units of the process-noise variance.  This module provides the maps,
their 2x2 matrix representation, fixed points of word compositions,
threshold orbits, itineraries of the induced map-with-a-gap, and the
bracketing of fixed points for irrational-rate threshold words.  The map
has two fast forms: :func:`scalar_map` binds one arm's coefficients and
steps a Python float, and :func:`batch_map` steps an array of states, of
one arm or of several, from :func:`map_coefficients` columns; both give
bitwise the floats of :func:`phi`, as does the loop of
:func:`threshold_walk`, off which every scalar threshold orbit is read.
Every fixed point and the LQG Riccati root come from :func:`positive_root`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Union

import numpy as np

# ``is_balanced`` is unused here but stays a module attribute:
# perfbench/layers.py wraps ``dynamics.is_balanced`` by name.
from .words import Word, is_balanced, is_christoffel  # noqa: F401

if TYPE_CHECKING:
    from .costs import CostFn

# States within this scaled distance of a threshold are knife-edge: the
# action decision is precision-sensitive and callers should be told.
KNIFE_EDGE_TOL = 1e-12

FloatArray = Union[float, np.ndarray]


class InconsistencyError(ArithmeticError):
    """A computed result contradicts the theory it rests on (CLI exit 2)."""


@dataclass(frozen=True)
class ArmParams:
    """Normalized dynamics (r, a0, a1) plus observation costs.

    r is the absolute state multiplier, a0 < a1 the passive/active
    observation precisions (a1 = inf means noiseless active observations),
    and c0 <= c1 the finite per-step observation costs.
    """

    r: float
    a0: float
    a1: float
    c0: float = 0.0
    c1: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.r <= 1.0:
            raise ValueError(f"r must be in (0, 1], got {self.r}")
        if not 0.0 <= self.a0 < self.a1:
            raise ValueError(f"need 0 <= a0 < a1, got a0={self.a0}, a1={self.a1}")
        if not (math.isfinite(self.c0) and math.isfinite(self.c1)):
            raise ValueError(f"need finite c0 and c1, got c0={self.c0}, c1={self.c1}")
        if not self.c0 <= self.c1:
            raise ValueError(f"need c0 <= c1, got c0={self.c0}, c1={self.c1}")

    @property
    def r2(self) -> float:
        return self.r * self.r

    @classmethod
    def from_kalman(
        cls,
        A: float,
        sigma_x: float,
        sigma_y0: float,
        sigma_y1: float,
        c0: float = 0.0,
        c1: float = 1.0,
    ) -> "ArmParams":
        """Normalize raw Kalman parameters: r = |A|, a_q = sigma_x / sigma_y(q).

        Variances are thereafter expressed in units of sigma_x.  Requires
        0 < sigma_y1 < sigma_y0 <= inf (the active observation is the
        higher-quality one) and 0 < |A| <= 1.
        """
        if not sigma_x > 0:
            raise ValueError("sigma_x must be positive")
        if not 0.0 < abs(A) <= 1.0:
            raise ValueError(f"|A| must be in (0, 1], got {A}")
        if not 0 < sigma_y1 < sigma_y0:
            raise ValueError(
                f"need 0 < sigma_y1 < sigma_y0, got {sigma_y1}, {sigma_y0}"
            )
        a0 = 0.0 if math.isinf(sigma_y0) else sigma_x / sigma_y0
        a1 = sigma_x / sigma_y1
        return cls(r=abs(A), a0=a0, a1=a1, c0=c0, c1=c1)

    @classmethod
    def from_var_decay(
        cls, var_decay: float, a0: float, a1: float, c0: float = 0.0, c1: float = 1.0
    ) -> "ArmParams":
        """Build from the one-step variance multiplier rho = r^2.

        Convenient when the passive map is written phi_0(v) = rho*v + 1.
        """
        if not 0.0 < var_decay <= 1.0:
            raise ValueError(f"var_decay must be in (0, 1], got {var_decay}")
        return cls(r=math.sqrt(var_decay), a0=a0, a1=a1, c0=c0, c1=c1)

    def with_costs(self, c0: float, c1: float) -> "ArmParams":
        return replace(self, c0=c0, c1=c1)


def check_denominator(p: ArmParams, v_max: float) -> None:
    """Raise ValueError when a map denominator can overflow on threshold orbits.

    Orbits whose start and threshold are at most v_max stay at or below
    max(v_max + 1, 1/a1) (see :func:`check_discounted_sums`).  The largest
    denominator, a1 r^2 v + a1 + 1, is therefore checked at
    v = max(v_max, 1) + 1; a1 < 1 cannot overflow below 1/a1 + 1.  An
    overflowing denominator would turn the state into 0.
    """
    v = max(float(v_max), 1.0) + 1.0
    if math.isfinite(p.a1) and math.isinf(p.a1 * p.r2 * v + p.a1 + 1.0):
        raise ValueError(
            f"a1 = {p.a1!r} is too large: the map denominator a1 r^2 v + a1 + 1"
            f" overflows at v = {v!r}"
        )


def orbit_range(p: ArmParams, lo: float, hi: float) -> tuple[float, float]:
    """[min(lo, 1/(a1 + 1)), max(hi + 1, 1/a1)], the states of the orbits whose
    start and threshold lie in [lo, hi] (see :func:`check_discounted_sums`)."""
    return min(float(lo), 1.0 / (p.a1 + 1.0)), max(float(hi) + 1.0, 1.0 / p.a1)


def check_discounted_sums(
    p: ArmParams, cost: CostFn, beta: float, lo: float, hi: float, end_costs=None
) -> float:
    """Raise ValueError when a sum on threshold orbits can overflow; else bound it.

    An orbit whose start and threshold lie in [lo, hi] stays in
    :func:`orbit_range`, [min(lo, 1/(a1 + 1)), max(hi + 1, 1/a1)]: a step
    lands at or above phi_1(0) = 1/(a1 + 1), a resting step adds at most 1
    to a state below the threshold, and an acting step lands below 1/a1.
    The map denominator is checked first (:func:`check_denominator` at hi).
    Each cost sum is at most max|C| / (1 - beta) over that range, and each
    work sum at most max(|c0|, |c1|) / (1 - beta), so an index numerator is
    at most 2 max|C| / (1 - beta); both bounds must be finite.  The cost
    families are monotone, so max|C| is taken at an end of the range; a
    caller that evaluated C there already passes the two floats as
    ``end_costs``.  Returns (2 max|C| + max(|c0|, |c1|)) / (1 - beta),
    which may overflow where its two checked terms do not.
    """
    check_denominator(p, hi)
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must be in [0, 1), got {beta}")
    lo, hi = orbit_range(p, lo, hi)
    if end_costs is None:
        with np.errstate(over="ignore", invalid="ignore"):
            end_costs = cost.eval(lo), cost.eval(hi)
    c_max = max(abs(end_costs[0]), abs(end_costs[1]))
    if not math.isfinite(2.0 * c_max / (1.0 - beta)):
        raise ValueError(
            f"cost {cost.kind!r} is too large: 2 max|C| / (1 - beta) over the"
            f" orbits' states [{lo!r}, {hi!r}] is not finite at beta = {beta!r}"
        )
    work_max = max(abs(p.c0), abs(p.c1))
    if not math.isfinite(work_max / (1.0 - beta)):
        raise ValueError(
            f"c0 = {p.c0!r}, c1 = {p.c1!r} are too large: max(|c0|, |c1|) / (1 - beta)"
            f" is not finite at beta = {beta!r}"
        )
    return (2.0 * c_max + work_max) / (1.0 - beta)


def phi(p: ArmParams, action: int, v: FloatArray) -> FloatArray:
    """One-step variance update under the given query action."""
    return phi1(p, v) if action else phi0(p, v)


def phi0(p: ArmParams, v: FloatArray) -> FloatArray:
    r2 = p.r2
    return (r2 * v + 1.0) / (p.a0 * r2 * v + p.a0 + 1.0)


def phi1(p: ArmParams, v: FloatArray) -> FloatArray:
    if math.isinf(p.a1):
        return np.zeros_like(v) if isinstance(v, np.ndarray) else 0.0
    r2 = p.r2
    return (r2 * v + 1.0) / (p.a1 * r2 * v + p.a1 + 1.0)


def scalar_map(p: ArmParams) -> Callable[[int, float], float]:
    """The variance update as step(a, v) on Python floats, p's coefficients bound once.

    Each step does the float operations of :func:`phi` (and returns 0.0
    for an active step with a1 = inf), so its states are bitwise those of
    :func:`phi`; it only skips the per-call attribute reads and dispatch.
    The simulator steps each arm with it.
    """
    r2 = p.r2
    a0r2, a0 = p.a0 * r2, p.a0
    a1r2, a1, a1_inf = p.a1 * r2, p.a1, math.isinf(p.a1)

    def step(a: int, v: float) -> float:
        if not a:
            return (r2 * v + 1.0) / (a0r2 * v + a0 + 1.0)
        if a1_inf:
            return 0.0
        return (r2 * v + 1.0) / (a1r2 * v + a1 + 1.0)

    return step


def map_coefficients(p: ArmParams) -> np.ndarray:
    """p's variance map as one column of :func:`batch_map` coefficients.

    The rows are r^2, a0 r^2, a0, a1 r^2, a1 and a flag, 1.0 when a1 = inf
    and 0.0 otherwise; a noiseless arm stores 1 for a1, so that its
    discarded active image stays finite.
    """
    a1_inf = math.isinf(p.a1)
    a1 = 1.0 if a1_inf else p.a1
    return np.array([[p.r2], [p.a0 * p.r2], [p.a0], [a1 * p.r2], [a1], [float(a1_inf)]])


def batch_map(coef: np.ndarray, act: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The variance update on arrays: the images of states v under actions act.

    The array twin of :func:`scalar_map`.  ``coef`` holds rows of
    :func:`map_coefficients` columns, one column per state or one for all
    of them; columns, actions and states broadcast.  Only the taken branch
    is evaluated, and each element gets the float operations of
    :func:`phi` (0.0 for an active step with a1 = inf).  A r^2 v is
    (a r^2) v there too, while (a r^2 v + a) + 1 must not become
    a r^2 v + (a + 1).  The sixth row, the a1 = inf flag, is read when
    present; a caller whose columns all have a finite a1 may leave it out
    to skip its select.
    """
    den = np.where(act, coef[3], coef[1]) * v
    den += np.where(act, coef[4], coef[2])
    den += 1.0
    out = coef[0] * v
    out += 1.0
    out /= den
    return np.where(act * coef[5], 0.0, out) if len(coef) > 5 else out


def phi_word(p: ArmParams, w: Word, v: float) -> float:
    """Composition phi_w = phi_{w_n} o ... o phi_{w_1}."""
    step = scalar_map(p)
    for b in w:
        v = step(b, v)
    return v


def positive_root(qa: float, qb: float, qc: float) -> float:
    """Root (s - qb) / (2 qa), s = sqrt(qb^2 - 4 qa qc), of qa y^2 + qb y + qc.

    For qa >= 0 >= qc it is the non-negative root (-qc / qb at qa = 0, or
    inf if qb <= 0 too), computed without cancelling s against qb.  Where
    the discriminant leaves the normal float range the equation is solved
    rescaled, so all float coefficients give roots within 4 ulps.
    """
    if qa == 0.0:
        return -qc / qb if qb > 0.0 else math.inf
    disc = qb * qb - 4.0 * qa * qc
    if 2.2250738585072014e-308 <= disc < math.inf:  # sys.float_info.min
        s = math.sqrt(disc)
        # The forms round differently at qb = 0: +0.0 (y0, y1 at r = 1 and
        # a + 1 == 1) takes the first and -0.0 (riccati_root, equal matrix
        # diagonals) the second, as the callers' printed outputs require.
        if qb > 0.0 or qb == 0.0 and math.copysign(1.0, qb) > 0.0:
            return qc / (-0.5 * (qb + s))
        return 0.5 * (s - qb) / qa
    # Rescaled: y = 2^m u, with m halving the exponent gap of qa and qc, and
    # the equation divided by 2^e(qc); u's quadratic and constant terms then
    # lie in [1/4, 1).  Past 2^500 for its linear one (so too at qc = 0 and
    # at a1 = inf) the root is the linear one to well under an ulp.
    ea, eb, ec = math.frexp(qa)[1], math.frexp(qb)[1], math.frexp(qc)[1]
    if qb and (not qc or qb == math.inf or 2 * eb > ea + ec + 1000):
        return -qc / qb if qb > 0.0 else -qb / qa
    m = (ec - ea) // 2
    a, b, c = math.ldexp(qa, 2 * m - ec), math.ldexp(qb, m - ec), math.ldexp(qc, -ec)
    s = math.sqrt(b * b - 4.0 * a * c)
    u = c / (-0.5 * (b + s)) if b > 0.0 else 0.5 * (s - b) / a
    return u * 2.0 ** (m // 2) * 2.0 ** (m - m // 2)  # exact; inf past the float range


def y0(p: ArmParams) -> float:
    """Fixed point of the passive map (inf when r = 1 and a0 = 0)."""
    a, r2 = p.a0, p.r2
    return positive_root(a * r2, a + 1.0 - r2, -1.0)


def y1(p: ArmParams) -> float:
    """Fixed point of the active map (0 when a1 = inf)."""
    a, r2 = p.a1, p.r2
    return positive_root(a * r2, a + 1.0 - r2, -1.0)


@dataclass(frozen=True)
class MoebiusMat:
    """2x2 real matrix acting as a Moebius transformation on the variance."""

    m11: float
    m12: float
    m21: float
    m22: float

    def __matmul__(self, other: "MoebiusMat") -> "MoebiusMat":
        return MoebiusMat(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def det(self) -> float:
        return self.m11 * self.m22 - self.m12 * self.m21

    def apply(self, x: float) -> float:
        return (self.m11 * x + self.m12) / (self.m21 * x + self.m22)

    def adjugate(self) -> "MoebiusMat":
        return MoebiusMat(self.m22, -self.m12, -self.m21, self.m11)

    def scaled(self, k: float) -> "MoebiusMat":
        return MoebiusMat(self.m11 * k, self.m12 * k, self.m21 * k, self.m22 * k)

    def max_entry(self) -> float:
        return max(abs(self.m11), abs(self.m12), abs(self.m21), abs(self.m22))


IDENTITY = MoebiusMat(1.0, 0.0, 0.0, 1.0)


def letter_matrix(p: ArmParams, letter: int) -> MoebiusMat:
    """Unit-determinant matrix of a single variance update (F for 0, G for 1)."""
    a = p.a1 if letter else p.a0
    if math.isinf(a):
        raise ValueError("matrix representation requires finite a1")
    r = p.r
    return MoebiusMat(r, 1.0 / r, a * r, (a + 1.0) / r)


def moebius_matrix(p: ArmParams, w: Word) -> MoebiusMat:
    """Ordered product M(w) = M(w_n) ... M(w_2) M(w_1); phi_w = its Moebius action."""
    m = IDENTITY
    for b in w:
        m = letter_matrix(p, b) @ m
    return m


def _positive_root(m: MoebiusMat) -> float:
    """Positive solution of m21 y^2 + (m22 - m11) y - m12 = 0 (inf if none).

    For matrices built from F and G the root product is non-positive, so
    the positive root is unique; the expanding linear case (degenerate
    quadratic with non-positive slope) has no finite fixed point.
    """
    # -(m11 - m22) is m22 - m11, but -0.0 for equal diagonals (common at r = 1).
    try:
        y = positive_root(m.m21, -(m.m11 - m.m22), -m.m12)
    except ValueError:  # math.sqrt of a negative discriminant
        raise ArithmeticError("no real fixed point; invalid parameters") from None
    if y <= 0.0:
        raise ArithmeticError("no positive fixed point; invalid parameters")
    return y


def fixed_point(p: ArmParams, w: Word) -> float:
    """Unique positive fixed point y_w of phi_w (inf for all-passive, r=1, a0=0)."""
    if len(w) == 0:
        raise ValueError("fixed point undefined for the empty word")
    if math.isinf(p.a1) and w.ones > 0:
        # The last active step lands on 0; the letters after it map that on.
        return phi_word(p, w.factor(bytes(w).rfind(1) + 2, len(w)), 0.0)
    y = _positive_root(moebius_matrix(p, w))
    if math.isfinite(y):
        resid = abs(phi_word(p, w, y) - y)
        if resid > 1e-10 * (1.0 + y):
            raise InconsistencyError(f"fixed-point residual {resid} too large")
    return y


def _interval_matrices(mc: MoebiusMat, f: MoebiusMat, g: MoebiusMat):
    """M(01p) and M(10p) from the matrix of a node word c = 0p1.

    M(p) is recovered through adjugates (valid up to scale, which the
    fixed-point quadratic ignores): M(p) = adj(G) Mc adj(F).
    """
    mp = g.adjugate() @ mc @ f.adjugate()
    m01p = mp @ g @ f
    m10p = mp @ f @ g
    return m01p, m10p


def sturmian_fixed_point(p: ArmParams, rate: float, depth: int) -> tuple[float, float]:
    """Bracket the fixed point of the irrational-rate threshold word.

    Walks the Christoffel tree toward the given rate (left when the current
    node's rate exceeds it).  A node of rate above the target contributes a
    lower bound y_{10p}, one below contributes an upper bound y_{01p}; the
    running bracket is nested and shrinks to the Sturmian fixed point.
    """
    if not 0.0 < rate < 1.0:
        raise ValueError(f"rate must be in (0, 1), got {rate}")
    if not 1 <= depth <= 64:
        raise ValueError(f"depth must be in 1..64, got {depth}")
    target = Fraction(rate)
    f = letter_matrix(p, 0)
    g = letter_matrix(p, 1)
    mu, ones_u, len_u = f, 0, 1
    mv, ones_v, len_v = g, 1, 1
    lo, hi = y1(p), y0(p)
    for _ in range(depth):
        mc = mv @ mu
        ones_c, len_c = ones_u + ones_v, len_u + len_v
        m01p, m10p = _interval_matrices(mc, f, g)
        if Fraction(ones_c, len_c) > target:
            cand = _positive_root(m10p)
            if cand > hi:  # bracket already at float precision
                break
            lo = max(lo, cand)
            mv, ones_v, len_v = mc, ones_c, len_c
        else:
            cand = _positive_root(m01p)
            if cand < lo:
                break
            hi = min(hi, cand)
            mu, ones_u, len_u = mc, ones_c, len_c
        # Entries grow exponentially in word length; the roots only depend
        # on each matrix up to scale, so renormalize u and v independently.
        mu = mu.scaled(1.0 / mu.max_entry())
        mv = mv.scaled(1.0 / mv.max_entry())
    return lo, hi


def knife_edge_tol(s: float) -> float:
    """Distance from threshold s within which a state is knife-edge (-1 for infinite s).

    A state v is knife-edge when ``abs(v - s) <= knife_edge_tol(s)``; the
    scalar orbits compute the tolerance once per orbit.
    """
    return -1.0 if math.isinf(s) else KNIFE_EDGE_TOL * max(1.0, abs(s))


@dataclass(frozen=True)
class Orbit:
    """States and actions of an s-threshold orbit with a forced first action."""

    states: np.ndarray
    actions: np.ndarray
    threshold: float
    first_action: int
    knife_edge: bool


def orbit(p: ArmParams, x: float, a: int, s: float, T: int) -> Orbit:
    """X_0..X_T and A_0..A_T with A_0 = a and A_t = 1{X_t >= s} for t >= 1.

    X_1.. is the :func:`threshold_walk` from phi_a(x), tiled from its
    first repeat.
    """
    if T < 1:
        raise ValueError("T must be positive")
    x = float(x)
    states, k = threshold_walk(p, scalar_map(p)(a, x), s, T)
    acts, knife = walk_actions(states, s)
    return Orbit(
        np.array([x, *_tiled(states, k, T)]),
        np.array([a, *_tiled(acts, k, T)], dtype=np.int64),
        s, a, knife,
    )


def itinerary(p: ArmParams, x: float, z: float, n: int) -> Word:
    """First n letters of the itinerary of the map-with-a-gap at threshold z.

    x_1 = x, sigma_t = 1{x_t >= z}, x_{t+1} = phi_{sigma_t}(x_t).  The
    walk keeps one byte per letter and no states: an anchor state retaken
    after 0, 1, 2, 4, ... steps finds a repeat (Brent), from which the
    letters are tiled; the anchor lies in the cycle, so each is the orbit's.
    x must be finite; z = -inf and z = inf give the all-active and
    all-passive itineraries.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not math.isfinite(x) or math.isnan(z):
        raise ValueError(f"need a finite x and a non-NaN z, got x={x}, z={z}")
    step, v, z = scalar_map(p), float(x), float(z)
    letters, anchor, k = bytearray(), v, 0
    for i in range(n):
        if i > k and v == anchor:
            return Word(_tiled(letters, k, n))
        if not i & (i - 1):
            anchor, k = v, i
        a = v >= z
        letters.append(a)
        v = step(a, v)
    return Word(letters)


@dataclass(frozen=True)
class ThresholdWord:
    word: Word
    periodic: bool
    knife_edge: bool


def threshold_walk(p: ArmParams, v: float, s: float, cap: int) -> tuple[list[float], int]:
    """The s-threshold orbit of p from v until its first exact repeat, at most cap states.

    v is the state after a forced first action; from v on each action is
    1{state >= s}.  Returns the states and the cycle start k.  The states
    stop before the first state that equals, bit for bit, an earlier one,
    states[k]: the orbit is periodic from k with period len(states) - k,
    forever.  Without a repeat within cap states, k = len(states) = cap.
    The loop only tests for the repeat and steps, with the float
    operations of :func:`scalar_map` inline; :func:`walk_actions` reads
    the actions and knife-edge ties off the states afterwards.
    """
    r2 = p.r2
    a0r2, a0 = p.a0 * r2, p.a0
    a1r2, a1, a1_inf = p.a1 * r2, p.a1, math.isinf(p.a1)
    v, s = float(v), float(s)
    seen: dict[float, int] = {}
    for i in range(cap):
        k = seen.setdefault(v, i)
        if k != i:
            return list(seen), k
        if v >= s:
            v = 0.0 if a1_inf else (r2 * v + 1.0) / (a1r2 * v + a1 + 1.0)
        else:
            v = (r2 * v + 1.0) / (a0r2 * v + a0 + 1.0)
    return list(seen), cap


def walk_actions(states: list[float], s: float) -> tuple[bytearray, bool]:
    """The actions 1{state >= s} of :func:`threshold_walk` states, one byte
    each, and whether a state ties s within :func:`knife_edge_tol`."""
    s = float(s)
    tol = knife_edge_tol(s)
    # s <= v is v >= s, NaN included.
    return bytearray(map(s.__le__, states)), any(abs(v - s) <= tol for v in states)


def _tiled(seq, k: int, length: int):
    """The first ``length`` items of ``seq`` continued periodically from index k.

    ``seq`` is a :func:`threshold_walk` list: seq[k:] is one cycle, or k
    is len(seq) and ``seq`` is at least ``length`` long.
    """
    while len(seq) < length:
        seq = seq + seq[k:]
    return seq[:length]


def threshold_word(p: ArmParams, x: float, max_len: int) -> ThresholdWord:
    """Shortest word generating the x-threshold orbit, with periodicity certificate.

    The orbit starts at x_1 = phi_1(x) and thereafter applies phi_1 exactly
    when the state is >= x; :func:`certified_word` certifies its walk.
    """
    x = float(x)
    # The first step is a real phi1 call: perfbench/layers.py counts the
    # calls of ``dynamics.phi1`` by name.
    return certified_word(p, x, max_len, lambda cap: threshold_walk(p, phi1(p, x), x, cap))


def certified_word(p: ArmParams, x: float, max_len: int, walk: Callable) -> ThresholdWord:
    """The certified :func:`threshold_word` of the x-threshold orbit, given its walk.

    ``walk(cap)`` returns the :func:`threshold_walk` of the orbit from
    x_1 = phi_1(x), at most cap = 16 max_len states; it is called only when
    x lies strictly between the pure maps' fixed points (the one-letter
    words apply at and beyond them).  With period n, the word is certified
    when the actions from x_1 on are exactly q-periodic for the least
    q <= max_len dividing n, and their first q letters form a Christoffel
    word.  The repeat makes the periodicity exact for the computed orbit
    forever, so no tolerance is involved.  Otherwise the result is
    uncertified and carries the orbit's first max_len actions; uncertified
    periodicity is reported, never guessed.
    """
    if max_len < 1:
        raise ValueError("max_len must be positive")
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    # At the fixed points of the pure maps the orbit converges onto the
    # threshold itself, so the letter decision is float-noise; the one-sided
    # words of the closed boundary intervals apply there.
    v_active = y1(p)
    knife = abs(x - v_active) <= knife_edge_tol(v_active)
    if knife or x < v_active:
        return ThresholdWord(Word("1"), True, knife)
    v_passive = y0(p)
    knife = abs(x - v_passive) <= knife_edge_tol(v_passive)
    if math.isfinite(v_passive) and (knife or x > v_passive):
        return ThresholdWord(Word("0"), True, knife)
    states, k = walk(16 * max_len)
    acts, knife = walk_actions(states, x)
    n = len(acts) - k
    for q in range(1, min(n, max_len) + 1):
        # The walk holds a whole cycle, so with q dividing n a q-periodic
        # walk extends to a q-periodic orbit.
        if n % q == 0 and acts[q:] == acts[:-q]:
            w = Word(acts[:q])
            if is_christoffel(w):
                return ThresholdWord(w, True, knife)
            break
    # Only a repeating walk can be shorter than max_len (its cap is longer).
    return ThresholdWord(Word(_tiled(acts, k, max_len)), False, knife)
