"""Posterior-variance dynamics of a single Kalman-filtered arm.

The one-step variance update under query action a is the Moebius map

    phi_a(v) = (r^2 v + 1) / (a_q r^2 v + a_q + 1),    a_q in {a0, a1},

in units of the process-noise variance.  This module provides the maps,
their 2x2 matrix representation, fixed points of word compositions,
threshold orbits, itineraries of the induced map-with-a-gap, and the
bracketing of fixed points for irrational-rate threshold words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional, Union

import numpy as np

# ``is_balanced`` is unused here but stays a module attribute:
# perfbench/layers.py wraps ``dynamics.is_balanced`` by name.
from .words import Word, is_balanced, is_christoffel  # noqa: F401

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
    and c0 <= c1 the per-step observation costs.  Raw Kalman fields are
    carried through when the instance came from :meth:`from_kalman`.
    """

    r: float
    a0: float
    a1: float
    c0: float = 0.0
    c1: float = 1.0
    A: Optional[float] = None
    sigma_x: Optional[float] = None
    sigma_y0: Optional[float] = None
    sigma_y1: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.r <= 1.0:
            raise ValueError(f"r must be in (0, 1], got {self.r}")
        if not 0.0 <= self.a0 < self.a1:
            raise ValueError(f"need 0 <= a0 < a1, got a0={self.a0}, a1={self.a1}")
        if not self.c0 <= self.c1:
            raise ValueError(f"need c0 <= c1, got c0={self.c0}, c1={self.c1}")

    @property
    def r2(self) -> float:
        return self.r * self.r

    def work_cost(self, action: int) -> float:
        return self.c1 if action else self.c0

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
        if sigma_x <= 0:
            raise ValueError("sigma_x must be positive")
        if A == 0 or abs(A) > 1:
            raise ValueError(f"|A| must be in (0, 1], got {A}")
        if not 0 < sigma_y1 < sigma_y0:
            raise ValueError(
                f"need 0 < sigma_y1 < sigma_y0, got {sigma_y1}, {sigma_y0}"
            )
        a0 = 0.0 if math.isinf(sigma_y0) else sigma_x / sigma_y0
        a1 = sigma_x / sigma_y1
        return cls(
            r=abs(A), a0=a0, a1=a1, c0=c0, c1=c1,
            A=A, sigma_x=sigma_x, sigma_y0=sigma_y0, sigma_y1=sigma_y1,
        )

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
    Orbit loops that step one state at a time use it.
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


def batch_coefficients(r2: FloatArray, a0: FloatArray, a1: FloatArray) -> tuple:
    """Per-arm coefficients of :func:`phi_batch`, computed once per batch.

    Rows: r^2, a0 r^2, a0, a1' r^2, a1' and isinf(a1), where a1' is a1
    with an infinite value replaced by 1.0 (the map itself is then 0).
    """
    r2, a0, a1 = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (r2, a0, a1)))
    a1_inf = np.isinf(a1)
    a1 = np.where(a1_inf, 1.0, a1)
    return r2, a0 * r2, a0, a1 * r2, a1, a1_inf


def phi_batch(coef: tuple, act: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Elementwise variance update; coefficients, actions and states broadcast.

    ``coef`` comes from :func:`batch_coefficients`.  Only the taken branch
    is evaluated, and each element gets the same float operations as
    :func:`phi` on one arm: a r^2 v is (a r^2) v there too, while
    (a r^2 v + a) + 1 must not become a r^2 v + (a + 1).
    """
    r2, a0r2, a0, a1r2, a1, a1_inf = coef
    den = np.where(act, a1r2, a0r2) * v
    den += np.where(act, a1, a0)
    den += 1.0
    out = r2 * v
    out += 1.0
    out /= den
    if a1_inf.size == 1 and not a1_inf:
        return out
    return np.where(act & a1_inf, 0.0, out)


def phi_word(p: ArmParams, w: Word, v: float) -> float:
    """Composition phi_w = phi_{w_n} o ... o phi_{w_1}."""
    step = scalar_map(p)
    for b in w:
        v = step(b, v)
    return v


def _fixed_point_single(p: ArmParams, a_q: float) -> float:
    """Fixed point of a single map with precision a_q (inf for y1 = 0)."""
    if math.isinf(a_q):
        return 0.0
    r2 = p.r2
    qa, qb = a_q * r2, a_q + 1.0 - r2
    if qa == 0.0:
        return math.inf if qb <= 0.0 else 1.0 / qb
    # root of qa y^2 + qb y - 1 with qb >= 0; reciprocal form avoids the
    # cancellation of (-qb + sqrt) when qa is tiny
    return 2.0 / (qb + math.sqrt(qb * qb + 4.0 * qa))


def y0(p: ArmParams) -> float:
    """Fixed point of the passive map (inf when r = 1 and a0 = 0)."""
    return _fixed_point_single(p, p.a0)


def y1(p: ArmParams) -> float:
    """Fixed point of the active map."""
    return _fixed_point_single(p, p.a1)


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

    def as_array(self) -> np.ndarray:
        return np.array([[self.m11, self.m12], [self.m21, self.m22]])


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
    qa, qb, qc = m.m21, m.m22 - m.m11, -m.m12
    if qa == 0.0:
        return -qc / qb if qb > 0.0 else math.inf
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        raise ArithmeticError("no real fixed point; invalid parameters")
    s = math.sqrt(disc)
    if qb == 0.0:
        y = s / (2.0 * qa)
    else:
        q = -0.5 * (qb + math.copysign(s, qb))
        y = max(q / qa, qc / q)
    if y <= 0.0:
        raise ArithmeticError("no positive fixed point; invalid parameters")
    return y


def fixed_point(p: ArmParams, w: Word) -> float:
    """Unique positive fixed point y_w of phi_w (inf for all-passive, r=1, a0=0)."""
    if len(w) == 0:
        raise ValueError("fixed point undefined for the empty word")
    if math.isinf(p.a1) and w.ones > 0:
        last_one = max(k for k in range(1, len(w) + 1) if w.letter(k) == 1)
        step = scalar_map(p)
        v = 0.0
        for k in range(last_one + 1, len(w) + 1):
            v = step(w.letter(k), v)
        return v
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

    ``abs(v - s) <= knife_edge_tol(s)`` is :func:`is_knife_edge` for a
    scalar state, with the tolerance computed once per orbit.
    """
    return -1.0 if math.isinf(s) else KNIFE_EDGE_TOL * max(1.0, abs(s))


def is_knife_edge(x: FloatArray, s: float) -> FloatArray:
    """Whether a state is within the knife-edge tolerance of the threshold."""
    if math.isinf(s):
        return np.zeros_like(x, dtype=bool) if isinstance(x, np.ndarray) else False
    return np.abs(x - s) <= knife_edge_tol(s)


@dataclass(frozen=True)
class Orbit:
    """States and actions of an s-threshold orbit with a forced first action."""

    states: np.ndarray
    actions: np.ndarray
    threshold: float
    first_action: int
    knife_edge: bool


def orbit(p: ArmParams, x: float, a: int, s: float, T: int) -> Orbit:
    """X_0..X_T and A_0..A_T with A_0 = a and A_t = 1{X_t >= s} for t >= 1."""
    if T < 1:
        raise ValueError("T must be positive")
    step = scalar_map(p)
    tol = knife_edge_tol(s)
    v = float(x)
    states = [v]
    actions = [a]
    knife = False
    for _ in range(T):
        v = step(actions[-1], v)
        if abs(v - s) <= tol:
            knife = True
        states.append(v)
        actions.append(int(v >= s))
    return Orbit(np.array(states), np.array(actions, dtype=np.int64), s, a, knife)


def itinerary(p: ArmParams, x: float, z: float, n: int) -> Word:
    """First n letters of the itinerary of the map-with-a-gap at threshold z.

    x_1 = x, sigma_t = 1{x_t >= z}, x_{t+1} = phi_{sigma_t}(x_t).  x must
    be finite; z = -inf and z = inf give the all-active and all-passive
    itineraries.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not math.isfinite(x) or math.isnan(z):
        raise ValueError(f"need a finite x and a non-NaN z, got x={x}, z={z}")
    step = scalar_map(p)
    letters = []
    v = float(x)
    for _ in range(n):
        b = int(v >= z)
        letters.append(b)
        v = step(b, v)
    return Word(letters)


@dataclass(frozen=True)
class ThresholdWord:
    word: Word
    periodic: bool
    knife_edge: bool


def threshold_walk(
    step: Callable[[int, float], float], v: float, s: float, cap: int
) -> tuple[list[float], bytearray, int, bool]:
    """The s-threshold orbit from v until its first exact repeat, at most cap states.

    ``step`` is a :func:`scalar_map` stepper and v the state after a forced
    first action; from v on each action is 1{state >= s}.  Returns the
    states, their actions (one byte each), the cycle start k and whether a
    state ties s within :func:`knife_edge_tol`.  The states stop before the
    first state that equals, bit for bit, an earlier one, states[k]: the
    orbit is periodic from k with period len(states) - k, forever.  Without
    a repeat within cap states, k = len(states) = cap.
    """
    v, s = float(v), float(s)
    tol = knife_edge_tol(s)
    states: list[float] = []
    acts = bytearray()
    seen: dict[float, int] = {}
    knife = False
    for i in range(cap):
        if abs(v - s) <= tol:
            knife = True
        k = seen.setdefault(v, i)
        if k < i:
            return states, acts, k, knife
        states.append(v)
        b = v >= s
        acts.append(b)
        v = step(b, v)
    return states, acts, cap, knife


def threshold_word(p: ArmParams, x: float, max_len: int) -> ThresholdWord:
    """Shortest word generating the x-threshold orbit, with periodicity certificate.

    The orbit starts at x_1 = phi_1(x) and thereafter applies phi_1 exactly
    when the state is >= x.  It is walked by :func:`threshold_walk` to its
    first exact repeat of a state, at most 16 max_len states.  With period
    n there, the word is certified when the actions from x_1 on are
    exactly q-periodic for the least q <= max_len dividing n, and their
    first q letters form a Christoffel word.  The repeat makes the
    periodicity exact for the computed orbit forever, so no tolerance is
    involved.  Otherwise the result is uncertified and carries the orbit's
    first max_len actions; uncertified periodicity is reported, never
    guessed.
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
    # The first step is a real phi1 call: perfbench/layers.py counts the
    # calls of ``dynamics.phi1`` by name.
    _, acts, k, knife = threshold_walk(scalar_map(p), phi1(p, x), x, 16 * max_len)
    acts = bytes(acts)
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
    while len(acts) < max_len:
        acts += acts[k:]
    return ThresholdWord(Word(acts[:max_len]), False, knife)
