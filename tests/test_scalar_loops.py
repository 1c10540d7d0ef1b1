"""Scalar orbit loops on the bound stepper, checked bit for bit against the old loops.

``dynamics.scalar_map`` binds an arm's coefficients once and steps one
Python float at a time.  The reference functions below are the loops as
they were written before it: one ``phi`` call per step, knife-edge tests
through ``is_knife_edge`` and numpy scalar stores.  Every state, summand,
word and flag must come out identical.

Instances are drawn by derandomized hypothesis.  Many of them start at an
end of a Christoffel word's fixed-point interval, where the threshold
orbit returns to the threshold within a few ulps: there a one-ulp change
in any step flips an action, so word-valued results are sensitive to the
last bit too.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsched import costs
from obsched.bandit import _reach_bound
from obsched.dynamics import (
    KNIFE_EDGE_TOL,
    ArmParams,
    Orbit,
    ThresholdWord,
    fixed_point,
    is_knife_edge,
    itinerary,
    orbit,
    phi,
    phi1,
    phi_word,
    scalar_map,
    threshold_word,
    y0,
    y1,
)
from obsched.index import (
    UncertifiedPeriodError,
    _cycle_factor,
    _orbit_terms,
    index_beta1,
    whittle_index_word,
)
from obsched.words import (
    Word,
    central_palindrome,
    christoffel,
    farey,
    is_balanced,
    is_christoffel,
)

RATES = [f for f in farey(7) if 0 < f < 1]
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# The loops as they were before the stepper.


def reference_threshold_word(p, x, max_len, state_tol=1e-9):
    if max_len < 1:
        raise ValueError("max_len must be positive")
    v_active = y1(p)
    if is_knife_edge(x, v_active) or x < v_active:
        return ThresholdWord(Word("1"), True, is_knife_edge(x, v_active))
    v_passive = y0(p)
    if math.isfinite(v_passive) and (is_knife_edge(x, v_passive) or x > v_passive):
        return ThresholdWord(Word("0"), True, is_knife_edge(x, v_passive))
    n_steps = 3 * max_len + 8
    states = np.empty(n_steps)
    acts = np.empty(n_steps, dtype=np.int64)
    v = phi1(p, x)
    knife = False
    for k in range(n_steps):
        if is_knife_edge(v, x):
            knife = True
        states[k] = v
        b = int(v >= x)
        acts[k] = b
        v = phi(p, b, v)
    for q in range(1, max_len + 1):
        if np.any(acts[q:] != acts[:-q]):
            continue
        k = n_steps - q - 1
        if abs(states[k + q] - states[k]) > state_tol * (1.0 + abs(states[k])):
            continue
        w = Word(int(b) for b in acts[:q])
        if is_balanced(w) and is_christoffel(w):
            return ThresholdWord(w, True, knife)
    return ThresholdWord(Word(int(b) for b in acts[:max_len]), False, knife)


def reference_orbit(p, x, a, s, T):
    states = np.empty(T + 1)
    actions = np.empty(T + 1, dtype=np.int64)
    v = float(x)
    knife = False
    for t in range(T + 1):
        act = a if t == 0 else int(v >= s)
        if t >= 1 and is_knife_edge(v, s):
            knife = True
        states[t] = v
        actions[t] = act
        if t < T:
            v = phi(p, act, v)
    return Orbit(states, actions, s, a, knife)


def reference_itinerary(p, x, z, n):
    letters = []
    v = float(x)
    for _ in range(n):
        b = int(v >= z)
        letters.append(b)
        v = phi(p, b, v)
    return Word(letters)


def reference_knife_branch(p, s, v, recent):
    windows = {}
    for first in (1, 0):
        acts = [first]
        u = phi(p, first, v)
        for _ in range(3):
            b = int(u >= s)
            acts.append(b)
            u = phi(p, b, u)
        windows[first] = is_balanced(Word(recent[-16:] + acts))
    if windows[1] == windows[0]:
        return 1
    return 1 if windows[1] else 0


def reference_orbit_terms(p, cost, beta, x, s, first_action, T):
    """The summands, plus the repeat steps k < t (k = t = T + 1 without one)."""
    tol = -1.0 if math.isinf(s) else KNIFE_EDGE_TOL * max(1.0, abs(s))
    v = float(x)
    knife = False
    states, acts, seen = [], [], {}
    for t in range(T + 1):
        if t == 0:
            act = first_action
        elif abs(v - s) <= tol:
            knife = True
            act = reference_knife_branch(p, s, v, acts)
        else:
            if not knife:
                k = seen.setdefault(v, t)
                if k < t:
                    break
            act = int(v >= s)
        states.append(v)
        acts.append(act)
        v = phi(p, act, v)
    else:
        k = t = T + 1
    disc = beta ** np.arange(t, dtype=float)
    terms = disc * np.stack([cost.eval(np.array(states)), np.where(acts, p.c1, p.c0)])
    if k < t:
        # The cycle k..t-1 repeats forever: its summands weigh 1 / (1 - beta^n).
        terms[:, k:] *= _cycle_factor(beta, t - k)
    return terms[0], terms[1], knife, k, t


def reference_index_beta1(params, cost, x, T, word_max_len=256):
    tw = reference_threshold_word(params, x, word_max_len)
    if not tw.periodic:
        raise UncertifiedPeriodError(f"no certified period <= {word_max_len} at x={x}")
    n = len(tw.word)
    if n > T:
        raise UncertifiedPeriodError(f"period {n} exceeds horizon T={T}")
    steps = T * n
    states = {}
    for first in (0, 1):
        v = float(x)
        traj = np.empty(steps)
        for t in range(steps):
            traj[t] = v
            act = first if t == 0 else int(v >= x)
            v = phi(params, act, v)
        states[first] = traj
    cyc0 = cost.eval(states[0][steps - n : steps])
    cyc1 = cost.eval(states[1][steps - n : steps])
    offsets = np.arange(steps) % n
    c0 = cost.eval(states[0])
    c1 = cost.eval(states[1])
    numerator = float(np.sum(c0 - cyc0[offsets] - c1 + cyc1[offsets]))
    t_head = np.arange(n)
    numerator += float(np.sum(t_head * (cyc1 - cyc0))) / n
    return numerator * n / (params.c1 - params.c0)


def reference_whittle_index_word(params, cost, beta, x, word, T):
    n = len(word)
    if n == 1:
        seq0 = [0] + [word.letter(1)] * (T + 1)
        seq1 = [1] + [word.letter(1)] * (T + 1)
    else:
        pal = word.factor(2, n - 1)
        reps = T // n + 2
        seq0 = list((Word("01") + pal) * reps)
        seq1 = list((Word("10") + pal) * reps)
    num = den = 0.0
    v0 = v1 = float(x)
    disc = 1.0
    for t in range(T + 1):
        num += disc * (cost.eval(v0) - cost.eval(v1))
        den += disc * (params.work_cost(seq1[t]) - params.work_cost(seq0[t]))
        v0 = phi(params, seq0[t], v0)
        v1 = phi(params, seq1[t], v1)
        disc *= beta
    return num, den


# ---------------------------------------------------------------------------
# Instances.


@st.composite
def arms(draw, finite_a1=False):
    """r = 1 or below, a0 = 0 or positive, a1 finite or (optionally) infinite."""
    r = draw(st.one_of(st.just(1.0), st.floats(0.5, 1.0, exclude_max=True)))
    a0 = draw(st.one_of(st.just(0.0), st.floats(1e-3, 0.5)))
    gap = draw(st.floats(0.05, 3.0))
    a1 = a0 + gap if finite_a1 else draw(st.one_of(st.just(a0 + gap), st.just(math.inf)))
    return ArmParams(r=r, a0=a0, a1=a1, c0=0.2, c1=1.0)


def word_point(p, rate: Fraction, head: str) -> float:
    """An end of the fixed-point interval of the Christoffel word 0p1 of the rate.

    That is y_{10p} or y_{01p}: the threshold orbit from there comes back
    to the threshold after one period, up to rounding.
    """
    pal = central_palindrome(christoffel(rate.numerator, rate.denominator))
    return fixed_point(p, Word(head) + pal)


@st.composite
def start(draw, p):
    """A start state: an interval end of a Christoffel word, y1, y0, or in [y1, y0]."""
    kind = draw(st.sampled_from(("word", "word", "y1", "y0", "uniform")))
    if kind == "word":
        rate = draw(st.sampled_from(RATES))
        return word_point(p, rate, draw(st.sampled_from(("10", "01"))))
    if kind == "y1":
        return y1(p)
    if kind == "y0" and math.isfinite(y0(p)):
        return y0(p)
    return draw(st.floats(y1(p), min(y0(p), 50.0)))


def assert_same_floats(a, b):
    """Equal bit for bit (NaNs included), with equal length."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


# ---------------------------------------------------------------------------
# The stepper itself.


class TestScalarMap:
    @given(p=arms(), vs=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=40))
    @SETTINGS
    def test_step_equals_phi(self, p, vs):
        step = scalar_map(p)
        for v in [0.0, 1.0, y1(p), min(y0(p), 1e6)] + vs:
            for a in (0, 1):
                assert_same_floats(step(a, v), phi(p, a, v))

    def test_corner_parameters(self):
        # r = 1, a0 = 0, a1 = inf, v = 0 and bool actions.
        for p in (
            ArmParams(r=1.0, a0=0.0, a1=0.1),
            ArmParams(r=1.0, a0=0.003, a1=math.inf),
            ArmParams(r=0.9, a0=0.0, a1=math.inf),
            ArmParams(r=0.7, a0=0.25, a1=1.3),
        ):
            step = scalar_map(p)
            for v in [0.0, 1e-300, 1e300] + list(np.geomspace(1e-3, 1e3, 25)):
                for a in (0, 1, False, True):
                    assert_same_floats(step(a, v), phi(p, a, v))
            if math.isinf(p.a1):
                assert step(1, 3.0) == 0.0

    @given(p=arms(), bits=st.lists(st.integers(0, 1), min_size=1, max_size=30),
           v=st.floats(0.0, 100.0))
    @SETTINGS
    def test_phi_word_and_reach_bound(self, p, bits, v):
        w = Word(bits)
        ref = v
        for b in w:
            ref = phi(p, b, ref)
        assert_same_floats(phi_word(p, w, v), ref)
        if not math.isfinite(y0(p)):
            ref = v
            for _ in range(len(bits) + 1):
                ref = phi(p, 0, ref)
            assert_same_floats(_reach_bound(p, v, len(bits)), 2.0 * max(ref, v, 1.0))


# ---------------------------------------------------------------------------
# The loops that use it.


class TestDynamicsLoops:
    @given(data=st.data())
    @SETTINGS
    def test_threshold_word(self, data):
        p = data.draw(arms())
        x = data.draw(start(p))
        for max_len in (1, 64, 256):
            ref = reference_threshold_word(p, x, max_len)
            assert threshold_word(p, x, max_len) == ref
        assert threshold_word(p, np.float64(x), 64) == reference_threshold_word(p, x, 64)

    @given(data=st.data())
    @SETTINGS
    def test_orbit(self, data):
        p = data.draw(arms())
        x = data.draw(start(p))
        s = data.draw(st.one_of(st.just(x), start(p), st.just(math.inf)))
        a = data.draw(st.integers(0, 1))
        T = data.draw(st.integers(1, 120))
        got, ref = orbit(p, x, a, s, T), reference_orbit(p, x, a, s, T)
        assert_same_floats(got.states, ref.states)
        assert got.actions.dtype == ref.actions.dtype
        assert np.array_equal(got.actions, ref.actions)
        assert (got.threshold, got.first_action, got.knife_edge) == (
            ref.threshold, ref.first_action, ref.knife_edge
        )

    @given(data=st.data())
    @SETTINGS
    def test_itinerary(self, data):
        p = data.draw(arms())
        z = data.draw(start(p))
        x = data.draw(st.one_of(st.just(z), start(p)))
        n = data.draw(st.integers(1, 200))
        assert itinerary(p, x, z, n) == reference_itinerary(p, x, z, n)


class TestIndexLoops:
    @given(data=st.data())
    @SETTINGS
    def test_orbit_terms(self, data):
        p = data.draw(arms())
        x = data.draw(start(p))
        # s = x puts the threshold on the orbit's own cycle (knife-edge ties
        # at word points); other thresholds give ordinary repeats.
        s = data.draw(st.one_of(st.just(x), start(p), st.just(math.inf)))
        first = data.draw(st.integers(0, 1))
        beta = data.draw(st.sampled_from((0.0, 0.5, 0.99)))
        T = data.draw(st.integers(1, 300))
        # (entropy is undefined at the state 0 that a1 = inf reaches)
        finite = math.isfinite(p.a1) and data.draw(st.booleans())
        cost = costs.entropy() if finite else costs.linear()
        cterms, wterms, knife = _orbit_terms(p, cost, beta, x, s, first, T)
        rc, rw, rknife, _, t = reference_orbit_terms(p, cost, beta, x, s, first, T)
        # The summand layout is [:k] and one cycle k..t-1 scaled by its
        # infinite-tail factor, so equal arrays also mean the same repeat
        # step t (and, when beta > 0, the same k).
        assert_same_floats(cterms, rc)
        assert_same_floats(wterms, rw)
        assert knife == rknife
        assert len(cterms) == t

    @given(data=st.data())
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_index_beta1(self, data):
        p = data.draw(arms(finite_a1=True))
        x = data.draw(start(p))
        T = data.draw(st.integers(1, 60))
        cost = costs.entropy()
        try:
            ref = reference_index_beta1(p, cost, x, T)
        except UncertifiedPeriodError as exc:
            with pytest.raises(UncertifiedPeriodError, match=str(exc)):
                index_beta1(p, cost, x, T)
            return
        assert_same_floats(index_beta1(p, cost, x, T).lam, ref)

    @given(data=st.data())
    @SETTINGS
    def test_whittle_index_word(self, data):
        p = data.draw(arms())
        rate = data.draw(st.sampled_from(RATES + [Fraction(0), Fraction(1)]))
        w = christoffel(rate.numerator, rate.denominator)
        x = data.draw(start(p))
        beta = data.draw(st.sampled_from((0.0, 0.5, 0.9)))
        T = data.draw(st.integers(1, 150))
        got = whittle_index_word(p, costs.linear(), beta, x, w, T)
        ref = reference_whittle_index_word(p, costs.linear(), beta, x, w, T)
        assert_same_floats(got, ref)
