"""Scalar orbit loops on the bound stepper, checked bit for bit against reference loops.

``dynamics.scalar_map`` binds an arm's coefficients once and steps one
Python float at a time, and ``dynamics.threshold_walk`` walks a threshold
orbit to its first exact repeat.  The reference functions below step with
one ``phi`` call per step, test knife edges through ``is_knife_edge`` and
keep numpy scalar stores or plain lists; the threshold-word reference
finds the first repeat with a set and tests periodicity letter by letter.
Every state, summand, word and flag must come out identical.  Certified
threshold words are also checked against the fixed-point interval
theorem, an oracle that shares no code with the orbit walk, and the
discount-to-one limit against the exact rational limit of the reference
orbits.

The point queries ``whittle_index``, ``q_value``, ``marginal_cost``,
``marginal_work`` and ``index_beta1`` are checked the same way against
references that walk, evaluate and sum each orbit on its own, as the
queries did before they shared one cost evaluation: the same floats, flags
and errors, and lqg's threshold bisected over the reference probe.

Instances are drawn by derandomized hypothesis.  Many of them start at an
end of a Christoffel word's fixed-point interval, where the threshold
orbit returns to the threshold within a few ulps: there a one-ulp change
in any step flips an action, so word-valued results are sensitive to the
last bit too.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from obsched import costs, lqg
from obsched.bandit import _reach_bound
from obsched.dynamics import (
    InconsistencyError,
    KNIFE_EDGE_TOL,
    ArmParams,
    Orbit,
    ThresholdWord,
    check_discounted_sums,
    fixed_point,
    itinerary,
    orbit,
    phi,
    phi1,
    phi_word,
    scalar_map,
    threshold_walk,
    threshold_word,
    y0,
    y1,
)
from obsched.index import (
    MAX_TRUNCATION_STEPS,
    MEAN_COST_TOL,
    IndexQuery,
    UncertifiedPeriodError,
    _cycle_factor,
    cost_gap,
    index_beta1,
    marginal_cost,
    marginal_work,
    q_value,
    truncation_horizon,
    whittle_index,
    work_floor,
)
from obsched.words import (
    Word,
    central_palindrome,
    christoffel,
    farey,
    is_christoffel,
)

from support import is_knife_edge, orbit_terms

RATES = [f for f in farey(7) if 0 < f < 1]
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# Reference loops: one phi call per step.


def reference_threshold_word(p, x, max_len):
    """The first-repeat certifier: phi steps, a set of seen states, letter tests."""
    if max_len < 1:
        raise ValueError("max_len must be positive")
    v_active = y1(p)
    if is_knife_edge(x, v_active) or x < v_active:
        return ThresholdWord(Word("1"), True, is_knife_edge(x, v_active))
    v_passive = y0(p)
    if math.isfinite(v_passive) and (is_knife_edge(x, v_passive) or x > v_passive):
        return ThresholdWord(Word("0"), True, is_knife_edge(x, v_passive))
    v = phi1(p, x)
    states, acts, seen, knife = [], [], set(), False
    while len(states) < 16 * max_len and v not in seen:
        knife = knife or is_knife_edge(v, x)
        seen.add(v)
        states.append(v)
        acts.append(int(v >= x))
        v = phi(p, acts[-1], v)
    k = states.index(v) if v in seen else len(states)
    n = len(states) - k

    def action(i):
        return acts[i] if i < len(acts) else acts[k + (i - k) % n]

    for q in range(1, max_len + 1):
        if n % q == 0 and n >= q and all(
            action(i) == action(i + q) for i in range(len(acts))
        ):
            w = Word(acts[:q])
            if is_christoffel(w):
                return ThresholdWord(w, True, knife)
            break
    return ThresholdWord(Word(action(i) for i in range(max_len)), False, knife)


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


def reference_orbit_terms(p, cost, beta, x, s, first_action, T):
    """The summands, plus the repeat steps k < t (k = t = T + 1 without one)."""
    tol = -1.0 if math.isinf(s) else KNIFE_EDGE_TOL * max(1.0, abs(s))
    v = float(x)
    knife = False
    states, acts, seen = [], [], {}
    for t in range(T + 1):
        if t == 0:
            act = first_action
        else:
            knife = knife or abs(v - s) <= tol
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


def reference_limit_orbit(p, x, first_action):
    """States of the x-threshold orbit to its first repeat, and its head k."""
    v = float(x)
    states, seen = [], {}
    for t in range(10**6):
        if t >= 1:
            k = seen.setdefault(v, t)
            if k < t:
                return states, k
        states.append(v)
        v = phi(p, first_action if t == 0 else int(v >= x), v)
    raise AssertionError(f"no repeat within 10**6 steps at x={x}")


def reference_beta1_limit(p, x, n):
    """The discount-to-one limit index of the float orbits, in exact arithmetic.

    Linear cost: each summand is a state.  With p_i orbit i's cycle
    continued periodically in absolute time, heads k_i and N the lcm of
    the state periods, the limit numerator is sum_{t < k_0} (a0_t - p0_t)
    - sum_{t < k_1} (a1_t - p1_t) + sum_{j < N} j (p1_j - p0_j) / N,
    summed here in Fractions; the denominator is (c1 - c0)/n.  None when
    the cycles' mean costs differ by more than 1e-9 of their largest cost.
    """
    orbits = [reference_limit_orbit(p, x, a) for a in (0, 1)]
    cycles = [[Fraction(v) for v in states[k:]] for states, k in orbits]
    means = [sum(cyc) / len(cyc) for cyc in cycles]
    if abs(means[0] - means[1]) > Fraction(1e-9) * max(map(abs, cycles[0] + cycles[1])):
        return None
    N = math.lcm(*map(len, cycles))
    num = Fraction(0)
    for (states, k), sign in zip(orbits, (1, -1)):
        a = [Fraction(v) for v in states]
        cyc = a[k:]

        def per(t):
            return cyc[(t - k) % len(cyc)]

        num += sign * (sum(a[t] - per(t) for t in range(k))
                       - sum(j * per(j) for j in range(N)) / N)
    return num * n / (Fraction(p.c1) - Fraction(p.c0))


def reference_whittle_index(q):
    """The index from two reference orbits, each walked, evaluated and summed
    on its own, with the overflow guard once both are evaluated."""
    p, beta, x = q.params, q.beta, q.x
    gap = cost_gap(p)
    T = truncation_horizon(beta)
    c0, w0, k0, _, _ = reference_orbit_terms(p, q.cost, beta, x, x, 0, T)
    c1, w1, k1, _, _ = reference_orbit_terms(p, q.cost, beta, x, x, 1, T)
    check_discounted_sums(p, q.cost, beta, x, x)
    num = math.fsum(np.concatenate([c0, -c1]))
    den = math.fsum(np.concatenate([w1, -w0]))
    if den <= 0.0 or den < work_floor(gap, beta, T) - 1e-15:
        raise InconsistencyError(
            f"marginal work {den} below its lower bound at x={x}: internal inconsistency"
        )
    return x, num / den, num, den, None, k0 or k1


def reference_marginal(q, s, row):
    """Marginal cost (row 0) or work (row 1) of the s-threshold policy."""
    T = truncation_horizon(q.beta)
    terms0 = reference_orbit_terms(q.params, q.cost, q.beta, q.x, s, 0, T)[row]
    terms1 = reference_orbit_terms(q.params, q.cost, q.beta, q.x, s, 1, T)[row]
    plus, minus = (terms1, terms0) if row else (terms0, terms1)
    return math.fsum(np.concatenate([plus, -minus]))


def reference_q_value(p, cost, beta, nu, x, a, s):
    c, w = reference_orbit_terms(p, cost, beta, x, s, a, truncation_horizon(beta))[:2]
    return math.fsum(c) + nu * math.fsum(w)


def reference_index_beta1(p, cost, x):
    """The discount-to-one limit with the reference certifier and orbits.

    Each orbit is walked to its first repeat with one phi call per step and
    evaluated on its own; the limit is the formula of ``index_beta1``.
    """
    gap = cost_gap(p)
    x = float(x)
    tw = reference_threshold_word(p, x, 256)
    if not tw.periodic:
        raise UncertifiedPeriodError(f"no certified period <= 256 at x={x}")
    terms, cycles, knife, cap = [], [], tw.knife_edge, MAX_TRUNCATION_STEPS
    for first, sign in ((0, 1.0), (1, -1.0)):
        v, states, seen = float(x), [], {}
        for t in range(cap + 1):
            if t >= 1:
                knife = knife or is_knife_edge(v, x)
                k = seen.setdefault(v, t)
                if k < t:
                    break
            states.append(v)
            v = phi(p, first if t == 0 else int(v >= x), v)
        else:
            k = t = cap + 1
        summands = cost.eval(np.array(states))
        if k == t:
            raise UncertifiedPeriodError(f"no repeat within {cap} steps at x={x}")
        m = t - k
        cyc = summands[k:]
        terms += [sign * summands[:k], -sign * cyc[(np.arange(k) - k) % m]]
        cycles.append((cyc, k, m, math.fsum(cyc) / m))
    (cyc0, k0, m0, mean0), (cyc1, k1, m1, mean1) = cycles
    if abs(mean0 - mean1) > MEAN_COST_TOL * max(np.abs(cyc0).max(), np.abs(cyc1).max()):
        raise (ArithmeticError if knife else InconsistencyError)(
            f"the orbits at x={x} reach cycles of mean costs {mean0} and {mean1}: "
            + ("x is a knife edge" if knife else "internal inconsistency")
        )
    N = math.lcm(m0, m1)
    j = np.arange(N)
    terms.append(j * (cyc1[(j - k1) % m1] - cyc0[(j - k0) % m0]) / N)
    n = len(tw.word)
    lam = math.fsum(np.concatenate(terms)) * n / gap
    return x, lam, lam * gap / n, gap / n, str(tw.word), knife


def reference_threshold(problem, alpha):
    """lqg.observation_threshold over the reference probe, all bisection steps."""
    p = problem
    if p.c1 - p.c0 <= 0.0:
        return -math.inf
    if alpha <= 1e-12:
        return math.inf
    probe = p.arm().with_costs(0.0, 1.0)

    def lam(v):
        return reference_whittle_index(IndexQuery(probe, costs.linear(), p.beta, v))[1]

    target = (p.c1 - p.c0) / (alpha * p.sigma_x)
    lo, top = 1e-9, y0(probe)
    hi = 4.0 * top if math.isfinite(top) else 4.0 * max(1.0, y1(probe))
    if lam(lo) >= target:
        return -math.inf
    while lam(hi) < target:
        if math.isfinite(top):
            return math.inf
        hi *= 2.0
        if hi > 1e12:
            return math.inf
    for _ in range(lqg.BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if lam(mid) < target:
            lo = mid
        else:
            hi = mid
    return p.sigma_x * 0.5 * (lo + hi)


def outcome(fn, *args):
    """fn(*args) as comparable bits: its floats' bytes, or its error's type and text.

    Warnings are ignored; both sides may overflow on the way to an error.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            got = fn(*args)
        except Exception as exc:  # noqa: BLE001 - the error is the outcome
            return type(exc), str(exc)
    if hasattr(got, "lam"):
        got = (got.x, got.lam, got.numerator, got.denominator,
               None if got.word is None else str(got.word), got.knife_edge)
    return tuple(np.float64(v).tobytes() if isinstance(v, float) else v
                 for v in (got if isinstance(got, tuple) else (got,)))


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


COST_FAMILIES = (
    costs.linear, costs.entropy, costs.neg_precision, costs.ratio_demo, costs.bounded_demo,
    lambda: costs.power(-3.0), lambda: costs.power(-3.0), lambda: costs.power(-1.0),
    lambda: costs.power(0.5), lambda: costs.power(2.0), lambda: costs.constant(2.0),
    lambda: costs.from_table([0.5, 1.0, 3.0], [0.0, 2.0, 3.0]),
)


@st.composite
def query_arms(draw):
    """Arms of :func:`arms` or with a1 = 1e300, and costs c0 < c1 or c0 = c1.

    At a1 = 1e300 the orbits reach 1e-300, where power(-3) overflows.
    """
    p = draw(arms())
    a1 = draw(st.sampled_from((p.a1, p.a1, 1e300)))
    c0, c1 = draw(st.sampled_from(((0.2, 1.0), (0.0, 3.0), (0.2, 1.0), (0.0, 3.0), (1.0, 1.0))))
    return ArmParams(r=p.r, a0=p.a0, a1=a1, c0=c0, c1=c1)


@st.composite
def query_state(draw, p):
    """x below y1, at y1, inside [y1, y0], at or above y0, at 0, negative or at
    a pole of the map, where a step divides by zero."""
    lo, hi = y1(p), min(y0(p), 50.0)
    kind = draw(st.sampled_from(
        ("below", "y1", "start", "start", "start", "above", "zero", "negative", "pole")
    ))
    if kind == "below":
        return lo * draw(st.floats(0.0, 1.0))
    if kind == "y1":
        return lo
    if kind == "start":
        # (the Christoffel-word points need a moderate a1)
        return draw(start(p) if p.a1 < 1e100 else st.floats(1e-3, hi))
    if kind == "above":
        return hi * draw(st.floats(1.0, 3.0))
    if kind == "zero":
        return draw(st.sampled_from((0.0, -0.0)))
    poles = [-(a + 1.0) / (a * p.r2) for a in (p.a0, p.a1) if 0.0 < a < math.inf]
    if kind == "pole" and poles:
        return draw(st.sampled_from(poles))
    return -draw(st.floats(1e-3, 5.0))


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


def assert_near_exact(got, exact):
    """got is within 2 ulps of 1 (4.4e-16) of the exact value, relatively."""
    assert abs(Fraction(got) - exact) <= Fraction(4.4e-16) * abs(exact)


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
    def test_threshold_word_in_fixed_point_interval(self, data):
        # Every certified word w = 0p1 has x in [y_{01p}, y_{10p}]; and x
        # well inside the interval of a Christoffel word w certifies w.  An
        # orbit flagged knife-edge came back to x within the knife-edge
        # tolerance, so x is an interval end only up to that tolerance.
        p = data.draw(arms())
        x = data.draw(start(p))
        for max_len in (8, 64):
            tw = threshold_word(p, x, max_len)
            if tw.periodic and len(tw.word) >= 2:
                pal = tw.word.factor(2, len(tw.word) - 1)
                lo, hi = fixed_point(p, Word("01") + pal), fixed_point(p, Word("10") + pal)
                slack = KNIFE_EDGE_TOL * max(1.0, x) if tw.knife_edge else 0.0
                assert lo - slack <= x <= hi + slack
        rate = data.draw(st.sampled_from(RATES))
        lo, hi = word_point(p, rate, "01"), word_point(p, rate, "10")
        assume(hi - lo > 1e-9 * hi)
        x = lo + data.draw(st.floats(0.2, 0.8)) * (hi - lo)
        w = christoffel(rate.numerator, rate.denominator)
        assert threshold_word(p, x, 64) == ThresholdWord(w, True, False)

    def test_orbit(self):
        # T up to 3,000 puts the first repeat of most walks before T, so
        # the states after it come from tiling the walk's cycle: at least
        # half the draws must tile.
        tiled = []

        @given(data=st.data())
        @SETTINGS
        def check(data):
            p = data.draw(arms())
            x = data.draw(start(p))
            s = data.draw(st.one_of(st.just(x), start(p), st.just(math.inf)))
            a = data.draw(st.integers(0, 1))
            T = data.draw(st.one_of(st.integers(1, 120), st.integers(121, 3000)))
            got, ref = orbit(p, x, a, s, T), reference_orbit(p, x, a, s, T)
            assert_same_floats(got.states, ref.states)
            assert got.actions.dtype == ref.actions.dtype
            assert np.array_equal(got.actions, ref.actions)
            assert (got.threshold, got.first_action, got.knife_edge) == (
                ref.threshold, ref.first_action, ref.knife_edge
            )
            tiled.append(len(threshold_walk(p, phi(p, a, x), s, T)[0]) < T)

        check()
        assert sum(tiled) >= len(tiled) / 2

    def test_itinerary(self):
        tiled = []

        @given(data=st.data())
        @SETTINGS
        def check(data):
            p = data.draw(arms())
            z = data.draw(start(p))
            x = data.draw(st.one_of(st.just(z), start(p)))
            n = data.draw(st.one_of(st.integers(1, 200), st.integers(201, 3000)))
            assert itinerary(p, x, z, n) == reference_itinerary(p, x, z, n)
            tiled.append(len(threshold_walk(p, x, z, n)[0]) < n)

        check()
        assert sum(tiled) >= len(tiled) / 2


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
        cterms, wterms, knife, _ = orbit_terms(p, cost, beta, x, s, first, T)
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
        tw = reference_threshold_word(p, x, 256)
        if not tw.periodic:
            with pytest.raises(UncertifiedPeriodError):
                index_beta1(p, costs.linear(), x)
            return
        exact = reference_beta1_limit(p, x, len(tw.word))
        if exact is None:
            # Rounding put the orbits of a knife edge on different cycles.
            with pytest.raises(ArithmeticError, match="knife edge"):
                index_beta1(p, costs.linear(), x)
            return
        rec = index_beta1(p, costs.linear(), x)
        assert rec.word == tw.word and rec.denominator == (p.c1 - p.c0) / len(tw.word)
        assert_near_exact(rec.lam, exact)

    @pytest.mark.parametrize("r, a0, a1, x", [
        # The orbits first repeat after 13,300 steps.
        (0.9995, 1e-6, 1.0, 900.0),
        (0.9995, 1e-6, 1.0, 1000.0),
        # State periods 4 and 8 against a word period of 4.
        (1.0, 0.0, 0.1, 6.875),
        # The rows of tests/golden/index_beta1.csv that the exact cycles moved.
        (1.0, 0.0, 1e6, 0.25),
        (1.0, 0.0, 1e6, 2.875),
    ])
    def test_index_beta1_slow_and_split_cycles(self, r, a0, a1, x):
        p = ArmParams(r=r, a0=a0, a1=a1)
        rec = index_beta1(p, costs.linear(), x)
        assert_near_exact(rec.lam, reference_beta1_limit(p, x, len(rec.word)))


class TestPointQueries:
    """The point queries against the reference loops, bit for bit, errors included."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_whittle_index_and_marginals(self, data):
        p = data.draw(query_arms())
        x = data.draw(query_state(p))
        beta = data.draw(st.sampled_from((0.0, 0.5, 0.9, 0.99, 0.999)))
        cost = data.draw(st.sampled_from(COST_FAMILIES))()
        q = IndexQuery(p, cost, beta, x)
        assert outcome(whittle_index, q) == outcome(reference_whittle_index, q)
        s = data.draw(st.one_of(st.just(x), query_state(p), st.just(math.inf)))
        assert outcome(marginal_cost, q, s) == outcome(reference_marginal, q, s, 0)
        assert outcome(marginal_work, q, s) == outcome(reference_marginal, q, s, 1)
        nu, a = data.draw(st.floats(-2.0, 2.0)), data.draw(st.integers(0, 1))
        assert outcome(q_value, p, cost, beta, nu, x, a, s) == outcome(
            reference_q_value, p, cost, beta, nu, x, a, s)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_index_beta1(self, data):
        p = data.draw(query_arms())
        x = data.draw(query_state(p))
        cost = data.draw(st.sampled_from(COST_FAMILIES))()
        assert outcome(index_beta1, p, cost, x) == outcome(reference_index_beta1, p, cost, x)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_lqg_threshold(self, seed):
        rng = np.random.default_rng(seed)
        prob = lqg.LqgProblem(
            A=float(rng.uniform(0.3, 1.0)), B=float(rng.uniform(0.5, 2.0)), D=1.0,
            F=float(rng.choice([0.0, rng.uniform(0.0, 3.0)])),
            beta=float(rng.uniform(0.3, 0.98)), sigma_x=float(rng.uniform(0.3, 3.0)),
            sigma_y0=float(rng.choice([math.inf, rng.uniform(5.0, 500.0)])),
            sigma_y1=float(rng.uniform(0.1, 3.0)), c0=0.0, c1=float(rng.uniform(0.05, 3.0)),
        )
        alpha = lqg.solve_lqg(prob).alpha
        assert repr(lqg.observation_threshold(prob, alpha)) == repr(
            reference_threshold(prob, alpha))
