"""Marginal sums, the index, closed forms, limit procedure, Q-values."""

import math
import re
import struct
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from obsched import costs
from obsched import index as index_mod
from obsched.dynamics import (
    InconsistencyError,
    KNIFE_EDGE_TOL,
    ArmParams,
    ThresholdWord,
    check_discounted_sums,
    fixed_point,
    orbit_range,
    phi,
    scalar_map,
    threshold_walk,
    threshold_word,
    y0,
    y1,
)
from obsched.index import (
    IndexQuery,
    IndexRecord,
    OrbitSums,
    UncertifiedPeriodError,
    closed_form_noiseless,
    closed_form_noiseless_limit,
    cost_gap,
    index_beta1,
    index_table,
    marginal_cost,
    marginal_sums_batch,
    marginal_work,
    q_value,
    truncation_horizon,
    whittle_index,
)
from obsched.words import Word, central_palindrome, christoffel, farey

from support import is_knife_edge, orbit_terms


def random_params(rng, r_lo=0.3, r_hi=1.0, a1_max=3.0):
    r = float(rng.uniform(r_lo, r_hi))
    a0 = float(rng.uniform(0.0, 0.5))
    a1 = a0 + float(rng.uniform(0.05, a1_max))
    return ArmParams(r=r, a0=a0, a1=a1)


def marginal_sums_mp(p, beta, x, T, dps=50):
    """(numerator, denominator) of the index at x, summed to T in mpmath.

    Linear cost; the orbit, its threshold decisions and the discount are
    all carried at ``dps`` digits.
    """
    import mpmath as mp

    mp.mp.dps = dps
    r2 = mp.mpf(p.r) ** 2
    num = mp.mpf(0)
    den = mp.mpf(0)
    for first in (0, 1):
        v = mp.mpf(x)
        disc = mp.mpf(1)
        sgn = 1 if first == 0 else -1
        for t in range(T + 1):
            act = first if t == 0 else (1 if v >= x else 0)
            num += sgn * disc * v
            den -= sgn * disc * act
            a = mp.mpf(p.a1 if act else p.a0)
            v = (r2 * v + 1) / (a * r2 * v + a + 1)
            disc *= mp.mpf(beta)
    return num, den


def mp_horizon(beta):
    """T with beta^T < 1e-40: marginal_sums_mp to T is the infinite sum to 40 digits."""
    return math.ceil(math.log(1e-40) / math.log(beta))


class TestTruncation:
    def test_rule(self):
        assert truncation_horizon(0.9) == math.ceil(math.log(1e-12) / math.log(0.9))
        assert truncation_horizon(0.0) == 1

    def test_cap(self):
        assert truncation_horizon(0.9999999) == 5_000_000


class TestMarginals:
    def test_work_beta0(self):
        p = ArmParams(r=0.9, a0=0.0, a1=1.0)
        q = IndexQuery(p, costs.linear(), 0.0, 2.0)
        assert marginal_work(q, 2.0) == pytest.approx(1.0)

    def test_work_always_active_threshold(self):
        p = ArmParams(r=0.9, a0=0.0, a1=1.0, c0=0.5, c1=2.0)
        q = IndexQuery(p, costs.linear(), 0.8, 2.0)
        assert marginal_work(q, -math.inf) == pytest.approx(1.5)

    def test_work_lower_bound_random(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            p = random_params(rng)
            beta = float(rng.uniform(0.0, 0.95))
            x = float(rng.uniform(0.05, 10.0))
            q = IndexQuery(p, costs.linear(), beta, x)
            T = truncation_horizon(beta)
            slack = beta ** (T + 1) / (1.0 - beta) if beta > 0 else 0.0
            assert marginal_work(q, x) >= (1.0 - beta) - slack - 1e-12

    def test_cost_beta0_and_constant(self):
        p = ArmParams(r=0.9, a0=0.0, a1=1.0)
        q = IndexQuery(p, costs.linear(), 0.0, 2.0)
        assert marginal_cost(q, 2.0) == pytest.approx(0.0)
        q = IndexQuery(p, costs.constant(4.0), 0.9, 2.0)
        assert marginal_cost(q, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(24)
        for _ in range(30):
            p = random_params(rng)
            beta = float(rng.uniform(0.1, 0.999))
            x = float(rng.uniform(0.1, 8.0))
            s = float(rng.uniform(0.1, 8.0))
            T = truncation_horizon(beta)
            mc, mw, knife, _ = marginal_sums_batch(
                p, beta, costs.linear(), np.array([x]), np.array([s]), T
            )
            if knife[0]:
                continue
            q = IndexQuery(p, costs.linear(), beta, x)
            assert mc[0] == pytest.approx(marginal_cost(q, s), rel=1e-12, abs=1e-12)
            assert mw[0] == pytest.approx(marginal_work(q, s), rel=1e-12, abs=1e-12)


def stepped_sums(p, cost, beta, x, s, first, T):
    """Reference orbit sums: every state stepped to T, terms added by fsum.

    Returns (cost sum, work sum, sum of |terms|, knife-edge flag); actions
    follow plain >= comparisons, ties included, as in the kernels.
    """
    v = float(x)
    knife = False
    states, acts = [], []
    for t in range(T + 1):
        if t == 0:
            act = first
        else:
            knife = knife or is_knife_edge(v, s)
            act = int(v >= s)
        states.append(v)
        acts.append(act)
        v = phi(p, act, v)
    disc = [beta**t for t in range(T + 1)]
    cterms = [d * c for d, c in zip(disc, cost.eval(np.array(states)))]
    wterms = [d * p.work_cost(a) for d, a in zip(disc, acts)]
    scale = math.fsum(abs(term) for term in cterms + wterms)
    return math.fsum(cterms), math.fsum(wterms), scale, knife


def first_repeat(p, x, s, first, limit=20_000):
    """Step t at which the orbit first revisits a state of steps 1..t-1."""
    v = phi(p, first, float(x))
    seen = set()
    for t in range(1, limit):
        if v in seen:
            return t
        seen.add(v)
        v = phi(p, int(v >= s), v)
    return None


def periodic_sums(p, cost, beta, x, s, first, limit):
    """Infinite-horizon reference sums of an orbit that repeats by step ``limit``.

    Actions follow plain >= comparisons.  The states are stepped by
    ``phi`` up to the first repeat, at step mu + n, of the state of step
    mu >= 1, then extended periodically to a horizon H with beta^H below
    1e-20; the terms are added by fsum.  Returns (cost sum, work sum, sum
    of |terms|, mu, n), or None without a repeat by ``limit``.
    """
    states, seen = [float(x)], {}
    v = phi(p, first, float(x))
    for t in range(1, limit + 1):
        if v in seen:
            break
        seen[v] = t
        states.append(v)
        v = phi(p, int(v >= s), v)
    else:
        return None
    mu, n = seen[v], t - seen[v]
    H = max(t, math.ceil(math.log(1e-20) / math.log(beta))) if beta > 0 else t
    steps = np.arange(H + 1)
    vs = np.array(states)[np.where(steps < mu, steps, mu + (steps - mu) % n)]
    acts = vs >= s
    acts[0] = first
    disc = beta ** steps.astype(float)
    cterms = disc * cost.eval(vs)
    wterms = disc * np.where(acts, p.c1, p.c0)
    scale = float(np.sum(np.abs(cterms)) + np.sum(np.abs(wterms)))
    return math.fsum(cterms.tolist()), math.fsum(wterms.tolist()), scale, mu, n


def expected_sums(p, cost, beta, x, s, first, T, batch=False):
    """(cost sum, work sum, sum of |terms|) that a kernel returns for one orbit.

    A kernel sums an orbit to infinity once it sees a repeat within T
    steps and truncates it at T otherwise.  The scalar kernel sees the
    first repeat, at step mu + n; the batch kernel compares with anchor
    states retaken at steps 1, 2, 4, ..., so it sees the repeat at K + n,
    K the first power of two >= max(mu, n).
    """
    per = periodic_sums(p, cost, beta, x, s, first, T)
    if per is not None:
        csum, wsum, scale, mu, n = per
        if batch:
            seen_at = (1 << (max(mu, n) - 1).bit_length()) + n
        else:
            seen_at = mu + n
        if seen_at <= T:
            return csum, wsum, scale
    return stepped_sums(p, cost, beta, x, s, first, T)[:3]


def assert_kernels_match_stepped(p, cost, beta, x, s, T):
    """Scalar orbit sums and batch marginal sums against expected_sums."""
    for first in (0, 1):
        csum, wsum, scale = expected_sums(p, cost, beta, x, s, first, T)
        cterms, wterms, k, _ = orbit_terms(p, cost, beta, x, s, first, T)
        assert abs(math.fsum(cterms) - csum) <= 1e-12 * scale
        assert abs(math.fsum(wterms) - wsum) <= 1e-12 * scale
        assert k == stepped_sums(p, cost, beta, x, s, first, T)[3]
    (c0, w0, s0), (c1, w1, s1) = (
        expected_sums(p, cost, beta, x, s, first, T, batch=True) for first in (0, 1)
    )
    mc, mw, knife, _ = marginal_sums_batch(p, beta, cost, np.array([x]), np.array([s]), T)
    assert abs(mc[0] - (c0 - c1)) <= 1e-12 * (s0 + s1)
    assert abs(mw[0] - (w1 - w0)) <= 1e-12 * (s0 + s1)
    return bool(knife[0])


class TestClosedFormTails:
    """Sums finished in closed form after an exact repeat equal the orbit's
    infinite-horizon sums, and sums without a repeat by T equal the sums
    stepped to T, whatever T is relative to the transient and period."""

    BETAS = (0.0, 0.5, 0.99, 0.999)

    @given(
        r=st.floats(0.3, 1.0),
        a0=st.floats(0.0, 0.5),
        gap=st.floats(0.05, 3.0),
        x=st.floats(0.05, 8.0),
        s=st.floats(0.05, 8.0),
        beta=st.sampled_from(BETAS),
        first=st.integers(0, 1),
        offset=st.sampled_from((-1, 0, 1, None)),
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_explicit_T_around_first_repeat(self, r, a0, gap, x, s, beta, first, offset):
        p = ArmParams(r=r, a0=a0, a1=a0 + gap, c0=0.2, c1=1.0)
        t_rep = first_repeat(p, x, s, first)
        assume(t_rep is not None)
        # The scalar kernel sees the repeat at step t_rep: T one below it
        # truncates at T, T equal to it or above sums to infinity.
        T = max(1, t_rep + offset) if offset is not None else 3 * t_rep + 7
        assert_kernels_match_stepped(p, costs.entropy(), beta, x, s, T)

    @pytest.mark.parametrize("beta", BETAS)
    def test_T_sweep_covers_batch_detection(self, beta):
        # The batch kernel finds repeats later than the scalar one (anchors
        # at powers of two); sweep T through both detection steps.
        p = ArmParams(r=0.6, a0=0.1, a1=1.5, c0=0.0, c1=1.0)
        xs = np.geomspace(0.2, 3.0, 7)
        for T in range(1, 40):
            mc, mw, _, _ = marginal_sums_batch(p, beta, costs.linear(), xs, xs, T)
            for i, x in enumerate(xs):
                (c0, w0, s0), (c1, w1, s1) = (
                    expected_sums(p, costs.linear(), beta, x, x, first, T, batch=True)
                    for first in (0, 1)
                )
                assert abs(mc[i] - (c0 - c1)) <= 1e-12 * (s0 + s1)
                assert abs(mw[i] - (w1 - w0)) <= 1e-12 * (s0 + s1)

    @pytest.mark.parametrize("beta", BETAS)
    @pytest.mark.parametrize(
        "params, s",
        [
            (ArmParams(r=0.9, a0=0.05, a1=1.0), math.inf),  # always passive
            (ArmParams(r=0.9, a0=0.0, a1=math.inf), 2.0),  # noiseless active
            (ArmParams(r=1.0, a0=0.0, a1=1.0), math.inf),  # never repeats
        ],
    )
    def test_special_orbits(self, params, s, beta):
        # The never-repeating orbit is stepped to T in both kernels; the full
        # beta = 0.999 horizon (27,618 steps) would only make that slower.
        T = truncation_horizon(beta) if beta < 0.999 else 3000
        assert not assert_kernels_match_stepped(params, costs.linear(), beta, 1.3, s, T)

    def test_sub_batch_gives_the_batch_columns(self):
        # A point's sums do not depend on the rest of its batch: a sub-batch
        # gives the columns of the whole batch, bit for bit.
        rng = np.random.default_rng(41)
        knife_arm = ArmParams(r=0.8, a0=0.1, a1=1.0)
        never = ArmParams(r=1.0, a0=0.0, a1=1.0)  # never repeats at s = inf
        arms = [(random_params(rng), 0.9), (ArmParams(r=0.7, a0=0.2, a1=math.inf), 0.5),
                (never, 0.99), (knife_arm, 0.0)]
        cost, T, n = costs.power(2.0), 3000, 60
        for p, beta in arms:
            x = rng.uniform(0.05, 8.0, n)
            s = rng.uniform(0.05, 8.0, n)
            s[::11] = math.inf
            x[4] = s[4] = y1(knife_arm)  # on knife_arm, ties the threshold at every step
            whole = marginal_sums_batch(p, beta, cost, x, s, T)
            if p is knife_arm:
                assert whole.knife[4]
            cols = np.sort(rng.permutation(n)[:n // 3])
            part = marginal_sums_batch(p, beta, cost, x[cols], s[cols], T)
            for got, want in zip(part, whole):
                assert got.tobytes() == want[cols].tobytes()

    def test_knife_edge_start_flagged_and_repeats(self):
        # At the active fixed point every iterate ties the threshold: both
        # kernels flag the tie, follow the >= rule through it and sum the
        # orbit to infinity from its repeat, long before T.
        p = ArmParams(r=0.8, a0=0.1, a1=1.0)
        x = y1(p)
        for beta in (0.5, 0.99):
            assert assert_kernels_match_stepped(p, costs.linear(), beta, x, x, 500)
            for first in (0, 1):
                cterms, _, knife, _ = orbit_terms(p, costs.linear(), beta, x, x, first, 500)
                assert knife and len(cterms) < 50

    def test_capped_orbits_have_period_0(self):
        # With r = 1 and a0 = 0 an orbit that never acts grows by 1 a step.
        p = ArmParams(r=1.0, a0=0.0, a1=1.0)
        xs = np.array([0.5, 1.5, 2.5])
        got = marginal_sums_batch(p, 0.9, costs.linear(), xs, np.full(3, math.inf), 300)
        assert got.period.tolist() == [[0, 0]] * 3
        assert orbit_terms(p, costs.linear(), 0.9, 1.0, math.inf, 0, 300)[3] == 0
        assert orbit_terms(p, costs.linear(), 0.9, 1.0, 2.5, 0, 300)[3] > 0


def reference_threshold_sums_batch(p, beta, cost, x, s, first, T):
    """The batch kernel before its per-step trims, as the bitwise reference.

    Returns each orbit's cost and work sums, knife flag and period (0 for
    an orbit with no repeat by T).  One arm p and one beta for all orbits.
    Every step goes through the checked ``cost.eval``, every map step
    applies the a1 = inf mask, and the knife test and work summand are
    computed out of place.
    """
    a1_inf = math.isinf(p.a1)
    a1 = 1.0 if a1_inf else p.a1

    def step(act, v):
        den = np.where(act, a1 * p.r2, p.a0 * p.r2) * v
        den += np.where(act, a1, p.a0)
        den += 1.0
        out = p.r2 * v
        out += 1.0
        out /= den
        return np.where(act & a1_inf, 0.0, out)

    beta = np.array([beta])
    tol = np.where(np.isinf(s), -1.0, KNIFE_EDGE_TOL * np.maximum(1.0, np.abs(s)))
    knife = np.zeros(x.size, dtype=bool)
    period = np.zeros(x.size, dtype=np.int64)
    sums = np.empty((2, x.size))
    head = np.stack([cost.eval(x), np.where(first, p.c1, p.c0)])
    cyc = np.zeros_like(head)
    v = step(first, x)
    anchor, k = v, 1
    live, lknife = np.arange(x.size), knife.copy()
    for t in range(1, T + 1):
        if t > k:
            hit = v == anchor
            if hit.any():
                ids = live[hit]
                geo = index_mod._cycle_factor(beta, t - k)
                sums[:, ids] = head[:, hit] + geo * cyc[:, hit]
                period[ids] = t - k
                knife[ids] = lknife[hit]
                keep = ~hit
                live, v, anchor, lknife = live[keep], v[keep], anchor[keep], lknife[keep]
                head, cyc = head[:, keep], cyc[:, keep]
                if not live.size:
                    break
            if t == 2 * k:
                head += cyc
                cyc = np.zeros_like(head)
                anchor, k = v, t
        lknife |= np.abs(v - s[live]) <= tol[live]
        act = v >= s[live]
        disc = beta**t
        cyc[0] += disc * cost.eval(v)
        cyc[1] += disc * np.where(act, p.c1, p.c0)
        v = step(act, v)
    knife[live] = lknife
    sums[:, live] = head + cyc
    return sums[0], sums[1], knife, period


class TestBatchKernelMatchesReference:
    """The batch kernel gives the marginal sums, knife flags and orbit
    periods of the reference kernel's two halves bit for bit, and the same
    domain errors."""

    ADMISSIBLE = (
        costs.linear(), costs.entropy(), costs.neg_precision(), costs.power(0.5),
        costs.power(2.0), costs.ratio_demo(), costs.bounded_demo(),
    )

    @staticmethod
    def batch(rng, cost, seed):
        """A random batch of one arm and one beta, by seed.

        0: a random arm; 1: a1 = inf where the cost is defined at 0 (else
        a0 = 0); 2: an arm whose active fixed point y1 is the start and
        threshold of four orbits, which tie it at every step; 3: r = 1 and
        a0 = 0, whose orbits at an infinite threshold never repeat.  Every
        batch has some infinite thresholds.
        """
        n = 48
        p = random_params(rng)
        if seed == 1:
            a1 = p.a1 if cost.positive_only else math.inf
            p = ArmParams(r=p.r, a0=0.0 if cost.positive_only else p.a0, a1=a1)
        elif seed == 2:
            p = ArmParams(r=0.8, a0=0.1, a1=1.0)
        elif seed == 3:
            p = ArmParams(r=1.0, a0=0.0, a1=p.a1)
        beta = float(rng.choice([0.0, 0.5, 0.9, 0.99]))
        x = rng.uniform(0.05, 8.0, n)
        s = rng.uniform(0.05, 8.0, n)
        s[::11] = math.inf
        if seed == 2:
            x[:4] = s[:4] = y1(p)
        return p, beta, x, s

    @pytest.mark.parametrize("cost", ADMISSIBLE, ids=lambda c: c.kind)
    @pytest.mark.parametrize("seed", range(4))
    def test_bitwise_equal(self, cost, seed):
        rng = np.random.default_rng([71, seed])
        p, beta, x, s = self.batch(rng, cost, seed)
        got, capped = self.assert_matches_reference(p, beta, cost, x, s, 3000)
        if seed == 2:
            assert got.knife[:4].all()
        if seed == 3:
            assert capped >= 1

    @staticmethod
    def assert_matches_reference(p, beta, cost, x, s, T):
        """Compare with the reference run on both first actions, passive
        then active; returns the kernel's result and its capped count."""
        got = marginal_sums_batch(p, beta, cost, x, s, T)
        n = x.size
        first = np.arange(2 * n) >= n
        c, w, knife, period = reference_threshold_sums_batch(
            p, beta, cost, np.tile(x, 2), np.tile(s, 2), first, T
        )
        want = (c[:n] - c[n:], w[n:] - w[:n], knife[:n] | knife[n:],
                np.stack([period[:n], period[n:]], axis=-1))
        for g, v in zip(got, want, strict=True):
            assert g.shape == v.shape and g.dtype == v.dtype
            assert g.tobytes() == v.tobytes()
        return got, int((got.period == 0).sum())

    @staticmethod
    def sweeps(rng, starts, thresholds, singles=()):
        """Every start with every threshold, plus points with x = s, in a
        shuffled order."""
        x = np.concatenate([np.repeat(starts, len(thresholds)), singles])
        s = np.concatenate([np.tile(thresholds, len(starts)), singles])
        perm = rng.permutation(len(x))
        return x[perm], s[perm]

    @staticmethod
    def largest_class(x):
        """The most points that share one start, bit for bit."""
        return int(np.unique(x.view(np.int64), return_counts=True)[1].max())

    @pytest.mark.parametrize("cost", ADMISSIBLE, ids=lambda c: c.kind)
    @pytest.mark.parametrize("seed", range(3))
    def test_fixed_x_sweeps_bitwise_equal(self, cost, seed):
        # Unsorted thresholds with duplicates, both infinities and a NaN
        # (which never acts), repeated starts, and singleton orbits x = s
        # in the same batch.
        rng = np.random.default_rng([72, seed])
        p = random_params(rng)
        if seed == 1 and not cost.positive_only:
            p = ArmParams(r=p.r, a0=p.a0, a1=math.inf)
        beta = float(rng.choice([0.0, 0.5, 0.9, 0.99]))
        thresholds = rng.uniform(0.05, 8.0, 150)
        thresholds[::10] = thresholds[1::10]
        thresholds = np.concatenate([thresholds, [math.inf, -math.inf, math.inf, math.nan]])
        starts = np.append(rng.uniform(0.05, 8.0, 3), 1.0)
        starts[1] = starts[0]
        x, s = self.sweeps(rng, starts, thresholds, rng.uniform(0.05, 8.0, 40))
        assert self.largest_class(x) == 2 * len(thresholds)
        self.assert_matches_reference(p, beta, cost, x, s, 3000)

    @pytest.mark.parametrize("first_action", [0, 1])
    def test_knife_ties_inside_classes(self, first_action):
        # Thresholds tie the state v1 = phi(x) of step 1 after first_action:
        # one equals it, so the class splits exactly at the tie, and others
        # lie within the tolerance on both sides, inside the halves; some
        # lie just beyond.
        p = ArmParams(r=0.9, a0=0.1, a1=1.0)
        x = 2.0
        v1 = scalar_map(p)(first_action, x)
        tol = KNIFE_EDGE_TOL * max(1.0, v1)
        near = v1 + tol * np.array([0.0, 0.0, -0.2, -0.7, 0.3, 0.8, -5.0, 4.0, -1.0, 1.0])
        ties = np.abs(v1 - near) <= KNIFE_EDGE_TOL * np.maximum(1.0, np.abs(near))
        assert ties[:6].all() and not ties[6:8].any()
        thresholds = np.concatenate([near, np.linspace(0.1, 6.0, 60)])
        rng = np.random.default_rng(5)
        x_arr, s = self.sweeps(rng, [x], thresholds)
        got, _ = self.assert_matches_reference(p, 0.9, costs.linear(), x_arr, s, 2000)
        assert got.knife[np.isin(s, near[ties])].all()

    def test_noiseless_sweeps(self):
        # a1 = inf takes active orbits to 0, which ties the threshold 0.
        p = ArmParams(r=0.8, a0=0.0, a1=math.inf)
        rng = np.random.default_rng(6)
        thresholds = np.concatenate([[0.0, -math.inf, 0.0], rng.uniform(0.05, 4.0, 80)])
        x, s = self.sweeps(rng, [0.5, 3.0], thresholds, [0.7, 2.0])
        got, _ = self.assert_matches_reference(p, 0.9, costs.linear(), x, s, 2000)
        assert got.knife[s == 0.0].all()

    def test_class_without_repeat_counts_its_members(self):
        # With r = 1 and a0 = 0 an orbit that never acts grows by 1 a step
        # and never repeats: thresholds beyond reach leave whole classes at
        # the step cap, and the capped count counts their members.
        p = ArmParams(r=1.0, a0=0.0, a1=1.0)
        rng = np.random.default_rng(7)
        far = [math.inf, 1e9, math.inf, 2e9, math.inf]
        thresholds = np.concatenate([far, rng.uniform(0.5, 6.0, 50)])
        starts = [1.5, 4.0, 4.0]
        x, s = self.sweeps(rng, starts, thresholds, [2.5, 3.5])
        _, capped = self.assert_matches_reference(p, 0.99, costs.linear(), x, s, 500)
        assert capped == 2 * len(starts) * len(far)

    @given(
        r=st.floats(0.3, 1.0),
        a0=st.sampled_from((0.0, 0.2)),
        a1=st.sampled_from((1.0, 2.5, math.inf)),
        beta=st.sampled_from((0.0, 0.5, 0.9, 0.99)),
        starts=st.lists(
            st.one_of(st.sampled_from((0.0, -0.0, 1.0)), st.floats(0.0, 8.0)),
            min_size=1, max_size=4,
        ),
        points=st.lists(
            st.tuples(
                st.integers(0, 3),
                st.one_of(
                    st.sampled_from((math.inf, -math.inf, math.nan, 0.0, 1.0)),
                    st.floats(0.0, 8.0),
                ),
            ),
            min_size=1, max_size=40,
        ),
        seed=st.integers(0, 2**16),
        subset=st.booleans(),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_permuted_or_sub_batch_gives_the_batch_columns(
        self, r, a0, a1, beta, starts, points, seed, subset
    ):
        # Repeated starts share classes, +0.0 and -0.0 starts do not, and
        # infinite and NaN thresholds sort to the ends of their classes: in
        # any order and any part of the batch, a point's sums, flag and
        # periods are those of the whole batch, bit for bit.
        p = ArmParams(r=r, a0=a0, a1=a1)
        x = np.array([starts[i % len(starts)] for i, _ in points])
        s = np.array([thr for _, thr in points])
        whole = marginal_sums_batch(p, beta, costs.linear(), x, s, 300)
        cols = np.random.default_rng(seed).permutation(x.size)
        if subset:
            cols = cols[:max(1, x.size // 2)]
        part = marginal_sums_batch(p, beta, costs.linear(), x[cols], s[cols], 300)
        assert part.period.shape == (cols.size, 2)
        for name in OrbitSums._fields:
            assert getattr(part, name).tobytes() == getattr(whole, name)[cols].tobytes()

    @given(
        r=st.floats(0.3, 1.0),
        a0=st.sampled_from((0.0, 0.2)),
        a1=st.sampled_from((1.0, 2.5, math.inf)),
        beta=st.sampled_from((0.0, 0.9, 0.99)),
        T=st.sampled_from((1, 2, 5, 40, 300)),
        points=st.lists(
            st.tuples(
                st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 8.0)),
                st.one_of(st.sampled_from((math.inf, 1.0)), st.floats(0.0, 8.0)),
            ),
            max_size=12,
        ),
        rows=st.sampled_from((1, 2)),
    )
    @example(r=0.8, a0=0.2, a1=1.0, beta=0.9, T=300, points=[], rows=1)
    @example(r=0.8, a0=0.2, a1=1.0, beta=0.9, T=300, points=[(2.0, 2.0)], rows=1)
    @example(r=1.0, a0=0.0, a1=1.0, beta=0.9, T=300, points=[(2.0, math.inf)], rows=1)
    @example(r=0.8, a0=0.2, a1=2.5, beta=0.5, T=300,
             points=[(0.5, 0.5), (1.0, math.inf), (2.0, 1.0), (2.0, 3.0)], rows=2)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_period_is_the_walks_period(self, r, a0, a1, beta, T, points, rows):
        # Brent's test sees a repeat no earlier than the first-repeat walk
        # of the scalar probe: a period the kernel finds is the walk's, and an
        # orbit the walk caps at T has period 0.  Batches of any shape.
        p = ArmParams(r=r, a0=a0, a1=a1)
        shape = (2, len(points) // 2) if rows == 2 else (len(points),)
        points = points[:math.prod(shape)]
        x = np.array([x0 for x0, _ in points], dtype=float).reshape(shape)
        s = np.array([thr for _, thr in points], dtype=float).reshape(shape)
        got = marginal_sums_batch(p, beta, costs.linear(), x, s, T)
        assert got.period.shape == shape + (2,)
        for i in np.ndindex(shape):
            for first in (0, 1):
                n = orbit_terms(p, costs.linear(), beta, x[i], s[i], first, T)[3]
                period = got.period[i + (first,)]
                if period:
                    assert period == n
                if not n:
                    assert period == 0

    def test_empty_batch(self):
        p = ArmParams(r=0.9, a0=0.0, a1=1.0)
        got = marginal_sums_batch(p, 0.9, costs.linear(), np.array([]), np.array([]), 50)
        assert [a.shape for a in got] == [(0,), (0,), (0,), (0, 2)]

    def test_noiseless_entropy_raises_the_domain_error(self):
        # With a1 = inf an active step reaches variance 0, where entropy is
        # undefined: every step stays checked, with the same message.
        p = ArmParams(r=0.9, a0=0.0, a1=math.inf)
        xs = np.geomspace(0.5, 5.0, 6)
        with pytest.raises(costs.CostDomainError) as info:
            marginal_sums_batch(p, 0.9, costs.entropy(), xs, xs, 100)
        assert str(info.value) == (
            "cost 'entropy' undefined at v = 0.0 (domain is (0, inf))"
        )

    def test_overflowing_denominator_stays_checked(self):
        # a1 r^2 v overflows, so the active image is 0 although a1 is finite.
        p = ArmParams(r=1.0, a0=0.0, a1=1e308)
        xs = np.array([1.0, 2.0])
        with np.errstate(over="ignore"), pytest.raises(costs.CostDomainError):
            marginal_sums_batch(p, 0.9, costs.power(0.5), xs, xs, 100)


def brent_repeat_step(p, x, s, first, T):
    """The step at which the batch kernel's repeat test stops the orbit, or 0.

    The orbit's first-repeat walk gives its head and period n; anchors are
    retaken at steps 1, 2, 4, ..., and the first anchor a in the cycle with
    n <= a sees the repeat at step a + n.  0 when that is beyond T.
    """
    walk, k = threshold_walk(p, scalar_map(p)(first, x), s, T + 1)
    if k == len(walk):
        return 0
    a, n = 1, len(walk) - k
    while a <= k or a < n:
        a *= 2
    return a + n if a + n <= T else 0


@pytest.fixture
def kernel_blocks(monkeypatch):
    """The kernel's blocks as (first step, steps, rows), read off its cost calls."""
    shapes = []
    cost = index_mod._cost

    def recording(segs, v):
        if v.ndim == 2:
            shapes.append(v.shape)
        return cost(segs, v)

    monkeypatch.setattr(index_mod, "_cost", recording)

    def blocks():
        starts = np.cumsum([1] + [m for m, _ in shapes])
        return [(int(t), m, rows) for t, (m, rows) in zip(starts, shapes)]

    return blocks


def block_cut(t, m, rows, T):
    """Whether the block of m steps from t, over rows, ended before the
    next anchor reset, T and the state buffer, that is at a split."""
    k = 1 << (t.bit_length() - 1)
    return m < min(2 * k - t, T + 1 - t, max(1, index_mod._BLOCK_STATES // rows))


class TestBlockEdges:
    """The kernel steps in blocks and tests repeats, ties and sums per
    block: at each kind of block edge its results stay bitwise those of the
    per-step reference, errors included."""

    match = staticmethod(TestBatchKernelMatchesReference.assert_matches_reference)

    def test_discount_keeps_numpys_square_at_t_2(self):
        # beta^2 of a 1-element array is numpy's square, which for
        # beta = 0.8 differs in the last bit from its power at 2.0.
        beta = np.array([0.8])
        assert (beta ** np.arange(3.0))[2] != (beta**2)[0]
        rng = np.random.default_rng(81)
        for cost in (costs.linear(), costs.entropy(), costs.power(0.5)):
            p = random_params(rng)
            x, s = rng.uniform(0.05, 8.0, (2, 40))
            self.match(p, 0.8, cost, x, s, 500)

    def test_buffer_cuts_blocks_of_many_orbits(self, kernel_blocks):
        # 2,200 orbits: the 8,192-state buffer holds 3 steps of them, and
        # the passive orbits of infinite thresholds stay to the cap.
        rng = np.random.default_rng(82)
        p = ArmParams(r=1.0, a0=0.0, a1=0.7)
        x, s = rng.uniform(0.05, 20.0, (2, 1100))
        s[::25] = math.inf
        self.match(p, 0.99, costs.entropy(), x, s, 600)
        blocks = kernel_blocks()
        assert blocks[0][2] == 2200
        assert any(m == index_mod._BLOCK_STATES // rows for _, m, rows in blocks[:-1])

    @pytest.mark.parametrize("T", [2**j + d for j in (4, 5, 6, 7) for d in (-1, 0, 1)])
    def test_T_ends_a_block(self, T):
        # Some orbits are seen at step T + 1, the state after the last
        # block, where they stay capped: at T = 2^j those of period 1 (seen
        # one step after the anchor 2^j), and at T = 33 some of period 2.
        rng = np.random.default_rng(83)
        edge = False
        for p in (ArmParams(r=0.9, a0=0.1, a1=1.0), ArmParams(r=0.8, a0=0.0, a1=2.0)):
            x = rng.uniform(0.05, 40.0, 100)
            s = np.where(rng.random(100) < 0.5, x, rng.uniform(0.0, 40.0, 100))
            got, _ = self.match(p, 0.9, costs.linear(), x, s, T)
            longer = marginal_sums_batch(p, 0.9, costs.linear(), x, s, T + 1)
            edge |= bool(((got.period == 0) & (longer.period > 0)).any())
        assert edge == (T in (16, 33, 64, 128))

    def test_one_row_sums_in_order(self, kernel_blocks):
        # At 2^53 a passive step adds nothing, so the passive-first orbit
        # repeats at once; the active-first one climbs alone to the cap, in
        # blocks of one row, where numpy would sum an axis pairwise.
        p = ArmParams(r=1.0, a0=0.0, a1=0.5, c0=0.3, c1=1.1)
        x = np.array([2.0**53])
        got, capped = self.match(p, 0.99, costs.bounded_demo(), x, math.inf, 1000)
        assert got.period.tolist() == [[1, 0]] and capped == 1
        assert max(m for _, m, rows in kernel_blocks() if rows == 1) >= 256

    def test_repeats_at_every_offset_of_a_block(self, kernel_blocks):
        # Long heads and distinct starts: some block sees a repeat at each
        # of its steps after the first and at the state after it.
        rng = np.random.default_rng(3)
        p = ArmParams(r=1.0, a0=0.0, a1=0.3)
        x = rng.uniform(0.05, 40.0, 600)
        T = 2000
        self.match(p, 0.99, costs.linear(), x, x, T)
        found = {}
        for first in (0, 1):
            for x0 in x:
                at = brent_repeat_step(p, x0, x0, first, T)
                for t, m, _ in kernel_blocks():
                    if t < at <= t + m:
                        found.setdefault((t, m), set()).add(at - t)
        assert any(m >= 8 and hits == set(range(1, m + 1)) for (_, m), hits in found.items())

    def test_arm_finishing_inside_a_block(self, kernel_blocks):
        # The quick arm's last orbit repeats inside a block of the slow
        # arm's capped orbits; both get their own call's sums.
        rng = np.random.default_rng(85)
        quick = ArmParams(r=0.5, a0=0.2, a1=2.0, c0=0.1, c1=0.9)
        slow = ArmParams(r=1.0, a0=0.0, a1=1.5)
        xq, sq = rng.uniform(0.05, 4.0, (2, 30))
        xs = rng.uniform(0.05, 8.0, 20)
        ss = np.where(np.arange(20) % 2, math.inf, rng.uniform(0.05, 8.0, 20))
        T = 400
        got = marginal_sums_batch(
            [quick, slow], 0.9, [costs.power(0.5), costs.linear()], [xq, xs], [sq, ss], T
        )
        last = max(brent_repeat_step(quick, x, s, f, T) for f in (0, 1) for x, s in zip(xq, sq))
        t, m, _ = next(b for b in kernel_blocks() if b[0] < last <= b[0] + b[1])
        assert last < t + m and kernel_blocks()[-1][0] + kernel_blocks()[-1][1] == T + 1
        for mine, (p, cost, x, s) in zip(
            got, [(quick, costs.power(0.5), xq, sq), (slow, costs.linear(), xs, ss)]
        ):
            alone, _ = self.match(p, 0.9, cost, x, s, T)
            for name in OrbitSums._fields:
                assert getattr(mine, name).tobytes() == getattr(alone, name).tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_blocks_end_at_splits(self, kernel_blocks, seed):
        # A fixed start with thresholds that split its classes at many
        # steps: blocks end where a state falls inside a class's range, and
        # the next block splits it.  With no +inf threshold, the NaN one
        # ends the class of the largest finite thresholds.
        rng = np.random.default_rng([86, seed])
        p = random_params(rng, r_hi=0.99)
        # The orbits settle between the pure maps' fixed points.
        lo, hi = y1(p), y0(p)
        thresholds = np.concatenate([rng.uniform(lo, hi, 40), [math.nan, -math.inf]])
        start = [float(rng.uniform(lo, hi))]
        x, s = TestBatchKernelMatchesReference.sweeps(rng, start, thresholds)
        T = 300
        self.match(p, 0.99, costs.bounded_demo(), x, s, T)
        assert any(block_cut(t, m, rows, T) for t, m, rows in kernel_blocks()[:-1])

    def test_checked_costs_raise_as_the_reference_without_warnings(self):
        # a1 = inf takes active orbits to 0, where entropy is undefined.
        p = ArmParams(r=0.9, a0=0.1, a1=math.inf)
        x = np.geomspace(0.5, 5.0, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(costs.CostDomainError) as want:
                reference_threshold_sums_batch(
                    p, 0.9, costs.entropy(), np.tile(x, 2), np.tile(x, 2),
                    np.arange(12) >= 6, 100,
                )
            with pytest.raises(costs.CostDomainError) as got:
                marginal_sums_batch(p, 0.9, costs.entropy(), x, x, 100)
        assert str(got.value) == str(want.value)

    def test_first_domain_error_in_step_order(self):
        # a1 r^2 v + a1 overflows beyond v = 0.8: an active step there gives 0.
        # The first arm's orbits, NaN ones among them, reach 0 at step 6,
        # the second arm's at step 5, in the block of steps 4-7: the error
        # is the second arm's, as when the steps are evaluated one by one.
        p = ArmParams(r=1.0, a0=0.0, a1=1e308)
        cost = costs.power(0.5)
        first = (p, cost, np.array([0.1, math.nan]), np.array([5.0, 5.0]))
        second = (p, cost, np.array([0.1]), np.array([4.0]))
        with np.errstate(over="ignore"):
            with pytest.raises(costs.CostDomainError, match=r"at v = nan "):
                marginal_sums_batch(p, 0.9, cost, *first[2:], 100)
            with pytest.raises(costs.CostDomainError) as info:
                ps, cs, xs, ss = zip(first, second)
                marginal_sums_batch(ps, 0.9, cs, xs, ss, 100)
        assert str(info.value) == "cost 'power(0.5)' undefined at v = 0.0 (domain is (0, inf))"


# Costs defined at 0, for noiseless arms and zero starts, and costs that are not.
COSTS_AT_ZERO = (costs.linear(), costs.power(2.0), costs.bounded_demo())
COSTS_ABOVE_ZERO = (costs.entropy(), costs.power(-0.5), costs.neg_precision())


@st.composite
def arm_batches(draw):
    """One arm's (params, cost, x, s) for a call of several arms.

    a1 = inf and a1 = 1e300 (whose denominators overflow, so its states
    stay checked) take costs defined at 0.  c0 = c1 arms come as drawn or
    as build_index_tables passes them, through ``with_costs(0, 1)``.
    Repeated starts with varied thresholds make classes that split; the
    thresholds include both infinities, NaN and the knife point y1.
    """
    a1 = draw(st.sampled_from((1.0, 2.5, 1e300, math.inf)))
    c0, c1 = draw(st.sampled_from(((0.0, 1.0), (0.4, 0.4), (0.2, 1.5))))
    p = ArmParams(r=draw(st.floats(0.3, 1.0)), a0=draw(st.sampled_from((0.0, 0.2))),
                  a1=a1, c0=c0, c1=c1)
    if c0 == c1 and draw(st.booleans()):
        p = p.with_costs(0.0, 1.0)
    above_zero = a1 < 1e300 and draw(st.booleans())
    cost = draw(st.sampled_from(COSTS_ABOVE_ZERO if above_zero else COSTS_AT_ZERO))
    knife = y1(p)
    starts = draw(st.lists(
        st.one_of(st.sampled_from((1.0, knife) if above_zero else (0.0, 1.0, knife)),
                  st.floats(0.05, 8.0)),
        min_size=1, max_size=3,
    ))
    points = draw(st.lists(
        st.tuples(
            st.integers(0, 2),
            st.one_of(st.sampled_from((math.inf, -math.inf, math.nan, knife)),
                      st.floats(0.0, 8.0)),
        ),
        max_size=30,
    ))
    x = np.array([starts[i % len(starts)] for i, _ in points], dtype=float)
    s = np.array([thr for _, thr in points], dtype=float)
    return p, cost, x, s


class TestSeveralArms:
    """A call for several arms gives each arm its own call's OrbitSums, bit
    for bit."""

    @given(
        batches=st.lists(arm_batches(), min_size=1, max_size=4),
        empty_at=st.integers(0, 4),
        beta=st.sampled_from((0.0, 0.5, 0.9, 0.99)),
        T=st.sampled_from((1, 5, 40, 300)),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_each_arm_gets_its_own_calls_sums(self, batches, empty_at, beta, T):
        # One arm of every call has no points.
        p, cost, _, _ = batches[empty_at % len(batches)]
        batches.insert(empty_at % (len(batches) + 1), (p, cost, np.empty(0), np.empty(0)))
        ps, cs, xs, ss = zip(*batches)
        with np.errstate(over="ignore", invalid="ignore"):
            got = marginal_sums_batch(ps, beta, cs, xs, ss, T)
            assert isinstance(got, list) and len(got) == len(batches)
            for mine, (p, cost, x, s) in zip(got, batches):
                alone = marginal_sums_batch(p, beta, cost, x, s, T)
                for name in OrbitSums._fields:
                    a, b = getattr(mine, name), getattr(alone, name)
                    assert a.shape == b.shape and a.dtype == b.dtype
                    assert a.tobytes() == b.tobytes()

    def test_shapes_broadcast_per_arm(self):
        # Each arm's x and s broadcast on their own; a 2-D arm keeps its shape.
        ps = [ArmParams(r=0.9, a0=0.0, a1=1.0), ArmParams(r=0.8, a0=0.1, a1=math.inf)]
        xs = [np.linspace(0.5, 3.0, 6).reshape(2, 3), 2.0]
        ss = [1.5, np.array([0.5, 2.0, math.inf])]
        got = marginal_sums_batch(ps, 0.9, [costs.linear()] * 2, xs, ss, 200)
        assert [g.period.shape for g in got] == [(2, 3, 2), (3, 2)]
        for mine, p, x, s in zip(got, ps, xs, ss):
            alone = marginal_sums_batch(p, 0.9, costs.linear(), x, s, 200)
            for name in OrbitSums._fields:
                assert getattr(mine, name).tobytes() == getattr(alone, name).tobytes()

    def test_domain_error_names_the_arms_state(self):
        # Each arm's states stay checked or unchecked by its own rule: the
        # noiseless entropy arm raises at 0, as its own call does.
        ps = [ArmParams(r=0.9, a0=0.0, a1=1.0), ArmParams(r=0.9, a0=0.0, a1=math.inf)]
        xs = [np.geomspace(0.5, 5.0, 6)] * 2
        with pytest.raises(costs.CostDomainError) as info:
            marginal_sums_batch(ps, 0.9, [costs.entropy()] * 2, xs, xs, 100)
        assert str(info.value) == "cost 'entropy' undefined at v = 0.0 (domain is (0, inf))"


def word_pinned_sums(params, cost, beta, x, word, T):
    """(numerator, denominator) to T with the actions pinned to a Christoffel word.

    For x inside the fixed-point interval of word = 0p1, the passive-start
    orbit follows (01p)-cycles and the active-start orbit (10p)-cycles;
    pinned actions make no threshold comparisons.
    """
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


class TestWhittleIndex:
    def test_constant_cost_zero(self):
        p = ArmParams(r=0.9, a0=0.0, a1=1.0)
        rec = whittle_index(IndexQuery(p, costs.constant(3.0), 0.9, 2.0))
        assert rec.lam == pytest.approx(0.0, abs=1e-12)

    def test_x_zero_noiseless_equals_beta(self):
        # Direct evaluation of the marginal ratio at x = 0: the passive
        # start pays one unit of variance one step later, so the index is
        # exactly beta (see the ledger on the closed form's beta factor).
        for beta in (0.3, 0.9, 0.99):
            p = ArmParams(r=0.9, a0=0.0, a1=math.inf)
            rec = whittle_index(IndexQuery(p, costs.linear(), beta, 0.0))
            assert rec.lam == pytest.approx(beta, rel=1e-9)

    def test_matches_closed_form(self):
        arm = ArmParams.from_var_decay(0.9, 0.0, 1e8)
        for x in (0.5, 2.1, 6.3, 9.2):
            rec = whittle_index(IndexQuery(arm, costs.linear(), 0.9, x))
            assert rec.lam == pytest.approx(
                closed_form_noiseless(0.9, 0.9, x), rel=1e-3
            )

    def test_scale_covariance(self):
        rng = np.random.default_rng(25)
        p = random_params(rng)
        beta = 0.9
        base = whittle_index(IndexQuery(p, costs.linear(), beta, 2.0)).lam
        scaled = whittle_index(
            IndexQuery(p, costs.linear().scale(7.0), beta, 2.0)
        ).lam
        shifted = whittle_index(
            IndexQuery(p, costs.linear().shift(11.0), beta, 2.0)
        ).lam
        assert scaled == pytest.approx(7.0 * base, rel=1e-12)
        assert shifted == pytest.approx(base, rel=1e-9, abs=1e-9)

    def test_truncation_consistency(self):
        # |lambda_T - lambda_2T| <= K beta^T with K taken from run quantities
        # (equal when both orbits repeat within the step cap T).
        rng = np.random.default_rng(26)
        for _ in range(20):
            p = random_params(rng)
            beta = float(rng.uniform(0.8, 0.99))
            x = float(rng.uniform(0.2, 8.0))
            T = max(200, math.ceil(math.log(1e-10) / math.log(beta)))
            (num1, den1, _, _), (num2, den2, _, _) = (
                marginal_sums_batch(p, beta, costs.linear(), x, x, t)
                for t in (T, 2 * T)
            )
            lam1, lam2 = num1 / den1, num2 / den2
            K = (max(abs(num1), 1.0) / (1.0 - beta) + abs(lam1)) / den2
            assert abs(lam1 - lam2) <= K * beta**T + 1e-12

    def test_word_constrained_agreement(self):
        rng = np.random.default_rng(27)
        fracs = [f for f in farey(8) if f.denominator >= 2]
        done = 0
        while done < 25:
            f = fracs[rng.integers(len(fracs))]
            w = christoffel(f.numerator, f.denominator)
            pal = central_palindrome(w)
            p = random_params(rng, r_lo=0.6)
            y01p = fixed_point(p, Word("01") + pal)
            y10p = fixed_point(p, Word("10") + pal)
            if not y10p - y01p > 1e-8 * (1.0 + y10p):
                continue
            x = y01p + float(rng.uniform(0.3, 0.7)) * (y10p - y01p)
            beta = float(rng.uniform(0.5, 0.95))
            rec = whittle_index(IndexQuery(p, costs.linear(), beta, x))
            T = truncation_horizon(beta)
            num, den = word_pinned_sums(p, costs.linear(), beta, x, w, T)
            assert rec.lam == pytest.approx(num / den, rel=1e-8)
            done += 1

    def test_knife_edge_flagged_and_resolved(self):
        # Exactly at the active fixed point every iterate ties the threshold;
        # the >= rule must reproduce the all-active word.
        p = ArmParams(r=0.8, a0=0.1, a1=1.0)
        x = y1(p)
        rec = whittle_index(IndexQuery(p, costs.linear(), 0.9, x))
        assert rec.knife_edge
        num, den = word_pinned_sums(p, costs.linear(), 0.9, x, Word("1"), 2000)
        assert rec.lam == pytest.approx(num / den, rel=1e-9)

    def test_boundary_words_used_at_y1_y0(self):
        p = ArmParams(r=0.8, a0=0.1, a1=1.0)
        assert threshold_word(p, y1(p), 64) == ThresholdWord(Word("1"), True, True)
        assert threshold_word(p, y0(p), 64) == ThresholdWord(Word("0"), True, True)

    def test_zero_denominator_raises(self):
        p = ArmParams(r=0.9, a0=0.0, a1=1.0, c0=1.0, c1=1.0)
        with pytest.raises(ArithmeticError):
            whittle_index(IndexQuery(p, costs.linear(), 0.9, 2.0))

    def test_marginal_work_below_bound_is_an_inconsistency(self, monkeypatch):
        # Orbits whose work sums come out equal break the (1 - beta)(c1 - c0)
        # bound, which the theory guarantees: the CLI maps this to exit 2.
        p = ArmParams(r=0.9, a0=0.0, a1=1.0)
        summands = index_mod._orbit_summands
        monkeypatch.setattr(
            index_mod, "_orbit_summands",
            lambda p, cost, x, s, firsts, *rest: summands(p, cost, x, s, (0, 0), *rest),
        )
        with pytest.raises(InconsistencyError, match="below its lower bound"):
            whittle_index(IndexQuery(p, costs.linear(), 0.9, 2.0))

    def test_overflowing_cost_raises_the_guard_without_warnings(self):
        # At a1 = 1e300 the orbits reach 1/(a1 + 1) = 1e-300, where
        # power(-3) overflows: the guard's error, with no RuntimeWarning on
        # the way (warnings are errors here).
        p, cost = ArmParams(r=0.9, a0=0.0, a1=1e300), costs.power(-3.0)
        with pytest.raises(ValueError) as want:
            check_discounted_sums(p, cost, 0.9, 1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^cost 'power\(-3.0\)' is too large: ") as got:
                whittle_index(IndexQuery(p, cost, 0.9, 1.0))
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("cost", [costs.linear(), costs.entropy(), costs.power(-3.0)])
    def test_one_cost_evaluation_per_query(self, monkeypatch, cost):
        # Both orbits and the guard's two range ends go through one
        # CostFn.eval call.
        calls = []
        evaluate = costs.CostFn.eval

        def counting(self, v):
            calls.append(np.size(v))
            return evaluate(self, v)

        monkeypatch.setattr(costs.CostFn, "eval", counting)
        for p, beta, x in [(ArmParams(r=0.9, a0=0.0, a1=1.0), 0.9, 2.0),
                           (ArmParams(r=1.0, a0=0.0, a1=0.3), 0.99, 5.0),
                           (ArmParams(r=0.8, a0=0.1, a1=1.0), 0.5, y1(ArmParams(0.8, 0.1, 1.0)))]:
            calls.clear()
            whittle_index(IndexQuery(p, cost, beta, x))
            assert len(calls) == 1 and calls[0] > 2


class TestClosedForm:
    def test_limit_mode_examples(self):
        assert closed_form_noiseless_limit(0.0) == pytest.approx(1.0)
        assert closed_form_noiseless_limit(2.0) == pytest.approx(6.0)

    def test_limit_is_ceiling_integral(self):
        for x in (0.25, 1.5, 3.75, 6.2):
            grid = np.linspace(0.0, x + 1.0, 400001)
            quad = np.trapezoid(np.ceil(grid[1:]), grid[1:]) + grid[1]
            assert closed_form_noiseless_limit(x) == pytest.approx(quad, rel=1e-4)

    def test_finite_mode_against_direct_simulation(self):
        # Independent oracle: evaluate the defining marginal ratio on the
        # exactly-noiseless arm (a1 = inf) by direct orbit summation.
        rng = np.random.default_rng(28)
        for _ in range(40):
            rho = float(rng.uniform(0.05, 0.95))
            beta = float(rng.uniform(0.05, 0.95))
            x = float(rng.uniform(0.0, 0.999 / (1.0 - rho)))
            arm = ArmParams(r=math.sqrt(rho), a0=0.0, a1=math.inf)
            lam = whittle_index(
                IndexQuery(arm, costs.linear(), beta, x)
            ).lam
            assert closed_form_noiseless(rho, beta, x) == pytest.approx(
                lam, rel=1e-9, abs=1e-12
            )

    def test_finite_mode_x_zero_equals_beta(self):
        for rho in (0.1, 0.5, 0.9):
            for beta in (0.2, 0.9):
                assert closed_form_noiseless(rho, beta, 0.0) == pytest.approx(beta)

    def test_rejects_domain(self):
        with pytest.raises(ValueError):
            closed_form_noiseless(0.9, 0.9, 10.5)
        with pytest.raises(ValueError):
            closed_form_noiseless(1.0, 0.9, 1.0)
        with pytest.raises(ValueError):
            closed_form_noiseless_limit(-0.5)


class TestIndexBeta1:
    def test_constant_cost_zero(self):
        p = ArmParams(r=1.0, a0=0.0, a1=1e6)
        assert index_beta1(p, costs.constant(2.0), 0.5).lam == pytest.approx(
            0.0, abs=1e-9
        )

    def test_limit_example(self):
        p = ArmParams(r=1.0, a0=0.0, a1=1e6)
        got = index_beta1(p, costs.linear(), 0.5).lam
        assert got == pytest.approx(2.0, rel=2e-2)

    def test_period_bookkeeping(self):
        p = ArmParams(r=1.0, a0=0.0, a1=1e6)
        tw = threshold_word(p, 0.5, 16)
        assert tw.periodic and len(tw.word) == 2  # denominator limit 1/2

    def test_record_carries_word_and_cost_gap(self):
        # The limit denominator is (c1 - c0)/n, so the gap divides lambda.
        p = ArmParams(r=1.0, a0=0.0, a1=1e6)
        unit = index_beta1(p, costs.linear(), 0.5)
        priced = index_beta1(p.with_costs(0.5, 3.0), costs.linear(), 0.5)
        assert unit.word == threshold_word(p, 0.5, 256).word and unit.word is not None
        assert unit.denominator == 0.5 and priced.denominator == 1.25
        assert priced.lam == pytest.approx(unit.lam / 2.5, rel=1e-15)
        assert priced.numerator == pytest.approx(priced.lam * priced.denominator)
        with pytest.raises(ArithmeticError, match="cost gap"):
            index_beta1(p.with_costs(1.0, 1.0), costs.linear(), 0.5)

    def test_one_walk_per_orbit(self, monkeypatch):
        # The word is read off the active-first orbit's walk: no separate
        # threshold_word call, and one threshold walk per orbit.
        walks = []
        walk = index_mod.threshold_walk

        def counting(*args):
            walks.append(args[1:])
            return walk(*args)

        def no_word(*args):
            raise AssertionError("index_beta1 called threshold_word")

        monkeypatch.setattr(index_mod, "threshold_walk", counting)
        monkeypatch.setattr(index_mod, "threshold_word", no_word)
        p = ArmParams(r=1.0, a0=0.0, a1=1e6)
        rec = index_beta1(p, costs.linear(), 0.5)
        assert str(rec.word) == "01" and len(walks) == 2
        assert {v for v, _, _ in walks} == {phi(p, 0, 0.5), phi(p, 1, 0.5)}

    def test_uncertified_period_raises(self):
        # A scan found no certified period <= 256 at this point.
        p = ArmParams(r=1.0, a0=0.0, a1=0.01)
        x = 118.68267253760375
        assert not threshold_word(p, x, 256).periodic
        with pytest.raises(UncertifiedPeriodError, match="no certified period <= 256"):
            index_beta1(p, costs.linear(), x)

    def test_mismatched_cycles_are_an_inconsistency(self, monkeypatch):
        # The limit drops each orbit's 1 / (1 - beta) term, which cancels
        # only when the two cycles' mean costs agree: the CLI maps a
        # mismatch to exit 2.
        p = ArmParams(r=1.0, a0=0.0, a1=1e6)
        summands = index_mod._orbit_summands

        def shifted(*args, **kwargs):
            terms, spans, knife = summands(*args, **kwargs)
            _, c, b = spans[1]
            terms[0, c:b] *= 1.0 + 1e-6
            return terms, spans, knife

        monkeypatch.setattr(index_mod, "_orbit_summands", shifted)
        with pytest.raises(InconsistencyError, match="mean costs"):
            index_beta1(p, costs.linear(), 0.5)

    def test_limit_is_the_laurent_constant_term(self, monkeypatch):
        # Each orbit's sum is S/(n(1 - beta)) + H + S(n - 1)/(2n) - (kS + J)/n
        # + O(1 - beta), with H the head sum, k the head length, S the
        # cycle sum and J = sum_j j a_{k+j}.  With equal cycle means the
        # limit numerator is the difference of the constant terms.  The
        # synthetic cycles have periods 2 and 3, so only their lcm, 6, is a
        # period of both.
        orbits = {0: ([5.0, 4.0], [1.0, 3.0]), 1: ([5.0, 0.5, 7.0], [2.0, 1.0, 3.0])}

        def synthetic(p, cost, x, s, firsts, cap, walks=None):
            row, spans = [], []
            for first in firsts:
                head, cyc = orbits[first]
                a = len(row)
                row += head + cyc
                spans.append((a, a + len(head), len(row)))
            return np.array([row, [0.0] * len(row)]), spans, False

        def constant_term(head, cyc):
            k, n, S = len(head), len(cyc), Fraction(sum(cyc))
            J = sum(j * Fraction(a) for j, a in enumerate(cyc))
            return sum(map(Fraction, head)) + S * (n - 1) / (2 * n) - (k * S + J) / n

        monkeypatch.setattr(index_mod, "_orbit_summands", synthetic)
        p = ArmParams(r=1.0, a0=0.0, a1=1e6)
        rec = index_beta1(p, costs.linear(), 0.5)
        assert str(rec.word) == "01"
        want = (constant_term(*orbits[0]) - constant_term(*orbits[1])) * 2
        assert rec.lam == float(want)

    def test_knife_edge_with_mismatched_cycles_raises(self):
        # At y1 the passive-start orbit falls back onto the threshold from
        # above; rounding here puts it on a cycle with a passive step while
        # the active-start orbit stays at y1, so no float limit exists.
        p = ArmParams(r=1.0, a0=0.0, a1=1.8708460454159177, c0=0.2)
        assert threshold_word(p, y1(p), 256).knife_edge
        with pytest.raises(ArithmeticError, match="knife edge") as info:
            index_beta1(p, costs.linear(), y1(p))
        assert not isinstance(info.value, InconsistencyError)


class TestQValue:
    def test_constant_cost_geometric(self):
        p = ArmParams(r=0.9, a0=0.0, a1=1.0)
        beta, k = 0.9, 3.0
        got = q_value(p, costs.constant(k), beta, 0.0, 2.0, 0, math.inf)
        assert got == pytest.approx(k / (1.0 - beta), rel=1e-10)

    def test_identity_with_marginals(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            p = random_params(rng)
            beta = float(rng.uniform(0.1, 0.95))
            nu = float(rng.uniform(-1.0, 3.0))
            x = float(rng.uniform(0.1, 8.0))
            s = float(rng.uniform(0.1, 8.0))
            q = IndexQuery(p, costs.linear(), beta, x)
            lhs = q_value(p, costs.linear(), beta, nu, x, 1, s) - q_value(
                p, costs.linear(), beta, nu, x, 0, s
            )
            rhs = nu * marginal_work(q, s) - marginal_cost(q, s)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def reference_index_table(p, cost, beta, grid, words):
    """index_table's records, violation count and T from a loop over the
    kernel's arrays, one record at a time, with the truncation slack and
    the violations read back from the records."""
    xs = np.asarray(grid, dtype=float)
    T = truncation_horizon(beta)
    sums = marginal_sums_batch(p, beta, cost, xs, xs, T)
    lam = sums.cost / sums.work
    records = []
    for i, x in enumerate(xs):
        tw = threshold_word(p, float(x), 64) if words else None
        word = tw.word if tw is not None and tw.periodic else None
        records.append(IndexRecord(
            x=float(x), lam=float(lam[i]), numerator=float(sums.cost[i]),
            denominator=float(sums.work[i]), word=word, knife_edge=bool(sums.knife[i]),
        ))
    slack = 0.0
    if beta != 0.0:
        # Only the records' finite entries bound the slack.
        def finite(name):
            return [getattr(rec, name) for rec in records if math.isfinite(getattr(rec, name))]

        tail = beta ** (T + 1) / (1.0 - beta)
        den_min = min(finite("denominator"))
        num_scale = max(1.0, (1.0 - beta) * max(map(abs, finite("numerator")), default=0.0))
        lam_max = max(map(abs, finite("lam")), default=0.0)
        slack = tail * (num_scale + lam_max * cost_gap(p)) / den_min
    lams = np.array([rec.lam for rec in records])
    return records, int(np.sum(np.diff(lams) < -(1e-9 + slack))), T


# The CLI's cost families; power(-1.5) also gives non-monotone indices.
TABLE_COSTS = [costs.by_name(name) for name in (
    "linear", "entropy", "neg_precision", "ratio_demo", "bounded_demo")]
TABLE_COSTS += [costs.power(q) for q in (-3.0, -1.5, -1.0, 0.5, 2.0)]


def nan_band_cost(cost, a, b):
    """``cost``, but NaN on the states strictly between a and b."""
    return costs.custom(lambda v: np.where((a < v) & (v < b), np.nan, cost.eval_unchecked(v)))


@st.composite
def table_inputs(draw):
    """An arm, a cost, perhaps NaN on a band of states inside the grid or
    about one grid point, a beta and an ascending grid."""
    beta = draw(st.sampled_from((0.0, 0.5, 0.99, 0.999)))
    if beta == 0.999:
        # Slowly contracting arms would step to T = 27,631 here and take
        # most of the test's time; they are drawn at the other betas.
        r, a0 = draw(st.floats(0.5, 0.95)), draw(st.floats(0.01, 0.5))
    else:
        r = draw(st.one_of(st.just(1.0), st.floats(0.5, 0.999)))
        a0 = draw(st.one_of(st.just(0.0), st.floats(0.01, 0.5)))
    c0 = draw(st.sampled_from((0.0, 0.2)))
    p = ArmParams(r=r, a0=a0, a1=a0 + draw(st.floats(0.05, 3.0)),
                  c0=c0, c1=c0 + draw(st.floats(0.5, 3.0)))
    lo = draw(st.floats(0.01, 2.0))
    grid = np.geomspace(lo, lo * draw(st.floats(1.5, 100.0)), draw(st.integers(1, 12)))
    if draw(st.booleans()):
        # The fixed points, where the words are one letter and knife edges.
        grid = np.unique(np.r_[grid, [v for v in (y1(p), y0(p)) if v < 1e3]])
    cost = draw(st.sampled_from(TABLE_COSTS))
    if draw(st.booleans()):
        if draw(st.booleans()):
            a, b = sorted(draw(st.floats(grid[0], grid[-1])) for _ in range(2))
        else:
            x = draw(st.sampled_from(grid.tolist()))
            # The guard rejects a cost that is NaN at the orbits' lowest state.
            assume(x != orbit_range(p, grid[0], grid[-1])[0])
            a, b = x * (1.0 - 1e-9), x * (1.0 + 1e-9)
        cost = nan_band_cost(cost, a, b)
    return p, cost, beta, grid


class TestIndexTable:
    def test_monotone_for_admissible_cost(self):
        p = ArmParams(r=0.9, a0=0.0, a1=0.01)
        grid = np.geomspace(1e-2, 1e2, 300)
        table = index_table(p, costs.linear(), 0.99, grid, words=False)
        assert table.monotonicity_violations == 0

    def test_detects_non_monotone_power_cost(self):
        p = ArmParams(r=1.0, a0=0.0, a1=1.0)
        grid = np.geomspace(1e-2, 1e2, 300)
        table = index_table(p, costs.power(-1.5), 0.99, grid, words=False)
        assert table.monotonicity_violations > 0

    def test_constant_cost_all_zero(self):
        p = ArmParams(r=0.9, a0=0.0, a1=1.0)
        grid = np.geomspace(0.1, 10.0, 64)
        table = index_table(p, costs.constant(1.0), 0.9, grid, words=False)
        assert all(abs(rec.lam) < 1e-12 for rec in table.records)
        assert table.monotonicity_violations == 0

    def test_words_attached(self):
        p = ArmParams(r=0.9, a0=0.1, a1=1.0)
        grid = np.array([0.5 * y1(p), 1.5 * y0(p)])
        table = index_table(p, costs.linear(), 0.9, grid)
        assert str(table.records[0].word) == "1"
        assert str(table.records[1].word) == "0"

    def test_rejects_bad_grid(self):
        p = ArmParams(r=0.9, a0=0.0, a1=1.0)
        with pytest.raises(ValueError):
            index_table(p, costs.linear(), 0.9, np.array([2.0, 1.0]))
        # The ascending check comes first, so a NaN grid is not ascending.
        with pytest.raises(ValueError, match="^grid must be strictly ascending$"):
            index_table(p, costs.linear(), 0.9, np.array([1.0, math.nan]))

    def test_overflowing_sums_raise_without_warnings(self):
        # The library call runs the CLI's overflow guard: no NaN records and
        # no RuntimeWarning.
        p = ArmParams(r=0.9, a0=0.0, a1=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^cost 'power\(-3\.0\)' is too large"):
                index_table(p, costs.power(-3.0), 0.9, np.array([1.0, 2.0]), words=False)

    def test_knife_edge_points_flagged(self):
        # A grid point at the active fixed point ties the threshold forever;
        # it must come back flagged from the batch sums without breaking
        # monotonicity.
        p = ArmParams(r=0.8, a0=0.1, a1=1.0)
        grid = np.sort(
            np.unique(np.concatenate([np.geomspace(0.5, 5.0, 20), [y1(p)]]))
        )
        table = index_table(p, costs.linear(), 0.9, grid)
        flagged = [rec for rec in table.records if rec.knife_edge]
        assert len(flagged) == 1
        assert flagged[0].x == pytest.approx(y1(p))
        assert table.monotonicity_violations == 0

    @given(inputs=table_inputs(), words=st.booleans())
    @settings(max_examples=150, deadline=None, derandomize=True)
    # Passive orbits above y0 = 500.25 that reach T = 2,750 with no repeat.
    @example(inputs=(ArmParams(r=0.999, a0=0.0, a1=1.0), costs.linear(), 0.99,
                     np.geomspace(300.0, 2000.0, 7)), words=True)
    # A non-monotone index with NaN at its last three points (4 violations)
    # and at its first point only (7): a NaN index counts wherever it sits.
    @example(inputs=(ArmParams(r=1.0, a0=0.0, a1=2.0), nan_band_cost(costs.power(-1.5), 8.0, 9.0),
                     0.99, np.geomspace(0.3, 30.0, 8)), words=False)
    @example(inputs=(ArmParams(r=1.0, a0=0.0, a1=2.0),
                     nan_band_cost(costs.power(-1.5), 1.0 - 1e-9, 1.0 + 1e-9),
                     0.5, np.geomspace(1.0, 80.0, 9)), words=True)
    def test_matches_record_loop(self, inputs, words):
        """Records, violation count and T equal the record-by-record reference
        bit for bit, on random arms and grids, with and without words."""
        p, cost, beta, grid = inputs
        got = index_table(p, cost, beta, grid, words=words)
        records, violations, T = reference_index_table(p, cost, beta, grid, words)
        assert (got.monotonicity_violations, got.T) == (violations, T)
        assert len(got.records) == len(records)
        for a, b in zip(got.records, records):
            for name in ("x", "lam", "numerator", "denominator"):
                u, w = getattr(a, name), getattr(b, name)
                assert type(u) is float and struct.pack("<d", u) == struct.pack("<d", w)
            assert type(a.knife_edge) is bool and a.knife_edge == b.knife_edge
            assert a.word == b.word

    @pytest.mark.parametrize("band, beta, grid, violations", [
        ((8.0, 9.0), 0.99, np.geomspace(0.3, 30.0, 8), 4),
        ((1.0 - 1e-9, 1.0 + 1e-9), 0.5, np.geomspace(1.0, 80.0, 9), 7),
    ])
    def test_nan_index_leaves_the_slack_finite(self, band, beta, grid, violations):
        # The slack reads only finite indices: a NaN at the first grid point
        # no longer makes it NaN, which hid every violation.
        p = ArmParams(r=1.0, a0=0.0, a1=2.0)
        table = index_table(p, nan_band_cost(costs.power(-1.5), *band), beta, grid, words=False)
        assert any(math.isnan(rec.lam) for rec in table.records)
        assert table.monotonicity_violations == violations

    @pytest.mark.parametrize("p, cost, grid", [
        (ArmParams(r=1.0, a0=0.0, a1=1e6), costs.linear(), np.linspace(0.25, 3.75, 5)),
        (ArmParams(r=1.0, a0=0.0, a1=1e6, c0=0.5, c1=3.0), costs.linear(),
         np.linspace(0.1, 4.0, 9)),
        (ArmParams(r=1.0, a0=0.0, a1=1e4), costs.power(-1.5), np.linspace(0.3, 5.0, 8)),
        (ArmParams(r=0.9, a0=0.1, a1=1.0), costs.entropy(), np.array([0.5, 1.0, 2.0])),
    ])
    def test_beta1_is_the_limit_record_loop(self, p, cost, grid):
        # The beta = 1 table is index_beta1 point by point, with violations
        # counted below -1e-9, as the slack of certified cycles is 0.
        table = index_table(p, cost, 1.0, grid)
        records = [index_beta1(p, cost, x) for x in grid]
        assert table.records == records and table.T == 400
        lams = np.array([rec.lam for rec in records])
        assert table.monotonicity_violations == int(np.sum(np.diff(lams) < -1e-9))

    def test_beta1_counts_violations(self):
        p, cost = ArmParams(r=1.0, a0=0.0, a1=1e4), costs.power(-1.5)
        table = index_table(p, cost, 1.0, np.linspace(0.3, 5.0, 8))
        assert table.monotonicity_violations > 0

    def test_beta1_rejects_no_words_and_bad_grids(self):
        p = ArmParams(r=1.0, a0=0.0, a1=1e6)
        with pytest.raises(ValueError, match="certified word"):
            index_table(p, costs.linear(), 1.0, [0.5, 1.5], words=False)
        for grid in ([1.5, 1.5, 2.0], [2.0, 1.0], [1.0, math.nan], [1.0, math.inf], [[1.0]]):
            with pytest.raises(ValueError, match="^grid must be"):
                index_table(p, costs.linear(), 1.0, grid)

    @pytest.mark.parametrize("beta", [-0.5, 1.5, math.nan])
    def test_rejects_beta_outside_the_unit_interval(self, beta):
        with pytest.raises(ValueError, match=r"^beta must be in \[0, 1\]"):
            index_table(ArmParams(r=0.9, a0=0.0, a1=1.0), costs.linear(), beta, [1.0, 2.0])

    def test_beta1_guard_names_the_cost(self):
        # -1/v overflows at v = 1e-320, an end of the orbits' range.
        p = ArmParams(r=0.9, a0=0.0, a1=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^cost 'neg_precision' is not finite"):
                index_table(p, costs.neg_precision(), 1.0, [1e-320, 1e-3])
            with pytest.raises(ValueError, match="^a1 = 1e\\+308 is too large"):
                index_table(ArmParams(r=0.9, a0=0.0, a1=1e308), costs.linear(), 1.0, [1.0, 2.0])


NON_FINITE_CALLS = {
    "whittle_index": lambda p, cost, x: whittle_index(IndexQuery(p, cost, 0.9, x)),
    "marginal_cost": lambda p, cost, x: marginal_cost(IndexQuery(p, cost, 0.9, x), 1.0),
    "marginal_work": lambda p, cost, x: marginal_work(IndexQuery(p, cost, 0.9, x), 1.0),
    "q_value": lambda p, cost, x: q_value(p, cost, 0.9, 1.0, x, 0, 1.0),
    "index_table": lambda p, cost, x: index_table(p, cost, 0.9, sorted([1.0, x])),
}


@pytest.mark.parametrize("entry, x", [
    ("whittle_index", math.nan), ("whittle_index", math.inf), ("whittle_index", -math.inf),
    ("marginal_cost", math.nan), ("marginal_cost", math.inf), ("marginal_work", math.nan),
    ("q_value", math.nan), ("q_value", math.inf),
    ("index_table", math.inf), ("index_table", -math.inf),
])
def test_non_finite_states_rejected(entry, x):
    # A non-finite state has no orbit of variances: each entry point says
    # so, in threshold_word's words, instead of blaming the cost or a1 or
    # returning NaN.
    p, cost = ArmParams(r=0.9, a0=0.0, a1=1.0), costs.linear()
    want = "grid must be finite" if entry == "index_table" else f"x must be finite, got {x}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            NON_FINITE_CALLS[entry](p, cost, x)


@pytest.mark.parametrize("s", [-math.inf, math.inf])
def test_infinite_thresholds_allowed(s):
    # The all-active and all-passive policies of a finite state.
    p, cost = ArmParams(r=0.9, a0=0.0, a1=1.0), costs.linear()
    assert math.isfinite(marginal_cost(IndexQuery(p, cost, 0.9, 2.0), s))
    assert math.isfinite(q_value(p, cost, 0.9, 1.0, 2.0, 0, s))


class TestCrossRoutes:
    """Independent computational routes must agree with each other."""

    def test_beta1_limit_approached_by_high_beta(self):
        cases = [(ArmParams(r=1.0, a0=0.0, a1=1e6), x, 0.999) for x in (0.5, 1.5, 2.5)]
        # Orbits that first repeat after 13,300 steps: the limit is 441,660.08.
        cases.append((ArmParams(r=0.9995, a0=1e-6, a1=1.0), 900.0, 0.999999))
        for arm, x, beta in cases:
            lim = index_beta1(arm, costs.linear(), x).lam
            hi = whittle_index(IndexQuery(arm, costs.linear(), beta, x)).lam
            assert abs(hi - lim) / lim < 5e-3  # convergence is O(1 - beta)

    def test_denominator_constant_on_word_interval(self):
        p = ArmParams(r=0.9, a0=0.05, a1=0.9)
        y01 = fixed_point(p, Word("01"))
        y10 = fixed_point(p, Word("10"))
        dens = [
            whittle_index(
                IndexQuery(p, costs.linear(), 0.9, y01 + f * (y10 - y01))
            ).denominator
            for f in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        assert max(dens) - min(dens) <= 1e-12

    def test_high_precision_recomputation(self):
        # 50-digit re-evaluation of the defining infinite-horizon sums.
        pytest.importorskip("mpmath")

        for r, a0, a1, beta, x in [
            (0.9, 0.05, 0.9, 0.9, 2.0),
            (0.8, 0.0, 0.5, 0.95, 1.3),
            (1.0, 0.0, 0.1, 0.95, 1.1),
        ]:
            p = ArmParams(r=r, a0=a0, a1=a1)
            ours = whittle_index(
                IndexQuery(p, costs.linear(), beta, x)
            ).lam
            num, den = marginal_sums_mp(p, beta, x, mp_horizon(beta))
            ref = float(num / den)
            assert ours == pytest.approx(ref, rel=1e-12)


class TestFig2Regression:
    # (numerator, denominator, lambda) of the beta = 0.99 index: the
    # infinite-horizon sums, summed at 50 digits to T = 9165 (0.99^T <
    # 1e-40) by marginal_sums_mp(p, 0.99, x, mp_horizon(0.99)) and rounded
    # to floats; the interior points were cross-validated against the
    # value-iteration oracle (see oracle tests).
    SNAPSHOT = {
        0.05: (0.04361785477653203, 1.0, 0.04361785477653203),
        0.2: (0.054150049169417895, 1.0, 0.054150049169417895),
        0.7: (0.09699401794353223, 1.0, 0.09699401794353223),
        1.5: (0.1892475946462343, 1.0, 0.1892475946462343),
        2.9: (0.4155437416422795, 1.0, 0.4155437416422795),
        4.2: (0.6925439089108019, 1.0, 0.6925439089108019),
        5.0: (0.28080372309587914, 0.2537814064007224, 1.1064787096832789),
        5.26: (0.06343457740307899, 0.04845296552758551, 1.309199069909644),
    }

    def test_snapshot(self):
        p = ArmParams(r=0.9, a0=0.0, a1=0.01)
        for x, (num, den, lam) in self.SNAPSHOT.items():
            rec = whittle_index(
                IndexQuery(p, costs.linear(), 0.99, x)
            )
            assert rec.numerator == pytest.approx(num, rel=1e-12)
            assert rec.denominator == pytest.approx(den, rel=1e-12)
            assert rec.lam == pytest.approx(lam, rel=1e-12)

    def test_snapshot_is_the_mpmath_sum(self):
        pytest.importorskip("mpmath")
        p = ArmParams(r=0.9, a0=0.0, a1=0.01)
        for x in (0.05, 5.26):
            num, den = marginal_sums_mp(p, 0.99, x, mp_horizon(0.99))
            assert self.SNAPSHOT[x] == (float(num), float(den), float(num / den))
