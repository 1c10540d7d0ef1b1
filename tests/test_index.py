"""Marginal sums, the index, closed forms, limit procedure, Q-values."""

import logging
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from obsched import costs
from obsched import index as index_mod
from obsched.dynamics import (
    InconsistencyError,
    KNIFE_EDGE_TOL,
    ArmParams,
    batch_coefficients,
    fixed_point,
    is_knife_edge,
    phi,
    threshold_word,
    y0,
    y1,
)
from obsched.index import (
    IndexQuery,
    UncertifiedPeriodError,
    _orbit_terms,
    _threshold_sums_batch,
    closed_form_noiseless,
    closed_form_noiseless_limit,
    index_beta1,
    index_table,
    marginal_cost,
    marginal_sums_batch,
    marginal_work,
    q_value,
    truncation_horizon,
    whittle_index,
    whittle_index_word,
)
from obsched.words import Word, central_palindrome, christoffel, farey


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
            mc, mw, knife = marginal_sums_batch(
                p.r, p.a0, p.a1, p.c0, p.c1, beta,
                costs.linear(), np.array([x]), np.array([s]), T,
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
            knife = knife or bool(is_knife_edge(v, s))
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
        cterms, wterms, k = _orbit_terms(p, cost, beta, x, s, first, T)
        assert abs(math.fsum(cterms) - csum) <= 1e-12 * scale
        assert abs(math.fsum(wterms) - wsum) <= 1e-12 * scale
        assert k == stepped_sums(p, cost, beta, x, s, first, T)[3]
    (c0, w0, s0), (c1, w1, s1) = (
        expected_sums(p, cost, beta, x, s, first, T, batch=True) for first in (0, 1)
    )
    mc, mw, knife = marginal_sums_batch(
        p.r, p.a0, p.a1, p.c0, p.c1, beta, cost, np.array([x]), np.array([s]), T
    )
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
            mc, mw, _ = marginal_sums_batch(
                p.r, p.a0, p.a1, p.c0, p.c1, beta, costs.linear(), xs, xs, T
            )
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

    def test_mixed_first_actions_match_single_action_batches(self):
        # An orbit's sums do not depend on the rest of its batch: with the
        # first actions mixed, every column equals its column in the
        # all-passive or all-active batch, bit for bit.
        rng = np.random.default_rng(41)
        n = 60
        r = rng.uniform(0.3, 1.0, n)
        a0 = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.0, 0.5, n))
        a1 = a0 + rng.uniform(0.05, 3.0, n)
        a1[::7] = math.inf
        x = rng.uniform(0.05, 8.0, n)
        s = rng.uniform(0.05, 8.0, n)
        s[::11] = math.inf
        r[3], a0[3], s[3] = 1.0, 0.0, math.inf  # never repeats
        knife_arm = ArmParams(r=0.8, a0=0.1, a1=1.0)
        r[4], a0[4], a1[4] = knife_arm.r, knife_arm.a0, knife_arm.a1
        x[4] = s[4] = y1(knife_arm)  # ties the threshold at every step
        beta = rng.choice([0.0, 0.5, 0.9, 0.99], n)
        tol = np.where(np.isinf(s), -1.0, KNIFE_EDGE_TOL * np.maximum(1.0, np.abs(s)))
        par = np.stack([np.full(n, 0.2), np.ones(n), beta, s, tol])
        coef = batch_coefficients(r * r, a0, a1)
        cost, T = costs.power(2.0), 3000

        def run(first):
            return _threshold_sums_batch(par, coef, cost, x, first, T)

        first = rng.random(n) < 0.5
        mixed, all0, all1 = run(first), run(np.zeros(n, bool)), run(np.ones(n, bool))
        for got, want0, want1 in zip(mixed[:3], all0[:3], all1[:3]):
            assert got.tobytes() == np.where(first, want1, want0).tobytes()
        assert all0[2][4] and all1[2][4]
        assert all0[3] >= 1 and all1[3] >= 1
        # A shared beta is raised to the power t on its 1-element row; the
        # orbits' sums equal those with a full beta row.
        for b in np.unique(beta):
            cols = np.flatnonzero(beta == b)
            shared = tuple(np.array([b]) if i == 2 else row[cols] for i, row in enumerate(par))
            part = _threshold_sums_batch(
                shared, tuple(row[cols] for row in coef), cost, x[cols], first[cols], T
            )
            for got, want in zip(part[:3], mixed[:3]):
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
                cterms, _, knife = _orbit_terms(p, costs.linear(), beta, x, x, first, 500)
                assert knife and len(cterms) < 50

    def test_fallback_logged_once_per_call(self, caplog):
        p = ArmParams(r=1.0, a0=0.0, a1=1.0)
        xs = np.array([0.5, 1.5, 2.5])
        with caplog.at_level(logging.DEBUG, logger="obsched"):
            _orbit_terms(p, costs.linear(), 0.9, 1.0, math.inf, 0, 300)
            marginal_sums_batch(
                p.r, p.a0, p.a1, p.c0, p.c1, 0.9, costs.linear(), xs,
                np.full(3, math.inf), 300,
            )
        messages = [rec.getMessage() for rec in caplog.records]
        assert len(messages) == 2
        assert "reached T=300 with no repeat" in messages[0]
        assert messages[1].startswith("6 of 6 batch orbits reached T=300")
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="obsched"):
            _orbit_terms(p, costs.linear(), 0.9, 1.0, 2.5, 0, 300)
        assert not caplog.records


def reference_threshold_sums_batch(par, coef, cost, x, first, T):
    """The batch kernel before its per-step trims, as the bitwise reference.

    Every step goes through the checked ``cost.eval``, every map step
    applies the a1 = inf mask, and the knife test and work summand are
    computed out of place.
    """

    def step(coef, act, v):
        r2, a0r2, a0, a1r2, a1, a1_inf = coef
        den = np.where(act, a1r2, a0r2) * v
        den += np.where(act, a1, a0)
        den += 1.0
        out = r2 * v
        out += 1.0
        out /= den
        return np.where(act & a1_inf, 0.0, out)

    def columns(rows, cols):
        return tuple(row if row.size == 1 else row[cols] for row in rows)

    knife = np.zeros(x.size, dtype=bool)
    sums = np.empty((2, x.size))
    head = np.stack([cost.eval(x), np.where(first, par[1], par[0])])
    cyc = np.zeros_like(head)
    v = step(coef, first, x)
    anchor, k = v, 1
    live, lpar, lcoef, lknife = np.arange(x.size), par, coef, knife.copy()
    for t in range(1, T + 1):
        if t > k:
            hit = v == anchor
            if hit.any():
                ids = live[hit]
                geo = index_mod._cycle_factor(columns(lpar, hit)[2], t - k)
                sums[:, ids] = head[:, hit] + geo * cyc[:, hit]
                knife[ids] = lknife[hit]
                keep = ~hit
                live, v, anchor, lknife = live[keep], v[keep], anchor[keep], lknife[keep]
                head, cyc = head[:, keep], cyc[:, keep]
                lpar, lcoef = columns(lpar, keep), columns(lcoef, keep)
                if not live.size:
                    break
            if t == 2 * k:
                head += cyc
                cyc = np.zeros_like(head)
                anchor, k = v, t
        c0, c1, beta, s, tol = lpar
        lknife |= np.abs(v - s) <= tol
        act = v >= s
        disc = beta**t
        cyc[0] += disc * cost.eval(v)
        cyc[1] += disc * np.where(act, c1, c0)
        v = step(lcoef, act, v)
    knife[live] = lknife
    sums[:, live] = head + cyc
    return sums[0], sums[1], knife, live.size


class TestBatchKernelMatchesReference:
    """The trimmed batch kernel gives the reference kernel's sums, knife
    flags and capped counts bit for bit, and the same domain errors."""

    ADMISSIBLE = (
        costs.linear(), costs.entropy(), costs.neg_precision(), costs.power(0.5),
        costs.power(2.0), costs.ratio_demo(), costs.bounded_demo(),
    )

    @staticmethod
    def batch(rng, cost, per_orbit):
        """A random batch: per-orbit rows, or one arm shared by all orbits.

        Includes a0 = 0, r = 1 with an infinite threshold (never repeats),
        a start tying the threshold and, where the cost is defined at 0,
        a1 = inf.
        """
        n = 48
        size = n if per_orbit else 1
        r = rng.uniform(0.3, 1.0, size)
        a0 = np.where(rng.random(size) < 0.3, 0.0, rng.uniform(0.0, 0.5, size))
        a1 = a0 + rng.uniform(0.05, 3.0, size)
        s = rng.uniform(0.05, 8.0, size)
        beta = rng.choice([0.0, 0.5, 0.9, 0.99], size)
        x = rng.uniform(0.05, 8.0, n)
        if per_orbit:
            a0[::5] = 0.0
            if not cost.positive_only:
                a1[::7] = math.inf
            s[::11] = math.inf
            r[3], a0[3], s[3] = 1.0, 0.0, math.inf
            knife_arm = ArmParams(r=0.8, a0=0.1, a1=1.0)
            r[4], a0[4], a1[4] = knife_arm.r, knife_arm.a0, knife_arm.a1
            x[4] = s[4] = y1(knife_arm)
        elif not cost.positive_only and rng.random() < 0.5:
            a1[0] = math.inf
        tol = np.where(np.isinf(s), -1.0, KNIFE_EDGE_TOL * np.maximum(1.0, np.abs(s)))
        c0 = np.full(size, 0.2)
        c1 = np.ones(size)
        par = (c0, c1, beta, s, tol)
        return par, batch_coefficients(r * r, a0, a1), x, rng.random(n) < 0.5

    @pytest.mark.parametrize("cost", ADMISSIBLE, ids=lambda c: c.kind)
    @pytest.mark.parametrize("seed", range(4))
    def test_bitwise_equal(self, cost, seed):
        rng = np.random.default_rng([71, seed])
        par, coef, x, first = self.batch(rng, cost, per_orbit=seed % 2 == 1)
        T = 3000
        got = _threshold_sums_batch(par, coef, cost, x, first, T)
        want = reference_threshold_sums_batch(par, coef, cost, x, first, T)
        for g, w in zip(got[:3], want[:3]):
            assert g.tobytes() == w.tobytes()
        assert got[3] == want[3]

    def test_noiseless_entropy_raises_the_domain_error(self):
        # With a1 = inf an active step reaches variance 0, where entropy is
        # undefined: every step stays checked, with the same message.
        p = ArmParams(r=0.9, a0=0.0, a1=math.inf)
        xs = np.geomspace(0.5, 5.0, 6)
        with pytest.raises(costs.CostDomainError) as info:
            marginal_sums_batch(
                p.r, p.a0, p.a1, p.c0, p.c1, 0.9, costs.entropy(), xs, xs, 100
            )
        assert str(info.value) == (
            "cost 'entropy' undefined at v = 0.0 (domain is (0, inf))"
        )

    def test_overflowing_denominator_stays_checked(self):
        # a1 r^2 v overflows, so the active image is 0 although a1 is finite.
        p = ArmParams(r=1.0, a0=0.0, a1=1e308)
        xs = np.array([1.0, 2.0])
        with np.errstate(over="ignore"), pytest.raises(costs.CostDomainError):
            marginal_sums_batch(
                p.r, p.a0, p.a1, p.c0, p.c1, 0.9, costs.power(0.5), xs, xs, 100
            )


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
            (num1, den1, _), (num2, den2, _) = (
                marginal_sums_batch(
                    p.r, p.a0, p.a1, p.c0, p.c1, beta, costs.linear(), x, x, t
                )
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
            num, den = whittle_index_word(p, costs.linear(), beta, x, w, T)
            assert rec.lam == pytest.approx(num / den, rel=1e-8)
            done += 1

    def test_knife_edge_flagged_and_resolved(self):
        # Exactly at the active fixed point every iterate ties the threshold;
        # the >= rule must reproduce the all-active word.
        p = ArmParams(r=0.8, a0=0.1, a1=1.0)
        x = y1(p)
        rec = whittle_index(IndexQuery(p, costs.linear(), 0.9, x))
        assert rec.knife_edge
        num, den = whittle_index_word(p, costs.linear(), 0.9, x, Word("1"), 2000)
        assert rec.lam == pytest.approx(num / den, rel=1e-9)

    def test_boundary_words_used_at_y1_y0(self):
        p = ArmParams(r=0.8, a0=0.1, a1=1.0)
        assert str(whittle_index(IndexQuery(p, costs.linear(), 0.9, y1(p))).word) == "1"
        assert str(whittle_index(IndexQuery(p, costs.linear(), 0.9, y0(p))).word) == "0"

    def test_zero_denominator_raises(self):
        p = ArmParams(r=0.9, a0=0.0, a1=1.0, c0=1.0, c1=1.0)
        with pytest.raises(ArithmeticError):
            whittle_index(IndexQuery(p, costs.linear(), 0.9, 2.0))

    def test_marginal_work_below_bound_is_an_inconsistency(self, monkeypatch):
        # Orbits whose work sums come out equal break the (1 - beta)(c1 - c0)
        # bound, which the theory guarantees: the CLI maps this to exit 2.
        p = ArmParams(r=0.9, a0=0.0, a1=1.0)
        passive_only = index_mod._orbit_terms
        monkeypatch.setattr(
            index_mod, "_orbit_terms",
            lambda p, cost, beta, x, s, first, T: passive_only(p, cost, beta, x, s, 0, T),
        )
        with pytest.raises(InconsistencyError, match="below its lower bound"):
            whittle_index(IndexQuery(p, costs.linear(), 0.9, 2.0))


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
                IndexQuery(arm, costs.linear(), beta, x), word_max_len=1
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
        assert index_beta1(p, costs.constant(2.0), 0.5, 100).lam == pytest.approx(
            0.0, abs=1e-9
        )

    def test_limit_example(self):
        p = ArmParams(r=1.0, a0=0.0, a1=1e6)
        got = index_beta1(p, costs.linear(), 0.5, 400).lam
        assert got == pytest.approx(2.0, rel=2e-2)

    def test_period_bookkeeping(self):
        p = ArmParams(r=1.0, a0=0.0, a1=1e6)
        tw = threshold_word(p, 0.5, 16)
        assert tw.periodic and len(tw.word) == 2  # denominator limit 1/2

    def test_record_carries_word_and_cost_gap(self):
        # The limit denominator is (c1 - c0)/n, so the gap divides lambda.
        p = ArmParams(r=1.0, a0=0.0, a1=1e6)
        unit = index_beta1(p, costs.linear(), 0.5, 400)
        priced = index_beta1(p.with_costs(0.5, 3.0), costs.linear(), 0.5, 400)
        assert unit.word == threshold_word(p, 0.5, 256).word and unit.periodic
        assert unit.denominator == 0.5 and priced.denominator == 1.25
        assert priced.lam == pytest.approx(unit.lam / 2.5, rel=1e-15)
        assert priced.numerator == pytest.approx(priced.lam * priced.denominator)
        with pytest.raises(ArithmeticError, match="cost gap"):
            index_beta1(p.with_costs(1.0, 1.0), costs.linear(), 0.5, 400)

    def test_uncertified_period_raises(self):
        p = ArmParams(r=1.0, a0=0.0, a1=1.0)
        from obsched.dynamics import sturmian_fixed_point

        lo, hi = sturmian_fixed_point(p, (3.0 - math.sqrt(5.0)) / 2.0, 30)
        with pytest.raises(UncertifiedPeriodError):
            index_beta1(p, costs.linear(), 0.5 * (lo + hi), 50, word_max_len=8)


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


class TestCrossRoutes:
    """Independent computational routes must agree with each other."""

    def test_beta1_limit_approached_by_high_beta(self):
        arm = ArmParams(r=1.0, a0=0.0, a1=1e6)
        for x in (0.5, 1.5, 2.5):
            lim = index_beta1(arm, costs.linear(), x, 400).lam
            hi = whittle_index(
                IndexQuery(arm, costs.linear(), 0.999, x), word_max_len=1
            ).lam
            assert abs(hi - lim) / lim < 5e-3  # convergence is O(1 - beta)

    def test_denominator_constant_on_word_interval(self):
        p = ArmParams(r=0.9, a0=0.05, a1=0.9)
        y01 = fixed_point(p, Word("01"))
        y10 = fixed_point(p, Word("10"))
        dens = [
            whittle_index(
                IndexQuery(p, costs.linear(), 0.9, y01 + f * (y10 - y01)),
                word_max_len=4,
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
                IndexQuery(p, costs.linear(), beta, x), word_max_len=1
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
                IndexQuery(p, costs.linear(), 0.99, x), word_max_len=1
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
