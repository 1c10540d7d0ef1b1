"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance and runtime bound is pinned here; run with -s (or rely on
the captured output on failure) to see the per-criterion lines.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from obsched import bandit, costs, oracle
from obsched.dynamics import (
    ArmParams,
    fixed_point,
    itinerary,
    moebius_matrix,
    phi_word,
    y0,
    y1,
)
from obsched.index import (
    IndexQuery,
    closed_form_noiseless,
    closed_form_noiseless_limit,
    index_beta1,
    index_table,
    marginal_sums_batch,
    truncation_horizon,
    whittle_index,
)
from obsched.lqg import LqgProblem, riccati_root, solve_lqg
from obsched.words import (
    Word,
    apply_exchange,
    central_palindrome,
    christoffel,
    christoffel_mod,
    conjugates_sorted,
    farey,
    is_balanced,
    lex_cmp,
    mword_prefix,
    swap_distance,
    swap_sequence,
)

from support import fig7_scenario


def _report(n, label, t0, limit):
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {n:2d} [{label}]: PASS ({elapsed:.1f}s)")
    assert elapsed < limit, f"criterion {n} exceeded {limit}s ({elapsed:.1f}s)"


def _reduced_rates(max_den):
    for den in range(1, max_den + 1):
        for num in range(0, den + 1):
            if math.gcd(num, den) == 1:
                yield num, den


def test_criterion_01_closed_form_regression():
    t0 = time.perf_counter()
    arm = ArmParams.from_var_decay(0.9, 0.0, 1e8)
    for x in np.linspace(0.0, 9.99, 50):
        lam = whittle_index(IndexQuery(arm, costs.linear(), 0.9, float(x))).lam
        want = closed_form_noiseless(0.9, 0.9, float(x))
        assert abs(lam - want) <= 1e-3 * max(abs(want), 1e-12), (x, lam, want)
    _report(1, "closed-form regression", t0, 10.0)


def test_criterion_02_limit_formula():
    t0 = time.perf_counter()
    arm = ArmParams(r=1.0, a0=0.0, a1=1e6)
    for x in (0.25, 0.5, 1.5, 2.5, 3.75):
        got = index_beta1(arm, costs.linear(), x).lam
        want = closed_form_noiseless_limit(x)
        assert abs(got - want) <= 2e-2 * abs(want), (x, got, want)
    _report(2, "discount-to-one limit", t0, 30.0)


def test_criterion_03_q_curves_cross_once():
    t0 = time.perf_counter()
    arm = ArmParams(r=1.0, a0=0.0, a1=0.1)
    cost = costs.linear()
    beta, nu = 0.95, 0.7647
    T = truncation_horizon(beta)
    lo, hi = 1e-6, 50.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lam = whittle_index(IndexQuery(arm, cost, beta, mid)).lam
        if lam < nu:
            lo = mid
        else:
            hi = mid
    s_star = 0.5 * (lo + hi)
    xs = np.linspace(0.2, 5.0, 481)
    mcost, mwork, _, _ = marginal_sums_batch(arm, beta, cost, xs, np.full_like(xs, s_star), T)
    diff = nu * mwork - mcost  # Q(x,1) - Q(x,0)
    signs = np.sign(diff)
    crossings = np.flatnonzero(signs[:-1] * signs[1:] < 0)
    assert len(crossings) == 1, f"{len(crossings)} crossings"
    x_cross = 0.5 * (xs[crossings[0]] + xs[crossings[0] + 1])
    assert abs(x_cross - 1.1) <= 0.05, x_cross
    assert np.any(np.diff(diff) > 1e-9), "difference never increases"
    _report(3, "Q-curve single crossing at 1.1", t0, 5.0)


def test_criterion_04_figure_itinerary():
    t0 = time.perf_counter()
    arm = ArmParams(r=1.0, a0=0.0, a1=0.1)
    primary = str(itinerary(arm, 5.0, 5.0, 5))
    if primary != "10010":
        located = [
            x
            for x in np.linspace(4.5, 5.5, 2001)
            if str(itinerary(arm, float(x), float(x), 5)) == "10010"
        ]
        assert located, "no x in [4.5, 5.5] reproduces 10010"
        print(f"ACCEPTANCE  4: start-point discrepancy, itinerary found at "
              f"x={located[0]:.4f}")
    _report(4, "map-with-a-gap itinerary 10010", t0, 10.0)


def test_criterion_05_word_theory_suite():
    t0 = time.perf_counter()
    # definition vs modular construction, balance, palindromes, conjugates
    for num, den in _reduced_rates(30):
        w = christoffel(num, den)
        assert w == christoffel_mod(num, den)
        assert is_balanced(w)
        if den >= 2:
            assert central_palindrome(w).is_palindrome()
        if num >= 1:
            conj = conjugates_sorted(w)
            assert conj[0] == w and conj[-1] == w.reverse()
            assert all(lex_cmp(a, b) < 0 for a, b in zip(conj, conj[1:]))
    # exchange rewriting, with the worked 1100 -> 0101 example
    a, b = Word("1100"), Word("0101")
    moves = swap_sequence(a, b)
    stages = [a]
    for j in moves:
        stages.append(apply_exchange(stages[-1], j))
    assert [str(s) for s in stages] == ["1100", "1010", "0110", "0101"]
    assert len(moves) == swap_distance(a, b) == 3
    # Farey F5: the full sequence per the definition; the worked example's
    # ten entries (which omit 4/5) must appear in order within it
    f5 = farey(5)
    assert f5 == [
        Fraction(0), Fraction(1, 5), Fraction(1, 4), Fraction(1, 3),
        Fraction(2, 5), Fraction(1, 2), Fraction(3, 5), Fraction(2, 3),
        Fraction(3, 4), Fraction(4, 5), Fraction(1),
    ]
    printed = [
        Fraction(0), Fraction(1, 5), Fraction(1, 4), Fraction(1, 3),
        Fraction(2, 5), Fraction(1, 2), Fraction(3, 5), Fraction(2, 3),
        Fraction(3, 4), Fraction(1),
    ]
    it = iter(f5)
    assert all(q in it for q in printed)
    # prefix constancy on Farey intervals, n <= 12, fine rational grid
    for n in range(1, 13):
        seq = farey(n)
        for i, q in enumerate(seq[:-1]):
            base = mword_prefix(q, n)
            nxt = seq[i + 1]
            for t in range(7):
                mid = q + (nxt - q) * Fraction(t, 7)
                assert mword_prefix(mid, n) == base
            assert mword_prefix(nxt - Fraction(1, 10**9), n) == base
            assert mword_prefix(nxt, n) != base
        assert mword_prefix(Fraction(1), n) == mword_prefix(seq[-1], n)
    _report(5, "word-theory suite", t0, 30.0)


def test_criterion_06_threshold_word_intervals():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260806)
    fracs = [f for f in farey(13) if f.denominator >= 2]
    words = [christoffel(f.numerator, f.denominator) for f in fracs]
    done = 0
    while done < 200:
        w = words[rng.integers(len(words))]
        r = float(rng.uniform(0.55, 1.0))
        a0 = float(rng.uniform(0.0, 0.3))
        a1 = a0 + float(rng.uniform(0.05, 1.5))
        p = ArmParams(r=r, a0=a0, a1=a1)
        pal = central_palindrome(w)
        y01p = fixed_point(p, Word("01") + pal)
        y10p = fixed_point(p, Word("10") + pal)
        if not y10p - y01p > 1e-9 * (1.0 + abs(y10p)):
            continue  # interval below float resolution; resample
        expect = ((Word("10") + pal) * 4).prefix(3 * len(w))
        for f in (0.2, 0.35, 0.5, 0.65, 0.8):
            z = y01p + f * (y10p - y01p)
            got = itinerary(p, z, z, 3 * len(w))
            assert got == expect, (str(w), r, a0, a1, f)
        done += 1
    # boundary words at the closed interval ends
    for _ in range(20):
        r = float(rng.uniform(0.4, 0.95))
        a0 = float(rng.uniform(0.01, 0.3))
        a1 = a0 + float(rng.uniform(0.1, 1.5))
        p = ArmParams(r=r, a0=a0, a1=a1)
        z_low = 0.5 * y1(p)
        assert str(itinerary(p, z_low, z_low, 10)) == "1" * 10
        z_high = 1.5 * y0(p)
        assert str(itinerary(p, z_high, z_high, 10)) == "1" + "0" * 9
    _report(6, "threshold words on fixed-point intervals", t0, 60.0)


def test_criterion_07_oracle_cross_validation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260807)
    kinds = [costs.linear, costs.entropy, costs.neg_precision,
             costs.bounded_demo, costs.ratio_demo]
    for k in range(20):
        r = float(rng.uniform(0.4, 0.98))
        a0 = float(rng.uniform(0.0, 0.4))
        a1 = a0 + float(rng.uniform(0.1, 2.0))
        beta = float(rng.uniform(0.4, 0.95))
        p = ArmParams(r=r, a0=a0, a1=a1)
        cost = kinds[k % len(kinds)]()
        lo, hi = y1(p), y0(p)
        x_star = float(rng.uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo)))
        cv = oracle.cross_validate(
            p, cost, beta, x_star, oracle.default_grid(p, 2048)
        )
        assert cv.action_above == 0, (k, cv)
        assert cv.action_below == 1, (k, cv)
        assert cv.threshold_ok, (k, cv)
    _report(7, "DP oracle agreement on 20 instances", t0, 180.0)


def test_criterion_08_pcli_properties():
    t0 = time.perf_counter()
    # positivity of marginal work on 1000 random samples
    rng = np.random.default_rng(20260808)
    n = 1000
    r = rng.uniform(0.3, 1.0, n)
    a0 = rng.uniform(0.0, 0.5, n)
    a1 = a0 + rng.uniform(0.05, 2.0, n)
    beta = rng.uniform(0.0, 0.95, n)
    x = rng.uniform(0.05, 8.0, n)
    T = truncation_horizon(float(beta.max()))
    work = np.array([
        marginal_sums_batch(
            ArmParams(r=float(ri), a0=float(lo), a1=float(hi)), float(b),
            costs.linear(), xi, xi, T,
        )[1]
        for ri, lo, hi, b, xi in zip(r, a0, a1, beta, x)
    ])
    slack = beta ** (T + 1) / (1.0 - beta)
    assert np.all(work >= (1.0 - beta) - slack - 1e-12)
    # index monotone on the fractal-parameter grid, zero violations
    arm = ArmParams(r=0.9, a0=0.0, a1=0.01)
    grid = np.geomspace(1e-2, 1e2, 1000)
    table = index_table(arm, costs.linear(), 0.99, grid, words=False)
    assert table.monotonicity_violations == 0
    # non-monotone detected for the inadmissible power cost
    arm2 = ArmParams(r=1.0, a0=0.0, a1=1.0)
    table2 = index_table(arm2, costs.power(-1.5), 0.99, grid, words=False)
    assert table2.monotonicity_violations >= 1
    _report(8, "PCLI bounds, monotone index, counterexample", t0, 60.0)


def test_criterion_09_palindromic_orbit_lemmas():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260809)
    fracs = [f for f in farey(13) if f.denominator >= 2]
    words = [christoffel(f.numerator, f.denominator) for f in fracs]
    for trial in range(500):
        w = words[rng.integers(len(words))]
        pal = central_palindrome(w)
        r = float(rng.uniform(0.2, 0.999))
        a0 = float(rng.uniform(0.0, 1.0))
        a1 = a0 + float(rng.uniform(0.05, 2.0))
        p = ArmParams(r=r, a0=a0, a1=a1)
        n_rep = int(rng.integers(0, 4))
        lo_x = phi_word(p, pal, 0.0)
        hi_x = phi_word(p, pal, 1.0 / (1.0 - p.r2))
        x = float(rng.uniform(lo_x, hi_x)) if hi_x > lo_x else lo_x
        w01, w10 = Word("01") + pal, Word("10") + pal
        a = np.empty(len(w01))
        b = np.empty(len(w01))
        c = np.empty(len(w01))
        d = np.empty(len(w01))
        for k in range(1, len(w01) + 1):
            m01 = moebius_matrix(p, w01 * n_rep + w01.prefix(k))
            m10 = moebius_matrix(p, w10 * n_rep + w10.prefix(k))
            a[k - 1] = m01.m11 * x + m01.m12
            c[k - 1] = m01.m21 * x + m01.m22
            b[k - 1] = m10.m11 * x + m10.m12
            d[k - 1] = m10.m21 * x + m10.m22
        rtol = 1e-9
        ctx = (trial, str(w), r, a0, a1, n_rep)
        for seq in (a, b, c, d):  # claim 1
            assert np.all(seq > 0.0), ctx
            assert np.all(np.diff(seq) >= -rtol * seq[:-1]), ctx
        assert np.all(a <= b * (1.0 + rtol)), ctx  # claim 2
        assert np.all(np.cumsum(c) <= np.cumsum(d) * (1.0 + rtol)), ctx  # claim 3
        assert c[0] <= d[0] * (1.0 + rtol), ctx  # claim 4
        assert np.all(c[1:] >= d[1:] * (1.0 - rtol)), ctx
        # claim 5: fixed points sandwiched inside the palindromic image
        y01p = fixed_point(p, w01)
        y10p = fixed_point(p, w10)
        assert lo_x <= y01p * (1.0 + rtol), ctx
        assert y01p <= y10p * (1.0 + rtol), ctx
        assert y10p <= hi_x * (1.0 + rtol), ctx
        # majorisation inequality on the induced (c, d, f) triple
        beta = float(rng.uniform(0.2, 0.99))
        fam = [
            (lambda i: (lambda u: beta ** (i + 1) / u**2))(i)
            for i in range(len(c))
        ]
        res = oracle.majorisation_check(c, d, fam)
        assert res.hypotheses_ok, (ctx, res.hypothesis_failures)
        assert res.holds, ctx
    _report(9, "palindromic-orbit matrix lemmas", t0, 60.0)


def test_criterion_10_policy_tournament():
    t0 = time.perf_counter()
    scenario = fig7_scenario(n=10, heavy_weight=10.0, horizon=200, beta=0.99, seed=7)
    first = bandit.tournament(scenario, ("whittle", "myopic", "round_robin"))
    totals = {k: v.total_discounted_cost for k, v in first.items()}
    assert totals["whittle"] < totals["myopic"], totals
    assert totals["whittle"] < totals["round_robin"], totals
    second = bandit.tournament(scenario, ("whittle", "myopic", "round_robin"))
    for pol in first:
        assert (
            first[pol].total_discounted_cost
            == second[pol].total_discounted_cost
        )
        np.testing.assert_array_equal(
            first[pol].variances, second[pol].variances
        )
    _report(10, "index policy wins the tournament", t0, 120.0)


def test_criterion_11_lqg():
    t0 = time.perf_counter()
    # exact F = 0 collapse
    prob = LqgProblem(A=1.0, B=1.0, D=1.0, F=0.0, beta=0.95, sigma_x=1.0,
                      sigma_y0=math.inf, sigma_y1=10.0)
    sol = solve_lqg(prob)
    assert sol.R == 1.0 and sol.L == 1.0
    # residual and alpha sign across 10^4 random problems
    rng = np.random.default_rng(20260811)
    for _ in range(10_000):
        p = LqgProblem(
            A=float(rng.uniform(0.2, 1.0)) * float(rng.choice([-1.0, 1.0])),
            B=float(rng.uniform(0.2, 3.0)) * float(rng.choice([-1.0, 1.0])),
            D=float(rng.uniform(0.05, 3.0)),
            F=float(rng.uniform(0.0, 3.0)),
            beta=float(rng.uniform(0.1, 0.99)),
            sigma_x=float(rng.uniform(0.3, 3.0)),
            sigma_y0=float(rng.uniform(5.0, 500.0)),
            sigma_y1=float(rng.uniform(0.1, 3.0)),
        )
        R = riccati_root(p)
        resid = abs(
            -p.beta * p.B**2 * R**2
            + (p.beta * p.B**2 * p.D + p.beta * p.A**2 * p.F - p.F) * R
            + p.D * p.F
        )
        assert resid <= 1e-10 * max(1.0, p.beta * p.B**2 * R**2)
        assert p.D - (1.0 - p.beta * p.A**2) * R >= -1e-12 * max(1.0, p.D)
    # grid-DP optimality of the (L, z) policy on 5 problems
    from obsched.dynamics import phi

    done = 0
    while done < 5:
        p = LqgProblem(
            A=float(rng.uniform(0.5, 1.0)) * float(rng.choice([-1.0, 1.0])),
            B=float(rng.uniform(0.5, 2.0)),
            D=float(rng.uniform(0.2, 2.0)),
            F=float(rng.uniform(0.0, 2.0)),
            beta=float(rng.uniform(0.6, 0.95)),
            sigma_x=float(rng.uniform(0.5, 2.0)),
            sigma_y0=float(rng.uniform(5.0, 100.0)),
            sigma_y1=float(rng.uniform(0.2, 2.0)),
            c1=float(rng.uniform(0.1, 2.0)),
        )
        sol = solve_lqg(p)
        if not math.isfinite(sol.z) or sol.alpha <= 1e-6:
            continue
        arm = p.arm()
        cost = costs.linear().scale(sol.alpha * p.sigma_x)
        grid = oracle.default_grid(arm, n=2048)
        dp = oracle.value_iteration(arm, cost, p.beta, 1.0, grid, tol=1e-9)
        zhat = sol.z / p.sigma_x
        T = math.ceil(math.log(1e-10) / math.log(p.beta))
        pts = grid.points()
        for k in (150, 1000, 1900):
            v = float(pts[k])
            tot, disc = 0.0, 1.0
            for _ in range(T):
                act = int(v >= zhat)
                tot += disc * ((arm.c1 if act else arm.c0) + cost.eval(v))
                v = phi(arm, act, v)
                disc *= p.beta
            assert tot == pytest.approx(float(dp.values[k]), rel=1e-3, abs=1e-6)
        done += 1
    _report(11, "LQG Riccati, gain and threshold", t0, 120.0)
