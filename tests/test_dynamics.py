"""Variance maps, matrices, fixed points, orbits, itineraries, threshold words."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from obsched import dynamics
from obsched.dynamics import (
    ArmParams,
    InconsistencyError,
    ThresholdWord,
    batch_map,
    fixed_point,
    itinerary,
    letter_matrix,
    map_coefficients,
    moebius_matrix,
    orbit,
    phi,
    phi0,
    phi1,
    phi_word,
    positive_root,
    sturmian_fixed_point,
    threshold_word,
    y0,
    y1,
)
from obsched.words import Word, central_palindrome, christoffel, farey, is_balanced

RNG = np.random.default_rng(20260810)


def random_params(rng, r_lo=0.3, r_hi=1.0, a1_max=3.0):
    r = float(rng.uniform(r_lo, r_hi))
    a0 = float(rng.uniform(0.0, 0.5))
    a1 = a0 + float(rng.uniform(0.05, a1_max))
    return ArmParams(r=r, a0=a0, a1=a1)


def random_word(rng, max_len=12):
    n = int(rng.integers(1, max_len + 1))
    return Word(int(b) for b in rng.integers(0, 2, n))


class TestArmParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ArmParams(r=0.0, a0=0.0, a1=1.0)
        with pytest.raises(ValueError):
            ArmParams(r=1.1, a0=0.0, a1=1.0)
        with pytest.raises(ValueError):
            ArmParams(r=0.9, a0=1.0, a1=1.0)
        with pytest.raises(ValueError):
            ArmParams(r=0.9, a0=0.0, a1=1.0, c0=2.0, c1=1.0)

    def test_a1_infinite_allowed(self):
        p = ArmParams(r=0.9, a0=0.0, a1=math.inf)
        assert phi1(p, 3.0) == 0.0

    def test_from_kalman_examples(self):
        p = ArmParams.from_kalman(1.0, 1.0, math.inf, 10.0)
        assert (p.r, p.a0, p.a1) == (1.0, 0.0, 0.1)
        p = ArmParams.from_kalman(1.0, 2.0, math.inf, 2.0)
        assert (p.r, p.a0, p.a1) == (1.0, 0.0, 1.0)
        p = ArmParams.from_kalman(-0.9, 1.0, 100.0, 1.0)
        assert (p.r, p.a0, p.a1) == (0.9, 0.01, 1.0)

    def test_from_kalman_rejects(self):
        with pytest.raises(ValueError):
            ArmParams.from_kalman(1.0, 1.0, 1.0, 2.0)  # sigma_y1 >= sigma_y0
        with pytest.raises(ValueError):
            ArmParams.from_kalman(0.0, 1.0, math.inf, 1.0)
        with pytest.raises(ValueError):
            ArmParams.from_kalman(1.5, 1.0, math.inf, 1.0)
        with pytest.raises(ValueError):
            ArmParams.from_kalman(1.0, -1.0, math.inf, 1.0)

    def test_from_kalman_round_trip(self):
        # phi in normalized units times sigma_x equals the raw variance update.
        rng = np.random.default_rng(3)
        for _ in range(50):
            A = float(rng.uniform(0.2, 1.0)) * float(rng.choice([-1, 1]))
            sx = float(rng.uniform(0.3, 3.0))
            sy1 = float(rng.uniform(0.2, 3.0))
            sy0 = sy1 * float(rng.uniform(1.5, 100.0))
            p = ArmParams.from_kalman(A, sx, sy0, sy1, 0.0, 1.0)
            v = float(rng.uniform(0.0, 10.0))
            for act, sy in ((0, sy0), (1, sy1)):
                pred = A * A * v + sx
                raw = pred * sy / (pred + sy)
                assert phi(p, act, v / sx) * sx == pytest.approx(raw, rel=1e-12)

    def test_from_var_decay(self):
        p = ArmParams.from_var_decay(0.9, 0.0, 1.0)
        assert phi0(p, 2.0) == pytest.approx(0.9 * 2.0 + 1.0)


class TestPhi:
    def test_examples(self):
        assert phi(ArmParams(r=1.0, a0=0.0, a1=1.0), 0, 4.0) == pytest.approx(5.0)
        assert phi(ArmParams(r=1.0, a0=0.0, a1=0.1), 1, 4.0) == pytest.approx(10.0 / 3.0)
        assert phi(ArmParams(r=0.9, a0=0.0, a1=1.0), 0, 0.0) == pytest.approx(1.0)

    def test_increasing_and_nonexpansive(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = random_params(rng)
            v = float(rng.uniform(0.0, 20.0))
            dv = float(rng.uniform(1e-6, 5.0))
            for act in (0, 1):
                lo, hi = phi(p, act, v), phi(p, act, v + dv)
                assert hi > lo
                assert hi - lo <= dv * (1.0 + 1e-12)
                if p.r < 1.0 or (act and p.a1 > 0) or (not act and p.a0 > 0):
                    assert hi - lo < dv

    def test_phi01_below_phi10(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            p = random_params(rng)
            v = float(rng.uniform(0.0, 20.0))
            assert phi1(p, phi0(p, v)) < phi0(p, phi1(p, v))

    def test_vectorized(self):
        p = ArmParams(r=0.9, a0=0.1, a1=1.0)
        vs = np.linspace(0.0, 5.0, 7)
        np.testing.assert_allclose(phi0(p, vs), [phi0(p, float(v)) for v in vs])


def reference_phi_batch(p, act, v):
    """Both branches of the map, then a select: the form batch_map replaced."""
    num = p.r2 * v + 1.0
    img0 = num / (p.a0 * p.r2 * v + p.a0 + 1.0)
    if math.isinf(p.a1):
        img1 = np.zeros_like(num)
    else:
        img1 = num / (p.a1 * p.r2 * v + p.a1 + 1.0)
    return np.where(act, img1, img0)


class TestPhiBatch:
    """batch_map, phi on an array of one arm's states, gives the two-branch
    formula's floats, bit for bit."""

    @staticmethod
    def random_arm(rng):
        r = float(rng.uniform(0.2, 1.0))
        a0 = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 0.5))
        a1 = math.inf if rng.random() < 0.3 else a0 + float(rng.uniform(0.01, 5.0))
        return ArmParams(r=r, a0=a0, a1=a1)

    @staticmethod
    def states(rng, n):
        return np.where(rng.random(n) < 0.1, 0.0, rng.uniform(0.0, 50.0, n))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        arms = [self.random_arm(rng) for _ in range(20)] + [
            ArmParams(r=0.7, a0=0.0, a1=math.inf),
            ArmParams(r=1.0, a0=0.0, a1=2.0),
        ]
        v = self.states(rng, 400)
        for p in arms:
            coef = map_coefficients(p)
            for act in (rng.random(400) < 0.5, rng.integers(0, 2, 400), True, False, 0, 1):
                got = batch_map(coef, act, v)
                want = reference_phi_batch(p, act, v)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_matches_scalar_phi(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = self.random_arm(rng)
            v = self.states(rng, 30)
            act = rng.integers(0, 2, 30)
            got = batch_map(map_coefficients(p), act, v)
            for i in range(30):
                assert got[i] == phi(p, int(act[i]), float(v[i]))

    def test_columns_of_several_arms(self):
        # One column per state, from arms with finite and infinite a1, gives
        # each state its own arm's image; without the flag row the finite
        # arms' images are unchanged.
        rng = np.random.default_rng(8)
        arms = [self.random_arm(rng) for _ in range(12)] + [
            ArmParams(r=0.7, a0=0.0, a1=math.inf)]
        which = rng.integers(0, len(arms), 300)
        coef = np.concatenate([map_coefficients(p) for p in arms], axis=1)[:, which]
        v = self.states(rng, 300)
        act = rng.random(300) < 0.5
        got = batch_map(coef, act, v)
        finite = batch_map(coef[:5], act, v)
        for i, p in enumerate(arms):
            mine = which == i
            want = reference_phi_batch(p, act[mine], v[mine])
            assert got[mine].tobytes() == want.tobytes()
            if not math.isinf(p.a1):
                assert finite[mine].tobytes() == want.tobytes()

    def test_scalar_coefficients_broadcast(self):
        # One arm's coefficients broadcast over the states; with a1 = inf
        # every active image is 0.
        p = ArmParams(r=0.9, a0=0.0, a1=math.inf)
        vs = np.linspace(0.0, 5.0, 7)
        act = vs >= 2.0
        got = batch_map(map_coefficients(p), act, vs)
        assert got.tobytes() == reference_phi_batch(p, act, vs).tobytes()
        assert np.all(got[act] == 0.0)


class TestMoebius:
    def test_identity_for_empty(self):
        p = ArmParams(r=0.8, a0=0.1, a1=0.9)
        m = moebius_matrix(p, Word())
        assert (m.m11, m.m12, m.m21, m.m22) == (1.0, 0.0, 0.0, 1.0)

    def test_f_matrix_example(self):
        p = ArmParams(r=1.0, a0=0.0, a1=1.0)
        f = moebius_matrix(p, Word("0"))
        assert (f.m11, f.m12, f.m21, f.m22) == (1.0, 1.0, 0.0, 1.0)

    def test_word_01_product(self):
        p = ArmParams(r=1.0, a0=0.0, a1=1.0)
        m = moebius_matrix(p, Word("01"))
        gf = letter_matrix(p, 1) @ letter_matrix(p, 0)
        assert m == gf
        assert m.det() == pytest.approx(1.0, abs=1e-12)
        for v in (0.0, 0.7, 3.0):
            assert m.apply(v) == pytest.approx(phi1(p, phi0(p, v)), rel=1e-12)

    def test_composition_homomorphism(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = random_params(rng)
            u, v = random_word(rng, 8), random_word(rng, 8)
            muv = moebius_matrix(p, u + v)
            prod = moebius_matrix(p, v) @ moebius_matrix(p, u)
            x = float(rng.uniform(0.0, 8.0))
            assert muv.apply(x) == pytest.approx(prod.apply(x), rel=1e-10)
            assert muv.apply(x) == pytest.approx(
                phi_word(p, v, phi_word(p, u, x)), rel=1e-10
            )

    def test_unit_determinant_long_words(self):
        # Entries grow exponentially with word length, so the determinant's
        # cancellation error must be judged against the product magnitude.
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = random_params(rng)
            w = random_word(rng, 64)
            m = moebius_matrix(p, w)
            scale = max(1.0, abs(m.m11 * m.m22), abs(m.m12 * m.m21))
            assert abs(m.det() - 1.0) <= 1e-9 * scale

    def test_unit_determinant_short_words_absolute(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            p = random_params(rng, r_lo=0.7, a1_max=1.0)
            w = random_word(rng, 6)
            assert moebius_matrix(p, w).det() == pytest.approx(1.0, abs=1e-9)

    def test_entries_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            p = random_params(rng)
            m = moebius_matrix(p, random_word(rng, 20))
            assert min(m.m11, m.m12, m.m21, m.m22) >= 0.0

    def test_requires_finite_a1(self):
        p = ArmParams(r=0.9, a0=0.0, a1=math.inf)
        with pytest.raises(ValueError):
            moebius_matrix(p, Word("1"))


class TestFixedPoints:
    def test_passive_example(self):
        p = ArmParams(r=0.9, a0=0.0, a1=1.0)
        assert fixed_point(p, Word("0")) == pytest.approx(1.0 / (1.0 - 0.81))
        assert y0(p) == pytest.approx(1.0 / 0.19)

    def test_golden_example(self):
        p = ArmParams(r=1.0, a0=0.0, a1=1.0)
        assert fixed_point(p, Word("1")) == pytest.approx((math.sqrt(5) - 1) / 2)

    def test_residual_check_raises_inconsistency(self, monkeypatch):
        p = ArmParams(r=0.9, a0=0.1, a1=1.0)
        true_root = dynamics._positive_root
        monkeypatch.setattr(dynamics, "_positive_root", lambda m: 1.1 * true_root(m))
        with pytest.raises(InconsistencyError, match="fixed-point residual"):
            fixed_point(p, Word("01"))
        assert issubclass(InconsistencyError, ArithmeticError)

    def test_ordering_01_10(self):
        p = ArmParams(r=1.0, a0=0.0, a1=1.0)
        assert fixed_point(p, Word("01")) < fixed_point(p, Word("10"))

    def test_residual_small(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            p = random_params(rng)
            w = random_word(rng, 10)
            yw = fixed_point(p, w)
            if math.isfinite(yw):
                assert abs(phi_word(p, w, yw) - yw) <= 1e-10 * (1.0 + yw)

    def test_infinite_for_pure_random_walk(self):
        p = ArmParams(r=1.0, a0=0.0, a1=1.0)
        assert fixed_point(p, Word("0")) == math.inf

    def test_noiseless_words(self):
        p = ArmParams(r=0.8, a0=0.0, a1=math.inf)
        # phi_w collapses to a constant once a 1 appears: the fixed point is
        # the image of 0 under the trailing zeros.
        assert fixed_point(p, Word("1")) == 0.0
        assert fixed_point(p, Word("10")) == pytest.approx(1.0)
        assert fixed_point(p, Word("100")) == pytest.approx(0.64 + 1.0)

    def test_sandwich_claim(self):
        # phi_p(0) <= y_{01p} < y_{10p} <= phi_p(1/(1-r^2)) for palindromic p.
        rng = np.random.default_rng(8)
        fracs = [f for f in farey(10) if f.denominator >= 2]
        for _ in range(100):
            f = fracs[rng.integers(len(fracs))]
            pal = central_palindrome(christoffel(f.numerator, f.denominator))
            p = random_params(rng, r_hi=0.99)
            lo = phi_word(p, pal, 0.0)
            hi = phi_word(p, pal, 1.0 / (1.0 - p.r2))
            y01p = fixed_point(p, Word("01") + pal)
            y10p = fixed_point(p, Word("10") + pal)
            assert lo <= y01p * (1 + 1e-12)
            assert y01p < y10p or (y10p - y01p) > -1e-12 * y10p
            assert y10p <= hi * (1 + 1e-12)


def reference_single_map_root(qa, qb):
    """Root of qa y^2 + qb y - 1 as y0 and y1 computed it on their own."""
    if qa == 0.0:
        return math.inf if qb <= 0.0 else 1.0 / qb
    return 2.0 / (qb + math.sqrt(qb * qb + 4.0 * qa))


def reference_matrix_root(m):
    """The matrix fixed point's root as ``_positive_root`` computed it on its own."""
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


def outcome(f, *args):
    """f(*args), or the message of the ArithmeticError it raises."""
    try:
        return f(*args)
    except ArithmeticError as exc:
        return str(exc)


def reference_riccati_root(qa, qb, qc):
    """Root of qa R^2 + qb R + qc (qa < 0 < qc) as ``riccati_root`` computed it on its own."""
    s = math.sqrt(qb * qb - 4.0 * qa * qc)
    if qb >= 0.0:
        return (qb + s) / (-2.0 * qa)
    return -2.0 * qc / (qb - s)


def exact_root(qa, qb, qc):
    """positive_root's root as a Fraction, to about 2^-149 relative."""
    qa, qb, qc = Fraction(qa), Fraction(qb), Fraction(qc)
    if qa == 0:
        return -qc / qb
    disc = qb * qb - 4 * qa * qc
    num, den = disc.numerator, disc.denominator
    k = max(0, 300 - (num * den).bit_length()) // 2 + 1
    s = Fraction(math.isqrt((num * den) << (2 * k)), den << k)
    return -2 * qc / (qb + s) if qb > 0 else (s - qb) / (2 * qa)


def magnitude(max_exp):
    """0, or a float 2^e m with e in [-1074, max_exp]: every binade alike."""
    return st.one_of(st.just(0.0), st.builds(
        math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1074, max_exp)))


def unscaled(qa, qb, qc):
    """True where positive_root takes its unscaled path."""
    return qa != 0.0 and 2.2250738585072014e-308 <= qb * qb - 4.0 * qa * qc < math.inf


class TestPositiveRoot:
    """One solver for y0, y1, the matrix fixed points and the Riccati root.

    The reference_* functions are the three formulas it replaced; on its
    unscaled path it must give their floats bit for bit.
    """

    # Magnitudes stay below 2^1020 so that the references' 2 qa, 4 qa and
    # -2 qc stay finite.
    @given(qa=magnitude(1020), qb=magnitude(1020), qc=magnitude(1020),
           negative_qb=st.booleans(), diagonal=magnitude(1020))
    @settings(max_examples=600, derandomize=True, deadline=None)
    @example(qa=1.0, qb=0.0, qc=1.0, negative_qb=False, diagonal=1.0)
    @example(qa=1.43e-45, qb=0.0, qc=1.0, negative_qb=False, diagonal=1.0)
    def test_matches_the_replaced_formulas_bit_for_bit(self, qa, qb, qc, negative_qb,
                                                       diagonal):
        if negative_qb:
            qb = -qb
        if unscaled(qa, qb, -1.0) and not negative_qb:  # y0 and y1 pass qb >= +0.0
            assert positive_root(qa, qb, -1.0) == reference_single_map_root(qa, qb)
        # The matrix with m21 = qa, m12 = qc and m22 - m11 = qb, as far as
        # the subtraction is exact; qb = 0 gives equal diagonals.
        m = dynamics.MoebiusMat(diagonal, qc, qa, diagonal + qb)
        if unscaled(m.m21, m.m22 - m.m11, -m.m12) and qc > 0.0:
            assert outcome(dynamics._positive_root, m) == outcome(reference_matrix_root, m)
        # riccati_root's qb, (beta B^2 D + beta A^2 F) - F, is never -0.0.
        if unscaled(qa, qb, -qc) and qc > 0.0 and not (negative_qb and qb == 0.0):
            assert positive_root(qa, -qb, -qc) == reference_riccati_root(-qa, qb, qc)

    @given(qa=magnitude(1023), qb=magnitude(1023), qc=magnitude(1023),
           negative_qb=st.booleans())
    @settings(max_examples=600, derandomize=True, deadline=None)
    # y1 at a1 = 1e160 and a1 = max: qb^2 overflowed, and y1 was 0.0.
    @example(qa=0.81e160, qb=1e160, qc=1.0, negative_qb=False)
    @example(qa=1.7976931348623157e308, qb=1.7976931348623157e308, qc=1.0,
             negative_qb=False)
    # The Riccati root at B = 1e-160, F = 1e-170: qb^2 underflowed to 0.
    @example(qa=5e-321, qb=8.75e-171, qc=1e-170, negative_qb=False)
    # Every coefficient subnormal, or qa and qc at opposite ends of the range.
    @example(qa=1e-310, qb=1e-310, qc=1e-310, negative_qb=True)
    @example(qa=2.0**1000, qb=0.0, qc=2.0**-1000, negative_qb=False)
    @example(qa=1e300, qb=1e300, qc=1e300, negative_qb=True)
    def test_within_4_ulps_of_the_exact_root(self, qa, qb, qc, negative_qb):
        if negative_qb:
            qb = -qb
        if qa == 0.0 and qb <= 0.0:
            assert positive_root(qa, qb, -qc) == math.inf
            return
        y = positive_root(qa, qb, -qc)
        exact = exact_root(qa, qb, -qc)
        if 2.2250738585072014e-308 <= exact <= 1.7976931348623157e308:
            assert abs(Fraction(y) - exact) <= 4 * Fraction(math.ulp(float(exact)))

    @pytest.mark.parametrize("a", [1e150, 1e160, 1e200, 1e300, 1.7976931348623157e308])
    @pytest.mark.parametrize("r", [1e-300, 0.5, 0.9, 1.0])
    def test_fixed_points_of_the_largest_precisions(self, a, r):
        p = ArmParams(r=r, a0=0.0, a1=a)
        q = ArmParams(r=r, a0=a, a1=math.inf)
        for arm, y, step in ((p, y1(p), phi1), (q, y0(q), phi0)):
            assert 0.0 < y < math.inf
            assert y * a == pytest.approx(1.0, rel=1e-12)
            assert step(arm, y) == pytest.approx(y, rel=1e-12)

    def test_infinite_precision(self):
        assert y1(ArmParams(r=0.9, a0=0.0, a1=math.inf)) == 0.0
        assert y1(ArmParams(r=1e-300, a0=0.0, a1=math.inf)) == 0.0

    def test_matrix_errors(self):
        with pytest.raises(ArithmeticError, match="no real fixed point"):
            dynamics._positive_root(dynamics.MoebiusMat(0.0, 1.0, -1.0, 0.0))
        with pytest.raises(ArithmeticError, match="no positive fixed point"):
            dynamics._positive_root(dynamics.MoebiusMat(1.0, 0.0, 1.0, 2.0))


class TestSturmian:
    GOLDEN_CONJ = (3.0 - math.sqrt(5.0)) / 2.0  # 1 - 1/golden ~ 0.382

    def test_golden_narrow_bracket(self):
        p = ArmParams(r=1.0, a0=0.0, a1=1.0)
        lo, hi = sturmian_fixed_point(p, self.GOLDEN_CONJ, 20)
        assert hi - lo < 1e-6
        assert lo <= hi

    def test_bracket_contains_limit(self):
        p = ArmParams(r=0.9, a0=0.05, a1=0.8)
        deep_lo, deep_hi = sturmian_fixed_point(p, self.GOLDEN_CONJ, 40)
        y_est = 0.5 * (deep_lo + deep_hi)
        lo, hi = sturmian_fixed_point(p, self.GOLDEN_CONJ, 10)
        assert lo <= y_est <= hi

    def test_nesting(self):
        p = ArmParams(r=0.95, a0=0.0, a1=0.4)
        prev = (-math.inf, math.inf)
        for depth in range(1, 40):
            lo, hi = sturmian_fixed_point(p, self.GOLDEN_CONJ, depth)
            assert prev[0] <= lo <= hi <= prev[1]
            prev = (lo, hi)

    def test_near_rational_contains_interval_boundary(self):
        p = ArmParams(r=1.0, a0=0.0, a1=1.0)
        lo, hi = sturmian_fixed_point(p, 0.5 - 1e-9, 4)
        y10 = fixed_point(p, Word("10"))
        assert lo <= y10 <= hi

    def test_rejects_bad_input(self):
        p = ArmParams(r=0.9, a0=0.0, a1=1.0)
        with pytest.raises(ValueError):
            sturmian_fixed_point(p, 1.5, 10)
        with pytest.raises(ValueError):
            sturmian_fixed_point(p, 0.4, 0)

    def test_itinerary_at_sturmian_point_is_mechanical(self):
        # At the bracketed fixed point the itinerary is 1 followed by the
        # mechanical word of the walk's rate.
        from obsched.words import mword_prefix

        p = ArmParams(r=0.9, a0=0.05, a1=0.8)
        lo, hi = sturmian_fixed_point(p, self.GOLDEN_CONJ, 40)
        z = 0.5 * (lo + hi)
        n = 30
        got = itinerary(p, z, z, n)
        assert got == Word("1") + mword_prefix(self.GOLDEN_CONJ, n - 1)


class TestOrbit:
    def test_forced_passive_forever(self):
        p = ArmParams(r=1.0, a0=0.0, a1=0.1)
        o = orbit(p, 4.0, 1, math.inf, 3)
        assert list(o.actions) == [1, 0, 0, 0]

    def test_forced_active_forever(self):
        p = ArmParams(r=1.0, a0=0.0, a1=0.1)
        o = orbit(p, 4.0, 0, -math.inf, 3)
        assert list(o.actions) == [0, 1, 1, 1]

    def test_map_with_gap_path(self):
        p = ArmParams(r=1.0, a0=0.0, a1=0.1)
        o = orbit(p, 5.0, 1, 5.0, 4)
        assert "".join(map(str, o.actions)) == "10010"

    def test_states_follow_actions(self):
        rng = np.random.default_rng(9)
        p = random_params(rng)
        o = orbit(p, 2.0, 0, 1.5, 20)
        for t in range(20):
            assert o.states[t + 1] == pytest.approx(
                phi(p, int(o.actions[t]), float(o.states[t]))
            )

    def test_orbit_bounds(self):
        # For x in [y1, y0] the threshold orbit stays in [phi1(x), phi0(x)).
        rng = np.random.default_rng(10)
        for _ in range(50):
            p = random_params(rng, r_hi=0.98)
            lo, hi = y1(p), y0(p)
            x = float(rng.uniform(lo, hi))
            o = orbit(p, x, 1, x, 60)
            assert np.all(o.states[1:] >= phi1(p, x) - 1e-12)
            assert np.all(o.states[1:] < phi0(p, x) + 1e-12)


class TestItinerary:
    def test_extreme_thresholds(self):
        p = ArmParams(r=0.9, a0=0.1, a1=1.0)
        assert str(itinerary(p, 1.0, -math.inf, 5)) == "11111"
        assert str(itinerary(p, 1.0, math.inf, 5)) == "00000"

    def test_map_with_gap_figure(self):
        p = ArmParams(r=1.0, a0=0.0, a1=0.1)
        assert str(itinerary(p, 5.0, 5.0, 5)) == "10010"

    def test_lex_nonincreasing_in_z(self):
        rng = np.random.default_rng(11)
        from obsched.words import lex_cmp

        for _ in range(30):
            p = random_params(rng, r_hi=0.99)
            zs = np.sort(rng.uniform(0.1, 2.0 * y0(p), 12))
            its = [itinerary(p, float(z), float(z), 30) for z in zs]
            for a, b in zip(its, its[1:]):
                assert lex_cmp(b, a) <= 0

    def test_decomposes_as_run_then_balanced(self):
        # sigma(x|s)_{1:n} = l^m w with w a factor of a mechanical word; a
        # suffix of a balanced word is balanced, so stripping the leading
        # run must leave a balanced word.
        rng = np.random.default_rng(12)
        for _ in range(100):
            p = random_params(rng, r_hi=0.99)
            x = float(rng.uniform(0.0, 2.0 * y0(p)))
            s = float(rng.uniform(0.0, 2.0 * y0(p)))
            n = int(rng.integers(2, 41))
            w = itinerary(p, x, s, n)
            first = w.letter(1)
            m = 1
            while m < n and w.letter(m + 1) == first:
                m += 1
            assert is_balanced(w.factor(m + 1, n))

    def test_memory_is_a_byte_per_letter(self):
        # The all-passive orbit with r = 1 and a0 = 0 climbs by 1 a letter
        # and never repeats: the walk keeps its letters and no states.
        p = ArmParams(r=1.0, a0=0.0, a1=0.5)
        tracemalloc.start()
        try:
            w = itinerary(p, 0.5, math.inf, 200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bytes(w) == bytes(200_000)
        assert peak < 1 << 20

    @given(
        r=st.one_of(st.just(1.0), st.floats(0.3, 1.0)),
        a0=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
        a1=st.one_of(st.just(math.inf), st.floats(0.05, 3.0)),
        x=st.floats(0.0, 8.0),
        z=st.one_of(st.sampled_from((math.inf, -math.inf, 0.0)), st.floats(0.0, 8.0)),
        n=st.one_of(st.integers(1, 40), st.integers(200, 3000)),
    )
    @example(r=1.0, a0=0.0, a1=0.1, x=60.0, z=60.0, n=1000)  # head 433, period 53
    @example(r=1.0, a0=0.0, a1=0.1, x=5.0, z=5.0, n=5)
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_letters_are_the_tiled_first_repeat_walk(self, r, a0, a1, x, z, n):
        # Brent's repeat comes at or after the first one, from an anchor in
        # the cycle: tiling from it gives every letter of the walk's tiling.
        p = ArmParams(r=r, a0=a0, a1=a0 + a1)
        states, k = dynamics.threshold_walk(p, x, z, n)
        want = dynamics._tiled(dynamics.walk_actions(states, z)[0], k, n)
        assert bytes(itinerary(p, x, z, n)) == bytes(want)


class TestThresholdWord:
    def test_boundary_words(self):
        p = ArmParams(r=0.9, a0=0.1, a1=1.0)
        low, high = y1(p), y0(p)
        tw = threshold_word(p, 0.5 * low, 8)
        assert tw.periodic and str(tw.word) == "1"
        tw = threshold_word(p, 1.5 * high, 8)
        assert tw.periodic and str(tw.word) == "0"

    def test_midpoint_is_01(self):
        p = ArmParams(r=1.0, a0=0.0, a1=1.0)
        mid = 0.5 * (fixed_point(p, Word("01")) + fixed_point(p, Word("10")))
        tw = threshold_word(p, mid, 8)
        assert tw.periodic and str(tw.word) == "01"

    def test_word_interval_reproduction(self):
        rng = np.random.default_rng(13)
        fracs = [f for f in farey(8) if f.denominator >= 2]
        done = 0
        while done < 40:
            f = fracs[rng.integers(len(fracs))]
            w = christoffel(f.numerator, f.denominator)
            pal = central_palindrome(w)
            p = random_params(rng, r_lo=0.6)
            y01p = fixed_point(p, Word("01") + pal)
            y10p = fixed_point(p, Word("10") + pal)
            if not y10p - y01p > 1e-9 * (1.0 + y10p):
                continue
            x = y01p + float(rng.uniform(0.25, 0.75)) * (y10p - y01p)
            tw = threshold_word(p, x, len(w) + 2)
            assert tw.periodic and tw.word == w
            done += 1

    def test_long_head_certified(self):
        # The orbit from x = 60 settles into its cycle only after 432 steps
        # (period 53), far past max_len; the first exact repeat certifies it.
        tw = threshold_word(ArmParams(r=1.0, a0=0.0, a1=0.1), 60.0, 64)
        assert tw == ThresholdWord(Word("0" * 52 + "1"), True, False)

    @pytest.mark.parametrize(
        "acts, k, word",
        [
            ("00101", 0, "00101"),
            ("01010", 0, None),  # 2-periodic as a walk, but 2 does not divide 5
            ("0" + "10" * 3, 1, "01"),  # the head continues the period
            ("11" + "01" * 3, 2, None),  # the head breaks the period
            ("1" + "01" * 3, 1, None),  # period word 10 is not Christoffel
            ("0" * 9, 9, None),  # capped without a repeat
        ],
    )
    def test_certificate_reads_the_walk(self, monkeypatch, acts, k, word):
        # The certificate depends only on the walk's actions and cycle
        # start: the least period dividing the cycle length must be
        # Christoffel and cover the head too.
        # States 2 act and states 0 rest at the threshold x = 1.
        walk = ([2.0 if b == "1" else 0.0 for b in acts], k)
        monkeypatch.setattr(dynamics, "threshold_walk", lambda *args: walk)
        p = ArmParams(r=1.0, a0=0.0, a1=1.0)
        tw = threshold_word(p, 1.0, 8)
        assert tw.periodic == (word is not None)
        assert str(tw.word) == (word or (acts + acts[k:] * 8)[:8])

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_rejected(self, x):
        p = ArmParams(r=1.0, a0=0.0, a1=0.1)
        with pytest.raises(ValueError, match="finite"):
            threshold_word(p, x, 8)
        with pytest.raises(ValueError, match="finite"):
            itinerary(p, x, 1.0, 8)
        if math.isnan(x):
            with pytest.raises(ValueError, match="non-NaN z"):
                itinerary(p, 1.0, x, 8)

    def test_uncertified_reported(self):
        p = ArmParams(r=1.0, a0=0.0, a1=1.0)
        # Threshold at the Sturmian fixed point: no period <= 8 certifiable.
        lo, hi = sturmian_fixed_point(p, (3.0 - math.sqrt(5.0)) / 2.0, 30)
        tw = threshold_word(p, 0.5 * (lo + hi), 8)
        assert not tw.periodic
        assert len(tw.word) == 8
