"""Beta laws, matrix beta densities, and compression moment formulas."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats

from crbcompress import betalaw
from crbcompress.betalaw import (
    BetaLaw,
    MatrixBetaLaw,
    beta_cdf,
    beta_pdf,
    beta_quantile,
    beta_sf,
    beta_tails_pdf,
    crb_ratio_law,
    eig_joint_logpdf,
    fim_after_logpdf,
    kl_ratio_law,
    ln_cmv_gamma,
    matrix_beta_logpdf,
    moments,
)
from crbcompress.errors import BadShape, DomainError, NoConvergence, NotPositiveDefinite
from oracles import logdet_hpd

LAWS = [
    BetaLaw(0.5, 0.5),
    BetaLaw(1.0, 1.0),
    BetaLaw(2.0, 5.0),
    BetaLaw(7.0, 8.0),
    BetaLaw(63.0, 64.0),
    BetaLaw(200.0, 200.0),
    BetaLaw(3.0, 0.5),
]


def _hermitian_sqrt(a):
    w, v = np.linalg.eigh(a)
    return (v * np.sqrt(w)) @ v.conj().T


def _random_hpd(rng, p, shift=1.0):
    b = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    return b.conj().T @ b + shift * np.eye(p)


def test_ln_cmv_gamma_reduces_to_lgamma():
    for a in (1.0, 2.5, 37.0, 300.5):
        np.testing.assert_allclose(ln_cmv_gamma(1, a), math.lgamma(a), rtol=1e-14)


def test_ln_cmv_gamma_matches_mpmath():
    mpmath.mp.dps = 40
    for p in range(1, 6):
        for a in (float(p), p + 0.5, 37.0, 300.5):
            expected = Fraction(p * (p - 1), 2) * mpmath.log(mpmath.pi)
            for i in range(1, p + 1):
                expected += mpmath.loggamma(a - i + 1)
            np.testing.assert_allclose(ln_cmv_gamma(p, a), float(expected), rtol=1e-12)


def test_ln_cmv_gamma_domain():
    with pytest.raises(DomainError):
        ln_cmv_gamma(3, 2.0)
    with pytest.raises(DomainError):
        ln_cmv_gamma(0, 1.0)


def test_beta_law_moments_against_scipy():
    for law in LAWS:
        np.testing.assert_allclose(law.mean, scipy.stats.beta.mean(law.a, law.b), rtol=1e-13)
        np.testing.assert_allclose(law.variance, scipy.stats.beta.var(law.a, law.b), rtol=1e-13)
    with pytest.raises(DomainError):
        BetaLaw(0.0, 1.0)
    with pytest.raises(DomainError):
        BetaLaw(1.0, -2.0)


def test_beta_pdf_uniform_case():
    law = BetaLaw(1.0, 1.0)
    np.testing.assert_array_equal(beta_pdf(law, np.linspace(0.0, 1.0, 11)), np.ones(11))


def test_beta_pdf_matches_scipy():
    xs = np.concatenate([[1e-8], np.linspace(0.01, 0.99, 23), [1.0 - 1e-8]])
    for law in LAWS:
        ours = beta_pdf(law, xs)
        ref = scipy.stats.beta.pdf(xs, law.a, law.b)
        np.testing.assert_allclose(ours, ref, rtol=1e-11)


def test_beta_pdf_integrates_to_one():
    for law in (BetaLaw(0.5, 0.5), BetaLaw(2.0, 5.0), BetaLaw(63.0, 64.0)):
        total, _ = scipy.integrate.quad(lambda x: beta_pdf(law, x), 0.0, 1.0, limit=200)
        np.testing.assert_allclose(total, 1.0, rtol=1e-8)


def test_beta_cdf_matches_scipy():
    # 5e-12 absolute: scipy's own betainc is off by ~1e-12 in the far
    # tails of the arcsine law, see the mpmath spot checks below
    xs = np.concatenate([[0.0, 1e-9, 1e-4], np.linspace(0.02, 0.98, 25), [1.0 - 1e-9, 1.0]])
    for law in LAWS:
        ours = beta_cdf(law, xs)
        ref = scipy.special.betainc(law.a, law.b, xs)
        assert np.max(np.abs(ours - ref)) < 5e-12
        interior = (ref > 1e-250) & (ref < 1.0)
        np.testing.assert_allclose(ours[interior], ref[interior], rtol=1e-9)


def test_beta_cdf_matches_mpmath_in_the_tails():
    mpmath.mp.dps = 40
    points = [
        (0.5, 0.5, 1.0 - 1e-9),
        (0.5, 0.5, 1e-9),
        (63.0, 64.0, 0.05),
        (200.0, 200.0, 0.25),
        (3.0, 0.5, 0.999),
    ]
    for a, b, x in points:
        ref = float(mpmath.betainc(a, b, 0, mpmath.mpf(x), regularized=True))
        np.testing.assert_allclose(beta_cdf(BetaLaw(a, b), x), ref, rtol=1e-12)


def test_beta_cdf_edges_and_monotonicity():
    law = BetaLaw(63.0, 64.0)
    assert beta_cdf(law, 0.0) == 0.0
    assert beta_cdf(law, 1.0) == 1.0
    grid = beta_cdf(law, np.linspace(0.0, 1.0, 101))
    assert np.all(np.diff(grid) >= 0.0)
    with pytest.raises(DomainError):
        beta_cdf(law, 1.5)
    with pytest.raises(DomainError):
        beta_cdf(law, math.nan)


def test_beta_quantile_round_trip():
    # tail tolerance 1e-9: near the support edges one ulp of x moves the
    # cdf by pdf(x) * ulp, which reaches ~2e-10 for the steep laws here
    tails = np.array([1e-6, 1e-4, 1.0 - 1e-4, 1.0 - 1e-6])
    central = np.linspace(0.01, 0.99, 21)
    for law in LAWS:
        xs = beta_quantile(law, central)
        assert np.all((xs > 0.0) & (xs < 1.0))
        assert np.max(np.abs(beta_cdf(law, xs) - central)) < 1e-12
        xt = beta_quantile(law, tails)
        assert np.all((xt > 0.0) & (xt < 1.0))
        assert np.max(np.abs(beta_cdf(law, xt) - tails)) < 1e-9
    with pytest.raises(DomainError):
        beta_quantile(BetaLaw(2.0, 2.0), 0.0)
    with pytest.raises(DomainError):
        beta_quantile(BetaLaw(2.0, 2.0), 1.0)


def test_beta_quantile_matches_scipy():
    qs = np.linspace(0.001, 0.999, 17)
    for law in LAWS:
        ref = scipy.stats.beta.ppf(qs, law.a, law.b)
        np.testing.assert_allclose(beta_quantile(law, qs), ref, atol=1e-11)


def test_beta_quantile_tails_match_betaincinv():
    # deep in both tails the answer must be right in x, not only in the
    # cdf: an absolute cdf stop at these q lands far from the quantile
    qs = [1e-15, 1e-12, 1e-6, 1.0 - 1e-9]
    for a, b in [(15, 16), (63, 64), (256, 768), (4997, 5000)]:
        law = BetaLaw(float(a), float(b))
        ref = scipy.special.betaincinv(a, b, qs)
        np.testing.assert_allclose(beta_quantile(law, qs), ref, rtol=1e-10)


def test_beta_quantile_far_below_the_mean_of_small_first_shapes():
    # quantiles like 1e-137, out of reach of halving down from the mean
    # in the iteration's 200 steps; the fifth case is the upper tail's.
    # The last three lie near 1e-100 on both sides of the median, where
    # the normal start and the tails' terms near 1 are decades above
    for a, b, q in [(0.0683, 86088.6, 1e-9), (0.2, 50.0, 1e-12), (0.05, 0.05, 1e-6),
                    (0.5, 3.0, 1e-15), (2.0, 1.5, 1.0 - 1e-12),
                    (0.0029208133567420642, 3086.5668209763994, 0.4831531895656017),
                    (0.002, 419.2, 0.673), (0.0011, 2.2, 0.763)]:
        ref = scipy.special.betaincinv(a, b, q)
        np.testing.assert_allclose(beta_quantile(BetaLaw(a, b), q), ref, rtol=1e-10, err_msg=f"{a}, {b}, {q}")


def _quantile_sweep(seed, draws=3000):
    """(a, b, q, scipy quantile): a, b = 10^U(-3, 6), q uniform or 10^U(-15, -1), mirrored half the time.

    Only points where betaincinv gives a normal double are kept.
    """
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        a, b = 10.0 ** rng.uniform(-3, 6, 2)
        q = rng.uniform() if rng.uniform() < 0.5 else 10.0 ** rng.uniform(-15, -1)
        if rng.uniform() < 0.5:
            q = 1.0 - q
        if not 0.0 < q < 1.0:
            continue
        ref = scipy.special.betaincinv(a, b, q)
        if np.finfo(float).tiny <= ref < 1.0:
            yield float(a), float(b), float(q), float(ref)


def test_beta_quantile_matches_betaincinv_on_a_random_sweep():
    # 30 of these points raised NoConvergence, all with a < 0.005 and a
    # quantile below 1e-60, on both sides of the median
    points = list(_quantile_sweep(0))
    assert len(points) > 2400
    for a, b, q, ref in points:
        x = beta_quantile(BetaLaw(a, b), q)
        np.testing.assert_allclose(x, ref, rtol=1e-10, err_msg=f"{a!r}, {b!r}, {q!r}")


def test_beta_quantile_below_the_smallest_normal_double():
    # the quantile is subnormal, 4.15e-320, where the leading term
    # (q a B(a, b))^(1/a) is exact; the density there exceeds the largest
    # double, so it is inf and no Newton step is taken
    law = BetaLaw(0.028519160127865695, 294672.2562938283)
    q = 1.1333009114313853e-09
    x = beta_quantile(law, q)
    assert 0.0 < x < np.finfo(float).tiny
    assert beta_cdf(law, math.nextafter(x, 0.0)) <= q <= beta_cdf(law, math.nextafter(x, 1.0))
    assert beta_pdf(law, x) == math.inf
    assert beta_tails_pdf(law, x)[2] == math.inf


# The quantile points of the laws-plan benchmark's oracle table
ORACLE_QUANTILE_LAWS = [(15, 16), (63, 64), (256, 768), (4997, 5000), (9999, 90000), (499999, 500000)]
ORACLE_QUANTILE_QS = [1e-15, 1e-12, 1e-6, 0.01, 0.5, 0.99, 1.0 - 1e-6, 1.0 - 1e-9]


def test_beta_quantile_tail_evaluations(monkeypatch):
    # a count, not a timing, so it repeats exactly; without the
    # Cornish-Fisher terms for shapes >= 50 the normal start takes 142
    calls = 0
    tails = betalaw._tails

    def counting(k, x):
        nonlocal calls
        calls += 1
        return tails(k, x)

    monkeypatch.setattr(betalaw, "_tails", counting)
    for a, b in ORACLE_QUANTILE_LAWS:
        xs = [beta_quantile(BetaLaw(float(a), float(b)), q) for q in ORACLE_QUANTILE_QS]
        np.testing.assert_allclose(xs, scipy.special.betaincinv(a, b, ORACLE_QUANTILE_QS), rtol=1e-10)
    assert calls == 117


def test_beta_quantile_starts_at_the_tail_term_inside_the_unit_interval():
    # the normal start of Beta(0.001, 0.001), 0.16-0.37 here, lies inside
    # (0, 1) but hundreds of decades above quantiles like 1e-222; the
    # tail term's point lies between them.  The last case is the upper
    # tail's mirror (normal start 0.14, tail-term point 0.99)
    for a, b, q in [(0.001, 0.001, 0.25), (0.001, 0.001, 0.3), (0.001, 0.001, 0.4),
                    (0.0005, 0.2, 0.999)]:
        ref = scipy.special.betaincinv(a, b, q)
        np.testing.assert_allclose(beta_quantile(BetaLaw(a, b), q), ref, rtol=1e-10, err_msg=f"{a}, {b}, {q}")


def test_beta_quantile_below_the_smallest_double_is_zero():
    # I_x ~ x^a / (a B(a, b)) puts these quantiles near 1e-699, 1e-398
    # and 1e-30000; the cdf at the smallest positive double already
    # exceeds q.  At q = 0.2 the iteration starts from the normal
    # approximation, at the others from the tail's leading term
    tiny = math.ulp(0.0)
    for a, b, q in [(0.001, 0.001, 0.1), (0.001, 0.001, 0.2), (0.01, 5.0, 1e-300)]:
        law = BetaLaw(a, b)
        assert beta_cdf(law, tiny) > q
        assert beta_quantile(law, q) == 0.0


# Shapes where a lgamma-difference prefactor, a 200-step fraction or a
# fraction that cancels for skewed laws used to fail, and the two sides
# of the switch to Temme's expansion (both shapes above 100).
LARGE_SHAPES = [
    (0.5, 1e6),
    (5.0, 1e6),
    (1e6, 5.0),
    (1e6, 0.5),
    (101.0, 1e6),
    (150.0, 150.0),
    (100.5, 100.5),
    (2e4, 2e4),
    (9999.0, 90000.0),
    (5e5, 5e5),
]
SD_OFFSETS = (0, 1, -1, 3, -3, 6, -6, 12, -12, 30, -30)


def _large_shape_grid():
    """(a, b, k, x) with x = mean + k sd inside (0, 1)."""
    for a, b in LARGE_SHAPES:
        law = BetaLaw(a, b)
        sd = math.sqrt(law.variance)
        for k in SD_OFFSETS:
            x = law.mean + k * sd
            if 0.0 < x < 1.0:
                yield a, b, k, x


def _temme_oracle(a, b):
    """d_1..d_21 of Temme's series for Beta(a, b), a, b > 100, by the float recurrence of TOMS 708 basym.

    T(w), the inverse of t sqrt(A(t)), solves T T' = w (1 - r1 T - h T^2);
    1 + sum d_i w^i = w / T(w).  Also returns w0 = 1/sqrt(min(a, b) (1 + h)).
    """
    if a < b:
        h, r1 = a / b, (b - a) / b
    else:
        h, r1 = b / a, (b - a) / a
    t, d = [1.0], []
    for n in range(1, 22):
        tt = sum(t[j] * t[n - 2 - j] for j in range(n - 1))
        inner = sum(t[j] * t[n - j] for j in range(1, n))
        t.append((-r1 * t[-1] - h * tt) / (n + 2.0) - 0.5 * inner)
        d.append(-(t[n] + sum(d[j] * t[n - 1 - j] for j in range(n - 1))))
    return np.array(d), 1.0 / math.sqrt(min(a, b) * (h + 1.0))


def test_temme_table_matches_the_float_recurrence():
    # the coefficients of both orientations, weighted by w0^i as basym
    # weights them, where w0 is largest: the smaller shape just above 100
    for h in (1e-6, 1e-3, 0.1, 1.0 / 3.0, 0.5, 0.9, 1.0 - 1e-6, 1.0):
        a, b = 101.0, 101.0 / h
        for law in (BetaLaw(a, b), BetaLaw(b, a)):
            k = betalaw._Shapes(law)
            for row, shapes in ((0, (law.a, law.b)), (1, (law.b, law.a))):
                ref, w0 = _temme_oracle(*shapes)
                assert k.w0 == w0
                weights = w0 ** np.arange(1, 22)
                err = np.abs(k.temme()[row] - ref) * weights
                assert np.max(err) <= np.finfo(float).eps / 8, (h, law, row)


def _mp_lower_tail(a, b, x):
    """I_x(a, b) by the classical continued fraction (Lentz) at 50 digits."""
    lnb = mpmath.loggamma(a) + mpmath.loggamma(b) - mpmath.loggamma(a + b)
    prefactor = mpmath.exp(a * mpmath.log(x) + b * mpmath.log1p(-x) - lnb) / a
    c = mpmath.mpf(1)
    d = 1 / (1 - (a + b) * x / (a + 1))
    h = d
    for m in range(1, 100_000):
        for aa in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1 / (1 + aa * d)
            c = 1 + aa / c
            h *= d * c
        if abs(d * c - 1) < mpmath.mpf(10) ** -40:
            return prefactor * h
    raise AssertionError("oracle fraction did not converge")


def _mp_tails(a, b, x):
    """Both tails at the double x, the smaller one from the fraction where it converges fast."""
    with mpmath.workdps(50):
        a, b, x = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)
        if x <= (a + 1) / (a + b + 2):
            lower = _mp_lower_tail(a, b, x)
            return float(lower), float(1 - lower)
        upper = _mp_lower_tail(b, a, 1 - x)
        return float(1 - upper), float(upper)


def test_mp_tail_oracle_matches_mpmath_betainc():
    points = [(2.0, 3.0, 0.3), (63.0, 64.0, 0.05), (0.5, 0.5, 1e-9), (3.0, 0.5, 0.999), (200.0, 200.0, 0.6)]
    for a, b, x in points:
        with mpmath.workdps(50):
            ref = mpmath.betainc(a, b, 0, x, regularized=True)
            expected = (float(ref), float(1 - ref))
        np.testing.assert_allclose(_mp_tails(a, b, x), expected, rtol=1e-14)


def test_beta_tails_on_large_shapes_match_the_mp_oracle():
    # no point raises: Beta(5e5, 5e5) at its mean used to exhaust the
    # fraction, and the skewed shapes were off by up to 1e-9
    for a, b, k, x in _large_shape_grid():
        lower, upper = _mp_tails(a, b, x)
        law = BetaLaw(a, b)
        np.testing.assert_allclose(beta_cdf(law, x), lower, rtol=1e-12, err_msg=f"{a}, {b}, k={k}")
        np.testing.assert_allclose(beta_sf(law, x), upper, rtol=1e-12, err_msg=f"{a}, {b}, k={k}")


def test_beta_tails_on_large_shapes_match_scipy():
    # scipy's own error decides the reference: its larger tail is one
    # minus the smaller (betainc at Beta(5, 1e6), mean + sd, is 5.3e-12
    # off), and at 30 sd it rounds (a + b) x, which moves Beta(5e5, 5e5)
    # at mean - 30 sd by 2.2e-12; the 50-digit oracle covers those points
    for a, b, k, x in _large_shape_grid():
        if abs(k) > 12:
            continue
        law = BetaLaw(a, b)
        lower, upper = scipy.special.betainc(a, b, x), scipy.special.betaincc(a, b, x)
        if lower <= upper:
            upper = 1.0 - lower
        else:
            lower = 1.0 - upper
        np.testing.assert_allclose(beta_cdf(law, x), lower, rtol=1e-12, err_msg=f"{a}, {b}, k={k}")
        np.testing.assert_allclose(beta_sf(law, x), upper, rtol=1e-12, err_msg=f"{a}, {b}, k={k}")


def test_beta_pdf_on_large_shapes_matches_mpmath():
    for a, b, k, x in _large_shape_grid():
        with mpmath.workdps(50):
            A, B, X = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)
            lnb = mpmath.loggamma(A) + mpmath.loggamma(B) - mpmath.loggamma(A + B)
            ref = float(mpmath.exp((A - 1) * mpmath.log(X) + (B - 1) * mpmath.log1p(-X) - lnb))
        pdf = beta_pdf(BetaLaw(a, b), x)
        np.testing.assert_allclose(pdf, ref, rtol=1e-12, err_msg=f"{a}, {b}, k={k}")


def test_beta_sf_and_cdf_are_complementary():
    xs = np.concatenate([[0.0, 1e-9], np.linspace(0.02, 0.98, 25), [1.0 - 1e-9, 1.0]])
    for law in LAWS:
        total = beta_cdf(law, xs) + beta_sf(law, xs)
        np.testing.assert_allclose(total, 1.0, rtol=0.0, atol=2.0 * np.finfo(float).eps)


def _switch_windows(a, b, width):
    """Adjacent doubles around both |lambda| = 0.03 min(a, b) switch points."""
    for sign in (1.0, -1.0):
        x0 = (a - sign * 0.03 * min(a, b)) / (a + b)
        yield x0 + np.arange(-width, width + 1) * np.spacing(x0)


def test_temme_switch_agrees_with_the_fraction_at_adjacent_doubles():
    # evaluate both methods at the doubles on both sides of the switch,
    # through the scalar and the array kernel; the region rule itself is
    # exercised by the tests above
    for a, b in [(100.5, 100.5), (150.0, 150.0), (256.0, 768.0), (101.0, 1e6), (1e6, 101.0),
                 (2e4, 2e4), (9999.0, 90000.0), (5e5, 5e5)]:
        k = betalaw._Shapes(BetaLaw(a, b))
        for xs in _switch_windows(a, b, 2):
            ys = 1.0 - xs
            lams = betalaw._lambda(a, b, xs)
            for x, y, lam in zip(xs, ys, lams):
                prefactor = math.exp(betalaw._ln_prefactor(k, x, y, lam))
                if lam >= 0.0:
                    fraction = prefactor * betalaw._bfrac(a, b, x, y, lam)[0]
                else:
                    fraction = prefactor * betalaw._bfrac(b, a, y, x, -lam)[0]
                temme = betalaw._basym(k, lam)
                np.testing.assert_allclose(temme, fraction, rtol=1e-13, err_msg=f"{a}, {b}, x={x!r}")
            below = lams >= 0.0
            prefactor = np.exp(betalaw._ln_prefactor_array(k, xs, ys, lams))
            fraction = prefactor * betalaw._bfrac_array(
                np.where(below, a, b), np.where(below, b, a),
                np.where(below, xs, ys), np.where(below, ys, xs), np.abs(lams),
            )
            temme = betalaw._basym_array(k, lams)
            np.testing.assert_allclose(temme, fraction, rtol=1e-13, err_msg=f"{a}, {b}, array")


def test_tails_are_monotone_across_the_temme_switch():
    # shapes whose tails move by more than their rounding over one ulp
    for a, b in [(2e4, 2e4), (9999.0, 90000.0), (5e5, 5e5), (1e6, 101.0)]:
        law = BetaLaw(a, b)
        for xs in _switch_windows(a, b, 4):
            # the window straddles the switch: by the region rule, some of
            # its points use the expansion and the others the fraction
            expansion = np.abs(betalaw._lambda(a, b, xs)) <= 0.03 * min(a, b)
            assert 0 < np.count_nonzero(expansion) < xs.size
            scalar = [(beta_cdf(law, float(x)), beta_sf(law, float(x))) for x in xs]
            for lower, upper in [(beta_cdf(law, xs), beta_sf(law, xs)), np.array(scalar).T]:
                assert np.all(np.diff(lower) >= 0.0)
                assert np.all(np.diff(upper) <= 0.0)


def test_beta_cdf_is_monotone_near_the_one_percent_point():
    # Beta(9999, 90000) around its 0.01 quantile x = 0.0978: a lgamma
    # prefactor made the cdf jitter by ~7e-12 between adjacent doubles
    law = BetaLaw(9999.0, 90000.0)
    x0 = scipy.special.betaincinv(9999.0, 90000.0, 0.01)
    xs = x0 + np.arange(-50, 51) * np.spacing(x0)
    assert np.all(np.diff(beta_cdf(law, xs)) > 0.0)


def test_beta_quantile_at_the_median_of_a_million_sample_law():
    law = BetaLaw(499999.0, 500000.0)
    ref = scipy.special.betaincinv(499999.0, 500000.0, 0.5)
    np.testing.assert_allclose(beta_quantile(law, 0.5), ref, rtol=1e-12)


def _agreement_cases():
    """(law, xs): the LAWS on a grid from 0 to 1, the large-shape grid with x in {0, 1}.

    The last case has more points than one block of the array fraction
    holds steps x points, so its first blocks run one step each and its
    last ones, with few points left, run full blocks.
    """
    grid = np.concatenate([[0.0, 1e-9, 1e-4], np.linspace(0.02, 0.98, 25), [1.0 - 1e-9, 1.0]])
    for law in LAWS:
        yield law, grid
    for a, b in LARGE_SHAPES:
        xs = [x for aa, bb, _, x in _large_shape_grid() if (aa, bb) == (a, b)]
        yield BetaLaw(a, b), np.array([0.0, *xs, 1.0])
    assert 20_000 > betalaw._CF_BLOCK_CELLS
    yield BetaLaw(63.0, 64.0), np.linspace(0.0, 1.0, 20_000)


def test_tails_pdf_is_each_function_bit_for_bit():
    # one kernel evaluation, the three values of three calls, Temme's
    # region and the support edges included
    for law, xs in _agreement_cases():
        for x in xs[:: max(1, xs.size // 64)].tolist():
            assert beta_tails_pdf(law, x) == (beta_cdf(law, x), beta_sf(law, x), beta_pdf(law, x)), (law, x)
    with pytest.raises(DomainError):
        beta_tails_pdf(BetaLaw(2.0, 3.0), 1.5)


@pytest.mark.parametrize("fn", [beta_cdf, beta_sf, beta_pdf], ids=lambda fn: fn.__name__)
def test_array_kernel_agrees_with_the_scalar_kernel(fn):
    # 0-d inputs take the scalar kernel and arrays the numpy one; they
    # share the formulas but not every rounding (numpy's log and exp)
    for law, xs in _agreement_cases():
        scalar = np.array([fn(law, float(x)) for x in xs])
        assert np.count_nonzero(scalar > 0.0) > 0
        # rtol only: exact wherever the scalar value is 0 (or infinite)
        np.testing.assert_allclose(fn(law, xs), scalar, rtol=1e-13, atol=0.0, err_msg=f"{law}")


def test_fractions_raise_noconvergence_past_the_step_limit(monkeypatch):
    # the fraction takes 10 steps for Beta(0.5, 0.5) at 0.45 and 33 for
    # Beta(1000, 1000) at 0.48; the array kernel sizes its first block
    # from the point with the smaller lam, the first one, so the second
    # is left unconverged by its blocks, not by that first probe
    monkeypatch.setattr(betalaw, "_CF_MAX_ITER", 20)
    points = [(0.5, 0.5, 0.45), (1000.0, 1000.0, 0.48)]
    a, b, x = (np.array(v) for v in zip(*points))
    lam = betalaw._lambda(a, b, x)
    assert lam[0] < lam[1]
    assert betalaw._bfrac(0.5, 0.5, 0.45, 0.55, float(lam[0]))[1] == 10
    with pytest.raises(NoConvergence):
        betalaw._bfrac(1000.0, 1000.0, 0.48, 0.52, float(lam[1]))
    with pytest.raises(NoConvergence):
        betalaw._bfrac_array(a, b, x, 1.0 - x, lam)
    # and through the public functions, where the first block's probe is
    # the point that does not converge
    law = BetaLaw(1000.0, 1000.0)
    for arg in (0.48, np.array([0.3, 0.48])):
        with pytest.raises(NoConvergence):
            beta_cdf(law, arg)


@pytest.mark.parametrize("fn", [beta_cdf, beta_sf, beta_pdf], ids=lambda fn: fn.__name__)
def test_array_inputs_keep_their_shape_and_edges(fn):
    law = BetaLaw(63.0, 64.0)
    empty = fn(law, np.array([]))
    assert empty.shape == (0,) and empty.dtype == np.float64
    # a 0-d array is a scalar call and gives a float
    zero_d = fn(law, np.array(0.45))
    assert isinstance(zero_d, float) and zero_d == fn(law, 0.45)
    one = fn(law, np.array([0.45]))
    assert one.shape == (1,)
    np.testing.assert_allclose(one[0], zero_d, rtol=1e-13)
    grid = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    out = fn(law, grid)
    assert out.shape == (3, 4)
    np.testing.assert_array_equal(out.ravel(), fn(law, grid.ravel()))
    # integer points are the edges, computed as floats
    edges = fn(law, np.array([0, 1]))
    assert edges.dtype == np.float64
    expected = {"beta_cdf": [0.0, 1.0], "beta_sf": [1.0, 0.0], "beta_pdf": [0.0, 0.0]}[fn.__name__]
    np.testing.assert_array_equal(edges, expected)
    np.testing.assert_array_equal(fn(law, [0.0, 1.0]), expected)
    for bad in ([0.5, math.nan], [[0.2, 0.3], [1.5, 0.4]], [-1e-300], [0.5, math.inf]):
        with pytest.raises(DomainError):
            fn(law, np.array(bad))


def test_matrix_beta_law_validation():
    with pytest.raises(DomainError):
        MatrixBetaLaw(p=0, m=4, n=12)
    with pytest.raises(DomainError):
        MatrixBetaLaw(p=3, m=2, n=12)
    with pytest.raises(DomainError):
        MatrixBetaLaw(p=3, m=4, n=6)


def test_matrix_beta_scalar_case_reduces_to_beta():
    law = MatrixBetaLaw(p=1, m=3, n=9)
    uni = BetaLaw(3.0, 6.0)
    for x in (0.05, 0.3, 0.62, 0.97):
        np.testing.assert_allclose(
            math.exp(matrix_beta_logpdf(np.array([[x]]), law)),
            beta_pdf(uni, x),
            rtol=1e-12,
        )


def test_matrix_beta_scalar_midpoint_value():
    # p=1, m=2, n=4 at one half: Beta(2,2) density = 6 * 0.25 = 1.5
    law = MatrixBetaLaw(p=1, m=2, n=4)
    np.testing.assert_allclose(
        math.exp(matrix_beta_logpdf(np.array([[0.5]]), law)), 1.5, rtol=1e-12
    )


def _two_by_two_point(a, b, c):
    return np.array([[a, c], [np.conj(c), b]])


def test_matrix_beta_matches_determinant_form():
    # independent arithmetic for 2x2 points: det V and det(I - V) directly
    law = MatrixBetaLaw(p=2, m=4, n=12)
    c5 = law.log_norm()
    rng = np.random.default_rng(202)
    checked = 0
    while checked < 50:
        a, b = rng.uniform(size=2)
        c = (rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.5, 0.5))
        det_v = a * b - abs(c) ** 2
        det_iv = (1.0 - a) * (1.0 - b) - abs(c) ** 2
        if det_v <= 1e-6 or det_iv <= 1e-6:
            continue
        expected = c5 + (law.m - 2) * math.log(det_v) + (law.n - law.m - 2) * math.log(det_iv)
        np.testing.assert_allclose(
            matrix_beta_logpdf(_two_by_two_point(a, b, c), law), expected, rtol=1e-10
        )
        checked += 1


def test_matrix_beta_normalizer_monte_carlo():
    # integrate the determinant form over its support by uniform sampling
    # of (a, b, Re c, Im c) in a unit-volume box containing the support
    law = MatrixBetaLaw(p=2, m=4, n=12)
    c5 = math.exp(law.log_norm())
    rng = np.random.default_rng(2024)
    total = 0.0
    draws = 0
    for _ in range(8):
        size = 250_000
        a = rng.uniform(size=size)
        b = rng.uniform(size=size)
        c2 = rng.uniform(-0.5, 0.5, size=size) ** 2 + rng.uniform(-0.5, 0.5, size=size) ** 2
        det_v = a * b - c2
        det_iv = (1.0 - a) * (1.0 - b) - c2
        inside = (det_v > 0.0) & (det_iv > 0.0)
        total += np.sum(c5 * det_v[inside] ** 2 * det_iv[inside] ** 6)
        draws += size
    assert abs(total / draws - 1.0) < 0.05


def test_matrix_beta_boundary_and_domain():
    law = MatrixBetaLaw(p=2, m=4, n=12)
    assert matrix_beta_logpdf(np.eye(2), law) == -math.inf
    assert matrix_beta_logpdf(np.zeros((2, 2)), law) == -math.inf
    # with m = p the determinant exponent vanishes and zero is regular
    flat = MatrixBetaLaw(p=2, m=2, n=8)
    np.testing.assert_allclose(matrix_beta_logpdf(np.zeros((2, 2)), flat), flat.log_norm())
    with pytest.raises(DomainError):
        matrix_beta_logpdf(1.5 * np.eye(2), law)
    with pytest.raises(DomainError):
        matrix_beta_logpdf(-0.1 * np.eye(2), law)
    with pytest.raises(BadShape):
        matrix_beta_logpdf(np.eye(3), law)


def test_eig_joint_scalar_case():
    law = MatrixBetaLaw(p=1, m=3, n=9)
    for x in (0.1, 0.5, 0.9):
        np.testing.assert_allclose(
            eig_joint_logpdf([x], law), math.log(beta_pdf(BetaLaw(3.0, 6.0), x)), rtol=1e-12
        )


def test_eig_joint_symmetry_and_ties():
    law = MatrixBetaLaw(p=2, m=4, n=12)
    assert eig_joint_logpdf([0.3, 0.7], law) == eig_joint_logpdf([0.7, 0.3], law)
    assert eig_joint_logpdf([0.4, 0.4], law) == -math.inf
    with pytest.raises(DomainError):
        eig_joint_logpdf([0.5, 1.2], law)
    with pytest.raises(BadShape):
        eig_joint_logpdf([0.5], law)


def test_eig_joint_integrates_to_factorial():
    # the symmetric density integrates to p! over the unit square; the
    # integrand is polynomial, so 24-node Gauss-Legendre is exact
    law = MatrixBetaLaw(p=2, m=4, n=12)
    nodes, weights = np.polynomial.legendre.leggauss(24)
    x = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    total = 0.0
    for i in range(24):
        for j in range(24):
            if i == j:
                continue
            total += w[i] * w[j] * math.exp(eig_joint_logpdf([x[i], x[j]], law))
    np.testing.assert_allclose(total, 2.0, rtol=1e-6)


def _cofactor_det(a):
    """Brute-force determinant by cofactor expansion along the first row."""
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0 + 0.0j
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1) ** j * a[0, j] * _cofactor_det(minor)
    return total


def test_logdet_identity_and_diagonal():
    assert logdet_hpd(np.eye(5)) == 0.0
    np.testing.assert_allclose(logdet_hpd(np.diag([2.0, 3.0])), np.log(6.0), rtol=1e-14)


def test_logdet_matches_cofactor_expansion():
    rng = np.random.default_rng(18)
    a = _random_hpd(rng, 5)
    det = _cofactor_det(a)
    assert abs(det.imag) < 1e-8 * abs(det.real)
    np.testing.assert_allclose(logdet_hpd(a), np.log(det.real), rtol=1e-9)


def test_logdet_singular():
    rng = np.random.default_rng(19)
    col = rng.standard_normal((4, 1)) + 1j * rng.standard_normal((4, 1))
    with pytest.raises(NotPositiveDefinite):
        logdet_hpd(col @ col.conj().T)


def test_fim_after_identity_reference():
    law = MatrixBetaLaw(p=2, m=5, n=16)
    rng = np.random.default_rng(77)
    for _ in range(10):
        w = 0.98 * _random_hpd(rng, 2, shift=0.2)
        w /= np.linalg.eigvalsh(w)[-1] * 1.5
        np.testing.assert_allclose(
            fim_after_logpdf(w, np.eye(2), law), matrix_beta_logpdf(w, law), rtol=1e-12
        )


def test_fim_after_change_of_variables():
    # J^{1/2} W J^{H/2} has density equal to the matrix beta density at W
    # divided by det(J)^p
    law = MatrixBetaLaw(p=3, m=6, n=20)
    rng = np.random.default_rng(78)
    j = _random_hpd(rng, 3)
    root = _hermitian_sqrt(j)
    for _ in range(10):
        w = _random_hpd(rng, 3, shift=0.3)
        w /= np.linalg.eigvalsh(w)[-1] * 1.4
        j_hat = root @ w @ root.conj().T
        lhs = fim_after_logpdf(j_hat, j, law)
        rhs = matrix_beta_logpdf(w, law) - 3.0 * np.sum(np.log(np.linalg.eigvalsh(j)))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


def test_fim_after_inverse_change_of_variables():
    # pushing the density through K = Jhat^{-1} multiplies by det(K)^{-2p};
    # the result matches the direct formula in the inverse variable
    law = MatrixBetaLaw(p=2, m=6, n=18)
    rng = np.random.default_rng(79)
    j = _random_hpd(rng, 2)
    root = _hermitian_sqrt(j)
    w = np.diag([0.6, 0.3]).astype(complex)
    j_hat = root @ w @ root.conj().T
    k_hat = np.linalg.inv(j_hat)
    sign, ld = np.linalg.slogdet(j @ k_hat - np.eye(2))
    assert abs(sign - 1.0) < 1e-8
    direct = (
        law.log_norm()
        + (law.p - law.n) * logdet_hpd(j)
        - law.n * logdet_hpd(k_hat)
        + (law.n - law.m - law.p) * ld
    )
    via_change = fim_after_logpdf(j_hat, j, law) + 2.0 * law.p * logdet_hpd(j_hat)
    np.testing.assert_allclose(direct, via_change, rtol=1e-10)


def test_fim_after_support_checks():
    law = MatrixBetaLaw(p=2, m=5, n=16)
    with pytest.raises(DomainError):
        fim_after_logpdf(1.5 * np.eye(2), np.eye(2), law)
    with pytest.raises(DomainError):
        fim_after_logpdf(-0.2 * np.eye(2), np.eye(2), law)
    with pytest.raises(DomainError):
        fim_after_logpdf(np.eye(2), np.zeros((2, 2)), law)
    assert fim_after_logpdf(np.eye(2), np.eye(2), law) == -math.inf


@pytest.mark.parametrize("p", [2, 3])
def test_fim_after_boundary_at_non_identity_j(p):
    # Jhat = J and Jhat = 0 are the boundary for any J, not only J = I:
    # the spectrum of I - W comes from J - Jhat, which is exactly 0 at J
    law = MatrixBetaLaw(p=p, m=p + 2, n=2 * p + 5)
    rng = np.random.default_rng(80 + p)
    for _ in range(5):
        j = _random_hpd(rng, p, shift=0.1)
        assert fim_after_logpdf(j, j, law) == -math.inf
        assert fim_after_logpdf(np.zeros((p, p)), j, law) == -math.inf


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_fim_after_matches_log_determinant_formula(p):
    # log_norm + (p - n) ln|J| + (m - p) ln|Jhat| + (n - m - p) ln|J - Jhat|,
    # each determinant from the test oracle, at interior points
    law = MatrixBetaLaw(p=p, m=p + 3, n=2 * p + 7)
    rng = np.random.default_rng(90 + p)
    j = _random_hpd(rng, p)
    root = _hermitian_sqrt(j)
    for _ in range(20):
        w = _random_hpd(rng, p, shift=0.3)
        w /= np.linalg.eigvalsh(w)[-1] * 1.3
        j_hat = root @ w @ root.conj().T
        expected = (
            law.log_norm()
            + (law.p - law.n) * logdet_hpd(j)
            + (law.m - law.p) * logdet_hpd(j_hat)
            + (law.n - law.m - law.p) * logdet_hpd(j - j_hat)
        )
        np.testing.assert_allclose(fim_after_logpdf(j_hat, j, law), expected, rtol=1e-10)


@pytest.mark.parametrize("p", [2, 3])
def test_eig_joint_is_matrix_density_times_vandermonde(p):
    # ln Gamma~_p(p) = p(p-1)/2 ln pi + ln 1! + ... + ln (p-1)!
    law = MatrixBetaLaw(p=p, m=p + 2, n=2 * p + 6)
    ln_gamma_pp = 0.5 * p * (p - 1) * math.log(math.pi) + sum(
        math.lgamma(k) for k in range(1, p + 1)
    )
    rng = np.random.default_rng(100 + p)
    for _ in range(10):
        lam = rng.uniform(0.02, 0.98, size=p)
        vandermonde = sum(
            math.log(abs(lam[i] - lam[k])) for i in range(p) for k in range(i + 1, p)
        )
        expected = p * (p - 1) * math.log(math.pi) - ln_gamma_pp + 2.0 * vandermonde
        got = eig_joint_logpdf(lam, law) - matrix_beta_logpdf(np.diag(lam), law)
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-10)


def test_crb_ratio_law_parameters():
    law = crb_ratio_law(128, 64, 2)
    assert (law.a, law.b) == (63.0, 64.0)
    np.testing.assert_allclose(law.mean, 63.0 / 127.0, rtol=1e-15)
    assert crb_ratio_law(16, 8, 2) == BetaLaw(7.0, 8.0)
    with pytest.raises(DomainError):
        crb_ratio_law(16, 2, 2)
    with pytest.raises(DomainError):
        crb_ratio_law(16, 16, 2)
    with pytest.raises(DomainError):
        crb_ratio_law(16, 8, 0)


def test_kl_ratio_law_parameters():
    law = kl_ratio_law(32, 8)
    assert (law.a, law.b) == (8.0, 24.0)
    np.testing.assert_allclose(law.mean, 0.25, rtol=1e-15)
    assert kl_ratio_law(32, 1) == BetaLaw(1.0, 31.0)
    with pytest.raises(DomainError):
        kl_ratio_law(32, 32)
    with pytest.raises(DomainError):
        kl_ratio_law(32, 0)


def _exact_inverse_moments(a: Fraction, b: Fraction):
    # E[1/X] and var[1/X] for X ~ Beta(a, b), from the negative moments
    m1 = (a + b - 1) / (a - 1)
    m2 = (a + b - 1) * (a + b - 2) / ((a - 1) * (a - 2))
    return m1, m2 - m1 * m1


def test_moment_formulas_are_exact():
    for n, m, p in [(128, 64, 2), (16, 8, 2), (48, 24, 3), (200, 50, 5)]:
        a = Fraction(m - p + 1)
        b = Fraction(n - m)
        mean, var = _exact_inverse_moments(a, b)
        assert mean == Fraction(n - p, m - p)
        assert var == Fraction((n - m) * (n - p), (m - p - 1) * (m - p) ** 2)


def test_moments_reference_values():
    got = moments(128, 64, 2, np.eye(2), 0)
    np.testing.assert_allclose(got.mean_fim_scale, 0.5, rtol=1e-15)
    np.testing.assert_allclose(got.mean_crb, 126.0 / 62.0, rtol=1e-15)
    np.testing.assert_allclose(got.var_crb, float(Fraction(64 * 126, 61 * 62**2)), rtol=1e-14)
    small = moments(16, 8, 2, np.eye(2), 1)
    np.testing.assert_allclose(small.var_crb, 28.0 / 45.0, rtol=1e-14)


def test_moments_scale_with_the_uncompressed_bound():
    rng = np.random.default_rng(80)
    j = _random_hpd(rng, 3)
    crb_before = np.real(np.linalg.inv(j)[1, 1])
    got = moments(40, 10, 3, j, 1)
    np.testing.assert_allclose(got.mean_crb, 37.0 / 7.0 * crb_before, rtol=1e-12)
    np.testing.assert_allclose(got.var_crb, 30.0 * 37.0 / (6.0 * 49.0) * crb_before**2, rtol=1e-12)


def test_moments_degenerate_and_domain():
    full = moments(12, 12, 2, np.eye(2), 0)
    np.testing.assert_allclose(full.mean_crb, 1.0, rtol=1e-15)
    assert full.var_crb == 0.0
    with pytest.raises(DomainError):
        moments(12, 3, 2, np.eye(2), 0)
    with pytest.raises(DomainError):
        moments(8, 10, 2, np.eye(2), 0)
    with pytest.raises(NotPositiveDefinite):
        moments(12, 6, 2, np.zeros((2, 2)), 0)
    with pytest.raises(BadShape):
        moments(12, 6, 2, np.eye(3), 0)
    with pytest.raises(BadShape):
        moments(12, 6, 2, np.eye(2), 5)
