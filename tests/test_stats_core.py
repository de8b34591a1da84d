import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.special import ndtr

from mmtc_outage.stats_core import (
    _GRID_OVERSAMPLE,
    _bernoulli_factor,
    _cf_spectrum_grid,
    _gridded_masses,
    _jsd_rows,
    _ndtr,
    _ndtr_rows,
    _series_coefficients,
    _series_density,
    _series_tails,
    AtomicDistribution,
    DegenerateKernelError,
    DegenerateModelError,
    bell_complete,
    build_model,
    cf_density,
    collect_power_coefficients,
    exact_pmf,
    gram_charlier,
    gram_charlier_from_cumulants,
    hermite,
    jsd,
    sup_cdf_distance,
    tail_probability,
    truncated_kernel,
)


# ---------------------------------------------------------------------------
# polynomial building blocks


@pytest.mark.parametrize(
    "n,x,expected",
    [
        (0, 0.7, 1.0),
        (1, 0.7, 0.7),
        (2, 2.0, 3.0),          # x^2 - 1
        (3, 2.0, 2.0),          # x^3 - 3x
        (4, 1.5, -5.4375),      # x^4 - 6x^2 + 3
        (5, 2.0, -18.0),        # x^5 - 10x^3 + 15x
    ],
)
def test_hermite_hand_values(n, x, expected):
    assert hermite(n, x) == pytest.approx(expected, abs=1e-12)


def test_hermite_vectorized():
    x = np.linspace(-3, 3, 11)
    np.testing.assert_allclose(hermite(4, x), x**4 - 6 * x**2 + 3, atol=1e-10)


def test_bell_numbers():
    # complete Bell polynomial at all-ones arguments gives the Bell numbers
    ones = (1.0, 1.0, 1.0, 1.0, 1.0)
    assert [bell_complete(n, ones) for n in range(1, 6)] == [1, 2, 5, 15, 52]


def test_bell_hand_value_order5():
    args = (0.1, 0.2, 0.05, 0.01, 0.002)
    # x1^5 + 10 x1^3 x2 + 10 x1^2 x3 + 15 x1 x2^2 + 5 x1 x4 + 10 x2 x3 + x5
    expected = 1e-5 + 10 * 1e-3 * 0.2 + 10 * 0.01 * 0.05 + 15 * 0.1 * 0.04 \
        + 5 * 0.1 * 0.01 + 10 * 0.2 * 0.05 + 0.002
    assert bell_complete(5, args) == pytest.approx(expected, rel=1e-12)


def test_collected_series_coefficients():
    # series sum_n b_n He_n(x) regrouped as coefficients of powers of x
    b = (1.0, 0.1, 0.2, 0.05, 0.01, 0.002)
    a = collect_power_coefficients(b)
    expected = [
        1 - 0.2 + 3 * 0.01,
        0.1 - 3 * 0.05 + 15 * 0.002,
        0.2 - 6 * 0.01,
        0.05 - 10 * 0.002,
        0.01,
        0.002,
    ]
    np.testing.assert_allclose(a, expected, atol=1e-14)
    # cross-check: evaluate both forms at a few points
    for x in (-1.3, 0.2, 2.4):
        series = sum(bn * hermite(n, x) for n, bn in enumerate(b))
        poly = sum(c * x**k for k, c in enumerate(a))
        assert poly == pytest.approx(series, rel=1e-12)


# ---------------------------------------------------------------------------
# moments and cumulants


@pytest.mark.parametrize("p", [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
def test_single_term_cumulant_closed_forms(p):
    model = build_model([(1.0, p)], max_order=5)
    q = 1 - p
    expected = [
        p,
        p * q,
        p * q * (1 - 2 * p),
        p * q * (1 - 6 * p + 6 * p * p),
        p * q * (1 - 2 * p) * (1 - 12 * p + 12 * p * p),
    ]
    np.testing.assert_allclose(model.cumulants, expected, atol=1e-12)


def test_cumulants_scale_with_weight():
    a = 2.5
    m1 = build_model([(1.0, 0.3)], max_order=5)
    m2 = build_model([(a, 0.3)], max_order=5)
    for n in range(1, 6):
        assert m2.cumulant(n) == pytest.approx(a**n * m1.cumulant(n), rel=1e-12)


def test_spec_worked_examples():
    m = build_model([(2.0, 0.5)])
    assert m.mean == pytest.approx(1.0)
    assert m.variance == pytest.approx(1.0)
    assert m.support_bound == pytest.approx(2.0)

    assert build_model([(1.0, 0.5)], max_order=3).cumulant(3) == pytest.approx(0.0, abs=1e-15)

    m = build_model([(1.0, 0.3), (1.0, 0.3)])
    assert m.mean == pytest.approx(0.6)
    assert m.variance == pytest.approx(0.42)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0.01, 10.0, allow_nan=False),
            st.floats(0.0, 1.0, allow_nan=False),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_cumulant_additivity(terms):
    # cumulants of a sum of independent terms = sum of per-term cumulants
    whole = build_model(terms, max_order=5)
    parts = [build_model([t], max_order=5) for t in terms]
    for n in range(1, 6):
        total = sum(pm.cumulant(n) for pm in parts)
        scale = max(1.0, abs(total))
        assert abs(whole.cumulant(n) - total) < 1e-9 * scale


def test_empty_model_is_degenerate_point_mass():
    m = build_model([])
    assert m.mean == 0.0
    assert m.variance == 0.0
    with pytest.raises(DegenerateModelError):
        gram_charlier(m, order=0)


# ---------------------------------------------------------------------------
# exact enumeration


def test_exact_pmf_two_fair_terms():
    d = exact_pmf([(1.0, 0.5), (2.0, 0.5)])
    np.testing.assert_allclose(d.locations, [0.0, 1.0, 2.0, 3.0])
    np.testing.assert_allclose(d.masses, [0.25, 0.25, 0.25, 0.25])


def test_exact_pmf_always_on():
    d = exact_pmf([(1.0, 1.0)])
    np.testing.assert_allclose(d.locations, [1.0])
    np.testing.assert_allclose(d.masses, [1.0])


def test_exact_pmf_no_terms():
    d = exact_pmf([])
    np.testing.assert_allclose(d.locations, [0.0])
    np.testing.assert_allclose(d.masses, [1.0])


def test_exact_pmf_merges_coincident_sums():
    # 1 + 2 == 3, so the four patterns collapse to atoms {0,1,2,3,4,5,6}
    d = exact_pmf([(1.0, 0.5), (2.0, 0.5), (3.0, 0.5)])
    assert d.locations.size == 7
    assert d.masses[3] == pytest.approx(0.25)  # {3} and {1,2}


def test_exact_pmf_term_limit():
    terms = [(1.0, 0.5)] * 23
    with pytest.raises(ValueError, match="22"):
        exact_pmf(terms)


def test_exact_pmf_mean_matches_model():
    rng = np.random.default_rng(5)
    terms = list(zip(rng.uniform(0.1, 2.0, 10), rng.uniform(0.05, 0.95, 10)))
    d = exact_pmf(terms)
    m = build_model(terms)
    assert d.mean() == pytest.approx(m.mean, rel=1e-12)
    assert d.masses.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# characteristic-function inversion


@pytest.mark.parametrize("size", [1, 2, 3, 1000, 1025, _GRID_OVERSAMPLE * (1 << 15) + 1])
@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_bernoulli_factor_matches_direct_formula(size, p):
    # the last size is the half spectrum of cf_density's default 2^16-point
    # grid, whose phases reach ~3e6 rad; the direct formula itself rounds w*f
    # to eps*|w*f|, so the tolerance scales with the largest phase
    freqs = _cf_spectrum_grid(1.0, 2 * size)[0][:size]
    for w in (1e-3, 0.37, 1.0):
        direct = (1.0 - p) + p * np.exp(1j * (w * freqs))
        tol = 8.0 * np.finfo(float).eps * max(1.0, float(np.max(w * freqs)))
        out = np.empty(size, dtype=complex)
        assert _bernoulli_factor(p, w, freqs, out) is out
        np.testing.assert_allclose(out, direct, rtol=0, atol=tol)


def test_cf_density_single_term_masses():
    d = cf_density([(1.0, 0.3)], 1024)
    w = d.bin_width
    assert d.masses[int(0.0 // w)] == pytest.approx(0.7, abs=1e-3)
    assert d.masses[int(1.0 // w)] == pytest.approx(0.3, abs=1e-3)


def test_cf_density_grid_shape():
    d = cf_density([(1.0, 0.5), (0.5, 0.2)], 256)
    assert d.num_bins == 256
    assert d.lower == 0.0
    assert d.upper == pytest.approx(1.5 * (1 + 1 / 256))
    assert d.masses.sum() == pytest.approx(1.0, abs=1e-12)


def test_cf_density_rejects_bad_grid():
    with pytest.raises(ValueError, match="power of two"):
        cf_density([(1.0, 0.5)], 1000)
    with pytest.raises(ValueError, match="power of two"):
        cf_density([(1.0, 0.5)], 32)


def test_cf_density_empty_terms():
    d = cf_density([], 64)
    assert d.masses[0] == pytest.approx(1.0)


def test_cf_matches_enumeration_12_terms():
    rng = np.random.default_rng(42)
    terms = list(zip(10.0 ** rng.uniform(-3, 0, 12), rng.uniform(0.05, 0.5, 12)))
    exact = exact_pmf(terms)
    grid = cf_density(terms, 1 << 16)
    binned = exact.discretize(grid.lower, grid.upper, grid.num_bins)
    assert sup_cdf_distance(binned, grid) < 1e-3


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_cf_matches_enumeration_property(n_terms, seed):
    rng = np.random.default_rng(seed)
    terms = list(zip(rng.uniform(0.1, 3.0, n_terms), rng.uniform(0.05, 0.95, n_terms)))
    exact = exact_pmf(terms)
    grid = cf_density(terms, 1 << 10)
    binned = exact.discretize(grid.lower, grid.upper, grid.num_bins)
    assert sup_cdf_distance(binned, grid) < 1e-3


def test_cf_density_moments_match_model():
    rng = np.random.default_rng(9)
    terms = list(zip(rng.uniform(0.5, 2.0, 30), rng.uniform(0.1, 0.4, 30)))
    model = build_model(terms)
    d = cf_density(terms, 1 << 12)
    centers = d.grid + 0.5 * d.bin_width
    mean = float(np.dot(centers, d.masses))
    var = float(np.dot((centers - mean) ** 2, d.masses))
    assert mean == pytest.approx(model.mean, rel=1e-3)
    assert var == pytest.approx(model.variance, rel=1e-2)


# ---------------------------------------------------------------------------
# truncated kernel


def test_kernel_symmetric_truncation_mean():
    k = truncated_kernel(0.0, 1.0, -3.0, 3.0)
    assert k.kernel_raw_moments[0] == pytest.approx(0.0, abs=1e-15)


def test_kernel_wide_truncation_is_gaussian():
    k = truncated_kernel(0.0, 1.0, -8.0, 8.0)
    assert k.kernel_cumulants[1] == pytest.approx(1.0, abs=1e-6)


def test_kernel_far_truncation_cumulants():
    # +/-40 sigma: kernel cumulants collapse to the untruncated Gaussian's
    k = truncated_kernel(3.0, 2.0, 3.0 - 80.0, 3.0 + 80.0)
    assert k.kernel_cumulants[0] == pytest.approx(3.0, abs=1e-8)
    assert k.kernel_cumulants[1] == pytest.approx(4.0, abs=1e-8)
    for n in range(3, 6):
        assert k.kernel_cumulants[n - 1] == pytest.approx(0.0, abs=1e-8)


def test_kernel_moments_match_quadrature():
    # kernel_raw_moments[n-1] holds E[X^n]
    mu, sigma, lo, hi = 1.0, 2.0, 0.0, 5.0
    k = truncated_kernel(mu, sigma, lo, hi)
    for n in range(1, 6):
        val, _ = integrate.quad(lambda x, n=n: x**n * k.density(x), lo, hi, limit=200)
        assert k.kernel_raw_moments[n - 1] == pytest.approx(val, abs=1e-8)


@settings(max_examples=25, deadline=None)
@given(
    st.floats(-5, 5),
    st.floats(0.1, 4.0),
    st.floats(-3, 0.5),
    st.floats(1.0, 4.0),
)
def test_kernel_moment_quadrature_property(mu, sigma, lo_off, width):
    lo = mu + lo_off * sigma
    hi = lo + width * sigma
    k = truncated_kernel(mu, sigma, lo, hi)
    val, _ = integrate.quad(lambda x: x**3 * k.density(x), lo, hi, limit=200)
    assert k.kernel_raw_moments[2] == pytest.approx(val, rel=1e-7, abs=1e-8)


def test_kernel_underflow_rejected():
    with pytest.raises(DegenerateKernelError):
        truncated_kernel(0.0, 1.0, 60.0, 70.0)


# ---------------------------------------------------------------------------
# series approximation


def _random_terms(seed, n=300, p=0.1, decades=1.0):
    rng = np.random.default_rng(seed)
    weights = 10.0 ** rng.uniform(-decades, 0.0, n)
    return list(zip(weights, np.full(n, p)))


def _random_model(seed, n=300, p=0.1, decades=1.0):
    return build_model(_random_terms(seed, n, p, decades), max_order=5)


def test_order0_is_bare_kernel():
    model = _random_model(0)
    approx = gram_charlier(model, order=0)
    np.testing.assert_allclose(approx.an_coeffs, [1, 0, 0, 0, 0, 0], atol=1e-15)
    x = np.linspace(0, model.support_bound, 7)
    np.testing.assert_allclose(approx.density(x), approx.kernel.density(x), rtol=1e-12)


def test_order_above_five_rejected():
    with pytest.raises(ValueError, match="order"):
        gram_charlier(_random_model(1), order=6)
    for max_order in (1, 6):
        with pytest.raises(ValueError, match="max_order"):
            build_model([(1.0, 0.3)], max_order=max_order)


def test_gc_density_integrates_to_one():
    # needs the kernel density to decay inside [0, J]: enough terms and a
    # activity level that keeps the boundaries several sigma from the mean
    for seed in range(3):
        model = _random_model(seed, n=300, p=0.3, decades=3.0)
        for order in (0, 5):
            approx = gram_charlier(model, order=order)
            val, _ = integrate.quad(approx.density, 0.0, model.support_bound, limit=400)
            assert val == pytest.approx(1.0, abs=1e-6)


def test_gc_order5_matches_model_moments():
    # the defining property of the order-N correction: the first N moments
    # of the density agree with the model's moments
    model = _random_model(7, n=200, p=0.15)
    approx = gram_charlier(model, order=5)
    kap = list(model.cumulants)
    mu = [1.0]
    for n in range(1, 6):
        mu.append(
            sum(math.comb(n - 1, m - 1) * kap[m - 1] * mu[n - m] for m in range(1, n + 1))
        )
    for k in range(1, 6):
        val, _ = integrate.quad(
            lambda x, k=k: x**k * approx.density(x), 0.0, model.support_bound, limit=400
        )
        assert val == pytest.approx(mu[k], rel=1e-7)


def test_gc5_closer_than_gc0_in_divergence():
    wins = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        terms = list(zip(10.0 ** rng.uniform(-1, 0, 300), np.full(300, 0.1)))
        model = build_model(terms)
        ref = cf_density(terms, 1 << 12)
        j0 = jsd(ref, gram_charlier(model, 0).discretize(ref.lower, ref.upper, ref.num_bins))
        j5 = jsd(ref, gram_charlier(model, 5).discretize(ref.lower, ref.upper, ref.num_bins))
        wins += j5 < j0
    assert wins >= 8


def test_series_rows_match_one_row_calls():
    # one order-5 pass over a block of rows gives every order's coefficients,
    # masses and divergences of the one-row (scalar) route
    models = [_random_model(seed, n=80, p=0.2) for seed in range(5)]
    kappa = np.array([m.cumulants for m in models])
    supports = np.array([m.support_bound for m in models])
    mu, sigma, _, norm, an = _series_coefficients(kappa, supports, range(6), _ndtr_rows)
    ref = cf_density(_random_terms(0, n=80, p=0.2), 1 << 8)
    lower, upper = np.full(5, ref.lower), np.full(5, ref.upper)
    for order in range(6):
        coeffs = an[order].T[:, :, None]
        masses = _gridded_masses(
            lambda x: _series_density(
                x, mu[:, None], sigma[:, None], norm[:, None], coeffs, 0.0, supports[:, None]
            ),
            lower, upper, ref.num_bins, supports,
        )
        divergences = _jsd_rows(ref.masses, masses)
        for r, model in enumerate(models):
            approx = gram_charlier(model, order)
            scale = np.max(np.abs(an[order][r]))
            np.testing.assert_allclose(an[order][r], approx.an_coeffs, rtol=1e-12, atol=1e-14 * scale)
            binned = approx.discretize(ref.lower, ref.upper, ref.num_bins)
            np.testing.assert_allclose(masses[r], binned.masses, rtol=1e-12, atol=1e-300)
            assert divergences[r] == pytest.approx(jsd(ref, binned), rel=1e-12)


def _series_row_cases():
    """(kappa, supports, thresholds): random laws plus strongly truncated
    kernels (a window under 0.5 sigma wide, one of them 4 sigma below the
    mean), each at thresholds from 0 up to just below the support, where lo
    sits next to beta."""
    laws = [_random_model(seed, n=40, p=0.2) for seed in range(4)]
    kappa = [m.cumulants for m in laws]
    supports = [m.support_bound for m in laws]
    for cums, support in (
        ((0.04, 0.04, 1e-3, -2e-4, 1e-5), 0.09),
        ((0.5, 1.0, 0.2, 0.05, -0.01), 0.4),
        ((2.0, 0.25, 0.01, 1e-3, 1e-4), 0.2),
    ):
        kappa.append(cums)
        supports.append(support)
    rows = []
    for cums, support in zip(kappa, supports):
        for thr in (0.0, 0.5 * support, support * (1 - 1e-9), np.nextafter(support, 0.0)):
            rows.append((cums, support, thr))
    kappa, supports, thresholds = zip(*rows)
    return np.array(kappa), np.array(supports), np.array(thresholds)


@pytest.mark.parametrize("order", range(6))
def test_series_block_equals_rows_one_at_a_time(order):
    # the GC engine's bitwise palette guarantee rests on each row's
    # coefficients and tail not depending on which rows share the call
    kappa, supports, thresholds = _series_row_cases()
    kappa = kappa[:, : max(order, 2)]
    for cdf in (_ndtr_rows, ndtr):
        block = _series_coefficients(kappa, supports, (order,), cdf)
        tails = _series_tails(thresholds, *block[:4], block[4][0], cdf)
        assert np.all((tails >= 0.0) & (tails <= 1.0))
        for r in range(kappa.shape[0]):
            row = _series_coefficients(kappa[r : r + 1], supports[r : r + 1], (order,), cdf)
            for got, want in zip(row[:4], block[:4]):
                assert got[0] == want[r], (order, r)
            assert np.array_equal(row[4][0][0], block[4][0][r]), (order, r)
            tail = _series_tails(thresholds[r : r + 1], *row[:4], row[4][0], cdf)
            assert tail[0] == tails[r], (order, r)


def test_series_rows_raise_what_the_scalar_route_raises():
    good = [1.0, 0.5, 0.1, 0.0, 0.0]
    cases = (
        ([1.0, 0.0, 0.0, 0.0, 0.0], 3.0, DegenerateModelError),  # zero variance
        ([100.0, 1.0, 0.0, 0.0, 0.0], 10.0, DegenerateKernelError),  # no kernel mass
    )
    for cums, support, error in cases:
        with pytest.raises(error):
            gram_charlier_from_cumulants(cums, support, 5)
        with pytest.raises(error):
            _series_coefficients(
                np.array([good, cums]), np.array([4.0, support]), (5,), _ndtr_rows
            )
    # a grid beyond the support: the density vanishes on every bin
    approx = gram_charlier_from_cumulants(good, 4.0, 5)
    with pytest.raises(ValueError, match="vanished"):
        approx.discretize(20.0, 30.0, 64)
    with pytest.raises(ValueError, match="vanished"):
        _gridded_masses(
            approx.density, np.array([0.0, 20.0]), np.array([4.0, 30.0]), 64, np.array([4.0, 4.0])
        )


# ---------------------------------------------------------------------------
# partial moments and tails


def test_scalar_normal_cdf_matches_scipy():
    x = np.linspace(-37.0, 9.0, 4001)
    got = np.array([_ndtr(v) for v in x])
    np.testing.assert_allclose(got, ndtr(x), rtol=1e-12, atol=0)
    assert _ndtr(-math.inf) == 0.0 and _ndtr(math.inf) == 1.0


def _partial_moment_tail(coeffs, lo, hi, norm, ndtr=_ndtr_rows):
    """One row of _series_tails for a standard Gaussian kernel (mu 0, sigma
    1): the integral of sum_n coeffs[n] z^n phi(z) over [lo, hi] over norm."""
    an = np.zeros((1, 6))
    an[0, : len(coeffs)] = coeffs
    rows = [np.array([float(v)]) for v in (lo, 0.0, 1.0, hi, norm)]
    return float(_series_tails(*rows, an, ndtr)[0])


def test_partial_moment_total_mass():
    # norm 2 keeps the value away from the [0, 1] clamp
    assert _partial_moment_tail([1.0], -40.0, 40.0, 2.0) == pytest.approx(0.5, abs=1e-12)


def test_partial_moment_odd_symmetry():
    for n in (1, 3, 5):
        coeffs = np.eye(6)[0] + np.eye(6)[n]
        assert _partial_moment_tail(coeffs, -40.0, 40.0, 2.0) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_partial_moment_quadrature(n):
    # an asymmetric window keeps every moment strictly inside the clamp
    lo, hi = -0.5, 1.5
    val, _ = integrate.quad(
        lambda x: x**n * math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi), lo, hi
    )
    assert 0.0 < val < 1.0
    for cdf in (_ndtr_rows, ndtr):
        assert _partial_moment_tail(np.eye(6)[n], lo, hi, 1.0, cdf) == pytest.approx(val, abs=1e-10)


def test_tail_edges():
    model = _random_model(3, n=60)
    approx = gram_charlier(model, order=5)
    assert tail_probability(approx, -0.5) == 1.0
    assert tail_probability(approx, model.support_bound) == 0.0
    assert tail_probability(approx, model.support_bound * 1.1) == 0.0


def test_tail_closed_form_equals_quadrature():
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(12, 21))
        terms = list(zip(10.0 ** rng.uniform(-2, 0, n), rng.uniform(0.05, 0.5, n)))
        model = build_model(terms)
        approx = gram_charlier(model, order=5)
        t = float(rng.uniform(0.0, model.support_bound))
        quad, _ = integrate.quad(approx.density, t, model.support_bound, limit=400)
        closed = tail_probability(approx, t)
        assert closed == pytest.approx(min(max(quad, 0.0), 1.0), abs=1e-8)


def test_tail_monotone_in_threshold():
    model = _random_model(11, n=100)
    approx = gram_charlier(model, order=5)
    ts = np.linspace(-0.1, model.support_bound * 1.05, 40)
    vals = [tail_probability(approx, t) for t in ts]
    assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# divergences


def _unit_grid(masses):
    # atoms on bin lower edges, which the gridding convention maps into the
    # bin itself (bin-center positions would sit on the rounding boundary)
    m = np.asarray(masses, dtype=float)
    return AtomicDistribution(np.arange(m.size, dtype=float), m / m.sum()).discretize(
        0.0, float(m.size), m.size if m.size >= 2 else 2
    )


def test_jsd_identical_is_zero():
    p = _unit_grid([0.2, 0.3, 0.5])
    assert jsd(p, p) == 0.0


def test_jsd_disjoint_is_one():
    from mmtc_outage.stats_core import DiscretizedDistribution

    p = DiscretizedDistribution(0.0, 4.0, np.array([0.5, 0.5, 0.0, 0.0]))
    q = DiscretizedDistribution(0.0, 4.0, np.array([0.0, 0.0, 0.5, 0.5]))
    assert jsd(p, q) == pytest.approx(1.0, abs=1e-12)


def test_jsd_symmetric():
    rng = np.random.default_rng(0)
    a = rng.uniform(0.01, 1, 32)
    b = rng.uniform(0.01, 1, 32)
    p, q = _unit_grid(a), _unit_grid(b)
    assert jsd(p, q) == pytest.approx(jsd(q, p), rel=1e-12)
    assert 0.0 <= jsd(p, q) <= 1.0


def test_jsd_grid_mismatch_rejected():
    p = _unit_grid([0.5, 0.5])
    q = _unit_grid([0.3, 0.3, 0.4])
    with pytest.raises(ValueError, match="grid"):
        jsd(p, q)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_jsd_bounds_property(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0, 1, 16) ** 3 + 1e-12
    b = rng.uniform(0, 1, 16) ** 3 + 1e-12
    v = jsd(_unit_grid(a), _unit_grid(b))
    assert 0.0 <= v <= 1.0


# ---------------------------------------------------------------------------
# term validation


def test_term_validation():
    with pytest.raises(ValueError):
        build_model([(-1.0, 0.5)])
    with pytest.raises(ValueError):
        build_model([(1.0, 1.5)])
    with pytest.raises(ValueError):
        build_model([(float("nan"), 0.5)])
    with pytest.raises(ValueError):
        build_model([(1.0, float("nan"))])
    assert build_model([(0.5, 0.25)]).mean == pytest.approx(0.125)
