"""Distribution machinery for sums of independent on/off power terms.

The interference seen by one uplink detector is a sum of independent
scaled Bernoulli variables: each potential interferer contributes its
received power whenever it is active.  This module manipulates that law:

* exact atomic distribution by subset enumeration (the oracle),
* gridded numerical law via characteristic-function inversion,
* moments and cumulants with the standard recursive conversions,
* truncated-Gaussian kernel plus a Hermite series correction (order <= 5),
* closed-form upper-tail integrals,
* Jensen-Shannon divergence between gridded laws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WeightedBernoulliTerm",
    "InterferenceModel",
    "AtomicDistribution",
    "DiscretizedDistribution",
    "TruncatedGaussianKernel",
    "GramCharlierApprox",
    "DegenerateModelError",
    "DegenerateKernelError",
    "hermite",
    "bell_complete",
    "collect_power_coefficients",
    "build_model",
    "exact_pmf",
    "cf_density",
    "truncated_kernel",
    "gram_charlier",
    "gram_charlier_from_cumulants",
    "gaussian_partial_moment",
    "tail_probability",
    "jsd",
    "sup_cdf_distance",
    "lyapunov_statistic",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _norm_pdf(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT_2PI


def _ndtr(x: float) -> float:
    # scalar normal cdf; math.erfc spares scalar callers the ~24 MB scipy.special import
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


class DegenerateModelError(ValueError):
    """The model has zero variance; callers must branch before standardizing."""


class DegenerateKernelError(ValueError):
    """The truncation window carries essentially no Gaussian mass."""


# ---------------------------------------------------------------------------
# polynomials


def hermite(n: int, x):
    """Probabilists' Hermite polynomial He_n(x); x may be scalar or array."""
    if n < 0:
        raise ValueError("polynomial order must be nonnegative")
    arr = np.asarray(x, dtype=float)
    prev = np.ones_like(arr)
    if n == 0:
        return float(prev) if arr.ndim == 0 else prev
    cur = arr.copy()
    for k in range(1, n):
        prev, cur = cur, arr * cur - k * prev
    return float(cur) if arr.ndim == 0 else cur


def bell_complete(n: int, args) -> float:
    """Complete Bell polynomial B_n of the first n entries of args."""
    vals = [float(v) for v in args]
    if len(vals) < n:
        raise ValueError(f"B_{n} needs at least {n} arguments, got {len(vals)}")
    vals = vals[:n]
    bell = [1.0]
    for m in range(n):
        bell.append(
            math.fsum(math.comb(m, k) * bell[m - k] * vals[k] for k in range(m + 1))
        )
    return bell[n]


# Coefficient of x^m in He_n, for n = 0..5 (row n, column m).
_HERMITE_COEFFS = np.array(
    [
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [-1, 0, 1, 0, 0, 0],
        [0, -3, 0, 1, 0, 0],
        [3, 0, -6, 0, 1, 0],
        [0, 15, 0, -10, 0, 1],
    ],
    dtype=float,
)


def collect_power_coefficients(coeffs) -> np.ndarray:
    """Collapse sum_n c_n He_n(x), n <= 5, into plain coefficients of x^0..x^5."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1 or c.size > 6:
        raise ValueError("expected at most six series coefficients")
    padded = np.zeros(6)
    padded[: c.size] = c
    return padded @ _HERMITE_COEFFS


# ---------------------------------------------------------------------------
# terms and models


@dataclass(frozen=True)
class WeightedBernoulliTerm:
    """One interferer: received power ``weight``, activity ``probability``."""

    weight: float
    probability: float

    def __post_init__(self):
        if not self.weight >= 0.0:
            raise ValueError(f"weight must be nonnegative, got {self.weight}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must lie in [0, 1], got {self.probability}")


def _term_arrays(terms):
    """Normalize an iterable of terms or (weight, probability) pairs to arrays."""
    weights, probs = [], []
    for t in terms:
        if isinstance(t, WeightedBernoulliTerm):
            weights.append(t.weight)
            probs.append(t.probability)
        else:
            w, p = t
            weights.append(float(w))
            probs.append(float(p))
    a = np.asarray(weights, dtype=float)
    p = np.asarray(probs, dtype=float)
    if a.size:
        if np.isnan(a).any() or a.min() < 0:
            raise ValueError("weights must be nonnegative")
        if np.isnan(p).any() or p.min() < 0 or p.max() > 1:
            raise ValueError("probabilities must lie in [0, 1]")
    return a, p


def _cumulants_from_raw_moments(raw: np.ndarray) -> np.ndarray:
    """Raw-moment-to-cumulant recursion; raw[k] holds order k+1 along axis 0."""
    kappa = np.empty_like(raw)
    for n in range(1, raw.shape[0] + 1):
        acc = np.array(raw[n - 1], copy=True)
        for m in range(1, n):
            acc -= math.comb(n - 1, m - 1) * kappa[m - 1] * raw[n - m - 1]
        kappa[n - 1] = acc
    return kappa


@dataclass(frozen=True)
class InterferenceModel:
    """Sum of independent weighted Bernoulli terms with cached statistics.

    ``raw_moments[k]`` stores sum_j p_j a_j^(k+1) and ``cumulants[k]`` the
    (k+1)-th cumulant of the sum; use ``raw_moment(n)`` / ``cumulant(n)``
    for the 1-based view.
    """

    terms: tuple[WeightedBernoulliTerm, ...]
    support_bound: float
    mean: float
    variance: float
    raw_moments: tuple[float, ...]
    cumulants: tuple[float, ...]

    def raw_moment(self, n: int) -> float:
        return self.raw_moments[n - 1]

    def cumulant(self, n: int) -> float:
        return self.cumulants[n - 1]

    @property
    def max_order(self) -> int:
        return len(self.cumulants)


def build_model(terms, max_order: int = 5) -> InterferenceModel:
    """Assemble an interference model with moments and cumulants to max_order.

    Cumulants are obtained per term, where the raw-to-cumulant recursion is
    exact, and then summed across terms (additivity for independent sums).
    """
    if max_order < 2:
        raise ValueError("max_order must be at least 2")
    a, p = _term_arrays(terms)
    term_objs = tuple(
        WeightedBernoulliTerm(float(w), float(q)) for w, q in zip(a, p)
    )
    if a.size == 0:
        zeros = (0.0,) * max_order
        return InterferenceModel((), 0.0, 0.0, 0.0, zeros, zeros)
    orders = np.arange(1, max_order + 1)
    per_term_raw = p[None, :] * a[None, :] ** orders[:, None]
    raw_sums = per_term_raw.sum(axis=1)
    cumulants = _cumulants_from_raw_moments(per_term_raw).sum(axis=1)
    return InterferenceModel(
        terms=term_objs,
        support_bound=float(a.sum()),
        mean=float(cumulants[0]),
        variance=float(cumulants[1]),
        raw_moments=tuple(float(v) for v in raw_sums),
        cumulants=tuple(float(v) for v in cumulants),
    )


# ---------------------------------------------------------------------------
# exact law


@dataclass(frozen=True)
class AtomicDistribution:
    """Exact atomic law: strictly increasing locations with positive masses."""

    locations: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        loc = np.asarray(self.locations, dtype=float)
        mass = np.asarray(self.masses, dtype=float)
        if loc.ndim != 1 or loc.shape != mass.shape or loc.size == 0:
            raise ValueError("locations and masses must be matching 1-D arrays")
        if np.any(np.diff(loc) <= 0):
            raise ValueError("locations must be strictly increasing")
        if np.any(mass <= 0):
            raise ValueError("masses must be positive")
        if abs(float(mass.sum()) - 1.0) > 1e-12:
            raise ValueError("masses must sum to one")
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "masses", mass)

    def cdf(self, x):
        idx = np.searchsorted(self.locations, np.asarray(x, dtype=float), side="right")
        cum = np.concatenate([[0.0], np.cumsum(self.masses)])
        out = cum[idx]
        return float(out) if np.ndim(x) == 0 else out

    def tail(self, threshold: float) -> float:
        """Mass strictly above ``threshold``."""
        return float(self.masses[self.locations > threshold].sum())

    def mean(self) -> float:
        return float(np.dot(self.locations, self.masses))

    def discretize(self, lower: float, upper: float, num_bins: int) -> "DiscretizedDistribution":
        """Grid the atoms with the same anti-aliased assignment as cf_density.

        Each atom's mass is spread over a narrow Gaussian footprint on a
        lattice _GRID_OVERSAMPLE times finer (shifted by half an output bin
        so an atom sitting exactly on a bin edge lands in that bin), then the
        fine cells are aggregated.  Soft assignment keeps grid comparisons
        against CF inversion meaningful: both sides quantize locations
        identically, so differences reflect the inversion itself rather
        than which side of a bin edge an atom happens to fall on.
        """
        fine = _GRID_OVERSAMPLE * num_bins
        width_f = (upper - lower) / fine
        x = (self.locations - lower) / width_f + 0.5 * _GRID_OVERSAMPLE
        base = np.rint(x).astype(np.int64)
        offsets = np.arange(-_GRID_HALFWIDTH, _GRID_HALFWIDTH + 1)
        idx = base[:, None] + offsets[None, :]
        dist = idx - x[:, None]
        weights = np.exp(-0.5 * (dist / _GRID_SIGMA) ** 2)
        weights *= (self.masses / weights.sum(axis=1))[:, None]
        np.clip(idx, 0, fine - 1, out=idx)
        fine_masses = np.bincount(idx.ravel(), weights=weights.ravel(), minlength=fine)
        coarse = fine_masses.reshape(num_bins, _GRID_OVERSAMPLE).sum(axis=1)
        return DiscretizedDistribution(lower, upper, coarse)


def exact_pmf(terms, max_terms: int = 22) -> AtomicDistribution:
    """Exact law by enumerating every on/off pattern (2^n states).

    Refuses above ``max_terms`` terms; atom locations closer than
    1e-12 * support are merged (mass-weighted position).
    """
    a, p = _term_arrays(terms)
    if a.size > max_terms:
        raise ValueError(
            f"{a.size} terms exceed the enumeration limit of {max_terms}; "
            "use cf_density for larger models"
        )
    locs = np.zeros(1)
    mass = np.ones(1)
    for w, q in zip(a, p):
        if q == 0.0:
            continue
        if q == 1.0:
            locs = locs + w
            continue
        locs = np.concatenate([locs, locs + w])
        mass = np.concatenate([mass * (1.0 - q), mass * q])
    tol = 1e-12 * float(a.sum()) if a.size else 0.0
    order = np.argsort(locs, kind="stable")
    locs = locs[order]
    mass = mass[order]
    starts = np.ones(locs.size, dtype=bool)
    if locs.size > 1:
        starts[1:] = np.diff(locs) > tol
    gid = np.cumsum(starts) - 1
    gmass = np.bincount(gid, weights=mass)
    gloc = np.bincount(gid, weights=mass * locs) / gmass
    return AtomicDistribution(gloc, gmass)


# ---------------------------------------------------------------------------
# gridded law

# Shared anti-aliased gridding convention: mass is assigned on a lattice
# _GRID_OVERSAMPLE times finer than the output bins through a Gaussian
# footprint of width _GRID_SIGMA fine cells, after a half-output-bin shift
# so that an atom exactly on a bin's lower edge is counted in that bin.
# cf_density realizes the identical kernel spectrally (Gaussian taper plus
# phase shift), so atomic laws and CF inversions land on comparable grids.
# sigma trades off two error floors: the taper must be ~0 at the Nyquist
# frequency (sigma >= 1.6 fine cells keeps residual ringing < 4e-6) while
# the half-bin shift must exceed ~5 sigma so edge atoms do not wrap.
_GRID_OVERSAMPLE = 16
_GRID_SIGMA = 1.6
_GRID_HALFWIDTH = 10


@dataclass(frozen=True)
class DiscretizedDistribution:
    """Probability mass on a uniform grid over [lower, upper).

    ``masses[q]`` covers bin [lower + q*bin_width, lower + (q+1)*bin_width);
    this is the common currency for comparing approximations.
    """

    lower: float
    upper: float
    masses: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float)
        if m.ndim != 1 or m.size < 2:
            raise ValueError("need at least two bins")
        if not self.upper > self.lower:
            raise ValueError("upper must exceed lower")
        if np.any(m < 0):
            raise ValueError("masses must be nonnegative")
        total = float(m.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"masses must sum to one, got {total}")
        object.__setattr__(self, "masses", m)

    @property
    def num_bins(self) -> int:
        return self.masses.size

    @property
    def bin_width(self) -> float:
        return (self.upper - self.lower) / self.masses.size

    @property
    def grid(self) -> np.ndarray:
        return self.lower + self.bin_width * np.arange(self.masses.size)

    def cdf_values(self) -> np.ndarray:
        return np.cumsum(self.masses)

    def tail(self, threshold: float) -> float:
        """Mass at grid points strictly above ``threshold``."""
        return float(self.masses[self.grid > threshold].sum())


def _require_same_grid(p: DiscretizedDistribution, q: DiscretizedDistribution):
    if p.num_bins != q.num_bins or p.lower != q.lower or p.upper != q.upper:
        raise ValueError("distributions live on different grids")


def sup_cdf_distance(p: DiscretizedDistribution, q: DiscretizedDistribution) -> float:
    """Largest absolute difference between the two gridded cdfs."""
    _require_same_grid(p, q)
    return float(np.max(np.abs(np.cumsum(p.masses) - np.cumsum(q.masses))))


def jsd(p: DiscretizedDistribution, q: DiscretizedDistribution) -> float:
    """Jensen-Shannon divergence in bits; zero-mass bins contribute nothing."""
    _require_same_grid(p, q)
    pm, qm = p.masses, q.masses
    mid = 0.5 * (pm + qm)
    # mid > 0 guards subnormal masses whose halved midpoint underflows to 0;
    # such bins carry ~1e-320 mass and contribute nothing at double precision
    kp = (pm > 0) & (mid > 0)
    kq = (qm > 0) & (mid > 0)
    kl_p = float(np.sum(pm[kp] * np.log2(pm[kp] / mid[kp])))
    kl_q = float(np.sum(qm[kq] * np.log2(qm[kq] / mid[kq])))
    return min(max(0.5 * (kl_p + kl_q), 0.0), 1.0)


def _cf_spectrum_grid(upper: float, fine: int) -> tuple[np.ndarray, np.ndarray]:
    """Nonnegative frequencies plus the gridding taper/shift for one period.

    Returns (freqs, taper) of length fine//2 + 1; the negative half of the
    spectrum follows by Hermitian symmetry, so inversion can use irfft.
    """
    freqs = (2.0 * math.pi / upper) * np.arange(fine // 2 + 1)
    width_f = upper / fine
    sigma = _GRID_SIGMA * width_f
    shift = 0.5 * _GRID_OVERSAMPLE * width_f
    taper = np.exp(-0.5 * (sigma * freqs) ** 2) * np.exp(1j * (shift * freqs))
    return freqs, taper


def _bernoulli_factor(p: float, w: float, freqs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(1 - p) + p e^{iwf} into ``out`` on a uniform grid freqs[k] = k df, from
    phase tables: e^{iwf_k} = lo[k mod B] hi[k div B], B a power of two ~ sqrt(F)."""
    block = 1 << (freqs.size.bit_length() // 2)
    rows = freqs.size // block
    lo = np.exp(1j * (w * freqs[:block]))
    hi = p * np.exp(1j * (w * freqs[::block]))
    np.multiply(hi[:rows, None], lo, out=out[: rows * block].reshape(rows, block))
    np.multiply(hi[rows:], lo[: freqs.size - rows * block], out=out[rows * block :])
    out += 1.0 - p
    return out


def _invert_spectrum(phi_tapered: np.ndarray, grid_points: int, upper: float) -> DiscretizedDistribution:
    """Half-spectrum -> gridded law: inverse real FFT, clip, aggregate, renormalize."""
    fine = _GRID_OVERSAMPLE * grid_points
    masses = np.fft.irfft(np.conj(phi_tapered), n=fine)
    np.clip(masses, 0.0, None, out=masses)
    masses = masses.reshape(grid_points, _GRID_OVERSAMPLE).sum(axis=1)
    masses /= masses.sum()
    return DiscretizedDistribution(0.0, upper, masses)


def cf_density(terms, grid_points: int = 1 << 16) -> DiscretizedDistribution:
    """Gridded law from characteristic-function products and an inverse DFT.

    The output grid spans [0, J * (1 + 1/Q)]; the pad keeps the all-on atom
    at J away from the circular wrap point.  The characteristic function is
    evaluated on a frequency grid oversampled _GRID_OVERSAMPLE times and
    tapered by the shared Gaussian gridding kernel, which suppresses the
    Dirichlet ringing that otherwise smears off-lattice atoms across the
    whole grid.  Residual negative ripple is clipped and mass renormalized.
    """
    q_pts = int(grid_points)
    if q_pts < 64 or q_pts & (q_pts - 1):
        raise ValueError(f"grid_points must be a power of two >= 64, got {grid_points}")
    a, p = _term_arrays(terms)
    support = float(a.sum())
    if a.size == 0 or support == 0.0:
        masses = np.zeros(q_pts)
        masses[0] = 1.0
        return DiscretizedDistribution(0.0, 1.0, masses)
    upper = support * (1.0 + 1.0 / q_pts)
    freqs, taper = _cf_spectrum_grid(upper, _GRID_OVERSAMPLE * q_pts)
    phi = np.ones(freqs.size, dtype=complex)
    factor = np.empty_like(phi)
    for w, prob in zip(a, p):
        if w == 0.0 or prob == 0.0:
            continue
        phi *= _bernoulli_factor(prob, w, freqs, factor)
    return _invert_spectrum(phi * taper, q_pts, upper)


# ---------------------------------------------------------------------------
# truncated kernel and series correction


@dataclass(frozen=True)
class TruncatedGaussianKernel:
    """Gaussian with parameters (mu, sigma) restricted to [lower, upper]."""

    mu: float
    sigma: float
    lower: float
    upper: float
    normalization: float
    kernel_raw_moments: tuple[float, ...]
    kernel_cumulants: tuple[float, ...]

    def standardize(self, x):
        return (np.asarray(x, dtype=float) - self.mu) / self.sigma

    def density(self, x):
        arr = np.asarray(x, dtype=float)
        z = (arr - self.mu) / self.sigma
        vals = _norm_pdf(z) / (self.sigma * self.normalization)
        vals = np.where((arr >= self.lower) & (arr <= self.upper), vals, 0.0)
        return float(vals) if arr.ndim == 0 else vals


def truncated_kernel(mu, sigma, lower, upper, max_order: int = 5) -> TruncatedGaussianKernel:
    """Truncated-Gaussian kernel with raw moments and cumulants to max_order.

    Standardized moments follow the boundary recursion
    L_i = (alpha^(i-1) phi(alpha) - beta^(i-1) phi(beta)) / F + (i-1) L_(i-2);
    cumulants come from the standardized moments, then are shifted and
    scaled back, which avoids large-mean cancellation.
    """
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    if not lower < upper:
        raise ValueError("lower must be below upper")
    if max_order < 0:
        raise ValueError("max_order must be nonnegative")
    mu = float(mu)
    sigma = float(sigma)
    alpha = (lower - mu) / sigma
    beta = (upper - mu) / sigma
    norm = _ndtr(beta) - _ndtr(alpha)
    if norm < 1e-300:
        raise DegenerateKernelError(
            f"truncation window [{lower}, {upper}] carries no mass "
            f"for mu={mu}, sigma={sigma}"
        )
    pa = float(_norm_pdf(alpha))
    pb = float(_norm_pdf(beta))
    std_moments = [1.0]
    for i in range(1, max_order + 1):
        boundary = (alpha ** (i - 1) * pa - beta ** (i - 1) * pb) / norm
        std_moments.append(boundary + ((i - 1) * std_moments[i - 2] if i >= 2 else 0.0))
    raw: list[float] = []
    cums: list[float] = []
    if max_order >= 1:
        std = np.asarray(std_moments[1:], dtype=float)
        std_cums = _cumulants_from_raw_moments(std[:, None])[:, 0]
        for k in range(1, max_order + 1):
            raw.append(
                math.fsum(
                    math.comb(k, i) * sigma**i * mu ** (k - i) * std_moments[i]
                    for i in range(k + 1)
                )
            )
        cums.append(mu + sigma * float(std_cums[0]))
        cums.extend(sigma**n * float(std_cums[n - 1]) for n in range(2, max_order + 1))
    return TruncatedGaussianKernel(
        mu, sigma, float(lower), float(upper), norm, tuple(raw), tuple(cums)
    )


@dataclass(frozen=True)
class GramCharlierApprox:
    """Truncated-Gaussian kernel times a collected Hermite-series polynomial."""

    kernel: TruncatedGaussianKernel
    order: int
    eta: tuple[float, ...]
    bell_coeffs: tuple[float, ...]
    an_coeffs: tuple[float, ...]

    def density(self, x):
        k = self.kernel
        arr = np.asarray(x, dtype=float)
        z = (arr - k.mu) / k.sigma
        series = np.full_like(z, self.an_coeffs[5])
        for m in range(4, -1, -1):
            series = series * z + self.an_coeffs[m]
        vals = series * _norm_pdf(z) / (k.sigma * k.normalization)
        vals = np.where((arr >= k.lower) & (arr <= k.upper), vals, 0.0)
        return float(vals) if arr.ndim == 0 else vals

    def discretize(self, lower: float, upper: float, num_bins: int) -> DiscretizedDistribution:
        """Midpoint-rule masses on a uniform grid, clipped at zero, renormalized."""
        width = (upper - lower) / num_bins
        mids = lower + width * (np.arange(num_bins) + 0.5)
        masses = np.clip(self.density(mids) * width, 0.0, None)
        total = masses.sum()
        if total <= 0:
            raise ValueError("density vanished on the requested grid")
        return DiscretizedDistribution(lower, upper, masses / total)


def gram_charlier_from_cumulants(cumulants, support_bound: float, order: int = 5) -> GramCharlierApprox:
    """Series approximation from the cumulants of a nonnegative-support law."""
    if order < 0 or order > 5:
        raise ValueError(f"series order must lie in 0..5, got {order}")
    cums = [float(c) for c in cumulants]
    if len(cums) < max(order, 2):
        raise ValueError("need cumulants up to the requested order (at least 2)")
    mean, variance = cums[0], cums[1]
    if variance <= 0:
        raise DegenerateModelError("zero-variance model has no continuous approximation")
    sigma = math.sqrt(variance)
    kernel = truncated_kernel(mean, sigma, 0.0, float(support_bound), max_order=order)
    eta = tuple(cums[n] - kernel.kernel_cumulants[n] for n in range(order))
    bell = [1.0]
    for n in range(1, order + 1):
        bell.append(bell_complete(n, eta[:n]) / (math.factorial(n) * sigma**n))
    an = collect_power_coefficients(bell)
    return GramCharlierApprox(kernel, order, eta, tuple(bell), tuple(float(v) for v in an))


def gram_charlier(model: InterferenceModel, order: int = 5) -> GramCharlierApprox:
    """Series approximation of order 0..5 for the model's law on [0, J]."""
    if order > 5:
        raise ValueError(f"series order above 5 is unsupported, got {order}")
    if order < 0:
        raise ValueError("series order must be nonnegative")
    if len(model.cumulants) < max(order, 2):
        raise ValueError("model was built with too few cumulant orders")
    return gram_charlier_from_cumulants(model.cumulants, model.support_bound, order)


# ---------------------------------------------------------------------------
# tails and diagnostics


def gaussian_partial_moment(n: int, lo: float, hi: float) -> float:
    """Integral of x^n phi(x) over [lo, hi] via the two-step recursion."""
    if n < 0:
        raise ValueError("moment order must be nonnegative")
    if lo > hi:
        raise ValueError("lo must not exceed hi")
    plo = float(_norm_pdf(lo))
    phi_hi = float(_norm_pdf(hi))
    i_prev2 = _ndtr(hi) - _ndtr(lo)
    if n == 0:
        return i_prev2
    i_prev1 = plo - phi_hi
    if n == 1:
        return i_prev1
    cur = i_prev1
    for k in range(2, n + 1):
        cur = (lo ** (k - 1) * plo - hi ** (k - 1) * phi_hi) + (k - 1) * i_prev2
        i_prev2, i_prev1 = i_prev1, cur
    return cur


def tail_probability(approx: GramCharlierApprox, threshold: float) -> float:
    """Closed-form upper-tail mass of the series density, clamped to [0, 1]."""
    k = approx.kernel
    if threshold < k.lower:
        return 1.0
    if threshold >= k.upper:
        return 0.0
    lo = (threshold - k.mu) / k.sigma
    hi = (k.upper - k.mu) / k.sigma
    total = math.fsum(
        c * gaussian_partial_moment(m, lo, hi) for m, c in enumerate(approx.an_coeffs)
    )
    return min(max(total / k.normalization, 0.0), 1.0)


def lyapunov_statistic(terms, epsilon: float) -> float:
    """Normalized (2+eps)-order sum; small values justify a Gaussian kernel."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    a, p = _term_arrays(terms)
    variance = float(np.sum(p * (1.0 - p) * a * a))
    if variance <= 0:
        raise DegenerateModelError("zero-variance model")
    numerator = float(np.sum(a ** (2.0 + epsilon) * p * (1.0 - p)))
    return numerator / variance ** ((2.0 + epsilon) / 2.0)
