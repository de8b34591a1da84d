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
    "tail_probability",
    "jsd",
    "sup_cdf_distance",
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


_HE_INTO_0_1 = np.array([3.0, 15.0])  # He_4's and He_5's lowest terms
_HE_OUT_OF_0_1 = np.array([1.0, 3.0])  # He_2's and He_3's lowest terms
_HE_OUT_OF_2_3 = np.array([6.0, 10.0])  # He_4's and He_5's middle terms


def collect_power_coefficients(coeffs) -> np.ndarray:
    """Collapse sum_n c_n He_n(x), n <= 5, into plain coefficients of x^0..x^5,
    the coefficients along the last axis and any leading axes rows.

    He_2 = x^2 - 1, He_3 = x^3 - 3x, He_4 = x^4 - 6x^2 + 3 and He_5 = x^5 -
    10x^3 + 15x.  Each step is elementwise, so a row's result is the same
    whatever shares the call."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim < 1 or c.shape[-1] > 6:
        raise ValueError("expected at most six series coefficients")
    a = np.zeros(c.shape[:-1] + (6,))
    a[..., : c.shape[-1]] = c
    a[..., :2] += _HE_INTO_0_1 * a[..., 4:] - _HE_OUT_OF_0_1 * a[..., 2:4]
    a[..., 2:4] -= _HE_OUT_OF_2_3 * a[..., 4:]
    return a


# ---------------------------------------------------------------------------
# terms and models


def _term_arrays(terms):
    """Split (weight, probability) pairs into two checked float arrays."""
    weights, probs = [], []
    for w, p in terms:
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


# The series routines below work on stacked (order, rows) arrays, and every
# sum over orders adds or subtracts whole rows of the stack left to right
# (as :func:`_ordered_sum` does): unlike a reduction along the order axis
# (pairwise, and blocked differently with the row count) or a matrix
# product, each row's result is then the same whatever shares the call.
_BINOMIAL = np.array([[math.comb(n, k) for k in range(6)] for n in range(6)], dtype=float)
_TWO_STEP = np.arange(-1.0, 5.0)[:, None]  # (i - 1) for i = 0..5
_FACTORIAL = np.array([math.factorial(n) for n in range(6)], dtype=float)[:, None]


def _two_step(table: np.ndarray) -> np.ndarray:
    """In place along axis 0: table[i] += (i - 1) table[i - 2] for i >= 2,
    the even and odd chains two orders per step."""
    n = table.shape[0]
    for i in range(2, n, 2):
        j = min(i + 2, n)
        table[i:j] += _TWO_STEP[i:j] * table[i - 2 : j - 2]
    return table


def _ordered_sum(terms: np.ndarray, out: np.ndarray) -> np.ndarray:
    """terms[0] + terms[1] + ... into ``out``, added left to right."""
    np.copyto(out, terms[0])
    for term in terms[1:]:
        out += term
    return out


def _power_table(first: np.ndarray, x: np.ndarray, count: int) -> np.ndarray:
    """first * x^i for i = 0..count-1 stacked on a new first axis, by repeated
    multiplication."""
    table = np.empty((count,) + x.shape)
    table[0] = first
    for i in range(1, count):
        np.multiply(table[i - 1], x, out=table[i])
    return table


def _cumulants_from_raw_moments(raw: np.ndarray) -> np.ndarray:
    """Raw-moment-to-cumulant recursion on (order, rows) arrays; raw[k] holds
    order k+1: kappa_n = mu_n - sum_m C(n-1, m-1) kappa_m mu_(n-m)."""
    kappa = np.empty_like(raw)
    kappa[0] = raw[0]
    terms = np.empty_like(raw)
    for n in range(1, raw.shape[0]):
        step = terms[:n]
        np.multiply(_BINOMIAL[n, :n, None], kappa[:n], out=step)
        step *= raw[n - 1 :: -1]
        np.subtract(raw[n], step[0], out=kappa[n])
        for term in step[1:]:
            kappa[n] -= term
    return kappa


@dataclass(frozen=True)
class InterferenceModel:
    """Sum of independent weighted Bernoulli terms with cached statistics.

    ``cumulants[k]`` stores the (k+1)-th cumulant of the sum;
    ``cumulant(n)`` is the 1-based view.
    """

    support_bound: float
    mean: float
    variance: float
    cumulants: tuple[float, ...]

    def cumulant(self, n: int) -> float:
        return self.cumulants[n - 1]


def _bernoulli_cumulants(p: np.ndarray, max_order: int) -> np.ndarray:
    """Cumulants 1..max_order (at most 5) of a unit-weight Bernoulli, stacked
    on the last axis."""
    p = np.asarray(p, dtype=float)
    q = 1.0 - p
    cols = [
        p,
        p * q,
        p * q * (1.0 - 2.0 * p),
        p * q * (1.0 - 6.0 * p + 6.0 * p * p),
        p * q * (1.0 - 2.0 * p) * (1.0 - 12.0 * p + 12.0 * p * p),
    ]
    return np.stack(cols[:max_order], axis=-1)


def _cumulant_sums(a: np.ndarray, p: np.ndarray, max_order: int) -> np.ndarray:
    """Cumulants 1..max_order of sum_j a_j Bernoulli(p_j), that is
    sum_j kappa_n(p_j) a_j^n."""
    powers = a[None, :] ** np.arange(1, max_order + 1)[:, None]
    return (_bernoulli_cumulants(p, max_order).T * powers).sum(axis=1)


def build_model(terms, max_order: int = 5) -> InterferenceModel:
    """Assemble an interference model with moments and cumulants to max_order."""
    if not 2 <= max_order <= 5:
        raise ValueError(f"max_order must lie in 2..5, got {max_order}")
    a, p = _term_arrays(terms)
    if a.size == 0:
        return InterferenceModel(0.0, 0.0, 0.0, (0.0,) * max_order)
    cumulants = _cumulant_sums(a, p, max_order)
    return InterferenceModel(
        support_bound=float(a.sum()),
        mean=float(cumulants[0]),
        variance=float(cumulants[1]),
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


def _jsd_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Jensen-Shannon divergences in bits between mass rows along the last
    axis (leading axes broadcast); zero-mass bins contribute nothing."""
    mid = 0.5 * (p + q)
    total = 0.0
    for m in (p, q):
        # mid > 0 guards subnormal masses whose halved midpoint underflows to 0;
        # such bins carry ~1e-320 mass and contribute nothing at double precision
        keep = (m > 0) & (mid > 0)
        ratio = np.divide(m, mid, out=np.ones_like(mid), where=keep)
        total = total + np.sum(m * np.log2(ratio), axis=-1)
    return np.clip(0.5 * total, 0.0, 1.0)


def jsd(p: DiscretizedDistribution, q: DiscretizedDistribution) -> float:
    """Jensen-Shannon divergence in bits; zero-mass bins contribute nothing."""
    _require_same_grid(p, q)
    return float(_jsd_rows(p.masses, q.masses))


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

    def density(self, x):
        arr = np.asarray(x, dtype=float)
        vals = _series_density(
            arr, self.mu, self.sigma, self.normalization, (1, 0, 0, 0, 0, 0), self.lower, self.upper
        )
        return float(vals) if arr.ndim == 0 else vals


def _kernel_cumulants(mu, sigma, alpha, beta, norm, order: int):
    """Standardized moments 0..order and cumulants 1..order, as (order + 1,
    rows) and (order, rows) arrays, of the Gaussian (mu, sigma) rows truncated
    to [alpha, beta] in standard units (mass ``norm``).  The moments follow
    the boundary recursion L_i = (alpha^(i-1) phi(alpha) - beta^(i-1)
    phi(beta)) / F + (i-1) L_(i-2); cumulants come from them, then are
    shifted and scaled back, which avoids large-mean cancellation."""
    moments = np.empty((order + 1,) + mu.shape)
    moments[0] = 1.0
    if order == 0:
        return moments, moments[1:]
    edges = np.stack([alpha, beta])
    table = _power_table(_norm_pdf(edges), edges, order)  # x^i phi(x), (order, 2, rows)
    np.subtract(table[:, 0], table[:, 1], out=moments[1:])
    moments[1:] /= norm
    _two_step(moments)
    cums = _cumulants_from_raw_moments(moments[1:])
    cums *= _power_table(sigma, sigma, order)
    cums[0] += mu
    return moments, cums


def truncated_kernel(mu, sigma, lower, upper, max_order: int = 5) -> TruncatedGaussianKernel:
    """Truncated-Gaussian kernel with raw moments and cumulants to max_order
    (see :func:`_kernel_cumulants`)."""
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
    rows = [np.array([v]) for v in (mu, sigma, alpha, beta, norm)]
    std_moments, cums = _kernel_cumulants(*rows, max_order)
    raw = [
        math.fsum(
            math.comb(k, i) * sigma**i * mu ** (k - i) * float(std_moments[i, 0])
            for i in range(k + 1)
        )
        for k in range(1, max_order + 1)
    ]
    return TruncatedGaussianKernel(
        mu, sigma, float(lower), float(upper), norm, tuple(raw), tuple(cums[:, 0].tolist())
    )


def _series_coefficients(kappa: np.ndarray, supports: np.ndarray, orders, ndtr):
    """Series coefficients for rows of cumulants of laws on [0, support].

    ``kappa[:, n]`` holds cumulant n+1 (at least max(max(orders), 2)
    columns); ``ndtr`` is the caller's array normal cdf.  A row with no
    variance or no kernel mass raises, as the scalar route does.  Returns
    (mu, sigma, beta, norm, an): the kernel's location, scale, standardized
    upper edge and mass, and ``an[j][r]``, the z^0..z^5 coefficients of row
    r's order-``orders[j]`` series.  An order-o series uses the first o + 1
    Bell terms of any higher order, so all orders come from one pass."""
    if np.any(kappa[:, 1] <= 0):
        raise DegenerateModelError("zero-variance model has no continuous approximation")
    mu = kappa[:, 0]
    sigma = np.sqrt(kappa[:, 1])
    alpha = -mu / sigma
    beta = (supports - mu) / sigma
    cdf = ndtr(np.stack([alpha, beta]))
    norm = cdf[1] - cdf[0]
    if np.any(norm < 1e-300):
        raise DegenerateKernelError("truncation window [0, support] carries no kernel mass")
    top = max(orders)
    btilde = np.zeros((6,) + mu.shape)  # (He order, rows)
    btilde[0] = 1.0
    if top >= 1:
        _, kernel_cums = _kernel_cumulants(mu, sigma, alpha, beta, norm, top)
        eta = kappa[:, :top].T - kernel_cums
        bell = btilde[: top + 1]  # complete Bell polynomials of eta, built in place
        terms = np.empty_like(eta)
        for m in range(top):
            step = terms[: m + 1]
            np.multiply(_BINOMIAL[m, : m + 1, None], bell[m::-1], out=step)
            step *= eta[: m + 1]
            _ordered_sum(step, bell[m + 1])
        bell[1:] /= _FACTORIAL[1 : top + 1] * _power_table(sigma, sigma, top)
    kept = np.arange(6) <= np.asarray(orders)[:, None, None]  # (orders, 1, He order)
    an = collect_power_coefficients(np.where(kept, btilde.T, 0.0))
    return mu, sigma, beta, norm, an


def _ndtr_rows(x: np.ndarray) -> np.ndarray:
    return np.array([_ndtr(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _series_density(x, mu, sigma, norm, an, lower, upper):
    """Series density at x, zero outside [lower, upper]; the parameters
    broadcast against x and an[m] is the coefficient of z^m, m = 0..5."""
    z = (x - mu) / sigma
    series = an[5]
    for m in range(4, -1, -1):
        series = series * z + an[m]
    vals = series * _norm_pdf(z) / (sigma * norm)
    return np.where((x >= lower) & (x <= upper), vals, 0.0)


def _gridded_masses(
    density, lower: np.ndarray, upper: np.ndarray, num_bins: int, support: np.ndarray
) -> np.ndarray:
    """Midpoint-rule masses of row densities, row r on a uniform grid over
    [lower[r], upper[r]), clipped at zero and renormalized per row.  Row r's
    density lives on [0, support[r]]; a row whose support lies inside its
    first bin, which the midpoint rule can miss, gets unit mass in that bin."""
    width = (upper[:, None] - lower[:, None]) / num_bins
    mids = lower[:, None] + width * (np.arange(num_bins) + 0.5)
    masses = np.clip(density(mids) * width, 0.0, None)
    masses[(lower <= 0.0) & (support < lower + width[:, 0])] = np.eye(1, num_bins)
    total = masses.sum(axis=1, keepdims=True)
    if np.any(total <= 0):
        raise ValueError("density vanished on the requested grid")
    masses /= total
    return masses


@dataclass(frozen=True)
class GramCharlierApprox:
    """Truncated-Gaussian kernel times a collected Hermite-series polynomial."""

    kernel: TruncatedGaussianKernel
    order: int
    an_coeffs: tuple[float, ...]

    def density(self, x):
        k = self.kernel
        arr = np.asarray(x, dtype=float)
        vals = _series_density(
            arr, k.mu, k.sigma, k.normalization, self.an_coeffs, k.lower, k.upper
        )
        return float(vals) if arr.ndim == 0 else vals

    def discretize(self, lower: float, upper: float, num_bins: int) -> DiscretizedDistribution:
        """Midpoint-rule masses on a uniform grid, clipped at zero, renormalized
        (unit mass in the first bin when the support lies inside it)."""
        support = np.array([self.kernel.upper])
        masses = _gridded_masses(self.density, np.array([lower]), np.array([upper]), num_bins, support)
        return DiscretizedDistribution(lower, upper, masses[0])


def gram_charlier_from_cumulants(cumulants, support_bound: float, order: int = 5) -> GramCharlierApprox:
    """Series approximation from the cumulants of a nonnegative-support law."""
    if order < 0 or order > 5:
        raise ValueError(f"series order must lie in 0..5, got {order}")
    cums = [float(c) for c in cumulants]
    if len(cums) < max(order, 2):
        raise ValueError("need cumulants up to the requested order (at least 2)")
    support = float(support_bound)
    _, sigma, _, _, an = _series_coefficients(
        np.array([cums]), np.array([support]), (order,), _ndtr_rows
    )
    kernel = truncated_kernel(cums[0], float(sigma[0]), 0.0, support, max_order=order)
    return GramCharlierApprox(kernel, order, tuple(an[0][0].tolist()))


def gram_charlier(model: InterferenceModel, order: int = 5) -> GramCharlierApprox:
    """Series approximation of order 0..5 for the model's law on [0, J]."""
    return gram_charlier_from_cumulants(model.cumulants, model.support_bound, order)


# ---------------------------------------------------------------------------
# tails and diagnostics


def _series_tails(thresholds, mu, sigma, beta, norm, an, ndtr) -> np.ndarray:
    """Upper-tail masses above ``thresholds`` of rows of series densities,
    clamped to [0, 1].

    The row parameters are those :func:`_series_coefficients` returns for
    one order (``an[r]`` the z^0..z^5 coefficients of row r); ``ndtr`` is
    the caller's array normal cdf.  Callers handle thresholds outside
    [0, support) first.  The integral of z^n phi(z) over [lo, beta] follows
    the two-step recursion I_n = lo^(n-1) phi(lo) - beta^(n-1) phi(beta)
    + (n-1) I_(n-2), and the tail is sum_n an[:, n] I_n / norm.
    """
    edges = np.stack([(thresholds - mu) / sigma, beta])  # (lo, beta) rows
    cdf = ndtr(edges)
    table = _power_table(_norm_pdf(edges), edges, 5)  # x^i phi(x), (5, 2, rows)
    partial = np.empty((6,) + mu.shape)
    np.subtract(cdf[1], cdf[0], out=partial[0])
    np.subtract(table[:, 0], table[:, 1], out=partial[1:])
    _two_step(partial)
    partial *= an.T
    total = _ordered_sum(partial, np.empty_like(norm))
    return np.clip(total / norm, 0.0, 1.0)


def tail_probability(approx: GramCharlierApprox, threshold: float) -> float:
    """Closed-form upper-tail mass of the series density, clamped to [0, 1]
    (the one-row case of :func:`_series_tails`)."""
    k = approx.kernel
    if threshold < k.lower:
        return 1.0
    if threshold >= k.upper:
        return 0.0
    beta = (k.upper - k.mu) / k.sigma
    rows = [np.array([v]) for v in (threshold, k.mu, k.sigma, beta, k.normalization)]
    return float(_series_tails(*rows, np.array([approx.an_coeffs]), _ndtr_rows)[0])
