"""Output checks for the benchmark, computed apart from the program.

Nothing here imports ``mmtc_outage``.  The independent references are
Bernoulli draws made from raw scenario arrays (received powers, activities,
resource sets decoded from the allocation's colors), so a fault in the
program's allocation decoding, pooling or inversion cannot hide in the
reference.  Every check returns a list of fault strings; an empty list
means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

# Two estimates "agree within binomial error" when they differ by at most
# this many standard errors.  At 5 a correct output fails one check in about
# two million, so a run's failed count does not depend on its seed.
Z = 5.0

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# independent model of the interference law


def resource_sets(colors: np.ndarray, mode: str, num_resources: int) -> list[frozenset]:
    """Resource ids held by each tuple, decoded from the flat color array."""
    sets = []
    for c in np.asarray(colors).ravel():
        c = int(c)
        if mode == "single":
            sets.append(frozenset((c,)) if c else frozenset())
        else:
            sets.append(frozenset(n for n in range(1, num_resources + 1) if c >> (n - 1) & 1))
    return sets


def held_pairs(colors: np.ndarray, mode: str, det_node: np.ndarray) -> int:
    """Number of (sensor, held resource) pairs an allocation induces."""
    flat = np.asarray(colors, dtype=np.int64).ravel()
    if mode == "single":
        sizes = (flat > 0).astype(np.int64)
    else:
        sizes = np.array([bin(int(c)).count("1") for c in flat], dtype=np.int64)
    return int(sizes[np.asarray(det_node)].sum())


def bernoulli_draws(weights, probs, draws: int, rng) -> np.ndarray:
    """``draws`` samples of sum_j weights[j] * Bernoulli(probs[j])."""
    weights = np.asarray(weights, dtype=float)
    probs = np.asarray(probs, dtype=float)
    out = np.empty(draws)
    chunk = max(1, (1 << 21) // max(1, weights.size))
    for lo in range(0, draws, chunk):
        hi = min(draws, lo + chunk)
        out[lo:hi] = (rng.random((hi - lo, weights.size)) < probs) @ weights
    return out


class SensorLaw:
    """Interference seen by one sensor, built from raw scenario arrays.

    ``powers_at`` is (tuples, sensors), ``det_node`` each sensor's detecting
    tuple, ``sets`` the decoded resource sets.  A sensor on resource t is hit
    by every other sensor whose tuple holds t, each active with its activity
    divided by its tuple's set size.
    """

    def __init__(self, powers_at, det_node, activities, own_power, noise_power,
                 detection_threshold, sets, sensor: int):
        det_node = np.asarray(det_node)
        sizes = np.array([len(s) for s in sets])[det_node]
        self.p_eff = np.where(sizes > 0, np.asarray(activities) / np.maximum(sizes, 1), 0.0)
        self.sensor = sensor
        self.dest = int(det_node[sensor])
        self.row = np.asarray(powers_at)[self.dest]
        self.own = sorted(sets[self.dest])
        self.headroom = float(own_power[sensor]) / detection_threshold - float(noise_power[sensor])
        self.holders = {t: np.array([t in sets[d] for d in det_node]) for t in self.own}
        # every sensor with nonzero activity on a nonzero weight feeds the
        # destination's pooled grid, whatever resource it holds
        live = (self.p_eff > 0.0) & (self.row > 0.0)
        self.pooled_support = float(self.row[live].sum())

    def terms(self, resource: int) -> tuple[np.ndarray, np.ndarray]:
        mask = self.holders[resource].copy()
        mask[self.sensor] = False
        mask &= (self.row > 0.0) & (self.p_eff > 0.0)
        return self.row[mask], self.p_eff[mask]

    def cell(self, grid_points: int) -> float:
        """Bin width of the destination-shared CF grid."""
        return self.pooled_support * (1.0 + 1.0 / grid_points) / grid_points

    def outage(self, draws: int, rng, cell: float) -> tuple[float, float, float]:
        """(outage estimate, its standard error, mass within ``cell`` of the
        headroom), averaging uniformly over the sensor's own resources."""
        if not self.own or self.headroom < 0.0:
            return 1.0, 0.0, 0.0
        est = var = near = 0.0
        share = 1.0 / len(self.own)
        for t in self.own:
            w, p = self.terms(t)
            sample = bernoulli_draws(w, p, draws, rng)
            frac = float(np.mean(sample > self.headroom))
            est += share * frac
            var += share * share * max(frac * (1.0 - frac), 1.0 / draws) / draws
            near += share * float(np.mean(np.abs(sample - self.headroom) <= cell))
        return est, math.sqrt(var), near


# ---------------------------------------------------------------------------
# checks


def check_probabilities(values, label: str) -> list[str]:
    v = np.asarray(values, dtype=float)
    bad = np.nonzero(~np.isfinite(v) | (v < 0.0) | (v > 1.0))[0]
    return [f"{label}: sensor {i} reads {v[i]!r}, outside [0, 1]" for i in bad[:5]]


def check_switched_off(values, off_sensors, label: str) -> list[str]:
    v = np.asarray(values, dtype=float)
    return [
        f"{label}: sensor {i} sits on a switched-off tuple but reads {v[i]!r}, not 1"
        for i in off_sensors if v[i] != 1.0
    ][:5]


def check_against_draws(value: float, estimate: float, stderr: float, near: float,
                        label: str) -> list[str]:
    """Program value vs the benchmark's draws: Z standard errors plus the
    mass the draws put within one grid cell of the level."""
    allowance = Z * stderr + near + 1e-12  # rounding in averages over resources
    gap = abs(float(value) - estimate)
    if not gap <= allowance:
        return [f"{label}: program {value:.6f} vs draws {estimate:.6f}, "
                f"gap {gap:.6f} > allowance {allowance:.6f}"]
    return []


def check_two_estimates(a: float, draws_a: int, b: float, draws_b: int, label: str) -> list[str]:
    """Two independent Monte Carlo frequencies of one probability."""
    pooled = (a * draws_a + b * draws_b) / (draws_a + draws_b)
    var = max(pooled * (1.0 - pooled), 1.0 / (draws_a + draws_b))
    allowance = Z * math.sqrt(var * (1.0 / draws_a + 1.0 / draws_b))
    gap = abs(a - b)
    if not gap <= allowance:
        return [f"{label}: {a:.6f} vs {b:.6f}, gap {gap:.6f} > {allowance:.6f}"]
    return []


def check_trace(trace, label: str) -> list[str]:
    t = np.asarray(trace, dtype=float)
    rises = np.nonzero(np.diff(t) > 0.0)[0]
    return [f"{label}: trace rises at sweep {k + 1} ({t[k]!r} -> {t[k + 1]!r})" for k in rises]


def check_scalar_match(scalar_values, objective: float, label: str, tol: float = 1e-9) -> list[str]:
    """Mean of the scalar route's per-sensor values vs the engine's objective."""
    mean = math.fsum(float(v) for v in scalar_values) / len(scalar_values)
    if not abs(mean - float(objective)) <= tol:
        return [f"{label}: scalar gc5 mean {mean!r} vs trace {float(objective)!r}"]
    return []


def check_below(value: float, ceiling: float, label: str, strict: bool = True) -> list[str]:
    ok = value < ceiling if strict else value <= ceiling
    if not ok:
        rel = "<" if strict else "<="
        return [f"{label}: {value:.6f} is not {rel} {ceiling:.6f}"]
    return []


def check_epsilons(values, label: str) -> list[str]:
    v = np.asarray(values, dtype=float)
    bad = np.nonzero(~np.isfinite(v) | (v < 0.0) | (v > LN2))[0]
    return [f"{label}: epsilon {v[i]!r} outside [0, ln 2]" for i in bad[:5]]


def gridded_cdf(masses, lower: float, upper: float, level: float) -> float:
    """Cdf of a gridded law at ``level``: mass on grid points at or below it
    (bin q stands for the point lower + q * width, as in the tail convention)."""
    m = np.asarray(masses, dtype=float)
    grid = lower + (upper - lower) / m.size * np.arange(m.size)
    return float(m[grid <= level].sum())


def check_cdf_levels(ref_cdf, sample: np.ndarray, levels, cell: float, label: str) -> list[str]:
    """``ref_cdf[k]`` is the program's cdf at ``levels[k]``; ``sample`` the
    benchmark's own draws of the same law."""
    faults = []
    for level, value in zip(levels, ref_cdf):
        frac = float(np.mean(sample <= level))
        stderr = math.sqrt(max(frac * (1.0 - frac), 1.0 / sample.size) / sample.size)
        near = float(np.mean(np.abs(sample - level) <= cell))
        faults += check_against_draws(value, frac, stderr, near, f"{label} at {level:.4g}")
    return faults
