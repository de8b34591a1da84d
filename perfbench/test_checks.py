"""Every benchmark check must reject a perturbed output.

Run with ``python3 -m pytest perfbench -q``.  The inputs are small synthetic
laws whose exact values come from enumerating every on/off pattern, so the
tests need neither the library nor long draws.
"""

import itertools
import math

import numpy as np
import pytest

import checks


def _exact_tail(weights, probs, level):
    total = 0.0
    for bits in itertools.product((0, 1), repeat=len(weights)):
        mass = math.prod(p if b else 1.0 - p for b, p in zip(bits, probs))
        if np.dot(bits, weights) > level:
            total += mass
    return total


@pytest.fixture(scope="module")
def law():
    rng = np.random.default_rng(5)
    n = 11  # sensor 0 plus ten interferers, all on one tuple
    powers = rng.uniform(0.1, 1.0, size=(1, n))
    powers[0, 0] = 3.0
    sets = [frozenset({1})]
    return checks.SensorLaw(
        powers, np.zeros(n, dtype=int), np.full(n, 0.3), powers[0],
        np.zeros(n), 1.5, sets, 0,
    )


def test_cf_value_shifted_by_a_tenth_is_rejected(law):
    w, p = law.terms(1)
    exact = _exact_tail(w, p, law.headroom)
    est, err, near = law.outage(40_000, np.random.default_rng(1), law.cell(4096))
    assert 0.05 < exact < 0.95
    assert checks.check_against_draws(exact, est, err, near, "cf") == []
    assert checks.check_against_draws(exact + 0.1, est, err, near, "cf")
    assert checks.check_against_draws(exact - 0.1, est, err, near, "cf")


def test_monte_carlo_estimate_shifted_by_a_tenth_is_rejected(law):
    w, p = law.terms(1)
    exact = _exact_tail(w, p, law.headroom)
    est, _, _ = law.outage(40_000, np.random.default_rng(2), 0.0)
    assert checks.check_two_estimates(exact, 50_000, est, 40_000, "mc") == []
    assert checks.check_two_estimates(exact + 0.1, 50_000, est, 40_000, "mc")


def test_cdf_shifted_by_a_tenth_is_rejected(law):
    w, p = law.terms(1)
    sample = checks.bernoulli_draws(w, p, 20_000, np.random.default_rng(3))
    levels = np.quantile(sample, (0.1, 0.5, 0.9))
    exact = [1.0 - _exact_tail(w, p, x) for x in levels]
    assert checks.check_cdf_levels(exact, sample, levels, 1e-9, "cdf") == []
    shifted = list(exact)
    shifted[1] -= 0.1
    assert checks.check_cdf_levels(shifted, sample, levels, 1e-9, "cdf")


def test_gridded_cdf_counts_grid_points_at_or_below_the_level():
    masses = np.array([0.25, 0.25, 0.5])
    assert checks.gridded_cdf(masses, 0.0, 3.0, 0.99) == 0.25
    assert checks.gridded_cdf(masses, 0.0, 3.0, 1.0) == 0.5
    assert checks.gridded_cdf(masses, 0.0, 3.0, 5.0) == 1.0


def test_rising_trace_is_rejected():
    assert checks.check_trace([0.4, 0.3, 0.3, 0.2], "greedy") == []
    assert checks.check_trace([0.4, 0.3, 0.30000001, 0.2], "greedy")


def test_scalar_engine_mismatch_is_rejected():
    values = np.linspace(0.0, 1.0, 500)
    mean = float(values.mean())
    assert checks.check_scalar_match(values, mean, "greedy") == []
    assert checks.check_scalar_match(values, mean + 1e-6, "greedy")


def test_epsilon_above_ln2_is_rejected():
    assert checks.check_epsilons([0.0, 0.2, math.log(2.0)], "sweep") == []
    assert checks.check_epsilons([0.2, 0.7], "sweep")
    assert checks.check_epsilons([float("nan")], "sweep")
    assert checks.check_epsilons([-1e-3], "sweep")


def test_probability_outside_unit_interval_is_rejected():
    assert checks.check_probabilities([0.0, 0.5, 1.0], "cf") == []
    assert checks.check_probabilities([0.5, 1.1], "cf")
    assert checks.check_probabilities([float("nan")], "cf")


def test_switched_off_sensor_below_one_is_rejected():
    assert checks.check_switched_off([1.0, 0.2], [0], "cf") == []
    assert checks.check_switched_off([0.9, 0.2], [0], "cf")


def test_greedy_not_below_its_start_is_rejected():
    assert checks.check_below(0.1, 0.2, "greedy") == []
    assert checks.check_below(0.2, 0.2, "greedy")
    assert checks.check_below(0.2, 0.2, "greedy", strict=False) == []
    assert checks.check_below(0.21, 0.2, "greedy", strict=False)


def test_resource_sets_decode_colors():
    sets = checks.resource_sets(np.array([[0, 37], [1, 63]]), "multiple", 6)
    assert sets == [frozenset(), frozenset({1, 3, 6}), frozenset({1}), frozenset(range(1, 7))]
    assert checks.resource_sets(np.array([0, 4]), "single", 6) == [frozenset(), frozenset({4})]
    assert checks.held_pairs(np.array([0, 37]), "multiple", np.array([1, 1, 0])) == 6
