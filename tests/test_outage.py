"""Outage-evaluation tests.

Scalar routes are checked against exact on/off enumeration on small pools;
the batched engines are then held to the scalar routes (to rounding for the
series engine, to grid resolution for the pooled CF route); Monte Carlo is
checked against exact enumeration within binomial error.
"""

import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmtc_outage import access, outage
from mmtc_outage import scenario as scn
from mmtc_outage import stats_core


def toy(**overrides):
    base = dict(
        num_sensors=18,
        num_cns=2,
        antennas=4,
        beams=2,
        activity=0.12,
        num_resources=3,
        deploy_radius=80.0,
        area_side=500.0,
        seed=7,
    )
    base.update(overrides)
    return scn.generate_scenario(scn.ScenarioConfig(**base))


def full_reuse(s):
    colors = np.ones((s.num_cns, s.num_beams), dtype=np.int64)
    return access.ResourceAllocation("single", colors, s.config.num_resources)


def single_colors(s, fill=2):
    return np.full((s.num_cns, s.num_beams), fill, dtype=np.int64)


DESK = scn.load_scenario_config(Path(__file__).resolve().parents[1] / "configs" / "desk.cfg")
CF = outage.CharFnMethod(1 << 12)
GC5 = outage.GramCharlierMethod(5)


# ---------------------------------------------------------------------------
# method parsing


def test_parse_method_names():
    assert outage.parse_method("cf") == outage.CharFnMethod()
    assert outage.parse_method("mc") == outage.MonteCarloMethod()
    assert outage.parse_method("gc") == outage.GramCharlierMethod(5)
    for k in range(6):
        assert outage.parse_method(f"gc{k}") == outage.GramCharlierMethod(k)
    assert outage.parse_method(" GC3 ") == outage.GramCharlierMethod(3)


def test_parse_method_passes_settings_through():
    assert outage.parse_method("cf", grid_points=1 << 10) == outage.CharFnMethod(1 << 10)
    assert outage.parse_method("mc", draws=500, seed=7) == outage.MonteCarloMethod(500, 7)
    assert outage.parse_method("gc3", 1 << 10, 500, 7) == outage.GramCharlierMethod(3)
    # the defaults are the method classes' own
    assert outage.parse_method("cf").grid_points == 1 << 16
    assert outage.parse_method("mc") == outage.MonteCarloMethod(100_000, 0)


@pytest.mark.parametrize("bad", ["gc6", "gc-1", "fft", "", "montecarlo"])
def test_parse_method_rejects(bad):
    with pytest.raises(ValueError):
        outage.parse_method(bad)


def test_method_validation():
    with pytest.raises(ValueError):
        outage.GramCharlierMethod(6)
    with pytest.raises(ValueError):
        outage.MonteCarloMethod(draws=0)
    assert outage.GramCharlierMethod(2).label == "gc2"
    assert outage.CharFnMethod().label == "cf"
    assert outage.MonteCarloMethod().label == "mc"


# ---------------------------------------------------------------------------
# scalar routes vs enumeration


def test_headroom_matches_definition():
    s = toy()
    for i in (0, 5, 17):
        expected = (
            float(s.own_power[i]) / s.config.detection_threshold
            - float(s.noise_power[i])
        )
        assert outage.interference_headroom(s)[i] == pytest.approx(expected, rel=0)


def test_interference_terms_match_member_enumeration():
    # members and effective activities enumerated from the colors by bit
    # arithmetic, apart from the library's decoding
    s = toy()
    r = s.config.num_resources

    def held(mode, c):
        if mode == "single":
            return [c] if c else []
        return [n for n in range(1, r + 1) if c >> (n - 1) & 1]

    for mode in ("single", "multiple"):
        bound = access.color_bound(mode, r)
        colors = np.random.default_rng(4).integers(0, bound + 1, size=(s.num_cns, s.num_beams))
        colors[0, 0] = 1
        alloc = access.ResourceAllocation(mode, colors, r)
        flat = colors.ravel().tolist()
        checked = 0
        for i in range(s.num_sensors):
            d = int(s.det_node[i])
            for t in held(mode, flat[d]):
                members = [
                    j for j in range(s.num_sensors)
                    if j != i and t in held(mode, flat[s.det_node[j]])
                ]
                expect_w = [float(s.powers_at[d, j]) for j in members]
                expect_p = [
                    float(s.activities[j]) / len(held(mode, flat[s.det_node[j]]))
                    for j in members
                ]
                weights, probs = outage.interference_terms(alloc, s, i, t)
                assert weights.tolist() == expect_w
                assert probs.tolist() == expect_p
                checked += 1
        assert checked > 0


def test_cf_tail_matches_enumeration():
    s = toy()
    alloc = full_reuse(s)
    for i in (0, 5, 12):
        weights, probs = outage.interference_terms(alloc, s, i, 1)
        exact = stats_core.exact_pmf(list(zip(weights, probs)))
        thr = outage.interference_headroom(s)[i]
        got = outage.outage_single(alloc, s, i, 1, CF)
        assert abs(got - exact.tail(thr)) < 1e-3


def test_series_tail_close_to_enumeration():
    # the order-5 series is only trusted from the shoulder outward, so probe
    # moderate-tail thresholds rather than the (possibly multimodal) bulk
    s = toy()
    alloc = full_reuse(s)
    for i in (0, 5, 12):
        weights, probs = outage.interference_terms(alloc, s, i, 1)
        model = stats_core.build_model(list(zip(weights, probs)))
        exact = stats_core.exact_pmf(list(zip(weights, probs)))
        approx = stats_core.gram_charlier(model, 5)
        sigma = math.sqrt(model.variance)
        for mult in (2.0, 3.0, 4.0):
            thr = model.mean + mult * sigma
            got = stats_core.tail_probability(approx, thr)
            assert abs(got - exact.tail(thr)) < 0.05


# ---------------------------------------------------------------------------
# edge conventions


def isolated_alloc(s, sensor):
    """Single-mode allocation where the sensor's tuple is alone on resource 1."""
    colors = single_colors(s, fill=2)
    k, l = divmod(int(s.det_node[sensor]), s.num_beams)
    colors[k, l] = 1
    return access.ResourceAllocation("single", colors, s.config.num_resources)


def test_no_interferers_with_good_snr_gives_zero():
    s = toy()
    alloc = isolated_alloc(s, 0)
    # alone on the resource unless another tuple's sensors share this tuple
    node = int(s.det_node[0])
    lone = np.count_nonzero(s.det_node == node) == 1
    if lone:
        for method in (CF, GC5):
            assert outage.outage_single(alloc, s, 0, 1, method) == 0.0
        assert outage.monte_carlo_outage(alloc, s, 0, draws=2000, seed=1) == 0.0
    else:
        got = outage.outage_single(alloc, s, 0, 1, CF)
        full = outage.outage_single(full_reuse(s), s, 0, 1, CF)
        assert got <= full


def test_switched_off_tuple_is_certain_outage():
    s = toy()
    colors = single_colors(s, fill=1)
    k, l = divmod(int(s.det_node[3]), s.num_beams)
    colors[k, l] = 0
    alloc = access.ResourceAllocation("single", colors, s.config.num_resources)
    for method in (CF, GC5):
        assert outage.outage_single(alloc, s, 3, 1, method) == 1.0
        assert outage.outage_multi(alloc, s, 3, method) == 1.0
    assert outage.monte_carlo_outage(alloc, s, 3, draws=100, seed=0) == 1.0


def test_unheld_resource_raises():
    s = toy()
    alloc = full_reuse(s)  # everyone holds resource 1 only
    with pytest.raises(ValueError, match="not 2"):
        outage.outage_single(alloc, s, 0, 2, CF)


def test_noise_dominated_sensor_always_fails():
    s = toy(detection_threshold=1e9)
    alloc = full_reuse(s)
    assert outage.interference_headroom(s)[0] < 0.0
    for method in (CF, GC5):
        assert outage.outage_single(alloc, s, 0, 1, method) == 1.0
    assert outage.monte_carlo_outage(alloc, s, 0, draws=100, seed=0) == 1.0


def test_huge_headroom_gives_zero():
    s = toy(detection_threshold=1e-12)
    alloc = full_reuse(s)
    for method in (CF, GC5):
        assert outage.outage_single(alloc, s, 0, 1, method) == 0.0
    assert outage.monte_carlo_outage(alloc, s, 0, draws=500, seed=0) == 0.0


# ---------------------------------------------------------------------------
# resource-set averaging


def test_multi_reduces_to_single_for_singleton_sets():
    s = toy()
    single = full_reuse(s)
    one_hot = access.ResourceAllocation(  # code 1: resource 1 alone
        "multiple", np.ones((s.num_cns, s.num_beams), dtype=np.int64), s.config.num_resources
    )
    for i in (0, 5, 16):
        a = outage.outage_single(single, s, i, 1, CF)
        b = outage.outage_multi(one_hot, s, i, CF)
        c = outage.outage_multi(single, s, i, CF)
        assert a == pytest.approx(b, abs=1e-15)
        assert a == pytest.approx(c, abs=1e-15)


def test_multi_is_uniform_average_over_held_resources():
    s = toy()
    rng = np.random.default_rng(2)
    colors = rng.integers(1, 8, size=(s.num_cns, s.num_beams))
    alloc = access.ResourceAllocation("multiple", colors, s.config.num_resources)
    for i in (0, 7, 13):
        held = (np.flatnonzero(alloc.holds[s.det_node[i]]) + 1).tolist()
        singles = [outage.outage_single(alloc, s, i, t, CF) for t in held]
        expected = math.fsum(singles) / len(singles)
        assert outage.outage_multi(alloc, s, i, CF) == pytest.approx(expected, rel=0)


# ---------------------------------------------------------------------------
# Monte Carlo


def exact_outage(alloc, s, i):
    """Outage by enumerating every on/off pattern of each held resource's
    interference terms, averaged over the held resources."""
    threshold = outage.interference_headroom(s)[i]
    tails = []
    for t in np.flatnonzero(alloc.holds[s.det_node[i]]) + 1:
        weights, probs = outage.interference_terms(alloc, s, i, int(t))
        tails.append(stats_core.exact_pmf(list(zip(weights, probs))).tail(threshold))
    return math.fsum(tails) / len(tails)


@pytest.mark.parametrize(
    "mode,activity,sensors",
    [
        ("single", 0.12, (0, 5)),
        # tuples holding 2 or 3 resources; the sensors span all four tuples
        ("multiple", 0.1, (0, 5, 8, 13, 17)),
        ("multiple", 0.5, (0, 5, 8, 13, 17)),
    ],
    ids=["single", "multiple-p0.1", "multiple-p0.5"],
)
def test_mc_matches_exact_law_within_binomial_error(mode, activity, sensors):
    s = toy(activity=activity)
    if mode == "single":
        alloc = full_reuse(s)
    else:
        alloc = access.ResourceAllocation(mode, np.array([[3, 5], [6, 7]]), 3)
        assert set(alloc.set_sizes[s.det_node[list(sensors)]].tolist()) == {2, 3}
    draws = 20_000
    for i in sensors:
        p_exact = exact_outage(alloc, s, i)
        assert 0.0 < p_exact < 1.0
        p_mc = outage.monte_carlo_outage(alloc, s, i, draws=draws, seed=9)
        se = math.sqrt(p_exact * (1.0 - p_exact) / draws)
        assert abs(p_mc - p_exact) < 4.0 * se + 2e-3


def test_mc_is_deterministic_per_seed():
    s = toy()
    alloc = full_reuse(s)
    a = outage.monte_carlo_outage(alloc, s, 4, draws=500, seed=21)
    b = outage.monte_carlo_outage(alloc, s, 4, draws=500, seed=21)
    assert a == b
    with pytest.raises(ValueError):
        outage.monte_carlo_outage(alloc, s, 4, draws=0)


@pytest.mark.parametrize("fill", [1, 0], ids=["held", "switched-off"])
def test_analytic_routes_reject_monte_carlo_method(fill):
    # raised at entry, also where an edge convention would return first
    s = toy()
    alloc = access.ResourceAllocation("single", single_colors(s, fill), 3)
    mc = outage.MonteCarloMethod(100, seed=0)
    with pytest.raises(TypeError, match="monte_carlo_outage"):
        outage.outage_single(alloc, s, 0, 1, mc)
    with pytest.raises(TypeError, match="monte_carlo_outage"):
        outage.outage_multi(alloc, s, 0, mc)


@pytest.mark.parametrize("mode,code", [("single", 2), ("multiple", 5)])
def test_average_outage_mc_is_the_per_sensor_loop(mode, code):
    s = toy()
    alloc = access.ResourceAllocation(mode, single_colors(s, code), s.config.num_resources)
    report = outage.average_outage(alloc, s, outage.MonteCarloMethod(300, seed=17))
    loop = [outage.monte_carlo_outage(alloc, s, i, 300, 17) for i in range(s.num_sensors)]
    assert report.per_sensor.tolist() == loop


def test_always_on_interferers_are_deterministic():
    s = toy(activity=1.0)
    alloc = full_reuse(s)
    for i in range(0, 18, 5):
        gc = outage.outage_single(alloc, s, i, 1, GC5)
        mc = outage.monte_carlo_outage(alloc, s, i, draws=64, seed=0)
        cf = outage.outage_single(alloc, s, i, 1, CF)
        assert gc in (0.0, 1.0)
        assert mc == gc
        # the numerical inversion leaks ~1e-6 of an atom's mass across bins
        assert cf == pytest.approx(gc, abs=2e-5)


# ---------------------------------------------------------------------------
# monotonicity and invariance


def test_added_interfering_tuple_never_helps():
    s = toy()
    node = int(s.det_node[0])
    base = isolated_alloc(s, 0)
    baseline = outage.outage_single(base, s, 0, 1, CF)
    for other in range(s.num_tuples):
        if other == node:
            continue
        colors = base.colors.copy()
        k, l = divmod(other, s.num_beams)
        colors[k, l] = 1
        widened = access.ResourceAllocation("single", colors, s.config.num_resources)
        assert outage.outage_single(widened, s, 0, 1, CF) >= baseline - 1e-12


def test_higher_activity_never_helps():
    lo, hi = toy(activity=0.05), toy(activity=0.25)
    assert np.array_equal(lo.positions, hi.positions)
    p_lo = outage.outage_single(full_reuse(lo), lo, 0, 1, CF)
    p_hi = outage.outage_single(full_reuse(hi), hi, 0, 1, CF)
    assert p_hi >= p_lo - 1e-12


def test_joint_power_noise_scaling_invariance():
    base = toy()
    scaled = toy(tx_power=base.config.tx_power * 1e3, noise_power=7.2e-13)
    assert np.array_equal(base.det_node, scaled.det_node)
    alloc = full_reuse(base)
    gc_a = outage.average_outage(alloc, base, GC5).per_sensor
    gc_b = outage.average_outage(alloc, scaled, GC5).per_sensor
    np.testing.assert_allclose(gc_a, gc_b, rtol=0, atol=5e-9)
    cf_a = outage.average_outage(alloc, base, CF).per_sensor
    cf_b = outage.average_outage(alloc, scaled, CF).per_sensor
    np.testing.assert_allclose(cf_a, cf_b, rtol=0, atol=5e-9)


# ---------------------------------------------------------------------------
# batched series engine


@pytest.mark.parametrize("order", [0, 2, 5])
def test_engine_matches_scalar_single_mode(order):
    s = toy()
    alloc = full_reuse(s)
    method = outage.GramCharlierMethod(order)
    got = outage.GcOutageEngine(s, order).outage_vector(alloc)
    expected = [outage.outage_multi(alloc, s, i, method) for i in range(s.num_sensors)]
    np.testing.assert_allclose(got, expected, rtol=0, atol=5e-12)


def test_engine_matches_scalar_multiple_mode():
    s = toy()
    rng = np.random.default_rng(12)
    colors = rng.integers(0, 8, size=(s.num_cns, s.num_beams))
    alloc = access.ResourceAllocation("multiple", colors, s.config.num_resources)
    got = outage.GcOutageEngine(s, 5).outage_vector(alloc)
    expected = [outage.outage_multi(alloc, s, i, GC5) for i in range(s.num_sensors)]
    np.testing.assert_allclose(got, expected, rtol=0, atol=5e-12)


@settings(max_examples=200, deadline=None)
@given(
    num_sensors=st.integers(1, 14),
    num_cns=st.integers(1, 4),
    beams=st.integers(1, 3),
    num_resources=st.integers(1, 3),
    activity=st.sampled_from([0.0, 0.12, 0.5, 1.0]),
    tx_power=st.sampled_from([0.0, 0.1]),
    mode=st.sampled_from(["single", "multiple"]),
    seed=st.integers(0, 2**16),
    order=st.sampled_from([0, 2, 5]),
)
@example(
    num_sensors=9, num_cns=2, beams=3, num_resources=2, activity=1.0,
    tx_power=0.1, mode="multiple", seed=113, order=5,
)
def test_engine_matches_scalar_series_on_small_scenarios(
    num_sensors, num_cns, beams, num_resources, activity, tx_power, mode, seed, order
):
    # covers fewer sensors than collectors, one beam, R = 1, activity 0, 0.5
    # and 1, and tx_power 0 (negative headroom everywhere); the example has
    # a strong own term that a subtraction from the pooled sums would cancel
    s = toy(
        num_sensors=num_sensors, num_cns=num_cns, beams=beams,
        num_resources=num_resources, activity=activity, tx_power=tx_power, seed=seed,
    )
    bound = access.color_bound(mode, num_resources)
    colors = np.random.default_rng(seed).integers(0, bound + 1, size=(num_cns, beams))
    alloc = access.ResourceAllocation(mode, colors, num_resources)
    got = outage.GcOutageEngine(s, order).outage_vector(alloc)
    method = outage.GramCharlierMethod(order)
    expected = [outage.outage_multi(alloc, s, i, method) for i in range(s.num_sensors)]
    np.testing.assert_allclose(got, expected, rtol=0, atol=5e-12)


@pytest.mark.parametrize("order", [0, 2, 5])
@pytest.mark.parametrize("chunk_rows", [None, 1])
@pytest.mark.parametrize("mode", ["single", "multiple"])
def test_palette_scores_equal_full_recompute(mode, chunk_rows, order, monkeypatch):
    # the series pass branches on the order (no Bell terms at 0, the
    # variance-only depth at 2), so the bitwise guarantee is pinned for each
    if chunk_rows is not None:
        monkeypatch.setattr(outage, "_PAIR_CHUNK_ROWS", chunk_rows)
    num_resources = 3
    full = access.color_bound(mode, num_resources)
    for s in (toy(), toy(detection_threshold=1e9)):  # the second is hopeless
        engine = outage.GcOutageEngine(s, order)
        rng = np.random.default_rng(5)
        colors = rng.integers(0, full + 1, size=(s.num_cns, s.num_beams))
        colors[0, 0] = 0  # one tuple switched off
        alloc = access.ResourceAllocation(mode, colors, num_resources)
        cache = engine.outage_vector(alloc)
        for bound in (full, 2):
            palette = access.decode_holds(np.arange(bound + 1), mode, num_resources)
            for node in range(s.num_tuples):
                scores = engine.palette_outage(alloc.holds, node, palette, cache)
                assert scores.shape == (bound + 1, s.num_sensors)
                for color in range(bound + 1):
                    recolored = alloc.colors.copy()
                    recolored.flat[node] = color
                    expected = engine.outage_vector(
                        access.ResourceAllocation(mode, recolored, num_resources)
                    )
                    assert np.array_equal(scores[color], expected)


def assert_palette_equals_full_recompute(s, mode, nodes, seed=5):
    """Every full-palette score of each node equals a from-scratch vector."""
    num_resources = s.config.num_resources
    full = access.color_bound(mode, num_resources)
    engine = outage.GcOutageEngine(s)
    colors = np.random.default_rng(seed).integers(0, full + 1, size=(s.num_cns, s.num_beams))
    alloc = access.ResourceAllocation(mode, colors, num_resources)
    cache = engine.outage_vector(alloc)
    palette = access.decode_holds(np.arange(full + 1), mode, num_resources)
    for node in nodes:
        scores = engine.palette_outage(alloc.holds, node, palette, cache)
        for color in range(full + 1):
            recolored = alloc.colors.copy()
            recolored.flat[node] = color
            expected = engine.outage_vector(
                access.ResourceAllocation(mode, recolored, num_resources)
            )
            assert np.array_equal(scores[color], expected), (node, color)


# The source-tuple sum splits at the re-colored node into a shared prefix,
# the node's own term and a shared suffix; these cases sit at its edges.


@pytest.mark.parametrize("mode", ["single", "multiple"])
def test_palette_at_first_and_last_node_equals_full_recompute(mode):
    s = toy()
    assert_palette_equals_full_recompute(s, mode, [0, s.num_tuples - 1])


@pytest.mark.parametrize("activity", [0.0, 1.0])
@pytest.mark.parametrize("mode", ["single", "multiple"])
def test_palette_at_extreme_activity_equals_full_recompute(mode, activity):
    s = toy(activity=activity)
    assert_palette_equals_full_recompute(s, mode, range(s.num_tuples))


@pytest.mark.parametrize("mode", ["single", "multiple"])
def test_palette_with_one_tuple_equals_full_recompute(mode):
    s = toy(num_cns=1, beams=1)
    assert s.num_tuples == 1
    assert_palette_equals_full_recompute(s, mode, [0])


def test_palette_at_desk_tuple_count_equals_full_recompute():
    s = toy(num_sensors=120, num_cns=5, beams=4, num_resources=4, area_side=400.0)
    assert s.num_tuples >= 20
    assert_palette_equals_full_recompute(s, "multiple", range(s.num_tuples))


@settings(max_examples=100, deadline=None)
@given(
    num_sensors=st.integers(1, 14),
    num_cns=st.integers(1, 3),
    beams=st.integers(1, 3),
    num_resources=st.integers(1, 3),
    activity=st.sampled_from([0.0, 0.12, 0.5, 1.0]),
    mode=st.sampled_from(["single", "multiple"]),
    seed=st.integers(0, 2**16),
)
@example(
    num_sensors=3, num_cns=1, beams=1, num_resources=2, activity=0.5,
    mode="multiple", seed=35120,
)
def test_palette_rows_equal_full_recompute_on_small_scenarios(
    num_sensors, num_cns, beams, num_resources, activity, mode, seed
):
    # a row's series coefficients must not depend on how many rows share
    # the coefficient call, or palette and full scores part in the last bit
    s = toy(
        num_sensors=num_sensors, num_cns=num_cns, beams=beams,
        num_resources=num_resources, activity=activity, seed=seed,
    )
    assert_palette_equals_full_recompute(s, mode, range(s.num_tuples), seed)


def test_engine_rejects_order_above_five():
    with pytest.raises(ValueError, match="order"):
        outage.GcOutageEngine(toy(), order=6)


def test_batched_series_twin_matches_scalar_pipeline():
    from scipy.special import ndtr

    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(5, 13))
        weights = 10.0 ** rng.uniform(-3, 0, n)
        probs = rng.uniform(0.05, 0.5, n)
        model = stats_core.build_model(list(zip(weights, probs)))
        sigma = math.sqrt(model.variance)
        for order in (0, 1, 2, 3, 5):
            for mult in (1.5, 3.0):
                thr = model.mean + mult * sigma
                if not 0.0 < thr < model.support_bound:
                    continue
                scalar = stats_core.tail_probability(
                    stats_core.gram_charlier(model, order), thr
                )
                kappa = np.array([model.cumulants[: max(order, 2)]])
                rows = stats_core._series_coefficients(
                    kappa, np.array([model.support_bound]), (order,), ndtr
                )
                got = stats_core._series_tails(
                    np.array([thr]), *rows[:4], rows[4][0], ndtr
                )[0]
                assert got == pytest.approx(scalar, abs=1e-12)


# ---------------------------------------------------------------------------
# pooled characteristic-function batch


def test_average_outage_cf_matches_scalar_loop():
    # the pooled and per-sensor grids differ, so compare where both resolve
    s = toy()
    fine = outage.CharFnMethod(1 << 13)
    for alloc in (
        full_reuse(s),
        access.ResourceAllocation(
            "multiple",
            np.random.default_rng(8).integers(1, 8, size=(s.num_cns, s.num_beams)),
            s.config.num_resources,
        ),
    ):
        report = outage.average_outage(alloc, s, fine)
        expected = [
            outage.outage_multi(alloc, s, i, fine) for i in range(s.num_sensors)
        ]
        np.testing.assert_allclose(report.per_sensor, expected, rtol=0, atol=2e-3)


def test_pooled_densities_share_their_destination_grid():
    s = toy()
    alloc = full_reuse(s)
    dists = outage.pooled_cf_densities(alloc, s, 1 << 10)
    assert set(dists) == {(i, 1) for i in range(s.num_sensors)}
    by_dest = {}
    for (i, _), dist in dists.items():
        assert dist.masses.size == 1 << 10
        assert dist.lower == 0.0
        assert dist.masses.sum() == pytest.approx(1.0, abs=1e-12)
        by_dest.setdefault(int(s.det_node[i]), set()).add(dist.upper)
    for uppers in by_dest.values():
        assert len(uppers) == 1
    # on a fine enough grid the pooled tails match exact enumeration
    fine = outage.pooled_cf_densities(alloc, s, 1 << 13)
    for i in (0, 5, 12):
        weights, probs = outage.interference_terms(alloc, s, i, 1)
        exact = stats_core.exact_pmf(list(zip(weights, probs)))
        thr = outage.interference_headroom(s)[i]
        for mult in (0.5, 1.0, 2.0):
            assert fine[(i, 1)].tail(thr * mult) == pytest.approx(
                exact.tail(thr * mult), abs=2e-3
            )


def test_pooled_grid_spans_every_eligible_term():
    # at 60 desk sensors, tuple 5's pool has terms below 1e-9 of its weight
    s = scn.generate_scenario(replace(DESK, num_sensors=60))
    alloc = full_reuse(s)
    row = s.powers_at[5]
    eligible = np.sort(row[row > 0.0])
    assert eligible[0] < 1e-9 * eligible.sum()
    total = math.fsum(eligible)
    q = 1 << 8
    sensor = int(np.flatnonzero(s.det_node == 5)[0])
    dist = outage.pooled_cf_densities(alloc, s, q, sensors=[sensor])[(sensor, 1)]
    assert dist.upper == pytest.approx(total * (1.0 + 1.0 / q), rel=1e-14, abs=0.0)


def test_pooled_densities_sensor_filter():
    s = toy()
    alloc = full_reuse(s)
    dists = outage.pooled_cf_densities(alloc, s, 1 << 8, sensors=np.array([2, 9]))
    assert set(dists) == {(2, 1), (9, 1)}


@pytest.mark.parametrize("mode", ["single", "multiple"])
def test_pooled_densities_for_one_sensor_equal_the_full_pass(mode):
    s = toy()
    rng = np.random.default_rng(23)
    bound = access.color_bound(mode, s.config.num_resources)
    colors = rng.integers(1, bound + 1, size=(s.num_cns, s.num_beams))
    alloc = access.ResourceAllocation(mode, colors, s.config.num_resources)
    every = outage.pooled_cf_densities(alloc, s, 1 << 9)
    for i in range(s.num_sensors):
        one = outage.pooled_cf_densities(alloc, s, 1 << 9, sensors=[i])
        assert set(one) == {key for key in every if key[0] == i}
        for key, dist in one.items():
            assert np.array_equal(dist.masses, every[key].masses)
            assert dist.upper == every[key].upper


@pytest.mark.parametrize("mode", ["single", "multiple"])
@pytest.mark.parametrize("activity", [0.5, 1.0])
def test_pooled_pass_at_high_activity(mode, activity):
    # at p_eff = 0.5 an own factor 1/2 + 1/2 e^{iwf} vanishes where wf = pi,
    # so the leave-one-out products must not divide anything out
    s = toy(activity=activity)
    bound = access.color_bound(mode, s.config.num_resources)
    colors = np.random.default_rng(5).integers(1, bound + 1, size=(s.num_cns, s.num_beams))
    alloc = access.ResourceAllocation(mode, colors, s.config.num_resources)
    fine = outage.CharFnMethod(1 << 13)
    dists = outage.pooled_cf_densities(alloc, s, fine.grid_points)
    for i in (0, 5, 12):
        t = int(np.flatnonzero(alloc.holds[s.det_node[i]])[0]) + 1
        weights, probs = outage.interference_terms(alloc, s, i, t)
        exact = stats_core.exact_pmf(list(zip(weights, probs)))
        thr = outage.interference_headroom(s)[i]
        for mult in (0.5, 1.0, 2.0):
            assert dists[(i, t)].tail(thr * mult) == pytest.approx(
                exact.tail(thr * mult), abs=2e-3
            )
    batch = outage.batch_cf_outage(alloc, s, fine.grid_points)
    expected = [
        np.mean([outage.outage_single(alloc, s, i, t, fine)
                 for t in np.flatnonzero(alloc.holds[s.det_node[i]]) + 1])
        for i in range(s.num_sensors)
    ]
    np.testing.assert_allclose(batch, expected, rtol=0, atol=2e-3)


def test_batch_cf_respects_off_tuple_convention():
    s = toy()
    colors = single_colors(s, fill=1)
    colors[0, 0] = 0
    alloc = access.ResourceAllocation("single", colors, s.config.num_resources)
    dark = s.det_node == 0
    if not dark.any():
        pytest.skip("no sensor detected at the switched-off tuple")
    batch = outage.batch_cf_outage(alloc, s, 1 << 10)
    assert np.all(batch[dark] == 1.0)
    engine = outage.GcOutageEngine(s).outage_vector(alloc)
    assert np.all(engine[dark] == 1.0)


def test_all_off_allocation_is_total_outage():
    s = toy()
    alloc = access.ResourceAllocation(
        "single", np.zeros((s.num_cns, s.num_beams), dtype=np.int64), 3
    )
    assert np.all(outage.batch_cf_outage(alloc, s, 1 << 8) == 1.0)
    assert np.all(outage.GcOutageEngine(s).outage_vector(alloc) == 1.0)
    report = outage.average_outage(alloc, s, outage.MonteCarloMethod(10, seed=0))
    assert report.average == 1.0 and report.maximum == 1.0
    # no pair is live, but the grid is still checked
    with pytest.raises(ValueError, match="power of two"):
        outage.batch_cf_outage(alloc, s, grid_points=100)


def random_alloc(s, mode, seed):
    bound = access.color_bound(mode, s.config.num_resources)
    colors = np.random.default_rng(seed).integers(0, bound + 1, size=(s.num_cns, s.num_beams))
    return access.ResourceAllocation(mode, colors, s.config.num_resources)


def pair_edge(alloc, s, i, t):
    """outage_single's edge value of pair (i, t), or None when its law decides."""
    thr = outage.interference_headroom(s)[i]
    if thr < 0.0:
        return 1.0
    weights, _ = outage.interference_terms(alloc, s, i, t)
    if weights.size == 0 or thr >= weights.sum():
        return 0.0
    return None


def held(alloc, s, i):
    return (np.flatnonzero(alloc.holds[s.det_node[i]]) + 1).tolist()


@pytest.mark.parametrize("mode", ["single", "multiple"])
@pytest.mark.parametrize(
    "overrides",
    [dict(activity=0.0), dict(activity=0.1), dict(activity=0.5), dict(activity=1.0),
     dict(tx_power=0.0)],
    ids=["p0", "p0.1", "p0.5", "p1", "tx0"],
)
def test_batch_cf_equals_per_pair_reading_of_the_pooled_laws(mode, overrides):
    s = toy(**overrides)
    alloc = random_alloc(s, mode, 31)
    grid = 1 << 9
    dists = outage.pooled_cf_densities(alloc, s, grid)
    thresholds = outage.interference_headroom(s)
    expected = np.ones(s.num_sensors)
    for i in range(s.num_sensors):
        resources = held(alloc, s, i)
        if not resources:
            continue
        total = 0.0
        for t in resources:
            value = pair_edge(alloc, s, i, t)
            if value is None:
                value = dists[(i, t)].tail(thresholds[i])
            total += value * (1.0 / len(resources))
        expected[i] = total
    assert np.array_equal(outage.batch_cf_outage(alloc, s, grid), expected)


@pytest.mark.parametrize("mode", ["single", "multiple"])
def test_batch_cf_inverts_only_the_live_pairs(mode, monkeypatch):
    s = toy(num_sensors=30)
    alloc = random_alloc(s, mode, 4)
    pairs = [(i, t) for i in range(s.num_sensors) for t in held(alloc, s, i)]
    live = sum(pair_edge(alloc, s, i, t) is None for i, t in pairs)
    assert 0 < live < len(pairs)
    calls = []
    inner = outage._invert_spectrum

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(outage, "_invert_spectrum", counted)
    outage.batch_cf_outage(alloc, s, 1 << 8)
    assert len(calls) == live


@settings(max_examples=100, deadline=None)
@given(
    num_sensors=st.integers(1, 14),
    num_cns=st.integers(1, 4),
    beams=st.integers(1, 3),
    num_resources=st.integers(1, 3),
    activity=st.sampled_from([0.0, 0.12, 1.0]),
    tx_power=st.sampled_from([0.0, 0.1]),
    mode=st.sampled_from(["single", "multiple"]),
    seed=st.integers(0, 2**16),
)
def test_edge_decided_sensors_agree_exactly_across_routes(
    num_sensors, num_cns, beams, num_resources, activity, tx_power, mode, seed
):
    # fewer sensors than collectors, one beam, R = 1, activity 0 and 1, and
    # tx_power 0: a sensor none of whose held pairs needs a law reads the
    # same exact 0 or 1 from every analytic route
    s = toy(
        num_sensors=num_sensors, num_cns=num_cns, beams=beams,
        num_resources=num_resources, activity=activity, tx_power=tx_power, seed=seed,
    )
    alloc = random_alloc(s, mode, seed)
    engine = outage.GcOutageEngine(s, 5).outage_vector(alloc)
    batch = outage.batch_cf_outage(alloc, s, 1 << 8)
    for i in range(s.num_sensors):
        edges = {pair_edge(alloc, s, i, t) for t in held(alloc, s, i)}
        if None in edges:
            continue
        expected = 1.0 if not edges else edges.pop()
        assert not edges  # one headroom per sensor: all 1 or all 0
        assert engine[i] == batch[i] == expected
        assert outage.outage_multi(alloc, s, i, GC5) == expected
        assert outage.outage_multi(alloc, s, i, CF) == expected


# ---------------------------------------------------------------------------
# reports


def test_report_summary_fields():
    s = toy()
    report = outage.average_outage(full_reuse(s), s, GC5)
    assert report.mode == "single"
    assert report.method_label == "gc5"
    assert report.average == pytest.approx(float(report.per_sensor.mean()), rel=0)
    assert report.maximum == pytest.approx(float(report.per_sensor.max()), rel=0)
    with pytest.raises(ValueError):
        report.per_sensor[0] = 0.5


def test_outage_csv_layout_and_determinism(tmp_path):
    s = toy()
    report = outage.average_outage(full_reuse(s), s, CF)
    path = tmp_path / "outage.csv"
    outage.write_outage_csv(report, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert b"np.float64" not in raw
    lines = raw.decode().splitlines()
    assert lines[0].startswith("# outage mode=single method=cf")
    assert lines[1] == "sensor_id,resource_mode,method,p_out"
    assert len(lines) == 2 + s.num_sensors + 1
    first = lines[2].split(",")
    assert first[:3] == ["0", "single", "cf"]
    assert float(first[3]) == report.per_sensor[0]
    assert lines[-1].startswith("# average=")
    outage.write_outage_csv(report, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == raw


def test_scalar_series_leaves_scipy_special_unloaded():
    # the scalar series tail is the one-row case of the engine's routine, fed
    # the math.erfc normal cdf; only the batched GC engine imports scipy.special
    code = (
        "import sys\n"
        "from mmtc_outage import access, outage, scenario\n"
        "cfg = scenario.ScenarioConfig(num_sensors=12, num_cns=2, antennas=4, beams=2, activity=0.3)\n"
        "s = scenario.generate_scenario(cfg)\n"
        "alloc = access.ResourceAllocation('single', [[1, 1], [1, 1]], cfg.num_resources)\n"
        "values = [outage.outage_multi(alloc, s, i, outage.GramCharlierMethod(5)) for i in range(12)]\n"
        "print(0.0 < sum(values) < 12.0, 'scipy.special' in sys.modules)\n"
    )
    src = str(Path(outage.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": src, "PATH": ""},
    )
    assert done.stdout.split() == ["True", "False"]
