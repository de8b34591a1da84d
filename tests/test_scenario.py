import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmtc_outage.scenario import (
    ScenarioConfig,
    _channels_for_cn,
    assemble_scenario,
    beam_boresights,
    config_summary,
    generate_scenario,
    load_scenario_config,
    steering_vector,
    uniform_beam_filters,
    write_scenario_csv,
)


def small_config(**overrides):
    defaults = dict(
        num_sensors=30,
        num_cns=3,
        antennas=8,
        activity=0.1,
        deploy_radius=100.0,
        area_side=600.0,
        seed=11,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


# --- steering vectors and filters ---------------------------------------


@settings(max_examples=40)
@given(st.floats(-10.0, 10.0), st.integers(1, 16))
def test_steering_vector_has_unit_modulus_entries(angle, n):
    v = steering_vector(angle, n)
    assert v.shape == (n,)
    assert np.allclose(np.abs(v), 1.0)
    assert math.isclose(np.vdot(v, v).real, n)


def test_beam_boresights_equispaced():
    assert np.allclose(beam_boresights(4), [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])


def test_uniform_beam_filters_columns_are_steering_vectors():
    bank = uniform_beam_filters(6, 4)
    assert bank.shape == (6, 4)
    for l, ang in enumerate(beam_boresights(4)):
        assert np.array_equal(bank[:, l], steering_vector(ang, 6))


# --- channels -------------------------------------------------------------


def channel(position, cfg):
    """Channel of one sensor position towards a collector at the origin."""
    return _channels_for_cn(np.zeros(2), np.array([position], dtype=float), cfg)[0]


def test_channel_gain_follows_inverse_square_law():
    cfg = small_config()
    near = channel((30.0, 0.0), cfg)
    far = channel((60.0, 0.0), cfg)
    # doubling the distance quarters the path gain
    ratio = np.vdot(near, near).real / np.vdot(far, far).real
    assert math.isclose(ratio, 4.0, rel_tol=1e-12)


def test_channel_norm_value():
    cfg = small_config()
    d = 25.0
    h = channel((0.0, d), cfg)
    expected = cfg.antennas * (cfg.wavelength / (4 * math.pi * d)) ** 2
    assert math.isclose(np.vdot(h, h).real, expected, rel_tol=1e-12)


def test_channel_clamps_tiny_distances():
    cfg = small_config(min_distance=1.0)
    h_close = channel((0.2, 0.0), cfg)
    h_clamp = channel((1.0, 0.0), cfg)
    assert np.allclose(np.abs(h_close), np.abs(h_clamp))


def test_matched_filter_gain_on_boresight():
    # a sensor exactly on a beam's pointing direction sees the coherent gain
    # N^2 * path_gain through that beam's filter
    cfg = small_config(antennas=8, beams=8)
    filters = uniform_beam_filters(8, 8)
    d = 40.0
    for l, ang in enumerate(beam_boresights(8)):
        h = channel((d * math.cos(ang), d * math.sin(ang)), cfg)
        gain = abs(np.vdot(filters[:, l], h)) ** 2
        path_gain = (cfg.wavelength / (4 * math.pi * d)) ** 2
        assert math.isclose(gain, 64 * path_gain, rel_tol=1e-9)


# --- generation -----------------------------------------------------------


def test_even_split_across_collectors():
    scn = generate_scenario(small_config(num_sensors=9, num_cns=3))
    assert np.array_equal(np.bincount(scn.home_cn), [3, 3, 3])


def test_nearly_even_split():
    scn = generate_scenario(small_config(num_sensors=11, num_cns=3))
    assert sorted(np.bincount(scn.home_cn)) == [3, 4, 4]


def test_same_seed_reproduces_scenario():
    a = generate_scenario(small_config(seed=123))
    b = generate_scenario(small_config(seed=123))
    for field in ("cn_positions", "positions", "det_node", "own_power", "noise_power"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_different_seeds_differ():
    a = generate_scenario(small_config(seed=1))
    b = generate_scenario(small_config(seed=2))
    assert not np.array_equal(a.positions, b.positions)


def test_sensor_distances_uniform_in_disk():
    cfg = small_config(num_sensors=10_000, num_cns=1, antennas=2, seed=5)
    scn = generate_scenario(cfg)
    r = np.linalg.norm(scn.positions - scn.cn_positions[0], axis=1)
    assert r.max() <= cfg.deploy_radius
    assert r.min() >= cfg.min_distance
    # uniform disk: mean radius 2R/3
    assert abs(r.mean() - 2 * cfg.deploy_radius / 3) < 0.02 * cfg.deploy_radius


def test_collectors_inside_service_area():
    scn = generate_scenario(small_config(num_cns=3, area_side=500.0))
    assert np.all(scn.cn_positions >= 0.0)
    assert np.all(scn.cn_positions <= 500.0)


def test_min_distance_wider_than_disk_rejected():
    with pytest.raises(ValueError, match="min_distance"):
        generate_scenario(small_config(min_distance=200.0, deploy_radius=100.0))


# --- detection and powers -------------------------------------------------


def test_detection_tuple_attains_exhaustive_maximum():
    scn = generate_scenario(small_config(num_sensors=40, num_cns=4, antennas=6))
    K, L, N = scn.num_cns, scn.num_beams, scn.config.antennas
    channels = [_channels_for_cn(scn.cn_positions[k], scn.positions, scn.config) for k in range(K)]
    bank = uniform_beam_filters(N, L)  # every collector's bank
    for i in range(scn.num_sensors):
        best, best_node = -1.0, -1
        for k in range(K):
            for l in range(L):
                g = bank[:, l]
                num = abs(np.vdot(g, channels[k][i])) ** 2
                ratio = num / (scn.config.noise_power * np.vdot(g, g).real)
                if ratio > best:
                    best, best_node = ratio, k * L + l
        assert scn.det_node[i] == best_node


def test_beam_select_single_candidate():
    cfg = small_config(num_sensors=6, num_cns=1, antennas=4, beams=1)
    scn = generate_scenario(cfg)
    assert all(scn.detection_tuple(i) == (0, 0) for i in range(6))


def test_constructed_geometry_selects_boresight_beam():
    # sensor sits on beam 3's boresight of its home collector; the other
    # collector is 5x farther away, so the detection tuple must be (0, 3)
    cfg = small_config(num_sensors=1, num_cns=2, antennas=8, beams=8)
    ang = beam_boresights(8)[3]
    sensor = 50.0 * np.array([math.cos(ang), math.sin(ang)])
    cns = np.array([[0.0, 0.0], [1500.0, 0.0]])
    scn = assemble_scenario(cfg, cns, sensor[None, :], np.array([0]))
    assert scn.detection_tuple(0) == (0, 3)


def test_own_power_consistent_with_powers_at():
    scn = generate_scenario(small_config())
    for i in range(scn.num_sensors):
        assert scn.own_power[i] == scn.powers_at[scn.det_node[i], i]
    assert np.all(scn.own_power > 0)
    assert np.all(np.isfinite(scn.powers_at))
    assert np.all(scn.powers_at >= 0)


def test_interferer_power_depends_on_detector():
    # a_{j,i} is evaluated at sensor i's tuple, which in general differs from
    # a_{j,j} at sensor j's own tuple
    scn = generate_scenario(small_config(num_sensors=40, num_cns=4))
    i, j = 0, scn.num_sensors - 1
    assert scn.det_node[i] != scn.det_node[j]
    assert scn.powers_at[scn.det_node[i], j] != scn.powers_at[scn.det_node[j], j]


def test_zero_tx_power_zeroes_all_powers():
    scn = generate_scenario(small_config(tx_power=0.0))
    assert np.all(scn.powers_at == 0.0)
    assert np.all(scn.own_power == 0.0)


def test_noise_power_scales_with_filter_norm():
    cfg = small_config()
    scn = generate_scenario(cfg)
    # steering-vector filters all have squared norm N
    assert np.allclose(scn.noise_power, cfg.noise_power * cfg.antennas)


def test_scenario_arrays_are_read_only():
    scn = generate_scenario(small_config())
    with pytest.raises(ValueError):
        scn.powers_at[0, 0] = 1.0


# --- config validation and parsing ----------------------------------------


@pytest.mark.parametrize(
    "overrides",
    [
        dict(num_sensors=0),
        dict(num_cns=0),
        dict(antennas=0),
        dict(beams=0),
        dict(num_resources=0),
        dict(activity=1.5),
        dict(activity=-0.1),
        dict(interference_factor=0.5),
        dict(min_distance=0.0),
        dict(tx_power=-1.0),
        dict(noise_power=0.0),
        dict(area_side=-5.0),
    ],
)
def test_config_invariants_rejected(overrides):
    with pytest.raises(ValueError):
        ScenarioConfig(**overrides)


def test_beams_default_to_antennas():
    assert ScenarioConfig(antennas=12).num_beams == 12
    assert ScenarioConfig(antennas=12, beams=4).num_beams == 4


def test_default_detection_threshold_is_minus_6_7_db():
    assert math.isclose(
        10 * math.log10(ScenarioConfig().detection_threshold), -6.7
    )


def test_load_scenario_config(tmp_path):
    text = """
    # desk-scale run
    num_sensors = 500
    num_cns = 5
    antennas = 8
    beams = 8
    activity = 0.2   # per-slot transmit probability
    seed = 42
    """
    p = tmp_path / "desk.cfg"
    p.write_text(text)
    cfg = load_scenario_config(p)
    assert cfg == ScenarioConfig(
        num_sensors=500, num_cns=5, antennas=8, beams=8, activity=0.2, seed=42
    )


def test_load_scenario_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("sensors = 10\n")
    with pytest.raises(ValueError, match="unknown config key"):
        load_scenario_config(p)


def test_load_scenario_config_rejects_duplicates(tmp_path):
    p = tmp_path / "dup.cfg"
    p.write_text("seed = 1\nseed = 2\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_scenario_config(p)


def test_load_scenario_config_rejects_bad_value(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("num_sensors = many\n")
    with pytest.raises(ValueError, match="bad value"):
        load_scenario_config(p)


def test_load_scenario_config_rejects_bare_line(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("num_sensors\n")
    with pytest.raises(ValueError, match="key = value"):
        load_scenario_config(p)


def test_config_summary_lists_all_fields():
    cfg = ScenarioConfig()
    line = config_summary(cfg)
    for field in dataclasses.fields(cfg):
        assert f"{field.name}=" in line


# --- CSV dump ---------------------------------------------------------------


def test_scenario_csv_roundtrip_values(tmp_path):
    scn = generate_scenario(small_config(num_sensors=10))
    path = tmp_path / "scenario.csv"
    write_scenario_csv(scn, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# scenario ")
    assert lines[1] == "sensor_id,x_m,y_m,home_cn,det_cn,det_beam,a_ii_w,noise_w"
    assert len(lines) == 2 + scn.num_sensors
    first = lines[2].split(",")
    assert first[0] == "0"
    assert float(first[1]) == scn.positions[0, 0]
    assert int(first[3]) == scn.home_cn[0]
    assert (int(first[4]), int(first[5])) == scn.detection_tuple(0)
    assert float(first[6]) == scn.own_power[0]


def test_scenario_csv_deterministic(tmp_path):
    cfg = small_config(num_sensors=15, seed=9)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_scenario_csv(generate_scenario(cfg), p1)
    write_scenario_csv(generate_scenario(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert b"\r" not in p1.read_bytes()
