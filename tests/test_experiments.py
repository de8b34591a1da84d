"""Experiment-runner tests: spec validation, CSV contracts, determinism."""

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mmtc_outage import allocation, experiments, outage
from mmtc_outage import scenario as scn
from mmtc_outage.stats_core import DegenerateModelError, build_model, gram_charlier, jsd

DESK = scn.load_scenario_config(Path(__file__).resolve().parents[1] / "configs" / "desk.cfg")


def tiny_config(**overrides):
    base = dict(
        num_sensors=12,
        num_cns=2,
        antennas=4,
        beams=2,
        activity=0.15,
        num_resources=2,
        deploy_radius=60.0,
        area_side=400.0,
    )
    base.update(overrides)
    return scn.ScenarioConfig(**base)


def spec_for(experiment, **overrides):
    base = dict(
        experiment=experiment,
        config=tiny_config(),
        seed=3,
        grid_points=256,
        reps=1,
    )
    base.update(overrides)
    return experiments.ExperimentSpec(**base)


# ---------------------------------------------------------------------------
# spec validation


def test_spec_rejects_unknown_experiment():
    with pytest.raises(ValueError, match="unknown experiment"):
        spec_for("histogram")


@pytest.mark.parametrize(
    "bad",
    [
        dict(mode="both"),
        dict(method="fft"),
        dict(reps=0),
        dict(seed=-1),
        dict(sensor=-2),
        dict(grid_points=100),
        dict(orders=()),
        dict(orders=(0, 7)),
        dict(cdf_points=1),
        dict(orders=(5, 5)),
    ],
)
def test_spec_rejects_bad_fields(bad):
    with pytest.raises(ValueError):
        spec_for("cdf_compare", **bad)


def test_sweep_experiments_need_a_sweep():
    with pytest.raises(ValueError, match="sweep"):
        spec_for("error_vs_m")
    spec_for("error_vs_m", sweep=(10,))  # fine


@pytest.mark.parametrize("experiment", ["error_vs_m", "outage_vs_m"])
def test_sensor_sweeps_need_whole_counts(experiment):
    for sweep in ((8.7, 12.0), (12.0, float("inf")), (float("nan"),)):
        with pytest.raises(ValueError, match="whole sensor counts"):
            spec_for(experiment, sweep=sweep)
    spec_for(experiment, sweep=(8.0, 12))  # whole floats are fine
    spec_for(experiment.replace("_m", "_p"), sweep=(0.25,))  # activities need not be


ZERO_VARIANCE_ERROR = {"error_vs_p": "strictly between 0 and 1", "error_vs_m": "at least 2 sensors"}


@pytest.mark.parametrize(
    "experiment, sweep",
    [
        ("error_vs_p", (0.3, 0.0)),
        ("error_vs_p", (1.0,)),
        ("error_vs_p", (-0.2,)),
        ("error_vs_p", (float("nan"),)),
        ("error_vs_m", (1,)),
        ("error_vs_m", (10, 0)),
    ],
)
def test_error_sweeps_reject_zero_variance_points(experiment, sweep):
    # activity 0 or 1 and a lone sensor leave no variance to approximate
    with pytest.raises(ValueError, match=ZERO_VARIANCE_ERROR[experiment]):
        spec_for(experiment, sweep=sweep)
    edges = (2,) if experiment == "error_vs_m" else (1e-3, 0.999)
    spec_for(experiment, sweep=edges)  # fine
    # the outage sweeps score activity 0 and 1 and a lone sensor
    spec_for(experiment.replace("error", "outage"), sweep=(1,) if edges == (2,) else (0.0, 1.0))


def test_spec_summary_records_everything():
    spec = spec_for("error_vs_p", sweep=(0.1, 0.2), orders=(0, 5), reps=2)
    line = spec.summary()
    assert line.startswith("# error_vs_p seed=3")
    for token in ("mode=single", "reps=2", "orders=[0;5]", "config: num_sensors=12"):
        assert token in line


def test_empirical_cdf():
    got = experiments.empirical_cdf(
        np.array([0.2, 0.4]), np.array([0.0, 0.2, 0.3, 1.0])
    )
    assert got.tolist() == [0.0, 0.5, 0.5, 1.0]


def test_float_table_reads_like_row_tuples():
    columns = [np.array([0.0, 0.5, 1.0]), np.array([0.1, 0.2, 1.0 / 3.0])]
    table = experiments.FloatTable(columns)
    rows = ((0.0, 0.1), (0.5, 0.2), (1.0, 1.0 / 3.0))
    assert len(table) == 3
    assert table[1] == (0.5, 0.2) and table[-1] == rows[-1]
    assert type(table[0][0]) is float
    assert table[1:] == rows[1:]
    assert tuple(table) == rows and list(table) == list(rows)
    assert table == rows and rows == table and hash(table) == hash(rows)
    assert table == experiments.FloatTable(columns)
    assert table != experiments.FloatTable([columns[0], columns[1] + 1e-16])
    assert np.array_equal(np.array(table), np.array(rows))
    with pytest.raises(IndexError):
        table[3]


def test_full_reuse_allocation_shape():
    s = scn.generate_scenario(tiny_config())
    alloc = experiments.full_reuse_allocation(s)
    assert alloc.mode == "single"
    assert np.all(alloc.colors == 1)


# ---------------------------------------------------------------------------
# cdf_compare


def test_cdf_compare_layout_and_monotonicity(tmp_path):
    spec = spec_for("cdf_compare", sensor=1)
    result = experiments.run_experiment(spec)
    assert result.columns == (
        "gamma",
        "cdf_ref",
        "cdf_gc0",
        "cdf_gc1",
        "cdf_gc2",
        "cdf_gc3",
        "cdf_gc4",
        "cdf_gc5",
    )
    assert len(result.rows) == spec.grid_points
    table = np.array(result.rows)
    gammas, ref = table[:, 0], table[:, 1]
    assert np.all(np.diff(gammas) > 0)
    assert np.all(np.diff(ref) >= -1e-15)
    assert ref[-1] == pytest.approx(1.0, abs=1e-9)
    for col in range(2, 8):
        assert table[-1, col] == pytest.approx(1.0, abs=1e-6)
        assert np.all(table[:, col] >= -1e-12) and np.all(table[:, col] <= 1 + 1e-9)

    path = tmp_path / "cdf.csv"
    experiments.write_experiment_csv(result, path)
    raw = path.read_bytes()
    assert b"\r" not in raw and b"np.float64" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == spec.summary()
    assert lines[1] == "gamma,cdf_ref,cdf_gc0,cdf_gc1,cdf_gc2,cdf_gc3,cdf_gc4,cdf_gc5"
    assert len(lines) == 2 + spec.grid_points


def test_cdf_compare_sensor_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        experiments.run_experiment(spec_for("cdf_compare", sensor=99))


# ---------------------------------------------------------------------------
# error sweeps


def test_error_vs_m_rows_and_ranges():
    spec = spec_for("error_vs_m", sweep=(10, 16), orders=(0, 5), reps=2)
    result = experiments.run_experiment(spec)
    assert result.columns == ("sweep_value", "order", "epsilon")
    assert len(result.rows) == 4
    for value, order, eps in result.rows:
        assert value in (10, 16) and isinstance(value, int)
        assert order in (0, 5)
        assert 0.0 <= eps <= 1.0


def test_error_vs_p_uses_activity():
    spec = spec_for("error_vs_p", sweep=(0.05, 0.3), orders=(5,))
    result = experiments.run_experiment(spec)
    assert [row[0] for row in result.rows] == [0.05, 0.3]
    assert all(0.0 <= row[2] <= 1.0 for row in result.rows)


def test_error_sweep_is_deterministic(tmp_path):
    spec = spec_for("error_vs_m", sweep=(10,), orders=(5,), reps=2)
    a = experiments.run_experiment(spec)
    b = experiments.run_experiment(spec)
    assert a == b
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    experiments.write_experiment_csv(a, pa)
    experiments.write_experiment_csv(b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    shifted = experiments.run_experiment(spec_for("error_vs_m", sweep=(10,), orders=(5,), reps=2, seed=4))
    assert shifted != a


# ---------------------------------------------------------------------------
# batched series scoring against the scalar route


def _desk_full_reuse(activity, num_sensors=40):
    s = scn.generate_scenario(replace(DESK, num_sensors=num_sensors, activity=activity, seed=7))
    return s, experiments.full_reuse_allocation(s)


def _scalar_curves(alloc, s, sensor, reference, orders):
    """The per-sensor scalar route: build_model -> gram_charlier -> discretize."""
    weights, probs = outage.interference_terms(alloc, s, sensor, 1)
    model = build_model(list(zip(weights, probs)))
    return {
        order: gram_charlier(model, order).discretize(
            reference.lower, reference.upper, reference.num_bins
        )
        for order in orders
    }


@pytest.mark.parametrize("activity", [0.1, 0.3, 0.5])
@pytest.mark.parametrize("block_rows", [1, 16, 1000])
def test_series_divergence_equals_scalar_loop(monkeypatch, activity, block_rows):
    s, alloc = _desk_full_reuse(activity)
    grid = 256
    dists = outage.pooled_cf_densities(alloc, s, grid)
    scalar = {order: 0.0 for order in range(6)}
    for i in range(s.num_sensors):
        for order, binned in _scalar_curves(alloc, s, i, dists[(i, 1)], range(6)).items():
            scalar[order] += jsd(dists[(i, 1)], binned)
    monkeypatch.setattr(experiments, "_SERIES_BLOCK_ROWS", block_rows)
    for orders in (tuple(range(6)), (0, 5), (5,)):
        got = experiments._series_divergence(s, alloc, orders, grid)
        assert list(got) == list(orders)
        for order in orders:
            expected = scalar[order] / s.num_sensors
            assert got[order] == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("activity", [0.1, 0.5])
def test_cdf_compare_rows_equal_scalar_route(activity):
    spec = experiments.ExperimentSpec(
        "cdf_compare", replace(DESK, num_sensors=40, activity=activity), seed=2,
        sensor=5, grid_points=256,
    )
    table = np.array(experiments.run_experiment(spec).rows)
    scenario_seed = experiments._derived_entropy(spec.seed, 0, 0)[0]
    s = scn.generate_scenario(replace(spec.config, seed=scenario_seed))
    alloc = experiments.full_reuse_allocation(s)
    reference = outage.pooled_cf_densities(alloc, s, 256, sensors=np.array([5]))[(5, 1)]
    curves = _scalar_curves(alloc, s, 5, reference, range(6))
    for order in range(6):
        expected = np.cumsum(curves[order].masses)
        np.testing.assert_allclose(table[:, 2 + order], expected, rtol=1e-12, atol=1e-300)


@pytest.mark.parametrize("overrides", [dict(activity=1.0), dict(num_sensors=1)])
def test_series_divergence_degenerate_models_raise(overrides):
    s = scn.generate_scenario(replace(DESK, **{"num_sensors": 20, **overrides}))
    with pytest.raises(DegenerateModelError):
        experiments._series_divergence(s, experiments.full_reuse_allocation(s), range(6), 256)


def test_error_sweep_scores_a_law_inside_one_bin():
    # error_vs_p input of seed 1303 at M = 60: sensor 53's interference
    # support (9.1e-8) lies inside the first bin (1.85e-7) of its
    # destination's grid, so no bin midpoint falls within it
    spec = experiments.ExperimentSpec(
        "error_vs_p", replace(DESK, num_sensors=60), seed=1303, sweep=(0.3,), grid_points=1024
    )
    scenario_seed = experiments._derived_entropy(spec.seed, 0, 0)[0]
    s = scn.generate_scenario(replace(spec.config, activity=0.3, seed=scenario_seed))
    alloc = experiments.full_reuse_allocation(s)
    reference = outage.pooled_cf_densities(alloc, s, 1024, sensors=np.array([53]))[(53, 1)]
    weights, _ = outage.interference_terms(alloc, s, 53, 1)
    assert weights.sum() < 0.5 * reference.bin_width
    for binned in _scalar_curves(alloc, s, 53, reference, range(6)).values():
        assert np.array_equal(binned.masses, np.eye(1, 1024)[0])
    rows = experiments.run_experiment(spec).rows
    assert [r[1] for r in rows] == list(range(6))
    assert all(0.0 <= r[2] <= 1.0 for r in rows)


def test_error_sweeps_leave_scipy_special_unloaded():
    # the series sweep and cdf_compare use the math.erfc normal cdf; only the
    # batched GC engine imports scipy.special (tens of MB of resident memory)
    code = (
        "import sys\n"
        "from mmtc_outage import experiments, scenario\n"
        "cfg = scenario.ScenarioConfig(num_sensors=12, num_cns=2, antennas=4, beams=2)\n"
        "for kind, extra in (('error_vs_p', dict(sweep=(0.2,))), ('cdf_compare', {})):\n"
        "    experiments.run_experiment(experiments.ExperimentSpec(kind, cfg, grid_points=256, **extra))\n"
        "print('scipy.special' in sys.modules)\n"
    )
    src = str(Path(experiments.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": src, "PATH": ""},
    )
    assert done.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# allocation sweeps


def test_outage_vs_m_schema_and_gap():
    spec = spec_for("outage_vs_m", sweep=(16,), reps=2, method="gc5")
    result = experiments.run_experiment(spec)
    assert result.columns == ("sweep_value", "strategy", "mode", "avg_pout")
    assert [row[:3] for row in result.rows] == [
        (16, "greedy", "single"),
        (16, "random", "single"),
    ]
    greedy, random_ = result.rows[0][3], result.rows[1][3]
    assert 0.0 <= greedy <= 1.0 and 0.0 <= random_ <= 1.0
    assert greedy <= random_ + 1e-12


def test_outage_sweep_mc_seeds_derive_from_point_and_rep():
    # Monte Carlo draws follow SeedSequence([seed, point, rep]) like the
    # scenario and allocation draws: its third word seeds them
    spec = spec_for("outage_vs_m", sweep=(6, 8), reps=2, method="mc")
    rows = experiments.run_experiment(spec).rows
    for point, num_sensors in enumerate(spec.sweep):
        totals = {"greedy": 0.0, "random": 0.0}
        for rep in (0, 1):
            state = np.random.SeedSequence([spec.seed, point, rep]).generate_state(3)
            scenario_seed, alloc_seed, mc_seed = (int(v) for v in state)
            cfg = replace(spec.config, num_sensors=num_sensors, seed=scenario_seed)
            s = scn.generate_scenario(cfg)
            allocs = {
                "greedy": allocation.greedy_allocate(
                    s, "single", allocation.GreedyConfig(init_seed=alloc_seed)
                ).allocation,
                "random": allocation.random_allocate(s, "single", alloc_seed),
            }
            for strategy, alloc in allocs.items():
                method = outage.MonteCarloMethod(seed=mc_seed)
                totals[strategy] += outage.average_outage(alloc, s, method).average
        assert rows[2 * point][3] == totals["greedy"] / 2
        assert rows[2 * point + 1][3] == totals["random"] / 2


def test_outage_vs_p_multiple_mode():
    spec = spec_for("outage_vs_p", sweep=(0.1,), mode="multiple", method="gc3")
    result = experiments.run_experiment(spec)
    assert [row[:3] for row in result.rows] == [
        (0.1, "greedy", "multiple"),
        (0.1, "random", "multiple"),
    ]
    assert result.rows[0][3] <= result.rows[1][3] + 1e-12


def test_outage_cdf_structure():
    spec = spec_for("outage_cdf", reps=2, cdf_points=21, method="gc5")
    result = experiments.run_experiment(spec)
    assert result.columns == ("pout", "F_greedy", "F_random")
    assert len(result.rows) == 21
    table = np.array(result.rows)
    assert table[0, 0] == 0.0 and table[-1, 0] == 1.0
    for col in (1, 2):
        assert np.all(np.diff(table[:, col]) >= 0)
        assert table[-1, col] == 1.0


def test_outage_cdf_deterministic():
    spec = spec_for("outage_cdf", cdf_points=11, method="gc5")
    assert experiments.run_experiment(spec) == experiments.run_experiment(spec)
