"""Interference-graph construction and greedy coloring tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mmtc_outage import access, allocation, outage
from mmtc_outage import scenario as scn


def placed_scenario(cn_xy, *, beams=4, factor=2.0, radius=100.0):
    """Two-collector hand geometry with a few throwaway sensors."""
    cn_xy = np.asarray(cn_xy, dtype=float)
    cfg = scn.ScenarioConfig(
        num_sensors=4,
        num_cns=cn_xy.shape[0],
        antennas=beams,
        beams=beams,
        num_resources=3,
        deploy_radius=radius,
        interference_factor=factor,
        area_side=2000.0,
    )
    sensors = cn_xy[np.zeros(4, dtype=int)] + np.array(
        [[10.0, 0.0], [0.0, 12.0], [-9.0, 3.0], [5.0, -8.0]]
    )
    home = np.zeros(4, dtype=np.int64)
    return scn.assemble_scenario(cfg, cn_xy, sensors, home)


def toy(**overrides):
    base = dict(
        num_sensors=24,
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


# ---------------------------------------------------------------------------
# graph construction


def test_single_collector_graph_is_complete():
    s = placed_scenario([[0.0, 0.0]])
    graph = allocation.build_graph(s)
    expected = ~np.eye(4, dtype=bool)
    assert np.array_equal(graph.adjacency, expected)
    assert graph.num_nodes == 4
    assert graph.degrees.tolist() == [3, 3, 3, 3]


def test_facing_collectors_within_reach_share_edges():
    s = placed_scenario([[0.0, 0.0], [250.0, 0.0]])
    graph = allocation.build_graph(s)
    adj = graph.adjacency
    # boresights at 0, pi/2, pi, 3pi/2: beam 0 of the left collector and
    # beam 2 of the right collector face each other
    assert adj[0, 4:].all()  # left beam 0 points at the right collector
    assert adj[:4, 4 + 2].all()  # right beam 2 points back
    assert np.flatnonzero(adj[1, 4:]).tolist() == [2]  # left beam 1 does not point
    assert not adj[3, 4 + 3]
    # same-collector cliques intact
    assert np.array_equal(adj[:4, :4], ~np.eye(4, dtype=bool))


def test_collectors_out_of_reach_are_independent():
    s = placed_scenario([[0.0, 0.0], [500.0, 0.0]])
    adj = allocation.build_graph(s).adjacency
    assert not adj[:4, 4:].any()


def test_reach_boundary_is_exclusive():
    # (factor + 1) * radius = 300 exactly: no inter-collector edges
    s = placed_scenario([[0.0, 0.0], [300.0, 0.0]])
    adj = allocation.build_graph(s).adjacency
    assert not adj[:4, 4:].any()


def test_angular_boundary_is_exclusive():
    # collector direction exactly between two boresights: neither points
    d = 250.0 / math.sqrt(2.0)
    s = placed_scenario([[0.0, 0.0], [d, d]])
    adj = allocation.build_graph(s).adjacency
    assert not adj[:4, 4:].any()  # no beam of either collector points
    assert not oracle_adjacency(s)[:4, 4:].any()


def oracle_adjacency(s):
    """The per-pair loop ``build_graph`` replaced, angles from ``math.atan2``."""
    num_cns, beams = s.num_cns, s.num_beams
    reach = (s.config.interference_factor + 1.0) * s.config.deploy_radius

    def points_at(cn, beam, other_cn):
        delta = s.cn_positions[other_cn] - s.cn_positions[cn]
        direction = math.atan2(float(delta[1]), float(delta[0]))
        offset = float(s.beam_angles[beam]) - direction
        return abs((offset + math.pi) % (2.0 * math.pi) - math.pi) < math.pi / beams

    adj = np.zeros((num_cns * beams, num_cns * beams), dtype=bool)
    for k in range(num_cns):
        for k2 in range(num_cns):
            gap = float(np.hypot(*(s.cn_positions[k2] - s.cn_positions[k])))
            for l in range(beams):
                for l2 in range(beams):
                    if k == k2:
                        edge = l != l2
                    else:
                        edge = gap < reach and (points_at(k, l, k2) or points_at(k2, l2, k))
                    adj[k * beams + l, k2 * beams + l2] = edge
    return adj


# integer grids of step 60 put collectors at exactly the 300 m reach (3-4-5
# triangles) and on the diagonals that bound a beam at L = 4
grid_layouts = st.integers(1, 6).flatmap(
    lambda k: st.one_of(
        arrays(np.int64, (k, 2), elements=st.integers(0, 10)).map(lambda xy: 60.0 * xy),
        arrays(float, (k, 2), elements=st.floats(0.0, 2000.0)),
    )
)


@settings(max_examples=200, deadline=None)
@given(grid_layouts, st.integers(1, 8))
def test_graph_matches_per_pair_oracle(cn_xy, beams):
    s = placed_scenario(cn_xy, beams=beams)
    assert np.array_equal(allocation.build_graph(s).adjacency, oracle_adjacency(s))


def test_degrees_and_sweep_order():
    s = placed_scenario([[0.0, 0.0], [250.0, 0.0]])
    graph = allocation.build_graph(s)
    assert graph.degrees.tolist() == [7, 4, 4, 4, 4, 4, 7, 4]
    assert graph.sweep_order().tolist() == [0, 6, 1, 2, 3, 4, 5, 7]
    assert np.flatnonzero(graph.adjacency[1]).tolist() == [0, 2, 3, 6]


def test_graph_validation():
    bad = np.zeros((3, 3), dtype=bool)
    bad[0, 1] = True
    with pytest.raises(ValueError, match="symmetric"):
        allocation.InterferenceGraph(bad)
    with pytest.raises(ValueError, match="diagonal"):
        allocation.InterferenceGraph(np.eye(2, dtype=bool))
    with pytest.raises(ValueError, match="square"):
        allocation.InterferenceGraph(np.zeros((2, 3), dtype=bool))


# ---------------------------------------------------------------------------
# greedy coloring


def test_lone_tuple_turns_itself_on():
    s = toy(num_cns=1, beams=1, antennas=2, num_sensors=6, num_resources=1)
    result = allocation.greedy_allocate(s, "single")
    assert result.allocation.colors[0, 0] == 1
    assert result.objective < 1.0  # switched off would pin every sensor at 1
    assert result.trace[0] >= result.objective
    solo = toy(num_cns=1, beams=1, antennas=2, num_sensors=1, num_resources=1)
    lone = allocation.greedy_allocate(solo, "single")
    assert lone.allocation.colors[0, 0] == 1
    assert lone.objective == 0.0


@pytest.mark.parametrize("mode", ["single", "multiple"])
def test_greedy_beats_random_start_for_every_seed(mode):
    s = toy()
    engine = outage.GcOutageEngine(s)
    for seed in range(20):
        result = allocation.greedy_allocate(
            s, mode, allocation.GreedyConfig(init_seed=seed), engine=engine
        )
        baseline = engine.outage_vector(allocation.random_allocate(s, mode, seed)).mean()
        assert result.objective <= baseline + 1e-12
        trace = np.asarray(result.trace)
        assert np.all(np.diff(trace) <= 1e-15)


def test_trace_starts_at_the_random_initialization():
    s = toy()
    engine = outage.GcOutageEngine(s)
    config = allocation.GreedyConfig(init_seed=5)
    result = allocation.greedy_allocate(s, "single", config, engine=engine)
    rng = np.random.default_rng(5)
    colors = rng.integers(0, 4, size=(s.num_cns, s.num_beams))
    init = access.ResourceAllocation("single", colors, 3)
    assert result.trace[0] == engine.outage_vector(init).mean()
    assert len(result.trace) <= config.max_iterations + 1


@pytest.mark.parametrize("mode", ["single", "multiple"])
def test_incremental_and_full_recompute_agree(mode):
    # greedy's objective comes from palette scores; a full recompute of the
    # final allocation must reproduce it bit for bit
    s = toy()
    engine = outage.GcOutageEngine(s)
    for seed in (3, 8):
        config = allocation.GreedyConfig(init_seed=seed)
        result = allocation.greedy_allocate(s, mode, config, engine=engine)
        assert result.objective == float(engine.outage_vector(result.allocation).mean())


def test_color_bound_restricts_palette():
    s = toy()
    result = allocation.greedy_allocate(
        s, "single", allocation.GreedyConfig(color_bound=1, init_seed=2)
    )
    assert set(np.unique(result.allocation.colors)) <= {0, 1}
    restricted = allocation.random_allocate(s, "multiple", 4, color_bound=2)
    assert restricted.colors.max() <= 2


def test_config_validation():
    with pytest.raises(ValueError, match="max_iterations"):
        allocation.GreedyConfig(max_iterations=-1)
    with pytest.raises(ValueError, match="improvement_threshold"):
        allocation.GreedyConfig(improvement_threshold=-1.0)
    with pytest.raises(ValueError, match="color_bound"):
        allocation.GreedyConfig(color_bound=0)
    s = toy()
    with pytest.raises(ValueError, match="palette"):
        allocation.greedy_allocate(
            s, "single", allocation.GreedyConfig(color_bound=5)
        )
    with pytest.raises(ValueError, match="color_bound"):
        allocation.random_allocate(s, "single", 0, color_bound=0)


def test_graph_shape_mismatch_raises():
    s = toy()
    wrong = allocation.InterferenceGraph(np.zeros((2, 2), dtype=bool))
    with pytest.raises(ValueError, match="tuples"):
        allocation.greedy_allocate(s, "single", graph=wrong)


def test_hopeless_scenario_stops_immediately():
    s = toy(detection_threshold=1e9)
    result = allocation.greedy_allocate(s, "single")
    assert result.trace == (1.0, 1.0)
    assert result.objective == 1.0


@pytest.mark.parametrize("mode", ["single", "multiple"])
def test_tied_colors_resolve_to_the_smallest(mode):
    # no interference: every color that switches a tuple on ties, so 1 wins
    quiet = toy(activity=0.0)
    # every color ties, switched off (0) included
    hopeless = toy(detection_threshold=1e9)
    for seed in range(4):
        config = allocation.GreedyConfig(init_seed=seed)
        on = allocation.greedy_allocate(quiet, mode, config).allocation.colors
        assert on.tolist() == np.ones_like(on).tolist()
        off = allocation.greedy_allocate(hopeless, mode, config).allocation.colors
        assert off.tolist() == np.zeros_like(off).tolist()


def test_trace_csv_layout(tmp_path):
    s = toy()
    result = allocation.greedy_allocate(s, "single")
    path = tmp_path / "trace.csv"
    allocation.write_trace_csv(result, path)
    raw = path.read_bytes()
    assert b"\r" not in raw and b"np.float64" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "# greedy mode=single num_resources=3"
    assert lines[1] == "iteration,average_outage"
    assert len(lines) == 2 + len(result.trace)
    assert lines[2].startswith("0,")
    assert float(lines[-1].split(",")[1]) == result.objective
