import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmtc_outage.access import (
    ResourceAllocation,
    color_bound,
    decode_holds,
    decode_resources,
    effective_probabilities,
    encode_resources,
    interfering_set,
    read_allocation_csv,
    resource_mask,
    write_allocation_csv,
)
from mmtc_outage.scenario import ScenarioConfig, generate_scenario


@pytest.fixture(scope="module")
def toy_scenario():
    cfg = ScenarioConfig(
        num_sensors=24, num_cns=3, antennas=4, beams=2,
        num_resources=3, activity=0.12, seed=31,
    )
    return generate_scenario(cfg)


def alloc_for(scenario, mode, colors):
    return ResourceAllocation(mode, np.asarray(colors), scenario.config.num_resources)


# --- encoding ---------------------------------------------------------------


def test_worked_encoding_example():
    assert encode_resources([1, 0, 1, 0, 0, 1]) == 37
    assert decode_resources(37, 6) == {1, 3, 6}


def test_all_zero_vector_encodes_zero():
    assert encode_resources([0] * 6) == 0
    assert decode_resources(0, 6) == frozenset()


def test_colors_containing_resource_one():
    holders = [c for c in range(8) if 1 in decode_resources(c, 3)]
    assert holders == [1, 3, 5, 7]


@settings(max_examples=100)
@given(st.integers(1, 10).flatmap(
    lambda r: st.tuples(st.just(r), st.integers(0, (1 << r) - 1))
))
def test_encode_decode_roundtrip(case):
    r, color = case
    ids = decode_resources(color, r)
    bits = [1 if n in ids else 0 for n in range(1, r + 1)]
    assert encode_resources(bits) == color


def test_decode_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        decode_resources(8, 3)
    with pytest.raises(ValueError, match="out of range"):
        decode_resources(-1, 3)


def test_encode_rejects_non_binary():
    with pytest.raises(ValueError):
        encode_resources([1, 2, 0])


def test_color_bound_per_mode():
    assert color_bound("single", 6) == 6
    assert color_bound("multiple", 6) == 63
    with pytest.raises(ValueError):
        color_bound("both", 6)


# --- allocation object ------------------------------------------------------


def test_single_mode_sets_are_singletons():
    alloc = ResourceAllocation("single", np.array([[0, 2], [3, 3]]), 3)
    assert alloc.resource_sets == (
        frozenset(), frozenset({2}), frozenset({3}), frozenset({3}),
    )
    assert alloc.set_sizes.tolist() == [0, 1, 1, 1]


def test_multiple_mode_sets_decode_colors():
    alloc = ResourceAllocation("multiple", np.array([[5, 0]]), 3)
    assert alloc.tuple_set(0, 0) == {1, 3}
    assert alloc.tuple_set(0, 1) == frozenset()


@pytest.mark.parametrize("mode", ["single", "multiple"])
def test_holds_agrees_with_sets_and_masks(toy_scenario, mode):
    rng = np.random.default_rng(8)
    bound = color_bound(mode, 3)
    for _ in range(20):
        alloc = alloc_for(toy_scenario, mode, rng.integers(0, bound + 1, size=(3, 2)))
        assert alloc.holds.shape == (6, 3)
        assert not alloc.holds.flags.writeable
        for node, ids in enumerate(alloc.resource_sets):
            assert {t for t in (1, 2, 3) if alloc.holds[node, t - 1]} == ids
        assert np.array_equal(alloc.set_sizes, alloc.holds.sum(axis=1))
        for t in (1, 2, 3):
            expected = [t in alloc.resource_sets[d] for d in toy_scenario.det_node]
            assert resource_mask(alloc, toy_scenario, t).tolist() == expected
    assert np.array_equal(decode_holds(np.arange(bound + 1), mode, 3), np.array(
        [[n in decode_resources(c, 3) if mode == "multiple" else n == c for n in (1, 2, 3)]
         for c in range(bound + 1)]
    ))


def test_allocation_rejects_out_of_bound_colors():
    with pytest.raises(ValueError, match="single-mode colors"):
        ResourceAllocation("single", np.array([[4]]), 3)
    with pytest.raises(ValueError, match="multiple-mode colors"):
        ResourceAllocation("multiple", np.array([[8]]), 3)
    with pytest.raises(ValueError):
        ResourceAllocation("single", np.array([[-1]]), 3)


def test_allocation_rejects_bad_mode_and_shape():
    with pytest.raises(ValueError, match="mode"):
        ResourceAllocation("dual", np.array([[1]]), 3)
    with pytest.raises(ValueError, match="matrix"):
        ResourceAllocation("single", np.array([1, 2]), 3)


# --- interfering sets -------------------------------------------------------


def test_full_reuse_interferes_with_everyone(toy_scenario):
    # every tuple on the same single resource: members = all j != i
    colors = np.ones((3, 2), dtype=int)
    alloc = alloc_for(toy_scenario, "single", colors)
    js = interfering_set(alloc, toy_scenario, 5, 1)
    assert js.members == tuple(j for j in range(24) if j != 5)
    assert 5 not in js.members


def test_lone_holder_has_empty_set(toy_scenario):
    # only sensor i's tuple holds resource 2
    node = int(toy_scenario.det_node[0])
    colors = np.ones(6, dtype=int)
    colors[node] = 2
    alloc = alloc_for(toy_scenario, "single", colors.reshape(3, 2))
    others_on_node = [
        j for j in range(24) if toy_scenario.det_node[j] == node and j != 0
    ]
    js = interfering_set(alloc, toy_scenario, 0, 2)
    assert js.members == tuple(others_on_node)
    assert js.inter == ()


def test_membership_matches_hand_enumeration(toy_scenario):
    colors = np.array([[3, 5], [6, 0], [1, 3]])  # multiple mode codes
    alloc = alloc_for(toy_scenario, "multiple", colors)
    i, t = 7, 2
    node_i = int(toy_scenario.det_node[i])
    if t not in alloc.resource_sets[node_i]:
        pytest.skip("seed placed sensor 7 on a tuple without resource 2")
    expected = {
        j
        for j in range(toy_scenario.num_sensors)
        if j != i and t in alloc.resource_sets[int(toy_scenario.det_node[j])]
    }
    js = interfering_set(alloc, toy_scenario, i, t)
    assert set(js.members) == expected


def test_intra_inter_partition(toy_scenario):
    colors = np.full((3, 2), 1, dtype=int)
    alloc = alloc_for(toy_scenario, "single", colors)
    js = interfering_set(alloc, toy_scenario, 3, 1)
    node = int(toy_scenario.det_node[3])
    for j in js.intra:
        assert toy_scenario.det_node[j] == node
    for j in js.inter:
        assert toy_scenario.det_node[j] != node
    assert set(js.intra) | set(js.inter) == set(js.members)
    assert not set(js.intra) & set(js.inter)


def test_reuse_symmetry(toy_scenario):
    colors = np.array([[3, 1], [2, 7], [5, 4]])
    alloc = alloc_for(toy_scenario, "multiple", colors)
    for t in (1, 2, 3):
        on_t = np.nonzero(resource_mask(alloc, toy_scenario, t))[0]
        for i in on_t[:4]:
            members_i = interfering_set(alloc, toy_scenario, int(i), t).members
            for j in members_i[:4]:
                back = interfering_set(alloc, toy_scenario, int(j), t).members
                assert int(i) in back


def test_interfering_set_rejects_unheld_resource(toy_scenario):
    node = int(toy_scenario.det_node[2])
    colors = np.ones(6, dtype=int)
    colors[node] = 3
    alloc = alloc_for(toy_scenario, "single", colors.reshape(3, 2))
    with pytest.raises(ValueError, match="not 1"):
        interfering_set(alloc, toy_scenario, 2, 1)


def test_resource_mask_rejects_bad_id(toy_scenario):
    alloc = alloc_for(toy_scenario, "single", np.ones((3, 2), dtype=int))
    with pytest.raises(ValueError, match="resource ids"):
        resource_mask(alloc, toy_scenario, 0)


def test_single_mode_equals_singleton_multiple(toy_scenario):
    # a single-mode allocation and the multiple-mode allocation whose codes
    # are the matching one-hot vectors give identical sets and probabilities
    rng = np.random.default_rng(0)
    single_colors = rng.integers(0, 4, size=(3, 2))
    multi_colors = np.where(single_colors > 0, 1 << (single_colors - 1), 0)
    a_single = alloc_for(toy_scenario, "single", single_colors)
    a_multi = alloc_for(toy_scenario, "multiple", multi_colors)
    assert a_single.resource_sets == a_multi.resource_sets
    np.testing.assert_array_equal(
        effective_probabilities(a_single, toy_scenario),
        effective_probabilities(a_multi, toy_scenario),
    )
    for i in range(toy_scenario.num_sensors):
        own = a_single.resource_sets[int(toy_scenario.det_node[i])]
        for t in own:
            js_s = interfering_set(a_single, toy_scenario, i, t)
            js_m = interfering_set(a_multi, toy_scenario, i, t)
            assert js_s == js_m


# --- effective probabilities -------------------------------------------------


def test_effective_probability_values(toy_scenario):
    node = int(toy_scenario.det_node[0])
    colors = np.zeros(6, dtype=int)
    colors[node] = 7  # resources {1, 2, 3}
    alloc = alloc_for(toy_scenario, "multiple", colors.reshape(3, 2))
    p = effective_probabilities(alloc, toy_scenario)
    assert p[0] == pytest.approx(0.12 / 3)
    off_node_sensor = next(
        j for j in range(24) if toy_scenario.det_node[j] != node
    )
    assert p[off_node_sensor] == 0.0


def test_single_resource_keeps_raw_activity(toy_scenario):
    alloc = alloc_for(toy_scenario, "single", np.ones((3, 2), dtype=int))
    p = effective_probabilities(alloc, toy_scenario)
    assert np.allclose(p, 0.12)


def test_probabilities_in_interfering_set(toy_scenario):
    colors = np.full(6, 3, dtype=int)  # multiple mode: {1, 2} everywhere
    alloc = alloc_for(toy_scenario, "multiple", colors.reshape(3, 2))
    js = interfering_set(alloc, toy_scenario, 1, 2)
    assert js.probabilities[int(js.members[0])] == pytest.approx(0.12 / 2)


# --- CSV round trip -----------------------------------------------------------


def test_allocation_csv_roundtrip(tmp_path):
    alloc = ResourceAllocation("multiple", np.array([[5, 0], [63, 9]]), 6)
    path = tmp_path / "alloc.csv"
    write_allocation_csv(alloc, path)
    back = read_allocation_csv(path)
    assert back.mode == alloc.mode
    assert back.num_resources == alloc.num_resources
    np.testing.assert_array_equal(back.colors, alloc.colors)
    assert back.resource_sets == alloc.resource_sets


def test_allocation_csv_layout(tmp_path):
    alloc = ResourceAllocation("single", np.array([[2]]), 3)
    path = tmp_path / "alloc.csv"
    write_allocation_csv(alloc, path)
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "# allocation mode=single num_cns=1 num_beams=1 num_resources=3"
    )
    assert lines[1] == "cn,beam,color,resource_list"
    assert lines[2] == "0,0,2,2"


def test_allocation_csv_rejects_tampered_list(tmp_path):
    alloc = ResourceAllocation("multiple", np.array([[5]]), 3)
    path = tmp_path / "alloc.csv"
    write_allocation_csv(alloc, path)
    text = path.read_text().replace("1;3", "1;2")
    path.write_text(text)
    with pytest.raises(ValueError, match="does not match"):
        read_allocation_csv(path)


def test_allocation_csv_rejects_missing_header(tmp_path):
    path = tmp_path / "alloc.csv"
    path.write_text("cn,beam,color,resource_list\n0,0,1,1\n")
    with pytest.raises(ValueError, match="comment line"):
        read_allocation_csv(path)
