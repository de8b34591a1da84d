import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmtc_outage.access import (
    ResourceAllocation,
    color_bound,
    decode_holds,
    effective_probabilities,
    read_allocation_csv,
    write_allocation_csv,
)
from mmtc_outage.outage import interference_terms
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


def held_by_bits(color, mode, num_resources):
    """Resource ids of one color, decoded by hand apart from the library."""
    if mode == "single":
        return {color} if color else set()
    return {n for n in range(1, num_resources + 1) if color >> (n - 1) & 1}


def members_by_bits(scenario, mode, colors, sensor, resource):
    """Sensors other than ``sensor`` whose tuple holds ``resource``."""
    flat = np.asarray(colors).ravel().tolist()
    r = scenario.config.num_resources
    return [
        j for j in range(scenario.num_sensors)
        if j != sensor and resource in held_by_bits(flat[scenario.det_node[j]], mode, r)
    ]


def positive_weights(scenario, sensor, members):
    row = scenario.powers_at[scenario.det_node[sensor]]
    return [float(row[j]) for j in members if row[j] > 0.0]


# --- encoding ---------------------------------------------------------------


def test_worked_encoding_example():
    row = decode_holds(37, "multiple", 6)[0]
    assert row.tolist() == [True, False, True, False, False, True]
    assert (np.flatnonzero(row) + 1).tolist() == [1, 3, 6]


def test_all_zero_vector_encodes_zero():
    for mode in ("single", "multiple"):
        assert not decode_holds(0, mode, 6).any()


def test_colors_containing_resource_one():
    holders = np.flatnonzero(decode_holds(np.arange(8), "multiple", 3)[:, 0])
    assert holders.tolist() == [1, 3, 5, 7]


@settings(max_examples=100)
@given(st.integers(1, 10).flatmap(
    lambda r: st.tuples(st.just(r), st.integers(0, (1 << r) - 1))
))
def test_encode_decode_roundtrip(case):
    r, color = case
    row = decode_holds(color, "multiple", r)[0]
    assert sum(int(bit) << n for n, bit in enumerate(row)) == color


def test_decode_rejects_out_of_range():
    with pytest.raises(ValueError, match="must lie in"):
        decode_holds(8, "multiple", 3)
    with pytest.raises(ValueError, match="must lie in"):
        decode_holds(-1, "multiple", 3)


def test_color_bound_per_mode():
    assert color_bound("single", 6) == 6
    assert color_bound("multiple", 6) == 63
    with pytest.raises(ValueError):
        color_bound("both", 6)


# --- allocation object ------------------------------------------------------


def test_single_mode_sets_are_singletons():
    alloc = ResourceAllocation("single", np.array([[0, 2], [3, 3]]), 3)
    assert alloc.holds.tolist() == [
        [False, False, False], [False, True, False], [False, False, True], [False, False, True],
    ]
    assert alloc.set_sizes.tolist() == [0, 1, 1, 1]


def test_multiple_mode_sets_decode_colors():
    alloc = ResourceAllocation("multiple", np.array([[5, 0]]), 3)
    assert alloc.holds.tolist() == [[True, False, True], [False, False, False]]
    assert alloc.set_sizes.tolist() == [2, 0]


@pytest.mark.parametrize("mode", ["single", "multiple"])
def test_holds_agrees_with_sets_and_masks(toy_scenario, mode):
    rng = np.random.default_rng(8)
    bound = color_bound(mode, 3)
    for _ in range(20):
        alloc = alloc_for(toy_scenario, mode, rng.integers(0, bound + 1, size=(3, 2)))
        assert alloc.holds.shape == (6, 3)
        assert not alloc.holds.flags.writeable
        sets = [held_by_bits(c, mode, 3) for c in alloc.colors.ravel().tolist()]
        for node, ids in enumerate(sets):
            assert {t for t in (1, 2, 3) if alloc.holds[node, t - 1]} == ids
        assert alloc.set_sizes.tolist() == [len(ids) for ids in sets]
        for t in (1, 2, 3):
            expected = [t in sets[d] for d in toy_scenario.det_node]
            assert alloc.holds[toy_scenario.det_node, t - 1].tolist() == expected
    assert decode_holds(np.arange(bound + 1), mode, 3).tolist() == [
        [n in held_by_bits(c, mode, 3) for n in (1, 2, 3)] for c in range(bound + 1)
    ]


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


# --- interference pools -----------------------------------------------------


def test_full_reuse_interferes_with_everyone(toy_scenario):
    # every tuple on the same single resource: members = all j != i
    colors = np.ones((3, 2), dtype=int)
    alloc = alloc_for(toy_scenario, "single", colors)
    assert alloc.holds[toy_scenario.det_node, 0].all()
    weights, probs = interference_terms(alloc, toy_scenario, 5, 1)
    others = [j for j in range(24) if j != 5]
    assert weights.tolist() == positive_weights(toy_scenario, 5, others)
    assert probs.tolist() == [0.12] * weights.size


def test_lone_holder_has_empty_set(toy_scenario):
    # only sensor 0's tuple holds resource 2
    node = int(toy_scenario.det_node[0])
    colors = np.ones(6, dtype=int)
    colors[node] = 2
    alloc = alloc_for(toy_scenario, "single", colors.reshape(3, 2))
    on_node = np.flatnonzero(toy_scenario.det_node == node)
    assert np.flatnonzero(alloc.holds[toy_scenario.det_node, 1]).tolist() == on_node.tolist()
    weights, _ = interference_terms(alloc, toy_scenario, 0, 2)
    assert weights.tolist() == positive_weights(toy_scenario, 0, on_node[on_node != 0])


def test_membership_matches_hand_enumeration(toy_scenario):
    colors = np.array([[3, 5], [6, 0], [1, 3]])  # multiple mode codes
    alloc = alloc_for(toy_scenario, "multiple", colors)
    for i in range(toy_scenario.num_sensors):
        for t in (1, 2, 3):
            expected = members_by_bits(toy_scenario, "multiple", colors, i, t)
            mask = alloc.holds[toy_scenario.det_node, t - 1]
            mask[i] = False
            assert np.flatnonzero(mask).tolist() == expected
            if alloc.holds[toy_scenario.det_node[i], t - 1]:
                weights, _ = interference_terms(alloc, toy_scenario, i, t)
                assert weights.tolist() == positive_weights(toy_scenario, i, expected)


def test_reuse_symmetry(toy_scenario):
    # j interferes with i on t exactly when i interferes with j on t
    colors = np.array([[3, 1], [2, 7], [5, 4]])
    alloc = alloc_for(toy_scenario, "multiple", colors)
    det, powers = toy_scenario.det_node, toy_scenario.powers_at
    for t in (1, 2, 3):
        on_t = np.nonzero(alloc.holds[toy_scenario.det_node, t - 1])[0][:4]
        for i in on_t:
            for j in on_t[on_t != i]:
                assert powers[det[j], i] in interference_terms(alloc, toy_scenario, j, t)[0]
                assert powers[det[i], j] in interference_terms(alloc, toy_scenario, i, t)[0]


def test_interference_terms_rejects_bad_id(toy_scenario):
    alloc = alloc_for(toy_scenario, "single", np.ones((3, 2), dtype=int))
    for resource in (0, 4):  # R = 3
        with pytest.raises(ValueError, match=rf"resource ids run 1\.\.3, got {resource}"):
            interference_terms(alloc, toy_scenario, 0, resource)


def test_single_mode_equals_singleton_multiple(toy_scenario):
    # a single-mode allocation and the multiple-mode allocation whose codes
    # are the matching one-hot vectors give identical sets and probabilities
    rng = np.random.default_rng(0)
    single_colors = rng.integers(0, 4, size=(3, 2))
    multi_colors = np.where(single_colors > 0, 1 << (single_colors - 1), 0)
    a_single = alloc_for(toy_scenario, "single", single_colors)
    a_multi = alloc_for(toy_scenario, "multiple", multi_colors)
    np.testing.assert_array_equal(a_single.holds, a_multi.holds)
    np.testing.assert_array_equal(
        effective_probabilities(a_single, toy_scenario),
        effective_probabilities(a_multi, toy_scenario),
    )
    for i in range(toy_scenario.num_sensors):
        for t in np.flatnonzero(a_single.holds[toy_scenario.det_node[i]]) + 1:
            w_s, p_s = interference_terms(a_single, toy_scenario, i, t)
            w_m, p_m = interference_terms(a_multi, toy_scenario, i, t)
            np.testing.assert_array_equal(w_s, w_m)
            np.testing.assert_array_equal(p_s, p_m)


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


def test_probabilities_in_interference_terms(toy_scenario):
    colors = np.full(6, 3, dtype=int)  # multiple mode: {1, 2} everywhere
    alloc = alloc_for(toy_scenario, "multiple", colors.reshape(3, 2))
    _, probs = interference_terms(alloc, toy_scenario, 1, 2)
    assert probs.size > 0
    assert probs.tolist() == pytest.approx([0.12 / 2] * probs.size)


# --- CSV round trip -----------------------------------------------------------


def test_allocation_csv_roundtrip(tmp_path):
    alloc = ResourceAllocation("multiple", np.array([[5, 0], [63, 9]]), 6)
    path = tmp_path / "alloc.csv"
    write_allocation_csv(alloc, path, note="config: seed=3")
    assert path.read_text().splitlines()[0].endswith(" num_resources=6 config: seed=3")
    back = read_allocation_csv(path)
    assert back.mode == alloc.mode
    assert back.num_resources == alloc.num_resources
    np.testing.assert_array_equal(back.colors, alloc.colors)
    np.testing.assert_array_equal(back.holds, alloc.holds)


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


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda rows: rows + ["-1,0,3,3"], r"line 7: tuple \(-1, 0\) lies outside"),
        (lambda rows: rows + ["0,2,1,1"], r"line 7: tuple \(0, 2\) lies outside"),
        (lambda rows: rows + ["2,0,1,1"], r"line 7: tuple \(2, 0\) lies outside"),
        (lambda rows: rows[:3] + rows[4:], r"no row for tuple \(0, 1\)"),
        (lambda rows: rows + [rows[3]], r"line 7: tuple \(0, 1\) is listed twice"),
        (lambda rows: rows + ["1,1,3"], r"line 7: malformed row"),
    ],
    ids=["negative-cn", "beam-too-large", "cn-too-large", "missing-row", "duplicate-row",
         "short-row"],
)
def test_allocation_csv_rejects_bad_rows(tmp_path, edit, message):
    alloc = ResourceAllocation("single", np.array([[1, 2], [3, 1]]), 3)
    path = tmp_path / "alloc.csv"
    write_allocation_csv(alloc, path)
    rows = path.read_text().splitlines()
    path.write_text("\n".join(edit(rows)) + "\n")
    with pytest.raises(ValueError, match=message):
        read_allocation_csv(path)
