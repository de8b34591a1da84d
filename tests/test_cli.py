"""Command-line interface tests: exit codes, emitted files, determinism."""

import numpy as np
import pytest

from mmtc_outage import access, allocation, cli, experiments
from mmtc_outage import scenario as scn


TINY_CFG = """\
# compact scenario for fast runs
num_sensors=12
num_cns=2
antennas=4
beams=2
activity=0.15
num_resources=2
deploy_radius=60.0
area_side=400.0
"""


@pytest.fixture()
def cfg_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return path


def run(*argv):
    return cli.main([str(a) for a in argv])


def test_gen_writes_scenario_csv(tmp_path, cfg_file):
    out = tmp_path / "run"
    assert run("gen", "--config", cfg_file, "--seed", 7, "--out", out) == 0
    text = (out / "scenario.csv").read_text()
    assert text.splitlines()[1].startswith("sensor_id,")
    assert len(text.splitlines()) == 2 + 12


def test_gen_seed_changes_output(tmp_path, cfg_file):
    a, b = tmp_path / "a", tmp_path / "b"
    run("gen", "--config", cfg_file, "--seed", 1, "--out", a)
    run("gen", "--config", cfg_file, "--seed", 2, "--out", b)
    assert (a / "scenario.csv").read_bytes() != (b / "scenario.csv").read_bytes()


def test_missing_config_exits_1_with_path(tmp_path, capsys):
    missing = tmp_path / "nowhere.cfg"
    assert run("gen", "--config", missing, "--out", tmp_path) == 1
    assert str(missing) in capsys.readouterr().err


def test_sweep_help_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        run("sweep", "--help")
    assert info.value.code == 0
    assert "experiment" in capsys.readouterr().out


def test_unknown_experiment_is_usage_error(tmp_path, cfg_file):
    with pytest.raises(SystemExit) as info:
        run("sweep", "histogram", "--config", cfg_file, "--out", tmp_path)
    assert info.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as info:
        run("frobnicate")
    assert info.value.code == 2


def test_bad_runtime_value_exits_1(tmp_path, cfg_file, capsys):
    code = run(
        "sweep", "error_vs_m", "--config", cfg_file, "--out", tmp_path,
        "--values", "",
    )
    assert code == 1
    assert "sweep" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["error_vs_m", "outage_vs_m"])
def test_fractional_sensor_count_exits_1(tmp_path, cfg_file, capsys, experiment):
    code = run(
        "sweep", experiment, "--config", cfg_file, "--out", tmp_path,
        "--values", "8.7,12", "--grid-points", 256,
    )
    assert code == 1
    assert "whole sensor counts" in capsys.readouterr().err
    assert not (tmp_path / f"{experiment}.csv").exists()


@pytest.mark.parametrize(
    "experiment, values", [("error_vs_p", "0.3,0.0"), ("error_vs_p", "1.0"), ("error_vs_m", "1")]
)
def test_zero_variance_error_sweep_point_exits_1(
    tmp_path, cfg_file, capsys, monkeypatch, experiment, values
):
    error = "at least 2 sensors" if experiment == "error_vs_m" else "strictly between 0 and 1"
    drawn = []
    monkeypatch.setattr(experiments, "generate_scenario", lambda cfg: drawn.append(cfg))
    code = run(
        "sweep", experiment, "--config", cfg_file, "--out", tmp_path,
        "--values", values, "--grid-points", 256,
    )
    assert code == 1
    assert error in capsys.readouterr().err
    assert drawn == []  # refused before the first point's scenario
    assert not (tmp_path / f"{experiment}.csv").exists()


def test_approx_writes_cdf_compare(tmp_path, cfg_file):
    code = run(
        "approx", "--config", cfg_file, "--seed", 3, "--out", tmp_path,
        "--sensor", 1, "--grid-points", 256,
    )
    assert code == 0
    lines = (tmp_path / "cdf_compare.csv").read_text().splitlines()
    assert lines[0].startswith("# cdf_compare")
    assert lines[1].startswith("gamma,cdf_ref,cdf_gc0")
    assert len(lines) == 2 + 256


def test_sweep_error_vs_m(tmp_path, cfg_file):
    code = run(
        "sweep", "error_vs_m", "--config", cfg_file, "--out", tmp_path,
        "--values", "10,14", "--orders", "0,5", "--grid-points", 256,
    )
    assert code == 0
    lines = (tmp_path / "error_vs_m.csv").read_text().splitlines()
    assert lines[1] == "sweep_value,order,epsilon"
    assert len(lines) == 2 + 4
    assert lines[2].startswith("10,0,")


def test_sweep_outage_vs_p_multiple(tmp_path, cfg_file):
    code = run(
        "sweep", "outage_vs_p", "--config", cfg_file, "--out", tmp_path,
        "--values", "0.1", "--mode", "multiple", "--method", "gc3",
    )
    assert code == 0
    lines = (tmp_path / "outage_vs_p.csv").read_text().splitlines()
    assert lines[1] == "sweep_value,strategy,mode,avg_pout"
    assert [ln.split(",")[1] for ln in lines[2:]] == ["greedy", "random"]


def test_sweep_outage_cdf(tmp_path, cfg_file):
    code = run(
        "sweep", "outage_cdf", "--config", cfg_file, "--out", tmp_path,
        "--reps", 2, "--cdf-points", 11, "--method", "gc5",
    )
    assert code == 0
    lines = (tmp_path / "outage_cdf.csv").read_text().splitlines()
    assert lines[1] == "pout,F_greedy,F_random"
    assert len(lines) == 2 + 11


def test_allocate_greedy_emits_allocation_and_trace(tmp_path, cfg_file):
    code = run(
        "allocate", "--config", cfg_file, "--seed", 5, "--out", tmp_path,
    )
    assert code == 0
    alloc = access.read_allocation_csv(tmp_path / "allocation.csv")
    assert alloc.mode == "single" and alloc.num_tuples == 4
    trace_lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace_lines[1] == "iteration,average_outage"
    assert len(trace_lines) >= 4  # comment, header, init, >=1 sweep


def test_allocate_zero_sweeps_writes_random_start(tmp_path, cfg_file):
    out = tmp_path / "rnd"
    code = run(
        "allocate", "--config", cfg_file, "--out", out, "--max-iterations", 0,
        "--mode", "multiple",
    )
    assert code == 0
    alloc = access.read_allocation_csv(out / "allocation.csv")
    scenario = scn.generate_scenario(scn.load_scenario_config(cfg_file))
    start = allocation.random_allocate(scenario, "multiple", scenario.config.seed)
    assert alloc.colors.tolist() == start.colors.tolist()
    trace_lines = (out / "trace.csv").read_text().splitlines()
    assert trace_lines[1] == "iteration,average_outage"
    assert len(trace_lines) == 3  # comment, header, the random start's objective
    assert trace_lines[2].startswith("0,")


def test_report_from_allocation_file(tmp_path, cfg_file):
    run("allocate", "--config", cfg_file, "--seed", 5, "--out", tmp_path)
    code = run(
        "report", "--config", cfg_file, "--seed", 5, "--out", tmp_path,
        "--allocation", tmp_path / "allocation.csv", "--grid-points", 1024,
    )
    assert code == 0
    lines = (tmp_path / "outage.csv").read_text().splitlines()
    assert lines[0].startswith("# outage mode=single method=cf grid_points=1024")
    assert lines[1] == "sensor_id,resource_mode,method,p_out"
    assert len(lines) == 2 + 12 + 1
    assert lines[-1].startswith("# average=")
    values = [float(ln.split(",")[3]) for ln in lines[2:-1]]
    assert all(0.0 <= v <= 1.0 for v in values)


def test_report_mismatched_allocation_exits_1(tmp_path, cfg_file, capsys):
    wide = access.ResourceAllocation(
        "single", np.ones((3, 2), dtype=np.int64), 2
    )
    access.write_allocation_csv(wide, tmp_path / "wide.csv")
    code = run(
        "report", "--config", cfg_file, "--out", tmp_path,
        "--allocation", tmp_path / "wide.csv",
    )
    assert code == 1
    assert "tuples" in capsys.readouterr().err


def test_report_allocation_of_other_shape_exits_1(tmp_path, cfg_file, capsys):
    # 2 x 2 tuples in the tiny scenario, 4 x 1 in the file: same count
    tall = access.ResourceAllocation("single", np.array([[1], [2], [1], [2]]), 2)
    access.write_allocation_csv(tall, tmp_path / "tall.csv")
    code = run(
        "report", "--config", cfg_file, "--out", tmp_path,
        "--allocation", tmp_path / "tall.csv",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "4 x 1" in err and "2 x 2" in err


def test_report_allocation_of_other_resource_count_exits_1(tmp_path, cfg_file, capsys):
    # the tiny config has num_resources=2; the file was written under 6
    six = access.ResourceAllocation("single", np.array([[1, 6], [3, 0]]), 6)
    access.write_allocation_csv(six, tmp_path / "six.csv")
    code = run(
        "report", "--config", cfg_file, "--out", tmp_path,
        "--allocation", tmp_path / "six.csv",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "num_resources=6" in err and "num_resources=2" in err
    assert not (tmp_path / "outage.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--mode", "multiple"),
        ("gen", "--method", "gc5"),
        ("gen", "--grid-points", "256"),
        ("approx", "--mode", "multiple"),
        ("approx", "--method", "gc5"),
        ("allocate", "--method", "gc5"),
        ("allocate", "--grid-points", "256"),
        ("allocate", "--strategy", "random"),
        ("sweep", "error_vs_p", "--values", "0.1", "--method", "mc"),
        ("sweep", "error_vs_p", "--values", "0.1", "--mode", "multiple"),
        ("sweep", "error_vs_p", "--values", "0.1", "--cdf-points", "7"),
        ("sweep", "outage_vs_m", "--values", "8", "--orders", "1"),
        ("sweep", "outage_vs_m", "--values", "8", "--cdf-points", "7"),
        ("sweep", "outage_cdf", "--values", "5,6"),
        ("sweep", "outage_cdf", "--orders", "1"),
        ("report", "--allocation", "allocation.csv", "--strategy", "random"),
        ("report", "--allocation", "allocation.csv", "--mode", "single"),
        ("report",),  # --allocation is required
    ],
    ids=lambda argv: " ".join(argv),
)
def test_flag_the_subcommand_does_not_read_is_usage_error(tmp_path, cfg_file, argv):
    with pytest.raises(SystemExit) as info:
        run(*argv, "--config", cfg_file, "--out", tmp_path)
    assert info.value.code == 2


def test_report_mc_seed_is_the_config_seed(tmp_path, cfg_file):
    cfg_file.write_text(TINY_CFG + "seed=7\n")
    assert run("allocate", "--config", cfg_file, "--out", tmp_path) == 0
    shared = (
        "--config", cfg_file, "--method", "mc", "--draws", 500,
        "--allocation", tmp_path / "allocation.csv",
    )
    assert run("report", *shared, "--out", tmp_path / "implicit") == 0
    assert run("report", *shared, "--seed", 7, "--out", tmp_path / "explicit") == 0
    implicit = (tmp_path / "implicit" / "outage.csv").read_bytes()
    assert implicit == (tmp_path / "explicit" / "outage.csv").read_bytes()


def test_report_mc_method(tmp_path, cfg_file):
    shared = ("--config", cfg_file, "--seed", 2, "--out", tmp_path)
    assert run("allocate", *shared, "--max-iterations", 0, "--mode", "multiple") == 0
    code = run(
        "report", *shared, "--method", "mc", "--draws", 200,
        "--allocation", tmp_path / "allocation.csv",
    )
    assert code == 0
    # the mode is the one the allocation file records, the setting the one mc read
    header = (tmp_path / "outage.csv").read_text().splitlines()[0]
    assert header.startswith("# outage mode=multiple method=mc draws=200 config: ")
    code = run(
        "report", *shared, "--method", "gc5", "--out", tmp_path / "gc",
        "--allocation", tmp_path / "allocation.csv",
    )
    assert code == 0
    header = (tmp_path / "gc" / "outage.csv").read_text().splitlines()[0]
    assert header.startswith("# outage mode=multiple method=gc5 config: ")  # no grid_points


def test_repeat_runs_are_byte_identical(tmp_path, cfg_file):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(
            "sweep", "outage_vs_m", "--config", cfg_file, "--out", out,
            "--values", "12", "--method", "gc5", "--seed", 9,
        ) == 0
    assert (a / "outage_vs_m.csv").read_bytes() == (b / "outage_vs_m.csv").read_bytes()


def test_report_allocation_of_other_seed_exits_1(tmp_path, cfg_file, capsys):
    assert run("allocate", "--config", cfg_file, "--seed", 1, "--out", tmp_path) == 0
    code = run(
        "report", "--config", cfg_file, "--seed", 2, "--out", tmp_path,
        "--allocation", tmp_path / "allocation.csv",
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "seed=1" in err and "seed=2" in err
    assert not (tmp_path / "outage.csv").exists()


def test_report_allocation_with_out_of_shape_row_exits_1(tmp_path, cfg_file, capsys):
    run("allocate", "--config", cfg_file, "--out", tmp_path, "--max-iterations", 0)
    path = tmp_path / "allocation.csv"
    path.write_text(path.read_text() + "0,2,1,1\n")  # the tiny config has 2 beams
    code = run("report", "--config", cfg_file, "--out", tmp_path, "--allocation", path)
    assert code == 1
    assert "lies outside" in capsys.readouterr().err
